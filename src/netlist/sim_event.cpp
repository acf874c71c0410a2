#include "netlist/sim_event.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

namespace mfm::netlist {

void ActivityCounts::merge(const ActivityCounts& o) {
  if (toggles.empty()) {
    toggles = o.toggles;
    functional = o.functional;
  } else {
    if (toggles.size() != o.toggles.size())
      throw std::invalid_argument(
          "ActivityCounts::merge: circuit size mismatch");
    if (functional.size() != o.functional.size())
      throw std::invalid_argument(
          "ActivityCounts::merge: one side lacks the functional split");
    for (std::size_t i = 0; i < toggles.size(); ++i)
      toggles[i] += o.toggles[i];
    for (std::size_t i = 0; i < functional.size(); ++i)
      functional[i] += o.functional[i];
  }
  cycles += o.cycles;
  events += o.events;
}

std::uint64_t ActivityCounts::total_toggles() const {
  std::uint64_t sum = 0;
  for (std::uint64_t t : toggles) sum += t;
  return sum;
}

std::uint64_t ActivityCounts::total_functional() const {
  std::uint64_t sum = 0;
  for (std::uint64_t t : functional) sum += t;
  return sum;
}

std::uint64_t ActivityCounts::total_glitch() const {
  return has_split() ? total_toggles() - total_functional() : 0;
}

namespace {

/// The wheel indexes buckets by integer time, so a delay must be a whole
/// number of picoseconds (rounding one would silently move events), and
/// a bounded one, since the ring spans the slowest delay.
std::uint32_t whole_ps(double ps) {
  if (!(ps >= 0.0 && ps < 65536.0) || ps != std::floor(ps))
    throw std::invalid_argument(
        "EventSim: TechLib delay " + std::to_string(ps) +
        " ps is not a whole number of picoseconds below 65536");
  return static_cast<std::uint32_t>(ps);
}

}  // namespace

EventSim::EventSim(const CompiledCircuit& cc, const TechLib& lib)
    : EventSim(nullptr, &cc, lib) {}

EventSim::EventSim(const Circuit& c, const TechLib& lib)
    : EventSim(std::make_unique<const CompiledCircuit>(c), nullptr, lib) {}

EventSim::EventSim(std::unique_ptr<const CompiledCircuit> owned,
                   const CompiledCircuit* borrowed, const TechLib& lib)
    : owned_(std::move(owned)),
      cc_(owned_ ? owned_.get() : borrowed),
      c_(cc_->circuit()),
      clk_to_q_ps_(whole_ps(lib.clk_to_q_ps())),
      values_(cc_->size(), 0),
      staged_pi_(cc_->size(), 0),
      state_(cc_->flop_count(), 0),
      cycle_toggles_(cc_->size(), 0),
      latest_seq_(cc_->size(), kIdle) {
  counts_.toggles.assign(cc_->size(), 0);
  counts_.functional.assign(cc_->size(), 0);
  std::uint32_t slowest = 0;
  for (std::size_t k = 0; k < kGateKindCount; ++k) {
    delay_ps_[k] = whole_ps(lib.delay_ps(static_cast<GateKind>(k)));
    slowest = std::max(slowest, delay_ps_[k]);
  }
  // Events are scheduled at most clk-to-q + the slowest cell delay ahead
  // of the bucket being drained; a larger ring keeps one time per bucket.
  wheel_.resize(std::bit_ceil(clk_to_q_ps_ + slowest + 1u));
  wheel_mask_ = wheel_.size() - 1;
  settle_initial_state();
}

// Settle the initial state (all inputs 0): evaluate levelized once so the
// first cycle's transition counts are relative to a consistent state.
void EventSim::settle_initial_state() {
  for (NetId g = 0; g < c_.size(); ++g) {
    const Gate& gate = c_.gate(g);
    if (gate.kind == GateKind::Input) continue;
    if (gate.kind == GateKind::Dff) {
      values_[g] = state_[cc_->flop_ordinal(g)];
      continue;
    }
    const bool a = gate.in[0] != kNoNet && values_[gate.in[0]] != 0;
    const bool b = gate.in[1] != kNoNet && values_[gate.in[1]] != 0;
    const bool cc = gate.in[2] != kNoNet && values_[gate.in[2]] != 0;
    const bool dd = gate.in[3] != kNoNet && values_[gate.in[3]] != 0;
    values_[g] = eval_gate(gate.kind, a, b, cc, dd) ? 1 : 0;
  }
}

void EventSim::set(NetId input_net, bool v) {
  // Always-on check: under NDEBUG an assert would compile away and a
  // non-Input NetId would silently corrupt staged_pi_.
  if (input_net >= c_.size() || c_.gate(input_net).kind != GateKind::Input)
    throw std::invalid_argument(
        "EventSim::set: net " + std::to_string(input_net) +
        " is not a primary input");
  staged_pi_[input_net] = v ? 1 : 0;
}

void EventSim::set_bus(const Bus& bus, u128 value) {
  if (bus.size() > 128)
    throw std::invalid_argument(
        "EventSim::set_bus: bus wider than 128 bits (" +
        std::to_string(bus.size()) + ")");
  for (std::size_t i = 0; i < bus.size(); ++i)
    set(bus[i], bit_of(value, static_cast<int>(i)));
}

void EventSim::set_port(const std::string& name, u128 value) {
  set_bus(c_.in_port(name), value);
}

void EventSim::seed_change(NetId net, bool v, std::uint64_t at_ps) {
  if ((values_[net] != 0) == v) return;
  values_[net] = v ? 1 : 0;
  ++counts_.toggles[net];
  // First toggle of this net in the current cycle: remember it so the
  // end-of-cycle fold can classify its settled-value parity without a
  // full-circuit sweep.  Total toggle counting above is untouched, which
  // is what keeps the pinned power totals bit-identical.
  if (cycle_toggles_[net]++ == 0) touched_.push_back(net);
  ++counts_.events;
  // Schedule re-evaluation of every fan-out gate.  The CSR row order
  // fixes the schedule sequence, which every toggle count depends on.
  for (const NetId g : cc_->fanout(net)) {
    const Gate& gate = c_.gate(g);
    if (gate.kind == GateKind::Dff) continue;  // sampled at end of cycle
    const bool a = gate.in[0] != kNoNet && values_[gate.in[0]] != 0;
    const bool b = gate.in[1] != kNoNet && values_[gate.in[1]] != 0;
    const bool cc = gate.in[2] != kNoNet && values_[gate.in[2]] != 0;
    const bool dd = gate.in[3] != kNoNet && values_[gate.in[3]] != 0;
    const bool out = eval_gate(gate.kind, a, b, cc, dd);
    // With nothing live in flight an unchanged output would pop as a
    // no-op, so it is not scheduled at all.
    if (latest_seq_[g] == kIdle && out == (values_[g] != 0)) continue;
    // Inertial delay: this schedule supersedes any event still in flight
    // for the same gate (pulses shorter than the gate delay are filtered).
    latest_seq_[g] = seq_;
    wheel_[(at_ps + delay_ps_[static_cast<std::size_t>(gate.kind)]) &
           wheel_mask_]
        .push_back(Event{seq_++, g, out});
    ++pending_;
  }
}

void EventSim::propagate() {
  const std::uint64_t limit = 2000ull * c_.size() + 100000ull;
  std::uint64_t processed = 0;
  for (std::uint64_t now = 0; pending_ != 0; ++now) {
    std::vector<Event>& bucket = wheel_[now & wheel_mask_];
    // By index: a zero-delay schedule appends to the bucket being drained.
    for (std::size_t i = 0; i < bucket.size(); ++i) {
      const Event e = bucket[i];
      --pending_;
      if (latest_seq_[e.net] != e.seq) continue;  // superseded (inertial)
      latest_seq_[e.net] = kIdle;
      if ((values_[e.net] != 0) == e.value) continue;
      seed_change(e.net, e.value, now);
      if (++processed > limit) {
        // Drop what is still queued so the next cycle starts empty.
        for (auto& b : wheel_) b.clear();
        pending_ = 0;
        throw std::runtime_error("EventSim: event limit exceeded");
      }
    }
    bucket.clear();
  }
}

void EventSim::cycle() {
  // Apply staged primary inputs at t = 0.
  for (NetId pi : c_.primary_inputs())
    seed_change(pi, staged_pi_[pi] != 0, 0);
  // DFF outputs change at clk-to-q after the edge.
  for (std::size_t i = 0; i < c_.flops().size(); ++i) {
    const NetId q = c_.flops()[i];
    seed_change(q, state_[i] != 0, clk_to_q_ps_);
  }
  propagate();
  // Fold the cycle's toggles into the functional/glitch split: an odd
  // toggle count means the settled value changed (one functional
  // transition, the rest glitches); an even count means it glitched back
  // to its previous value (all glitches).
  for (const NetId n : touched_) {
    counts_.functional[n] += cycle_toggles_[n] & 1u;
    cycle_toggles_[n] = 0;
  }
  touched_.clear();
  // End of cycle: capture D into state for the next edge.
  for (std::size_t i = 0; i < c_.flops().size(); ++i) {
    const Gate& g = c_.gate(c_.flops()[i]);
    state_[i] = values_[g.in[0]];
  }
  ++counts_.cycles;
}

u128 EventSim::read_bus(const Bus& bus) const {
  if (bus.size() > 128)
    throw std::invalid_argument(
        "EventSim::read_bus: bus wider than 128 bits (" +
        std::to_string(bus.size()) + ")");
  u128 v = 0;
  for (std::size_t i = 0; i < bus.size(); ++i)
    if (values_[bus[i]]) v |= static_cast<u128>(1) << i;
  return v;
}

u128 EventSim::read_port(const std::string& name) const {
  return read_bus(c_.out_port(name));
}

void EventSim::reset_counts() {
  std::fill(counts_.toggles.begin(), counts_.toggles.end(), 0);
  std::fill(counts_.functional.begin(), counts_.functional.end(), 0);
  counts_.cycles = 0;
  counts_.events = 0;
}

}  // namespace mfm::netlist
