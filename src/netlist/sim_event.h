// Event-driven timing simulator with per-net transition counting.
//
// Gates have inertial delays from the technology model: when a gate's
// inputs settle at different times the output emits the intermediate
// values (glitches), but a pulse shorter than the gate's own delay is
// filtered (a newly scheduled output value cancels one still in flight,
// the standard inertial-delay model).  Transition counts including
// glitches feed the activity-based power model -- glitch power is the
// mechanism behind the paper's combinational-vs-pipelined comparison
// (Table III), so modelling it is load-bearing.
//
// Events are scheduled on a timing wheel in integer picoseconds.  Every
// TechLib cell delay and the clk-to-q delay is a whole number of ps
// (checked at construction), so a re-evaluation due at time t is
// appended to FIFO bucket t mod N of a ring of N buckets and needs no
// time field.  N is the smallest power of two above clk-to-q plus the
// slowest cell delay (256 for lp45), the furthest any event is ever
// scheduled ahead of the bucket being drained, so each bucket holds one
// timestamp.  Appends happen in schedule order, so draining the buckets
// in time order visits events in (time, schedule sequence) order, the
// order of a priority queue keyed on both.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/u128.h"
#include "netlist/circuit.h"
#include "netlist/compiled.h"
#include "netlist/techlib.h"

namespace mfm::netlist {

/// Switching-activity counters accumulated by a simulation, detached from
/// the simulator that produced them.  Counts are additive: merging the
/// counts of independent simulations of the same circuit is equivalent to
/// one simulation that saw all their cycles, which is what lets the
/// sharded power engine split a Monte-Carlo budget across threads and
/// still feed one PowerModel::report.
struct ActivityCounts {
  std::vector<std::uint64_t> toggles;  ///< per-net transition counts
  /// Per-net *functional* transitions: cycles in which the net's settled
  /// value differs from the previous cycle's settled value.  By parity,
  /// this equals (toggles in the cycle) mod 2, and is definitionally the
  /// zero-delay toggle count LevelSim/PackSim would report.  The glitch
  /// count of a net is toggles[n] - functional[n].  EventSim always
  /// fills it; it is empty only in hand-built lumped counts.
  std::vector<std::uint64_t> functional;
  std::uint64_t cycles = 0;
  std::uint64_t events = 0;  ///< simulator events processed

  /// Element-wise accumulate @p o.  An empty accumulator adopts @p o;
  /// otherwise both the toggles and the functional sizes must match
  /// (std::invalid_argument): a lumped count cannot be split after the
  /// fact, and a partial split would misreport glitch energy.
  void merge(const ActivityCounts& o);
  /// Sum of all per-net transition counts.
  std::uint64_t total_toggles() const;
  /// Sum of per-net functional transitions (0 if the split is absent).
  std::uint64_t total_functional() const;
  /// Sum of per-net glitch transitions: total_toggles() minus
  /// total_functional() when the split is present, 0 otherwise.
  std::uint64_t total_glitch() const;
  /// True when the functional/glitch split is available.
  bool has_split() const { return functional.size() == toggles.size() && !toggles.empty(); }
};

/// Event-driven two-valued simulator over a frozen Circuit, scheduling
/// on the whole-picosecond timing wheel described above.
///
/// Usage per clock cycle:
///   sim.set_port("x", value);   // stage the next primary-input values
///   sim.cycle();                // propagate; at the end, DFFs capture D
/// Transition counts accumulate across cycles in toggles().
class EventSim {
 public:
  /// Simulates over a shared compilation: @p cc is read-only and may back
  /// any number of concurrent EventSims (the sharded power engine builds
  /// one CompiledCircuit per measurement and hands it to every worker).
  /// Throws std::invalid_argument if a delay of @p lib is not a whole
  /// number of picoseconds.
  EventSim(const CompiledCircuit& cc, const TechLib& lib);
  /// Convenience: compiles @p c privately.
  EventSim(const Circuit& c, const TechLib& lib);

  /// Stages the next value of a primary input (applied by cycle()).
  void set(NetId input_net, bool v);
  /// Stages every bit of @p bus; throws std::invalid_argument if it is
  /// wider than 128 bits.
  void set_bus(const Bus& bus, u128 value);
  void set_port(const std::string& name, u128 value);

  /// Runs one clock cycle: applies staged inputs and DFF outputs at t=0
  /// (Q after clk-to-q), propagates all events, then captures DFF inputs.
  void cycle();

  bool value(NetId n) const { return values_[n] != 0; }
  u128 read_bus(const Bus& bus) const;
  u128 read_port(const std::string& name) const;

  /// Transition count per net since construction (or reset_counts()).
  const std::vector<std::uint64_t>& toggles() const { return counts_.toggles; }
  /// Functional transitions per net: one per cycle in which the net's
  /// settled value changed (the zero-delay component of toggles()).
  /// toggles()[n] - functional()[n] is the glitch count of net n.
  const std::vector<std::uint64_t>& functional() const {
    return counts_.functional;
  }
  std::uint64_t cycles_run() const { return counts_.cycles; }
  std::uint64_t events_processed() const { return counts_.events; }
  void reset_counts();

  /// The accumulated activity counters (copy them for a snapshot).
  const ActivityCounts& counts() const { return counts_; }
  /// Accumulates this simulator's counters into @p into
  /// (ActivityCounts::merge; @p into may be default-constructed).
  void merge_counts(ActivityCounts& into) const { into.merge(counts_); }

 private:
  EventSim(std::unique_ptr<const CompiledCircuit> owned,
           const CompiledCircuit* borrowed, const TechLib& lib);
  void seed_change(NetId net, bool v, std::uint64_t at_ps);
  void propagate();
  void settle_initial_state();

  /// A scheduled re-evaluation; its time is the bucket it sits in.
  struct Event {
    std::uint64_t seq;  // schedule order, for inertial cancellation
    NetId net;
    bool value;
  };

  std::unique_ptr<const CompiledCircuit> owned_;  // Circuit ctor only
  const CompiledCircuit* cc_;  // flop ordinals + CSR fan-out live here
  const Circuit& c_;
  std::uint32_t delay_ps_[kGateKindCount] = {};  // TechLib delays, whole ps
  std::uint32_t clk_to_q_ps_ = 0;
  std::vector<std::uint8_t> values_;
  std::vector<std::uint8_t> staged_pi_;
  std::vector<std::uint8_t> state_;            // DFF state by flop ordinal
  ActivityCounts counts_;
  std::vector<std::uint32_t> cycle_toggles_;   // toggles within the cycle
  std::vector<NetId> touched_;                 // nets toggled this cycle
  /// Sequence number of each gate's latest scheduled event, kIdle once
  /// it has popped (inertial cancellation marker).
  static constexpr std::uint64_t kIdle = ~std::uint64_t{0};
  std::vector<std::uint64_t> latest_seq_;
  std::vector<std::vector<Event>> wheel_;  // FIFO bucket per ps, mod size
  std::uint64_t wheel_mask_ = 0;           // wheel_.size() - 1
  std::uint64_t pending_ = 0;              // events in all buckets
  std::uint64_t seq_ = 0;
};

}  // namespace mfm::netlist
