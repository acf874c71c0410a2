// Event-order oracle for EventSim's timing wheel.  HeapSim below is the
// scheduler the wheel replaced -- a binary heap of (double time, seq)
// events over eval_gate and the CompiledCircuit fan-out rows, with the
// same inertial cancellation -- and every test drives both with the same
// stimulus and requires identical per-net toggles, functional counts,
// event totals and final values.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>  // std::greater
#include <random>
#include <vector>

#include "mf/mf_unit.h"
#include "mult/multiplier.h"
#include "netlist/circuit.h"
#include "netlist/compiled.h"
#include "netlist/sim_event.h"
#include "netlist/techlib.h"
#include "power/workloads.h"

namespace mfm::netlist {
namespace {

class HeapSim {
 public:
  HeapSim(const CompiledCircuit& cc, const TechLib& lib)
      : values(cc.size(), 0),
        toggles(cc.size(), 0),
        functional(cc.size(), 0),
        cc_(cc),
        c_(cc.circuit()),
        lib_(lib),
        staged_(cc.size(), 0),
        state_(cc.flop_count(), 0),
        in_cycle_(cc.size(), 0),
        latest_(cc.size(), 0) {
    for (NetId g = 0; g < c_.size(); ++g) {
      const GateKind k = c_.gate(g).kind;
      if (k != GateKind::Input && k != GateKind::Dff) values[g] = eval(g);
    }
  }

  void set_bus(const Bus& bus, u128 v) {
    for (std::size_t i = 0; i < bus.size(); ++i)
      staged_[bus[i]] = bit_of(v, static_cast<int>(i)) ? 1 : 0;
  }

  void cycle() {
    for (NetId pi : c_.primary_inputs()) change(pi, staged_[pi] != 0, 0.0);
    for (std::size_t i = 0; i < c_.flops().size(); ++i)
      change(c_.flops()[i], state_[i] != 0, lib_.clk_to_q_ps());
    while (!heap_.empty()) {
      std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
      const Event e = heap_.back();
      heap_.pop_back();
      if (latest_[e.net] == e.seq && (values[e.net] != 0) != e.value)
        change(e.net, e.value, e.time);
    }
    for (NetId n = 0; n < c_.size(); ++n) {
      functional[n] += in_cycle_[n] & 1u;
      in_cycle_[n] = 0;
    }
    for (std::size_t i = 0; i < c_.flops().size(); ++i)
      state_[i] = values[c_.gate(c_.flops()[i]).in[0]];
  }

  std::vector<std::uint8_t> values;
  std::vector<std::uint64_t> toggles;
  std::vector<std::uint64_t> functional;
  std::uint64_t events = 0;

 private:
  struct Event {
    double time;
    std::uint64_t seq;
    NetId net;
    bool value;
    bool operator>(const Event& o) const {
      return time != o.time ? time > o.time : seq > o.seq;
    }
  };

  bool eval(NetId g) const {
    const Gate& gate = c_.gate(g);
    auto in = [&](int p) {
      return gate.in[p] != kNoNet && values[gate.in[p]] != 0;
    };
    return eval_gate(gate.kind, in(0), in(1), in(2), in(3));
  }

  void change(NetId net, bool v, double at_ps) {
    if ((values[net] != 0) == v) return;
    values[net] = v ? 1 : 0;
    ++toggles[net];
    ++in_cycle_[net];
    ++events;
    for (const NetId g : cc_.fanout(net)) {
      const GateKind k = c_.gate(g).kind;
      if (k == GateKind::Dff) continue;
      latest_[g] = seq_;
      heap_.push_back(Event{at_ps + lib_.delay_ps(k), seq_++, g, eval(g)});
      std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
    }
  }

  const CompiledCircuit& cc_;
  const Circuit& c_;
  const TechLib& lib_;
  std::vector<std::uint8_t> staged_;
  std::vector<std::uint8_t> state_;
  std::vector<std::uint32_t> in_cycle_;
  std::vector<std::uint64_t> latest_;
  std::vector<Event> heap_;
  std::uint64_t seq_ = 0;
};

/// Runs @p cycles cycles through both engines, staging inputs with
/// @p stage(cycle, set_bus) before each, and compares every counter.
template <typename Stage>
void expect_same_as_heap(const Circuit& c, int cycles, const Stage& stage) {
  const CompiledCircuit cc(c);
  const TechLib& lib = TechLib::lp45();
  EventSim sim(cc, lib);
  HeapSim ref(cc, lib);
  for (int t = 0; t < cycles; ++t) {
    stage(t, [&](const Bus& bus, u128 v) {
      sim.set_bus(bus, v);
      ref.set_bus(bus, v);
    });
    sim.cycle();
    ref.cycle();
  }
  ASSERT_GT(ref.events, 0u);
  EXPECT_EQ(sim.events_processed(), ref.events);
  EXPECT_EQ(sim.toggles(), ref.toggles);
  EXPECT_EQ(sim.functional(), ref.functional);
  for (NetId n = 0; n < c.size(); ++n)
    ASSERT_EQ(sim.value(n), ref.values[n] != 0) << "net " << n;
}

TEST(TechLib, Lp45DelaysAreWholePicoseconds) {
  // EventSim's timing wheel indexes buckets by integer picoseconds.
  const TechLib& lib = TechLib::lp45();
  for (std::size_t k = 0; k < kGateKindCount; ++k) {
    const double d = lib.delay_ps(static_cast<GateKind>(k));
    EXPECT_GE(d, 0.0) << "kind " << k;
    EXPECT_EQ(d, std::floor(d)) << "kind " << k;
  }
  EXPECT_GT(lib.clk_to_q_ps(), 0.0);
  EXPECT_EQ(lib.clk_to_q_ps(), std::floor(lib.clk_to_q_ps()));
}

TEST(EventOrder, PipelinedMfUnitOnTableVStreamMatchesHeap) {
  const mf::MfUnit unit = mf::build_mf_unit();
  // Eight cycles of each Table V workload, so the frmt pins switch too.
  const power::Workload streams[] = {
      power::Workload::Uniform64, power::Workload::Fp64Random,
      power::Workload::Fp32DualRandom, power::Workload::Fp32SingleRandom};
  std::vector<power::OperandGen> gens;
  for (const power::Workload w : streams) gens.emplace_back(w, 0xE7E47);
  expect_same_as_heap(*unit.circuit, 32, [&](int t, const auto& set_bus) {
    const power::OpPair op = gens[static_cast<std::size_t>(t / 8)].next();
    set_bus(unit.a, op.a);
    set_bus(unit.b, op.b);
    set_bus(unit.frmt, mf::frmt_bits(op.format));
  });
}

TEST(EventOrder, CombinationalRadix16MultiplierMatchesHeap) {
  const mult::MultiplierUnit unit = mult::build_radix16_64();
  std::mt19937_64 rng(0x16C0);
  expect_same_as_heap(*unit.circuit, 32, [&](int, const auto& set_bus) {
    set_bus(unit.x, rng());
    set_bus(unit.y, rng());
  });
}

TEST(EventOrder, SamePicosecondEventsAndFlopSeedsMatchHeap) {
  Circuit c;
  const Bus in = c.input_bus("in", 3);
  const NetId a = in[0], b = in[1], d = in[2];
  const NetId q = c.dff(d);
  // a and b switching together give x two events at 64 ps; the later
  // schedule wins.
  const NetId x = c.xor2(a, b);
  // a switching alone gives x and h an event each at 64 ps, x's first in
  // the bucket.  Processed first, x re-schedules h and cancels h's event,
  // so h does not pulse; in the other order h would toggle twice.
  const NetId h = c.xor2(a, x);
  // q's clk-to-q seed schedules y for 90 + 45 ps before x's change
  // schedules it for 64 + 45 ps: the earlier-timed, later-scheduled event
  // supersedes the seed.
  const NetId y = c.and2(x, q);
  // Both NANDs switch at 32 ps, so m gets two events at 77 ps.
  const NetId m = c.and2(c.nand2(a, d), c.nand2(b, d));
  const NetId s = c.xor3(a, b, d);
  const NetId r = c.dff(c.or2(y, m));
  c.output("o", c.mux2(s, c.xor2(r, h), y));
  c.output("m", m);

  // Directed opening (bits: d b a), then random cycles.
  //   cycle 1: a and b rise together (x: two events at 64 ps);
  //   cycle 3: a rises alone (x then h at 64 ps) while q rises at
  //            clk-to-q (y rises once, at 109 ps);
  //   cycle 4: a falls as b rises (x: two events at 64 ps; m: two events
  //            with opposite values at 77 ps).
  const u128 directed[] = {0b000, 0b011, 0b100, 0b101, 0b110};
  std::mt19937_64 rng(0xF1F0);
  expect_same_as_heap(c, 64, [&](int t, const auto& set_bus) {
    set_bus(in, t < 5 ? directed[t] : rng() & 7);
  });

  const CompiledCircuit cc(c);
  EventSim sim(cc, TechLib::lp45());
  for (const u128 v : directed) {
    sim.set_bus(in, v);
    sim.cycle();
  }
  // Nothing pulses in the opening: every toggle is functional.
  const struct {
    NetId net;
    std::uint64_t toggles;
  } want[] = {{x, 1}, {h, 3}, {y, 1}, {m, 1}};
  for (const auto& w : want) {
    EXPECT_EQ(sim.toggles()[w.net], w.toggles) << "net " << w.net;
    EXPECT_EQ(sim.functional()[w.net], w.toggles) << "net " << w.net;
  }
  EXPECT_TRUE(sim.value(x));
  EXPECT_TRUE(sim.value(h));
  EXPECT_TRUE(sim.value(y));
  EXPECT_FALSE(sim.value(m));
}

}  // namespace
}  // namespace mfm::netlist
