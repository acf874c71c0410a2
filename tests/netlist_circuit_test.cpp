// Unit tests for the netlist substrate: gate evaluation, constant folding,
// module scoping and port bookkeeping.
#include <gtest/gtest.h>

#include "netlist/bus.h"
#include "netlist/circuit.h"
#include "netlist/sim_level.h"

namespace mfm::netlist {
namespace {

// ---- gate truth tables ------------------------------------------------------

struct KindCase {
  GateKind kind;
  int arity;
  // Without this gtest prints the raw bytes, padding included, and that
  // uninitialised padding would end up in the ctest name.
  friend void PrintTo(const KindCase& c, std::ostream* os) {
    *os << '{' << gate_name(c.kind) << ", " << c.arity << '}';
  }
};

class GateEvalTest : public ::testing::TestWithParam<KindCase> {};

// Reference boolean function per kind.
bool ref_eval(GateKind k, bool a, bool b, bool c, bool d) {
  switch (k) {
    case GateKind::Buf:     return a;
    case GateKind::Not:     return !a;
    case GateKind::And2:    return a && b;
    case GateKind::Or2:     return a || b;
    case GateKind::Xor2:    return a != b;
    case GateKind::Nand2:   return !(a && b);
    case GateKind::Nor2:    return !(a || b);
    case GateKind::Xnor2:   return a == b;
    case GateKind::AndNot2: return a && !b;
    case GateKind::OrNot2:  return a || !b;
    case GateKind::And3:    return a && b && c;
    case GateKind::Or3:     return a || b || c;
    case GateKind::Xor3:    return (a != b) != c;
    case GateKind::Maj3:    return (a && b) || (a && c) || (b && c);
    case GateKind::Ao21:    return (a && b) || c;
    case GateKind::Oa21:    return (a || b) && c;
    case GateKind::Ao22:    return (a && b) || (c && d);
    case GateKind::Mux2:    return c ? b : a;
    default:                return false;
  }
}

TEST_P(GateEvalTest, MatchesTruthTable) {
  const auto [kind, arity] = GetParam();
  EXPECT_EQ(fanin_count(kind), arity);
  for (int v = 0; v < (1 << arity); ++v) {
    const bool a = v & 1, b = v & 2, c = v & 4, d = v & 8;
    EXPECT_EQ(eval_gate(kind, a, b, c, d), ref_eval(kind, a, b, c, d))
        << gate_name(kind) << " v=" << v;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, GateEvalTest,
    ::testing::Values(KindCase{GateKind::Buf, 1}, KindCase{GateKind::Not, 1},
                      KindCase{GateKind::And2, 2}, KindCase{GateKind::Or2, 2},
                      KindCase{GateKind::Xor2, 2}, KindCase{GateKind::Nand2, 2},
                      KindCase{GateKind::Nor2, 2}, KindCase{GateKind::Xnor2, 2},
                      KindCase{GateKind::AndNot2, 2},
                      KindCase{GateKind::OrNot2, 2},
                      KindCase{GateKind::And3, 3}, KindCase{GateKind::Or3, 3},
                      KindCase{GateKind::Xor3, 3}, KindCase{GateKind::Maj3, 3},
                      KindCase{GateKind::Ao21, 3}, KindCase{GateKind::Oa21, 3},
                      KindCase{GateKind::Ao22, 4}, KindCase{GateKind::Mux2, 3}),
    [](const auto& info) {
      return std::string(gate_name(info.param.kind));
    });

// ---- constant folding -------------------------------------------------------
//
// Property: every convenience builder must produce a net whose simulated
// value equals the plain boolean function, for every combination of
// {const0, const1, variable} inputs.  This exercises all folding branches.

class FoldingFixture : public ::testing::Test {
 protected:
  // in_sel: 0 -> const0, 1 -> const1, 2 -> variable p, 3 -> variable q.
  NetId pick(Circuit& c, NetId p, NetId q, int sel) {
    switch (sel) {
      case 0: return c.const0();
      case 1: return c.const1();
      case 2: return p;
      default: return q;
    }
  }

  template <typename Build, typename Ref>
  void check(Build build, Ref ref, int arity) {
    const int sels = 1;
    (void)sels;
    int combos = 1;
    for (int i = 0; i < arity; ++i) combos *= 4;
    for (int combo = 0; combo < combos; ++combo) {
      Circuit c;
      const NetId p = c.input("p");
      const NetId q = c.input("q");
      int sel[4] = {0, 0, 0, 0};
      int rest = combo;
      for (int i = 0; i < arity; ++i) {
        sel[i] = rest % 4;
        rest /= 4;
      }
      NetId in[4];
      for (int i = 0; i < arity; ++i) in[i] = pick(c, p, q, sel[i]);
      const NetId out = build(c, in);
      LevelSim sim(c);
      for (int pv = 0; pv < 2; ++pv)
        for (int qv = 0; qv < 2; ++qv) {
          sim.set(p, pv != 0);
          sim.set(q, qv != 0);
          sim.eval();
          bool v[4];
          for (int i = 0; i < arity; ++i)
            v[i] = sel[i] == 0   ? false
                   : sel[i] == 1 ? true
                   : sel[i] == 2 ? (pv != 0)
                                 : (qv != 0);
          EXPECT_EQ(sim.value(out), ref(v)) << "combo=" << combo << " p=" << pv
                                            << " q=" << qv;
        }
    }
  }
};

TEST_F(FoldingFixture, And2) {
  check([](Circuit& c, NetId* i) { return c.and2(i[0], i[1]); },
        [](bool* v) { return v[0] && v[1]; }, 2);
}
TEST_F(FoldingFixture, Or2) {
  check([](Circuit& c, NetId* i) { return c.or2(i[0], i[1]); },
        [](bool* v) { return v[0] || v[1]; }, 2);
}
TEST_F(FoldingFixture, Xor2) {
  check([](Circuit& c, NetId* i) { return c.xor2(i[0], i[1]); },
        [](bool* v) { return v[0] != v[1]; }, 2);
}
TEST_F(FoldingFixture, Xnor2) {
  check([](Circuit& c, NetId* i) { return c.xnor2(i[0], i[1]); },
        [](bool* v) { return v[0] == v[1]; }, 2);
}
TEST_F(FoldingFixture, AndNot2) {
  check([](Circuit& c, NetId* i) { return c.andnot2(i[0], i[1]); },
        [](bool* v) { return v[0] && !v[1]; }, 2);
}
TEST_F(FoldingFixture, And3) {
  check([](Circuit& c, NetId* i) { return c.and3(i[0], i[1], i[2]); },
        [](bool* v) { return v[0] && v[1] && v[2]; }, 3);
}
TEST_F(FoldingFixture, Or3) {
  check([](Circuit& c, NetId* i) { return c.or3(i[0], i[1], i[2]); },
        [](bool* v) { return v[0] || v[1] || v[2]; }, 3);
}
TEST_F(FoldingFixture, Xor3) {
  check([](Circuit& c, NetId* i) { return c.xor3(i[0], i[1], i[2]); },
        [](bool* v) { return (v[0] != v[1]) != v[2]; }, 3);
}
TEST_F(FoldingFixture, Maj3) {
  check([](Circuit& c, NetId* i) { return c.maj3(i[0], i[1], i[2]); },
        [](bool* v) {
          return (v[0] && v[1]) || (v[0] && v[2]) || (v[1] && v[2]);
        },
        3);
}
TEST_F(FoldingFixture, Ao21) {
  check([](Circuit& c, NetId* i) { return c.ao21(i[0], i[1], i[2]); },
        [](bool* v) { return (v[0] && v[1]) || v[2]; }, 3);
}
TEST_F(FoldingFixture, Oa21) {
  check([](Circuit& c, NetId* i) { return c.oa21(i[0], i[1], i[2]); },
        [](bool* v) { return (v[0] || v[1]) && v[2]; }, 3);
}
TEST_F(FoldingFixture, Ao22) {
  check([](Circuit& c, NetId* i) { return c.ao22(i[0], i[1], i[2], i[3]); },
        [](bool* v) { return (v[0] && v[1]) || (v[2] && v[3]); }, 4);
}
TEST_F(FoldingFixture, Mux2) {
  check([](Circuit& c, NetId* i) { return c.mux2(i[0], i[1], i[2]); },
        [](bool* v) { return v[2] ? v[1] : v[0]; }, 3);
}

TEST(CircuitFolding, ConstantsNeverGrowTheCircuit) {
  Circuit c;
  const std::size_t base = c.size();
  // Operations on constants must not allocate gates.
  EXPECT_EQ(c.and2(c.const0(), c.const1()), c.const0());
  EXPECT_EQ(c.or2(c.const0(), c.const1()), c.const1());
  EXPECT_EQ(c.xor2(c.const1(), c.const1()), c.const0());
  EXPECT_EQ(c.mux2(c.const0(), c.const1(), c.const1()), c.const1());
  EXPECT_EQ(c.size(), base);
}

TEST(CircuitFolding, DoubleNegationCancels) {
  Circuit c;
  const NetId a = c.input("a");
  const NetId n = c.not_(a);
  EXPECT_EQ(c.not_(n), a);
}

// ---- module scoping ---------------------------------------------------------

TEST(CircuitModules, ScopesNest) {
  Circuit c;
  const NetId a = c.input("a");
  const NetId b = c.input("b");
  NetId inner;
  NetId outer;
  {
    Circuit::Scope s1(c, "alpha");
    outer = c.and2(a, b);
    {
      Circuit::Scope s2(c, "beta");
      inner = c.or2(outer, b);
    }
  }
  const NetId after = c.xor2(a, inner);
  EXPECT_EQ(c.module_path(c.gate(outer).module), "top/alpha");
  EXPECT_EQ(c.module_path(c.gate(inner).module), "top/alpha/beta");
  EXPECT_EQ(c.module_path(c.gate(after).module), "top");
}

TEST(CircuitModules, InternIsIdempotent) {
  Circuit c;
  const auto id1 = c.intern_module("top/x");
  const auto id2 = c.intern_module("top/x");
  EXPECT_EQ(id1, id2);
}

// ---- ports ------------------------------------------------------------------

TEST(CircuitPorts, BusRoundTrip) {
  Circuit c;
  const Bus in = c.input_bus("data", 12);
  c.output_bus("echo", in);
  EXPECT_EQ(c.in_port("data").size(), 12u);
  EXPECT_EQ(c.out_port("echo").size(), 12u);
  EXPECT_TRUE(c.has_out_port("echo"));
  EXPECT_FALSE(c.has_out_port("nope"));
  EXPECT_THROW(c.in_port("nope"), std::out_of_range);
  EXPECT_THROW(c.out_port("nope"), std::out_of_range);

  LevelSim sim(c);
  sim.set_port("data", 0xABC);
  sim.eval();
  EXPECT_EQ(sim.read_port("echo"), 0xABCu);
}

TEST(CircuitPorts, KindHistogramCountsGates) {
  Circuit c;
  const NetId a = c.input("a");
  const NetId b = c.input("b");
  c.output("o1", c.xor2(a, b));
  c.output("o2", c.xor2(b, c.not_(a)));
  const auto h = c.kind_histogram();
  EXPECT_EQ(h[static_cast<std::size_t>(GateKind::Xor2)], 2u);
  EXPECT_EQ(h[static_cast<std::size_t>(GateKind::Not)], 1u);
}

// ---- bus helpers ------------------------------------------------------------

TEST(BusHelpers, ConstantSliceShiftConcat) {
  Circuit c;
  LevelSim* sim = nullptr;
  const Bus k = constant_bus(c, 0b1011'0110, 8);
  const Bus lo = slice(k, 0, 4);
  const Bus sh = shift_left(c, lo, 2, 8);
  const Bus cat = concat(lo, lo);
  LevelSim s(c);
  sim = &s;
  sim->eval();
  EXPECT_EQ(sim->read_bus(k), 0b1011'0110u);
  EXPECT_EQ(sim->read_bus(lo), 0b0110u);
  EXPECT_EQ(sim->read_bus(sh), 0b0001'1000u);
  EXPECT_EQ(sim->read_bus(cat), 0b0110'0110u);
}

TEST(BusHelpers, MuxAndGateBuses) {
  Circuit c;
  const Bus a = c.input_bus("a", 8);
  const Bus b = c.input_bus("b", 8);
  const NetId sel = c.input("sel");
  const Bus m = mux2_bus(c, a, b, sel);
  const Bus x = xor_bus(c, a, sel);
  const Bus g = and_bus(c, a, sel);
  LevelSim sim(c);
  sim.set_port("a", 0x5A);
  sim.set_port("b", 0xC3);
  sim.set(sel, false);
  sim.eval();
  EXPECT_EQ(sim.read_bus(m), 0x5Au);
  EXPECT_EQ(sim.read_bus(x), 0x5Au);
  EXPECT_EQ(sim.read_bus(g), 0x0u);
  sim.set(sel, true);
  sim.eval();
  EXPECT_EQ(sim.read_bus(m), 0xC3u);
  EXPECT_EQ(sim.read_bus(x), 0xA5u);
  EXPECT_EQ(sim.read_bus(g), 0x5Au);
}

}  // namespace
}  // namespace mfm::netlist
