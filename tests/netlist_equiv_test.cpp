// Equivalence-checker tests: generator variants that must agree
// (architectures of the same function) and deliberately broken pairs that
// must be caught.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "mult/fp_multiplier.h"
#include "mult/multiplier.h"
#include "netlist/equiv.h"
#include "rtl/adders.h"

namespace mfm::netlist {
namespace {

std::unique_ptr<Circuit> adder_circuit(int n, rtl::PrefixKind kind) {
  auto c = std::make_unique<Circuit>();
  const Bus a = c->input_bus("a", n);
  const Bus b = c->input_bus("b", n);
  const NetId cin = c->input("cin");
  const auto out = rtl::prefix_adder(*c, a, b, cin, kind);
  c->output_bus("s", out.sum);
  c->output("cout", out.carry_out);
  return c;
}

TEST(Equivalence, AdderArchitecturesAgree) {
  for (int n : {7, 16, 33}) {
    const auto ks = adder_circuit(n, rtl::PrefixKind::KoggeStone);
    for (auto kind : {rtl::PrefixKind::Sklansky, rtl::PrefixKind::BrentKung,
                      rtl::PrefixKind::HanCarlson}) {
      const auto other = adder_circuit(n, kind);
      const auto r = check_equivalence(*ks, *other, 500);
      EXPECT_TRUE(r.equivalent) << n << ": " << r.counterexample;
      EXPECT_GT(r.vectors, 500u);
    }
  }
}

TEST(Equivalence, MultiplierRadicesAgree) {
  mult::MultiplierOptions o4, o16;
  o4.n = o16.n = 16;
  o4.g = 2;
  o16.g = 4;
  const auto r4 = mult::build_multiplier(o4);
  const auto r16 = mult::build_multiplier(o16);
  const auto r = check_equivalence(*r4.circuit, *r16.circuit, 1500);
  EXPECT_TRUE(r.equivalent) << r.counterexample;
}

TEST(Equivalence, TreeStylesAgreeOnMultiplier) {
  for (auto style : {rtl::TreeStyle::Wallace, rtl::TreeStyle::Compressor42}) {
    mult::MultiplierOptions base, alt;
    base.n = alt.n = 16;
    base.g = alt.g = 4;
    alt.tree_style = style;
    const auto a = mult::build_multiplier(base);
    const auto b = mult::build_multiplier(alt);
    const auto r = check_equivalence(*a.circuit, *b.circuit, 1500);
    EXPECT_TRUE(r.equivalent) << r.counterexample;
  }
}

TEST(Equivalence, FpMultiplierRadicesAgree) {
  mult::FpMultiplierOptions o2, o4;
  o2.format = o4.format = fp::kBinary16;
  o2.radix_g = 2;
  o4.radix_g = 4;
  const auto a = mult::build_fp_multiplier(o2);
  const auto b = mult::build_fp_multiplier(o4);
  const auto r = check_equivalence(*a.circuit, *b.circuit, 3000);
  EXPECT_TRUE(r.equivalent) << r.counterexample;
}

TEST(Equivalence, CatchesInjectedDifference) {
  // Same adder with the carry-in net swapped for constant 0: the checker
  // must find a counterexample quickly.
  const auto good = adder_circuit(12, rtl::PrefixKind::KoggeStone);
  auto bad = std::make_unique<Circuit>();
  {
    const Bus a = bad->input_bus("a", 12);
    const Bus b = bad->input_bus("b", 12);
    (void)bad->input("cin");  // declared but ignored
    const auto out = rtl::prefix_adder(*bad, a, b, bad->const0(),
                                       rtl::PrefixKind::KoggeStone);
    bad->output_bus("s", out.sum);
    bad->output("cout", out.carry_out);
  }
  const auto r = check_equivalence(*good, *bad, 200);
  EXPECT_FALSE(r.equivalent);
  EXPECT_FALSE(r.counterexample.empty());
}

TEST(Equivalence, RejectsSequentialAndMismatchedPorts) {
  Circuit seq;
  seq.output("q", seq.dff(seq.input("d")));
  const auto r1 = check_equivalence(seq, seq, 10);
  EXPECT_FALSE(r1.equivalent);

  Circuit a, b;
  a.output("o", a.not_(a.input("x")));
  b.output("o", b.not_(b.input("y")));  // different port name
  const auto r2 = check_equivalence(a, b, 10);
  EXPECT_FALSE(r2.equivalent);
}

// Regression: output-port mismatches used to be silently skipped, so two
// circuits with disjoint output ports compared zero ports and "passed".
// Any missing or width-mismatched output port is itself non-equivalence,
// with the port named in the counterexample -- in both directions, since
// the comparison loop iterates lhs ports only.
TEST(Equivalence, DisjointOutputPortsAreNotEquivalent) {
  Circuit a, b;
  {
    const NetId x = a.input("x");
    a.output("p", a.not_(x));
  }
  {
    const NetId x = b.input("x");
    b.output("q", b.not_(x));
  }
  const auto r = check_equivalence(a, b, 10);
  EXPECT_FALSE(r.equivalent);
  EXPECT_NE(r.counterexample.find("output port"), std::string::npos)
      << r.counterexample;

  // rhs-only extra port: caught by the reverse direction.
  Circuit c2;
  {
    const NetId x = c2.input("x");
    c2.output("p", c2.not_(x));
    c2.output("extra", c2.buf(x));
  }
  const auto r2 = check_equivalence(a, c2, 10);
  EXPECT_FALSE(r2.equivalent);
  EXPECT_NE(r2.counterexample.find("output port"), std::string::npos);

  // Same name, different width.
  Circuit w1, w2;
  {
    const Bus x = w1.input_bus("x", 2);
    w1.output_bus("p", x);
  }
  {
    const Bus x = w2.input_bus("x", 2);
    w2.output("p", x[0]);
  }
  const auto r3 = check_equivalence(w1, w2, 10);
  EXPECT_FALSE(r3.equivalent);
  EXPECT_NE(r3.counterexample.find("output port mismatch: p"),
            std::string::npos);
}

// The sequential cosimulation shares the port-agreement rules: a missing
// input port, an output port missing on either side, and a width
// mismatch are each a non-equivalence naming the port, and a pin that is
// not a primary-input bit of lhs is a caller error.
TEST(EquivalenceCosim, RejectsMismatchedPortsAndBadPins) {
  const auto reg = [](Circuit& c, const char* in, const char* out,
                      int width) {
    const Bus d = c.input_bus(in, width);
    Bus q;
    for (const NetId n : d) q.push_back(c.dff(n));
    c.output_bus(out, q);
  };
  Circuit base, other_in, other_out, wide, extra;
  reg(base, "d", "q", 2);
  reg(other_in, "e", "q", 2);
  reg(other_out, "d", "r", 2);
  reg(wide, "d", "q", 3);
  reg(extra, "d", "q", 2);
  extra.output("x", extra.input("d2"));

  const auto expect_mismatch = [&](const Circuit& lhs, const Circuit& rhs,
                                   const std::string& want) {
    const EquivResult r = check_equivalence_cosim(lhs, rhs, {}, 64);
    EXPECT_FALSE(r.equivalent) << want;
    EXPECT_EQ(r.counterexample, want);
    EXPECT_EQ(r.vectors, 0u);
  };
  expect_mismatch(base, other_in, "input port mismatch: d");
  expect_mismatch(base, other_out, "output port mismatch: q");
  expect_mismatch(base, extra, "output port mismatch: x");  // rhs-only
  expect_mismatch(base, wide, "input port mismatch: d");
  Circuit wide_out;
  {
    const Bus d = wide_out.input_bus("d", 2);
    wide_out.output_bus("q", Bus{wide_out.dff(d[0])});
  }
  expect_mismatch(base, wide_out, "output port mismatch: q");

  const EquivResult same = check_equivalence_cosim(base, base, {}, 512);
  EXPECT_TRUE(same.equivalent) << same.counterexample;

  const NetId q0 = base.out_port("q")[0];  // a flop, not an input
  EXPECT_THROW(check_equivalence_cosim(base, base, {TernaryPin{q0, true}}, 64),
               std::invalid_argument);
  const NetId past_end = static_cast<NetId>(base.size());
  EXPECT_THROW(
      check_equivalence_cosim(base, base, {TernaryPin{past_end, false}}, 64),
      std::invalid_argument);
  const NetId d1 = base.in_port("d")[1];
  EXPECT_TRUE(
      check_equivalence_cosim(base, base, {TernaryPin{d1, true}}, 64)
          .equivalent);
}

}  // namespace
}  // namespace mfm::netlist
