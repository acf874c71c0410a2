// Fig. 1 / Fig. 2 reproduction: structure of the radix-16 PP generation
// and of the complete multiplier -- recoder digit statistics, multiple
// set, per-block gate inventory and settle times along the Fig. 2
// dataflow.
#include <random>

#include "arith/recode.h"
#include "bench_common.h"
#include "mult/multiplier.h"
#include "netlist/report.h"
#include "netlist/timing.h"

using namespace mfm;

int main() {
  bench::header("Fig. 1 & Fig. 2 -- radix-16 PP generation and multiplier "
                "structure",
                "Fig. 1, Fig. 2 (Sec. II)");
  const auto& lib = netlist::TechLib::lp45();
  const auto unit = mult::build_radix16_64();

  std::printf("\nRecoding (carry-free, minimally redundant {-8..8}):\n");
  std::printf("  64-bit multiplier -> %d radix-16 digits "
              "(16 groups + top transfer)\n", unit.pp_rows);

  // Digit distribution over random operands: every digit value must occur,
  // with the transfer digit construction visible in the statistics.
  std::mt19937_64 rng(1);
  long hist[17] = {0};
  const int samples = 20000;
  for (int i = 0; i < samples; ++i)
    for (const auto& d : arith::recode_radix16(rng()))
      ++hist[d.value + 8];
  std::printf("\nDigit-value distribution over %d random operands "
              "(percent):\n  ", samples);
  for (int v = -8; v <= 8; ++v)
    std::printf("%+d:%.1f%s", v,
                100.0 * hist[v + 8] / (17.0 * samples),
                v == 8 ? "\n" : "  ");

  std::printf("\nPre-computed multiples (Fig. 1: three CPAs + wiring):\n");
  std::printf("  3X = X + 2X, 5X = X + 4X, 7X = 8X - X (CPAs); "
              "2X, 4X, 6X, 8X by wiring\n");

  std::printf("\nPer-block inventory (Fig. 2 dataflow order):\n");
  bench::Table t;
  t.row({"block", "gates", "area [NAND2]", "settles at [ps]"});
  netlist::Sta sta(*unit.circuit, lib);
  const auto areas = netlist::area_by_module(*unit.circuit, lib);
  for (const char* blk :
       {"top/recoder", "top/precomp", "top/ppgen", "top/tree", "top/cpa"}) {
    const auto it = areas.find(blk);
    if (it == areas.end()) continue;
    t.row({blk, std::to_string(it->second.gates),
           bench::fmt("%.0f", it->second.area_nand2),
           bench::fmt("%.0f", sta.module_settle_ps(blk))});
  }
  t.print();

  std::printf("\nPPGEN row: 8:1 one-hot mux (AO22 pairs + OR tree) per bit,"
              "\nXOR row for negative digits, sign-extension-reduction dots"
              "\n(+s at row LSB, !s above the row, shared constant).\n");
  std::printf("\nCell histogram:\n%s",
              netlist::format_kind_histogram(*unit.circuit).c_str());
  return 0;
}
