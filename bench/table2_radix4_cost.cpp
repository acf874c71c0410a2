// Table II reproduction: latency, area and critical path of the 64x64
// radix-4 Booth multiplier (combinational baseline).
#include "bench_common.h"
#include "mult/multiplier.h"
#include "netlist/power.h"
#include "netlist/report.h"
#include "netlist/timing.h"

using namespace mfm;

int main() {
  bench::header("Table II -- 64x64 radix-4 multiplier: latency, area, "
                "critical path",
                "Table II (Sec. II-A)");
  const auto& lib = netlist::TechLib::lp45();
  const auto r4 = mult::build_radix4_64();
  const auto r16 = mult::build_radix16_64();
  netlist::Sta sta4(*r4.circuit, lib);
  netlist::Sta sta16(*r16.circuit, lib);
  netlist::PowerModel pm4(*r4.circuit, lib);
  netlist::PowerModel pm16(*r16.circuit, lib);

  std::printf("\nCritical path by block [ps] (paper: PPGEN 313, TREE 739, "
              "CPA 454 = 1506):\n");
  bench::Table cp;
  cp.row({"block", "measured [ps]", "gates on path"});
  for (const auto& s : sta4.critical_path().segments)
    cp.row({s.module, bench::fmt("%.0f", s.delay_ps),
            std::to_string(s.gates)});
  cp.print();

  std::printf("\nSummary (paper values in parentheses):\n");
  bench::Table t;
  t.row({"metric", "measured", "paper"});
  t.row({"latency [ns]", bench::fmt("%.3f", sta4.max_delay_ps() / 1000.0),
         "1.506"});
  t.row({"latency [FO4]", bench::fmt("%.1f", sta4.max_delay_fo4()), "23"});
  t.row({"area [um^2]", bench::fmt("%.0f", pm4.area_um2()), "60204"});
  t.row({"area [NAND2]", bench::fmt("%.0f", pm4.area_nand2()), "56900"});
  t.row({"partial products", std::to_string(r4.pp_rows), "33"});
  t.print();

  std::printf("\nRadix-4 vs radix-16 (paper Sec. II-A: radix-4 ~20%% faster,"
              " ~18%% larger):\n");
  bench::Table c;
  c.row({"ratio", "measured", "paper"});
  c.row({"delay r4/r16",
         bench::fmt("%.2f", sta4.max_delay_ps() / sta16.max_delay_ps()),
         "0.81"});
  c.row({"area r4/r16",
         bench::fmt("%.2f", pm4.area_nand2() / pm16.area_nand2()), "1.19"});
  c.print();
  std::printf(
      "\nNote: the delay ratio reproduces; the area ratio comes out near\n"
      "parity in our abstract library (see EXPERIMENTS.md for discussion).\n");
  return 0;
}
