// Table I reproduction: latency, area and critical path of the 64x64
// radix-16 multiplier (combinational).
#include "bench_common.h"
#include "mult/multiplier.h"
#include "netlist/power.h"
#include "netlist/report.h"
#include "netlist/timing.h"

using namespace mfm;

int main() {
  bench::header("Table I -- 64x64 radix-16 multiplier: latency, area, "
                "critical path",
                "Table I (Sec. II)");
  const auto& lib = netlist::TechLib::lp45();
  const auto unit = mult::build_radix16_64();
  netlist::Sta sta(*unit.circuit, lib);
  netlist::PowerModel pm(*unit.circuit, lib);

  std::printf("\nCritical path by block [ps] (paper: pre-comput. 578, "
              "PPGEN 258, TREE 571, CPA 445 = 1852):\n");
  bench::Table cp;
  cp.row({"block", "measured [ps]", "gates on path"});
  const auto path = sta.critical_path();
  for (const auto& s : path.segments)
    cp.row({s.module, bench::fmt("%.0f", s.delay_ps),
            std::to_string(s.gates)});
  cp.print();

  std::printf("\nSummary (paper values in parentheses):\n");
  bench::Table t;
  t.row({"metric", "measured", "paper"});
  t.row({"latency [ns]", bench::fmt("%.3f", sta.max_delay_ps() / 1000.0),
         "1.852"});
  t.row({"latency [FO4]", bench::fmt("%.1f", sta.max_delay_fo4()), "29"});
  t.row({"area [um^2]", bench::fmt("%.0f", pm.area_um2()), "50562"});
  t.row({"area [NAND2]", bench::fmt("%.0f", pm.area_nand2()), "47800"});
  t.row({"partial products", std::to_string(unit.pp_rows), "17"});
  t.print();

  std::printf("\nArea by block [NAND2 eq.]:\n");
  bench::Table a;
  a.row({"block", "NAND2", "gates"});
  for (const auto& [m, ma] :
       netlist::area_by_module(*unit.circuit, lib))
    a.row({m, bench::fmt("%.0f", ma.area_nand2), std::to_string(ma.gates)});
  a.print();
  return 0;
}
