// mfm_faults: lane-masked stuck-at fault-injection campaign over every
// shipped generator in the roster catalog (netlist/fault.h,
// roster/roster.h).
//
//   mfm_faults [--json] [--vectors=N] [--seed=S] [--only=LIST]
//              [--fail-under=PCT] [--transient] [--out=FILE]
//              [--threads=N]
//
// The unit set is the shared catalog: the 8x8 radix-16 teaching
// multiplier (the CI coverage gate target), the radix-4 and radix-16
// 64-bit multipliers, the multi-format unit (baseline and with the
// Sec. IV reduction) unpinned and under each format's control pins --
// including the fp32x1 idle-upper-lane mode, whose blanked logic shows
// up as pinned-constant undetected faults, the structural counterpart
// of the Table V power saving -- and the single-format FP multipliers,
// adder and reduction unit.  Each campaign records the fault-free
// machine once per 64-vector block and runs 63 faults per group against
// it, evaluating only the victims' fanout cone, over the cached
// CompiledCircuit (shared read-only across the worker threads), so
// memory stays flat at any --vectors; undetected faults are classified
// against mfm-lint observability and the ternary constants, so the
// "vector-gap" count is the actionable vector-quality debt.  Reports are
// emitted in catalog order, byte-identical at any --threads value.
//
// --fail-under=PCT exits nonzero when any (filtered) unit's coverage is
// below PCT, so CI can gate on it:
//   mfm_faults --only=mult8 --vectors=256 --fail-under=97

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "cli_util.h"
#include "netlist/fault.h"
#include "netlist/report.h"
#include "roster/roster.h"

namespace {

using mfm::cli::flag;
using mfm::netlist::FaultCampaignOptions;
using mfm::netlist::FaultCampaignReport;
using mfm::netlist::FaultSite;
using mfm::netlist::FaultVectors;

struct CliOptions {
  mfm::cli::CommonOptions common;
  std::uint64_t seed = 0xFA;
  bool transient = false;
  int vectors = 64;
  double fail_under = -1.0;  // <0: no gate
};

struct JobResult {
  std::string rendered;
  bool failed = false;
  double coverage = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  CliOptions cli;
  const auto flags = mfm::cli::table(
      cli.common,
      {flag("--seed", "S", cli.seed),
       flag("--vectors", "N", cli.vectors, 2, 1'000'000),
       flag("--fail-under", "PCT", cli.fail_under, 0.0, 100.0),
       flag("--transient", cli.transient)});
  if (!mfm::cli::parse("mfm_faults", flags, argc, argv)) return 2;

  mfm::netlist::ReportSink sink("mfm_faults", cli.common.json, cli.common.out);
  if (!sink.ok()) return 2;

  mfm::roster::RosterDriver driver(mfm::roster::BuildMode::kPipelined,
                                   cli.common.only, cli.common.threads,
                                   cli.common.json);
  const auto results = driver.run<JobResult>(
      sink, [&cli](const mfm::roster::JobContext& ctx) {
        const mfm::netlist::Circuit& c = *ctx.unit.circuit;
        std::vector<FaultSite> sites = mfm::netlist::enumerate_stuck_faults(c);
        if (cli.transient && !c.flops().empty()) {
          const auto flips = mfm::netlist::enumerate_transient_faults(c);
          sites.insert(sites.end(), flips.begin(), flips.end());
        }
        const FaultVectors vectors(c, static_cast<std::size_t>(cli.vectors),
                                   cli.seed, ctx.variant.pins);
        FaultCampaignOptions opt;
        opt.cycles = ctx.unit.latency_cycles;
        const FaultCampaignReport rep =
            run_fault_campaign(ctx.compiled(), sites, vectors, opt);
        JobResult r;
        r.coverage = rep.coverage_pct();
        r.failed = cli.fail_under >= 0.0 && r.coverage < cli.fail_under;
        r.rendered = cli.common.json ? fault_report_json(rep, ctx.job.name)
                                     : fault_report_text(rep, ctx.job.name);
        return r;
      });

  mfm::cli::Summary summary;
  if (!driver.jobs().empty())
    summary.text = "stuck-at coverage by unit (" +
                   std::to_string(cli.vectors) + " vectors/fault):\n";
  for (const auto& [job, r] : results) {
    char line[96];
    if (r.failed) {
      std::snprintf(line, sizeof line, "%s coverage %.2f%% below gate %.2f%%",
                    job->name.c_str(), r.coverage, cli.fail_under);
      summary.failures.push_back(line);
    }
    std::snprintf(line, sizeof line, "  %-18s %6.2f%%\n", job->name.c_str(),
                  r.coverage);
    summary.text += line;
  }
  summary.json.field("failures", summary.failures.size());
  return mfm::cli::finish("mfm_faults", sink, driver, summary);
}
