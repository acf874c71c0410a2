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
#include <sstream>
#include <string>
#include <vector>

#include "cli_util.h"
#include "netlist/fault.h"
#include "netlist/report.h"
#include "roster/roster.h"

namespace {

using mfm::netlist::FaultCampaignOptions;
using mfm::netlist::FaultCampaignReport;
using mfm::netlist::FaultSite;
using mfm::netlist::FaultVectors;

struct CliOptions {
  mfm::cli::CommonOptions common;
  bool transient = false;
  int vectors = 64;
  double fail_under = -1.0;  // <0: no gate
};

struct JobResult {
  std::string rendered;
  bool failed = false;
  double coverage = 0.0;
};

int usage() {
  std::fprintf(stderr,
               "usage: mfm_faults %s [--vectors=N] [--fail-under=PCT] "
               "[--transient]\n",
               mfm::cli::common_usage(/*with_seed=*/true));
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions cli;
  cli.common.seed = 0xFA;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    switch (mfm::cli::parse_common("mfm_faults", arg, cli.common)) {
      case mfm::cli::ParseStatus::kMatched: continue;
      case mfm::cli::ParseStatus::kError: return 2;
      case mfm::cli::ParseStatus::kNoMatch: break;
    }
    if (arg == "--transient") {
      cli.transient = true;
    } else if (arg.rfind("--vectors=", 0) == 0) {
      long v = 0;
      if (!mfm::cli::parse_long(arg.c_str() + 10, v) || v < 2 ||
          v > 1'000'000) {
        std::fprintf(stderr,
                     "mfm_faults: bad --vectors value '%s' (need an integer "
                     ">= 2)\n",
                     arg.c_str() + 10);
        return 2;
      }
      cli.vectors = static_cast<int>(v);
    } else if (arg.rfind("--fail-under=", 0) == 0) {
      if (!mfm::cli::parse_double(arg.c_str() + 13, cli.fail_under) ||
          cli.fail_under < 0.0 || cli.fail_under > 100.0) {
        std::fprintf(stderr,
                     "mfm_faults: bad --fail-under value '%s' (need a "
                     "percentage in [0, 100])\n",
                     arg.c_str() + 13);
        return 2;
      }
    } else {
      return usage();
    }
  }

  mfm::netlist::ReportSink sink("mfm_faults", cli.common.json, cli.common.out);
  if (!sink.ok()) return 2;

  mfm::roster::RosterDriver driver(mfm::roster::BuildMode::kPipelined,
                                   cli.common.only, cli.common.threads,
                                   cli.common.json);
  const std::vector<JobResult> results = driver.run<JobResult>(
      sink, [&cli](const mfm::roster::JobContext& ctx) {
        const mfm::netlist::Circuit& c = *ctx.unit.circuit;
        std::vector<FaultSite> sites = mfm::netlist::enumerate_stuck_faults(c);
        if (cli.transient && !c.flops().empty()) {
          const auto flips = mfm::netlist::enumerate_transient_faults(c);
          sites.insert(sites.end(), flips.begin(), flips.end());
        }
        const FaultVectors vectors(c, static_cast<std::size_t>(cli.vectors),
                                   cli.common.seed, ctx.variant.pins);
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

  const std::vector<std::string> errored = driver.failed_jobs();
  int failures = 0;
  std::ostringstream summary;
  if (!results.empty()) {
    summary << "stuck-at coverage by unit (" << cli.vectors
            << " vectors/fault):\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
      const std::string& name = driver.jobs()[i].name;
      if (!driver.job_errors()[i].empty()) continue;  // fail-soft error entry
      if (results[i].failed) {
        ++failures;
        std::fprintf(stderr,
                     "mfm_faults: %s coverage %.2f%% below gate %.2f%%\n",
                     name.c_str(), results[i].coverage, cli.fail_under);
      }
      char line[64];
      std::snprintf(line, sizeof line, "  %-18s %6.2f%%\n", name.c_str(),
                    results[i].coverage);
      summary << line;
    }
  }

  if (!sink.finish("\"failures\":" + std::to_string(failures) +
                       ",\"errors\":" + std::to_string(errored.size()),
                   summary.str()))
    return 2;
  if (!errored.empty()) {
    std::fprintf(stderr, "mfm_faults: %zu job(s) failed:", errored.size());
    for (const std::string& name : errored)
      std::fprintf(stderr, " %s", name.c_str());
    std::fprintf(stderr, "\n");
    return 1;
  }
  if (failures > 0) {
    std::fprintf(stderr, "mfm_faults: %d unit(s) below the coverage gate\n",
                 failures);
    return 1;
  }
  return 0;
}
