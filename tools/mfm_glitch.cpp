// mfm_glitch: static arrival-window glitch analysis cross-validated
// against measured EventSim glitch activity, over every shipped
// generator in the roster catalog (netlist/glitch.h, roster/roster.h).
//
//   mfm_glitch [--json] [--only=LIST] [--out=FILE] [--seed=S]
//              [--threads=N|auto] [--vectors=N] [--top=K]
//              [--min-overlap=F] [--min-corr=F]
//
// Each roster job runs both halves of the analysis on the shared
// pipelined compilation under the variant's control pins:
//
//   static    arrival-window / transition-bound propagation producing a
//             per-net glitch score weighted by TechLib load, module
//             aggregates, and the energy-ranked hot-net list;
//
//   measured  --vectors random cycles through EventSim with the pins
//             held, splitting per-net toggles into functional (settled-
//             value) transitions and glitches.
//
// The two per-net glitch-energy rankings are then compared: top --top
// set overlap and Spearman rank correlation over the union of nets
// either side scores nonzero.  A unit passes the cross-validation gate
// when overlap_frac >= --min-overlap OR rank_corr >= --min-corr (the
// estimator only has to win on one metric; defaults accept everything,
// CI declares real thresholds).  Exit status is nonzero when any unit
// fails the gate or any job errored (fail-soft error records still
// carry the other units' reports).
//
// Per-job seeds derive from (--seed, spec index, variant index), never
// from the job's position in a filtered run, so --only does not change
// any unit's measured numbers; reports are emitted in catalog order and
// are byte-identical at any --threads value.

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "cli_util.h"
#include "common/rng.h"
#include "netlist/glitch.h"
#include "netlist/report.h"
#include "netlist/techlib.h"
#include "roster/roster.h"

namespace {

using mfm::cli::flag;
using mfm::common::splitmix64;
using mfm::netlist::GlitchCrossCheck;
using mfm::netlist::GlitchOptions;
using mfm::netlist::GlitchReport;
using mfm::netlist::MeasuredGlitch;
using mfm::netlist::TechLib;

struct CliOptions {
  mfm::cli::CommonOptions common;
  std::uint64_t seed = 0x911C;
  int vectors = 64;
  int top = 20;
  double min_overlap = 0.0;   ///< accept-all default; CI passes a gate
  double min_corr = -1.0;     ///< accept-all default; CI passes a gate
};

struct JobResult {
  std::string rendered;
  bool gate_failed = false;
  double overlap_frac = 0.0;
  double rank_corr = 0.0;
};

/// Both analyses plus the cross-validation, as one roster job body.
JobResult analyze_unit(const CliOptions& cli,
                       const mfm::roster::JobContext& ctx) {
  const TechLib& lib = TechLib::lp45();
  const auto& cc = ctx.compiled();

  GlitchOptions gopt;
  gopt.pins = ctx.variant.pins;
  gopt.max_hot = cli.top;
  const GlitchReport stat = analyze_glitch(cc, lib, gopt);

  // Seed is a pure function of (--seed, spec, variant): --only filtering
  // must not shift any unit's operand stream.
  const std::uint64_t seed = splitmix64(
      cli.seed ^ ((static_cast<std::uint64_t>(ctx.job.spec) << 8) |
                  static_cast<std::uint64_t>(ctx.job.variant)));
  const MeasuredGlitch meas =
      measure_glitch(cc, lib, ctx.variant.pins, cli.vectors, seed);

  const GlitchCrossCheck cv = cross_validate_glitch(stat, meas, cli.top);
  const bool pass =
      cv.overlap_frac >= cli.min_overlap || cv.rank_corr >= cli.min_corr;

  JobResult r;
  r.gate_failed = !pass;
  r.overlap_frac = cv.overlap_frac;
  r.rank_corr = cv.rank_corr;
  if (cli.common.json) {
    mfm::netlist::JsonWriter j;
    j.object()
        .field("unit", ctx.job.name)
        .key("static").raw(glitch_report_json(stat, ctx.job.name))
        .key("measured").object()
        .field("cycles", meas.cycles)
        .field("toggles", meas.counts.total_toggles())
        .field("functional", meas.functional)
        .field("glitch", meas.glitch)
        .field("glitch_energy_fj", meas.glitch_energy_total_fj, 3)
        .end()
        .key("crosscheck").object()
        .field("k", cv.k)
        .field("overlap", cv.overlap)
        .field("overlap_frac", cv.overlap_frac, 4)
        .field("rank_corr", cv.rank_corr, 4)
        .field("compared", cv.compared)
        .field("pass", pass)
        .end()
        .end();
    r.rendered = j.str();
  } else {
    char buf[160];
    std::string t = glitch_report_text(stat, ctx.job.name);
    std::snprintf(buf, sizeof buf,
                  "measured: %llu cycles, %llu toggles (functional %llu, "
                  "glitch %llu), %.1f fJ glitch energy\n",
                  static_cast<unsigned long long>(meas.cycles),
                  static_cast<unsigned long long>(meas.counts.total_toggles()),
                  static_cast<unsigned long long>(meas.functional),
                  static_cast<unsigned long long>(meas.glitch),
                  meas.glitch_energy_total_fj);
    t += buf;
    std::snprintf(buf, sizeof buf,
                  "crosscheck: top-%d overlap %d/%d (%.2f), spearman %.3f, "
                  "compared %zu -> %s\n",
                  cli.top, cv.overlap, cv.k, cv.overlap_frac, cv.rank_corr,
                  cv.compared, pass ? "PASS" : "FAIL");
    t += buf;
    r.rendered = std::move(t);
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions cli;
  const auto flags = mfm::cli::table(
      cli.common, {flag("--seed", "S", cli.seed),
                   flag("--vectors", "N", cli.vectors, 1, 100'000),
                   flag("--top", "K", cli.top, 1, 10'000),
                   flag("--min-overlap", "F", cli.min_overlap, 0.0, 1.0),
                   flag("--min-corr", "F", cli.min_corr, -1.0, 1.0)});
  if (!mfm::cli::parse("mfm_glitch", flags, argc, argv)) return 2;

  mfm::netlist::ReportSink sink("mfm_glitch", cli.common.json, cli.common.out);
  if (!sink.ok()) return 2;

  mfm::roster::RosterDriver driver(mfm::roster::BuildMode::kPipelined,
                                   cli.common.only, cli.common.threads,
                                   cli.common.json);
  const auto results = driver.run<JobResult>(
      sink,
      [&cli](const mfm::roster::JobContext& ctx) {
        return analyze_unit(cli, ctx);
      });

  mfm::cli::Summary summary;
  for (const auto& [job, r] : results) {
    if (!r.gate_failed) continue;
    char line[160];
    std::snprintf(line, sizeof line,
                  "%s: cross-validation FAILED (overlap %.2f < %.2f and "
                  "spearman %.3f < %.3f)",
                  job->name.c_str(), r.overlap_frac, cli.min_overlap,
                  r.rank_corr, cli.min_corr);
    summary.failures.push_back(line);
  }
  summary.json.field("gate_failures", summary.failures.size());
  summary.text = "cross-validation failures: " +
                 std::to_string(summary.failures.size()) + "\n";
  return mfm::cli::finish("mfm_glitch", sink, driver, summary);
}
