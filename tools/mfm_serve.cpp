// mfm_serve: drive the batched multiplication service (serve/serve.h)
// over the roster catalog and check every product against the C
// reference models (serve/reference.h).
//
//   mfm_serve [--json] [--only=LIST] [--out=FILE] [--seed=S]
//             [--threads=N|auto] [--ops=N] [--batch=N] [--queue=N]
//
// For every (unit, pin-variant) job in the catalog the tool submits
// --ops random operand pairs as --batch-sized requests to one shared
// MultiplyService -- the serve-layer equivalent of a roster tool run:
// all 17 jobs' batches interleave on the worker pool, each worker
// reusing its persistent PackSim per unit over the one shared
// compilation.  Every returned lane is diffed against the word-level
// models (mf::execute, the reduction-aware mf-reduce semantics, the FP
// multiplier/adder models, int64_mul, reduce64to32), so a single run
// end-to-end checks queueing, 64-lane packing, eval, unpacking and
// partial-batch masking on every shipped unit.
//
// --threads defaults to `auto` (one worker per hardware thread), and the
// service never starts more workers than there are jobs.  The
// operand streams are seeded per job name, and the report plus the
// service-stats summary are byte-identical at any --threads value (the
// CI determinism gate diffs them); the timing-dependent numbers --
// sustained mult/s, queue high-water -- go to stderr.
//
// Exit status is nonzero when any unit's products mismatch the model
// or any request fails, naming the unit(s) -- fail-soft, like the
// roster tools: the other units' records are still emitted.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <future>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "cli_util.h"
#include "netlist/report.h"
#include "roster/roster.h"
#include "serve/reference.h"
#include "serve/serve.h"

namespace {

using mfm::cli::flag;
using mfm::serve::BatchResult;
using mfm::serve::Op;
using mfm::serve::Request;

struct CliOptions {
  mfm::cli::CommonOptions common;
  std::uint64_t seed = 0x5E12;
  long ops = 256;    // operand pairs per roster job
  long batch = 96;   // ops per request (not a multiple of 64: the
                     // partial-batch masking path runs on every job)
  long queue = 64;   // service queue capacity
};

/// One seed per job name: the operand stream is a pure function of
/// (--seed, job name), independent of thread count and --only filter.
std::uint64_t job_seed(std::uint64_t seed, const std::string& name) {
  std::uint64_t h = seed ^ 0x9E3779B97F4A7C15ull;
  for (const char ch : name) h = (h ^ static_cast<unsigned char>(ch)) * 0x100000001B3ull;
  return h;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions cli;
  // Default --threads=auto, resolved as the flag table resolves it.
  cli.common.threads =
      std::min(mfm::common::hardware_threads(), mfm::cli::kMaxThreads);
  const auto flags = mfm::cli::table(
      cli.common, {flag("--seed", "S", cli.seed),
                   flag("--ops", "N", cli.ops, 1, 10'000'000),
                   flag("--batch", "N", cli.batch, 1, 1'000'000),
                   flag("--queue", "N", cli.queue, 1, 1'000'000)});
  if (!mfm::cli::parse("mfm_serve", flags, argc, argv)) return 2;

  mfm::netlist::ReportSink sink("mfm_serve", cli.common.json, cli.common.out);
  if (!sink.ok()) return 2;

  const std::vector<mfm::roster::RosterJob> jobs =
      mfm::roster::plan_jobs(cli.common.only);

  mfm::roster::UnitCache cache;
  mfm::serve::ServiceOptions opt;
  // No more workers than jobs, as common::parallel_for runs the roster
  // tools.
  opt.threads = std::min(cli.common.threads,
                         std::max(1, static_cast<int>(jobs.size())));
  opt.queue_capacity = static_cast<std::size_t>(cli.queue);
  mfm::serve::MultiplyService service(cache, opt);

  // Generate each job's operand stream and submit all its requests.
  // The blocking submit() is the backpressure: the main thread stalls
  // whenever the queue is at capacity.
  struct Pending {
    std::vector<Op> ops;                          // per request
    std::future<BatchResult> result;
  };
  std::vector<std::vector<Pending>> pending(jobs.size());
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const mfm::roster::RosterJob& job = jobs[j];
    const mfm::roster::UnitSpec& spec = mfm::roster::catalog()[job.spec];
    const bool has_ctrl =
        spec.name == "mf" || spec.name == "mf-reduce";
    const std::string variant = spec.variant_names[job.variant];
    std::mt19937_64 rng(job_seed(cli.seed, job.name));
    for (long done = 0; done < cli.ops; done += cli.batch) {
      const long count = std::min(cli.batch, cli.ops - done);
      Request req;
      req.spec = job.spec;
      req.variant = variant;
      req.ops.reserve(static_cast<std::size_t>(count));
      for (long k = 0; k < count; ++k) {
        Op op;
        op.a = rng();
        op.b = rng();
        // Unpinned mf jobs pick a format per op; pinned variants
        // ignore ctrl (the pins win), modelled the same way by
        // reference_outputs.
        op.ctrl = has_ctrl && variant.empty() ? rng() % 3 : 0;
        req.ops.push_back(op);
      }
      Pending p;
      p.ops = req.ops;
      p.result = service.submit(std::move(req));
      pending[j].push_back(std::move(p));
    }
  }

  // Collect and check in catalog order; emission order is fixed no
  // matter how the workers interleaved.
  std::vector<std::string> failed;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const mfm::roster::RosterJob& job = jobs[j];
    const mfm::roster::UnitSpec& spec = mfm::roster::catalog()[job.spec];
    const std::string variant = spec.variant_names[job.variant];
    std::string error;
    for (Pending& p : pending[j]) {
      const BatchResult r = p.result.get();
      const std::string mismatch =
          mfm::serve::check_result(job.spec, variant, p.ops, r);
      if (!mismatch.empty() && error.empty()) error = mismatch;
    }
    if (error.empty()) {
      if (cli.common.json) {
        mfm::netlist::JsonWriter rec;
        rec.object()
            .field("unit", job.name)
            .field("ops", cli.ops)
            .field("requests", pending[j].size())
            .field("checked", true)
            .end();
        sink.unit(rec.str());
      } else {
        sink.unit(job.name + ": " + std::to_string(cli.ops) + " ops in " +
                  std::to_string(pending[j].size()) +
                  " request(s), all products match the model\n");
      }
    } else {
      failed.push_back(job.name);
      sink.unit(mfm::roster::render_job_error(job.name, error,
                                              cli.common.json));
    }
  }

  service.shutdown();
  const mfm::serve::ServiceStats stats = service.stats();
  // Rates and queue depth are timing-dependent: stderr only, so the
  // report (stdout / --out) is byte-identical at any --threads value.
  std::fprintf(stderr, "mfm_serve: %s", stats.text().c_str());

  mfm::cli::Summary summary;
  const std::string service_json = stats.json(/*with_rates=*/false);
  summary.json.field("mismatches", failed.size())
      .key("service").raw(service_json);
  summary.text = service_json + "\n";
  return mfm::cli::finish("mfm_serve", sink, failed, summary);
}
