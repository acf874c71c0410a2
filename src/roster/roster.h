// The shared unit roster: one declaration of every shipped generator,
// consumed by all six mfm_* tools, the throughput benches, and the
// tests.
//
// Before this layer existed each tool hand-copied the same ~100-line
// generator roster (multiplier builds, mf-unit format pin sets, CLI
// loops) and they drifted -- mfm_lint silently skipped mult8 while the
// other three covered it.  The catalog (catalog.cpp) declares the full
// roster exactly once: every UnitSpec names its builder thunk and the
// per-format TernaryPin variants (frmt pinning, the fp32x1
// idle-upper-lane trick, the Fig. 4 lane obligations), so a unit added
// there is automatically linted, fault-injected, swept, and optimized
// -- roster drift is impossible by construction.
//
// Three pieces:
//
//   catalog()     The UnitSpec registry.  Specs are mode-sensitive when
//                 the pipelined (Fig. 5) and combinational builds
//                 differ (only the mf unit); everything else builds the
//                 same circuit in either mode.
//
//   UnitCache     Lazily builds each (spec, mode) Circuit -- and, on
//                 demand, its CompiledCircuit -- exactly once, even
//                 under concurrent access, and shares it read-only
//                 across consumers.  This is the compile cache the
//                 ROADMAP's simulation farm needs: one immutable
//                 CompiledCircuit backing any number of workers, the
//                 same discipline the sharded power engine already
//                 uses.
//
//   RosterDriver  Fans per-(unit, pin-variant) jobs over a worker pool
//                 (common/parallel.h), buffers each job's rendered
//                 report, and emits them to the ReportSink in catalog
//                 order -- so JSON/text output is byte-identical at any
//                 --threads value.  Job bodies must derive everything
//                 from the JobContext plus fixed options (own seeds, no
//                 shared mutable state); that contract is what makes
//                 the determinism tests hold.
//
// Failure contract (fail-soft): a job body that throws does NOT abort
// the run.  The driver catches the exception inside the worker lambda
// (parallel_for's own error path is fail-total: it drains the queue,
// discards all buffered results, and rethrows -- see common/parallel.h),
// records the message as that job's error, and still emits every other
// job's report post-barrier in catalog order, plus a rendered
// {"unit":...,"error":...} record (or "<name>: ERROR: ..." in text
// mode) in the failed job's slot.  run() returns only the jobs that
// finished, so no tool aggregates a failed job's result, and tools exit
// nonzero naming failed_jobs(), so --out=FILE always holds the 16 good
// reports even when the 17th job dies.
#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "common/parallel.h"
#include "netlist/circuit.h"
#include "netlist/compiled.h"
#include "netlist/lint.h"
#include "netlist/report.h"

namespace mfm::roster {

/// Which build of a spec a consumer wants.  Pipelined is each unit's
/// default build (Fig. 5 registers for the mf unit); Combinational
/// flattens the registers so the result can be proven with the
/// combinational equivalence checker (mfm_sweep / mfm_opt).  Specs
/// whose builds are identical in both modes are cached once.
enum class BuildMode { kPipelined, kCombinational };

/// One pin-set variant of a unit: the format control pins (empty =
/// unpinned) plus any lane-isolation obligations the lint tool proves
/// under those pins.
struct PinVariant {
  std::string name;  ///< "" = unpinned; else "int64", "fp32x1", ...
  std::vector<netlist::TernaryPin> pins;
  std::vector<netlist::LaneSpec> lanes;
};

/// A built unit: the circuit, its pipeline latency, and the pin
/// variants constructed against this circuit's net ids.  Owned by the
/// UnitCache and shared read-only; never mutate after construction.
struct BuiltUnit {
  std::unique_ptr<netlist::Circuit> circuit;
  int latency_cycles = 0;
  std::vector<PinVariant> variants;  ///< parallel to UnitSpec::variant_names
};

/// One catalog entry.  variant_names is declared statically so job
/// planning (names, --only filtering, output order) never needs to
/// build the circuit; the cache checks the built variants match.
struct UnitSpec {
  std::string name;
  std::vector<std::string> tags;
  std::vector<std::string> variant_names;  ///< at least {""}
  bool mode_sensitive = false;  ///< pipelined/combinational builds differ
  std::function<BuiltUnit(BuildMode)> build;
};

/// The full shipped roster, declared once in catalog.cpp.
const std::vector<UnitSpec>& catalog();

/// Index of the spec named @p name; throws std::out_of_range on unknown.
std::size_t spec_index(std::string_view name);

/// Full job name: "<spec>" for the unpinned variant, "<spec>/<variant>".
std::string job_name(const UnitSpec& spec, std::size_t variant);

/// One (spec, variant) job in catalog order.
struct RosterJob {
  std::size_t spec = 0;
  std::size_t variant = 0;
  std::string name;
};

/// Every job name in catalog order (what an unfiltered tool run covers).
std::vector<std::string> catalog_job_names();

/// Jobs whose name contains any of the comma-separated substrings in
/// @p only (empty selects everything), in catalog order.
std::vector<RosterJob> plan_jobs(const std::string& only = "");

/// Looks up a variant of a built unit by name; throws std::out_of_range
/// when the unit has no such variant.
const PinVariant& find_variant(const BuiltUnit& unit, std::string_view name);

/// Lazily builds each (spec, mode) exactly once -- concurrent callers
/// block on the same std::once_flag and then share the one immutable
/// BuiltUnit / CompiledCircuit.  Mode-insensitive specs collapse both
/// modes onto one entry.
class UnitCache {
 public:
  UnitCache();
  UnitCache(const UnitCache&) = delete;
  UnitCache& operator=(const UnitCache&) = delete;

  /// The shared built unit for (spec, mode); builds it on first use.
  const BuiltUnit& unit(std::size_t spec, BuildMode mode);

  /// The shared compilation of unit(spec, mode); compiles on first use.
  const netlist::CompiledCircuit& compiled(std::size_t spec, BuildMode mode);

  /// Total circuit builds / compilations so far (for the cache tests:
  /// N concurrent consumers of one spec must cost exactly one build).
  int circuit_builds() const { return builds_.load(); }
  int compilations() const { return compiles_.load(); }

 private:
  struct Entry {
    std::once_flag build_once;
    std::once_flag compile_once;
    BuiltUnit unit;
    std::unique_ptr<netlist::CompiledCircuit> compiled;
  };
  Entry& entry(std::size_t spec, BuildMode mode);

  std::vector<std::unique_ptr<Entry>> entries_;  // 2 slots per spec
  std::atomic<int> builds_{0};
  std::atomic<int> compiles_{0};
};

/// Everything a job body may consume.  The unit and compilation are
/// shared read-only across workers; per-job state (simulators, lint
/// options, sweeps) lives in the body.
struct JobContext {
  const RosterJob& job;
  const UnitSpec& spec;
  const BuiltUnit& unit;
  const PinVariant& variant;
  BuildMode mode;
  UnitCache& cache;

  /// The shared compilation of this job's circuit.
  const netlist::CompiledCircuit& compiled() const {
    return cache.compiled(job.spec, mode);
  }
};

/// Renders a per-unit error record in the sink's framing: a JSON object
/// `{"unit":...,"error":...}` or a `"<name>: ERROR: <msg>"` text block.
std::string render_job_error(const std::string& job_name,
                             const std::string& message, bool json);

/// Job names matching the MFM_ROSTER_FAIL test hook ("" when unset):
/// run() throws an injected std::runtime_error for any job whose name
/// contains the variable's value, exercising the fail-soft path from
/// the real tools (CI's forced-throw gate).
const char* injected_failure_needle();

/// A job whose body returned, with the body's result.
template <typename Result>
struct Completed {
  const RosterJob* job = nullptr;
  Result result;
};

/// Plans the (filtered) jobs, fans them over @p threads workers, and
/// emits each result's `rendered` string to the sink in catalog order.
class RosterDriver {
 public:
  /// @p json selects the error-record rendering of run(); it must match
  /// the sink's mode so a failed job's slot stays well-formed output.
  RosterDriver(BuildMode mode, const std::string& only, int threads,
               bool json = false)
      : mode_(mode), threads_(threads), json_(json), jobs_(plan_jobs(only)) {}

  const std::vector<RosterJob>& jobs() const { return jobs_; }
  UnitCache& cache() { return cache_; }

  /// Runs fn over every planned job.  Result must expose a std::string
  /// member `rendered` (the per-unit report).  The jobs that finished
  /// are returned in catalog order for tool-specific aggregation
  /// (failure counts, summary tables, float sums -- summed in this order
  /// so even the floating-point totals are thread-count-independent).
  ///
  /// Fail-soft: a throwing job body is caught here, inside the worker
  /// lambda -- never propagated into parallel_for, whose drain-on-error
  /// path would abandon the not-yet-claimed jobs and discard every
  /// buffered report (see common/parallel.h).  The failed job is left
  /// out of the returned vector; its sink record is a rendered error
  /// entry, and its message is retained in job_errors().
  template <typename Result, typename Fn>
  std::vector<Completed<Result>> run(netlist::ReportSink& sink, Fn&& fn) {
    std::vector<std::optional<Result>> results(jobs_.size());
    errors_.assign(jobs_.size(), std::string());
    const std::string fail_needle = injected_failure_needle();
    common::parallel_for(
        static_cast<int>(jobs_.size()), threads_, [&](int i) {
          const RosterJob& job = jobs_[static_cast<std::size_t>(i)];
          try {
            if (!fail_needle.empty() &&
                job.name.find(fail_needle) != std::string::npos)
              throw std::runtime_error(
                  "injected failure (MFM_ROSTER_FAIL matched '" +
                  fail_needle + "')");
            const UnitSpec& spec = catalog()[job.spec];
            const BuiltUnit& unit = cache_.unit(job.spec, mode_);
            const JobContext ctx{job,   spec,  unit,
                                 unit.variants[job.variant], mode_, cache_};
            results[static_cast<std::size_t>(i)] = fn(ctx);
          } catch (const std::exception& e) {
            errors_[static_cast<std::size_t>(i)] = e.what();
          } catch (...) {
            errors_[static_cast<std::size_t>(i)] = "unknown exception";
          }
        });
    std::vector<Completed<Result>> done;
    for (std::size_t i = 0; i < results.size(); ++i) {
      if (!results[i]) {
        sink.unit(render_job_error(jobs_[i].name, errors_[i], json_));
        continue;
      }
      sink.unit(results[i]->rendered);
      done.push_back({&jobs_[i], std::move(*results[i])});
    }
    return done;
  }

  /// Per-job error messages from the last run() ("" = job succeeded),
  /// parallel to jobs().
  const std::vector<std::string>& job_errors() const { return errors_; }

  /// Names of the jobs whose body threw during the last run(), in
  /// catalog order.  Tools print these and exit nonzero when non-empty.
  std::vector<std::string> failed_jobs() const;

 private:
  BuildMode mode_;
  int threads_;
  bool json_;
  std::vector<RosterJob> jobs_;
  std::vector<std::string> errors_;
  UnitCache cache_;
};

}  // namespace mfm::roster
