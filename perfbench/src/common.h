// Shared plumbing of the perfbench workloads: run configuration, the
// result record each workload fills, timing and statistics helpers, and
// the seed derivation that turns one --seed into every generated input.
#pragma once

#include <chrono>
#include <cstdint>
#include <ctime>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace mfm::netlist {
class CompiledCircuit;
}

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double seconds_since(Clock::time_point t0) {
  return seconds_between(t0, Clock::now());
}

// The timed figures are CPU time, not wall time.  The bounds were set
// on a 4-vCPU VM whose vCPUs the hypervisor time-shares with other
// tenants: measured steal ran at 10-25 % of the machine for minutes at
// a time and moved wall-clock throughput by up to 40 % between runs.
// Linux accounts stolen time apart from a thread's CPU time, so a CPU
// clock advances only while a thread really runs; on an idle host it
// equals the wall time of a busy thread.  Jobs and throughput are timed
// on the process's CPU clock, so work the library hands to other
// threads still counts (serve_mixed's request latency is the serving
// worker's clock).  Time a thread spends blocked is not counted, and
// work spread over more threads costs the same: a change to parallelism
// or blocking must be judged on the wall figures, which each run reports
// beside the CPU ones (the wall.* per-layer metrics and the record's
// info).

/// Seconds on a POSIX clock (e.g. a thread's, from
/// pthread_getcpuclockid).
double clock_s(clockid_t clock);
/// CPU seconds of the calling thread.
double thread_cpu_s();
/// CPU seconds of the whole process (every thread, exited ones too).
double process_cpu_s();

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< length of the timed phase
  bool trace = false;     ///< traced run: per-layer metrics, not end-to-end
  int workers = 2;        ///< serve_mixed service workers
  int shards = 2;         ///< power_mc shard threads
  std::string out_dir;    ///< where the trace files go ("" = none)
};

/// What one workload run measured and checked.
struct Result {
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< first few failure descriptions
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  /// Simulated statistics that a simulator-only speed-up must leave
  /// unchanged: (key, rendered JSON value), in a fixed order.
  std::vector<std::pair<std::string, std::string>> digest;
  /// Sample counts and sizes behind the metrics: (key, JSON value).
  std::vector<std::pair<std::string, std::string>> info;

  void fail(std::string what) {
    ++failed;
    if (failures.size() < 8) failures.push_back(std::move(what));
  }
  void e2e(std::string name, double value, std::string unit) {
    end_to_end.push_back({std::move(name), value, std::move(unit)});
  }
  void layer(std::string name, double value, std::string unit) {
    per_layer.push_back({std::move(name), value, std::move(unit)});
  }
};

/// Sorted-copy percentile with linear interpolation between ranks
/// (q in [0, 1]); 0 for an empty sample.
double percentile(std::vector<double> v, double q);
inline double median(std::vector<double> v) {
  return percentile(std::move(v), 0.5);
}

/// Peak resident set size of this process [MB]: VmHWM, the high-water
/// mark of this program's own address space (getrusage's ru_maxrss
/// would also count the launching process's RSS before exec).
double peak_rss_mb();

/// splitmix64 finalizer.
std::uint64_t mix64(std::uint64_t x);
/// Seed for one named input stream of a run: a pure function of the
/// run's --seed and @p tag.
std::uint64_t derive_seed(std::uint64_t seed, std::string_view tag);
/// Order-dependent 64-bit hash combiner.
inline std::uint64_t hash_combine(std::uint64_t h, std::uint64_t v) {
  return mix64(h ^ (v + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2)));
}

std::string hex64(std::uint64_t v);
/// JSON string literal (quotes included).
std::string json_str(std::string_view s);
/// A double with every significant digit (round-trips exactly).
std::string json_num(double v);

/// Renders a list of numbers as a JSON array.
std::string json_list(const std::vector<double>& v);

/// Set-ups per run; setup_s is the median of their times.
inline constexpr int kSetupRepeats = 31;

/// Runs @p setup kSetupRepeats times from cold state and returns the
/// median of their process CPU times [s] (every thread counts: the
/// service's warm-up runs on its workers), recording every repeat, and
/// its wall time, in @p r's info.  @p teardown (untimed) releases the
/// previous repeat's state first; the last repeat's state is the one the
/// timed phase uses.
template <typename Teardown, typename Setup>
double timed_setups(Result& r, Teardown&& teardown, Setup&& setup) {
  std::vector<double> cpu;
  std::vector<double> wall;
  for (int i = 0; i < kSetupRepeats; ++i) {
    teardown();
    const Clock::time_point w0 = Clock::now();
    const double c0 = process_cpu_s();
    setup();
    cpu.push_back(process_cpu_s() - c0);
    wall.push_back(seconds_since(w0));
  }
  r.info.emplace_back("setup_cpu_s", json_list(cpu));
  r.info.emplace_back("setup_wall_s", json_list(wall));
  return median(std::move(cpu));
}

/// Sums of consecutive @p chunk-sized groups of @p v (the spans of one
/// round or one set-up repeat), then their median.
double median_chunk_sums(const std::vector<double>& v, std::size_t chunk);

/// The timed phase of a batch workload: whole rounds over a fixed job
/// list, repeated until @p seconds of wall time have passed (at least
/// one round), or exactly @p fixed_rounds rounds when that is positive.
/// Each job is timed on @p clock, which returns seconds.  A job runs
/// reps[j] times per round: once in the first round, then enough times
/// to fill kMinJobRoundS (from its first time), so a short job gets as
/// many samples' worth of time as a long one; @p fixed_reps (when not
/// empty) sets reps instead.
struct BatchPass {
  int rounds = 0;
  double elapsed_s = 0.0;                  ///< wall time of the pass
  std::vector<int> reps;                   ///< runs per round, per job
  std::vector<std::vector<double>> job_s;  ///< [job][sample] on the clock
  std::vector<std::vector<double>> wall_s; ///< [job][sample] wall time
};
inline constexpr double kMinJobRoundS = 0.5;
BatchPass run_rounds(std::size_t jobs, double seconds, int fixed_rounds,
                     const std::vector<int>& fixed_reps,
                     const std::function<double()>& clock,
                     const std::function<void(std::size_t job)>& run_job);

/// The timed phase of a batch workload.  Untraced run: one pass of
/// cfg.seconds.  Traced run: an untraced pass of half that, then a
/// traced pass (inside a "workload.timed" span named @p workload) of the
/// same rounds and repeats; the per-layer metrics come from the traced
/// pass, and the two passes give the tracing overhead.
struct TimedPasses {
  BatchPass untraced;
  BatchPass traced;  ///< empty in an untraced run
};
TimedPasses run_passes(const Config& cfg, const char* workload,
                       std::size_t jobs, const std::function<double()>& clock,
                       const std::function<void(std::size_t job)>& run_job);

/// End-to-end metrics of a batch pass.  Each job's time is its median
/// over its samples, so one disturbed run moves no metric by itself.
/// Throughput is the work of one round over the sum of those medians;
/// latency p50/p90 are percentiles of them over the jobs (a job is one
/// unit through the workload's layer: what a tool user waits for).  The
/// same figures on wall time go to the record's info.
void report_batch(Result& r, const BatchPass& pass,
                  const std::vector<double>& work_per_job,
                  double setup_s);

/// Per-layer figures of a traced run's untraced pass: its wall-clock
/// throughput and p50/p90 latency (wall.*), and trace.overhead_pct --
/// its throughput over the traced pass's, minus one, in percent.
void report_untraced_pass(Result& r, const TimedPasses& passes,
                          const std::vector<double>& work_per_job);

/// Median CPU time of one PackSim::eval() on @p cc with random input
/// words [us], recorded as a "sim_pack.eval" span per timing batch.
double packsim_eval_us(const mfm::netlist::CompiledCircuit& cc,
                       const std::string& id, std::uint64_t seed);

// One entry point per workload.
Result run_serve_mixed(const Config& cfg);
Result run_fault_campaign(const Config& cfg);
Result run_opt_flow(const Config& cfg);
Result run_power_mc(const Config& cfg);

}  // namespace perfbench
