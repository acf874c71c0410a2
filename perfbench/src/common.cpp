#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <random>
#include <string>

#include "netlist/compiled.h"
#include "netlist/sim_pack.h"
#include "trace.h"

namespace perfbench {

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
  return 0.0;
}

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

std::uint64_t derive_seed(std::uint64_t seed, std::string_view tag) {
  std::uint64_t h = 0xCBF29CE484222325ull;  // FNV-1a over the tag
  for (const char ch : tag)
    h = (h ^ static_cast<unsigned char>(ch)) * 0x100000001B3ull;
  return mix64(seed ^ h);
}

std::string hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::string json_str(std::string_view s) {
  std::string out = "\"";
  for (const char ch : s) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", ch);
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  return out + "\"";
}

std::string json_num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

double clock_s(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

double thread_cpu_s() { return clock_s(CLOCK_THREAD_CPUTIME_ID); }
double process_cpu_s() { return clock_s(CLOCK_PROCESS_CPUTIME_ID); }

std::string json_list(const std::vector<double>& v) {
  std::string out = "[";
  for (const double x : v) {
    if (out.size() > 1) out += ',';
    out += json_num(x);
  }
  return out + "]";
}

double median_chunk_sums(const std::vector<double>& v, std::size_t chunk) {
  std::vector<double> sums;
  for (std::size_t i = 0; chunk > 0 && i + chunk <= v.size(); i += chunk) {
    double s = 0.0;
    for (std::size_t k = i; k < i + chunk; ++k) s += v[k];
    sums.push_back(s);
  }
  return median(std::move(sums));
}

BatchPass run_rounds(std::size_t jobs, double seconds, int fixed_rounds,
                     const std::vector<int>& fixed_reps,
                     const std::function<double()>& clock,
                     const std::function<void(std::size_t job)>& run_job) {
  BatchPass pass;
  pass.job_s.assign(jobs, {});
  pass.wall_s.assign(jobs, {});
  pass.reps = fixed_reps;
  const Clock::time_point t0 = Clock::now();
  for (;;) {
    for (std::size_t j = 0; j < jobs; ++j) {
      const bool first = pass.reps.size() <= j;
      for (int k = 0; k < (first ? 1 : pass.reps[j]); ++k) {
        const Clock::time_point w = Clock::now();
        const double c = clock();
        run_job(j);
        pass.job_s[j].push_back(clock() - c);
        pass.wall_s[j].push_back(seconds_since(w));
      }
      if (first)
        pass.reps.push_back(static_cast<int>(std::clamp(
            std::ceil(kMinJobRoundS / std::max(pass.job_s[j][0], 1e-6)), 1.0,
            1000.0)));
    }
    ++pass.rounds;
    pass.elapsed_s = seconds_since(t0);
    if (fixed_rounds > 0 ? pass.rounds >= fixed_rounds
                         : pass.elapsed_s >= seconds)
      break;
  }
  return pass;
}

TimedPasses run_passes(const Config& cfg, const char* workload,
                       std::size_t jobs, const std::function<double()>& clock,
                       const std::function<void(std::size_t job)>& run_job) {
  TimedPasses p;
  if (!cfg.trace) {
    p.untraced = run_rounds(jobs, cfg.seconds, 0, {}, clock, run_job);
    return p;
  }
  Tracer::get().enable(false);
  p.untraced = run_rounds(jobs, cfg.seconds / 2, 0, {}, clock, run_job);
  Tracer::get().enable(true);
  Span s("workload.timed", workload);
  p.traced = run_rounds(jobs, 0.0, p.untraced.rounds, p.untraced.reps, clock,
                        run_job);
  return p;
}

namespace {

/// Throughput and p50/p90 latency [ms] of a pass, from each job's
/// median over its samples (on the CPU clock, or wall time).
struct Figures {
  double throughput = 0.0;
  double p50_ms = 0.0;
  double p90_ms = 0.0;
};
Figures batch_figures(const std::vector<std::vector<double>>& samples,
                      const std::vector<double>& work_per_job) {
  double work = 0.0;
  double time = 0.0;
  std::vector<double> job_medians;
  for (std::size_t j = 0; j < samples.size(); ++j) {
    job_medians.push_back(median(samples[j]));
    work += work_per_job[j];
    time += job_medians.back();
  }
  return {time > 0.0 ? work / time : 0.0,
          1e3 * percentile(job_medians, 0.5),
          1e3 * percentile(job_medians, 0.9)};
}

}  // namespace

void report_untraced_pass(Result& r, const TimedPasses& passes,
                          const std::vector<double>& work_per_job) {
  const Figures wall = batch_figures(passes.untraced.wall_s, work_per_job);
  r.layer("wall.throughput_per_s", wall.throughput, "1/s");
  r.layer("wall.latency_p50_ms", wall.p50_ms, "ms");
  r.layer("wall.latency_p90_ms", wall.p90_ms, "ms");
  r.layer("trace.overhead_pct",
          100.0 * (batch_figures(passes.untraced.job_s, work_per_job)
                           .throughput /
                       batch_figures(passes.traced.job_s, work_per_job)
                           .throughput -
                   1.0),
          "%");
}

void report_batch(Result& r, const BatchPass& pass,
                  const std::vector<double>& work_per_job, double setup_s) {
  const Figures cpu = batch_figures(pass.job_s, work_per_job);
  const Figures wall = batch_figures(pass.wall_s, work_per_job);
  r.e2e("setup_s", setup_s, "s");
  r.e2e("throughput_per_s", cpu.throughput, "1/s");
  r.e2e("latency_p50_ms", cpu.p50_ms, "ms");
  r.e2e("latency_p90_ms", cpu.p90_ms, "ms");
  r.e2e("peak_rss_mb", peak_rss_mb(), "MB");
  r.info.emplace_back("wall_throughput_per_s", json_num(wall.throughput));
  r.info.emplace_back("wall_latency_p50_ms", json_num(wall.p50_ms));
  r.info.emplace_back("wall_latency_p90_ms", json_num(wall.p90_ms));
  std::size_t samples = 0;
  for (const std::vector<double>& js : pass.job_s) samples += js.size();
  r.info.emplace_back("rounds", std::to_string(pass.rounds));
  r.info.emplace_back("jobs", std::to_string(pass.job_s.size()));
  r.info.emplace_back("latency_samples", std::to_string(samples));
  r.info.emplace_back("job_repeats",
                      json_list(std::vector<double>(pass.reps.begin(),
                                                    pass.reps.end())));
  r.info.emplace_back("timed_wall_s", json_num(pass.elapsed_s));
  std::vector<double> cpu_medians;
  std::vector<double> wall_medians;
  for (std::size_t j = 0; j < pass.job_s.size(); ++j) {
    cpu_medians.push_back(median(pass.job_s[j]));
    wall_medians.push_back(median(pass.wall_s[j]));
  }
  r.info.emplace_back("job_cpu_s", json_list(cpu_medians));
  r.info.emplace_back("job_wall_s", json_list(wall_medians));
  std::string per_job = "[";
  for (const std::vector<double>& js : pass.job_s) {
    if (per_job.size() > 1) per_job += ',';
    per_job += json_list(js);
  }
  r.info.emplace_back("job_cpu_samples_s", per_job + "]");
}

double packsim_eval_us(const mfm::netlist::CompiledCircuit& cc,
                       const std::string& id, std::uint64_t seed) {
  mfm::netlist::PackSim sim(cc);
  std::mt19937_64 rng(seed);
  for (const mfm::netlist::NetId n : cc.circuit().primary_inputs())
    sim.set(n, rng());
  sim.eval();  // first touch of the net words
  constexpr int kBatches = 7;
  constexpr int kEvals = 40;
  std::vector<double> per_eval;
  for (int b = 0; b < kBatches; ++b) {
    Span span("sim_pack.eval", id);
    const double t0 = thread_cpu_s();
    for (int i = 0; i < kEvals; ++i) sim.eval();
    per_eval.push_back((thread_cpu_s() - t0) / kEvals);
  }
  return 1e6 * median(std::move(per_eval));
}

}  // namespace perfbench
