// perfbench: one workload of the repository benchmark, in its own
// process.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--workers N] [--shards N] [--out-dir DIR]
//
// Workloads: serve_mixed, fault_campaign, opt_flow, power_mc (see
// perfbench/README.md for what each measures and why).  Prints one JSON
// object on stdout: provenance, correct/attempted/failed, the metrics
// (end-to-end, or per-layer with --trace 1), the simulated-statistics
// digest, and sample counts.  With --trace 1 and --out-dir, the spans
// are written there as Chrome trace-event JSON plus a per-layer
// summary.  perfbench/run.py builds this binary and drives it.
//
// Refuses (exit 3) to time a build with asserts enabled or sanitizers
// compiled in: such numbers would not describe the shipped library.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <malloc.h>
#include <string>
#include <thread>

#include "common.h"
#include "trace.h"

namespace {

using perfbench::Config;
using perfbench::json_num;
using perfbench::json_str;
using perfbench::Result;

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload serve_mixed|fault_campaign|"
               "opt_flow|power_mc --seed N --seconds S --trace 0|1 "
               "[--workers N] [--shards N] [--out-dir DIR]\n");
  return 2;
}

bool parse_int(const std::string& s, long lo, long hi, long& out) {
  char* end = nullptr;
  const long v = std::strtol(s.c_str(), &end, 10);
  if (s.empty() || *end != '\0' || v < lo || v > hi) return false;
  out = v;
  return true;
}

/// Why this build must not be timed ("" when it may).
std::string build_guard() {
#ifndef NDEBUG
  return "asserts are enabled (NDEBUG is not defined)";
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "the build is sanitized";
#endif
  return "";
}

std::string render(const Config& cfg, const Result& r) {
  std::string out = "{\"workload\":" + json_str(cfg.workload);
  out += ",\"provenance\":{\"build_type\":" + json_str(PERFBENCH_BUILD_TYPE) +
         ",\"compiler\":" + json_str(PERFBENCH_COMPILER) +
         ",\"compiler_version\":" + json_str(__VERSION__) +
         ",\"nproc\":" + std::to_string(std::thread::hardware_concurrency()) +
         ",\"workers\":" + std::to_string(cfg.workers) +
         ",\"shards\":" + std::to_string(cfg.shards) +
         ",\"seed\":" + std::to_string(cfg.seed) +
         ",\"seconds\":" + json_num(cfg.seconds) +
         ",\"trace\":" + (cfg.trace ? "true" : "false") + "}";
  out += ",\"correct\":" + std::string(r.failed == 0 ? "true" : "false");
  out += ",\"attempted\":" + std::to_string(r.attempted);
  out += ",\"failed\":" + std::to_string(r.failed);
  out += ",\"failures\":[";
  for (std::size_t i = 0; i < r.failures.size(); ++i) {
    if (i) out += ',';
    out += json_str(r.failures[i]);
  }
  out += "],\"metrics\":{";
  const auto& metrics = cfg.trace ? r.per_layer : r.end_to_end;
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i) out += ',';
    out += json_str(metrics[i].name) +
           ":{\"value\":" + json_num(metrics[i].value) +
           ",\"unit\":" + json_str(metrics[i].unit) + "}";
  }
  out += "},\"digest\":{";
  for (std::size_t i = 0; i < r.digest.size(); ++i) {
    if (i) out += ',';
    out += json_str(r.digest[i].first) + ":" + r.digest[i].second;
  }
  out += "},\"info\":{";
  for (std::size_t i = 0; i < r.info.size(); ++i) {
    if (i) out += ',';
    out += json_str(r.info[i].first) + ":" + r.info[i].second;
  }
  out += "}";
  if (cfg.trace)
    out += ",\"trace_summary\":" + perfbench::Tracer::get().summary_json();
  return out + "}";
}

bool write_file(const std::string& path, const std::string& text) {
  std::ofstream f(path);
  f << text;
  return static_cast<bool>(f);
}

}  // namespace

int main(int argc, char** argv) {
  // Keep freed memory mapped.  By default glibc hands the heap top and
  // large blocks back to the kernel on free, so each set-up repeat and
  // each timed operation faulted its pages in again; on a 4-vCPU VM,
  // where a page fault is slow and its cost drifts, that made set-ups
  // 13-65 % slower.
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  Config cfg;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage();
    const std::string val = argv[++i];
    long v = 0;
    if (arg == "--workload") {
      cfg.workload = val;
    } else if (arg == "--seed") {
      char* end = nullptr;
      cfg.seed = std::strtoull(val.c_str(), &end, 10);
      if (val.empty() || *end != '\0' || val[0] == '-') return usage();
      have_seed = true;
    } else if (arg == "--seconds") {
      if (!parse_int(val, 1, 3600, v)) return usage();
      cfg.seconds = static_cast<double>(v);
    } else if (arg == "--trace") {
      if (!parse_int(val, 0, 1, v)) return usage();
      cfg.trace = v == 1;
    } else if (arg == "--workers") {
      if (!parse_int(val, 1, 64, v)) return usage();
      cfg.workers = static_cast<int>(v);
    } else if (arg == "--shards") {
      if (!parse_int(val, 1, 64, v)) return usage();
      cfg.shards = static_cast<int>(v);
    } else if (arg == "--out-dir") {
      cfg.out_dir = val;
    } else {
      return usage();
    }
  }
  if (!have_seed) return usage();

  const std::string refused = build_guard();
  if (!refused.empty()) {
    std::fprintf(stderr, "perfbench: refusing to time this build: %s\n",
                 refused.c_str());
    return 3;
  }

  Result (*run)(const Config&) = nullptr;
  if (cfg.workload == "serve_mixed") run = perfbench::run_serve_mixed;
  if (cfg.workload == "fault_campaign") run = perfbench::run_fault_campaign;
  if (cfg.workload == "opt_flow") run = perfbench::run_opt_flow;
  if (cfg.workload == "power_mc") run = perfbench::run_power_mc;
  if (!run) return usage();

  perfbench::Tracer::get().enable(cfg.trace);
  Result r;
  try {
    r = run(cfg);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s: %s\n", cfg.workload.c_str(),
                 e.what());
    return 1;
  }
  perfbench::Tracer::get().enable(false);

  if (cfg.trace && !cfg.out_dir.empty()) {
    const std::string base = cfg.out_dir + "/trace-" + cfg.workload +
                             "-seed" + std::to_string(cfg.seed);
    if (!write_file(base + ".json", perfbench::Tracer::get().chrome_json()) ||
        !write_file(base + "-summary.json",
                    perfbench::Tracer::get().summary_json() + "\n")) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", base.c_str());
      return 1;
    }
  }
  std::printf("%s\n", render(cfg, r).c_str());
  return 0;
}
