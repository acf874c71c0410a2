// serve_mixed: a closed loop against the batched multiplication service.
//
// kWindow requests stay outstanding on a 2-worker MultiplyService
// (combinational builds) across all 17 roster jobs; each answer's
// completion callback submits the next request.
// Request sizes are log-uniform from 1 to 256 ops -- a model, not
// measured traffic: the two existing callers use 96 and 256 -- so 1-op
// requests (63 wasted lanes) and 256-op requests (bound by eval) both
// occur.  Unpinned mf/mf-reduce ops carry a random format, as in
// mfm_serve.  The queue, the lane packing and plain PackSim::eval do all
// the work.  Work unit: multiplications answered.
//
// Requests come from a pool generated before the timed phase and are
// cycled in order; nothing is generated or checked on the timed path.
// A request's latency runs from submit() to the completion callback on
// the worker thread.  The
// callback keeps a 64-bit hash of every result and a copy of the first
// result per pool slot; after the timed phase every slot's first result
// is checked lane by lane against the C models (serve::check_result)
// and every later answer of that slot must hash to the same value.
// Every buffer is sized by the pool or preallocated, so peak RSS does
// not grow with throughput.
#include <algorithm>
#include <array>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <ctime>
#include <future>
#include <latch>
#include <memory>
#include <mutex>
#include <pthread.h>
#include <random>
#include <sched.h>
#include <stdexcept>
#include <string>
#include <vector>

#include "common.h"
#include "roster/roster.h"
#include "serve/reference.h"
#include "serve/serve.h"
#include "trace.h"

namespace perfbench {

namespace {

using mfm::serve::BatchResult;
using mfm::serve::MultiplyService;
using mfm::serve::Op;
using mfm::serve::Request;
using mfm::serve::ServiceStats;
using mfm::roster::BuildMode;

constexpr int kWindow = 8;             // requests outstanding
constexpr std::size_t kStrata = 256;  // pool requests per roster job
constexpr std::size_t kPool = 17 * kStrata;  // distinct requests, cycled
constexpr int kMaxOps = 256;
constexpr double kSliceS = 0.5;        // throughput is a median of slices
constexpr std::size_t kLatencyCap = 1 << 20;  // reservoir beyond this
constexpr std::size_t kRequestSpans = 20000;  // traced request spans kept
constexpr std::size_t kMaxWorkers = 8;

/// The request pool.  Its mix is stratified, so every seed serves the
/// same amount of work: each roster job gets one request per size
/// stratum (kStrata log-uniform strata over 1..kMaxOps, each size drawn
/// within its stratum).  The seed draws the sizes, operands and formats
/// and shuffles the order.
std::vector<Request> make_pool(std::uint64_t seed) {
  const std::vector<mfm::roster::RosterJob> jobs = mfm::roster::plan_jobs();
  if (jobs.size() * kStrata != kPool)
    throw std::logic_error("serve_mixed: the roster no longer has 17 jobs");
  std::mt19937_64 rng(derive_seed(seed, "serve/pool"));
  std::vector<Request> pool;
  pool.reserve(jobs.size() * kStrata);
  for (const mfm::roster::RosterJob& job : jobs) {
    const mfm::roster::UnitSpec& spec = mfm::roster::catalog()[job.spec];
    const bool free_format =
        (spec.name == "mf" || spec.name == "mf-reduce") &&
        spec.variant_names[job.variant].empty();
    for (std::size_t k = 0; k < kStrata; ++k) {
      Request req;
      req.spec = job.spec;
      req.variant = spec.variant_names[job.variant];
      const double u = (static_cast<double>(k) +
                        static_cast<double>(rng() >> 11) * 0x1.0p-53) /
                       static_cast<double>(kStrata);
      const int n = std::clamp(
          static_cast<int>(std::exp(u * std::log(kMaxOps + 1.0))), 1,
          kMaxOps);
      req.ops.resize(static_cast<std::size_t>(n));
      for (Op& op : req.ops) {
        op.a = rng();
        op.b = rng();
        op.ctrl = free_format ? rng() % 3 : 0;
      }
      pool.push_back(std::move(req));
    }
  }
  std::shuffle(pool.begin(), pool.end(), rng);
  return pool;
}

/// Cheap order-dependent hash of every lane of every port.
std::uint64_t result_hash(const BatchResult& r) {
  std::uint64_t h = 0x243F6A8885A308D3ull;
  for (const mfm::serve::PortBatch& p : r.ports) {
    h = hash_combine(h, p.port.size());
    for (const mfm::u128 v : p.values) {
      h = (h ^ static_cast<std::uint64_t>(v)) * 0x100000001B3ull;
      h = (h ^ static_cast<std::uint64_t>(v >> 64)) * 0x100000001B3ull;
    }
  }
  return mix64(h);
}

/// Fixed-capacity latency sample; reservoir sampling beyond capacity.
class Samples {
 public:
  Samples(std::size_t cap, std::uint64_t seed) : v_(cap, 0.0f), rng_(seed) {}
  void add(float x) {
    if (n_ < v_.size()) {
      v_[n_] = x;
    } else {
      const std::uint64_t k = rng_() % (n_ + 1);
      if (k < v_.size()) v_[k] = x;
    }
    ++n_;
  }
  std::uint64_t count() const { return n_; }
  double quantile(double q) const {
    return percentile(std::vector<double>(
                          v_.begin(), v_.begin() + static_cast<std::ptrdiff_t>(
                                                       std::min<std::uint64_t>(
                                                           n_, v_.size()))),
                      q);
  }

 private:
  std::vector<float> v_;
  std::uint64_t n_ = 0;
  std::mt19937_64 rng_;
};

/// The service's worker threads and their CPU clocks, learned from the
/// warm-up callbacks (which run on every worker).
struct Workers {
  std::vector<pthread_t> threads;
  std::vector<clockid_t> clocks;

  /// Index of the calling worker thread (threads.size() when the
  /// caller is not a worker).
  std::size_t self() const {
    const pthread_t me = pthread_self();
    std::size_t w = 0;
    while (w < threads.size() && !pthread_equal(threads[w], me)) ++w;
    return w;
  }
  double cpu_s(std::size_t w) const { return clock_s(clocks[w]); }
};

/// CPUs the main thread and the workers are pinned to: the first
/// workers + 1 CPUs this process may use, main thread first; empty
/// (nothing is pinned) when there are fewer.  Unpinned, the workers
/// wandered between vCPUs and served 2-15 % fewer ops per CPU second.
std::vector<int> pin_plan(int workers) {
  const std::size_t want = static_cast<std::size_t>(workers) + 1;
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof set, &set) != 0) return cpus;
  for (int c = 0; c < CPU_SETSIZE && cpus.size() < want; ++c)
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  if (cpus.size() < want) cpus.clear();
  return cpus;
}

void pin_self(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  pthread_setaffinity_np(pthread_self(), sizeof set, &set);
}

/// Every worker's CPU clock at a request's submit.
using CpuStamp = std::array<double, kMaxWorkers>;

/// One timed pass of the closed loop, and everything its completion
/// callbacks record.
///
/// The loop is driven from the completion callbacks: each one, on the
/// worker that answered, submits the next pool request until the
/// deadline, so kWindow requests stay outstanding and no client thread
/// sits on the timed path.  A client thread woken on every answer idles
/// and wakes its vCPU some 15k times a second; the workers' queue runs
/// dry while it wakes, the hypervisor deschedules a worker vCPU that
/// goes idle, and the workers sat idle or stolen 30-50 % of the time.
///
/// Throughput runs on the process's CPU clock (see common.h), slice by
/// slice, so work on every thread counts, that of any thread the
/// library hands work to included.  A slice's rate is its ops per
/// process-CPU second times the worker count: on an idle host whose
/// workers never wait, about the wall-clock rate.  A request's latency
/// is the CPU time its serving worker spent between the submit and the
/// completion callback: under the closed loop that worker is busy the
/// whole while, finishing the requests ahead of this one and then this
/// one, so the figure is the wall latency less the time the hypervisor
/// stole.  The wall-clock figures are reported beside them.
struct Pass {
  Pass(MultiplyService& svc, const std::vector<Request>& requests,
       const Workers& w, std::uint64_t seed, double seconds, bool traced)
      : service(svc),
        pool(requests),
        workers(w),
        traced(traced),
        all(kLatencyCap, seed),
        small(kLatencyCap / 4, seed + 1),
        large(kLatencyCap / 4, seed + 2),
        wall(kLatencyCap, seed + 3),
        slice_ops(static_cast<std::size_t>(seconds / kSliceS) + 2, 0),
        slice_mark(slice_ops.size() + 1, 0.0),
        first(kPool),
        hash(kPool, 0),
        seen(kPool, 0),
        answers(kPool, 0),
        mismatches(kPool, 0) {}

  MultiplyService& service;
  const std::vector<Request>& pool;
  const Workers& workers;
  const bool traced;
  std::mutex mu;
  std::condition_variable cv;
  int outstanding = 0;
  std::uint64_t next_seq = 0;  // the next request to submit, cycling the pool
  Clock::time_point start;
  Clock::time_point deadline;
  Clock::time_point last_done;
  std::uint64_t requests = 0;
  Samples all;    // CPU latency [s], every request
  Samples small;  // requests of <= 8 ops
  Samples large;  // requests of >= 128 ops
  Samples wall;   // wall latency [s], every request
  std::vector<std::uint64_t> slice_ops;  // by completion wall time
  std::vector<double> slice_mark;  // process CPU as each slice began
  std::size_t slice = 0;           // the slice under way
  double end_cpu = 0.0;            // process CPU at the end of the pass
  struct RequestSpan {
    std::size_t slot;
    Clock::time_point start;
    Clock::time_point end;
  };
  std::vector<RequestSpan> spans;
  // Per pool slot: the first answer, its hash, answers, mismatches.
  std::vector<BatchResult> first;
  std::vector<std::uint64_t> hash;
  std::vector<std::uint8_t> seen;
  std::vector<std::uint64_t> answers;
  std::vector<std::uint64_t> mismatches;

  /// Runs the loop for @p seconds from pool slot 0 and waits for the
  /// last answer.
  void run(double seconds) {
    std::unique_lock<std::mutex> lock(mu);
    slice_mark[0] = process_cpu_s();
    start = Clock::now();
    last_done = start;
    deadline = start + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(seconds));
    outstanding = kWindow;
    next_seq = kWindow;
    lock.unlock();
    for (std::uint64_t seq = 0; seq < kWindow; ++seq) submit(seq);
    lock.lock();
    cv.wait(lock, [&] { return outstanding == 0; });
    end_cpu = process_cpu_s();
  }

  /// Submits request @p seq, stamped with the wall time and every
  /// worker's CPU clock.
  void submit(std::uint64_t seq) {
    const std::size_t slot = seq % kPool;
    const std::size_t n = pool[slot].ops.size();
    CpuStamp cpu0{};
    for (std::size_t w = 0; w < workers.threads.size(); ++w)
      cpu0[w] = workers.cpu_s(w);
    const Clock::time_point submitted = Clock::now();
    service.submit(pool[slot],
                   [this, slot, n, submitted, cpu0](const BatchResult& r) {
                     complete(slot, n, r, submitted, cpu0);
                   });
  }

  /// Records one answer, on the worker thread that produced it, then
  /// submits the next request unless the deadline has passed.
  void complete(std::size_t slot, std::size_t n, const BatchResult& r,
                Clock::time_point submitted, const CpuStamp& cpu0) {
    const Clock::time_point done = Clock::now();
    const double cpu = thread_cpu_s();
    const std::uint64_t h = r.ok() ? result_hash(r) : 0;
    std::unique_lock<std::mutex> lock(mu);
    ++requests;
    ++answers[slot];
    // The service runs callbacks on its workers, except for requests it
    // refuses after shutdown, which this loop never submits.  Should one
    // arrive, it counts as a failed answer and ends its chain.
    const std::size_t w = workers.self();
    if (w == workers.threads.size()) {
      ++mismatches[slot];
      if (--outstanding == 0) cv.notify_one();
      return;
    }
    const float lat = static_cast<float>(cpu - cpu0[w]);
    all.add(lat);
    if (n <= 8) small.add(lat);
    if (n >= 128) large.add(lat);
    wall.add(static_cast<float>(seconds_between(submitted, done)));
    const std::size_t s = static_cast<std::size_t>(
        seconds_between(start, done) / kSliceS);
    if (s < slice_ops.size()) {
      if (s > slice) {
        const double mark = process_cpu_s();
        while (slice < s) slice_mark[++slice] = mark;
      }
      slice_ops[s] += n;
    }
    if (!r.ok()) {
      ++mismatches[slot];
    } else if (!seen[slot]) {
      seen[slot] = 1;
      hash[slot] = h;
      first[slot] = r;
    } else if (hash[slot] != h) {
      ++mismatches[slot];
    }
    if (traced && spans.size() < kRequestSpans)
      spans.push_back({slot, submitted, done});
    last_done = std::max(last_done, done);
    if (done < deadline) {
      const std::uint64_t seq = next_seq++;
      lock.unlock();
      submit(seq);
    } else if (--outstanding == 0) {
      cv.notify_one();
    }
  }

  double elapsed_s() const { return seconds_between(start, last_done); }
  /// Slices with both ends marked.
  std::size_t full_slices() const { return slice; }
  /// Process CPU of the whole pass.
  double cpu_s() const { return end_cpu - slice_mark[0]; }

  /// Median over the full slices of ops per process-CPU second, times
  /// the worker count.
  double throughput() const {
    std::vector<double> rates;
    for (std::size_t s = 0; s < full_slices(); ++s) {
      const double cpu = slice_mark[s + 1] - slice_mark[s];
      if (cpu > 0.0)
        rates.push_back(static_cast<double>(slice_ops[s]) *
                        static_cast<double>(workers.threads.size()) / cpu);
    }
    return median(std::move(rates));
  }
  /// The same median with wall-clock slices.
  double wall_throughput() const {
    std::vector<double> rates;
    for (std::size_t s = 0; s < full_slices(); ++s)
      rates.push_back(static_cast<double>(slice_ops[s]) / kSliceS);
    return median(std::move(rates));
  }
};

/// First request per (worker, unit): each worker parks in the callback
/// until every worker holds a request of the same unit, so no worker
/// can take two of them.  Pins worker k to cpus[k + 1] when @p cpus is
/// not empty.  Returns the worker threads.
Workers warm_up(MultiplyService& service, int workers,
                const std::vector<int>& cpus) {
  std::mutex mu;
  Workers seen;
  std::vector<std::future<BatchResult>> done;
  std::vector<std::unique_ptr<std::latch>> latches;
  for (std::size_t spec = 0; spec < mfm::roster::catalog().size(); ++spec) {
    latches.push_back(std::make_unique<std::latch>(workers));
    std::latch* l = latches.back().get();
    for (int w = 0; w < workers; ++w) {
      Request req;
      req.spec = spec;
      req.ops.resize(1);
      done.push_back(service.submit(
          std::move(req), [l, &mu, &seen, &cpus](const BatchResult&) {
            {
              std::lock_guard<std::mutex> lock(mu);
              const pthread_t me = pthread_self();
              if (seen.self() == seen.threads.size()) {
                clockid_t clock{};
                pthread_getcpuclockid(me, &clock);
                if (!cpus.empty()) pin_self(cpus[seen.threads.size() + 1]);
                seen.threads.push_back(me);
                seen.clocks.push_back(clock);
              }
            }
            l->arrive_and_wait();
          }));
    }
  }
  for (std::future<BatchResult>& f : done) f.wait();
  if (seen.threads.size() != static_cast<std::size_t>(workers))
    throw std::logic_error("warm-up did not reach every worker");
  return seen;
}

struct State {
  std::unique_ptr<mfm::roster::UnitCache> cache;
  std::unique_ptr<MultiplyService> service;
  Workers workers;
};

std::unique_ptr<State> set_up(int workers, const std::vector<int>& cpus) {
  auto st = std::make_unique<State>();
  st->cache = std::make_unique<mfm::roster::UnitCache>();
  const auto& specs = mfm::roster::catalog();
  for (std::size_t i = 0; i < specs.size(); ++i) {
    {
      Span s("roster.build", specs[i].name);
      st->cache->unit(i, BuildMode::kCombinational);
    }
    {
      Span s("roster.compile", specs[i].name);
      st->cache->compiled(i, BuildMode::kCombinational);
    }
  }
  mfm::serve::ServiceOptions opt;
  opt.threads = workers;
  opt.mode = BuildMode::kCombinational;
  {
    Span s("serve.start");
    st->service = std::make_unique<MultiplyService>(*st->cache, opt);
  }
  Span s("serve.warm");
  st->workers = warm_up(*st->service, workers, cpus);
  return st;
}

/// Checks a pass's answers; returns requests that failed.
std::uint64_t check_pass(Pass& p, MultiplyService& service,
                         const std::vector<Request>& pool, Result& r) {
  // Slots the timed phase never reached are served now, untimed, so the
  // checksum always covers the whole pool.
  for (std::size_t slot = 0; slot < kPool; ++slot) {
    if (p.seen[slot]) continue;
    const BatchResult res = service.submit(pool[slot]).get();
    ++p.answers[slot];
    ++p.requests;
    if (!res.ok()) {
      ++p.mismatches[slot];
      continue;
    }
    p.seen[slot] = 1;
    p.hash[slot] = result_hash(res);
    p.first[slot] = res;
  }
  std::uint64_t failed = 0;
  for (std::size_t slot = 0; slot < kPool; ++slot) {
    const std::string why =
        p.seen[slot] ? mfm::serve::check_result(pool[slot].spec,
                                                pool[slot].variant,
                                                pool[slot].ops, p.first[slot])
                     : std::string("never answered without an error");
    if (!why.empty()) {
      failed += p.answers[slot];
      if (r.failures.size() < 8)
        r.failures.push_back("slot " + std::to_string(slot) + ": " + why);
    } else {
      failed += p.mismatches[slot];
    }
  }
  return failed;
}

std::uint64_t pool_checksum(const Pass& p) {
  std::uint64_t h = 0;
  for (std::size_t slot = 0; slot < kPool; ++slot)
    h = hash_combine(h, p.hash[slot]);
  return h;
}

}  // namespace

Result run_serve_mixed(const Config& cfg) {
  Result r;
  const std::vector<Request> pool = make_pool(cfg.seed);
  std::uint64_t pool_ops = 0;
  for (const Request& req : pool) pool_ops += req.ops.size();

  if (cfg.workers > static_cast<int>(kMaxWorkers))
    throw std::invalid_argument("serve_mixed supports at most 8 workers");
  const std::vector<int> cpus = pin_plan(cfg.workers);
  std::unique_ptr<State> st;
  const double setup_s = timed_setups(
      r, [&] { st.reset(); },
      [&] { st = set_up(cfg.workers, cpus); });
  MultiplyService& service = *st->service;
  // Pinned after the set-ups, whose new worker threads would inherit it.
  if (!cpus.empty()) pin_self(cpus[0]);

  const auto stats_delta = [](const ServiceStats& a, const ServiceStats& b) {
    ServiceStats d = b;
    d.work -= a.work;
    d.requests -= a.requests;
    d.failed -= a.failed;
    d.batches -= a.batches;
    d.rejected -= a.rejected;
    for (auto& [name, n] : d.unit_batches)
      for (const auto& [aname, an] : a.unit_batches)
        if (aname == name) n -= an;
    return d;
  };

  const std::uint64_t seed = derive_seed(cfg.seed, "serve/reservoir");
  auto untraced = std::make_unique<Pass>(service, pool, st->workers, seed,
                                         cfg.seconds, false);
  std::unique_ptr<Pass> traced;
  ServiceStats delta;
  if (!cfg.trace) {
    untraced->run(cfg.seconds);
  } else {
    Tracer::get().enable(false);
    untraced->run(cfg.seconds / 2);
    Tracer::get().enable(true);
    traced = std::make_unique<Pass>(service, pool, st->workers, seed,
                                    cfg.seconds / 2, true);
    const ServiceStats before = service.stats();
    {
      Span s("workload.timed", "serve_mixed");
      traced->run(cfg.seconds / 2);
      for (const Pass::RequestSpan& rs : traced->spans)
        Tracer::get().async("serve.request",
                            "slot " + std::to_string(rs.slot), rs.start,
                            rs.end);
    }
    delta = stats_delta(before, service.stats());
  }

  // Checks, after the timed phase.
  {
    Span s("check.serve");
    for (Pass* p : {untraced.get(), traced.get()}) {
      if (!p) continue;
      const std::uint64_t failed = check_pass(*p, service, pool, r);
      r.attempted += p->requests;
      r.failed += failed;
    }
  }
  r.digest.emplace_back("pool_requests", std::to_string(kPool));
  r.digest.emplace_back("pool_ops", std::to_string(pool_ops));
  r.digest.emplace_back("checksum",
                        json_str(hex64(pool_checksum(*untraced))));
  if (traced && pool_checksum(*traced) != pool_checksum(*untraced))
    r.fail("traced pass answered the pool differently");

  const Pass& main = cfg.trace ? *traced : *untraced;
  r.info.emplace_back("requests", std::to_string(main.requests));
  r.info.emplace_back("latency_samples", std::to_string(main.all.count()));
  r.info.emplace_back("slices", std::to_string(main.full_slices()));
  r.info.emplace_back("timed_wall_s", json_num(main.elapsed_s()));
  r.info.emplace_back("window", std::to_string(kWindow));
  r.info.emplace_back("pinned_cpus",
                      json_list(std::vector<double>(cpus.begin(), cpus.end())));
  r.info.emplace_back("wall_throughput_per_s",
                      json_num(main.wall_throughput()));
  r.info.emplace_back("wall_latency_p50_ms",
                      json_num(1e3 * main.wall.quantile(0.5)));
  r.info.emplace_back("wall_latency_p90_ms",
                      json_num(1e3 * main.wall.quantile(0.9)));

  if (!cfg.trace) {
    r.e2e("setup_s", setup_s, "s");
    r.e2e("throughput_per_s", main.throughput(), "1/s");
    r.e2e("latency_p50_ms", 1e3 * main.all.quantile(0.5), "ms");
    r.e2e("latency_p90_ms", 1e3 * main.all.quantile(0.9), "ms");
    r.e2e("peak_rss_mb", peak_rss_mb(), "MB");
    return r;
  }

  Tracer& t = Tracer::get();
  const std::size_t specs = mfm::roster::catalog().size();
  r.layer("roster.build_s",
          median_chunk_sums(t.durations("roster.build"), specs), "s");
  r.layer("roster.compile_s",
          median_chunk_sums(t.durations("roster.compile"), specs), "s");
  // The warm-up runs on the workers while this thread waits: wall time.
  r.layer("serve.warm_s", median(t.durations("serve.warm", {}, true)), "s");
  r.layer("serve.small_request_ms", 1e3 * main.small.quantile(0.5), "ms");
  r.layer("serve.large_request_ms", 1e3 * main.large.quantile(0.5), "ms");
  r.layer("serve.lane_fill",
          delta.batches ? static_cast<double>(delta.work) /
                              (64.0 * static_cast<double>(delta.batches))
                        : 0.0,
          "ratio");
  r.layer("serve.batches", static_cast<double>(delta.batches), "count");
  r.layer("serve.failed", static_cast<double>(delta.failed), "count");
  r.layer("serve.rejected", static_cast<double>(delta.rejected), "count");

  // PackSim on the same compilations, timed standalone; the eval share
  // is the part of the workers' busy CPU time that these evals explain.
  double eval_s = 0.0;
  for (std::size_t i = 0; i < specs; ++i) {
    const std::string& name = mfm::roster::catalog()[i].name;
    const double us = packsim_eval_us(
        st->cache->compiled(i, BuildMode::kCombinational), name,
        derive_seed(cfg.seed, "packsim"));
    if (name == "mult8" || name == "radix16-64" || name == "mf" ||
        name == "mf-reduce")
      r.layer("sim_pack.eval_us." + name, us, "us");
    for (const auto& [uname, n] : delta.unit_batches)
      if (uname == name) eval_s += 1e-6 * us * static_cast<double>(n);
  }
  r.layer("serve.eval_share", eval_s / main.cpu_s(), "ratio");
  r.layer("wall.throughput_per_s", untraced->wall_throughput(), "1/s");
  r.layer("wall.latency_p50_ms", 1e3 * untraced->wall.quantile(0.5), "ms");
  r.layer("wall.latency_p90_ms", 1e3 * untraced->wall.quantile(0.9), "ms");
  r.layer("trace.overhead_pct",
          100.0 * (untraced->throughput() / traced->throughput() - 1.0), "%");
  return r;
}

}  // namespace perfbench
