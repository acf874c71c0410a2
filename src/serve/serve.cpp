#include "serve/serve.h"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "netlist/report.h"
#include "netlist/sim_pack.h"

namespace mfm::serve {

namespace {

using netlist::Bus;
using netlist::Circuit;
using netlist::PackSim;

/// In-place 64x64 bit-matrix transpose (Hacker's Delight 7-3): bit c of
/// a[r] swaps with bit r of a[c].  This is the whole packing step --
/// operand row l (op l's word) becomes lane column l of every bit's
/// 64-lane word, and the inverse on the output side -- at ~6 passes
/// over the matrix instead of a 64x64 per-bit loop.
void transpose64(std::uint64_t a[64]) {
  std::uint64_t m = 0x00000000FFFFFFFFull;
  for (int j = 32; j != 0; j >>= 1, m ^= m << j) {
    for (int k = 0; k < 64; k = (k + j + 1) & ~j) {
      const std::uint64_t t = ((a[k] >> j) ^ a[k | j]) & m;
      a[k] ^= t << j;
      a[k | j] ^= t;
    }
  }
}

}  // namespace

const std::vector<u128>& BatchResult::port(std::string_view name) const {
  for (const PortBatch& p : ports)
    if (p.port == name) return p.values;
  throw std::out_of_range("BatchResult::port: no output port '" +
                          std::string(name) + "'");
}

OperandPorts resolve_operand_ports(const Circuit& c) {
  const auto& in = c.in_ports();
  const std::string ctrl = in.contains("frmt") ? "frmt" : "";
  if (in.contains("a"))
    return OperandPorts{"a", in.contains("b") ? "b" : "", ctrl};
  if (in.contains("x"))
    return OperandPorts{"x", in.contains("y") ? "y" : "", ctrl};
  if (in.contains("in64")) return OperandPorts{"in64", "", ctrl};
  throw std::invalid_argument(
      "resolve_operand_ports: no recognized operand port (a/x/in64)");
}

std::string ServiceStats::json(bool with_rates) const {
  netlist::JsonWriter j;
  j.object()
      .field("label", work_label)
      .field("work", work)
      .field("requests", requests)
      .field("failed", failed)
      .field("batches", batches)
      .field("rejected", rejected)
      .key("units").object();
  for (const auto& [name, count] : unit_batches) j.field(name, count);
  j.end();
  if (with_rates)
    j.field("threads", threads)
        .field("queue_high_water", queue_high_water)
        .field("elapsed_s", elapsed_s, 3)
        .field("per_s", per_second(), 0);
  j.end();
  return j.str();
}

std::string ServiceStats::text() const {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "%llu %s in %llu batches over %llu request(s), %d thread(s)\n"
                "%.3f s elapsed, %.0f %s/s sustained\n"
                "queue high-water %zu, %llu rejected, %llu failed\n",
                static_cast<unsigned long long>(work), work_label.c_str(),
                static_cast<unsigned long long>(batches),
                static_cast<unsigned long long>(requests), threads, elapsed_s,
                per_second(), work_label.c_str(), queue_high_water,
                static_cast<unsigned long long>(rejected),
                static_cast<unsigned long long>(failed));
  std::string s = buf;
  for (const auto& [name, count] : unit_batches) {
    std::snprintf(buf, sizeof buf, "  %-18s %llu batches\n", name.c_str(),
                  static_cast<unsigned long long>(count));
    s += buf;
  }
  return s;
}

/// Per-worker serving state for one (spec, mode): the persistent PackSim
/// over the shared compilation plus the resolved port buses.  Built on
/// the first request a worker sees for the spec, reused for its
/// lifetime -- the per-batch cost is packing + eval only.
struct MultiplyService::UnitSim {
  const roster::BuiltUnit* unit = nullptr;
  std::unique_ptr<PackSim> sim;
  const Bus* a = nullptr;
  const Bus* b = nullptr;
  const Bus* ctrl = nullptr;
  std::vector<std::pair<std::string, const Bus*>> outs;  // name-sorted
};

MultiplyService::MultiplyService(roster::UnitCache& cache,
                                 ServiceOptions options)
    : cache_(cache),
      opt_(std::move(options)),
      threads_(opt_.threads > 0 ? opt_.threads : common::hardware_threads()),
      queue_(opt_.queue_capacity),
      unit_batches_(new std::atomic<std::uint64_t>[roster::catalog().size()]) {
  for (std::size_t i = 0; i < roster::catalog().size(); ++i)
    unit_batches_[i].store(0, std::memory_order_relaxed);
  start_ = std::chrono::steady_clock::now();
  workers_.reserve(static_cast<std::size_t>(threads_));
  for (int t = 0; t < threads_; ++t)
    workers_.emplace_back([this] { worker_loop(); });
}

MultiplyService::~MultiplyService() { shutdown(); }

void MultiplyService::shutdown() {
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  if (stopped_) return;
  queue_.close();
  for (std::thread& t : workers_)
    if (t.joinable()) t.join();
  stop_ = std::chrono::steady_clock::now();
  stopped_ = true;
}

std::future<BatchResult> MultiplyService::submit(Request req) {
  return submit(std::move(req), nullptr);
}

std::future<BatchResult> MultiplyService::submit(
    Request req, std::function<void(const BatchResult&)> cb) {
  Job job;
  job.req = std::move(req);
  job.callback = std::move(cb);
  std::future<BatchResult> fut = job.promise.get_future();
  // push() moves the job only on success; on refusal the caller is
  // still answered here (fail-soft, never a broken future).
  if (!queue_.push(job)) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    BatchResult r;
    r.error = "service is shut down";
    if (job.callback) {
      try {
        job.callback(r);
      } catch (...) {  // NOLINT(bugprone-empty-catch)
      }
    }
    job.promise.set_value(std::move(r));
  }
  return fut;
}

bool MultiplyService::try_submit(Request req, std::future<BatchResult>& out) {
  Job job;
  job.req = std::move(req);
  std::future<BatchResult> fut = job.promise.get_future();
  if (!queue_.try_push(job)) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  out = std::move(fut);
  return true;
}

void MultiplyService::worker_loop() {
  std::map<std::size_t, UnitSim> sims;
  Job job;
  while (queue_.pop(job)) {
    BatchResult r = process(job.req, sims);
    if (job.callback) {
      try {
        job.callback(r);
      } catch (...) {  // NOLINT(bugprone-empty-catch)
      }
    }
    job.promise.set_value(std::move(r));
    job = Job{};  // drop the consumed promise/callback before the next pop
  }
}

BatchResult MultiplyService::process(const Request& req,
                                     std::map<std::size_t, UnitSim>& sims) {
  BatchResult out;
  try {
    if (req.spec >= roster::catalog().size())
      throw std::out_of_range("unknown spec index " +
                              std::to_string(req.spec));

    UnitSim& us = sims[req.spec];
    if (!us.sim) {
      us.unit = &cache_.unit(req.spec, opt_.mode);
      us.sim = std::make_unique<PackSim>(cache_.compiled(req.spec, opt_.mode));
      const Circuit& c = *us.unit->circuit;
      const OperandPorts io = resolve_operand_ports(c);
      us.a = &c.in_port(io.a);
      us.b = io.b.empty() ? nullptr : &c.in_port(io.b);
      us.ctrl = io.ctrl.empty() ? nullptr : &c.in_port(io.ctrl);
      std::vector<std::string> names;
      for (const auto& [name, bus] : c.out_ports()) names.push_back(name);
      std::sort(names.begin(), names.end());
      for (const std::string& name : names)
        us.outs.emplace_back(name, &c.out_port(name));
    }
    // Throws std::out_of_range on an unknown variant name.
    const roster::PinVariant& variant =
        roster::find_variant(*us.unit, req.variant);

    const std::size_t n = req.ops.size();
    out.ports.reserve(us.outs.size());
    for (const auto& [name, bus] : us.outs)
      out.ports.push_back(PortBatch{name, std::vector<u128>(n, 0)});

    PackSim& sim = *us.sim;
    std::uint64_t nbatches = 0;
    for (std::size_t base = 0; base < n; base += PackSim::kLanes) {
      const std::size_t lanes =
          std::min<std::size_t>(PackSim::kLanes, n - base);
      // Transpose the ops into lane words: bit k of every lane's
      // operand becomes one 64-bit word on input net k.  Padding lanes
      // carry zeros and are masked off below.
      auto pack = [&](const Bus& bus, std::uint64_t Op::* field) {
        std::uint64_t rows[64] = {};
        for (std::size_t l = 0; l < lanes; ++l)
          rows[l] = req.ops[base + l].*field;
        transpose64(rows);
        for (std::size_t k = 0; k < bus.size() && k < 64; ++k)
          sim.set(bus[k], rows[k]);
        for (std::size_t k = 64; k < bus.size(); ++k) sim.set(bus[k], 0);
      };
      pack(*us.a, &Op::a);
      if (us.b) pack(*us.b, &Op::b);
      if (us.ctrl) pack(*us.ctrl, &Op::ctrl);
      // Variant pins are applied after the operands so they win over
      // whatever the ops drove onto the pinned input nets (frmt, the
      // fp32x1 idle-upper operand bits) -- the roster tools' semantics.
      for (const netlist::TernaryPin& pin : variant.pins)
        sim.set(pin.net, pin.value ? ~0ull : 0);

      if (us.unit->latency_cycles == 0) {
        sim.eval();
      } else {
        // Pipelined build: hold the inputs and step the batch through.
        for (int cyc = 0; cyc < us.unit->latency_cycles; ++cyc) sim.step();
        sim.eval();
      }
      ++nbatches;

      // Inverse transpose per 64-bit chunk of each output bus: the
      // per-bit lane words come back as one operand word per lane.
      for (std::size_t p = 0; p < us.outs.size(); ++p) {
        const Bus& bus = *us.outs[p].second;
        std::vector<u128>& values = out.ports[p].values;
        for (std::size_t chunk = 0; chunk < bus.size(); chunk += 64) {
          const std::size_t width =
              std::min<std::size_t>(64, bus.size() - chunk);
          std::uint64_t rows[64] = {};
          for (std::size_t k = 0; k < width; ++k)
            rows[k] = sim.word(bus[chunk + k]);
          transpose64(rows);
          if (chunk == 0) {
            for (std::size_t l = 0; l < lanes; ++l)
              values[base + l] = rows[l];
          } else {
            for (std::size_t l = 0; l < lanes; ++l)
              values[base + l] |= static_cast<u128>(rows[l]) << chunk;
          }
        }
      }
    }

    work_.fetch_add(n, std::memory_order_relaxed);
    batches_.fetch_add(nbatches, std::memory_order_relaxed);
    requests_.fetch_add(1, std::memory_order_relaxed);
    unit_batches_[req.spec].fetch_add(nbatches, std::memory_order_relaxed);
  } catch (const std::exception& e) {
    out.ports.clear();
    out.error = e.what();
    failed_.fetch_add(1, std::memory_order_relaxed);
  } catch (...) {
    out.ports.clear();
    out.error = "unknown exception";
    failed_.fetch_add(1, std::memory_order_relaxed);
  }
  return out;
}

ServiceStats MultiplyService::stats() const {
  ServiceStats s;
  s.work_label = opt_.work_label;
  s.work = work_.load(std::memory_order_relaxed);
  s.requests = requests_.load(std::memory_order_relaxed);
  s.failed = failed_.load(std::memory_order_relaxed);
  s.batches = batches_.load(std::memory_order_relaxed);
  s.rejected = rejected_.load(std::memory_order_relaxed);
  s.queue_high_water = queue_.high_water();
  s.threads = threads_;
  {
    std::lock_guard<std::mutex> lock(lifecycle_mu_);
    const auto end = stopped_ ? stop_ : std::chrono::steady_clock::now();
    s.elapsed_s = std::chrono::duration<double>(end - start_).count();
  }
  const auto& specs = roster::catalog();
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const std::uint64_t count =
        unit_batches_[i].load(std::memory_order_relaxed);
    if (count > 0) s.unit_batches.emplace_back(specs[i].name, count);
  }
  return s;
}

}  // namespace mfm::serve
