#include "trace.h"

#include <cstdio>
#include <map>

namespace perfbench {

namespace {

int thread_ordinal() {
  static std::atomic<int> next{1};
  thread_local const int tid = next.fetch_add(1);
  return tid;
}

thread_local std::vector<int> t_open;  // open span indices, innermost last

std::string us(std::int64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3f", static_cast<double>(ns) / 1e3);
  return buf;
}

}  // namespace

Tracer& Tracer::get() {
  static Tracer t;
  return t;
}

std::int64_t Tracer::ns(Clock::time_point t) const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
      .count();
}

int Tracer::begin(const char* name, std::string id) {
  const int parent = t_open.empty() ? -1 : t_open.back();
  const std::int64_t start = ns(Clock::now());
  const double cpu = process_cpu_s();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({name, std::move(id), start, -1, cpu, parent,
                    thread_ordinal(), false});
  const int index = static_cast<int>(spans_.size()) - 1;
  t_open.push_back(index);
  return index;
}

void Tracer::end(int index) {
  const double cpu = process_cpu_s();
  const std::int64_t stop = ns(Clock::now());
  if (!t_open.empty() && t_open.back() == index) t_open.pop_back();
  std::lock_guard<std::mutex> lock(mu_);
  Record& r = spans_[static_cast<std::size_t>(index)];
  r.end_ns = stop;
  r.cpu_s = cpu - r.cpu_s;  // begin() stored the start reading
}

void Tracer::async(const char* name, std::string id, Clock::time_point start,
                   Clock::time_point end) {
  if (!enabled()) return;
  const int parent = t_open.empty() ? -1 : t_open.back();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({name, std::move(id), ns(start), ns(end), 0.0, parent,
                    thread_ordinal(), true});
}

std::vector<double> Tracer::durations(std::string_view name,
                                      std::string_view id, bool wall) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const Record& r : spans_)
    if (r.end_ns >= 0 && name == r.name && (id.empty() || id == r.id))
      out.push_back(wall || r.async
                        ? static_cast<double>(r.end_ns - r.start_ns) / 1e9
                        : r.cpu_s);
  return out;
}

std::string Tracer::chrome_json() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  const auto args = [](const Record& r, std::size_t i) {
    return ",\"args\":{\"span\":" + std::to_string(i) +
           ",\"parent\":" + std::to_string(r.parent) +
           ",\"id\":" + json_str(r.id) +
           ",\"cpu_s\":" + json_num(r.cpu_s) + "}}";
  };
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Record& r = spans_[i];
    if (r.end_ns < 0) continue;
    const std::string head =
        std::string(first ? "" : ",") + "{\"name\":" + json_str(r.name) +
        ",\"cat\":\"perfbench\",\"pid\":1,\"tid\":" + std::to_string(r.tid);
    first = false;
    if (!r.async) {
      out += head + ",\"ph\":\"X\",\"ts\":" + us(r.start_ns) +
             ",\"dur\":" + us(r.end_ns - r.start_ns) + args(r, i);
    } else {
      const std::string aid = ",\"id\":" + std::to_string(i);
      out += head + ",\"ph\":\"b\",\"ts\":" + us(r.start_ns) + aid +
             args(r, i);
      out += ",{\"name\":" + json_str(r.name) +
             ",\"cat\":\"perfbench\",\"pid\":1,\"tid\":" +
             std::to_string(r.tid) + ",\"ph\":\"e\",\"ts\":" +
             us(r.end_ns) + aid + "}";
    }
  }
  return out + "]}\n";
}

std::string Tracer::summary_json() const {
  std::lock_guard<std::mutex> lock(mu_);
  // Synchronous children never overlap each other on one thread, so the
  // part of a parent they cover is the sum of their durations.  Async
  // spans overlap freely and are left out of their parent's coverage.
  std::vector<std::int64_t> covered(spans_.size(), 0);
  for (const Record& r : spans_)
    if (!r.async && r.parent >= 0 && r.end_ns >= 0)
      covered[static_cast<std::size_t>(r.parent)] += r.end_ns - r.start_ns;
  struct Agg {
    std::uint64_t count = 0;
    std::int64_t total = 0;
    std::int64_t self = 0;
    double cpu = 0.0;
  };
  std::map<std::string, Agg> by_name;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Record& r = spans_[i];
    if (r.end_ns < 0) continue;
    Agg& a = by_name[r.name];
    ++a.count;
    a.total += r.end_ns - r.start_ns;
    a.self += r.end_ns - r.start_ns - covered[i];
    a.cpu += r.cpu_s;
  }
  std::string out = "{";
  for (const auto& [name, a] : by_name) {
    if (out.size() > 1) out += ",";
    out += json_str(name) + ":{\"count\":" + std::to_string(a.count) +
           ",\"total_s\":" + json_num(static_cast<double>(a.total) / 1e9) +
           ",\"self_s\":" + json_num(static_cast<double>(a.self) / 1e9) +
           ",\"cpu_s\":" + json_num(a.cpu) + "}";
  }
  return out + "}";
}

}  // namespace perfbench
