// Span recorder for the traced run.
//
// Every call the benchmark makes into a layer of the library (roster,
// serve, sim_pack, fault, sweep, rewrite, equiv, glitch, timing,
// power/sim_event) is wrapped in a Span: name, start, end, the span
// that was open on the same thread when it began (its parent), a unit
// or request id, and the process CPU time it took (every thread's, so
// work a layer hands to other threads counts).  Spans are kept in
// memory and written at exit as Chrome trace-event JSON (Perfetto /
// about:tracing open it offline), so spans recorded later inside the
// library can nest under these.
//
// Recording is off unless enable() was called; a disabled Span costs
// one relaxed atomic load.  The per-layer metrics of a traced run are
// read back from the recorded spans (durations()), so the metrics and
// the trace file cannot disagree.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common.h"

namespace perfbench {

class Tracer {
 public:
  static Tracer& get();

  void enable(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Opens a span on the calling thread; returns its index (-1 when
  /// disabled).
  int begin(const char* name, std::string id);
  void end(int index);
  /// Records a span that began and ended on different threads (a
  /// served request: submitted on one thread, answered on a worker).
  /// Its parent is the span open on the calling thread.
  void async(const char* name, std::string id, Clock::time_point start,
             Clock::time_point end);

  /// Durations [s] of every closed span named @p name (and with id
  /// @p id, when non-empty), in recording order: on the opening thread's
  /// CPU clock (see common.h) for layers that run on that thread, or
  /// wall time when @p wall is set (a layer that hands its work to other
  /// threads and waits).
  std::vector<double> durations(std::string_view name,
                                std::string_view id = {},
                                bool wall = false) const;

  /// {"traceEvents":[...]} in Chrome trace-event format.
  std::string chrome_json() const;
  /// Per span name: count, total and self wall time [s], where self
  /// time is a span's duration minus what its synchronous children
  /// cover, and total process CPU time [s].
  std::string summary_json() const;

 private:
  struct Record {
    const char* name;
    std::string id;
    std::int64_t start_ns;
    std::int64_t end_ns;  // -1 while open
    double cpu_s;         // process CPU time of a closed synchronous span
    int parent;
    int tid;
    bool async;
  };

  std::int64_t ns(Clock::time_point t) const;

  std::atomic<bool> enabled_{false};
  const Clock::time_point epoch_ = Clock::now();
  mutable std::mutex mu_;
  std::vector<Record> spans_;  // guarded by mu_
};

/// RAII span; a no-op while tracing is disabled.
class Span {
 public:
  explicit Span(const char* name, std::string id = {})
      : index_(Tracer::get().enabled()
                   ? Tracer::get().begin(name, std::move(id))
                   : -1) {}
  ~Span() {
    if (index_ >= 0) Tracer::get().end(index_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  int index_;
};

}  // namespace perfbench
