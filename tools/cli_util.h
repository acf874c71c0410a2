// Shared CLI layer for the mfm_* tools: one flag table and one epilogue.
//
// Each tool declares every flag it accepts once, as a row of a table:
// the flag's name, its target variable and, for a number, the range it
// accepts.  parse() walks argv against the rows and generates the
// "bad --X value" diagnostic and the usage line from them, so no tool
// hand-writes an argv loop.  Numbers parse strictly: a value that does
// not consume the whole string is a usage error, never a silent 0 --
// atoi on a typo would turn --fail-under=abc into an always-passing 0%
// gate, or --fanout-threshold=1O0 (letter O) into a fire-on-everything 0.
// Callers exit 2 when parse() returns false.
//
// finish() is the shared end of a run: it closes the report sink with
// the tool's summary fields, names the jobs that errored, prints the
// tool's gate failures and picks the exit status.
#pragma once

#include <algorithm>
#include <cerrno>
#include <concepts>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <iterator>
#include <limits>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/parallel.h"
#include "netlist/report.h"
#include "roster/roster.h"

namespace mfm::cli {

inline bool parse_long(const char* s, long& out) {
  char* end = nullptr;
  errno = 0;
  out = std::strtol(s, &end, 0);
  return end != s && *end == '\0' && errno != ERANGE;
}

/// Rejects a minus sign, which strtoull would accept and wrap: "-1"
/// would read as 2^64-1.
inline bool parse_u64(const char* s, std::uint64_t& out) {
  if (std::strchr(s, '-')) return false;
  char* end = nullptr;
  errno = 0;
  out = std::strtoull(s, &end, 0);
  return end != s && *end == '\0' && errno != ERANGE;
}

inline bool parse_double(const char* s, double& out) {
  char* end = nullptr;
  errno = 0;
  out = std::strtod(s, &end);
  return end != s && *end == '\0' && errno != ERANGE;
}

/// One row of a flag table, built by one of the flag() overloads.  A
/// row with an empty metavar is a bare switch ("--json"); every other
/// row takes "--name=VALUE".
struct Flag {
  std::string name;     ///< "--vectors"
  std::string metavar;  ///< "N" in the usage line's "[--vectors=N]"
  std::string need;     ///< a good value, for "(need ...)"; "" = any text
  /// Stores a value into the row's target; false leaves it untouched.
  std::function<bool(const char* value)> set;
};

/// A bare switch: "--transient" sets @p target; "--transient=1" is not
/// an argument this row accepts.
inline Flag flag(std::string name, bool& target) {
  return {std::move(name), "", "", [&target](const char*) {
            target = true;
            return true;
          }};
}

/// Free text: "--only=LIST" stores any value, the empty one included.
inline Flag flag(std::string name, std::string metavar, std::string& target) {
  return {std::move(name), std::move(metavar), "", [&target](const char* v) {
            target = v;
            return true;
          }};
}

/// An integer in [@p lo, @p hi] (base prefixes as for strtol).
template <std::integral Int>
Flag flag(std::string name, std::string metavar, Int& target, long lo,
          long hi) {
  std::string need = "an integer ";
  need += hi == std::numeric_limits<long>::max()
              ? ">= " + std::to_string(lo)
              : "in [" + std::to_string(lo) + ", " + std::to_string(hi) + "]";
  return {std::move(name), std::move(metavar), std::move(need),
          [&target, lo, hi](const char* v) {
            long x = 0;
            if (!parse_long(v, x) || x < lo || x > hi) return false;
            target = static_cast<Int>(x);
            return true;
          }};
}

/// Any unsigned 64-bit integer (the seeds).
inline Flag flag(std::string name, std::string metavar,
                 std::uint64_t& target) {
  return {std::move(name), std::move(metavar), "an unsigned 64-bit integer",
          [&target](const char* v) {
            std::uint64_t x = 0;
            if (!parse_u64(v, x)) return false;
            target = x;
            return true;
          }};
}

/// A number in [@p lo, @p hi]; NaN is outside every range.
inline Flag flag(std::string name, std::string metavar, double& target,
                 double lo, double hi) {
  char need[64];
  if (hi == std::numeric_limits<double>::infinity())
    std::snprintf(need, sizeof need, "a number >= %g", lo);
  else
    std::snprintf(need, sizeof need, "a number in [%g, %g]", lo, hi);
  return {std::move(name), std::move(metavar), need,
          [&target, lo, hi](const char* v) {
            double x = 0.0;
            if (!parse_double(v, x) || !(x >= lo && x <= hi)) return false;
            target = x;
            return true;
          }};
}

/// A keyword row: "--fail-on=error|warning" stores the value paired with
/// the keyword given; any other value is rejected.
template <typename T>
Flag flag(std::string name, T& target,
          std::vector<std::pair<std::string, T>> keywords) {
  std::string metavar;
  for (const auto& [word, value] : keywords)
    metavar += (metavar.empty() ? "" : "|") + word;
  std::string need = "one of " + metavar;
  return {std::move(name), std::move(metavar), std::move(need),
          [&target, keywords = std::move(keywords)](const char* v) {
            for (const auto& [word, value] : keywords)
              if (word == v) {
                target = value;
                return true;
              }
            return false;
          }};
}

inline constexpr int kMaxThreads = 1024;

/// Options every tool accepts.  A tool with randomness adds its own
/// --seed row, next to that tool's default seed.
struct CommonOptions {
  bool json = false;
  std::string only;  ///< comma-separated name substrings (roster filter)
  std::string out;
  int threads = 1;
};

/// The common rows followed by a tool's own @p rows: the tool's table.
inline std::vector<Flag> table(CommonOptions& o, std::vector<Flag> rows) {
  // "--threads=auto" = one worker per hardware thread, so saturating a
  // host never requires knowing its core count (also mfm_serve's
  // default); the clamp keeps it inside the range the number promises.
  Flag threads = flag("--threads", "N|auto", o.threads, 1, kMaxThreads);
  threads.need += ", or 'auto' for all hardware threads";
  threads.set = [&o, number = std::move(threads.set)](const char* v) {
    if (std::string_view(v) != "auto") return number(v);
    o.threads = std::min(common::hardware_threads(), kMaxThreads);
    return true;
  };
  std::vector<Flag> t{flag("--json", o.json), flag("--only", "LIST", o.only),
                      flag("--out", "FILE", o.out), std::move(threads)};
  std::move(rows.begin(), rows.end(), std::back_inserter(t));
  return t;
}

/// "usage: <tool> [--json] [--only=LIST] ..." with every row, in order.
inline std::string usage(std::string_view tool, const std::vector<Flag>& t) {
  std::string u = "usage: " + std::string(tool);
  for (const Flag& f : t)
    u += " [" + f.name + (f.metavar.empty() ? "" : "=" + f.metavar) + "]";
  return u;
}

/// Parses argv[1..argc) against table @p t.  An unknown argument prints
/// the usage line; a value a row rejects prints "<tool>: bad --X value
/// 'V' (need ...)".  Either returns false, and the tool exits 2.
inline bool parse(const char* tool, const std::vector<Flag>& t, int argc,
                  const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto row = std::find_if(t.begin(), t.end(), [&](const Flag& f) {
      return f.metavar.empty() ? arg == f.name : arg.starts_with(f.name + "=");
    });
    if (row == t.end()) {
      std::fprintf(stderr, "%s\n", usage(tool, t).c_str());
      return false;
    }
    const char* value =
        row->metavar.empty() ? "" : argv[i] + row->name.size() + 1;
    if (!row->set(value)) {
      std::fprintf(stderr, "%s: bad %s value '%s' (need %s)\n", tool,
                   row->name.c_str(), value, row->need.c_str());
      return false;
    }
  }
  return true;
}

/// What a tool reports after its per-unit records.
struct Summary {
  netlist::JsonWriter json;  ///< top-level members, e.g. "failures":0
  std::string text;  ///< the text-mode summary, written verbatim
  std::vector<std::string> failures;  ///< one stderr line per failed gate
};

/// The shared end of a run.  Closes @p sink with @p s, names the
/// @p errored jobs and prints each gate failure on stderr.  Returns 2
/// when the report could not be written, 1 when a job errored or a gate
/// failed, else 0.
inline int finish(const char* tool, netlist::ReportSink& sink,
                  const std::vector<std::string>& errored, const Summary& s) {
  if (!sink.finish(s.json, s.text)) return 2;
  if (!errored.empty()) {
    std::fprintf(stderr, "%s: %zu job(s) failed:", tool, errored.size());
    for (const std::string& name : errored)
      std::fprintf(stderr, " %s", name.c_str());
    std::fprintf(stderr, "\n");
  }
  for (const std::string& f : s.failures)
    std::fprintf(stderr, "%s: %s\n", tool, f.c_str());
  return errored.empty() && s.failures.empty() ? 0 : 1;
}

/// finish() for a RosterDriver run: the fields gain "errors":N.
inline int finish(const char* tool, netlist::ReportSink& sink,
                  const roster::RosterDriver& driver, Summary s) {
  const std::vector<std::string> errored = driver.failed_jobs();
  s.json.field("errors", errored.size());
  return finish(tool, sink, errored, s);
}

}  // namespace mfm::cli
