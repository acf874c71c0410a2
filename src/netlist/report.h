// Area / structure reports over a Circuit, plus the one JSON writer
// every report renders through (lint, fault, sweep, rewrite, glitch,
// serve, the roster's error records and the tools' summaries): where
// commas, quotes, escapes and number precisions go is decided here
// exactly once, so the JSON that CI diffs byte for byte never depends on
// which emitter produced it.
#pragma once

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <string_view>
#include <utility>

#include "netlist/circuit.h"
#include "netlist/techlib.h"

namespace mfm::netlist {

/// Area and gate count of one module (or module subtree).
struct ModuleArea {
  double area_nand2 = 0.0;
  std::size_t gates = 0;
  std::size_t flops = 0;
};

/// The first @p depth components of a module path ("top/ppgen/row3" at
/// depth 2 -> "top/ppgen"); the label every per-module breakdown (area,
/// timing path segments, power, glitch) groups by.
std::string truncate_module(const std::string& path, int depth);

/// Aggregates cell area per module label, truncated to @p module_depth
/// path components (truncate_module).
std::map<std::string, ModuleArea> area_by_module(const Circuit& c,
                                                 const TechLib& lib,
                                                 int module_depth = 2);

/// Total cell area of the circuit [NAND2 equivalents].
double total_area_nand2(const Circuit& c, const TechLib& lib);

/// Gates excluding primary inputs and the two constant nets -- the
/// "combinational + flops" count every tool report tracks.  The one
/// shared definition (tools and tests) of what a gate-count delta
/// means.
std::size_t gate_count(const Circuit& c);

/// Formats a gate-kind histogram as a short text table.
std::string format_kind_histogram(const Circuit& c);

/// Builds one JSON text.  Objects and arrays place their own commas;
/// keys and strings are escaped (quote, backslash, \n, \t, and \uXXXX
/// for the other control bytes); a double prints at the printf
/// precision its caller names ("%.3f" for precision 3).  With no object
/// open, key() writes bare members ("a":1,"b":2): the top-level fields
/// ReportSink::finish appends after the units array.
class JsonWriter {
 public:
  /// Opens an object / array as the next value; end() closes the
  /// innermost one (std::logic_error when none is open).
  JsonWriter& object();
  JsonWriter& array();
  JsonWriter& end();

  /// The key of the next member; its value follows.
  JsonWriter& key(std::string_view k);

  JsonWriter& value(std::string_view s);  ///< an escaped string
  JsonWriter& value(const char* s) { return value(std::string_view(s)); }
  JsonWriter& value(bool b);
  JsonWriter& value(std::nullptr_t);  ///< null
  template <std::integral T>
  JsonWriter& value(T v) {
    return raw(std::to_string(v));
  }
  /// "%.<precision>f"; a double without a precision does not compile.
  JsonWriter& value(double v, int precision);
  JsonWriter& value(double) = delete;
  /// One value rendered by another writer, written verbatim.
  JsonWriter& raw(std::string_view rendered);

  /// key(k) followed by value(v...).
  template <typename... V>
  JsonWriter& field(std::string_view k, V&&... v) {
    return key(k).value(std::forward<V>(v)...);
  }

  const std::string& str() const { return out_; }

 private:
  JsonWriter& open(char opener, char closer);
  void separate();

  std::string out_;
  std::string closers_;  ///< the closing bracket of each open container
  bool need_comma_ = false;
};

/// Shared output sink for the six mfm_* CLI tools.  Owns the --out=FILE
/// destination, the {"units":[...]} JSON framing with comma separation,
/// and the trailing summary fields, so every tool emits the same
/// envelope and handles an unwritable output file the same way.
class ReportSink {
 public:
  /// Opens @p path for writing; "" or "-" selects stdout.  On open
  /// failure prints "<tool>: cannot open '<path>' for writing" to
  /// stderr and leaves the sink !ok() -- callers exit with status 2.
  ReportSink(std::string_view tool, bool json, const std::string& path);

  bool ok() const { return ok_; }

  /// Emits one pre-rendered per-unit record: a JSON object (the sink
  /// inserts the comma between array elements) or a text block (the
  /// sink appends the separating blank line).
  void unit(const std::string& rendered);

  /// Closes the envelope.  @p json_fields are extra top-level members
  /// (e.g. "failures":3) appended after the units array; @p text_summary
  /// is written verbatim in text mode.  Returns false (after a stderr
  /// diagnostic) if any write failed.
  bool finish(const JsonWriter& json_fields = {},
              const std::string& text_summary = "");

 private:
  std::string tool_;
  std::ofstream file_;
  std::ostream* out_ = nullptr;
  bool json_ = false;
  bool ok_ = true;
  bool first_ = true;
  bool finished_ = false;
};

}  // namespace mfm::netlist
