// Area / structure reports over a Circuit, plus the one shared JSON
// string escaper every report emitter uses (lint, fault, sweep): the
// escaping rules live here exactly once so the JSON consumers in CI
// never see two reports disagree on what a control character becomes.
#pragma once

#include <cstdint>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <string_view>

#include "netlist/circuit.h"
#include "netlist/techlib.h"

namespace mfm::netlist {

/// Area and gate count of one module (or module subtree).
struct ModuleArea {
  double area_nand2 = 0.0;
  std::size_t gates = 0;
  std::size_t flops = 0;
};

/// Aggregates cell area per module label, truncated to @p module_depth
/// path components ("top/ppgen/row3" at depth 2 -> "top/ppgen").
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

/// Appends @p s to @p out with JSON string escaping (quotes, backslash,
/// \n, \t, and \uXXXX for the remaining control characters).
void json_escape_into(std::string& out, std::string_view s);

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

  /// Closes the envelope.  @p json_summary is a raw fragment of extra
  /// top-level fields (e.g. "\"failures\":3") appended after the units
  /// array; @p text_summary is written verbatim in text mode.  Returns
  /// false (after a stderr diagnostic) if any write failed.
  bool finish(const std::string& json_summary = "",
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
