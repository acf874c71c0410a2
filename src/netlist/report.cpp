#include "netlist/report.h"

#include <cstdio>
#include <sstream>
#include <stdexcept>

namespace mfm::netlist {

namespace {

/// Path components a module label keeps (truncate_module).
constexpr int kModuleDepth = 2;

}  // namespace

std::string truncate_module(const std::string& path) {
  std::size_t pos = 0;
  for (int i = 0; i < kModuleDepth; ++i) {
    pos = path.find('/', pos);
    if (pos == std::string::npos) return path;
    ++pos;
  }
  return path.substr(0, pos == 0 ? path.size() : pos - 1);
}

std::map<std::string, ModuleArea> area_by_module(const Circuit& c,
                                                 const TechLib& lib) {
  std::map<std::string, ModuleArea> out;
  for (const Gate& g : c.gates()) {
    if (g.kind == GateKind::Input || g.kind == GateKind::Const0 ||
        g.kind == GateKind::Const1)
      continue;
    auto& m = out[truncate_module(c.module_path(g.module))];
    m.area_nand2 += lib.cell(g.kind).area_nand2;
    m.gates += 1;
    if (g.kind == GateKind::Dff) m.flops += 1;
  }
  return out;
}

double total_area_nand2(const Circuit& c, const TechLib& lib) {
  double a = 0.0;
  for (const Gate& g : c.gates()) a += lib.cell(g.kind).area_nand2;
  return a;
}

std::size_t gate_count(const Circuit& c) {
  return c.size() - c.primary_inputs().size() - 2;
}

namespace {

void escape_into(std::string& out, std::string_view s) {
  out += '"';
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
  out += '"';
}

}  // namespace

void JsonWriter::separate() {
  if (need_comma_) out_ += ',';
  need_comma_ = false;
}

JsonWriter& JsonWriter::open(char opener, char closer) {
  separate();
  out_ += opener;
  closers_ += closer;
  return *this;
}

JsonWriter& JsonWriter::object() { return open('{', '}'); }

JsonWriter& JsonWriter::array() { return open('[', ']'); }

JsonWriter& JsonWriter::end() {
  if (closers_.empty())
    throw std::logic_error("JsonWriter::end: no object or array is open");
  out_ += closers_.back();
  closers_.pop_back();
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view k) {
  separate();
  escape_into(out_, k);
  out_ += ':';
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view s) {
  separate();
  escape_into(out_, s);
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(bool b) { return raw(b ? "true" : "false"); }

JsonWriter& JsonWriter::value(std::nullptr_t) { return raw("null"); }

JsonWriter& JsonWriter::value(double v, int precision) {
  std::string s(
      static_cast<std::size_t>(std::snprintf(nullptr, 0, "%.*f", precision, v)),
      '\0');
  std::snprintf(s.data(), s.size() + 1, "%.*f", precision, v);
  return raw(s);
}

JsonWriter& JsonWriter::raw(std::string_view rendered) {
  separate();
  out_ += rendered;
  need_comma_ = true;
  return *this;
}

ReportSink::ReportSink(std::string_view tool, bool json,
                       const std::string& path)
    : tool_(tool), json_(json) {
  if (path.empty() || path == "-") {
    out_ = &std::cout;
  } else {
    file_.open(path, std::ios::out | std::ios::trunc);
    if (!file_) {
      std::cerr << tool_ << ": cannot open '" << path << "' for writing\n";
      ok_ = false;
      return;
    }
    out_ = &file_;
  }
  if (json_) *out_ << "{\"units\":[";
}

void ReportSink::unit(const std::string& rendered) {
  if (!ok_ || finished_) return;
  if (json_) {
    *out_ << (first_ ? "" : ",\n  ") << rendered;
    first_ = false;
  } else {
    *out_ << rendered << "\n";
  }
}

bool ReportSink::finish(const JsonWriter& json_fields,
                        const std::string& text_summary) {
  if (!ok_ || finished_) return ok_;
  finished_ = true;
  if (json_) {
    *out_ << "]";
    if (!json_fields.str().empty()) *out_ << "," << json_fields.str();
    *out_ << "}\n";
  } else if (!text_summary.empty()) {
    *out_ << text_summary;
  }
  out_->flush();
  if (!*out_) {
    std::cerr << tool_ << ": write error on report output\n";
    ok_ = false;
  }
  return ok_;
}

std::string format_kind_histogram(const Circuit& c) {
  const auto h = c.kind_histogram();
  std::ostringstream os;
  for (std::size_t k = 0; k < h.size(); ++k) {
    if (h[k] == 0) continue;
    const auto kind = static_cast<GateKind>(k);
    if (kind == GateKind::Input || kind == GateKind::Const0 ||
        kind == GateKind::Const1)
      continue;
    os << gate_name(kind) << ": " << h[k] << "\n";
  }
  return os.str();
}

}  // namespace mfm::netlist
