#include "netlist/timing.h"

#include <algorithm>
#include <stdexcept>

#include "netlist/report.h"

namespace mfm::netlist {

Sta::Sta(const CompiledCircuit& cc, const TechLib& lib)
    : cc_(&cc),
      lib_(lib),
      arrival_(cc.size(), 0.0),
      arrival_min_(cc.size(), 0.0) {
  analyze();
}

Sta::Sta(const Circuit& c, const TechLib& lib)
    : owned_(std::make_unique<CompiledCircuit>(c)),
      cc_(owned_.get()),
      lib_(lib),
      arrival_(c.size(), 0.0),
      arrival_min_(c.size(), 0.0) {
  analyze();
}

void Sta::check_net(NetId n) const {
  if (n >= arrival_.size())
    throw std::invalid_argument("Sta: net " + std::to_string(n) +
                                " out of range (circuit has " +
                                std::to_string(arrival_.size()) + " nets)");
}

void Sta::analyze() {
  const CompiledCircuit& cc = *cc_;
  for (NetId i = 0; i < cc.size(); ++i) {
    switch (cc.kind(i)) {
      case GateKind::Const0:
      case GateKind::Const1:
      case GateKind::Input:
        arrival_[i] = 0.0;
        break;
      case GateKind::Dff:
        arrival_[i] = lib_.clk_to_q_ps();
        arrival_min_[i] = lib_.clk_to_q_ps();
        break;
      default: {
        const auto fanin = cc.fanin(i);
        double tmax = 0.0;
        double tmin = fanin.empty() ? 0.0 : arrival_min_[fanin[0]];
        for (const NetId src : fanin) {
          tmax = std::max(tmax, arrival_[src]);
          tmin = std::min(tmin, arrival_min_[src]);
        }
        const double d = lib_.delay_ps(cc.kind(i));
        arrival_[i] = tmax + d;
        arrival_min_[i] = tmin + d;
        break;
      }
    }
  }

  const Circuit& c = cc.circuit();
  // Endpoints: primary outputs ...
  for (const auto& [name, bus] : c.out_ports()) {
    (void)name;
    for (NetId n : bus) {
      if (arrival_[n] > max_delay_ps_) {
        max_delay_ps_ = arrival_[n];
        worst_endpoint_ = n;
      }
    }
  }
  // ... and DFF D pins (+ setup).
  for (NetId f : c.flops()) {
    const NetId d = c.gate(f).in[0];
    const double t = arrival_[d] + lib_.setup_ps();
    if (t > max_delay_ps_) {
      max_delay_ps_ = t;
      worst_endpoint_ = d;
    }
  }
}

CriticalPath Sta::critical_path() const {
  const Circuit& c = cc_->circuit();
  CriticalPath cp;
  cp.delay_ps = max_delay_ps_;
  if (worst_endpoint_ == kNoNet) return cp;

  // Walk back along worst-arrival fan-ins.
  std::vector<NetId> rev;
  NetId n = worst_endpoint_;
  for (;;) {
    rev.push_back(n);
    const auto fanin = cc_->fanin(n);
    if (fanin.empty() || cc_->kind(n) == GateKind::Dff) break;
    NetId best = fanin[0];
    for (const NetId src : fanin)
      if (arrival_[src] > arrival_[best]) best = src;
    n = best;
  }
  cp.nets.assign(rev.rbegin(), rev.rend());

  // Group consecutive gates by truncated module label.
  for (NetId net : cp.nets) {
    const Gate& g = c.gate(net);
    const double d =
        (g.kind == GateKind::Dff) ? lib_.clk_to_q_ps() : lib_.delay_ps(g.kind);
    if (d == 0.0 && fanin_count(g.kind) == 0) continue;
    const std::string label = truncate_module(c.module_path(g.module));
    if (cp.segments.empty() || cp.segments.back().module != label)
      cp.segments.push_back(PathSegment{label, 0.0, 0});
    cp.segments.back().delay_ps += d;
    cp.segments.back().gates += 1;
  }
  return cp;
}

double Sta::module_settle_ps(const std::string& prefix) const {
  const Circuit& c = cc_->circuit();
  double worst = 0.0;
  for (NetId i = 0; i < c.size(); ++i) {
    const std::string& path = c.module_path(c.gate(i).module);
    if (path.compare(0, prefix.size(), prefix) == 0)
      worst = std::max(worst, arrival_[i]);
  }
  return worst;
}

}  // namespace mfm::netlist
