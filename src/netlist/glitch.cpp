#include "netlist/glitch.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <numeric>
#include <random>
#include <sstream>

#include "netlist/power.h"
#include "netlist/report.h"

namespace mfm::netlist {

GlitchReport analyze_glitch(const CompiledCircuit& cc, const TechLib& lib,
                            const GlitchOptions& options) {
  const Circuit& c = cc.circuit();
  check_pins(c, options.pins, "analyze_glitch");
  const TernaryResult tern = ternary_propagate(cc, options.pins);
  const PowerModel pm(c, lib);

  GlitchReport rep;
  rep.score.assign(cc.size(), 0.0);
  rep.energy_fj.assign(cc.size(), 0.0);
  rep.window_ps.assign(cc.size(), 0.0);

  // Forward pass in topological (= NetId) order: per net the arrival
  // window [wmin, wmax] over live (non-constant) fan-ins only, and the
  // transition bound per cycle.  Constant fan-ins never transition, so
  // they must not widen the window -- this is what makes the scores
  // mode-aware under the pins.
  std::vector<double> wmin(cc.size(), 0.0);
  std::vector<double> wmax(cc.size(), 0.0);
  std::vector<double> bound(cc.size(), 0.0);

  for (NetId i = 0; i < cc.size(); ++i) {
    const GateKind k = cc.kind(i);
    if (k == GateKind::Const0 || k == GateKind::Const1) continue;
    if (k == GateKind::Input) {
      // A primary input transitions at most once per cycle, at t = 0
      // (pinned inputs never transition at all).
      bound[i] = tern_is_const(tern.value[i]) ? 0.0 : 1.0;
      continue;
    }
    if (k == GateKind::Dff) {
      wmin[i] = wmax[i] = lib.clk_to_q_ps();
      bound[i] = tern_is_const(tern.value[i]) ? 0.0 : 1.0;
      continue;
    }

    ++rep.nets;
    if (tern_is_const(tern.value[i])) continue;  // blanked: cannot toggle

    double amin = std::numeric_limits<double>::infinity();
    double amax = 0.0;
    double raw = 0.0;
    for (const NetId src : cc.fanin(i)) {
      if (bound[src] <= 0.0) continue;  // constant fan-in: no transitions
      amin = std::min(amin, wmin[src]);
      amax = std::max(amax, wmax[src]);
      raw += bound[src];
    }
    if (raw <= 0.0) continue;  // every fan-in constant (ternary X but dead)

    const double d = lib.delay_ps(k);
    wmin[i] = amin + d;
    wmax[i] = amax + d;
    // Transition bound: every output transition is caused by an input
    // transition (sum bound), and the inertial filter spaces output
    // pulses at least one gate delay apart across the arrival window
    // (window bound).  Both are per cycle; the minimum is sound.
    double b = raw;
    if (d > 0.0) b = std::min(b, std::floor((amax - amin) / d) + 1.0);
    bound[i] = b;

    const double window = amax - amin;
    rep.window_ps[i] = window;
    rep.max_window_ps = std::max(rep.max_window_ps, window);
    if (b > 1.0) {
      const double score = b - 1.0;  // transitions beyond the functional one
      rep.score[i] = score;
      rep.energy_fj[i] = score * pm.toggle_energy_fj(i);
      ++rep.glitchy_nets;
      rep.total_score += score;
      rep.total_energy_fj += rep.energy_fj[i];
    }
  }

  // Per-module aggregates (deterministic: map iteration is ordered).
  std::map<std::string, GlitchModule> modules;
  for (NetId i = 0; i < cc.size(); ++i) {
    if (rep.score[i] <= 0.0) continue;
    const std::string label = truncate_module(c.module_path(c.gate(i).module));
    GlitchModule& m = modules[label];
    m.path = label;
    m.score += rep.score[i];
    m.energy_fj += rep.energy_fj[i];
    ++m.nets;
  }
  rep.modules.reserve(modules.size());
  for (auto& [label, m] : modules) rep.modules.push_back(std::move(m));
  std::sort(rep.modules.begin(), rep.modules.end(),
            [](const GlitchModule& a, const GlitchModule& b) {
              if (a.energy_fj != b.energy_fj) return a.energy_fj > b.energy_fj;
              return a.path < b.path;
            });

  // Ranked hot-net list: energy-weighted, fully deterministic order.
  std::vector<NetId> ids;
  for (NetId i = 0; i < cc.size(); ++i)
    if (rep.score[i] > 0.0) ids.push_back(i);
  std::sort(ids.begin(), ids.end(), [&](NetId a, NetId b) {
    if (rep.energy_fj[a] != rep.energy_fj[b])
      return rep.energy_fj[a] > rep.energy_fj[b];
    if (rep.score[a] != rep.score[b]) return rep.score[a] > rep.score[b];
    return a < b;
  });
  if (options.max_hot >= 0 &&
      ids.size() > static_cast<std::size_t>(options.max_hot))
    ids.resize(static_cast<std::size_t>(options.max_hot));
  rep.hot.reserve(ids.size());
  for (const NetId n : ids) {
    GlitchHotNet h;
    h.net = n;
    h.score = rep.score[n];
    h.energy_fj = rep.energy_fj[n];
    h.window_ps = rep.window_ps[n];
    h.module = truncate_module(c.module_path(c.gate(n).module));
    rep.hot.push_back(std::move(h));
  }
  return rep;
}

GlitchReport analyze_glitch(const Circuit& c, const TechLib& lib,
                            const GlitchOptions& options) {
  return analyze_glitch(CompiledCircuit(c), lib, options);
}

double static_glitch_energy_fj(const Circuit& c, const TechLib& lib,
                               const std::vector<TernaryPin>& pins) {
  GlitchOptions opt;
  opt.pins = pins;
  opt.max_hot = 0;  // totals only
  return analyze_glitch(c, lib, opt).total_energy_fj;
}

// ---- measured counterpart --------------------------------------------------

MeasuredGlitch measure_glitch(const CompiledCircuit& cc, const TechLib& lib,
                              const std::vector<TernaryPin>& pins, int cycles,
                              std::uint64_t seed) {
  const Circuit& c = cc.circuit();
  check_pins(c, pins, "measure_glitch");
  EventSim sim(cc, lib);
  std::vector<std::uint8_t> pinned(cc.size(), 0);
  for (const TernaryPin& p : pins) {
    pinned[p.net] = 1;
    sim.set(p.net, p.value);
  }
  if (!pins.empty()) {
    // Settle the pins outside the measurement so the pin-application
    // transient (all inputs start at 0) is not charged as activity --
    // statically, pinned cones score zero, and the measured side must
    // agree that a held net never toggles.
    sim.cycle();
    sim.reset_counts();
  }

  // Deterministic free-input stream: one bit per (cycle, input) drawn
  // from a single mt19937_64 in fixed order.
  std::mt19937_64 rng(seed);
  std::uint64_t word = 0;
  int bits_left = 0;
  for (int cyc = 0; cyc < cycles; ++cyc) {
    for (const NetId pi : c.primary_inputs()) {
      if (pinned[pi]) continue;
      if (bits_left == 0) {
        word = rng();
        bits_left = 64;
      }
      sim.set(pi, (word & 1u) != 0);
      word >>= 1;
      --bits_left;
    }
    sim.cycle();
  }

  const PowerModel pm(c, lib);
  MeasuredGlitch m;
  m.counts = sim.counts();
  m.cycles = m.counts.cycles;
  m.functional = m.counts.total_functional();
  m.glitch = m.counts.total_glitch();
  m.glitch_energy_fj.assign(cc.size(), 0.0);
  for (NetId n = 0; n < cc.size(); ++n) {
    const double g = static_cast<double>(m.counts.toggles[n] -
                                         m.counts.functional[n]);
    if (g <= 0.0) continue;
    m.glitch_energy_fj[n] = g * pm.toggle_energy_fj(n);
    m.glitch_energy_total_fj += m.glitch_energy_fj[n];
  }
  return m;
}

// ---- cross-validation ------------------------------------------------------

namespace {

/// Nets with a positive value, sorted by value desc (NetId asc on ties),
/// truncated to @p k.
std::vector<NetId> top_k(const std::vector<double>& val, int k) {
  std::vector<NetId> ids;
  for (NetId n = 0; n < val.size(); ++n)
    if (val[n] > 0.0) ids.push_back(n);
  std::sort(ids.begin(), ids.end(), [&](NetId a, NetId b) {
    if (val[a] != val[b]) return val[a] > val[b];
    return a < b;
  });
  if (k >= 0 && ids.size() > static_cast<std::size_t>(k))
    ids.resize(static_cast<std::size_t>(k));
  return ids;
}

/// Average ranks (1-based, ties share the mean rank) of val[uni[i]].
std::vector<double> ranks_of(const std::vector<NetId>& uni,
                             const std::vector<double>& val) {
  std::vector<std::size_t> idx(uni.size());
  std::iota(idx.begin(), idx.end(), 0);
  std::sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
    if (val[uni[a]] != val[uni[b]]) return val[uni[a]] < val[uni[b]];
    return uni[a] < uni[b];
  });
  std::vector<double> r(uni.size(), 0.0);
  std::size_t i = 0;
  while (i < idx.size()) {
    std::size_t j = i;
    while (j + 1 < idx.size() && val[uni[idx[j + 1]]] == val[uni[idx[i]]]) ++j;
    const double avg = (static_cast<double>(i) + static_cast<double>(j)) / 2.0 +
                       1.0;
    for (std::size_t t = i; t <= j; ++t) r[idx[t]] = avg;
    i = j + 1;
  }
  return r;
}

}  // namespace

GlitchCrossCheck cross_validate_glitch(const GlitchReport& stat,
                                       const MeasuredGlitch& meas, int k) {
  GlitchCrossCheck cv;
  const std::size_t n =
      std::min(stat.energy_fj.size(), meas.glitch_energy_fj.size());
  std::vector<double> s(stat.energy_fj.begin(), stat.energy_fj.begin() + n);
  std::vector<double> m(meas.glitch_energy_fj.begin(),
                        meas.glitch_energy_fj.begin() + n);

  const std::vector<NetId> ts = top_k(s, k);
  const std::vector<NetId> tm = top_k(m, k);
  cv.k = static_cast<int>(std::min({static_cast<std::size_t>(k < 0 ? 0 : k),
                                    ts.size(), tm.size()}));
  std::vector<std::uint8_t> in_static(n, 0);
  for (int i = 0; i < cv.k; ++i) in_static[ts[static_cast<std::size_t>(i)]] = 1;
  for (int i = 0; i < cv.k; ++i)
    if (in_static[tm[static_cast<std::size_t>(i)]]) ++cv.overlap;
  cv.overlap_frac = cv.k > 0 ? static_cast<double>(cv.overlap) / cv.k : 1.0;

  // Spearman over the union of nets either ranking scores nonzero.
  std::vector<NetId> uni;
  for (NetId i = 0; i < n; ++i)
    if (s[i] > 0.0 || m[i] > 0.0) uni.push_back(i);
  cv.compared = uni.size();
  if (uni.size() < 2) {
    cv.rank_corr = 1.0;  // degenerate: nothing to rank on either side
    return cv;
  }
  const std::vector<double> rs = ranks_of(uni, s);
  const std::vector<double> rm = ranks_of(uni, m);
  double mean = (static_cast<double>(uni.size()) + 1.0) / 2.0;
  double num = 0.0, ds = 0.0, dm = 0.0;
  for (std::size_t i = 0; i < uni.size(); ++i) {
    const double a = rs[i] - mean;
    const double b = rm[i] - mean;
    num += a * b;
    ds += a * a;
    dm += b * b;
  }
  cv.rank_corr = (ds > 0.0 && dm > 0.0) ? num / std::sqrt(ds * dm) : 0.0;
  return cv;
}

// ---- reports ---------------------------------------------------------------

std::string glitch_report_text(const GlitchReport& rep,
                               const std::string& title) {
  std::ostringstream os;
  char buf[64];
  if (!title.empty()) os << "=== glitch: " << title << " ===\n";
  std::snprintf(buf, sizeof buf, "%.1f", rep.total_score);
  os << "nets " << rep.nets << " analyzed, " << rep.glitchy_nets
     << " glitch-prone, score total " << buf << "\n";
  std::snprintf(buf, sizeof buf, "%.1f", rep.total_energy_fj);
  os << "static glitch energy " << buf << " fJ/cycle, max window ";
  std::snprintf(buf, sizeof buf, "%.1f", rep.max_window_ps);
  os << buf << " ps\n";
  if (!rep.hot.empty()) {
    os << "hot nets (energy-ranked):\n";
    for (const GlitchHotNet& h : rep.hot) {
      std::snprintf(buf, sizeof buf, "score %.1f, %.2f fJ, window %.0f ps",
                    h.score, h.energy_fj, h.window_ps);
      os << "  net " << h.net << " (" << h.module << "): " << buf << "\n";
    }
  }
  if (!rep.modules.empty()) {
    os << "per-module (score/energy_fj/nets):\n";
    for (const GlitchModule& mo : rep.modules) {
      std::snprintf(buf, sizeof buf, "%.1f/%.2f/", mo.score, mo.energy_fj);
      os << "  " << mo.path << ": " << buf << mo.nets << "\n";
    }
  }
  return os.str();
}

std::string glitch_report_json(const GlitchReport& rep,
                               const std::string& title) {
  JsonWriter j;
  j.object()
      .field("title", title)
      .field("nets", rep.nets)
      .field("glitchy_nets", rep.glitchy_nets)
      .field("total_score", rep.total_score, 3)
      .field("total_energy_fj", rep.total_energy_fj, 3)
      .field("max_window_ps", rep.max_window_ps, 3)
      .key("hot").array();
  for (const GlitchHotNet& h : rep.hot)
    j.object()
        .field("net", h.net)
        .field("module", h.module)
        .field("score", h.score, 3)
        .field("energy_fj", h.energy_fj, 3)
        .field("window_ps", h.window_ps, 3)
        .end();
  j.end().key("modules").array();
  for (const GlitchModule& m : rep.modules)
    j.object()
        .field("path", m.path)
        .field("score", m.score, 3)
        .field("energy_fj", m.energy_fj, 3)
        .field("nets", m.nets)
        .end();
  j.end().end();
  return j.str();
}

}  // namespace mfm::netlist
