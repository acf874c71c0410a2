#include "netlist/fault.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <random>
#include <span>
#include <sstream>
#include <stdexcept>

#include "netlist/compiled.h"
#include "netlist/lint.h"
#include "netlist/report.h"
#include "netlist/sim_pack.h"

namespace mfm::netlist {

std::string_view fault_kind_name(FaultKind k) {
  switch (k) {
    case FaultKind::kStuckAt0: return "stuck-at-0";
    case FaultKind::kStuckAt1: return "stuck-at-1";
    case FaultKind::kFlip: return "flip";
  }
  return "?";
}

std::string_view undetected_cause_name(UndetectedCause c) {
  switch (c) {
    case UndetectedCause::kVectorGap: return "vector-gap";
    case UndetectedCause::kUnobservable: return "unobservable";
    case UndetectedCause::kPinnedConstant: return "pinned-constant";
  }
  return "?";
}

namespace {

bool eligible_victim(GateKind k) {
  return k != GateKind::Input && k != GateKind::Const0 &&
         k != GateKind::Const1;
}

}  // namespace

std::vector<FaultSite> enumerate_stuck_faults(const Circuit& c) {
  std::vector<FaultSite> sites;
  for (NetId i = 0; i < c.size(); ++i)
    if (eligible_victim(c.gate(i).kind)) {
      sites.push_back({i, FaultKind::kStuckAt0});
      sites.push_back({i, FaultKind::kStuckAt1});
    }
  return sites;
}

std::vector<FaultSite> enumerate_transient_faults(const Circuit& c) {
  std::vector<FaultSite> sites;
  for (NetId i = 0; i < c.size(); ++i)
    if (eligible_victim(c.gate(i).kind))
      sites.push_back({i, FaultKind::kFlip});
  return sites;
}

// ---- vector sets -----------------------------------------------------------

namespace {

/// -1 = free input, 0/1 = pinned value.
std::vector<std::int8_t> pin_map(const Circuit& c,
                                 const std::vector<TernaryPin>& pins) {
  std::vector<std::int8_t> pin(c.size(), -1);
  for (const TernaryPin& p : pins) {
    if (p.net >= c.size())
      throw std::invalid_argument("FaultVectors: pin net " +
                                  std::to_string(p.net) + " out of range");
    pin[p.net] = p.value ? 1 : 0;
  }
  return pin;
}

}  // namespace

FaultVectors::FaultVectors(const Circuit& c, std::size_t count,
                           std::uint64_t seed,
                           const std::vector<TernaryPin>& pins)
    : count_(count), inputs_(c.primary_inputs()), pins_(pins) {
  const std::vector<std::int8_t> pin = pin_map(c, pins);
  bits_.assign(count_ * inputs_.size(), 0);
  std::mt19937_64 rng(seed);
  for (std::size_t v = 0; v < count_; ++v) {
    std::uint64_t word = 0;
    int left = 0;
    for (std::size_t i = 0; i < inputs_.size(); ++i) {
      bool b;
      if (v == 0) {
        b = false;
      } else if (v == 1) {
        b = true;
      } else {
        if (left == 0) {
          word = rng();
          left = 64;
        }
        b = (word & 1) != 0;
        word >>= 1;
        --left;
      }
      const std::int8_t p = pin[inputs_[i]];
      if (p >= 0) b = p != 0;
      bits_[v * inputs_.size() + i] = b ? 1 : 0;
    }
  }
}

FaultVectors FaultVectors::exhaustive(const Circuit& c,
                                      const std::vector<TernaryPin>& pins) {
  FaultVectors fv;
  fv.inputs_ = c.primary_inputs();
  fv.pins_ = pins;
  const std::vector<std::int8_t> pin = pin_map(c, pins);
  std::vector<int> free_ordinal(fv.inputs_.size(), -1);
  int free_count = 0;
  for (std::size_t i = 0; i < fv.inputs_.size(); ++i)
    if (pin[fv.inputs_[i]] < 0) free_ordinal[i] = free_count++;
  if (free_count > 16)
    throw std::invalid_argument(
        "FaultVectors::exhaustive: " + std::to_string(free_count) +
        " free inputs (max 16)");
  fv.count_ = std::size_t{1} << free_count;
  fv.bits_.assign(fv.count_ * fv.inputs_.size(), 0);
  for (std::size_t v = 0; v < fv.count_; ++v)
    for (std::size_t i = 0; i < fv.inputs_.size(); ++i) {
      const std::int8_t p = pin[fv.inputs_[i]];
      const bool b = p >= 0 ? p != 0
                            : ((v >> free_ordinal[i]) & 1) != 0;
      fv.bits_[v * fv.inputs_.size() + i] = b ? 1 : 0;
    }
  return fv;
}

// ---- the campaign ----------------------------------------------------------

namespace {

/// Vectors per recorded block of the fault-free machine.  A constant, not
/// an option: it bounds the trace at 64 * (cycles + 1) frames whatever
/// the campaign's vector count.
constexpr std::size_t kBlockVectors = 64;

/// The fault-free machine over one block of vectors, one bit per
/// (frame, net).  Frame f of a block is eval (f mod (cycles + 1)) of the
/// window of the block's vector f / (cycles + 1).
class Trace {
 public:
  explicit Trace(std::size_t nets) : row_words_((nets + 63) / 64) {}

  /// Continues @p ref -- the unforced machine, carried across blocks
  /// from power-on -- over vectors [v0, v1) with the campaign's window
  /// semantics, and records every frame.
  void record(PackSim& ref, const FaultVectors& fv, std::size_t v0,
              std::size_t v1, int cycles) {
    const std::size_t nets = ref.compiled().size();
    const std::vector<NetId>& ins = fv.inputs();
    bits_.assign(
        (v1 - v0) * (static_cast<std::size_t>(cycles) + 1) * row_words_, 0);
    std::uint64_t* row = bits_.data();
    for (std::size_t v = v0; v < v1; ++v) {
      for (std::size_t i = 0; i < ins.size(); ++i)
        ref.set(ins[i], fv.bit(v, i) ? ~0ull : 0ull);
      for (int cyc = 0; cyc <= cycles; ++cyc, row += row_words_) {
        if (cyc > 0) ref.clock();
        ref.eval();
        for (NetId n = 0; n < nets; ++n)
          row[n >> 6] |= (ref.word(n) & 1) << (n & 63);
      }
    }
  }

  /// Net @p n's fault-free value in @p frame, broadcast to all lanes.
  std::uint64_t word(std::size_t frame, NetId n) const {
    return 0 - ((bits_[frame * row_words_ + (n >> 6)] >> (n & 63)) & 1);
  }

 private:
  std::size_t row_words_;
  std::vector<std::uint64_t> bits_;  // frames x row_words_
};

/// Up to 63 consecutive sites of one class (stuck or flip); site
/// first + k runs in lane k + 1, lane 0 stays fault-free.
struct Group {
  std::size_t first = 0;
  std::size_t count = 0;
  bool flip = false;
  std::uint64_t all = 0;  // the group's fault lanes
  std::uint64_t caught = 0;
  std::size_t vectors_run = 0;
  bool done = false;
  /// Cone flop state carried from one block to the next (cone order).
  std::vector<std::uint64_t> flops;
};

/// The cone evaluator: one group's victims and their union fanout cone
/// (through flops), compiled to slot-addressed gate words.  Slots are
/// [cone gates | cone flop state | outside nets]: cone gate i sits in
/// slot i, a cone flop evaluates as a Dff reading its state slot, and an
/// outside net -- a fan-in or flop D outside the cone -- holds its trace
/// bit broadcast to all lanes, so no gate tests cone membership.  Every
/// net outside the cone equals lane 0 in every lane, which is why only
/// the cone is evaluated and only outputs inside it are compared.
class ConeEval {
 public:
  ConeEval(const CompiledCircuit& cc, const std::vector<NetId>& outs)
      : cc_(cc), outs_(outs), stamp_(cc.size(), 0), slot_(cc.size(), 0) {}

  /// Gathers the cone of @p g's victims and compiles it.
  void gather(const std::vector<FaultSite>& sites, const Group& g);

  /// Runs @p g over the block's vectors (frames from @p trace), from
  /// its carried flop state; counts one eval per frame.
  void run_block(Group& g, const Trace& trace, std::size_t vectors,
                 const FaultCampaignOptions& opt, std::uint64_t& evals);

 private:
  struct Op {
    GateKind kind;
    std::array<std::uint32_t, 4> in;
  };
  /// A victim's lane override, applied right after its gate evaluates:
  /// stuck lanes take @c value, flip lanes invert.
  struct Mask {
    std::uint32_t op;
    std::uint64_t lanes;
    std::uint64_t value;
  };

  /// Slot of @p n as a fan-in: its cone slot, or an outside slot.
  std::uint32_t operand(NetId n) {
    if (stamp_[n] == epoch_) return slot_[n];
    if (stamp_[n] != epoch_ + 1) {
      stamp_[n] = epoch_ + 1;
      slot_[n] = outside_base() + static_cast<std::uint32_t>(outside_.size());
      outside_.push_back(n);
    }
    return slot_[n];
  }
  std::uint32_t state_base() const {
    return static_cast<std::uint32_t>(cone_.size());
  }
  std::uint32_t outside_base() const {
    return state_base() + static_cast<std::uint32_t>(flop_d_.size());
  }

  const CompiledCircuit& cc_;
  const std::vector<NetId>& outs_;
  std::vector<std::uint32_t> stamp_;  // epoch_: cone, epoch_ + 1: outside
  std::vector<std::uint32_t> slot_;   // net -> slot, valid under stamp_
  std::uint32_t epoch_ = 0;
  std::vector<NetId> cone_;     // ascending net order
  std::vector<NetId> outside_;  // outside nets the cone reads
  std::vector<Op> ops_;         // parallel to cone_
  std::vector<std::uint32_t> flop_d_;  // cone flop k's D slot
  std::vector<std::uint32_t> out_slots_;
  std::vector<Mask> masks_;     // ascending op, one per site
  std::vector<std::uint64_t> val_;
};

void ConeEval::gather(const std::vector<FaultSite>& sites, const Group& g) {
  epoch_ += 2;
  cone_.clear();
  std::vector<NetId> stack;
  for (std::size_t k = 0; k < g.count; ++k) {
    const NetId n = sites[g.first + k].net;
    if (stamp_[n] != epoch_) {
      stamp_[n] = epoch_;
      stack.push_back(n);
    }
  }
  while (!stack.empty()) {
    const NetId n = stack.back();
    stack.pop_back();
    cone_.push_back(n);
    for (const NetId f : cc_.fanout(n))
      if (stamp_[f] != epoch_) {
        stamp_[f] = epoch_;
        stack.push_back(f);
      }
  }
  std::sort(cone_.begin(), cone_.end());

  flop_d_.clear();
  for (std::uint32_t i = 0; i < cone_.size(); ++i) {
    slot_[cone_[i]] = i;
    if (cc_.kind(cone_[i]) == GateKind::Dff) flop_d_.push_back(0);
  }
  outside_.clear();
  ops_.clear();
  std::uint32_t flop = 0;
  for (const NetId n : cone_) {
    Op op{cc_.kind(n), {0, 0, 0, 0}};
    const std::span<const NetId> fanin = cc_.fanin(n);
    if (op.kind == GateKind::Dff) {
      flop_d_[flop] = operand(fanin[0]);
      op.in[0] = state_base() + flop++;
    } else if (op.kind == GateKind::Input) {
      // An input victim reads its own trace bit; its cone slot, which
      // the other cone gates read, carries the override.
      op.kind = GateKind::Buf;
      op.in[0] = outside_base() + static_cast<std::uint32_t>(outside_.size());
      outside_.push_back(n);
    } else {
      for (std::size_t p = 0; p < fanin.size(); ++p)
        op.in[p] = operand(fanin[p]);
    }
    ops_.push_back(op);
  }

  out_slots_.clear();
  for (const NetId o : outs_)
    if (stamp_[o] == epoch_) out_slots_.push_back(slot_[o]);

  masks_.clear();
  for (std::size_t k = 0; k < g.count; ++k) {
    const FaultSite& s = sites[g.first + k];
    const std::uint64_t lane = 1ull << (k + 1);
    masks_.push_back(
        {slot_[s.net], lane, s.kind == FaultKind::kStuckAt1 ? lane : 0});
  }
  // Same-net masks may apply in any order: a group's sites own
  // disjoint lanes.
  std::sort(masks_.begin(), masks_.end(),
            [](const Mask& a, const Mask& b) { return a.op < b.op; });

  val_.assign(outside_base() + outside_.size(), 0);
}

void ConeEval::run_block(Group& g, const Trace& trace, std::size_t vectors,
                         const FaultCampaignOptions& opt,
                         std::uint64_t& evals) {
  std::copy(g.flops.begin(), g.flops.end(), val_.begin() + state_base());
  const auto eval_op = [this](std::size_t i) {
    const Op& op = ops_[i];
    val_[i] = eval_gate_word(op.kind, val_[op.in[0]], val_[op.in[1]],
                             val_[op.in[2]], val_[op.in[3]]);
  };
  std::size_t frame = 0;
  for (std::size_t v = 0; v < vectors; ++v) {
    for (int cyc = 0; cyc <= opt.cycles; ++cyc, ++frame) {
      if (cyc > 0)
        for (std::size_t k = 0; k < flop_d_.size(); ++k)
          val_[state_base() + k] = val_[flop_d_[k]];
      for (std::size_t e = 0; e < outside_.size(); ++e)
        val_[outside_base() + e] = trace.word(frame, outside_[e]);
      // Stuck overrides apply on every eval, flips on the window's
      // first eval only.
      const bool armed = !g.flip || cyc == 0;
      std::size_t i = 0;
      for (const Mask& m : masks_) {
        for (; i <= m.op; ++i) eval_op(i);
        if (!armed) continue;
        std::uint64_t& w = val_[m.op];
        w = g.flip ? w ^ m.lanes : (w & ~m.lanes) | m.value;
      }
      for (; i < ops_.size(); ++i) eval_op(i);
      ++evals;
      std::uint64_t mismatch = 0;
      for (const std::uint32_t s : out_slots_) {
        const std::uint64_t w = val_[s];
        mismatch |= w ^ (0 - (w & 1));
      }
      g.caught |= mismatch & g.all;
    }
    ++g.vectors_run;
    if (opt.early_exit && g.caught == g.all) {
      g.done = true;
      break;
    }
  }
  g.flops.assign(val_.begin() + state_base(), val_.begin() + outside_base());
}

}  // namespace

FaultCampaignReport run_fault_campaign(const CompiledCircuit& cc,
                                       const std::vector<FaultSite>& sites,
                                       const FaultVectors& vectors,
                                       const FaultCampaignOptions& opt) {
  const Circuit& c = cc.circuit();
  if (opt.cycles < 0)
    throw std::invalid_argument("run_fault_campaign: cycles " +
                                std::to_string(opt.cycles) + " < 0");
  for (const FaultSite& s : sites)
    if (s.net >= c.size())
      throw std::invalid_argument("run_fault_campaign: site net " +
                                  std::to_string(s.net) + " out of range");
  FaultCampaignReport rep;
  rep.sites = sites.size();
  rep.vectors = vectors.count();
  rep.site_detected.assign(sites.size(), 0);

  std::vector<NetId> outs;
  for (const auto& [name, bus] : c.out_ports()) {
    (void)name;
    outs.insert(outs.end(), bus.begin(), bus.end());
  }

  // Transient groups are kept separate from stuck groups so the
  // single-eval flip applies to a whole group.
  std::vector<Group> groups;
  for (std::size_t g0 = 0; g0 < sites.size();) {
    Group g;
    g.first = g0;
    g.flip = sites[g0].kind == FaultKind::kFlip;
    std::size_t g1 = g0 + 1;
    while (g1 < sites.size() &&
           g1 - g0 < static_cast<std::size_t>(PackSim::kLanes - 1) &&
           (sites[g1].kind == FaultKind::kFlip) == g.flip)
      ++g1;
    g.count = g1 - g0;
    g.all = g.count == 63 ? ~1ull : (((1ull << g.count) - 1) << 1);
    groups.push_back(std::move(g));
    g0 = g1;
  }

  // Every group starts from power-on state at vector 0, so verdicts do
  // not depend on how sites fall into groups.  The fault-free machine
  // is recorded once per block and shared by every group still running.
  PackSim ref(cc);
  Trace trace(c.size());
  ConeEval cone(cc, outs);
  bool running = !groups.empty();
  for (std::size_t v0 = 0; v0 < vectors.count() && running;
       v0 += kBlockVectors) {
    const std::size_t v1 = std::min(vectors.count(), v0 + kBlockVectors);
    trace.record(ref, vectors, v0, v1, opt.cycles);
    running = false;
    for (Group& g : groups) {
      if (g.done) continue;
      // The cone is gathered again per block: between blocks a group
      // keeps only its cone flops' words.
      cone.gather(sites, g);
      cone.run_block(g, trace, v1 - v0, opt, rep.evals);
      if (g.done || v1 == vectors.count())
        std::vector<std::uint64_t>().swap(g.flops);
      else
        running = true;
    }
  }
  rep.passes = groups.size();
  for (const Group& g : groups) {
    rep.fault_vectors += g.count * g.vectors_run;
    for (std::size_t k = 0; k < g.count; ++k)
      rep.site_detected[g.first + k] = (g.caught >> (k + 1)) & 1;
  }

  // Tally and classify.  Observability comes from lint's unobservable
  // analysis over this campaign's compilation; "stuck at its own
  // ternary constant under the pins" is undetectable by construction.
  std::size_t undetected = 0;
  for (const std::uint8_t d : rep.site_detected)
    if (!d) ++undetected;

  std::vector<std::uint8_t> unobservable;
  TernaryResult tern;
  if (opt.classify_undetected && undetected > 0) {
    unobservable = unobservable_nets(cc);
    // Classify under the pins the vectors were actually built with, so
    // the pinned-constant class can never diverge from the applied
    // stimulus.
    tern = ternary_propagate(cc, vectors.pins());
  }

  std::vector<FaultModuleStats> modules(c.module_count());
  for (std::size_t m = 0; m < modules.size(); ++m)
    modules[m].path = c.module_path(static_cast<std::uint16_t>(m));

  for (std::size_t s = 0; s < sites.size(); ++s) {
    const FaultSite& site = sites[s];
    FaultModuleStats& ms = modules[c.gate(site.net).module];
    ++ms.sites;
    if (rep.site_detected[s]) {
      ++rep.detected;
      ++ms.detected;
      continue;
    }
    UndetectedFault uf;
    uf.site = site;
    uf.label = "net " + std::to_string(site.net) + " (" +
               std::string(gate_name(c.gate(site.net).kind)) + " in " +
               c.module_path(c.gate(site.net).module) + ")";
    const bool stuck_at_pin_constant =
        !tern.value.empty() && site.kind != FaultKind::kFlip &&
        tern_is_const(tern.at(site.net)) &&
        (tern.at(site.net) == Tern::k1) ==
            (site.kind == FaultKind::kStuckAt1);
    if (!unobservable.empty() && unobservable[site.net]) {
      uf.cause = UndetectedCause::kUnobservable;
      ++rep.undetected_unobservable;
    } else if (stuck_at_pin_constant) {
      uf.cause = UndetectedCause::kPinnedConstant;
      ++rep.undetected_pinned;
    } else {
      uf.cause = UndetectedCause::kVectorGap;
      ++rep.undetected_gap;
      ++ms.gaps;
    }
    rep.undetected.push_back(uf);
  }

  modules.erase(std::remove_if(modules.begin(), modules.end(),
                               [](const FaultModuleStats& m) {
                                 return m.sites == 0;
                               }),
                modules.end());
  rep.modules = std::move(modules);
  return rep;
}

// ---- the reference injector ------------------------------------------------

std::unique_ptr<Circuit> clone_with_stuck(const Circuit& src, NetId victim,
                                          bool value) {
  if (victim < 2 || victim >= src.size() ||
      !eligible_victim(src.gate(victim).kind))
    throw std::invalid_argument("clone_with_stuck: net " +
                                std::to_string(victim) +
                                " is not an eligible victim");
  auto out = std::make_unique<Circuit>();
  // Circuit's constructor creates Const0/Const1 at ids 0/1 -- identical
  // to the source, so gates 2..N are recreated verbatim.
  for (NetId i = 2; i < src.size(); ++i) {
    const Gate& g = src.gate(i);
    if (i == victim) {
      out->add(value ? GateKind::Const1 : GateKind::Const0);
      continue;
    }
    out->add(g.kind, g.in[0], g.in[1], g.in[2], g.in[3]);
  }
  return out;
}

// ---- reports ---------------------------------------------------------------

std::string fault_report_text(const FaultCampaignReport& rep,
                              const std::string& title) {
  std::ostringstream os;
  if (!title.empty()) os << "=== faults: " << title << " ===\n";
  os << "sites " << rep.sites << "  vectors/fault " << rep.vectors
     << "  passes " << rep.passes << "  evals " << rep.evals
     << "  fault-vectors " << rep.fault_vectors << "\n";
  char cov[32];
  std::snprintf(cov, sizeof cov, "%.2f", rep.coverage_pct());
  os << "detected " << rep.detected << " / " << rep.sites << " (" << cov
     << "%)  undetected " << rep.undetected_total() << ": vector-gap "
     << rep.undetected_gap << ", unobservable " << rep.undetected_unobservable
     << ", pinned-constant " << rep.undetected_pinned << "\n";
  if (!rep.modules.empty()) {
    os << "per-module (sites/detected/gaps):\n";
    for (const FaultModuleStats& m : rep.modules)
      os << "  " << m.path << ": " << m.sites << "/" << m.detected << "/"
         << m.gaps << "\n";
  }
  // Only the actionable class is listed: unobservable / pinned-constant
  // faults are explained by the static analyses (counts above).
  constexpr std::size_t kMaxListed = 32;
  std::size_t listed = 0;
  for (const UndetectedFault& uf : rep.undetected) {
    if (uf.cause != UndetectedCause::kVectorGap) continue;
    if (listed == kMaxListed) {
      os << "  ... and " << rep.undetected_gap - kMaxListed
         << " more vector-gap fault(s)\n";
      break;
    }
    os << "  gap: " << uf.label << " " << fault_kind_name(uf.site.kind)
       << "\n";
    ++listed;
  }
  return os.str();
}

std::string fault_report_json(const FaultCampaignReport& rep,
                              const std::string& title) {
  JsonWriter j;
  j.object()
      .field("title", title)
      .field("sites", rep.sites)
      .field("detected", rep.detected)
      .field("coverage_pct", rep.coverage_pct(), 2)
      .key("undetected").object()
      .field("vector_gap", rep.undetected_gap)
      .field("unobservable", rep.undetected_unobservable)
      .field("pinned_constant", rep.undetected_pinned)
      .end()
      .field("vectors_per_fault", rep.vectors)
      .field("passes", rep.passes)
      .field("evals", rep.evals)
      .field("fault_vectors", rep.fault_vectors)
      .key("gaps").array();
  for (const UndetectedFault& uf : rep.undetected)
    if (uf.cause == UndetectedCause::kVectorGap)
      j.object()
          .field("net", uf.site.net)
          .field("kind", fault_kind_name(uf.site.kind))
          .end();
  j.end().key("modules").array();
  for (const FaultModuleStats& m : rep.modules)
    j.object()
        .field("path", m.path)
        .field("sites", m.sites)
        .field("detected", m.detected)
        .field("gaps", m.gaps)
        .end();
  j.end().end();
  return j.str();
}

}  // namespace mfm::netlist
