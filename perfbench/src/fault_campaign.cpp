// fault_campaign: the mfm_faults job body on one thread.
//
// Stuck-at campaigns at 64 vectors on six combinational units, plus the
// pipelined multi-format unit under its fp64 pins at 16 vectors.  The
// combinational units are where parallel-pattern single-fault
// propagation would apply; mf/fp64's 4-eval vector windows are where
// the lane-masked group path stays.  Work unit: fault sites classified.
#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "common.h"
#include "netlist/compiled.h"
#include "netlist/fault.h"
#include "netlist/sim_level.h"
#include "roster/roster.h"
#include "trace.h"

namespace perfbench {

namespace {

using mfm::netlist::Circuit;
using mfm::netlist::FaultCampaignOptions;
using mfm::netlist::FaultCampaignReport;
using mfm::netlist::FaultKind;
using mfm::netlist::FaultSite;
using mfm::netlist::FaultVectors;
using mfm::netlist::LevelSim;
using mfm::netlist::NetId;
using mfm::roster::BuildMode;

struct Plan {
  const char* spec;
  const char* variant;
  const char* id;  // metric-name form of the job name
  int vectors;
};
constexpr Plan kPlan[] = {
    {"mult8", "", "mult8", 64},
    {"reduce64to32", "", "reduce64to32", 64},
    {"fpadd-b32", "", "fpadd-b32", 64},
    {"fpmul-b32", "", "fpmul-b32", 64},
    {"radix4-64", "", "radix4-64", 64},
    {"fpmul-b64", "", "fpmul-b64", 64},
    {"mf", "fp64", "mf-fp64", 16},
};
constexpr std::size_t kUnits = std::size(kPlan);
constexpr int kOracleSites = 6;  // sampled verdicts re-derived per unit

struct Unit {
  const mfm::roster::BuiltUnit* built = nullptr;
  const mfm::netlist::CompiledCircuit* cc = nullptr;
  std::vector<FaultSite> sites;
  std::unique_ptr<FaultVectors> vectors;
};

struct State {
  mfm::roster::UnitCache cache;
  std::vector<Unit> units;
};

std::unique_ptr<State> set_up(std::uint64_t seed) {
  auto st = std::make_unique<State>();
  for (const Plan& p : kPlan) {
    const std::size_t spec = mfm::roster::spec_index(p.spec);
    Unit u;
    {
      Span s("roster.build", p.id);
      u.built = &st->cache.unit(spec, BuildMode::kPipelined);
    }
    {
      Span s("roster.compile", p.id);
      u.cc = &st->cache.compiled(spec, BuildMode::kPipelined);
    }
    {
      Span s("fault.setup", p.id);
      const Circuit& c = *u.built->circuit;
      u.sites = mfm::netlist::enumerate_stuck_faults(c);
      u.vectors = std::make_unique<FaultVectors>(
          c, static_cast<std::size_t>(p.vectors),
          derive_seed(seed, std::string("fault/") + p.id),
          mfm::roster::find_variant(*u.built, p.variant).pins);
    }
    st->units.push_back(std::move(u));
  }
  return st;
}

/// What a simulator-only change must leave unchanged, per unit.
struct Verdicts {
  FaultCampaignReport report;
  std::uint64_t detected_hash = 0;

  std::string digest() const {
    return "{\"sites\":" + std::to_string(report.sites) +
           ",\"detected\":" + std::to_string(report.detected) +
           ",\"vector_gap\":" + std::to_string(report.undetected_gap) +
           ",\"unobservable\":" +
           std::to_string(report.undetected_unobservable) +
           ",\"pinned_constant\":" + std::to_string(report.undetected_pinned) +
           ",\"verdicts\":\"" + hex64(detected_hash) + "\"}";
  }
};

std::uint64_t verdict_hash(const FaultCampaignReport& rep) {
  std::uint64_t h = 0;
  for (const std::uint8_t d : rep.site_detected) h = hash_combine(h, d);
  return h;
}

/// The copy-circuit oracle: one scalar machine with the fault baked in
/// (clone_with_stuck), replaying the campaign's window semantics --
/// power-on start, inputs held for cycles+1 evals, outputs sampled after
/// every eval, register state carried across vectors.
std::vector<bool> scalar_responses(const Circuit& machine,
                                   const FaultVectors& fv, int cycles,
                                   const std::vector<NetId>& outs) {
  LevelSim sim(machine);
  std::vector<bool> out;
  for (std::size_t v = 0; v < fv.count(); ++v) {
    for (std::size_t i = 0; i < fv.inputs().size(); ++i)
      sim.set(fv.inputs()[i], fv.bit(v, i));
    for (int cyc = 0; cyc <= cycles; ++cyc) {
      if (cyc > 0) sim.clock();
      sim.eval();
      for (const NetId o : outs) out.push_back(sim.value(o));
    }
  }
  return out;
}

/// Re-derives a seeded sample of @p rep's verdicts; returns "" when all
/// agree, else a description of the first disagreement.
std::string oracle_check(const Unit& u, const FaultCampaignReport& rep,
                         std::uint64_t seed) {
  const Circuit& c = *u.built->circuit;
  std::vector<NetId> outs;
  for (const auto& [name, bus] : c.out_ports())
    outs.insert(outs.end(), bus.begin(), bus.end());
  const int cycles = u.built->latency_cycles;
  const std::vector<bool> golden =
      scalar_responses(c, *u.vectors, cycles, outs);
  std::mt19937_64 rng(seed);
  for (int k = 0; k < kOracleSites; ++k) {
    const std::size_t s = rng() % u.sites.size();
    const FaultSite& site = u.sites[s];
    const auto faulty = mfm::netlist::clone_with_stuck(
        c, site.net, site.kind == FaultKind::kStuckAt1);
    const bool caught =
        scalar_responses(*faulty, *u.vectors, cycles, outs) != golden;
    if (caught != (rep.site_detected[s] != 0))
      return "site " + std::to_string(s) + " (net " +
             std::to_string(site.net) + "): campaign says " +
             (rep.site_detected[s] ? "detected" : "undetected") +
             ", copy-circuit oracle disagrees";
  }
  return "";
}

}  // namespace

Result run_fault_campaign(const Config& cfg) {
  Result r;
  std::unique_ptr<State> st;
  const double setup_s = timed_setups(
      r, [&] { st.reset(); },
      [&] { st = set_up(cfg.seed); });

  std::vector<double> work(kUnits);
  for (std::size_t j = 0; j < kUnits; ++j)
    work[j] = static_cast<double>(st->units[j].sites.size());

  // First report per unit; every repeat must match it exactly.
  std::vector<std::unique_ptr<Verdicts>> first(kUnits);
  std::vector<std::uint64_t> jobs(kUnits, 0), bad_jobs(kUnits, 0);
  const auto campaign = [&](std::size_t j, bool classify) {
    const Unit& u = st->units[j];
    FaultCampaignOptions opt;
    opt.cycles = u.built->latency_cycles;
    opt.classify_undetected = classify;
    Span s(classify ? "fault.campaign" : "fault.campaign_unclassified",
           kPlan[j].id);
    return run_fault_campaign(*u.cc, u.sites, *u.vectors, opt);
  };
  const auto job = [&](std::size_t j) {
    FaultCampaignReport rep = campaign(j, true);
    ++jobs[j];
    const std::uint64_t h = verdict_hash(rep);
    if (!first[j]) {
      first[j] = std::make_unique<Verdicts>(Verdicts{std::move(rep), h});
    } else if (h != first[j]->detected_hash ||
               rep.detected != first[j]->report.detected ||
               rep.undetected_total() != first[j]->report.undetected_total()) {
      ++bad_jobs[j];
      r.fail(std::string(kPlan[j].id) + ": repeat campaign changed verdicts");
    }
  };

  const TimedPasses passes =
      run_passes(cfg, "fault_campaign", kUnits, process_cpu_s, job);

  // Checks, outside every timed span.
  for (std::size_t j = 0; j < kUnits; ++j) {
    Span s("check.oracle", kPlan[j].id);
    const std::string why = oracle_check(
        st->units[j], first[j]->report,
        derive_seed(cfg.seed, std::string("oracle/") + kPlan[j].id));
    if (!why.empty()) {
      r.fail(std::string(kPlan[j].id) + ": " + why);
      r.failed += jobs[j] - bad_jobs[j] - 1;  // every repeat carried it
    }
    r.digest.emplace_back(kPlan[j].id, first[j]->digest());
  }
  for (const std::uint64_t n : jobs) r.attempted += n;

  if (!cfg.trace) {
    report_batch(r, passes.untraced, work, setup_s);
    return r;
  }

  Tracer& t = Tracer::get();
  r.layer("roster.build_s",
          median_chunk_sums(t.durations("roster.build"), kUnits), "s");
  r.layer("roster.compile_s",
          median_chunk_sums(t.durations("roster.compile"), kUnits), "s");
  r.layer("fault.setup_s",
          median_chunk_sums(t.durations("fault.setup"), kUnits), "s");
  double on_s = 0.0;
  double off_s = 0.0;
  for (std::size_t j = 0; j < kUnits; ++j) {
    const std::string id = kPlan[j].id;
    const FaultCampaignReport& rep = first[j]->report;
    const double campaign_s = median(t.durations("fault.campaign", id));
    r.layer("fault.campaign_s." + id, campaign_s, "s");
    r.layer("fault.evals." + id, static_cast<double>(rep.evals), "count");
    r.layer("fault.passes." + id, static_cast<double>(rep.passes), "count");
    r.layer("fault.eval_us." + id,
            rep.evals ? 1e6 * campaign_s / static_cast<double>(rep.evals)
                      : 0.0,
            "us");
    r.layer("fault.vectors_per_site." + id,
            static_cast<double>(rep.fault_vectors) /
                static_cast<double>(rep.sites),
            "count");
    on_s += campaign_s;
    campaign(j, false);
    off_s += median(t.durations("fault.campaign_unclassified", id));
  }
  r.layer("fault.classify_share", on_s > 0.0 ? 1.0 - off_s / on_s : 0.0,
          "ratio");

  // PackSim on the pipelined builds (the fault workload's mode).
  for (const char* name : {"mult8", "radix16-64", "mf", "mf-reduce"}) {
    const std::size_t spec = mfm::roster::spec_index(name);
    r.layer(std::string("sim_pack.eval_us.") + name,
            packsim_eval_us(st->cache.compiled(spec, BuildMode::kPipelined),
                            name, derive_seed(cfg.seed, "packsim")),
            "us");
  }
  report_untraced_pass(r, passes, work);
  return r;
}

}  // namespace perfbench
