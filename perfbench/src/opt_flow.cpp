// opt_flow: the mfm_opt job body on one thread -- sweep, rewrite,
// sweep again, end-to-end proof, static glitch delta.
//
// Sweeping is nearly all of the time, and fpmul-b32, radix4-64 and
// mf/fp32x1 leave hundreds of candidate pairs unresolved, so a faster
// SAT core (or deleting the DPLL stage) shows here and nowhere else.
// fpadd-b32 and mf/fp64 are left out for run length.  Work unit: input
// gates optimized.
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common.h"
#include "netlist/equiv.h"
#include "netlist/glitch.h"
#include "netlist/report.h"
#include "netlist/rewrite.h"
#include "netlist/sweep.h"
#include "roster/roster.h"
#include "trace.h"

namespace perfbench {

namespace {

using mfm::netlist::Circuit;
using mfm::netlist::EquivResult;
using mfm::netlist::RewriteOptions;
using mfm::netlist::RewriteResult;
using mfm::netlist::SweepOptions;
using mfm::netlist::SweepReport;
using mfm::netlist::SweepResult;
using mfm::netlist::TechLib;
using mfm::netlist::TernaryPin;
using mfm::roster::BuildMode;

struct Plan {
  const char* spec;
  const char* variant;
  const char* id;
};
constexpr Plan kPlan[] = {
    {"mult8", "", "mult8"},
    {"reduce64to32", "", "reduce64to32"},
    {"fpmul-b32", "", "fpmul-b32"},
    {"radix4-64", "", "radix4-64"},
    {"mf", "fp32x1", "mf-fp32x1"},
};
constexpr std::size_t kUnits = std::size(kPlan);
constexpr int kSignatureRounds = 8;   // mfm_opt's default --rounds
constexpr int kVerifyVectors = 4000;  // mfm_opt's default --verify-vectors
// The sweeps and the rewrite run with mfm_opt's default seed.  Their
// seed picks the signature vectors, and with them how many candidate
// pairs reach the costly refute and SAT stages: measured over ten
// seeds, that moved a round's time by 14 % (IQR) on an idle host.  The
// run's --seed draws the end-to-end proof's vectors instead.
constexpr std::uint64_t kToolSeed = 0x0B7;

struct Unit {
  const Circuit* circuit = nullptr;
  const std::vector<TernaryPin>* pins = nullptr;
};

struct State {
  mfm::roster::UnitCache cache;
  std::vector<Unit> units;
};

std::unique_ptr<State> set_up() {
  auto st = std::make_unique<State>();
  for (const Plan& p : kPlan) {
    const std::size_t spec = mfm::roster::spec_index(p.spec);
    const mfm::roster::BuiltUnit* built = nullptr;
    {
      Span s("roster.build", p.id);
      built = &st->cache.unit(spec, BuildMode::kCombinational);
    }
    {
      Span s("roster.compile", p.id);
      st->cache.compiled(spec, BuildMode::kCombinational);
    }
    st->units.push_back({built->circuit.get(),
                         &mfm::roster::find_variant(*built, p.variant).pins});
  }
  return st;
}

/// One unit through the flow: what it reports, and whether it proved.
struct Outcome {
  SweepReport sweep1;
  SweepReport sweep2;
  std::size_t rewrites = 0;
  std::size_t gates_before = 0;
  std::size_t gates_after = 0;
  bool equivalent = false;
  std::string counterexample;

  /// Merge counts and gates after, per sweep and end to end.
  std::string digest() const {
    const auto sweep = [](const SweepReport& s) {
      return "{\"strash\":" + std::to_string(s.strash_merged) +
             ",\"ternary\":" + std::to_string(s.proven_ternary) +
             ",\"exhaustive\":" + std::to_string(s.proven_exhaustive) +
             ",\"sat\":" + std::to_string(s.proven_sat) +
             ",\"refuted\":" + std::to_string(s.refuted) +
             ",\"unresolved\":" + std::to_string(s.unresolved) +
             ",\"merged\":" + std::to_string(s.merged_gates) +
             ",\"dead\":" + std::to_string(s.dead_gates) +
             ",\"gates_after\":" + std::to_string(s.gates_after) + "}";
    };
    return "{\"sweep1\":" + sweep(sweep1) +
           ",\"rewrites\":" + std::to_string(rewrites) +
           ",\"sweep2\":" + sweep(sweep2) +
           ",\"gates_before\":" + std::to_string(gates_before) +
           ",\"gates_after\":" + std::to_string(gates_after) + "}";
  }
};

Outcome optimize(const Unit& u, const char* id, std::uint64_t proof_seed) {
  const TechLib& lib = TechLib::lp45();
  const Circuit& c = *u.circuit;
  Outcome out;
  out.gates_before = mfm::netlist::gate_count(c);

  SweepOptions so;
  so.pins = *u.pins;
  so.signature_rounds = kSignatureRounds;
  so.seed = kToolSeed;
  so.verify = false;
  SweepResult s1;
  {
    Span s("sweep.sweep", id);
    s1 = sweep_circuit(c, so, lib);
  }
  RewriteOptions ro;
  ro.pins = *u.pins;
  ro.seed = kToolSeed;
  ro.verify = false;
  RewriteResult rr;
  {
    Span s("rewrite.optimize", id);
    rr = optimize_circuit(*s1.circuit, ro, lib);
  }
  so.seed = kToolSeed ^ 0x90;
  SweepResult s2;
  {
    Span s("sweep.sweep", id);
    s2 = sweep_circuit(*rr.circuit, so, lib);
  }
  const Circuit& opt = *s2.circuit;
  EquivResult eq;
  {
    Span s("equiv.check", id);
    eq = c.flops().empty()
             ? check_equivalence(c, opt, *u.pins, kVerifyVectors, proof_seed)
             : check_equivalence_cosim(c, opt, *u.pins, kVerifyVectors,
                                       proof_seed);
  }
  {
    Span s("glitch.static", id);
    mfm::netlist::static_glitch_energy_fj(c, lib, *u.pins);
  }
  {
    Span s("glitch.static", id);
    mfm::netlist::static_glitch_energy_fj(opt, lib, *u.pins);
  }
  out.sweep1 = s1.report;
  out.sweep2 = s2.report;
  out.rewrites = rr.report.applied;
  out.gates_after = mfm::netlist::gate_count(opt);
  out.equivalent = eq.equivalent;
  out.counterexample = eq.counterexample;
  return out;
}

}  // namespace

Result run_opt_flow(const Config& cfg) {
  Result r;
  std::unique_ptr<State> st;
  const double setup_s = timed_setups(
      r, [&] { st.reset(); }, [&] { st = set_up(); });

  std::vector<double> work(kUnits);
  for (std::size_t j = 0; j < kUnits; ++j)
    work[j] =
        static_cast<double>(mfm::netlist::gate_count(*st->units[j].circuit));

  std::vector<std::unique_ptr<Outcome>> first(kUnits);
  std::vector<std::string> first_digest(kUnits);
  const auto job = [&](std::size_t j) {
    Outcome o = optimize(
        st->units[j], kPlan[j].id,
        derive_seed(cfg.seed, std::string("proof/") + kPlan[j].id));
    ++r.attempted;
    // The proof is checked here, after the job's timed span closed.
    if (!o.equivalent) {
      r.fail(std::string(kPlan[j].id) +
             ": optimized netlist failed the end-to-end proof: " +
             o.counterexample);
    } else if (!first[j]) {
      first_digest[j] = o.digest();
      first[j] = std::make_unique<Outcome>(std::move(o));
    } else if (o.digest() != first_digest[j]) {
      r.fail(std::string(kPlan[j].id) + ": repeat flow changed the result");
    }
  };

  const TimedPasses passes =
      run_passes(cfg, "opt_flow", kUnits, process_cpu_s, job);
  for (std::size_t j = 0; j < kUnits; ++j)
    r.digest.emplace_back(kPlan[j].id,
                          first[j] ? first_digest[j] : "\"no proven result\"");

  if (!cfg.trace) {
    report_batch(r, passes.untraced, work, setup_s);
    return r;
  }

  Tracer& t = Tracer::get();
  r.layer("roster.build_s",
          median_chunk_sums(t.durations("roster.build"), kUnits), "s");
  r.layer("roster.compile_s",
          median_chunk_sums(t.durations("roster.compile"), kUnits), "s");
  std::size_t applied = 0;
  for (std::size_t j = 0; j < kUnits; ++j) {
    if (!first[j]) continue;
    const std::string id = kPlan[j].id;
    const Outcome& o = *first[j];
    const SweepReport& a = o.sweep1;
    const SweepReport& b = o.sweep2;
    const std::size_t candidates = a.candidates + b.candidates;
    const std::size_t resolved = a.proven_exhaustive + a.proven_sat +
                                 a.refuted + b.proven_exhaustive +
                                 b.proven_sat + b.refuted;
    r.layer("sweep.s." + id,
            median_chunk_sums(t.durations("sweep.sweep", id), 2), "s");
    r.layer("sweep.candidates." + id, static_cast<double>(candidates),
            "count");
    r.layer("sweep.unresolved." + id,
            static_cast<double>(a.unresolved + b.unresolved), "count");
    r.layer("sweep.proven_sat." + id,
            static_cast<double>(a.proven_sat + b.proven_sat), "count");
    r.layer("sweep.resolved_ratio." + id,
            candidates ? static_cast<double>(resolved) /
                             static_cast<double>(candidates)
                       : 1.0,
            "ratio");
    applied += o.rewrites;
  }
  // Per round: the sum over units of each unit's median.
  double rewrite_s = 0.0;
  double equiv_s = 0.0;
  double glitch_s = 0.0;
  for (const Plan& p : kPlan) {
    rewrite_s += median(t.durations("rewrite.optimize", p.id));
    equiv_s += median(t.durations("equiv.check", p.id));
    glitch_s += median_chunk_sums(t.durations("glitch.static", p.id), 2);
  }
  r.layer("rewrite.s", rewrite_s, "s");
  r.layer("rewrite.applied", static_cast<double>(applied), "count");
  r.layer("equiv.s", equiv_s, "s");
  r.layer("glitch.static_s", glitch_s, "s");
  report_untraced_pass(r, passes, work);
  return r;
}

}  // namespace perfbench
