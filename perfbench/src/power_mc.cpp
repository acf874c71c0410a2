// power_mc: the paper's own evaluation -- Monte-Carlo gate-level power.
//
// measure_mf_parallel runs the pipelined multi-format unit on the four
// Table V streams; measure_multiplier_parallel runs the radix-4 and
// radix-16 64-bit multipliers, combinational and pipelined (Table III).
// EventSim does all the work, and no other workload touches it; the
// calls span glitch-heavy combinational units and pipelined ones.
// Work unit: Monte-Carlo vectors simulated.
//
// measure_mf_parallel takes no seed (its Table V streams are fixed), so
// the run's --seed reaches this workload through the Table III calls.
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "mf/mf_unit.h"
#include "mult/multiplier.h"
#include "netlist/compiled.h"
#include "netlist/timing.h"
#include "power/measure.h"
#include "trace.h"

namespace perfbench {

namespace {

using mfm::mult::MultiplierUnit;
using mfm::mult::PipelineCut;
using mfm::power::Workload;

constexpr int kVectors = 256;

struct Call {
  const char* id;
  // Table V call when mult < 0, else an index into State::mults.
  Workload workload;
  int ops_per_cycle;
  int mult;
};
constexpr Call kCalls[] = {
    {"int64", Workload::Uniform64, 1, -1},
    {"fp64", Workload::Fp64Random, 1, -1},
    {"fp32x2", Workload::Fp32DualRandom, 2, -1},
    {"fp32x1", Workload::Fp32SingleRandom, 1, -1},
    {"r4-comb", Workload::Uniform64, 0, 0},
    {"r16-comb", Workload::Uniform64, 0, 1},
    {"r4-pipe", Workload::Uniform64, 0, 2},
    {"r16-pipe", Workload::Uniform64, 0, 3},
};
constexpr std::size_t kJobs = std::size(kCalls);

struct State {
  mfm::mf::MfUnit mf;
  std::vector<MultiplierUnit> mults;
  double fmax_mhz = 0.0;
};

MultiplierUnit build_mult(int g, PipelineCut cut) {
  mfm::mult::MultiplierOptions o;
  o.n = 64;
  o.g = g;
  o.cut = cut;
  o.register_inputs = cut != PipelineCut::None;
  return mfm::mult::build_multiplier(o);
}

std::unique_ptr<State> set_up() {
  auto st = std::make_unique<State>();
  {
    Span s("roster.build", "mf");
    st->mf = mfm::mf::build_mf_unit();
  }
  const struct {
    const char* id;
    int g;
    PipelineCut cut;
  } mults[] = {{"r4-comb", 2, PipelineCut::None},
               {"r16-comb", 4, PipelineCut::None},
               {"r4-pipe", 2, PipelineCut::AfterPPGen},
               {"r16-pipe", 4, PipelineCut::AfterPPGen}};
  for (const auto& m : mults) {
    Span s("roster.build", m.id);
    st->mults.push_back(build_mult(m.g, m.cut));
  }
  std::unique_ptr<mfm::netlist::CompiledCircuit> cc;
  {
    Span s("roster.compile", "mf");
    cc = std::make_unique<mfm::netlist::CompiledCircuit>(*st->mf.circuit);
  }
  {
    Span s("timing.sta", "mf");
    const mfm::netlist::Sta sta(*cc, mfm::netlist::TechLib::lp45());
    st->fmax_mhz = 1e6 / sta.max_delay_ps();
  }
  return st;
}

/// One call's simulated statistics and host-time counters.
struct Outcome {
  std::uint64_t toggles = 0;
  std::uint64_t functional = 0;
  std::uint64_t glitch = 0;
  std::uint64_t events = 0;
  double compile_s = 0.0;
  double wall_s = 0.0;

  std::string digest() const {
    return "{\"toggles\":" + std::to_string(toggles) +
           ",\"functional\":" + std::to_string(functional) +
           ",\"glitch\":" + std::to_string(glitch) + "}";
  }
};

template <typename P>
Outcome outcome_of(const P& p) {
  return {p.toggles, p.functional, p.glitch, p.events, p.compile_s, p.wall_s};
}

}  // namespace

Result run_power_mc(const Config& cfg) {
  Result r;
  std::unique_ptr<State> st;
  const double setup_s = timed_setups(
      r, [&] { st.reset(); }, [&] { st = set_up(); });

  const std::vector<double> work(kJobs, static_cast<double>(kVectors));
  std::vector<std::unique_ptr<Outcome>> first(kJobs);
  std::vector<std::vector<double>> compile_s(kJobs), wall_s(kJobs);
  const auto job = [&](std::size_t j) {
    const Call& c = kCalls[j];
    Outcome o;
    {
      Span s("power.measure", c.id);
      o = c.mult < 0
              ? outcome_of(mfm::power::measure_mf_parallel(
                    st->mf, c.workload, kVectors, st->fmax_mhz,
                    c.ops_per_cycle, cfg.shards))
              : outcome_of(mfm::power::measure_multiplier_parallel(
                    st->mults[static_cast<std::size_t>(c.mult)], kVectors,
                    100.0, derive_seed(cfg.seed, std::string("power/") + c.id),
                    cfg.shards));
    }
    ++r.attempted;
    compile_s[j].push_back(o.compile_s);
    wall_s[j].push_back(o.wall_s);
    if (o.functional + o.glitch != o.toggles) {
      r.fail(std::string(c.id) + ": functional + glitch != toggles");
    } else if (!first[j]) {
      first[j] = std::make_unique<Outcome>(o);
    } else if (o.digest() != first[j]->digest()) {
      r.fail(std::string(c.id) + ": repeat call changed the toggle counts");
    }
  };

  // The shard threads do the work while this thread waits: a call's
  // time is the process CPU time it used, per shard.
  const auto clock = [&] { return process_cpu_s() / cfg.shards; };
  const TimedPasses passes = run_passes(cfg, "power_mc", kJobs, clock, job);
  for (std::size_t j = 0; j < kJobs; ++j)
    r.digest.emplace_back(kCalls[j].id, first[j] ? first[j]->digest()
                                                 : "\"no consistent call\"");

  if (!cfg.trace) {
    report_batch(r, passes.untraced, work, setup_s);
    return r;
  }

  Tracer& t = Tracer::get();
  r.layer("roster.build_s",
          median_chunk_sums(t.durations("roster.build"), 5), "s");
  r.layer("roster.compile_s", median(t.durations("roster.compile")), "s");
  r.layer("timing.sta_s", median(t.durations("timing.sta")), "s");
  for (std::size_t j = 0; j < kJobs; ++j) {
    if (!first[j]) continue;
    const std::string id = kCalls[j].id;
    const double events = static_cast<double>(first[j]->events);
    r.layer("power.measure_s." + id, median(passes.traced.job_s[j]), "s");
    r.layer("power.compile_s." + id, median(compile_s[j]), "s");
    r.layer("sim_event.events." + id, events, "count");
    r.layer("sim_event.ns_per_event." + id,
            events > 0.0 ? 1e9 * median(wall_s[j]) * cfg.shards / events
                         : 0.0,
            "ns");
  }
  report_untraced_pass(r, passes, work);
  return r;
}

}  // namespace perfbench
