// Fault injection over the shared CompiledCircuit.
//
// The functional test vectors are only as good as the faults they can
// expose: a stuck-at campaign is a meta-test of vector quality (a suite
// that never detects injected faults proves nothing about the netlist,
// and the paper's power argument rests on the netlists being right).
// The seed's approach copied the whole circuit per fault and simulated
// one scalar vector at a time, which caps a test run at a few dozen
// sampled victims; this subsystem instead evaluates 64-lane gate words
// (eval_gate_word, netlist/gate.h): lane 0 runs the fault-free machine,
// lanes 1..63 each run one faulty machine -- 63 faults per group over
// one shared compilation, the serial-fault-parallel trick twin-precision
// verification flows use to validate mode-sectioned arrays.  Detection =
// a faulty lane's output word differs from the reference lane on any
// sampled cycle.
//
// Trace and cone.  The fault-free machine is recorded once per block of
// 64 vectors by one unforced PackSim run (netlist/sim_pack.h), one bit
// per (frame, net), where a frame is one eval of a vector window.  Each
// group then evaluates only the union fanout cone of its victims
// (through flops, in ascending net order) for every frame of the block:
// a fan-in outside the cone reads its trace bit broadcast to all lanes,
// each victim's lane mask applies right after its gate evaluates, cone
// flops capture their D word from the cone (or from the trace when D is
// outside it), and only outputs inside the cone are compared -- every
// other net equals lane 0 by construction.  A group still running at a
// block boundary keeps only its cone flops' words, so memory does not
// grow with the vector count.
//
// Fault model:
//   stuck-at-0/1   persistent, on every non-input, non-constant gate
//                  output (combinational cells and DFF outputs alike);
//   transient      single-cycle bit-flip (XOR) on the same sites,
//                  injected on the first eval of each vector window --
//                  meaningful for the pipelined units, where the flip
//                  must race through a register capture to be seen.
//
// Undetected faults are classified against the static analyses so that
// "undetected but observable" isolates a real vector gap:
//   unobservable      the victim cannot reach any output port
//                     (lint's unobservable_nets, netlist/lint.h);
//   pinned-constant   the victim is stuck at exactly its ternary
//                     constant value under the campaign's control pins
//                     (netlist/ternary.h) -- blanked logic, undetectable
//                     by construction under that mode;
//   vector-gap        everything else.  Note the gap class still
//                     contains any logically redundant faults (deciding
//                     true untestability is SAT-complete); it is an
//                     upper bound on the vector-quality debt.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "netlist/circuit.h"
#include "netlist/ternary.h"

namespace mfm::netlist {

class CompiledCircuit;

/// The fault model applied to a victim net.
enum class FaultKind : std::uint8_t {
  kStuckAt0,  ///< output forced to 0 on every cycle
  kStuckAt1,  ///< output forced to 1 on every cycle
  kFlip,      ///< output inverted for a single cycle (transient)
};

std::string_view fault_kind_name(FaultKind k);

/// One fault: a victim net plus the fault model.
struct FaultSite {
  NetId net = kNoNet;
  FaultKind kind = FaultKind::kStuckAt0;
};

/// Stuck-at-0 and stuck-at-1 sites on every non-input, non-constant gate
/// output (two sites per eligible gate, in net order).
std::vector<FaultSite> enumerate_stuck_faults(const Circuit& c);

/// Single-cycle bit-flip sites on every non-input, non-constant gate
/// output (one site per eligible gate).  Intended for sequential
/// circuits; on a combinational circuit a transient flip degenerates to
/// a per-vector stuck fault.
std::vector<FaultSite> enumerate_transient_faults(const Circuit& c);

/// A deterministic broadcast vector set: one bit per (vector, primary
/// input), identical for every lane of a campaign group -- and exactly
/// reproducible by a scalar reference simulator, which is what lets the
/// tests cross-check campaign verdicts against the copy-circuit
/// injector bit for bit.  Vector 0 is all-zeros, vector 1 all-ones, the
/// rest are seeded-random; pinned inputs hold their pin value in every
/// vector.
class FaultVectors {
 public:
  /// @p count vectors for the primary inputs of @p c under @p pins.
  /// Throws std::invalid_argument when a pin does not name a primary
  /// input of @p c (check_pins).
  FaultVectors(const Circuit& c, std::size_t count, std::uint64_t seed,
               const std::vector<TernaryPin>& pins = {});

  /// Exhaustive set: every assignment of the free (un-pinned) primary
  /// inputs.  Throws std::invalid_argument beyond 16 free inputs or on
  /// a pin that does not name a primary input.
  static FaultVectors exhaustive(const Circuit& c,
                                 const std::vector<TernaryPin>& pins = {});

  std::size_t count() const { return count_; }
  /// Primary input nets, in circuit order (pinned inputs included).
  const std::vector<NetId>& inputs() const { return inputs_; }
  /// The control pins the vectors were built under.  run_fault_campaign
  /// reads these for its pinned-constant classification, so the
  /// classification always reflects the vectors actually applied.
  const std::vector<TernaryPin>& pins() const { return pins_; }
  bool bit(std::size_t vector, std::size_t input_ordinal) const {
    return bits_[vector * inputs_.size() + input_ordinal] != 0;
  }

 private:
  FaultVectors() = default;

  std::size_t count_ = 0;
  std::vector<NetId> inputs_;
  std::vector<TernaryPin> pins_;
  std::vector<std::uint8_t> bits_;  // count_ x inputs_.size()
};

/// Why an undetected fault went undetected (see file comment).
enum class UndetectedCause : std::uint8_t {
  kVectorGap,       ///< observable and not provably masked: a vector gap
  kUnobservable,    ///< victim cannot reach any output port
  kPinnedConstant,  ///< stuck at its ternary constant under the pins
};

std::string_view undetected_cause_name(UndetectedCause c);

struct UndetectedFault {
  FaultSite site;
  UndetectedCause cause = UndetectedCause::kVectorGap;
  /// "net N (KIND in module/path)" -- filled by the campaign so reports
  /// render without the Circuit at hand.
  std::string label;
};

/// Per-module campaign statistics (module = interned '/'-path label).
struct FaultModuleStats {
  std::string path;
  std::size_t sites = 0;
  std::size_t detected = 0;
  std::size_t gaps = 0;  ///< undetected vector-gap faults in this module
};

struct FaultCampaignOptions {
  /// Clock edges between applying a vector and the final output sample
  /// (the unit's pipeline latency; 0 = combinational).  Outputs are
  /// compared after every eval of the window, so a fault is detected as
  /// soon as its effect surfaces on any cycle.  Must be >= 0.
  int cycles = 0;
  /// Classify undetected faults against lint observability + ternary
  /// constants (costs one backward reachability pass and one ternary
  /// pass; disable for throughput benches).
  bool classify_undetected = true;
  /// Stop a group's vector loop once every fault in the group is
  /// detected.  Disable to pin the exact work done (benchmarks).
  bool early_exit = true;
};

struct FaultCampaignReport {
  std::size_t sites = 0;
  std::size_t detected = 0;
  std::size_t undetected_gap = 0;
  std::size_t undetected_unobservable = 0;
  std::size_t undetected_pinned = 0;
  std::size_t vectors = 0;         ///< vector budget per fault
  std::size_t passes = 0;          ///< 63-fault groups run
  /// Group frame evaluations: one per group per frame (one eval of a
  /// vector window, over the group's cone), not counting the evals that
  /// record the fault-free trace.
  std::uint64_t evals = 0;
  std::uint64_t fault_vectors = 0; ///< fault x vector applications

  /// Per-site verdicts, parallel to the sites the campaign ran.
  std::vector<std::uint8_t> site_detected;
  /// Every undetected fault with its classification.
  std::vector<UndetectedFault> undetected;
  std::vector<FaultModuleStats> modules;

  std::size_t undetected_total() const {
    return undetected_gap + undetected_unobservable + undetected_pinned;
  }
  double coverage_pct() const {
    return sites == 0 ? 100.0 : 100.0 * static_cast<double>(detected) /
                                    static_cast<double>(sites);
  }
};

/// Runs the lane-masked campaign: @p sites are batched 63 per group
/// (lane 0 stays fault-free), every vector is broadcast to all lanes,
/// and each vector window is cycles+1 evals with outputs diffed against
/// lane 0 after each.  The fault-free machine is recorded once per
/// 64-vector block and each group evaluates only its victims' fanout
/// cone against that trace (see the file comment).  Every group starts
/// from power-on state (all nets and flops 0) at vector 0, so verdicts
/// are independent of how sites fall into groups.  Transient (kFlip)
/// sites are grouped separately from stuck sites; their flip is armed
/// for the window's first eval only, a stuck override for every eval.
/// Pinned-constant classification uses @p vectors' own pins.  Throws
/// std::invalid_argument when opt.cycles < 0 or a site net is outside
/// the circuit.
FaultCampaignReport run_fault_campaign(const CompiledCircuit& cc,
                                       const std::vector<FaultSite>& sites,
                                       const FaultVectors& vectors,
                                       const FaultCampaignOptions& opt = {});

/// Human-readable multi-line report.
std::string fault_report_text(const FaultCampaignReport& report,
                              const std::string& title = "");

/// Machine-readable report (schema documented in DESIGN.md §11).
std::string fault_report_json(const FaultCampaignReport& report,
                              const std::string& title = "");

/// The slow reference injector (the seed's approach, kept for the
/// cross-check tests and the throughput bench): copies the circuit with
/// gate @p victim replaced by a stuck-at-@p value constant.  Gate ids
/// are preserved, so the source circuit's Bus handles stay valid on the
/// copy; named ports are NOT copied.
std::unique_ptr<Circuit> clone_with_stuck(const Circuit& src, NetId victim,
                                          bool value);

}  // namespace mfm::netlist
