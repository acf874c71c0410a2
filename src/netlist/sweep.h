// Signature-based sweeping over a Circuit: find nets that compute the
// same function, prove it, and merge them.
//
// The generators emit structurally redundant nets that structural_hash
// (netlist/structural_hash.h) can *detect* but nothing could *merge*;
// worse, strash only sees syntactic duplicates -- two different gate
// decompositions of the same function (a MAJ3 vs its AND/OR expansion,
// a mode-blanked cone vs the constant it is stuck at under the format
// pins) stay apart.  The sweeper follows the classic fraiging recipe:
//
//   1. seed equivalence classes from structural_hash (exact by
//      construction, merged for free);
//   2. refine candidate classes by hashing each net's 64-bit PackSim
//      signature word (netlist/sim_pack.h) over directed walking-one
//      rounds plus seeded-random rounds -- pinned inputs are set once to
//      their pin value, and every DFF gets a fresh random state word
//      each round (PackSim::set_state) so state is a free cut variable;
//   3. confirm each surviving candidate pair on its combined cone:
//      exhaustive 64-lane evaluation proves or refutes a pair whose free
//      support has at most kExhaustiveSupportLimit variables; a wider
//      pair can only be refuted, by random cone passes -- one it
//      survives is unresolved and stays unmerged, never wrongly merged.  Each pair's cone is compiled once into a
//      flat tape of gate records over recycled value slots, which then
//      runs its passes 16 at a time (one walk);
//   4. merge proven classes through Circuit::merge_rewrite() -- fan-ins
//      rewired to the class leader, dead cones swept -- and re-verify
//      the merged netlist against the original with check_equivalence
//      (under the same pins; sequential circuits use a multi-cycle
//      random cosimulation instead).
//
// With format control pins the sweep yields a *mode-specialized*
// netlist: logic the pins blank merges into the constants, so the
// reported gate/area savings are the structural counterpart of the
// paper's per-format power figures (Table V).  Without pins every merge
// is mode-independent and the result is a drop-in replacement.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "netlist/circuit.h"
#include "netlist/techlib.h"
#include "netlist/ternary.h"

namespace mfm::netlist {

/// Candidate pairs whose combined cone has at most this many free
/// support variables (unpinned inputs + flop outputs) are proven or
/// refuted by exhaustive 64-lane cone evaluation: 2^(k-6) passes for
/// k > 6 variables, run 16 per walk of the cone tape.
inline constexpr int kExhaustiveSupportLimit = 14;

struct SweepOptions {
  /// Control pins the sweep (and its re-verification) runs under; must
  /// name primary-input nets.  Merges are valid only under these pins.
  std::vector<TernaryPin> pins;

  /// Random signature rounds of 64 vectors each, after the directed
  /// walking-one rounds.  More rounds mean fewer false candidates
  /// reaching the exact-confirmation stage (never wrong results).
  int signature_rounds = 8;
  std::uint64_t seed = 0x5EE9;

  /// Pairs wider than kExhaustiveSupportLimit get this many random
  /// 64-lane passes over just the pair's cone, run 16 per walk; a last,
  /// partial walk compares only its valid passes, so the count need not
  /// be a multiple of 16.
  /// They can only refute: a pair that survives them counts as
  /// unresolved and stays unmerged.  In the shipped generators every
  /// merge beyond strash comes from the ternary or exhaustive stages;
  /// the survivors are near-miss non-equivalences.
  int random_refute_passes = 96;

  /// Re-verify the merged circuit against the original.
  bool verify = true;
  /// Random-vector budget of the re-verification (combinational:
  /// check_equivalence; sequential: multi-cycle random cosimulation).
  int verify_vectors = 4000;
};

/// Gates/area removed from one module subtree (depth-2 path).
struct SweepModuleDelta {
  std::string path;
  std::size_t gates_removed = 0;
  double area_removed_nand2 = 0.0;
};

struct SweepReport {
  // Gate counts exclude the constant sources and primary inputs.
  std::size_t gates_before = 0;
  std::size_t gates_after = 0;
  double area_before_nand2 = 0.0;  ///< TechLib::lp45() pricing
  double area_after_nand2 = 0.0;

  std::size_t strash_merged = 0;     ///< merged purely structurally
  std::size_t proven_ternary = 0;    ///< constants proven by 0/1/X propagation
  std::size_t candidate_classes = 0; ///< signature classes beyond strash
  std::size_t candidates = 0;        ///< exact confirmations attempted
  std::size_t proven_exhaustive = 0; ///< proven by exhaustive cones
  std::size_t proven_sat = 0;        ///< always 0: no SAT stage; kept
                                     ///< in the report schema
  std::size_t refuted = 0;           ///< signature collisions disproven
  std::size_t unresolved = 0;        ///< wide, not refuted; left unmerged
  std::size_t merged_gates = 0;      ///< total gates merged into a leader
  std::size_t dead_gates = 0;        ///< additional dead gates swept

  bool verify_ran = false;
  bool verified = false;
  std::uint64_t verify_vectors = 0;
  std::string counterexample;  ///< on a failed re-verification

  std::vector<SweepModuleDelta> modules;

  std::size_t gates_removed() const { return gates_before - gates_after; }
  double area_removed_nand2() const {
    return area_before_nand2 - area_after_nand2;
  }
};

/// The swept circuit plus the proven classes on the original net ids.
struct SweepResult {
  std::unique_ptr<Circuit> circuit;
  /// leader[n] = representative the sweep proved n equivalent to
  /// (leader[n] == n for class leaders and unmerged nets).
  std::vector<NetId> leader;
  /// Original net -> net in *circuit (kNoNet for swept-away gates).
  std::vector<NetId> net_map;
  SweepReport report;
};

/// Runs the full sweep pipeline on @p c.  Throws std::invalid_argument
/// when a pin does not name a primary input.  A failed re-verification
/// (a sweeper bug by definition) is reported via report.verified ==
/// false with the counterexample attached; callers MUST gate on it
/// before using the merged circuit (mfm_sweep and the tests do).
SweepResult sweep_circuit(const Circuit& c, const SweepOptions& opt = {},
                          const TechLib& lib = TechLib::lp45());

/// Human-readable multi-line report.
std::string sweep_report_text(const SweepReport& report,
                              const std::string& title = "");

/// Machine-readable report (schema documented in DESIGN.md §12).
std::string sweep_report_json(const SweepReport& report,
                              const std::string& title = "");

}  // namespace mfm::netlist
