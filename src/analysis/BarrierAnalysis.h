//===- analysis/BarrierAnalysis.h - SATB barrier elision -------*- C++ -*-===//
///
/// \file
/// The paper's core contribution: flow-sensitive, intra-procedural abstract
/// interpretation proving that reference stores are pre-null (guaranteed to
/// overwrite null) so their SATB concurrent-marking write barriers may be
/// omitted.
///
///   - Mode FieldOnly implements Section 2 (object field writes);
///   - Mode FieldAndArray adds Section 3 (array element writes);
///   - the EnableNullOrSame flag adds the Section 4.3 extension;
///   - TwoNamesPerSite / EnableContract exist for ablation benches.
///
/// The elision judgment for `putfield f` with pre-state
/// <rho, sigma, NL, [stk:o, v]> is the paper's: forall ot in o:
/// ot not in NL and sigma(ot, f) = {} (Section 2.4 end). For `aastore` the
/// judgment requires the index provably inside the array's uninitialized
/// null range (Section 3); the index's upper side may also be discharged by
/// the runtime bounds check when the range reaches the array's last index.
///
//===----------------------------------------------------------------------===//

#ifndef SATB_ANALYSIS_BARRIERANALYSIS_H
#define SATB_ANALYSIS_BARRIERANALYSIS_H

#include "bytecode/Program.h"

#include <string>
#include <vector>

namespace satb {

/// Which analyses run. Matches Figure 2's B / F / A configurations.
enum class AnalysisMode : uint8_t {
  None,         ///< B: no analysis, every barrier stays
  FieldOnly,    ///< F: Section 2 field analysis
  FieldAndArray ///< A: field analysis + Section 3 array analysis
};

/// Fixpoint worklist discipline. RPO drains blocks in reverse post-order,
/// which on reducible CFGs propagates loop-body changes back to the head
/// before re-visiting everything downstream — a classic large reduction in
/// block visits versus FIFO. FIFO is kept for ablation and for the
/// engine-equivalence tests: elision decisions must not depend on the
/// iteration order, only the visit count may.
enum class WorklistOrder : uint8_t {
  RPO, ///< priority worklist keyed by reverse post-order index
  FIFO ///< the historical first-in-first-out deque
};

struct AnalysisConfig {
  AnalysisMode Mode = AnalysisMode::FieldAndArray;

  /// Fixpoint iteration order (see WorklistOrder).
  WorklistOrder Order = WorklistOrder::RPO;

  /// Section 4.3 null-or-same extension.
  bool EnableNullOrSame = false;
  /// Allow null-or-same elision on possibly-shared objects (the paper's
  /// inspection-based justification for synchronized code). Off by default.
  bool NosAssumeNoRaces = false;

  /// Ablation: two abstract references per allocation site (R_id/A most
  /// recent + R_id/B summary, Section 2.4). Off = one summary name per
  /// site, which forfeits strong update.
  bool TwoNamesPerSite = true;
  /// A first interprocedural step (the paper's Section 2.4 notes its lack
  /// of interprocedural techniques is detrimental; Section 6 calls for an
  /// integrated framework): calls to *pure readers* — callees that
  /// transitively perform no heap/static stores and return nothing
  /// reference-typed — neither escape their arguments nor invalidate
  /// null-or-same facts.
  bool UseCalleeSummaries = true;
  /// Ablation: the contract heuristic of Section 3.3. Off = any array
  /// store empties the null range.
  bool EnableContract = true;

  /// Capture a human-readable dump of every reachable block's fixpoint
  /// in-state into AnalysisResult::BlockStateDumps (debugging/teaching;
  /// see examples/paper_walkthrough.cpp).
  bool CaptureStates = false;

  /// Widening threshold: past this many *merges into* a block's in-state,
  /// integer merges stop creating variable unknowns and go to Top
  /// (termination backstop). Counting merges — not pops of the block —
  /// guarantees a join point that keeps changing widens after a bounded
  /// number of join operations regardless of iteration order.
  uint32_t MaxBlockVisits = 40;
  /// Cap on variable unknowns per analysis (termination backstop).
  uint32_t MaxVars = 512;
};

enum class ElisionReason : uint8_t {
  None,                ///< barrier stays
  DeadCode,            ///< store unreachable
  PreNullField,        ///< Section 2: field proven null before the write
  PreNullArrayElement, ///< Section 3: index inside the null range
  NullOrSame           ///< Section 4.3: overwrites null or rewrites same
};

/// Per-instruction verdict.
struct BarrierDecision {
  bool IsBarrierSite = false; ///< ref-typed putfield/aastore/putstatic
  bool IsArraySite = false;   ///< aastore
  bool Elide = false;
  /// Generational extension: every possible target of the store is proven
  /// *young* — allocated after the last potential GC point on every path —
  /// so the old-to-young remembered-set barrier is unnecessary (a young
  /// base object cannot hold the only old-to-young edge). Independent of
  /// Elide: the two compose into four barrier variants under
  /// BarrierMode::Generational. Never set for putstatic (statics are
  /// roots; no remembered-set barrier applies there at all).
  bool TargetYoung = false;
  ElisionReason Reason = ElisionReason::None;
};

struct AnalysisResult {
  std::vector<BarrierDecision> Decisions; ///< indexed by instruction

  // Static site counts over the analyzed body.
  uint32_t NumSites = 0;
  uint32_t NumArraySites = 0;
  uint32_t NumElided = 0;
  uint32_t NumElidedArray = 0;
  uint32_t NumElidedNullOrSame = 0;
  uint32_t NumTargetYoung = 0; ///< sites proven young-target (generational)

  // Analysis effort.
  uint32_t BlockVisits = 0;
  double AnalysisTimeUs = 0.0;

  /// One rendered fixpoint in-state per reachable block, in block order
  /// (only with AnalysisConfig::CaptureStates).
  std::vector<std::string> BlockStateDumps;
};

/// Runs the barrier-elision analysis on \p M (normally the post-inlining
/// body). \p M must verify against \p P; the compiler pipeline enforces
/// this. \p IsConstructorBody controls the special initial state for
/// constructors (Section 2.3).
AnalysisResult analyzeBarriers(const Program &P, const Method &M,
                               const AnalysisConfig &Cfg);

} // namespace satb

#endif // SATB_ANALYSIS_BARRIERANALYSIS_H
