//===- interp/BarrierStats.h - Dynamic barrier instrumentation -*- C++ -*-===//
///
/// \file
/// Per-store-site execution counters, reproducing the paper's
/// instrumentation (Section 4.2): "we also counted, for each compiled
/// store, the number of associated barrier executions in which the
/// pre-value of the updated location was null. We call a store site whose
/// pre-value is never (dynamically) non-null *potentially pre-null*.
/// Counting potentially pre-null sites is both a useful correctness check
/// (our analysis should only eliminate barriers at potentially pre-null
/// store sites!) and also provides an upper bound on the possible
/// effectiveness of the pre-null technique."
///
/// The Violations counter is that correctness check, generalized for the
/// null-or-same extension: an elided execution must overwrite null (or,
/// for a null-or-same elision, null-or-the-same-value). Tests assert it
/// stays zero.
///
//===----------------------------------------------------------------------===//

#ifndef SATB_INTERP_BARRIERSTATS_H
#define SATB_INTERP_BARRIERSTATS_H

#include "jit/Compiler.h"

#include <string>

namespace satb {

struct SiteStats {
  uint64_t Execs = 0;
  uint64_t PreNull = 0;    ///< executions whose pre-value was null
  uint64_t Elided = 0;     ///< executions that skipped the barrier
  uint64_t Rearranged = 0; ///< executions that skipped the log under the
                           ///< Section 4.3 rearrangement protocol
  uint64_t Violations = 0; ///< elided executions breaking the justification
  // Generational remembered-set counters (BarrierMode::Generational only).
  uint64_t RemSetDirtied = 0;    ///< executions that dirtied a remset card
  uint64_t RemSetElided = 0;     ///< executions skipping the remset barrier
  uint64_t RemSetViolations = 0; ///< young-target elisions on an old base
  /// Profile counter for the tiered engine's young-speculation: kept
  /// remembered-set executions whose base object was young (the remset
  /// barrier's own young test, counted instead of discarded). Execs and
  /// PreNull double as the null-seen profile.
  uint64_t YoungSeen = 0;
  // Tiered-execution counters (DESIGN.md "Tiered execution"); only the
  // fast engine's speculative tier touches them.
  uint64_t SpecElided = 0; ///< guarded executions that skipped a barrier
  uint64_t Deopts = 0;     ///< guard failures that deoptimized here
  bool IsArray = false;
  /// The compiled plan executed here (CompiledMethod::Plans) — the
  /// static tier's verdict, whichever tier ran the site.
  BarrierPlan Plan;
  ElisionReason Reason = ElisionReason::None;

  friend bool operator==(const SiteStats &A, const SiteStats &B) {
    return A.Execs == B.Execs && A.PreNull == B.PreNull &&
           A.Elided == B.Elided && A.Rearranged == B.Rearranged &&
           A.Violations == B.Violations &&
           A.RemSetDirtied == B.RemSetDirtied &&
           A.RemSetElided == B.RemSetElided &&
           A.RemSetViolations == B.RemSetViolations &&
           A.YoungSeen == B.YoungSeen && A.SpecElided == B.SpecElided &&
           A.Deopts == B.Deopts && A.IsArray == B.IsArray &&
           A.Plan == B.Plan && A.Reason == B.Reason;
  }
  friend bool operator!=(const SiteStats &A, const SiteStats &B) {
    return !(A == B);
  }
};

/// Per-site counters stored flat: one contiguous SiteStats array over the
/// whole program, indexed by CompiledProgram::instrOffsets()[M] + PC. The
/// flat layout lets the fast interpreter resolve a site to a direct
/// pointer at translation time, and makes site() a single add + index for
/// the reference engine.
class BarrierStats {
public:
  /// Prepares per-site slots from the compiled program's decisions.
  void init(const CompiledProgram &CP);

  SiteStats &site(MethodId M, uint32_t Instr) {
    assert(M + 1 < Offsets.size() &&
           Offsets[M] + Instr < Offsets[M + 1] && "unknown site");
    return Flat[Offsets[M] + Instr];
  }

  /// Direct pointer to the flat site array (stable after init); the fast
  /// interpreter's translated code indexes into it.
  SiteStats *flatData() { return Flat.data(); }
  const std::vector<SiteStats> &flat() const { return Flat; }
  uint32_t flatIndex(MethodId M, uint32_t Instr) const {
    assert(M + 1 < Offsets.size() && Offsets[M] + Instr < Offsets[M + 1] &&
           "unknown site");
    return Offsets[M] + Instr;
  }

  struct Summary {
    uint64_t TotalExecs = 0;
    uint64_t ElidedExecs = 0;
    uint64_t FieldExecs = 0;
    uint64_t ArrayExecs = 0;
    uint64_t FieldElided = 0;
    uint64_t ArrayElided = 0;
    uint64_t RearrangedExecs = 0;
    uint64_t PreNullExecs = 0;
    /// Executions at sites whose pre-value was never non-null (the paper's
    /// upper bound on pre-null elimination).
    uint64_t PotentiallyPreNullExecs = 0;
    uint64_t Violations = 0;
    // Generational remembered-set totals.
    uint64_t RemSetDirtied = 0;
    uint64_t RemSetElided = 0;
    uint64_t RemSetViolations = 0;
    /// Executions at heap-store sites with the young-target proof.
    uint64_t YoungExecs = 0;
    // Tiered-execution totals.
    uint64_t YoungSeen = 0;
    uint64_t SpecElided = 0;
    uint64_t Deopts = 0;

    double pctElided() const {
      return TotalExecs ? 100.0 * ElidedExecs / TotalExecs : 0.0;
    }
    double pctPotentiallyPreNull() const {
      return TotalExecs ? 100.0 * PotentiallyPreNullExecs / TotalExecs : 0.0;
    }
    double pctFieldElided() const {
      return FieldExecs ? 100.0 * FieldElided / FieldExecs : 0.0;
    }
    double pctArrayElided() const {
      return ArrayExecs ? 100.0 * ArrayElided / ArrayExecs : 0.0;
    }
  };

  Summary summarize() const;

  /// Folds another shard's dynamic counters into this one. Both must be
  /// init'ed from the same compiled program: per-site decision fields
  /// (IsArray, Plan, Reason) are translation
  /// facts, identical across shards, and are asserted to agree. Used by
  /// the multi-mutator driver to aggregate each engine's per-thread shard.
  void merge(const BarrierStats &Other);

  /// One row per executed site, sorted by descending execution count —
  /// the "most-frequently-executed store sites" listing of Section 4.3.
  struct SiteRow {
    MethodId M;
    uint32_t Instr;
    SiteStats Stats;
  };
  std::vector<SiteRow> topSites(size_t N, bool OnlyKept) const;

private:
  std::vector<SiteStats> Flat;    ///< one slot per instruction, all methods
  std::vector<uint32_t> Offsets;  ///< per-method start into Flat (size M+1)
};

} // namespace satb

#endif // SATB_INTERP_BARRIERSTATS_H
