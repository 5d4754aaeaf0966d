//===- jit/BarrierPlan.h - One store site's barrier decision ---*- C++ -*-===//
///
/// \file
/// The compiler's whole verdict for one reference-store site, written
/// once (compileMethod) and read by everything downstream: the code-size
/// model prices it, BarrierStats records it, the reference Interpreter
/// switches on it, and the fast translation lowers it to the one
/// specialized opcode that executes exactly it (jit/FastCode.h,
/// SATB_FAST_STORE_OPS).
///
/// A plan has two independently removable components and a protocol bit:
///
///  - marking: the concurrent-marking barrier — the SATB log (or its
///    always-log flavor, or the incremental-update card), or Elided when
///    the Section 2/3 pre-null proof removed it;
///  - remembered set: the generational old-to-young barrier, Elided when
///    the young-target proof removed it (BarrierMode::Generational only);
///  - rearrange: the Section 4.3 protocol store, whose kept SATB barrier
///    skips the log while its array is inside an active bracket.
///
//===----------------------------------------------------------------------===//

#ifndef SATB_JIT_BARRIERPLAN_H
#define SATB_JIT_BARRIERPLAN_H

#include <cstdint>

namespace satb {

/// Which write barrier flavor the generated code carries at kept sites.
enum class BarrierMode : uint8_t {
  None,          ///< Table 2 "no-barrier": every barrier removed
  Satb,          ///< standard SATB: check marking, log non-null pre-values
  SatbAlwaysLog, ///< Table 2 "always-log": skip the marking check
  CardMarking,   ///< incremental-update comparison collector
  /// Generational heap: the SATB marking barrier composed with the
  /// old-to-young remembered-set barrier. Pre-null elision removes the
  /// marking component, the young-target proof (BarrierDecision::
  /// TargetYoung) removes the remembered-set component; the two compose
  /// independently in the site's BarrierPlan.
  Generational
};

enum class MarkPlan : uint8_t {
  None,      ///< no marking barrier (BarrierMode::None)
  Elided,    ///< removed by the pre-null proof
  Satb,      ///< check marking, log a non-null pre-value
  AlwaysLog, ///< log a non-null pre-value without the marking check
  Card,      ///< dirty the written object's card (incremental update)
};

enum class RemPlan : uint8_t {
  None,      ///< no remembered set in this mode
  Elided,    ///< removed by the young-target proof
  Kept,      ///< old-to-young card dirty (a static's is its root scan)
};

struct BarrierPlan {
  MarkPlan Mark = MarkPlan::None;
  RemPlan Rem = RemPlan::None;
  bool Rearrange = false;

  /// The rearrangement protocol modifies a kept SATB-flavor log only.
  bool rearranged() const {
    return Rearrange && (Mark == MarkPlan::Satb || Mark == MarkPlan::AlwaysLog);
  }
  /// The plan with every statically elided component put back — what
  /// the code-size model's no-elision column prices.
  BarrierPlan kept(BarrierMode Mode) const {
    BarrierPlan P = *this;
    if (P.Mark == MarkPlan::Elided)
      P.Mark = keptMark(Mode);
    if (P.Rem == RemPlan::Elided)
      P.Rem = RemPlan::Kept;
    return P;
  }
  static MarkPlan keptMark(BarrierMode Mode) {
    switch (Mode) {
    case BarrierMode::None:
      return MarkPlan::None;
    case BarrierMode::Satb:
    case BarrierMode::Generational:
      return MarkPlan::Satb;
    case BarrierMode::SatbAlwaysLog:
      return MarkPlan::AlwaysLog;
    case BarrierMode::CardMarking:
      return MarkPlan::Card;
    }
    return MarkPlan::None;
  }

  friend bool operator==(const BarrierPlan &A, const BarrierPlan &B) {
    return A.Mark == B.Mark && A.Rem == B.Rem && A.Rearrange == B.Rearrange;
  }
  friend bool operator!=(const BarrierPlan &A, const BarrierPlan &B) {
    return !(A == B);
  }
};

} // namespace satb

#endif // SATB_JIT_BARRIERPLAN_H
