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
/// The speculative tier adds the guarded forms (GuardNull, GuardYoung):
/// the component is skipped behind a dynamic guard and replayed
/// conservatively, followed by a deopt, when the guard fails.
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
  GuardNull, ///< speculative: skip while Pre == null, else Satb + deopt
  GuardNullAlwaysLog, ///< speculative: as GuardNull over AlwaysLog
};

enum class RemPlan : uint8_t {
  None,      ///< no remembered set in this mode
  Elided,    ///< removed by the young-target proof
  Kept,      ///< old-to-young card dirty (a static's is its root scan)
  GuardYoung ///< speculative: skip while the base is young, else Kept + deopt
};

struct BarrierPlan {
  MarkPlan Mark = MarkPlan::None;
  RemPlan Rem = RemPlan::None;
  bool Rearrange = false;

  bool guarded() const {
    return Mark == MarkPlan::GuardNull ||
           Mark == MarkPlan::GuardNullAlwaysLog || Rem == RemPlan::GuardYoung;
  }
  /// The rearrangement protocol modifies a kept SATB-flavor log only.
  bool rearranged() const {
    return Rearrange && (Mark == MarkPlan::Satb || Mark == MarkPlan::AlwaysLog);
  }
  /// The speculative tier may guard a kept SATB-flavor log with Pre ==
  /// null — not a card (it keys on the new value, which the guard cannot
  /// discharge) and not a rearranged store (a logging protocol the guard
  /// says nothing about).
  bool canGuardNull() const {
    return (Mark == MarkPlan::Satb || Mark == MarkPlan::AlwaysLog) &&
           !rearranged();
  }
  /// ... and a kept remembered-set barrier at a heap store (a static's
  /// is the minor collector's root scan, which no guard removes).
  bool canGuardYoung(bool IsStatic) const {
    return Rem == RemPlan::Kept && !IsStatic;
  }

  /// The plan with every statically elided component put back — what
  /// the Baseline (profiling) tier executes and what the code-size
  /// model's no-elision column prices.
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

  /// One-byte encoding (FastInst::C of a speculative store site).
  uint16_t bits() const {
    return static_cast<uint16_t>(static_cast<unsigned>(Mark) |
                                 static_cast<unsigned>(Rem) << 3 |
                                 static_cast<unsigned>(Rearrange) << 5);
  }
  static BarrierPlan fromBits(uint16_t B) {
    return BarrierPlan{static_cast<MarkPlan>(B & 7),
                       static_cast<RemPlan>((B >> 3) & 3), ((B >> 5) & 1) != 0};
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
