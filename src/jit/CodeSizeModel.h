//===- jit/CodeSizeModel.h - RISC instruction-count code size --*- C++ -*-===//
///
/// \file
/// A compiled-code size model standing in for the paper's SPARC code
/// generator. Section 1 gives the barrier budget: the inline portion of an
/// SATB barrier costs "between 9 and 12 RISC instructions", while a
/// card-marking barrier "can cost as few as two extra instructions per
/// pointer write". Figure 3 measures the 2-6% compiled-code size reduction
/// from eliding barriers; this model regenerates that figure.
///
//===----------------------------------------------------------------------===//

#ifndef SATB_JIT_CODESIZEMODEL_H
#define SATB_JIT_CODESIZEMODEL_H

#include "bytecode/Program.h"
#include "jit/BarrierPlan.h"

namespace satb {

struct CodeSizeModel {
  /// The barrier price list: each step a barrier can take, in modeled RISC
  /// instructions. The static costs below and the dynamic cost of a run
  /// (modeledBarrierCost in interp/BarrierStats.h) are both sums of these.
  ///
  /// SATB: check marking-in-progress, load the pre-value and null-test it,
  /// then fill the log-buffer entry and check for overflow out of line.
  static constexpr uint32_t MarkingCheck = 2;
  static constexpr uint32_t PreValueTest = 3;
  static constexpr uint32_t LogPreValue = 6;
  /// Always-log (Section 4.5): no marking check; load and null-test.
  static constexpr uint32_t AlwaysLogTest = 3;
  /// Generational remembered set: young-test the base, null + young-test
  /// the stored value, shift + store byte on the slow edge.
  static constexpr uint32_t RemBaseTest = 2;
  static constexpr uint32_t RemValueTest = 2;
  static constexpr uint32_t RemCardDirty = 2;
  /// Section 4.3 rearrangement: a protocol store's in-bracket check (the
  /// state reads are hoisted); the bracket enter's marking check, then its
  /// log of the dropped element and tracing-state read; the bracket exit.
  static constexpr uint32_t InBracketCheck = 1;
  static constexpr uint32_t BracketEnterCheck = 2;
  static constexpr uint32_t BracketEnterLog = 3;
  static constexpr uint32_t BracketExit = 2;

  /// Inline SATB barrier sequence, every step taken: the middle of the
  /// paper's 9-12 range.
  static constexpr uint32_t SatbBarrierCost =
      MarkingCheck + PreValueTest + LogPreValue;
  static constexpr uint32_t AlwaysLogBarrierCost = AlwaysLogTest + LogPreValue;
  /// Card-marking barrier: shift + store byte.
  static constexpr uint32_t CardBarrierCost = 2;
  /// Generational remembered-set barrier, every step taken. Charged per
  /// store site in BarrierMode::Generational on top of any kept marking
  /// barrier; removed by the young-target proof.
  static constexpr uint32_t GenRemSetCost =
      RemBaseTest + RemValueTest + RemCardDirty;

  /// \returns the modeled machine-instruction count for one bytecode,
  /// excluding any write barrier.
  static uint32_t instrCost(const Instruction &I);

  /// \returns the modeled instruction count of the barrier \p P planned
  /// at \p I: the marking component's sequence plus, at a heap store,
  /// the remembered-set component (statics are roots, not remembered-set
  /// clients).
  static uint32_t barrierCost(const Instruction &I, BarrierPlan P);

  /// \returns the modeled size of a whole body given per-instruction
  /// barrier plans (\p Plans may be shorter than \p Code).
  static uint32_t bodyCost(const std::vector<Instruction> &Code,
                           const std::vector<BarrierPlan> &Plans);
};

} // namespace satb

#endif // SATB_JIT_CODESIZEMODEL_H
