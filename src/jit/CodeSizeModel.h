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
  /// Inline SATB barrier sequence: check marking-in-progress (2), load the
  /// pre-value and null-test it (3), fill the log-buffer entry and check
  /// for overflow on the slow path stub (4+). We charge the middle of the
  /// paper's 9-12 range.
  static constexpr uint32_t SatbBarrierCost = 11;
  /// Card-marking barrier: shift + store byte.
  static constexpr uint32_t CardBarrierCost = 2;
  /// Generational remembered-set barrier: young-test the base (2), null +
  /// young-test the stored value (2), shift + store byte on the slow edge
  /// (2). Charged per store site in BarrierMode::Generational on top of
  /// any kept marking barrier; removed by the young-target proof.
  static constexpr uint32_t GenRemSetCost = 6;

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
