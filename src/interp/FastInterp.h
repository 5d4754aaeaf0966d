//===- interp/FastInterp.h - Threaded-dispatch mutator engine --*- C++ -*-===//
///
/// \file
/// The fast mutator engine: executes the pre-decoded FastInst stream
/// produced by translateProgram with direct-threaded dispatch (computed
/// goto, a GNU extension the library already requires). Frames live in one
/// contiguous slot arena sized from translation-time stack-depth bounds,
/// and per-site barrier work is baked into specialized opcodes, so an
/// elided store executes zero barrier instructions.
///
/// The engine mirrors the reference Interpreter observable-for-
/// observable: statuses, traps, results, step counts, modeled barrier
/// cost, per-site statistics, allocation order, and root-collection
/// order are all bit-identical (tests/mutator_equivalence_test.cpp).
/// The reference engine remains the semantics oracle; select an engine
/// with CompilerOptions::Interp.
///
//===----------------------------------------------------------------------===//

#ifndef SATB_INTERP_FASTINTERP_H
#define SATB_INTERP_FASTINTERP_H

#include "gc/MutatorContext.h"
#include "interp/Interpreter.h"
#include "jit/FastCode.h"

namespace satb {

class FastInterp {
public:
  /// \p FP must be the translation of \p CP; both must outlive the engine.
  FastInterp(const FastProgram &FP, const CompiledProgram &CP, Heap &H);

  void attachSatb(SatbMarker *M) {
    Satb = M;
    Ctx.bindSatb(M);
  }
  void attachIncUpdate(IncrementalUpdateMarker *M) { Inc = M; }
  /// Remembered-set client for BarrierMode::Generational (the marking
  /// component still goes through the attached SatbMarker).
  void attachGen(MinorGC *M) { Gen = M; }

  /// The engine's per-thread runtime state (TLAB, SATB buffer, safepoint
  /// flag). The multi-mutator driver switches it to buffered mode and
  /// flushes it at stop-the-world points.
  MutatorContext &context() { return Ctx; }

  void start(MethodId Entry, const std::vector<int64_t> &IntArgs = {});
  RunStatus step(uint64_t MaxSteps);
  RunStatus run(MethodId Entry, const std::vector<int64_t> &IntArgs = {},
                uint64_t StepLimit = 2'000'000'000);

  RunStatus status() const { return Status; }
  TrapKind trap() const { return Trap; }
  Slot result() const { return Result; }
  uint64_t stepsExecuted() const { return Steps; }
  /// True when the engine last stopped at a translated Safepoint poll, or
  /// has not executed an instruction since start(); false when step()
  /// ran out of fuel between polls. Only at such a point may the
  /// multi-mutator driver park the engine for a pause (interp/Safepoint.h).
  bool atSafepoint() const { return AtSafepoint; }
  uint64_t barrierCostInstrs() const { return BarrierCost; }

  void collectRoots(std::vector<ObjRef> &Out) const;
  std::vector<ObjRef> collectRoots() const {
    std::vector<ObjRef> Roots;
    collectRoots(Roots);
    return Roots;
  }

  BarrierStats &stats() { return Stats; }
  const BarrierStats &stats() const { return Stats; }

  /// SATB_DISPATCH_PROFILE support: record dynamic opcode-pair
  /// frequencies. Only *adjacent* executions are counted (the next
  /// instruction dispatched is the previous one's fall-through
  /// successor) — exactly the population the superinstruction peephole
  /// can fuse. Profiling is compiled as a separate template
  /// instantiation of the dispatch loop, so the non-profiled hot path
  /// pays nothing. tools/dispatch_profile.cpp dumps the table.
  void enablePairProfile() { PairProfile.assign(kNumFastOps * kNumFastOps, 0); }
  /// Flat [first * kNumFastOps + second] counts; empty unless enabled.
  const std::vector<uint64_t> &pairProfile() const { return PairProfile; }

private:
  /// A suspended frame. IP/SP are flushed from the dispatch loop's locals
  /// when the engine suspends (fuel out, call, trap) and reloaded on
  /// resume.
  struct Frame {
    const FastMethod *FM = nullptr;
    const FastInst *IP = nullptr;
    Slot *Base = nullptr; ///< locals at Base[0..NumLocals), stack after
    Slot *SP = nullptr;   ///< one past top of operand stack
  };

  void setTrap(TrapKind K) {
    Trap = K;
    Status = RunStatus::Trapped;
  }

  /// The dispatch loop, instantiated twice: the production path
  /// (ProfilePairs = false, zero instrumentation) and the pair-profiling
  /// path step() selects when enablePairProfile() was called.
  template <bool ProfilePairs> RunStatus stepImpl(uint64_t MaxSteps);

  const FastProgram &FP;
  Heap &H;
  SatbMarker *Satb = nullptr;
  IncrementalUpdateMarker *Inc = nullptr;
  MinorGC *Gen = nullptr;
  MutatorContext Ctx;

  std::vector<Slot> Arena; ///< MaxCallDepth * MaxFrameSlots, never resized
  std::vector<Frame> Frames;
  RunStatus Status = RunStatus::NotStarted;
  TrapKind Trap = TrapKind::None;
  Slot Result;
  uint64_t Steps = 0;
  uint64_t BarrierCost = 0;
  bool AtSafepoint = false; ///< see atSafepoint()
  static constexpr uint32_t MaxCallDepth = 1024;
  BarrierStats Stats;
  SiteStats *Sites = nullptr;  ///< Stats.flatData(), resolved once
  ObjRef *StaticR = nullptr;   ///< H.staticRefsData()
  int64_t *StaticI = nullptr;  ///< H.staticIntsData()
  std::vector<uint64_t> PairProfile; ///< empty unless enablePairProfile()
};

} // namespace satb

#endif // SATB_INTERP_FASTINTERP_H
