//===- interp/Interpreter.h - The mutator ----------------------*- C++ -*-===//
///
/// \file
/// A resumable bytecode interpreter executing CompiledMethods against the
/// Heap. It plays the paper's mutator: at every reference store it
/// consults the compiler's per-site barrier decision, executes (or skips)
/// the SATB / card-marking write barrier, and maintains the Section 4.2
/// instrumentation counters.
///
/// The interpreter is step-driven so marking can be interleaved with
/// mutation at instruction granularity; runWithConcurrentCycle drives one
/// deterministic concurrent cycle of either marker and checks its
/// correctness oracle.
///
/// Integer semantics are JVM int: 32-bit two's-complement wraparound
/// (relevant to the Section 3.6 overflow discussion). Traps (null
/// dereference, bounds, division by zero, negative array size) terminate
/// execution with a TrapKind, modeling Java exceptions in a
/// no-catch-clause world (see footnote 1 of the paper).
///
//===----------------------------------------------------------------------===//

#ifndef SATB_INTERP_INTERPRETER_H
#define SATB_INTERP_INTERPRETER_H

#include "gc/IncrementalUpdateMarker.h"
#include "gc/MinorGC.h"
#include "gc/SatbMarker.h"
#include "heap/Heap.h"
#include "interp/BarrierStats.h"
#include "jit/Compiler.h"

namespace satb {

enum class RunStatus : uint8_t { NotStarted, Running, Finished, Trapped };

enum class TrapKind : uint8_t {
  None,
  NullPointer,
  OutOfBounds,
  NegativeArraySize,
  DivisionByZero,
  BadFieldAccess, ///< field access on an object of the wrong class
  StackOverflow,
  StepLimit ///< run() exhausted its step budget
};

const char *trapName(TrapKind K);

/// One operand-stack or local slot. Stores both representations; the
/// verifier guarantees each slot is used consistently, and keeping the
/// reference half accurate (zeroed on integer writes) makes conservative
/// root scanning exact.
struct Slot {
  int64_t Int = 0;
  ObjRef Ref = NullRef;

  static Slot ofInt(int64_t V) { return Slot{V, NullRef}; }
  static Slot ofRef(ObjRef R) { return Slot{0, R}; }
};

class Interpreter {
public:
  Interpreter(const Program &P, const CompiledProgram &CP, Heap &H);

  /// Attach collectors; the barrier flavor comes from the compiled
  /// program's BarrierMode.
  void attachSatb(SatbMarker *M) { Satb = M; }
  void attachIncUpdate(IncrementalUpdateMarker *M) { Inc = M; }
  /// Remembered-set client for BarrierMode::Generational (the marking
  /// component still goes through the attached SatbMarker).
  void attachGen(MinorGC *M) { Gen = M; }

  /// Begins execution of \p Entry. \p IntArgs fill the method's (int-only)
  /// parameters; missing args default to 0.
  void start(MethodId Entry, const std::vector<int64_t> &IntArgs = {});

  /// Executes up to \p MaxSteps instructions.
  RunStatus step(uint64_t MaxSteps);

  /// Convenience: start + step to completion (or \p StepLimit).
  RunStatus run(MethodId Entry, const std::vector<int64_t> &IntArgs = {},
                uint64_t StepLimit = 2'000'000'000);

  RunStatus status() const { return Status; }
  TrapKind trap() const { return Trap; }
  /// Value returned by the entry method (zero slot for void).
  Slot result() const { return Result; }
  uint64_t stepsExecuted() const { return Steps; }

  /// Total modeled RISC instructions executed: per-opcode execution counts
  /// weighted by the CodeSizeModel, plus the dynamic barrier cost
  /// (modeledBarrierCost of stats()). A deterministic machine-level
  /// throughput measure (the paper's numbers reflect compiled code, where
  /// this is the ground truth; interpreter wall time buries the barrier
  /// delta in dispatch overhead).
  uint64_t modeledInstrsExecuted() const;

  /// Conservative roots: every non-null reference slot in live frames.
  /// The overload appends into a caller-owned scratch vector (cleared
  /// first) so per-slice root scans in the concurrent drivers do not
  /// allocate.
  void collectRoots(std::vector<ObjRef> &Out) const;
  std::vector<ObjRef> collectRoots() const {
    std::vector<ObjRef> Roots;
    collectRoots(Roots);
    return Roots;
  }

  BarrierStats &stats() { return Stats; }
  const BarrierStats &stats() const { return Stats; }

private:
  struct Frame {
    const CompiledMethod *CM = nullptr;
    uint32_t PC = 0;
    std::vector<Slot> Locals;
    std::vector<Slot> Stack;
  };

  void pushFrame(MethodId Id);
  bool stepOne(); ///< \returns false when execution stopped
  void setTrap(TrapKind K) {
    Trap = K;
    Status = RunStatus::Trapped;
  }

  /// Instruments and executes the write barrier for a reference store of
  /// \p N slots of \p Base (NullRef for statics); a scalar store is a
  /// range of one, and one execution is one site event. \p Pre points at
  /// the destination slots (read before any store), \p NewVals at the
  /// stored values with stride \p NewStride (0 = one value repeated, 1 = a
  /// source range). Mode checks, the remembered-set young tests and card
  /// dirtying are paid once per store; only SATB pre-value logging stays
  /// per non-null slot (the log itself is per-value).
  void storeBarrier(const Frame &F, uint32_t PC, ObjRef Base,
                    const ObjRef *Pre, size_t N, const ObjRef *NewVals,
                    size_t NewStride);

  const Program &P;
  const CompiledProgram &CP;
  Heap &H;
  SatbMarker *Satb = nullptr;
  IncrementalUpdateMarker *Inc = nullptr;
  MinorGC *Gen = nullptr;

  std::vector<Frame> Frames;
  RunStatus Status = RunStatus::NotStarted;
  TrapKind Trap = TrapKind::None;
  Slot Result;
  uint64_t Steps = 0;
  uint64_t OpcodeCounts[64] = {};
  uint32_t MaxCallDepth = 1024;
  BarrierStats Stats;
};

// --- The deterministic concurrent-cycle driver -----------------------------

struct ConcurrentRunConfig {
  uint64_t WarmupSteps = 1000;   ///< mutator steps before marking starts
  uint64_t MutatorQuantum = 64;  ///< mutator steps per slice
  size_t MarkerQuantum = 16;     ///< marker work units per slice
  uint64_t StepLimit = 200'000'000;
};

/// One cycle's totals (CycleTotals: oracle, marked, pause work, swept) and
/// the mutator's outcome.
struct ConcurrentRunResult : CycleTotals {
  RunStatus Status = RunStatus::NotStarted;
  TrapKind Trap = TrapKind::None;
};

/// Runs \p Entry with one marking cycle of \p M (SATB or incremental
/// update) begun after WarmupSteps, then mutator and marker alternating in
/// fixed quanta on the calling thread: the schedule, and so every count,
/// is a pure function of the inputs. The cycle's oracle is checked before
/// the sweep (CycleEdges). Templated over the engine so the reference
/// Interpreter and the FastInterp run the same schedule (the equivalence
/// test drives both).
template <typename Engine>
ConcurrentRunResult runWithConcurrentCycle(Engine &I, ConcurrentMarker &M,
                                           Heap &H, MethodId Entry,
                                           const std::vector<int64_t> &IntArgs,
                                           const ConcurrentRunConfig &Cfg) {
  ConcurrentRunResult R;
  CycleEdges Edges(M, H, R);
  I.start(Entry, IntArgs);
  I.step(Cfg.WarmupSteps);
  Edges.begin(I.collectRoots());

  uint64_t Remaining = Cfg.StepLimit;
  bool MarkerDone = false;
  while (I.status() == RunStatus::Running && !MarkerDone && Remaining > 0) {
    uint64_t Quantum = Cfg.MutatorQuantum < Remaining ? Cfg.MutatorQuantum
                                                      : Remaining;
    I.step(Quantum);
    Remaining -= Quantum;
    MarkerDone = M.markStep(Cfg.MarkerQuantum);
  }
  Edges.finish([&] { return I.collectRoots(); });

  // Let the mutator finish (barriers now inactive).
  if (I.status() == RunStatus::Running && Remaining > 0)
    I.step(Remaining);
  R.Status = I.status();
  R.Trap = I.trap();
  return R;
}

} // namespace satb

#endif // SATB_INTERP_INTERPRETER_H
