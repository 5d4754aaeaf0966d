//===- jit/Compiler.h - The compilation pipeline ---------------*- C++ -*-===//
///
/// \file
/// The stand-in for the HotSpot client ("C1") JIT the paper modified:
/// inline -> verify -> analyze -> size. Each method of a program is
/// compiled to a CompiledMethod carrying its expanded body, per-site
/// barrier plans, and a modeled code size; the interpreter executes
/// CompiledMethods and fires barriers per the recorded decisions.
///
//===----------------------------------------------------------------------===//

#ifndef SATB_JIT_COMPILER_H
#define SATB_JIT_COMPILER_H

#include "analysis/BarrierAnalysis.h"
#include "inliner/Inliner.h"
#include "jit/BarrierPlan.h"
#include "jit/CodeSizeModel.h"

namespace satb {

/// Which execution engine runs the compiled program: the reference
/// switch-dispatch Interpreter or the pre-decoded threaded-dispatch
/// FastInterp (see interp/FastInterp.h). Both produce bit-identical
/// results; the fast engine is the measured configuration.
enum class InterpMode : uint8_t { Reference, Fast };

struct CompilerOptions {
  InlineOptions Inline;
  AnalysisConfig Analysis;
  BarrierMode Barrier = BarrierMode::Satb;
  /// Apply analysis verdicts to code generation. Off = analyze (and pay
  /// for it) but keep every barrier; used by instrumentation runs.
  bool ApplyElision = true;
  /// Section 4.3 array-rearrangement protocol: recognize move-down delete
  /// loops and replace their SATB logs with the optimistic tracing-state
  /// protocol (see analysis/Rearrange.h). Single-mutator / lock-
  /// disciplined code only, per the paper's closing caveat.
  bool EnableArrayRearrange = false;
  /// Worker threads for compileProgram. The analysis is intra-procedural,
  /// so methods compile independently; results are written into
  /// index-ordered slots, making the output identical to a serial compile
  /// regardless of scheduling. 0 = hardware concurrency, 1 = serial.
  unsigned CompileThreads = 0;
  /// Which mutator engine executes the compiled program (see InterpMode).
  InterpMode Interp = InterpMode::Reference;
};

struct CompiledMethod {
  MethodId Id = InvalidId;
  Method Body; ///< post-inlining body actually executed
  AnalysisResult Analysis;
  InlineStats Inlining;
  /// Per-instruction barrier plan: the site's whole barrier verdict
  /// (jit/BarrierPlan.h). Default (no barrier) at non-site PCs.
  std::vector<BarrierPlan> Plans;
  uint32_t RearrangeLoops = 0;
  uint32_t CodeSize = 0;
  uint32_t CodeSizeNoElision = 0; ///< same body, every barrier kept
  double CompileTimeUs = 0.0;
};

struct CompiledProgram {
  CompilerOptions Options;
  std::vector<CompiledMethod> Methods; ///< indexed by MethodId

  const CompiledMethod &method(MethodId Id) const {
    assert(Id < Methods.size() && "method id out of range");
    return Methods[Id];
  }

  uint32_t totalCodeSize() const;
  uint32_t totalCodeSizeNoElision() const;
  double totalCompileTimeUs() const;
  double totalAnalysisTimeUs() const;
  uint32_t totalBarrierSites() const;
  uint32_t totalElidedSites() const;

  /// Prefix sums of per-method instruction counts (size numMethods + 1).
  /// Offsets[M] + PC is the program-wide flat index of instruction PC of
  /// method M — the O(1) site-index space shared by BarrierStats and the
  /// fast-interpreter translation.
  std::vector<uint32_t> instrOffsets() const;
};

/// The one place a store site's barrier verdict is decided: the plan for
/// a barrier site with analysis verdict \p D under \p Opts (BarrierMode,
/// ApplyElision); \p ProtocolStore marks a Section 4.3 rearrangement
/// store.
BarrierPlan planFor(const CompilerOptions &Opts, const BarrierDecision &D,
                    bool ProtocolStore);

/// Compiles one method. \p M must be a member of \p P (given by id).
/// Asserts that the expanded body verifies; the analyses assume verified
/// input (Section 2.2).
CompiledMethod compileMethod(const Program &P, MethodId Id,
                             const CompilerOptions &Opts);

/// Compiles every method of \p P.
CompiledProgram compileProgram(const Program &P, const CompilerOptions &Opts);

} // namespace satb

#endif // SATB_JIT_COMPILER_H
