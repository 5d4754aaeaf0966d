//===- tests/TestUtil.h - Shared test helpers ------------------*- C++ -*-===//
///
/// \file
/// Helpers shared across the analysis and integration tests: a small
/// class-model fixture, analysis runners, and decision lookups.
///
//===----------------------------------------------------------------------===//

#ifndef SATB_TESTS_TESTUTIL_H
#define SATB_TESTS_TESTUTIL_H

#include "analysis/BarrierAnalysis.h"
#include "bytecode/MethodBuilder.h"
#include "interp/Interpreter.h"
#include "verifier/Verifier.h"

#include <gtest/gtest.h>

namespace satb {
namespace testutil {

/// A program with one two-ref-field class, ready for building methods.
struct PairFixture {
  Program P;
  ClassId Pair;
  FieldId A, B;
  FieldId Count;
  StaticFieldId Sink;
  MethodId PairCtor; ///< Pair(this, a) { this.a = a; }

  PairFixture() {
    Pair = P.addClass("Pair");
    A = P.addField(Pair, "a", JType::Ref);
    B = P.addField(Pair, "b", JType::Ref);
    Count = P.addField(Pair, "count", JType::Int);
    Sink = P.addStaticField("sink", JType::Ref);
    MethodBuilder C(P, "Pair.<init>", Pair, {JType::Ref}, std::nullopt,
                    /*IsConstructor=*/true);
    C.aload(C.arg(0)).aload(C.arg(1)).putfield(A);
    C.ret();
    PairCtor = C.finish();
  }
};

/// Verifies then analyzes \p M directly (no inlining).
inline AnalysisResult analyze(const Program &P, MethodId Id,
                              AnalysisConfig Cfg = {}) {
  const Method &M = P.method(Id);
  VerifyResult VR = verifyMethod(P, M);
  EXPECT_TRUE(VR.Ok) << VR.Error;
  return analyzeBarriers(P, M, Cfg);
}

/// \returns the decision for the \p N-th barrier site (in instruction
/// order) of \p R.
inline const BarrierDecision &site(const AnalysisResult &R, unsigned N) {
  for (const BarrierDecision &D : R.Decisions)
    if (D.IsBarrierSite && N-- == 0)
      return D;
  static BarrierDecision Missing;
  EXPECT_TRUE(false) << "barrier site index out of range";
  return Missing;
}

/// Compiles and runs \p Entry, returning the stats summary; asserts the
/// run finished and no elision was dynamically unjustified.
inline BarrierStats::Summary runChecked(const Program &P, MethodId Entry,
                                        std::vector<int64_t> Args,
                                        CompilerOptions Opts = {}) {
  CompiledProgram CP = compileProgram(P, Opts);
  Heap H(P);
  Interpreter I(P, CP, H);
  EXPECT_EQ(I.run(Entry, Args), RunStatus::Finished)
      << "trap: " << trapName(I.trap());
  BarrierStats::Summary S = I.stats().summarize();
  EXPECT_EQ(S.Violations, 0u) << "elided barrier dynamically unjustified";
  return S;
}

/// Builds the canonical move-down delete loop:
///   deleteFirst(arr) { for (j=0; j < arr.length-1; j++) arr[j]=arr[j+1];
///                      return; }
inline MethodId buildDeleteFirst(Program &P, const char *Name) {
  MethodBuilder B(P, Name, {JType::Ref}, std::nullopt);
  Local Arr = B.arg(0);
  Local J = B.newLocal(JType::Int);
  Label Head = B.newLabel(), Exit = B.newLabel();
  B.iconst(0).istore(J);
  B.bind(Head);
  B.iload(J).aload(Arr).arraylength().iconst(1).isub().ifICmpGe(Exit);
  B.aload(Arr).iload(J);
  B.aload(Arr).iload(J).iconst(1).iadd().aaload();
  B.aastore();
  B.iinc(J, 1).jump(Head);
  B.bind(Exit).ret();
  return B.finish();
}

/// Everything two engines (or two translations) must agree on after a
/// run: the mutator equivalence and fusion suites compare these.
struct Observed {
  RunStatus Status = RunStatus::NotStarted;
  TrapKind Trap = TrapKind::None;
  int64_t ResultInt = 0;
  ObjRef ResultRef = NullRef;
  uint64_t Steps = 0;
  uint64_t BarrierCost = 0;
  std::vector<SiteStats> Sites;
  uint64_t Allocated = 0;
  uint64_t Live = 0;
  std::vector<bool> Reachable;
};

template <typename Engine>
inline Observed observe(const Engine &I, const Heap &H) {
  Observed O;
  O.Status = I.status();
  O.Trap = I.trap();
  O.ResultInt = I.result().Int;
  O.ResultRef = I.result().Ref;
  O.Steps = I.stepsExecuted();
  O.BarrierCost = modeledBarrierCost(I.stats());
  O.Sites = I.stats().flat();
  O.Allocated = H.numAllocated();
  O.Live = H.numLive();
  O.Reachable = computeReachable(H, I.collectRoots());
  return O;
}

inline void expectEqual(const Observed &Ref, const Observed &Fast,
                        const std::string &What) {
  EXPECT_EQ(Ref.Status, Fast.Status) << What;
  EXPECT_EQ(trapName(Ref.Trap), trapName(Fast.Trap)) << What;
  EXPECT_EQ(Ref.ResultInt, Fast.ResultInt) << What;
  EXPECT_EQ(Ref.ResultRef, Fast.ResultRef) << What;
  EXPECT_EQ(Ref.Steps, Fast.Steps) << What;
  EXPECT_EQ(Ref.BarrierCost, Fast.BarrierCost) << What;
  EXPECT_EQ(Ref.Allocated, Fast.Allocated) << What;
  EXPECT_EQ(Ref.Live, Fast.Live) << What;
  ASSERT_EQ(Ref.Sites.size(), Fast.Sites.size()) << What;
  for (size_t I = 0; I != Ref.Sites.size(); ++I)
    EXPECT_EQ(Ref.Sites[I], Fast.Sites[I])
        << What << " flat site " << I << ": execs "
        << Ref.Sites[I].Execs << "/" << Fast.Sites[I].Execs << " prenull "
        << Ref.Sites[I].PreNull << "/" << Fast.Sites[I].PreNull
        << " elided " << Ref.Sites[I].Elided << "/" << Fast.Sites[I].Elided;
  EXPECT_EQ(Ref.Reachable, Fast.Reachable) << What;
}

} // namespace testutil
} // namespace satb

#endif // SATB_TESTS_TESTUTIL_H
