//===- tests/compiler_test.cpp - Pipeline, code size, modes ---------------===//

#include "TestUtil.h"

#include "workloads/StdLib.h"

using namespace satb;
using namespace satb::testutil;

namespace {

/// A caller whose elisions depend on inlining: the constructor initializes
/// one field, the caller initializes another after the call.
struct InlineSensitive {
  PairFixture F;
  MethodId Main;

  InlineSensitive() {
    MethodBuilder B(F.P, "main", {JType::Int}, std::nullopt);
    Local T = B.newLocal(JType::Int), Pv = B.newLocal(JType::Ref);
    Label Head = B.newLabel(), Done = B.newLabel();
    B.iconst(0).istore(T);
    B.bind(Head).iload(T).iload(B.arg(0)).ifICmpGe(Done);
    B.newInstance(F.Pair).dup().aconstNull().invoke(F.PairCtor).astore(Pv);
    B.aload(Pv).aload(Pv).putfield(F.B); // needs the ctor inlined
    B.aload(Pv).putstatic(F.Sink);
    B.iinc(T, 1).jump(Head);
    B.bind(Done).ret();
    Main = B.finish();
  }
};

} // namespace

TEST(Compiler, PipelineVerifiesAndAnalyzes) {
  InlineSensitive S;
  CompiledProgram CP = compileProgram(S.F.P, CompilerOptions{});
  ASSERT_EQ(CP.Methods.size(), S.F.P.numMethods());
  const CompiledMethod &CM = CP.method(S.Main);
  EXPECT_GT(CM.Body.Instructions.size(),
            S.F.P.method(S.Main).Instructions.size()); // ctor inlined
  EXPECT_GT(CM.Analysis.NumSites, 0u);
  EXPECT_GT(CM.CompileTimeUs, 0.0);
}

TEST(Compiler, InlineLimitControlsElision) {
  InlineSensitive S;
  CompilerOptions NoInline;
  NoInline.Inline.InlineLimit = 0;
  CompilerOptions WithInline;
  WithInline.Inline.InlineLimit = 100;

  CompiledMethod CM0 = compileMethod(S.F.P, S.Main, NoInline);
  CompiledMethod CM100 = compileMethod(S.F.P, S.Main, WithInline);
  // Without inlining the object escapes at the constructor call, so the
  // caller-side store keeps its barrier; with inlining both stores elide.
  EXPECT_LT(CM0.Analysis.NumElided, CM100.Analysis.NumElided);
  EXPECT_EQ(CM0.Inlining.CallSitesInlined, 0u);
  EXPECT_GT(CM100.Inlining.CallSitesInlined, 0u);
}

TEST(Compiler, BarrierKeptReflectsDecisionsAndMode) {
  InlineSensitive S;
  CompilerOptions Opts;
  CompiledMethod CM = compileMethod(S.F.P, S.Main, Opts);
  for (size_t I = 0; I != CM.Plans.size(); ++I) {
    const BarrierDecision &D = CM.Analysis.Decisions[I];
    EXPECT_EQ(CM.Plans[I].Mark == MarkPlan::Satb, D.IsBarrierSite && !D.Elide);
  }
  CompilerOptions NoBarrier;
  NoBarrier.Barrier = BarrierMode::None;
  CompiledMethod CMN = compileMethod(S.F.P, S.Main, NoBarrier);
  for (const BarrierPlan &Plan : CMN.Plans)
    EXPECT_TRUE(Plan.Mark == MarkPlan::None || Plan.Mark == MarkPlan::Elided);
}

TEST(Compiler, ApplyElisionOffKeepsBarriers) {
  InlineSensitive S;
  CompilerOptions Opts;
  Opts.ApplyElision = false;
  CompiledMethod CM = compileMethod(S.F.P, S.Main, Opts);
  EXPECT_GT(CM.Analysis.NumElided, 0u); // analysis still ran
  for (size_t I = 0; I != CM.Plans.size(); ++I)
    EXPECT_EQ(CM.Plans[I].Mark == MarkPlan::Satb,
              CM.Analysis.Decisions[I].IsBarrierSite);
}

TEST(Compiler, CodeSizeShrinksWithElision) {
  InlineSensitive S;
  CompiledMethod CM = compileMethod(S.F.P, S.Main, CompilerOptions{});
  EXPECT_LT(CM.CodeSize, CM.CodeSizeNoElision);
  EXPECT_EQ(CM.CodeSizeNoElision - CM.CodeSize,
            CM.Analysis.NumElided * CodeSizeModel::SatbBarrierCost);
}

TEST(Compiler, CardBarrierSmallerThanSatb) {
  InlineSensitive S;
  CompilerOptions Satb;
  CompilerOptions Card;
  Card.Barrier = BarrierMode::CardMarking;
  Card.ApplyElision = false;
  Satb.ApplyElision = false;
  CompiledMethod A = compileMethod(S.F.P, S.Main, Satb);
  CompiledMethod B = compileMethod(S.F.P, S.Main, Card);
  EXPECT_GT(A.CodeSize, B.CodeSize);
}

TEST(Compiler, ModeOrderingBFA) {
  // Elisions grow monotonically B <= F <= A on a mixed workload.
  Program P;
  MethodId Expand = addExpandMethod(P, "expand");
  (void)Expand;
  VectorParts V = addVectorClass(P, "t.");
  (void)V;
  uint32_t Elided[3];
  int I = 0;
  for (AnalysisMode Mode : {AnalysisMode::None, AnalysisMode::FieldOnly,
                            AnalysisMode::FieldAndArray}) {
    CompilerOptions Opts;
    Opts.Analysis.Mode = Mode;
    Elided[I++] = compileProgram(P, Opts).totalElidedSites();
  }
  EXPECT_EQ(Elided[0], 0u);
  EXPECT_LE(Elided[0], Elided[1]);
  EXPECT_LT(Elided[1], Elided[2]); // the array analysis finds more
}

TEST(Compiler, TotalsAggregate) {
  InlineSensitive S;
  CompiledProgram CP = compileProgram(S.F.P, CompilerOptions{});
  uint32_t Sites = 0, Elided = 0, Size = 0;
  for (const CompiledMethod &CM : CP.Methods) {
    Sites += CM.Analysis.NumSites;
    Elided += CM.Analysis.NumElided;
    Size += CM.CodeSize;
  }
  EXPECT_EQ(CP.totalBarrierSites(), Sites);
  EXPECT_EQ(CP.totalElidedSites(), Elided);
  EXPECT_EQ(CP.totalCodeSize(), Size);
  EXPECT_GE(CP.totalCompileTimeUs(), CP.totalAnalysisTimeUs());
}

TEST(Compiler, SemanticsPreservedAcrossModes) {
  // The same program computes the same result under every mode/limit.
  Program P;
  VectorParts V = addVectorClass(P, "t.");
  MethodBuilder B(P, "driver", {JType::Int}, JType::Int);
  Local T = B.newLocal(JType::Int), Vec = B.newLocal(JType::Ref);
  Label Head = B.newLabel(), Done = B.newLabel();
  B.newInstance(V.Vec).dup().iconst(2).invoke(V.Ctor).astore(Vec);
  B.iconst(0).istore(T);
  B.bind(Head).iload(T).iload(B.arg(0)).ifICmpGe(Done);
  B.aload(Vec).aload(Vec).invoke(V.Add);
  B.iinc(T, 1).jump(Head);
  B.bind(Done).aload(Vec).getfield(V.Size).ireturn();
  MethodId Driver = B.finish();

  for (uint32_t Limit : {0u, 25u, 100u, 200u}) {
    for (AnalysisMode Mode : {AnalysisMode::None, AnalysisMode::FieldOnly,
                              AnalysisMode::FieldAndArray}) {
      CompilerOptions Opts;
      Opts.Inline.InlineLimit = Limit;
      Opts.Analysis.Mode = Mode;
      CompiledProgram CP = compileProgram(P, Opts);
      Heap H(P);
      Interpreter I(P, CP, H);
      ASSERT_EQ(I.run(Driver, {37}), RunStatus::Finished);
      EXPECT_EQ(I.result().Int, 37);
      EXPECT_EQ(I.stats().summarize().Violations, 0u);
    }
  }
}

TEST(Compiler, AnalysisTimeGrowsWithMode) {
  // Mode A does strictly more work than mode B on a nontrivial method.
  Program P;
  addExpandMethod(P, "expand");
  CompilerOptions BOpts, AOpts;
  BOpts.Analysis.Mode = AnalysisMode::None;
  AOpts.Analysis.Mode = AnalysisMode::FieldAndArray;
  double BTime = compileProgram(P, BOpts).totalAnalysisTimeUs();
  double ATime = compileProgram(P, AOpts).totalAnalysisTimeUs();
  EXPECT_GE(ATime, BTime);
}
