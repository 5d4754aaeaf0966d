//===- tests/absvalue_test.cpp - Value domain, RefUniverse, helpers -------===//
///
/// \file
/// Unit tests for the pieces the bigger analysis tests exercise only
/// indirectly: AbstractValue lattice operations and annotations, the
/// RefUniverse naming scheme, the null-or-same sweep helpers, the code
/// size model, BarrierStats site reporting, and analysis termination on
/// pathological loops (the widening backstops).
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "analysis/NullOrSame.h"
#include "analysis/RefUniverse.h"
#include "jit/CodeSizeModel.h"

using namespace satb;
using namespace satb::testutil;

namespace {
IntVal simpleMerge(const IntVal &A, const IntVal &B) {
  return A == B ? A : IntVal::top();
}
} // namespace

// --- AbstractValue -----------------------------------------------------------

TEST(AbstractValue, DefaultIsBottom) {
  AbstractValue V;
  EXPECT_TRUE(V.isBottom());
  EXPECT_FALSE(V.isRefs());
  EXPECT_FALSE(V.isInt());
}

TEST(AbstractValue, NullRefIsEmptySet) {
  AbstractValue V = AbstractValue::nullRef(8);
  EXPECT_TRUE(V.isRefs());
  EXPECT_TRUE(V.isDefinitelyNull());
  AbstractValue S = AbstractValue::singleRef(8, 3);
  EXPECT_FALSE(S.isDefinitelyNull());
  EXPECT_TRUE(S.refSet().test(3));
  EXPECT_EQ(S.refSet().count(), 1u);
}

TEST(AbstractValue, MergeRefsUnions) {
  AbstractValue A = AbstractValue::singleRef(8, 1);
  AbstractValue B = AbstractValue::singleRef(8, 2);
  EXPECT_TRUE(A.mergeFrom(B, simpleMerge));
  EXPECT_TRUE(A.refSet().test(1));
  EXPECT_TRUE(A.refSet().test(2));
  // Merging a subset changes nothing.
  EXPECT_FALSE(A.mergeFrom(B, simpleMerge));
}

TEST(AbstractValue, MergeBottomIdentityBothWays) {
  AbstractValue A = AbstractValue::singleRef(4, 0);
  AbstractValue Bot = AbstractValue::bottom();
  AbstractValue Copy = A;
  EXPECT_FALSE(Copy.mergeFrom(Bot, simpleMerge));
  EXPECT_EQ(Copy, A);
  EXPECT_TRUE(Bot.mergeFrom(A, simpleMerge));
  EXPECT_EQ(Bot, A);
}

TEST(AbstractValue, MergeMixedKindsConflicts) {
  AbstractValue A = AbstractValue::singleRef(4, 0);
  AbstractValue I = AbstractValue::intVal(IntVal::constant(3));
  EXPECT_TRUE(A.mergeFrom(I, simpleMerge));
  EXPECT_EQ(A.kind(), AbstractValue::Kind::Conflict);
  // Conflict is absorbing.
  EXPECT_FALSE(A.mergeFrom(I, simpleMerge));
}

TEST(AbstractValue, IntMergeDelegates) {
  AbstractValue A = AbstractValue::intVal(IntVal::constant(3));
  AbstractValue B = AbstractValue::intVal(IntVal::constant(4));
  EXPECT_TRUE(A.mergeFrom(B, simpleMerge));
  EXPECT_TRUE(A.intValue().isTop());
}

TEST(AbstractValue, NosTagOrderingAndStrength) {
  AbstractValue V = AbstractValue::nullRef(4);
  V.addNosTag(NosTag{2, 7, false});
  V.addNosTag(NosTag{1, 9, true});
  V.addNosTag(NosTag{2, 7, true}); // upgrade to Eq
  ASSERT_EQ(V.nosTags().size(), 2u);
  EXPECT_EQ(V.nosTags()[0].BaseLocal, 1u);
  const NosTag *T = V.findNosTag(2, 7);
  ASSERT_NE(T, nullptr);
  EXPECT_TRUE(T->IsEq);
  V.dropNosTagsForField(7);
  EXPECT_EQ(V.findNosTag(2, 7), nullptr);
  EXPECT_NE(V.findNosTag(1, 9), nullptr);
  V.dropNosTagsForBase(1);
  EXPECT_TRUE(V.nosTags().empty());
}

TEST(AbstractValue, SrcLocalInvalidatesOnDisagreement) {
  AbstractValue A = AbstractValue::nullRef(4);
  A.setSrcLocal(2);
  AbstractValue B = AbstractValue::nullRef(4);
  B.setSrcLocal(2);
  EXPECT_FALSE(A.mergeFrom(B, simpleMerge));
  EXPECT_EQ(A.srcLocal(), 2u);
  B.setSrcLocal(3);
  EXPECT_TRUE(A.mergeFrom(B, simpleMerge));
  EXPECT_EQ(A.srcLocal(), InvalidId);
}

// --- RefUniverse -------------------------------------------------------------

TEST(RefUniverse, NamingScheme) {
  Program P;
  ClassId C = P.addClass("C");
  MethodBuilder B(P, "f", {JType::Ref, JType::Int, JType::Ref},
                  std::nullopt);
  B.newInstance(C).pop();
  B.iconst(2).newRefArray().pop();
  B.ret();
  const Method &M = P.method(B.finish());

  RefUniverse U(M, /*TwoNamesPerSite=*/true);
  EXPECT_EQ(RefUniverse::GlobalRef, 0u);
  EXPECT_NE(U.argRef(0), InvalidId);
  EXPECT_EQ(U.argRef(1), InvalidId); // int arg has no ref
  EXPECT_NE(U.argRef(2), InvalidId);
  EXPECT_EQ(U.numSites(), 2u);
  // 1 global + 2 ref args + 2 sites x 2 names.
  EXPECT_EQ(U.numRefs(), 7u);
  EXPECT_NE(U.siteA(0), U.siteB(0));
  EXPECT_TRUE(U.isSiteA(U.siteA(0)));
  EXPECT_FALSE(U.isSiteA(U.siteB(0)));
  EXPECT_EQ(U.siteOfRef(U.siteA(1)), 1u);
  EXPECT_EQ(U.siteOfRef(U.argRef(0)), InvalidId);
  // Site kinds.
  EXPECT_FALSE(U.isArrayRef(U.siteA(0)));  // newinstance
  EXPECT_TRUE(U.isRefArrayRef(U.siteA(1))); // newrefarray
  EXPECT_TRUE(U.isRefArrayRef(U.argRef(0))); // args may be anything
  // Debug names.
  EXPECT_EQ(U.refName(0), "Global");
  EXPECT_EQ(U.refName(U.argRef(0)), "Arg0");
  EXPECT_EQ(U.refName(U.siteA(0)), "Site0/A");
  EXPECT_EQ(U.refName(U.siteB(1)), "Site1/B");
}

TEST(RefUniverse, OneNameModeCollapsesPairs) {
  Program P;
  ClassId C = P.addClass("C");
  MethodBuilder B(P, "f", {}, std::nullopt);
  B.newInstance(C).pop().ret();
  const Method &M = P.method(B.finish());
  RefUniverse U(M, /*TwoNamesPerSite=*/false);
  EXPECT_EQ(U.siteA(0), U.siteB(0));
  EXPECT_FALSE(U.isSiteA(U.siteA(0))); // never unique
  EXPECT_FALSE(U.uniqueInContext(U.siteA(0), false));
}

TEST(RefUniverse, ConstructorThisUnique) {
  Program P;
  ClassId C = P.addClass("C");
  MethodBuilder B(P, "C.<init>", C, {}, std::nullopt, true);
  B.ret();
  const Method &M = P.method(B.finish());
  RefUniverse U(M, true);
  EXPECT_TRUE(U.uniqueInContext(U.argRef(0), /*IsConstructor=*/true));
  EXPECT_FALSE(U.uniqueInContext(U.argRef(0), /*IsConstructor=*/false));
  EXPECT_FALSE(U.uniqueInContext(RefUniverse::GlobalRef, true));
}

// --- NullOrSame helpers -------------------------------------------------------

TEST(NosHelpers, ApplyFactsTagsRefsOnly) {
  AnalysisState S;
  S.Locals.resize(1);
  S.addFact(0, 5);
  AbstractValue R = AbstractValue::nullRef(4);
  nos::applyFacts(S, R);
  EXPECT_NE(R.findNosTag(0, 5), nullptr);
  AbstractValue I = AbstractValue::intVal(IntVal::constant(1));
  nos::applyFacts(S, I);
  EXPECT_TRUE(I.nosTags().empty());
}

TEST(NosHelpers, InvalidationSweeps) {
  AnalysisState S;
  AbstractValue V = AbstractValue::nullRef(4);
  V.addNosTag(NosTag{0, 5, true});
  V.addNosTag(NosTag{1, 6, true});
  V.setSrcLocal(1);
  S.Locals.push_back(V);
  S.Stack.push_back(V);
  S.addFact(0, 5);
  S.addFact(1, 6);

  nos::onFieldWritten(S, 5);
  EXPECT_EQ(S.Locals[0].findNosTag(0, 5), nullptr);
  EXPECT_NE(S.Locals[0].findNosTag(1, 6), nullptr);
  EXPECT_FALSE(S.hasFact(0, 5));
  EXPECT_TRUE(S.hasFact(1, 6));

  nos::onLocalReassigned(S, 1);
  EXPECT_EQ(S.Stack[0].findNosTag(1, 6), nullptr);
  EXPECT_EQ(S.Stack[0].srcLocal(), InvalidId);
  EXPECT_FALSE(S.hasFact(1, 6));

  S.addFact(0, 7);
  S.Locals[0].addNosTag(NosTag{0, 7, true});
  nos::onCall(S);
  EXPECT_TRUE(S.Facts.empty());
  EXPECT_TRUE(S.Locals[0].nosTags().empty());
}

TEST(NosHelpers, KnownNullPromotesAnyStrength) {
  AnalysisState S;
  S.Locals.push_back(AbstractValue::nullRef(4));
  AbstractValue V = AbstractValue::nullRef(4);
  V.addNosTag(NosTag{0, 3, /*IsEq=*/false}); // Safe strength suffices
  nos::onKnownNull(S, V);
  EXPECT_TRUE(S.hasFact(0, 3));
  EXPECT_NE(S.Locals[0].findNosTag(0, 3), nullptr); // saturated
}

// --- CodeSizeModel -------------------------------------------------------------

TEST(CodeSizeModel, BarrierCostsMatchPaperBudget) {
  // Section 1: SATB barrier 9-12 RISC instructions; card barrier 2.
  EXPECT_GE(CodeSizeModel::SatbBarrierCost, 9u);
  EXPECT_LE(CodeSizeModel::SatbBarrierCost, 12u);
  EXPECT_EQ(CodeSizeModel::CardBarrierCost, 2u);
}

TEST(CodeSizeModel, BodyCostSumsBarriers) {
  std::vector<Instruction> Code = {
      {Opcode::IConst, 1, 0},
      {Opcode::AConstNull, 0, 0},
      {Opcode::PutField, 0, 0},
      {Opcode::Ret, 0, 0},
  };
  std::vector<BarrierPlan> NoBarriers(4);
  std::vector<BarrierPlan> WithBarrier(4);
  WithBarrier[2].Mark = MarkPlan::Satb;
  uint32_t Base = CodeSizeModel::bodyCost(Code, NoBarriers);
  uint32_t Full = CodeSizeModel::bodyCost(Code, WithBarrier);
  EXPECT_EQ(Full, Base + 11);
}

// --- BarrierStats reporting ----------------------------------------------------

TEST(BarrierStatsReport, TopSitesSortedAndFiltered) {
  PairFixture F;
  MethodBuilder B(F.P, "f", {JType::Int}, std::nullopt);
  Local T = B.newLocal(JType::Int), Pv = B.newLocal(JType::Ref);
  Label Head = B.newLabel(), Done = B.newLabel();
  B.iconst(0).istore(T);
  B.bind(Head).iload(T).iload(B.arg(0)).ifICmpGe(Done);
  B.newInstance(F.Pair).astore(Pv);
  B.aload(Pv).aload(Pv).putfield(F.A); // elided, hot
  B.aload(Pv).putstatic(F.Sink);       // kept, hot
  B.iinc(T, 1).jump(Head);
  B.bind(Done).ret();
  MethodId Id = B.finish();

  CompiledProgram CP = compileProgram(F.P, CompilerOptions{});
  Heap H(F.P);
  Interpreter I(F.P, CP, H);
  ASSERT_EQ(I.run(Id, {25}), RunStatus::Finished);

  auto All = I.stats().topSites(10, /*OnlyKept=*/false);
  ASSERT_EQ(All.size(), 2u);
  EXPECT_EQ(All[0].Stats.Execs, 25u);
  auto Kept = I.stats().topSites(10, /*OnlyKept=*/true);
  ASSERT_EQ(Kept.size(), 1u);
  EXPECT_NE(Kept[0].Stats.Plan.Mark, MarkPlan::Elided);
}

// --- Termination backstops ------------------------------------------------------

TEST(Termination, MultiplicativeInductionConverges) {
  // i = i*2 + 1 defeats the common-stride inference; the analysis must
  // still reach a fixed point (validation tops the component out).
  PairFixture F;
  MethodBuilder B(F.P, "f", {JType::Int}, std::nullopt);
  Local I = B.newLocal(JType::Int), Arr = B.newLocal(JType::Ref);
  Label Head = B.newLabel(), Done = B.newLabel();
  B.iconst(64).newRefArray().astore(Arr);
  B.iconst(1).istore(I);
  B.bind(Head).iload(I).iload(B.arg(0)).ifICmpGe(Done);
  B.aload(Arr).iload(I).iconst(63).irem().aload(Arr).aastore();
  B.iload(I).iconst(2).imul().iconst(1).iadd().istore(I);
  B.jump(Head);
  B.bind(Done).ret();
  B.finish();
  AnalysisResult R = analyze(F.P, F.P.findMethod("f"));
  EXPECT_LE(R.BlockVisits, 500u); // converged, no runaway
}

TEST(Termination, NestedLoopsWithManyStrides) {
  PairFixture F;
  MethodBuilder B(F.P, "f", {JType::Int}, std::nullopt);
  Local I = B.newLocal(JType::Int), J = B.newLocal(JType::Int);
  Local K = B.newLocal(JType::Int);
  Label HI = B.newLabel(), DI = B.newLabel();
  Label HJ = B.newLabel(), DJ = B.newLabel();
  B.iconst(0).istore(I).iconst(0).istore(K);
  B.bind(HI).iload(I).iload(B.arg(0)).ifICmpGe(DI);
  B.iconst(0).istore(J);
  B.bind(HJ).iload(J).iconst(10).ifICmpGe(DJ);
  B.iload(K).iconst(3).iadd().istore(K);
  B.iinc(J, 2).jump(HJ);
  B.bind(DJ).iinc(I, 1).jump(HI);
  B.bind(DI).ret();
  B.finish();
  AnalysisResult R = analyze(F.P, F.P.findMethod("f"));
  EXPECT_LE(R.BlockVisits, 500u);
}

TEST(Termination, WideningCapRespected) {
  // A loop whose integer component genuinely diverges every iteration:
  // the per-block visit budget must force convergence.
  PairFixture F;
  MethodBuilder B(F.P, "f", {JType::Int, JType::Int}, std::nullopt);
  Local I = B.newLocal(JType::Int);
  Label Head = B.newLabel(), Done = B.newLabel();
  B.iconst(0).istore(I);
  B.bind(Head).iload(I).iload(B.arg(0)).ifICmpGe(Done);
  // i += arg1 (a symbolic stride the literal-stride machinery cannot
  // name).
  B.iload(I).iload(B.arg(1)).iadd().istore(I);
  B.jump(Head);
  B.bind(Done).ret();
  B.finish();
  AnalysisConfig Cfg;
  Cfg.MaxBlockVisits = 5;
  AnalysisResult R = analyze(F.P, F.P.findMethod("f"), Cfg);
  EXPECT_LE(R.BlockVisits, 200u);
}

// --- Inliner budget --------------------------------------------------------------

TEST(InlinerBudget, MaxExpandedSizeStopsGrowth) {
  Program P;
  MethodBuilder Leaf(P, "leaf", {}, JType::Int);
  for (int I = 0; I != 40; ++I)
    Leaf.iconst(I).pop();
  Leaf.iconst(1).ireturn();
  MethodId LeafId = Leaf.finish();

  MethodBuilder Caller(P, "f", {}, JType::Int);
  for (int I = 0; I != 10; ++I)
    Caller.invoke(LeafId).pop();
  Caller.iconst(0).ireturn();
  MethodId FId = Caller.finish();

  InlineOptions Opts;
  Opts.InlineLimit = 100;
  Opts.MaxExpandedSize = 120; // room for ~2 copies only
  InlineStats Stats;
  Method Expanded = inlineMethod(P, P.method(FId), Opts, &Stats, FId);
  EXPECT_GT(Stats.CallSitesInlined, 0u);
  EXPECT_GT(Stats.CallSitesKept, 0u);
  EXPECT_LE(Expanded.Instructions.size(), 200u);
  EXPECT_TRUE(verifyMethod(P, Expanded).Ok);
}

// --- Disassembler for synthetic opcodes ------------------------------------------

TEST(Disassembler, SyntheticOpcodesNamed) {
  EXPECT_STREQ(opcodeName(Opcode::RearrangeEnter), "rearrange_enter");
  EXPECT_STREQ(opcodeName(Opcode::RearrangeExit), "rearrange_exit");
  EXPECT_FALSE(isBranch(Opcode::RearrangeEnter));
  EXPECT_FALSE(isTerminator(Opcode::RearrangeExit));
}

// --- State capture (CaptureStates) ------------------------------------------

TEST(StateCapture, ExpandDumpShowsSharedStrideVariable) {
  Program P;
  MethodBuilder Dummy(P, "unused", {}, std::nullopt);
  Dummy.ret();
  Dummy.finish();
  // Build expand inline (mirrors workloads/StdLib without the dependency).
  MethodBuilder B(P, "expand", {JType::Ref}, JType::Ref);
  Local Ta = B.arg(0), NewTa = B.newLocal(JType::Ref),
        I = B.newLocal(JType::Int);
  Label Loop = B.newLabel(), Done = B.newLabel();
  B.aload(Ta).arraylength().iconst(2).imul().newRefArray().astore(NewTa);
  B.iconst(0).istore(I);
  B.bind(Loop).iload(I).aload(Ta).arraylength().ifICmpGe(Done);
  B.aload(NewTa).iload(I).aload(Ta).iload(I).aaload().aastore();
  B.iinc(I, 1).jump(Loop);
  B.bind(Done).aload(NewTa).areturn();
  MethodId Expand = B.finish();

  AnalysisConfig Cfg;
  Cfg.CaptureStates = true;
  AnalysisResult R = analyzeBarriers(P, P.method(Expand), Cfg);
  ASSERT_FALSE(R.BlockStateDumps.empty());
  // The loop-head state must express the index local and the null range's
  // lower bound with the same variable unknown (the paper's Section 3.5
  // invariant).
  bool FoundInvariant = false;
  for (const std::string &Dump : R.BlockStateDumps)
    if (Dump.find("local2=v0") != std::string::npos &&
        Dump.find("[v0..2*c0 - 1]") != std::string::npos)
      FoundInvariant = true;
  EXPECT_TRUE(FoundInvariant);
  // Off by default: no dumps.
  AnalysisResult R2 = analyzeBarriers(P, P.method(Expand), AnalysisConfig{});
  EXPECT_TRUE(R2.BlockStateDumps.empty());
}
