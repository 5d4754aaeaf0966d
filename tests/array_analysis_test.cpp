//===- tests/array_analysis_test.cpp - Section 3 array analysis -----------===//
///
/// \file
/// Tests the array-element pre-null analysis: the paper's expand example,
/// forward/backward/constant-index fills, the contract heuristic's
/// conservatism (strided and out-of-order fills), escape interaction, the
/// Section 3.6 overflow defenses, and the mode/ablation knobs.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "workloads/StdLib.h"

using namespace satb;
using namespace satb::testutil;

namespace {

/// fill(n): arr = new T[n]; for (i = Start; 0 <= i < n; i += Stride)
/// arr[i] = arr; return arr. Start < 0 means n + Start.
MethodId buildFill(Program &P, const char *Name, int32_t Start,
                   int32_t Stride) {
  MethodBuilder B(P, Name, {JType::Int}, JType::Ref);
  Local N = B.arg(0);
  Local Arr = B.newLocal(JType::Ref), I = B.newLocal(JType::Int);
  Label Loop = B.newLabel(), Done = B.newLabel();
  B.iload(N).newRefArray().astore(Arr);
  if (Start >= 0)
    B.iconst(Start).istore(I);
  else
    B.iload(N).iconst(-Start).isub().istore(I);
  B.bind(Loop);
  B.iload(I).iconst(0).ifICmpLt(Done);
  B.iload(I).iload(N).ifICmpGe(Done);
  B.aload(Arr).iload(I).aload(Arr).aastore();
  B.iinc(I, Stride).jump(Loop);
  B.bind(Done);
  B.aload(Arr).areturn();
  return B.finish();
}

/// main(n): n times, write every slot of a 64-slot ref array, by a fill
/// (the array into itself) or a copy from a published source, with one
/// bulk bytecode (\p Bulk) or a per-slot loop. \p Fresh allocates the
/// destination per iteration (range elidable); otherwise it is one
/// published long-lived array (range barrier kept).
MethodId buildSlotWrites(Program &P, bool Copy, bool Bulk, bool Fresh) {
  constexpr int32_t Len = 64; // one mark word's worth of slots
  StaticFieldId SrcS = P.addStaticField("src", JType::Ref);
  StaticFieldId DstS = P.addStaticField("dst", JType::Ref);
  MethodBuilder B(P, "main", {JType::Int}, JType::Int);
  Local N = B.arg(0), T = B.newLocal(JType::Int), I = B.newLocal(JType::Int);
  Local Src = B.newLocal(JType::Ref), Dst = B.newLocal(JType::Ref);
  Label Head = B.newLabel(), Done = B.newLabel();
  if (Copy) { // the source: filled while fresh, then published
    B.iconst(Len).newRefArray().astore(Src);
    B.aload(Src).aload(Src).iconst(0).iconst(Len).arrayfill();
    B.aload(Src).putstatic(SrcS);
  }
  if (!Fresh) {
    B.iconst(Len).newRefArray().astore(Dst);
    B.aload(Dst).putstatic(DstS); // escape: the null range dies here
  }
  B.iconst(0).istore(T);
  B.bind(Head).iload(T).iload(N).ifICmpGe(Done);
  if (Fresh)
    B.iconst(Len).newRefArray().astore(Dst);
  if (Bulk && Copy) {
    B.aload(Src).iconst(0).aload(Dst).iconst(0).iconst(Len).arraycopy();
  } else if (Bulk) {
    B.aload(Dst).aload(Dst).iconst(0).iconst(Len).arrayfill();
  } else {
    Label IHead = B.newLabel(), IDone = B.newLabel();
    B.iconst(0).istore(I);
    B.bind(IHead).iload(I).iconst(Len).ifICmpGe(IDone);
    B.aload(Dst).iload(I);
    if (Copy)
      B.aload(Src).iload(I).aaload();
    else
      B.aload(Dst);
    B.aastore();
    B.iinc(I, 1).jump(IHead);
    B.bind(IDone);
  }
  B.iinc(T, 1).jump(Head);
  B.bind(Done).iload(T).ireturn();
  return B.finish();
}

} // namespace

TEST(ArrayAnalysis, PaperExpandExampleElides) {
  Program P;
  MethodId Expand = addExpandMethod(P, "expand");
  AnalysisResult R = analyze(P, Expand);
  ASSERT_EQ(R.NumArraySites, 1u);
  EXPECT_EQ(R.NumElidedArray, 1u);
  EXPECT_EQ(site(R, 0).Reason, ElisionReason::PreNullArrayElement);
}

TEST(ArrayAnalysis, ExpandKeptInFieldOnlyMode) {
  Program P;
  MethodId Expand = addExpandMethod(P, "expand");
  AnalysisConfig Cfg;
  Cfg.Mode = AnalysisMode::FieldOnly;
  AnalysisResult R = analyze(P, Expand, Cfg);
  EXPECT_EQ(R.NumElidedArray, 0u);
}

TEST(ArrayAnalysis, ForwardFillElides) {
  Program P;
  MethodId Id = buildFill(P, "fwd", 0, 1);
  AnalysisResult R = analyze(P, Id);
  EXPECT_EQ(R.NumElidedArray, 1u);
  runChecked(P, P.findMethod("fwd"), {64});
}

TEST(ArrayAnalysis, BackwardFillElides) {
  // Initialization from the high end contracts the To-range.
  Program P;
  MethodId Id = buildFill(P, "bwd", -1, -1);
  AnalysisResult R = analyze(P, Id);
  EXPECT_EQ(R.NumElidedArray, 1u);
  runChecked(P, P.findMethod("bwd"), {64});
}

TEST(ArrayAnalysis, StridedFillKept) {
  // Every-other-element initialization leaves interior holes; contract
  // must lose the range and the barrier stays.
  Program P;
  MethodId Id = buildFill(P, "strided", 0, 2);
  AnalysisResult R = analyze(P, Id);
  EXPECT_EQ(R.NumElidedArray, 0u);
}

TEST(ArrayAnalysis, ConstantIndexStoresElide) {
  Program P;
  PairFixture F; // unused fixture pieces; only need a program shell
  MethodBuilder B(F.P, "f", {}, std::nullopt);
  Local Arr = B.newLocal(JType::Ref);
  B.iconst(3).newRefArray().astore(Arr);
  B.aload(Arr).iconst(0).aload(Arr).aastore(); // in order from 0: elided
  B.aload(Arr).iconst(1).aload(Arr).aastore();
  B.aload(Arr).iconst(2).aload(Arr).aastore();
  B.ret();
  B.finish();
  AnalysisResult R = analyze(F.P, F.P.findMethod("f"));
  EXPECT_EQ(R.NumArraySites, 3u);
  EXPECT_EQ(R.NumElidedArray, 3u);
  runChecked(F.P, F.P.findMethod("f"), {});
}

TEST(ArrayAnalysis, OutOfOrderConstantIndexKept) {
  PairFixture F;
  MethodBuilder B(F.P, "f", {}, std::nullopt);
  Local Arr = B.newLocal(JType::Ref);
  B.iconst(4).newRefArray().astore(Arr);
  B.aload(Arr).iconst(2).aload(Arr).aastore(); // interior first: elidable?
  B.aload(Arr).iconst(0).aload(Arr).aastore(); // range already lost
  B.ret();
  B.finish();
  AnalysisResult R = analyze(F.P, F.P.findMethod("f"));
  // The first store is provably inside [0..3] (0 <= 2, bounds check covers
  // the top) so it elides; but contract then loses everything, keeping the
  // second even though it is dynamically pre-null.
  EXPECT_TRUE(site(R, 0).Elide);
  EXPECT_FALSE(site(R, 1).Elide);
  runChecked(F.P, F.P.findMethod("f"), {});
}

TEST(ArrayAnalysis, RepeatedStoreToSameIndexKept) {
  PairFixture F;
  MethodBuilder B(F.P, "f", {JType::Ref}, std::nullopt);
  Local Arr = B.newLocal(JType::Ref);
  B.iconst(2).newRefArray().astore(Arr);
  B.aload(Arr).iconst(0).aload(B.arg(0)).aastore(); // elided
  B.aload(Arr).iconst(0).aload(B.arg(0)).aastore(); // same slot: kept
  B.ret();
  B.finish();
  AnalysisResult R = analyze(F.P, F.P.findMethod("f"));
  EXPECT_TRUE(site(R, 0).Elide);
  EXPECT_FALSE(site(R, 1).Elide);
}

TEST(ArrayAnalysis, EscapedArrayStoresKept) {
  PairFixture F;
  MethodBuilder B(F.P, "f", {}, std::nullopt);
  Local Arr = B.newLocal(JType::Ref);
  B.iconst(4).newRefArray().astore(Arr);
  B.aload(Arr).putstatic(F.Sink); // escape before the fill
  B.aload(Arr).iconst(0).aload(Arr).aastore();
  B.ret();
  B.finish();
  AnalysisResult R = analyze(F.P, F.P.findMethod("f"));
  EXPECT_EQ(R.NumElidedArray, 0u);
}

TEST(ArrayAnalysis, ArgumentArrayStoresKept) {
  PairFixture F;
  MethodBuilder B(F.P, "f", {JType::Ref}, std::nullopt);
  B.aload(B.arg(0)).iconst(0).aconstNull().aastore();
  B.ret();
  B.finish();
  AnalysisResult R = analyze(F.P, F.P.findMethod("f"));
  EXPECT_EQ(R.NumElidedArray, 0u);
}

TEST(ArrayAnalysis, UnknownLengthStillElidesForwardFill) {
  // Length comes from an argument (a constant unknown): the Full range
  // [0..c0-1] with Len = c0 still proves in-order stores.
  PairFixture F;
  MethodBuilder B(F.P, "f", {JType::Int}, JType::Ref);
  Local Arr = B.newLocal(JType::Ref), I = B.newLocal(JType::Int);
  Label Loop = B.newLabel(), Done = B.newLabel();
  B.iload(B.arg(0)).newRefArray().astore(Arr);
  B.iconst(0).istore(I);
  B.bind(Loop).iload(I).iload(B.arg(0)).ifICmpGe(Done);
  B.aload(Arr).iload(I).aload(Arr).aastore();
  B.iinc(I, 1).jump(Loop);
  B.bind(Done).aload(Arr).areturn();
  B.finish();
  AnalysisResult R = analyze(F.P, F.P.findMethod("f"));
  EXPECT_EQ(R.NumElidedArray, 1u);
  runChecked(F.P, F.P.findMethod("f"), {33});
}

TEST(ArrayAnalysis, TopLengthDisablesRange) {
  // Length from a call result is Top: no null range, no elision.
  PairFixture F;
  MethodBuilder Len(F.P, "len", {}, JType::Int);
  Len.iconst(8).ireturn();
  MethodId LenId = Len.finish();
  MethodBuilder B(F.P, "f", {}, std::nullopt);
  Local Arr = B.newLocal(JType::Ref);
  B.invoke(LenId).newRefArray().astore(Arr);
  B.aload(Arr).iconst(0).aload(Arr).aastore();
  B.ret();
  B.finish();
  AnalysisResult R = analyze(F.P, F.P.findMethod("f"));
  EXPECT_EQ(R.NumElidedArray, 0u);
}

TEST(ArrayAnalysis, ContractAblationKillsLoopElision) {
  Program P;
  MethodId Expand = addExpandMethod(P, "expand");
  AnalysisConfig Cfg;
  Cfg.EnableContract = false;
  AnalysisResult R = analyze(P, Expand, Cfg);
  EXPECT_EQ(R.NumElidedArray, 0u);
}

TEST(ArrayAnalysis, NegativeStrideLoopWithWraparoundStaysSound) {
  // Section 3.6: in-order initialization means a wrapped index would trap
  // (negative) before touching an initialized element. Build a loop that
  // *would* wrap if barriers were wrongly elided past the range: fill
  // downward past zero. The analysis elides the store (every dynamic
  // execution is in-range and pre-null); executions past the low end trap
  // before storing.
  PairFixture F;
  MethodBuilder B(F.P, "f", {JType::Int}, JType::Ref);
  Local Arr = B.newLocal(JType::Ref), I = B.newLocal(JType::Int);
  Label Loop = B.newLabel();
  B.iload(B.arg(0)).newRefArray().astore(Arr);
  B.iload(B.arg(0)).iconst(1).isub().istore(I);
  // No exit condition: the loop runs until the index goes negative and
  // the bounds check traps.
  B.bind(Loop);
  B.aload(Arr).iload(I).aload(Arr).aastore();
  B.iinc(I, -1).jump(Loop);
  MethodId Id = B.finish();

  AnalysisResult R = analyze(F.P, Id);
  EXPECT_EQ(R.NumElidedArray, 1u);

  // Execute: must trap OutOfBounds without ever eliding unsoundly.
  CompiledProgram CP = compileProgram(F.P, CompilerOptions{});
  Heap H(F.P);
  Interpreter Interp(F.P, CP, H);
  EXPECT_EQ(Interp.run(Id, {16}), RunStatus::Trapped);
  EXPECT_EQ(Interp.trap(), TrapKind::OutOfBounds);
  EXPECT_EQ(Interp.stats().summarize().Violations, 0u);
}

TEST(ArrayAnalysis, IntArraysNeverBarrierSites) {
  PairFixture F;
  MethodBuilder B(F.P, "f", {}, std::nullopt);
  Local Arr = B.newLocal(JType::Ref);
  B.iconst(4).newIntArray().astore(Arr);
  B.aload(Arr).iconst(0).iconst(7).iastore();
  B.ret();
  B.finish();
  AnalysisResult R = analyze(F.P, F.P.findMethod("f"));
  EXPECT_EQ(R.NumSites, 0u);
}

TEST(ArrayAnalysis, AALoadEscapeInteraction) {
  // A value loaded from an escaped array is GlobalRef; storing a local
  // object into it escapes the object.
  PairFixture F;
  MethodBuilder B(F.P, "f", {JType::Ref}, std::nullopt);
  Local X = B.newLocal(JType::Ref), Q = B.newLocal(JType::Ref);
  B.newInstance(F.Pair).astore(X);
  B.aload(B.arg(0)).iconst(0).aaload().astore(Q);
  B.aload(Q).aload(X).putfield(F.A); // x escapes into a global object
  B.aload(X).aconstNull().putfield(F.B); // kept
  B.ret();
  B.finish();
  AnalysisResult R = analyze(F.P, F.P.findMethod("f"));
  EXPECT_FALSE(site(R, 0).Elide);
  EXPECT_FALSE(site(R, 1).Elide);
}

TEST(ArrayAnalysis, TwoArraysIndependentRanges) {
  PairFixture F;
  MethodBuilder B(F.P, "f", {}, std::nullopt);
  Local A1 = B.newLocal(JType::Ref), A2 = B.newLocal(JType::Ref);
  B.iconst(2).newRefArray().astore(A1);
  B.iconst(2).newRefArray().astore(A2);
  B.aload(A1).iconst(0).aload(A2).aastore(); // elided
  B.aload(A2).iconst(0).aload(A1).aastore(); // elided (separate range)
  B.aload(A1).iconst(0).aload(A2).aastore(); // kept (A1[0] written)
  B.aload(A2).iconst(1).aload(A1).aastore(); // elided (A2 in order)
  B.ret();
  B.finish();
  AnalysisResult R = analyze(F.P, F.P.findMethod("f"));
  EXPECT_TRUE(site(R, 0).Elide);
  EXPECT_TRUE(site(R, 1).Elide);
  EXPECT_FALSE(site(R, 2).Elide);
  EXPECT_TRUE(site(R, 3).Elide);
  runChecked(F.P, F.P.findMethod("f"), {});
}

TEST(ArrayAnalysis, MergedArraysNeedBothRanges) {
  // arr points to one of two fresh arrays; both have full null ranges, so
  // a store at index 0 elides for either target.
  PairFixture F;
  MethodBuilder B(F.P, "f", {JType::Int}, std::nullopt);
  Local Arr = B.newLocal(JType::Ref);
  Label Else = B.newLabel(), Join = B.newLabel();
  B.iload(B.arg(0)).ifeq(Else);
  B.iconst(4).newRefArray().astore(Arr).jump(Join);
  B.bind(Else).iconst(8).newRefArray().astore(Arr);
  B.bind(Join).aload(Arr).iconst(0).aconstNull().aastore();
  B.ret();
  B.finish();
  AnalysisResult R = analyze(F.P, F.P.findMethod("f"));
  EXPECT_TRUE(site(R, 0).Elide);
  runChecked(F.P, F.P.findMethod("f"), {1});
}

// --- Bulk stores (ArrayFill / ArrayCopy): the Section 3 null-range proof
// --- lifted from single indices to whole destination ranges.

TEST(ArrayBulkAnalysis, FreshArrayFullFillElides) {
  PairFixture F;
  MethodBuilder B(F.P, "f", {}, std::nullopt);
  Local Arr = B.newLocal(JType::Ref);
  B.iconst(4).newRefArray().astore(Arr);
  B.aload(Arr).aload(Arr).iconst(0).iconst(4).arrayfill();
  B.ret();
  B.finish();
  AnalysisResult R = analyze(F.P, F.P.findMethod("f"));
  ASSERT_EQ(R.NumArraySites, 1u);
  EXPECT_EQ(R.NumElidedArray, 1u);
  EXPECT_EQ(site(R, 0).Reason, ElisionReason::PreNullArrayElement);
  runChecked(F.P, F.P.findMethod("f"), {});
}

TEST(ArrayBulkAnalysis, PrefixFillComposesWithPerSlotStores) {
  // A bulk prefix contracts the range exactly like an in-order scalar
  // sequence: the next per-slot store at index Count still elides, while
  // a store back into the filled prefix is kept.
  PairFixture F;
  MethodBuilder B(F.P, "f", {}, std::nullopt);
  Local Arr = B.newLocal(JType::Ref);
  B.iconst(4).newRefArray().astore(Arr);
  B.aload(Arr).aconstNull().iconst(0).iconst(2).arrayfill(); // elided
  B.aload(Arr).iconst(2).aload(Arr).aastore();               // elided
  B.aload(Arr).iconst(0).aload(Arr).aastore();               // kept
  B.ret();
  B.finish();
  AnalysisResult R = analyze(F.P, F.P.findMethod("f"));
  EXPECT_TRUE(site(R, 0).Elide);
  EXPECT_TRUE(site(R, 1).Elide);
  EXPECT_FALSE(site(R, 2).Elide);
  runChecked(F.P, F.P.findMethod("f"), {});
}

TEST(ArrayBulkAnalysis, InteriorFillElidesButKillsRange) {
  // An interior range of a fresh array is still provably pre-null (the
  // bounds check discharges the top, lo is 0), but a non-in-order bulk
  // store loses the range — Section 3.6's contract rule, range form — so
  // everything after degrades to kept.
  PairFixture F;
  MethodBuilder B(F.P, "f", {}, std::nullopt);
  Local Arr = B.newLocal(JType::Ref);
  B.iconst(4).newRefArray().astore(Arr);
  B.aload(Arr).aconstNull().iconst(1).iconst(2).arrayfill(); // elided
  B.aload(Arr).iconst(0).aload(Arr).aastore(); // dynamically pre-null,
                                               // statically kept
  B.ret();
  B.finish();
  AnalysisResult R = analyze(F.P, F.P.findMethod("f"));
  EXPECT_TRUE(site(R, 0).Elide);
  EXPECT_FALSE(site(R, 1).Elide);
  runChecked(F.P, F.P.findMethod("f"), {});
}

TEST(ArrayBulkAnalysis, HighEndFillContractsDownward) {
  // Bulk store ending at the range's high end: [0..3] minus [2..4) leaves
  // [0..1], and in-order scalar stores keep consuming from the top.
  PairFixture F;
  MethodBuilder B(F.P, "f", {}, std::nullopt);
  Local Arr = B.newLocal(JType::Ref);
  B.iconst(4).newRefArray().astore(Arr);
  B.aload(Arr).aconstNull().iconst(2).iconst(2).arrayfill(); // elided
  B.aload(Arr).iconst(1).aload(Arr).aastore();               // elided
  B.aload(Arr).iconst(0).aload(Arr).aastore();               // elided
  B.ret();
  B.finish();
  AnalysisResult R = analyze(F.P, F.P.findMethod("f"));
  EXPECT_EQ(R.NumElidedArray, 3u);
  runChecked(F.P, F.P.findMethod("f"), {});
}

TEST(ArrayBulkAnalysis, ZeroLengthFillPreservesRange) {
  // A zero-count fill writes nothing: it elides (vacuously pre-null) and
  // contracts the range by zero, so the follow-up store still elides.
  PairFixture F;
  MethodBuilder B(F.P, "f", {}, std::nullopt);
  Local Arr = B.newLocal(JType::Ref);
  B.iconst(2).newRefArray().astore(Arr);
  B.aload(Arr).aload(Arr).iconst(0).iconst(0).arrayfill();
  B.aload(Arr).iconst(0).aload(Arr).aastore();
  B.ret();
  B.finish();
  AnalysisResult R = analyze(F.P, F.P.findMethod("f"));
  EXPECT_TRUE(site(R, 0).Elide);
  EXPECT_TRUE(site(R, 1).Elide);
  runChecked(F.P, F.P.findMethod("f"), {});
}

TEST(ArrayBulkAnalysis, EscapedArrayBulkKept) {
  PairFixture F;
  MethodBuilder B(F.P, "f", {}, std::nullopt);
  Local Arr = B.newLocal(JType::Ref);
  B.iconst(4).newRefArray().astore(Arr);
  B.aload(Arr).putstatic(F.Sink); // escape before the fill
  B.aload(Arr).aconstNull().iconst(0).iconst(4).arrayfill();
  B.ret();
  B.finish();
  AnalysisResult R = analyze(F.P, F.P.findMethod("f"));
  EXPECT_EQ(R.NumElidedArray, 0u);
}

TEST(ArrayBulkAnalysis, CopyIntoFreshDstElides) {
  // ArrayCopy judges only the destination range; the source is read-only,
  // so its own null range survives the copy.
  PairFixture F;
  MethodBuilder B(F.P, "f", {}, std::nullopt);
  Local Src = B.newLocal(JType::Ref), Dst = B.newLocal(JType::Ref);
  B.iconst(4).newRefArray().astore(Src);
  B.iconst(4).newRefArray().astore(Dst);
  B.aload(Src).iconst(0).aload(Dst).iconst(0).iconst(2).arraycopy(); // elided
  B.aload(Dst).iconst(2).aload(Dst).aastore(); // elided (dst contracted)
  B.aload(Src).iconst(0).aload(Dst).aastore(); // elided (src untouched)
  B.ret();
  B.finish();
  AnalysisResult R = analyze(F.P, F.P.findMethod("f"));
  EXPECT_TRUE(site(R, 0).Elide);
  EXPECT_EQ(site(R, 0).Reason, ElisionReason::PreNullArrayElement);
  EXPECT_TRUE(site(R, 1).Elide);
  EXPECT_TRUE(site(R, 2).Elide);
  runChecked(F.P, F.P.findMethod("f"), {});
}

TEST(ArrayBulkAnalysis, TopCountKeepsBulkBarrier) {
  // A count from a call result is Top: no range judgment is possible.
  PairFixture F;
  MethodBuilder Len(F.P, "len", {}, JType::Int);
  Len.iconst(2).ireturn();
  MethodId LenId = Len.finish();
  MethodBuilder B(F.P, "f", {}, std::nullopt);
  Local Arr = B.newLocal(JType::Ref);
  B.iconst(4).newRefArray().astore(Arr);
  B.aload(Arr).aconstNull().iconst(0).invoke(LenId).arrayfill();
  B.ret();
  B.finish();
  AnalysisResult R = analyze(F.P, F.P.findMethod("f"));
  EXPECT_EQ(R.NumElidedArray, 0u);
  runChecked(F.P, F.P.findMethod("f"), {});
}

TEST(ArrayBulkAnalysis, ContractAblationKillsFollowUpElision) {
  // With contraction disabled, the fill itself still elides (judged
  // against the pre-store range) but the range dies, keeping the
  // follow-up store.
  PairFixture F;
  MethodBuilder B(F.P, "f", {}, std::nullopt);
  Local Arr = B.newLocal(JType::Ref);
  B.iconst(4).newRefArray().astore(Arr);
  B.aload(Arr).aconstNull().iconst(0).iconst(2).arrayfill();
  B.aload(Arr).iconst(2).aload(Arr).aastore();
  B.ret();
  B.finish();
  AnalysisConfig Cfg;
  Cfg.EnableContract = false;
  AnalysisResult R = analyze(F.P, F.P.findMethod("f"), Cfg);
  EXPECT_TRUE(site(R, 0).Elide);
  EXPECT_FALSE(site(R, 1).Elide);
}

TEST(ArrayBulkAnalysis, FieldOnlyModeKeepsBulkSites) {
  PairFixture F;
  MethodBuilder B(F.P, "f", {}, std::nullopt);
  Local Arr = B.newLocal(JType::Ref);
  B.iconst(4).newRefArray().astore(Arr);
  B.aload(Arr).aconstNull().iconst(0).iconst(4).arrayfill();
  B.ret();
  B.finish();
  AnalysisConfig Cfg;
  Cfg.Mode = AnalysisMode::FieldOnly;
  AnalysisResult R = analyze(F.P, F.P.findMethod("f"), Cfg);
  EXPECT_EQ(R.NumArraySites, 1u);
  EXPECT_EQ(R.NumElidedArray, 0u);
}

TEST(ArrayBulkAnalysis, CallKillsYoungButNotNullRange) {
  // A constructor call between allocation and fill is a potential GC
  // point: the generational young-target proof dies, but null-ness is
  // GC-invariant, so the range — and the marking elision — survive.
  PairFixture F;
  MethodBuilder B(F.P, "f", {}, std::nullopt);
  Local Arr = B.newLocal(JType::Ref), Q = B.newLocal(JType::Ref);
  B.iconst(4).newRefArray().astore(Arr);
  B.aload(Arr).aload(Arr).iconst(0).iconst(2).arrayfill(); // young + elided
  B.newInstance(F.Pair).dup().aconstNull().invoke(F.PairCtor).astore(Q);
  B.aload(Arr).aload(Q).iconst(2).iconst(2).arrayfill(); // old + elided
  B.ret();
  B.finish();
  AnalysisResult R = analyze(F.P, F.P.findMethod("f"));
  EXPECT_TRUE(site(R, 0).Elide);
  EXPECT_TRUE(site(R, 0).TargetYoung);
  EXPECT_TRUE(site(R, 1).Elide);
  EXPECT_FALSE(site(R, 1).TargetYoung);
  runChecked(F.P, F.P.findMethod("f"), {});
}

TEST(ArrayBulkAnalysis, LoopBackEdgeKillsYoungForBulkStores) {
  // A fill reached through a loop back-edge targets an array that may
  // have survived a poll-triggered minor GC: TargetYoung must be false
  // for the pre-loop array but true for one allocated in the iteration.
  PairFixture F;
  MethodBuilder B(F.P, "f", {JType::Int}, std::nullopt);
  Local Old = B.newLocal(JType::Ref), Fresh = B.newLocal(JType::Ref);
  Local T = B.newLocal(JType::Int);
  Label Head = B.newLabel(), Done = B.newLabel();
  B.iconst(4).newRefArray().astore(Old);
  B.iconst(0).istore(T);
  B.bind(Head).iload(T).iload(B.arg(0)).ifICmpGe(Done);
  B.aload(Old).aconstNull().iconst(0).iconst(4).arrayfill(); // not young
  B.iconst(4).newRefArray().astore(Fresh);
  B.aload(Fresh).aconstNull().iconst(0).iconst(4).arrayfill(); // young
  B.iinc(T, 1).jump(Head);
  B.bind(Done).ret();
  B.finish();
  AnalysisResult R = analyze(F.P, F.P.findMethod("f"));
  EXPECT_FALSE(site(R, 0).TargetYoung);
  EXPECT_TRUE(site(R, 1).TargetYoung);
  EXPECT_TRUE(site(R, 1).Elide);
  runChecked(F.P, F.P.findMethod("f"), {8});
}

TEST(ArrayBulkAnalysis, SelfCopyAfterFillKept) {
  // A self-copy of a still-fresh array elides like any interior bulk
  // store; but once a full fill has consumed the range, the overlapping
  // self-copy must keep its barrier — the destination slots now hold the
  // values the fill wrote.
  PairFixture F;
  MethodBuilder B(F.P, "f", {}, std::nullopt);
  Local Arr = B.newLocal(JType::Ref);
  B.iconst(4).newRefArray().astore(Arr);
  B.aload(Arr).aload(Arr).iconst(0).iconst(4).arrayfill(); // elided
  B.aload(Arr).iconst(0).aload(Arr).iconst(1).iconst(2).arraycopy(); // kept
  B.ret();
  B.finish();
  AnalysisResult R = analyze(F.P, F.P.findMethod("f"));
  EXPECT_TRUE(site(R, 0).Elide);
  EXPECT_FALSE(site(R, 1).Elide);
  runChecked(F.P, F.P.findMethod("f"), {});
}

TEST(ArrayBulkAnalysis, RangeElisionRateOverBulkLoops) {
  // Per-slot and bulk fills of fresh and escaped arrays, and copies into
  // fresh and published destinations, 800 iterations each. Every run
  // must be sound. Over the four bulk runs, the share of executions whose
  // range barrier the null-range proof removed is a deterministic counter
  // ratio; the floor is its exact value.
  struct Case {
    bool Copy, Bulk, Fresh;
  };
  const Case Cases[] = {{false, false, true}, {false, true, true},
                        {false, false, false}, {false, true, false},
                        {true, false, true},  {true, true, true},
                        {true, true, false}};
  uint64_t BulkExecs = 0, BulkElided = 0;
  for (auto [Copy, Bulk, Fresh] : Cases) {
    Program P;
    BarrierStats::Summary S =
        runChecked(P, buildSlotWrites(P, Copy, Bulk, Fresh), {800});
    if (Bulk) {
      BulkExecs += S.TotalExecs;
      BulkElided += S.ElidedExecs;
    }
  }
  EXPECT_GE(100.0 * BulkElided / BulkExecs, 49.96);
}

TEST(ArrayAnalysis, ExpandStillElidesWhenInlined) {
  // Vector.add grows through expand(); compiled with inlining, the copy
  // loop's stores may lose the symbolic length. Whatever the decision, it
  // must stay dynamically sound; and compiled standalone, expand elides.
  Program P;
  VectorParts V = addVectorClass(P, "t.");
  MethodBuilder B(P, "driver", {JType::Int}, std::nullopt);
  Local T = B.newLocal(JType::Int), Vec = B.newLocal(JType::Ref);
  Label Head = B.newLabel(), Done = B.newLabel();
  B.newInstance(V.Vec).dup().iconst(4).invoke(V.Ctor).astore(Vec);
  B.iconst(0).istore(T);
  B.bind(Head).iload(T).iload(B.arg(0)).ifICmpGe(Done);
  B.aload(Vec).aload(Vec).invoke(V.Add);
  B.iinc(T, 1).jump(Head);
  B.bind(Done).ret();
  MethodId Driver = B.finish();
  runChecked(P, Driver, {100});
}
