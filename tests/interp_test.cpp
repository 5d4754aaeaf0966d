//===- tests/interp_test.cpp - Interpreter semantics and barriers ---------===//

#include "TestUtil.h"

#include "jit/FastCode.h"

#include <cstddef>
#include <cstring>

using namespace satb;
using namespace satb::testutil;

namespace {

/// Builds, compiles (inlining off, analysis off — pure semantics), runs,
/// and returns the interpreter.
struct Runner {
  const Program &P;
  CompiledProgram CP;
  Heap H;
  Interpreter I;

  explicit Runner(const Program &P, CompilerOptions Opts = plainOpts())
      : P(P), CP(compileProgram(P, Opts)), H(P), I(P, CP, H) {}

  static CompilerOptions plainOpts() {
    CompilerOptions Opts;
    Opts.Analysis.Mode = AnalysisMode::None;
    Opts.Inline.InlineLimit = 0;
    return Opts;
  }

  int64_t runInt(MethodId Id, std::vector<int64_t> Args = {}) {
    EXPECT_EQ(I.run(Id, Args), RunStatus::Finished)
        << "trap: " << trapName(I.trap());
    return I.result().Int;
  }
};

} // namespace

TEST(Interp, Arithmetic) {
  Program P;
  MethodBuilder B(P, "f", {JType::Int, JType::Int}, JType::Int);
  // (a + b) * (a - b) / 2 % 100
  B.iload(B.arg(0)).iload(B.arg(1)).iadd();
  B.iload(B.arg(0)).iload(B.arg(1)).isub();
  B.imul().iconst(2).idiv().iconst(100).irem().ireturn();
  MethodId Id = B.finish();
  Runner R(P);
  EXPECT_EQ(R.runInt(Id, {10, 4}), ((10 + 4) * (10 - 4) / 2) % 100);
  EXPECT_EQ(R.runInt(Id, {-7, 3}), ((-7 + 3) * (-7 - 3) / 2) % 100);
}

TEST(Interp, Int32Wraparound) {
  Program P;
  MethodBuilder B(P, "f", {JType::Int}, JType::Int);
  B.iload(B.arg(0)).iload(B.arg(0)).imul().ireturn();
  MethodId Id = B.finish();
  Runner R(P);
  // 2^16 * 2^16 wraps to 0 in 32-bit arithmetic.
  EXPECT_EQ(R.runInt(Id, {1 << 16}), 0);
  // INT_MAX + INT_MAX wraps to -2.
  MethodBuilder B2(P, "g", {JType::Int}, JType::Int);
  B2.iload(B2.arg(0)).iload(B2.arg(0)).iadd().ireturn();
  MethodId Id2 = B2.finish();
  Runner R2(P);
  EXPECT_EQ(R2.runInt(Id2, {2147483647}), -2);
}

TEST(Interp, DivisionByZeroTraps) {
  Program P;
  MethodBuilder B(P, "f", {JType::Int}, JType::Int);
  B.iconst(1).iload(B.arg(0)).idiv().ireturn();
  MethodId Id = B.finish();
  Runner R(P);
  EXPECT_EQ(R.I.run(Id, {0}), RunStatus::Trapped);
  EXPECT_EQ(R.I.trap(), TrapKind::DivisionByZero);
}

TEST(Interp, FieldRoundTripAndNullTrap) {
  PairFixture F;
  MethodBuilder B(F.P, "f", {JType::Int}, JType::Int);
  Local Pv = B.newLocal(JType::Ref);
  B.newInstance(F.Pair).astore(Pv);
  B.aload(Pv).iload(B.arg(0)).putfield(F.Count);
  B.aload(Pv).getfield(F.Count).ireturn();
  MethodId Id = B.finish();
  Runner R(F.P);
  EXPECT_EQ(R.runInt(Id, {42}), 42);

  MethodBuilder B2(F.P, "g", {}, JType::Int);
  B2.aconstNull().getfield(F.Count).ireturn();
  MethodId Id2 = B2.finish();
  Runner R2(F.P);
  EXPECT_EQ(R2.I.run(Id2), RunStatus::Trapped);
  EXPECT_EQ(R2.I.trap(), TrapKind::NullPointer);
}

TEST(Interp, WrongClassFieldAccessTraps) {
  PairFixture F;
  ClassId Other = F.P.addClass("Other");
  MethodBuilder B(F.P, "f", {}, JType::Int);
  B.newInstance(Other).getfield(F.Count).ireturn();
  MethodId Id = B.finish();
  Runner R(F.P);
  EXPECT_EQ(R.I.run(Id), RunStatus::Trapped);
  EXPECT_EQ(R.I.trap(), TrapKind::BadFieldAccess);
}

TEST(Interp, ArrayBoundsAndNegativeSize) {
  Program P;
  MethodBuilder B(P, "f", {JType::Int, JType::Int}, JType::Ref);
  Local Arr = B.newLocal(JType::Ref);
  B.iload(B.arg(0)).newRefArray().astore(Arr);
  B.aload(Arr).iload(B.arg(1)).aaload().areturn();
  MethodId Id = B.finish();
  {
    Runner R(P);
    EXPECT_EQ(R.I.run(Id, {4, 4}), RunStatus::Trapped);
    EXPECT_EQ(R.I.trap(), TrapKind::OutOfBounds);
  }
  {
    Runner R(P);
    EXPECT_EQ(R.I.run(Id, {4, -1}), RunStatus::Trapped);
    EXPECT_EQ(R.I.trap(), TrapKind::OutOfBounds);
  }
  {
    Runner R(P);
    EXPECT_EQ(R.I.run(Id, {-1, 0}), RunStatus::Trapped);
    EXPECT_EQ(R.I.trap(), TrapKind::NegativeArraySize);
  }
  {
    Runner R(P);
    EXPECT_EQ(R.I.run(Id, {4, 3}), RunStatus::Finished);
    EXPECT_EQ(R.I.result().Ref, NullRef);
  }
}

TEST(Interp, CallsAndRecursion) {
  Program P;
  MethodId FibId = P.numMethods();
  MethodBuilder B(P, "fib", {JType::Int}, JType::Int);
  Label Base = B.newLabel();
  B.iload(B.arg(0)).iconst(2).ifICmpLt(Base);
  B.iload(B.arg(0)).iconst(1).isub().invoke(FibId);
  B.iload(B.arg(0)).iconst(2).isub().invoke(FibId);
  B.iadd().ireturn();
  B.bind(Base).iload(B.arg(0)).ireturn();
  ASSERT_EQ(B.finish(), FibId);
  Runner R(P);
  EXPECT_EQ(R.runInt(FibId, {10}), 55);
}

TEST(Interp, DeepRecursionTrapsStackOverflow) {
  Program P;
  MethodId Id = P.numMethods();
  MethodBuilder B(P, "down", {JType::Int}, JType::Int);
  Label Base = B.newLabel();
  B.iload(B.arg(0)).ifeq(Base);
  B.iload(B.arg(0)).iconst(1).isub().invoke(Id).ireturn();
  B.bind(Base).iconst(0).ireturn();
  ASSERT_EQ(B.finish(), Id);
  Runner R(P);
  EXPECT_EQ(R.I.run(Id, {100000}), RunStatus::Trapped);
  EXPECT_EQ(R.I.trap(), TrapKind::StackOverflow);
}

TEST(Interp, StepLimit) {
  Program P;
  MethodBuilder B(P, "spin", {}, std::nullopt);
  Label Top = B.newLabel();
  B.bind(Top).jump(Top);
  B.ret();
  MethodId Id = B.finish();
  Runner R(P);
  EXPECT_EQ(R.I.run(Id, {}, /*StepLimit=*/1000), RunStatus::Trapped);
  EXPECT_EQ(R.I.trap(), TrapKind::StepLimit);
}

TEST(Interp, StaticsRoundTrip) {
  PairFixture F;
  StaticFieldId SInt = F.P.addStaticField("si", JType::Int);
  MethodBuilder B(F.P, "f", {JType::Int}, JType::Int);
  B.iload(B.arg(0)).putstatic(SInt);
  B.getstatic(SInt).iconst(1).iadd().ireturn();
  MethodId Id = B.finish();
  Runner R(F.P);
  EXPECT_EQ(R.runInt(Id, {41}), 42);
}

TEST(Interp, RefComparisonsAndNullChecks) {
  PairFixture F;
  MethodBuilder B(F.P, "f", {}, JType::Int);
  Local X = B.newLocal(JType::Ref), Y = B.newLocal(JType::Ref);
  Label NotSame = B.newLabel(), Fail = B.newLabel();
  B.newInstance(F.Pair).astore(X);
  B.newInstance(F.Pair).astore(Y);
  B.aload(X).aload(Y).ifACmpEq(Fail);   // distinct objects
  B.aload(X).aload(X).ifACmpNe(Fail);   // same object
  B.aload(X).ifnull(Fail);              // non-null
  B.aconstNull().ifnonnull(Fail);       // null
  B.iconst(1).ireturn();
  B.bind(NotSame);
  B.bind(Fail).iconst(0).ireturn();
  MethodId Id = B.finish();
  Runner R(F.P);
  EXPECT_EQ(R.runInt(Id), 1);
}

TEST(Interp, BarrierStatsCountPreNull) {
  PairFixture F;
  MethodBuilder B(F.P, "f", {}, std::nullopt);
  Local Pv = B.newLocal(JType::Ref);
  B.newInstance(F.Pair).astore(Pv);
  B.aload(Pv).aload(Pv).putfield(F.A); // pre-null
  B.aload(Pv).aload(Pv).putfield(F.A); // pre = p (non-null)
  B.ret();
  MethodId Id = B.finish();
  Runner R(F.P); // analysis off: every barrier kept
  R.I.run(Id);
  BarrierStats::Summary S = R.I.stats().summarize();
  EXPECT_EQ(S.TotalExecs, 2u);
  EXPECT_EQ(S.PreNullExecs, 1u);
  EXPECT_EQ(S.ElidedExecs, 0u);
  // Site 0 is always pre-null (executed once, pre-value null); site 1
  // never is.
  EXPECT_EQ(S.PotentiallyPreNullExecs, 1u);
}

TEST(Interp, SatbBarrierLogsOnlyWhenActive) {
  PairFixture F;
  MethodBuilder B(F.P, "f", {JType::Int}, std::nullopt);
  Local T = B.newLocal(JType::Int);
  Label Head = B.newLabel(), Done = B.newLabel();
  B.iconst(0).istore(T);
  B.bind(Head).iload(T).iload(B.arg(0)).ifICmpGe(Done);
  B.newInstance(F.Pair).putstatic(F.Sink); // overwrites previous: non-null
  B.iinc(T, 1).jump(Head);
  B.bind(Done).ret();
  MethodId Id = B.finish();

  Runner R(F.P);
  SatbMarker M(R.H);
  R.I.attachSatb(&M);
  R.I.run(Id, {10}); // marking inactive
  EXPECT_EQ(M.stats().LoggedPreValues, 0u);

  Runner R2(F.P);
  SatbMarker M2(R2.H);
  R2.I.attachSatb(&M2);
  M2.beginMarking({});
  R2.I.run(Id, {10});
  // First store overwrites null; the next 9 log their pre-values.
  EXPECT_EQ(M2.stats().LoggedPreValues, 9u);
  M2.finishMarking();
}

TEST(Interp, AlwaysLogModeLogsWithoutMarking) {
  PairFixture F;
  MethodBuilder B(F.P, "f", {JType::Int}, std::nullopt);
  Local T = B.newLocal(JType::Int);
  Label Head = B.newLabel(), Done = B.newLabel();
  B.iconst(0).istore(T);
  B.bind(Head).iload(T).iload(B.arg(0)).ifICmpGe(Done);
  B.newInstance(F.Pair).putstatic(F.Sink);
  B.iinc(T, 1).jump(Head);
  B.bind(Done).ret();
  MethodId Id = B.finish();

  CompilerOptions Opts = Runner::plainOpts();
  Opts.Barrier = BarrierMode::SatbAlwaysLog;
  Runner R(F.P, Opts);
  SatbMarker M(R.H);
  R.I.attachSatb(&M);
  R.I.run(Id, {10});
  EXPECT_EQ(M.stats().LoggedPreValues, 9u);
}

TEST(Interp, CardMarkingDirtiesCards) {
  PairFixture F;
  MethodBuilder B(F.P, "f", {}, std::nullopt);
  Local Pv = B.newLocal(JType::Ref);
  B.newInstance(F.Pair).astore(Pv);
  B.aload(Pv).aload(Pv).putfield(F.A);
  B.ret();
  MethodId Id = B.finish();
  CompilerOptions Opts = Runner::plainOpts();
  Opts.Barrier = BarrierMode::CardMarking;
  Runner R(F.P, Opts);
  IncrementalUpdateMarker M(R.H);
  R.I.attachIncUpdate(&M);
  M.beginMarking({});
  R.I.run(Id);
  EXPECT_GT(M.stats().CardsDirtied, 0u);
  M.finishMarking({});
}

TEST(Interp, CollectRootsSeesFrameRefs) {
  PairFixture F;
  MethodBuilder B(F.P, "f", {}, std::nullopt);
  Local Pv = B.newLocal(JType::Ref);
  Label Spin = B.newLabel();
  B.newInstance(F.Pair).astore(Pv);
  B.bind(Spin).jump(Spin);
  B.ret();
  MethodId Id = B.finish();
  Runner R(F.P);
  R.I.start(Id);
  R.I.step(100);
  std::vector<ObjRef> Roots = R.I.collectRoots();
  ASSERT_EQ(Roots.size(), 1u);
  EXPECT_EQ(R.H.object(Roots[0]).Class, F.Pair);
}

TEST(Interp, ResumableStepping) {
  Program P;
  MethodBuilder B(P, "f", {JType::Int}, JType::Int);
  Local T = B.newLocal(JType::Int), Acc = B.newLocal(JType::Int);
  Label Head = B.newLabel(), Done = B.newLabel();
  B.iconst(0).istore(T).iconst(0).istore(Acc);
  B.bind(Head).iload(T).iload(B.arg(0)).ifICmpGe(Done);
  B.iload(Acc).iload(T).iadd().istore(Acc);
  B.iinc(T, 1).jump(Head);
  B.bind(Done).iload(Acc).ireturn();
  MethodId Id = B.finish();
  Runner R(P);
  R.I.start(Id, {100});
  while (R.I.status() == RunStatus::Running)
    R.I.step(7); // odd quantum exercises mid-instruction-sequence resume
  EXPECT_EQ(R.I.result().Int, 4950);
}

namespace {

/// The store shapes of the cost table: a field store (scalar), a two-slot
/// ArrayFill (range), a putstatic, and the Section 4.3 move-down loop over
/// a three-slot array (two protocol aastores in one enter/exit bracket).
enum class Shape { Scalar, Range, Static, Rearranged };

/// The modeled cost of one run of a shape, hand-summed from the price list
/// (marking check 2, pre-value load and test 3, log 6, always-log test 3,
/// card 2, remembered-set base test 2 + value test 2 + card dirty 2,
/// in-bracket check 1, bracket enter 2 + 3 when it logs, bracket exit 2),
/// in the columns idle/null, idle/non-null, active/null, active/non-null
/// (marking state / pre-values). Under Generational the base is old and
/// the stored value young.
struct CostRow {
  BarrierMode Mode;
  Shape S;
  uint64_t Want[4];
};

const CostRow CostRows[] = {
    {BarrierMode::None, Shape::Scalar, {0, 0, 0, 0}},
    {BarrierMode::None, Shape::Range, {0, 0, 0, 0}},
    {BarrierMode::None, Shape::Static, {0, 0, 0, 0}},
    {BarrierMode::Satb, Shape::Scalar, {2, 2, 2 + 3, 2 + 3 + 6}},
    {BarrierMode::Satb, Shape::Range, {2, 2, 2 + 3, 2 + 3 + 6 + 6}},
    {BarrierMode::Satb, Shape::Static, {2, 2, 2 + 3, 2 + 3 + 6}},
    {BarrierMode::Satb, Shape::Rearranged, {8, 8, 2 + 3 + 1 + 1 + 2, 9}},
    {BarrierMode::SatbAlwaysLog, Shape::Scalar, {3, 3 + 6, 3, 3 + 6}},
    {BarrierMode::SatbAlwaysLog, Shape::Range, {3, 3 + 12, 3, 3 + 12}},
    {BarrierMode::SatbAlwaysLog, Shape::Static, {3, 3 + 6, 3, 3 + 6}},
    {BarrierMode::SatbAlwaysLog, Shape::Rearranged, {10, 2 + 18 + 2, 9, 9}},
    {BarrierMode::CardMarking, Shape::Scalar, {2, 2, 2, 2}},
    {BarrierMode::CardMarking, Shape::Range, {2, 2, 2, 2}},
    {BarrierMode::CardMarking, Shape::Static, {2, 2, 2, 2}},
    {BarrierMode::Generational, Shape::Scalar, {8, 8, 5 + 6, 11 + 6}},
    {BarrierMode::Generational, Shape::Range, {8, 8, 5 + 6, 17 + 6}},
    // A static is a root: no remembered-set steps.
    {BarrierMode::Generational, Shape::Static, {2, 2, 2 + 3, 2 + 3 + 6}},
};

/// Runs \p Row's shape once on the reference engine; \returns the run's
/// modeled barrier cost, and in \p Model the code-size model's barrier
/// cost of the (last) store site.
uint64_t runCostRow(const CostRow &Row, bool Marking, bool PreNonNull,
                    uint32_t &Model) {
  PairFixture F;
  StaticFieldId BaseSt = F.P.addStaticField("base", JType::Ref);
  StaticFieldId ValSt = F.P.addStaticField("val", JType::Ref);
  StaticFieldId ArrSt = F.P.addStaticField("arr", JType::Ref);
  MethodId Delete = buildDeleteFirst(F.P, "deleteFirst");
  MethodBuilder B(F.P, "f", {}, std::nullopt);
  if (Row.S == Shape::Scalar)
    B.getstatic(BaseSt).getstatic(ValSt).putfield(F.A);
  else if (Row.S == Shape::Range)
    B.getstatic(ArrSt).getstatic(ValSt).iconst(0).iconst(2).arrayfill();
  else if (Row.S == Shape::Static)
    B.getstatic(ValSt).putstatic(F.Sink);
  else
    B.getstatic(ArrSt).invoke(Delete);
  MethodId Id = B.ret().finish();

  CompilerOptions Opts = Runner::plainOpts();
  Opts.Barrier = Row.Mode;
  Opts.EnableArrayRearrange = true;
  Runner R(F.P, Opts);
  Heap &H = R.H;
  // Allocated before the nursery exists, so old under Generational.
  ObjRef Base = H.allocateObject(F.Pair), Arr = H.allocateRefArray(3);
  ObjRef Pre = PreNonNull ? H.allocateObject(F.Pair) : NullRef;
  if (Row.Mode == BarrierMode::Generational)
    H.enableNursery();
  H.setStaticRef(ValSt, H.allocateObject(F.Pair));
  H.setStaticRef(BaseSt, Base);
  H.setStaticRef(ArrSt, Arr);
  H.setStaticRef(F.Sink, Pre);
  H.object(Base).refs()[H.fieldSlot(F.A).Slot] = Pre;
  std::fill_n(H.object(Arr).refs(), 3, Pre);

  SatbMarker M(H);
  R.I.attachSatb(&M);
  if (Marking)
    M.beginMarking({});
  EXPECT_EQ(R.I.run(Id), RunStatus::Finished) << trapName(R.I.trap());
  if (Marking)
    M.finishMarking();
  const CompiledMethod &CM = R.CP.method(Id);
  for (uint32_t PC = 0; PC != CM.Plans.size(); ++PC)
    if (CM.Analysis.Decisions[PC].IsBarrierSite)
      Model = CodeSizeModel::barrierCost(CM.Body.Instructions[PC],
                                         CM.Plans[PC]);
  return modeledBarrierCost(R.I.stats());
}

} // namespace

TEST(Interp, BarrierCostIsTheSumOfTheStepsTaken) {
  for (const CostRow &Row : CostRows)
    for (int Col = 0; Col != 4; ++Col) {
      SCOPED_TRACE(testing::Message() << "mode " << int(Row.Mode) << " shape "
                                      << int(Row.S) << " column " << Col);
      uint32_t Model = 0;
      uint64_t Cost = runCostRow(Row, Col >= 2, Col & 1, Model);
      EXPECT_EQ(Cost, Row.Want[Col]);
      // A scalar execution that takes every step costs what the code-size
      // model charges its site.
      if ((Row.S == Shape::Scalar || Row.S == Shape::Static) && Col == 3) {
        EXPECT_EQ(Cost, Model);
      }
    }
}

TEST(Interp, EveryStepOfEveryPlanCostsTheCodeSizeModelsBarrier) {
  // For every plan a store handler exists for, one execution counted as
  // taking every step costs exactly CodeSizeModel::barrierCost.
  const Opcode Bytecodes[] = {Opcode::PutField, Opcode::PutStatic,
                              Opcode::AAStore, Opcode::ArrayFill,
                              Opcode::ArrayCopy}; // in StoreKind order
  size_t Rows = 0;
  for (unsigned Op = 0; Op != kNumFastOps; ++Op)
    if (std::optional<StoreOpInfo> SI = storeOpInfo(static_cast<FastOp>(Op))) {
      SiteStats S;
      S.Plan = SI->Plan;
      S.IsStatic = SI->Kind == StoreKind::PutStaticRef;
      S.Execs = S.MarkingActive = S.PreLogged = S.OldBase = 1;
      S.RemSetDirtied = 1;
      Instruction I{Bytecodes[static_cast<int>(SI->Kind)], 0, 0};
      EXPECT_EQ(modeledBarrierCost(S), CodeSizeModel::barrierCost(I, S.Plan))
          << fastOpName(static_cast<FastOp>(Op));
      ++Rows;
    }
  EXPECT_EQ(Rows, 44u);
}

namespace {
/// Sets the \p I-th uint64_t member of \p S, a struct whose counters
/// come first: walking that prefix covers a counter added later without
/// naming it here.
template <typename T> void setCounter(T &S, size_t I, uint64_t V) {
  std::memcpy(reinterpret_cast<char *>(&S) + I * sizeof V, &V, sizeof V);
}
} // namespace

TEST(Interp, MergeAndEqualityCoverEveryCounter) {
  constexpr size_t NumCounters =
      offsetof(SiteStats, IsArray) / sizeof(uint64_t);
  constexpr size_t NumBracket = sizeof(BracketStats) / sizeof(uint64_t);
  static_assert(NumCounters == 11, "a new SiteStats counter: check merge");
  for (size_t I = 0; I != NumCounters; ++I) {
    SiteStats A, B;
    setCounter(B, I, 1);
    EXPECT_NE(A, B) << "operator== ignores counter " << I;
  }

  PairFixture F;
  MethodBuilder B(F.P, "f", {}, std::nullopt);
  MethodId Id = B.newInstance(F.Pair).putstatic(F.Sink).ret().finish();
  CompiledProgram CP = compileProgram(F.P, Runner::plainOpts());
  BarrierStats Sum, Shard;
  Sum.init(CP);
  Shard.init(CP);
  for (size_t I = 0; I != NumCounters; ++I)
    setCounter(Shard.site(Id, 1), I, 100 + I);
  for (size_t I = 0; I != NumBracket; ++I)
    setCounter(Shard.brackets(), I, 200 + I);
  Sum.merge(Shard);
  EXPECT_EQ(Sum.flat(), Shard.flat());
  EXPECT_EQ(std::memcmp(&Sum.brackets(), &Shard.brackets(),
                        sizeof(BracketStats)),
            0);
}
