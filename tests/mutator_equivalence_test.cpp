//===- tests/mutator_equivalence_test.cpp - Reference vs fast engine ------===//
///
/// \file
/// The fast mutator engine (threaded dispatch, barrier-specialized
/// opcodes) must be observably indistinguishable from the reference
/// Interpreter. "Observably" is pinned down as:
///
///   - run status, trap kind, and the entry method's result slot;
///   - executed step count and modeled dynamic barrier cost;
///   - the full per-site BarrierStats table (execs, pre-null, elided,
///     rearranged, violations — site for site);
///   - heap history (allocation count) and final reachability from the
///     engine's roots plus statics;
///   - under the concurrent drivers: the marking oracle, marked-object
///     count, final-pause work, and sweep count, run on the same
///     deterministic schedule.
///
/// Checked across all six Table 1 workloads under every barrier
/// mode × elision configuration, the seeded random-program corpus, and
/// handcrafted trap programs for every TrapKind.
///
//===----------------------------------------------------------------------===//

#include "RandomProgram.h"
#include "TestUtil.h"

#include "gc/MinorGC.h"
#include "interp/FastInterp.h"
#include "workloads/Workload.h"

using namespace satb;
using namespace satb::testutil;

namespace {

/// Runs \p Entry under both engines (fresh heap each) and compares every
/// observable. The fast engine runs twice — superinstruction fusion on
/// and off — and both translations must match the reference, so the
/// whole grid below also differentially tests the fusion pass. Both
/// markers are attached so every barrier flavor has its collector hook
/// live, exactly as the reference engine wires it.
void runBoth(const Program &P, const CompilerOptions &Opts, MethodId Entry,
             const std::vector<int64_t> &Args, const std::string &What,
             uint64_t StepLimit = 2'000'000'000) {
  CompiledProgram CP = compileProgram(P, Opts);
  Observed Ref;
  {
    Heap H(P);
    Interpreter I(P, CP, H);
    SatbMarker SM(H);
    IncrementalUpdateMarker IM(H);
    I.attachSatb(&SM);
    I.attachIncUpdate(&IM);
    I.run(Entry, Args, StepLimit);
    Ref = observe(I, H);
  }
  for (bool Fuse : {true, false}) {
    Heap H(P);
    TranslateOptions TO;
    TO.Fuse = Fuse;
    FastProgram FP = translateProgram(P, CP, TO);
    FastInterp I(FP, CP, H);
    SatbMarker SM(H);
    IncrementalUpdateMarker IM(H);
    I.attachSatb(&SM);
    I.attachIncUpdate(&IM);
    I.run(Entry, Args, StepLimit);
    Observed Fast = observe(I, H);
    expectEqual(Ref, Fast, What + (Fuse ? "/fused" : "/unfused"));
  }
}

/// The barrier/elision configurations under test; each selects a
/// different family of specialized store opcodes.
std::vector<std::pair<std::string, CompilerOptions>> configMatrix() {
  std::vector<std::pair<std::string, CompilerOptions>> Out;
  CompilerOptions Satb;
  Out.emplace_back("satb", Satb);
  CompilerOptions NoElide;
  NoElide.ApplyElision = false;
  Out.emplace_back("satb-keep-all", NoElide);
  CompilerOptions AlwaysLog;
  AlwaysLog.Barrier = BarrierMode::SatbAlwaysLog;
  Out.emplace_back("always-log", AlwaysLog);
  CompilerOptions Card;
  Card.Barrier = BarrierMode::CardMarking;
  Out.emplace_back("card-marking", Card);
  CompilerOptions None;
  None.Barrier = BarrierMode::None;
  Out.emplace_back("no-barrier", None);
  CompilerOptions Rearr;
  Rearr.EnableArrayRearrange = true;
  Out.emplace_back("satb-rearrange", Rearr);
  // Generational runs in this matrix execute with the nursery *disabled*:
  // the Gen/GenPreNull/GenYoung/GenElided opcode bodies run with isYoung
  // always false, exercising the remembered-set cost ladder's old-base
  // path and the justification counters without a collector.
  CompilerOptions Gen;
  Gen.Barrier = BarrierMode::Generational;
  Out.emplace_back("generational", Gen);
  CompilerOptions GenKeepAll;
  GenKeepAll.Barrier = BarrierMode::Generational;
  GenKeepAll.ApplyElision = false;
  Out.emplace_back("generational-keep-all", GenKeepAll);
  return Out;
}

} // namespace

TEST(MutatorEquivalence, WorkloadsAcrossConfigs) {
  for (const Workload &W : allWorkloads())
    for (const auto &[Name, Opts] : configMatrix())
      runBoth(*W.P, Opts, W.Entry, {300}, W.Name + "/" + Name);
}

TEST(MutatorEquivalence, WorkloadsAtDefaultScale) {
  CompilerOptions Opts;
  for (const Workload &W : allWorkloads())
    runBoth(*W.P, Opts, W.Entry, {W.DefaultScale}, W.Name + "/default-scale");
}

TEST(MutatorEquivalence, RandomCorpus) {
  for (uint32_t Seed = 1; Seed <= 30; ++Seed) {
    RandomProgramGenerator Gen(Seed);
    GeneratedProgram G = Gen.generate();
    CompilerOptions Opts;
    runBoth(*G.P, Opts, G.Entry, {50}, "seed " + std::to_string(Seed));
    CompilerOptions NoInline;
    NoInline.Inline.InlineLimit = 0;
    runBoth(*G.P, NoInline, G.Entry, {50},
            "seed " + std::to_string(Seed) + "/no-inline");
  }
}

TEST(MutatorEquivalence, RandomCorpusCardMarking) {
  for (uint32_t Seed = 1; Seed <= 10; ++Seed) {
    RandomProgramGenerator Gen(Seed);
    GeneratedProgram G = Gen.generate();
    CompilerOptions Card;
    Card.Barrier = BarrierMode::CardMarking;
    runBoth(*G.P, Card, G.Entry, {50}, "seed " + std::to_string(Seed));
  }
}

// --- Generational heap: nursery-enabled equivalence -------------------------

namespace {

/// runBoth with the nursery live: each engine gets a fresh heap with a
/// tiny nursery and a MinorGC wired through the single-mutator allocation
/// hook, so minor collections fire mid-run at allocation sites. GC points
/// are deterministic (both engines allocate in the same order and flush
/// their frame state before every allocation), so beyond the usual
/// observables the collectors' own counters must agree engine for engine.
void runBothWithNursery(const Program &P, const CompilerOptions &Opts,
                        MethodId Entry, const std::vector<int64_t> &Args,
                        const std::string &What,
                        uint64_t StepLimit = 2'000'000'000) {
  CompiledProgram CP = compileProgram(P, Opts);
  Heap::NurseryConfig NC;
  NC.NurseryBytes = 4096; // tiny: collections throughout the run
  NC.PretenureBytes = 512;
  const bool GenMode = Opts.Barrier == BarrierMode::Generational;
  Observed Ref;
  MinorGCStats RefGC;
  {
    Heap H(P);
    H.enableNursery(NC);
    Interpreter I(P, CP, H);
    SatbMarker SM(H);
    IncrementalUpdateMarker IM(H);
    I.attachSatb(&SM);
    I.attachIncUpdate(&IM);
    MinorGC Gen(H);
    Gen.attachMarker(&SM);
    Gen.setRemSetValid(GenMode);
    I.attachGen(&Gen);
    installNurseryHook(H, Gen, I);
    I.run(Entry, Args, StepLimit);
    Ref = observe(I, H);
    RefGC = Gen.stats();
  }
  for (bool Fuse : {true, false}) {
    Heap H(P);
    H.enableNursery(NC);
    TranslateOptions TO;
    TO.Fuse = Fuse;
    FastProgram FP = translateProgram(P, CP, TO);
    FastInterp I(FP, CP, H);
    SatbMarker SM(H);
    IncrementalUpdateMarker IM(H);
    I.attachSatb(&SM);
    I.attachIncUpdate(&IM);
    MinorGC Gen(H);
    Gen.attachMarker(&SM);
    Gen.setRemSetValid(GenMode);
    I.attachGen(&Gen);
    installNurseryHook(H, Gen, I);
    I.run(Entry, Args, StepLimit);
    Observed Fast = observe(I, H);
    const std::string Tag = What + (Fuse ? "/fused" : "/unfused");
    expectEqual(Ref, Fast, Tag);
    const MinorGCStats &GS = Gen.stats();
    EXPECT_EQ(RefGC.Collections, GS.Collections) << Tag;
    EXPECT_EQ(RefGC.WholesalePromotions, GS.WholesalePromotions) << Tag;
    EXPECT_EQ(RefGC.PromotedObjects, GS.PromotedObjects) << Tag;
    EXPECT_EQ(RefGC.PromotedBytes, GS.PromotedBytes) << Tag;
    EXPECT_EQ(RefGC.FreedYoung, GS.FreedYoung) << Tag;
  }
}

} // namespace

TEST(MutatorEquivalence, WorkloadsWithNurseryGenerational) {
  CompilerOptions Gen;
  Gen.Barrier = BarrierMode::Generational;
  CompilerOptions GenKeepAll;
  GenKeepAll.Barrier = BarrierMode::Generational;
  GenKeepAll.ApplyElision = false;
  for (const Workload &W : allWorkloads()) {
    runBothWithNursery(*W.P, Gen, W.Entry, {300}, W.Name + "/gen-nursery");
    runBothWithNursery(*W.P, GenKeepAll, W.Entry, {300},
                       W.Name + "/gen-nursery-keep-all");
  }
}

TEST(MutatorEquivalence, WorkloadsWithNurserySatbWholesale) {
  // Nursery under plain SATB: the remembered set is never valid, every
  // minor collection promotes wholesale — and the engines must still be
  // indistinguishable.
  CompilerOptions Opts;
  for (const Workload &W : allWorkloads())
    runBothWithNursery(*W.P, Opts, W.Entry, {300},
                       W.Name + "/satb-nursery");
}

TEST(MutatorEquivalence, RandomCorpusWithNursery) {
  for (uint32_t Seed = 1; Seed <= 15; ++Seed) {
    RandomProgramGenerator Gen(Seed);
    GeneratedProgram G = Gen.generate();
    CompilerOptions Opts;
    Opts.Barrier = BarrierMode::Generational;
    runBothWithNursery(*G.P, Opts, G.Entry, {50},
                       "gen seed " + std::to_string(Seed));
  }
}

TEST(MutatorEquivalence, DisabledNurseryIsObservablyAbsent) {
  // Acceptance gate for the generational layer: enabling and immediately
  // disabling the nursery must leave a heap whose entire observable
  // behaviour — steps, barrier cost, per-site stats, allocation history,
  // reachability — is bit-identical to one that never had a nursery.
  Workload W = makeJbbLike();
  CompilerOptions Opts;
  Opts.Barrier = BarrierMode::Generational;
  CompiledProgram CP = compileProgram(*W.P, Opts);
  Observed Plain, Toggled;
  {
    Heap H(*W.P);
    Interpreter I(*W.P, CP, H);
    SatbMarker SM(H);
    IncrementalUpdateMarker IM(H);
    I.attachSatb(&SM);
    I.attachIncUpdate(&IM);
    I.run(W.Entry, {300});
    Plain = observe(I, H);
  }
  {
    Heap H(*W.P);
    H.enableNursery();
    H.disableNursery();
    Interpreter I(*W.P, CP, H);
    SatbMarker SM(H);
    IncrementalUpdateMarker IM(H);
    I.attachSatb(&SM);
    I.attachIncUpdate(&IM);
    I.run(W.Entry, {300});
    Toggled = observe(I, H);
  }
  expectEqual(Plain, Toggled, "nursery enable/disable toggle");
}

// --- Trap semantics ---------------------------------------------------------

TEST(MutatorEquivalence, NullPointerTraps) {
  PairFixture F;
  MethodBuilder B(F.P, "npeGet", {}, JType::Int);
  B.aconstNull().getfield(F.Count).ireturn();
  MethodId GetId = B.finish();
  MethodBuilder B2(F.P, "npePut", {}, std::nullopt);
  B2.aconstNull().aconstNull().putfield(F.A);
  B2.ret();
  MethodId PutId = B2.finish();
  MethodBuilder B3(F.P, "npeArr", {}, JType::Ref);
  B3.aconstNull().iconst(0).aaload().areturn();
  MethodId ArrId = B3.finish();
  CompilerOptions Opts;
  runBoth(F.P, Opts, GetId, {}, "null getfield");
  runBoth(F.P, Opts, PutId, {}, "null putfield");
  runBoth(F.P, Opts, ArrId, {}, "null aaload");
}

TEST(MutatorEquivalence, OutOfBoundsTraps) {
  Program P;
  MethodBuilder B(P, "oob", {JType::Int, JType::Int}, JType::Ref);
  Local Arr = B.newLocal(JType::Ref);
  B.iload(B.arg(0)).newRefArray().astore(Arr);
  B.aload(Arr).iload(B.arg(1)).aaload().areturn();
  MethodId Id = B.finish();
  CompilerOptions Opts;
  runBoth(P, Opts, Id, {4, 4}, "index == length");
  runBoth(P, Opts, Id, {4, -1}, "negative index");
  runBoth(P, Opts, Id, {-1, 0}, "negative array size");
  runBoth(P, Opts, Id, {4, 3}, "in bounds");
}

TEST(MutatorEquivalence, DivisionTraps) {
  Program P;
  MethodBuilder B(P, "div", {JType::Int, JType::Int}, JType::Int);
  B.iload(B.arg(0)).iload(B.arg(1)).idiv().ireturn();
  MethodId DivId = B.finish();
  MethodBuilder B2(P, "rem", {JType::Int, JType::Int}, JType::Int);
  B2.iload(B2.arg(0)).iload(B2.arg(1)).irem().ireturn();
  MethodId RemId = B2.finish();
  CompilerOptions Opts;
  runBoth(P, Opts, DivId, {1, 0}, "div by zero");
  runBoth(P, Opts, RemId, {1, 0}, "rem by zero");
  // JVM semantics: INT_MIN / -1 wraps to INT_MIN, no trap.
  runBoth(P, Opts, DivId, {-2147483648, -1}, "INT_MIN / -1");
  runBoth(P, Opts, RemId, {-2147483648, -1}, "INT_MIN % -1");
}

TEST(MutatorEquivalence, StackOverflowTrap) {
  Program P;
  MethodId Id = P.numMethods();
  MethodBuilder B(P, "down", {JType::Int}, JType::Int);
  Label Base = B.newLabel();
  B.iload(B.arg(0)).ifeq(Base);
  B.iload(B.arg(0)).iconst(1).isub().invoke(Id).ireturn();
  B.bind(Base).iconst(0).ireturn();
  ASSERT_EQ(B.finish(), Id);
  // Inlining off keeps the recursion deep enough to overflow.
  CompilerOptions Opts;
  Opts.Inline.InlineLimit = 0;
  runBoth(P, Opts, Id, {100000}, "deep recursion");
  runBoth(P, Opts, Id, {100}, "shallow recursion");
}

TEST(MutatorEquivalence, StepLimitTrap) {
  Program P;
  MethodBuilder B(P, "spin", {}, std::nullopt);
  Label Top = B.newLabel();
  B.bind(Top).jump(Top);
  B.ret();
  MethodId Id = B.finish();
  CompilerOptions Opts;
  runBoth(P, Opts, Id, {}, "step limit", /*StepLimit=*/10'000);
}

// --- Concurrent marking under identical schedules ---------------------------

namespace {

void expectConcurrentEqual(const ConcurrentRunResult &Ref,
                           const ConcurrentRunResult &Fast,
                           const std::string &What) {
  EXPECT_EQ(Ref.Status, Fast.Status) << What;
  EXPECT_EQ(trapName(Ref.Trap), trapName(Fast.Trap)) << What;
  EXPECT_TRUE(Ref.OracleHolds) << What;
  EXPECT_TRUE(Fast.OracleHolds) << What;
  EXPECT_EQ(Ref.OracleLive, Fast.OracleLive) << What;
  EXPECT_EQ(Ref.Marked, Fast.Marked) << What;
  EXPECT_EQ(Ref.FinalPauseWork, Fast.FinalPauseWork) << What;
  EXPECT_EQ(Ref.Swept, Fast.Swept) << What;
}

} // namespace

TEST(MutatorEquivalence, ConcurrentSatbCycle) {
  ConcurrentRunConfig Cfg;
  for (const Workload &W : allWorkloads()) {
    CompilerOptions Opts;
    CompiledProgram CP = compileProgram(*W.P, Opts);
    ConcurrentRunResult Ref, Fast;
    Observed RefO, FastO;
    {
      Heap H(*W.P);
      Interpreter I(*W.P, CP, H);
      SatbMarker M(H);
      I.attachSatb(&M);
      Ref = runWithConcurrentCycle(I, M, H, W.Entry, {200}, Cfg);
      RefO = observe(I, H);
    }
    for (bool Fuse : {true, false}) {
      Heap H(*W.P);
      TranslateOptions TO;
      TO.Fuse = Fuse;
      FastProgram FP = translateProgram(*W.P, CP, TO);
      FastInterp I(FP, CP, H);
      SatbMarker M(H);
      I.attachSatb(&M);
      Fast = runWithConcurrentCycle(I, M, H, W.Entry, {200}, Cfg);
      FastO = observe(I, H);
      std::string What = W.Name + (Fuse ? "/fused" : "/unfused");
      expectConcurrentEqual(Ref, Fast, What);
      expectEqual(RefO, FastO, What + "/post-cycle");
    }
  }
}

TEST(MutatorEquivalence, ConcurrentIncUpdateCycle) {
  ConcurrentRunConfig Cfg;
  for (const Workload &W : allWorkloads()) {
    CompilerOptions Opts;
    Opts.Barrier = BarrierMode::CardMarking;
    CompiledProgram CP = compileProgram(*W.P, Opts);
    ConcurrentRunResult Ref, Fast;
    Observed RefO, FastO;
    {
      Heap H(*W.P);
      Interpreter I(*W.P, CP, H);
      IncrementalUpdateMarker M(H);
      I.attachIncUpdate(&M);
      Ref = runWithConcurrentCycle(I, M, H, W.Entry, {200}, Cfg);
      RefO = observe(I, H);
    }
    for (bool Fuse : {true, false}) {
      Heap H(*W.P);
      TranslateOptions TO;
      TO.Fuse = Fuse;
      FastProgram FP = translateProgram(*W.P, CP, TO);
      FastInterp I(FP, CP, H);
      IncrementalUpdateMarker M(H);
      I.attachIncUpdate(&M);
      Fast = runWithConcurrentCycle(I, M, H, W.Entry, {200}, Cfg);
      FastO = observe(I, H);
      std::string What = W.Name + (Fuse ? "/fused" : "/unfused");
      expectConcurrentEqual(Ref, Fast, What);
      expectEqual(RefO, FastO, What + "/post-cycle");
    }
  }
}

TEST(MutatorEquivalence, ConcurrentSatbRandomCorpus) {
  ConcurrentRunConfig Cfg;
  Cfg.WarmupSteps = 300;
  for (uint32_t Seed = 1; Seed <= 10; ++Seed) {
    RandomProgramGenerator Gen(Seed);
    GeneratedProgram G = Gen.generate();
    CompilerOptions Opts;
    CompiledProgram CP = compileProgram(*G.P, Opts);
    ConcurrentRunResult Ref, Fast;
    {
      Heap H(*G.P);
      Interpreter I(*G.P, CP, H);
      SatbMarker M(H);
      I.attachSatb(&M);
      Ref = runWithConcurrentCycle(I, M, H, G.Entry, {60}, Cfg);
    }
    for (bool Fuse : {true, false}) {
      Heap H(*G.P);
      TranslateOptions TO;
      TO.Fuse = Fuse;
      FastProgram FP = translateProgram(*G.P, CP, TO);
      FastInterp I(FP, CP, H);
      SatbMarker M(H);
      I.attachSatb(&M);
      Fast = runWithConcurrentCycle(I, M, H, G.Entry, {60}, Cfg);
      expectConcurrentEqual(Ref, Fast,
                            "seed " + std::to_string(Seed) +
                                (Fuse ? "/fused" : "/unfused"));
    }
  }
}

// --- Resumability: suspension points must not be observable -----------------

TEST(MutatorEquivalence, OddStepQuantaMatchSingleRun) {
  // Stepping the fast engine in odd quanta (forcing frequent
  // suspend/resume through ExitLoop) must land on the same final state as
  // one uninterrupted run. Run the grid with fusion on and off: odd
  // quanta routinely exhaust the quantum mid-superinstruction, forcing
  // the first-half-then-suspend path, which must be indistinguishable
  // from the unfused translation's suspension on the second slot.
  const Workload W = makeJessLike();
  CompilerOptions Opts;
  CompiledProgram CP = compileProgram(*W.P, Opts);
  Observed UnfusedWhole;
  for (bool Fuse : {false, true}) {
    TranslateOptions TO;
    TO.Fuse = Fuse;
    FastProgram FP = translateProgram(*W.P, CP, TO);
    Observed Whole, Chopped;
    {
      Heap H(*W.P);
      FastInterp I(FP, CP, H);
      SatbMarker M(H);
      I.attachSatb(&M);
      I.run(W.Entry, {100});
      Whole = observe(I, H);
    }
    {
      Heap H(*W.P);
      FastInterp I(FP, CP, H);
      SatbMarker M(H);
      I.attachSatb(&M);
      I.start(W.Entry, {100});
      while (I.status() == RunStatus::Running)
        I.step(7);
      Chopped = observe(I, H);
    }
    std::string What =
        std::string("jess chopped into 7-step quanta") +
        (Fuse ? "/fused" : "/unfused");
    expectEqual(Whole, Chopped, What);
    if (!Fuse)
      UnfusedWhole = Whole;
    else
      expectEqual(UnfusedWhole, Whole, "fused vs unfused whole run");
  }
}
