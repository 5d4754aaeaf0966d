//===- tests/threaded_gc_test.cpp - Real-thread concurrent cycles ---------===//
///
/// \file
/// Stress tests of the threaded runtime (interp/ThreadedCycle.h): mutators
/// and the marker on real OS threads with stop-the-world handshakes, under
/// both markers, with barrier elision on, across workloads, mutator
/// counts, mark-thread counts and quantum mixes. Every run's oracle must
/// hold. These runs are nondeterministic by design; the deterministic
/// driver (runWithConcurrentCycle) remains the exhaustive test vehicle.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "bytecode/MethodBuilder.h"
#include "gc/ParallelMark.h"
#include "interp/FastInterp.h"
#include "interp/ThreadedCycle.h"
#include "jit/FastCode.h"
#include "support/ThreadPool.h"
#include "workloads/Workload.h"

#include "RandomProgram.h"

#include <algorithm>
#include <cstdlib>
#include <iterator>
#include <random>
#include <tuple>

using namespace satb;
using namespace satb::testutil;

namespace {

/// One Table 1 workload on the threaded runtime with a single mutator.
struct SingleMutatorCase {
  size_t Workload; ///< index into allWorkloads()
  size_t MarkerQuantum;
};

/// Every Table 1 workload, then db with a marker quantum so large that
/// the marker drains almost at once.
constexpr SingleMutatorCase SingleMutatorCases[] = {
    {0, 64}, {1, 64}, {2, 64}, {3, 64}, {4, 64}, {5, 64}, {1, 4096}};

} // namespace

class ThreadedWorkload : public ::testing::TestWithParam<size_t> {};

TEST_P(ThreadedWorkload, SnapshotOracleHolds) {
  // One mutator, the marker on the coordinator thread, real handshakes:
  // each marker's oracle holds and the mutator finishes, also when the
  // marker runs out of work early.
  const SingleMutatorCase &C = SingleMutatorCases[GetParam()];
  Workload W = allWorkloads()[C.Workload];
  for (MultiMarkerKind Kind :
       {MultiMarkerKind::Satb, MultiMarkerKind::IncrementalUpdate}) {
    CompilerOptions Opts;
    Opts.Interp = InterpMode::Fast;
    Opts.Barrier = Kind == MultiMarkerKind::Satb ? BarrierMode::Satb
                                                 : BarrierMode::CardMarking;
    CompiledProgram CP = compileProgram(*W.P, Opts);
    MultiMutatorConfig Cfg;
    Cfg.Marker = Kind;
    Cfg.WarmupAllocs = 300;
    Cfg.MarkerQuantum = C.MarkerQuantum;
    MultiMutatorResult R =
        runWithConcurrentMutators(1, *W.P, CP, W.Entry, {600}, Cfg);
    std::string What =
        W.Name + (Kind == MultiMarkerKind::Satb ? " SATB" : " IU");
    EXPECT_TRUE(R.OracleHolds) << What;
    EXPECT_EQ(R.Violations, 0u) << What;
    EXPECT_EQ(R.Statuses[0], RunStatus::Finished)
        << What << ": " << trapName(R.Traps[0]);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllSix, ThreadedWorkload,
    ::testing::Range<size_t>(0, std::size(SingleMutatorCases)));

// --- Multi-mutator cycles (runWithConcurrentMutators) -----------------------

namespace {

/// Mark-thread grid for the multi-mutator tests. {1, 2} by default; the
/// SATB_MARK_THREADS env knob (used by the TSan CI job and the nightly
/// stress matrix) appends an extra value, e.g. 4.
std::vector<unsigned> markThreadGrid() {
  std::vector<unsigned> G{1, 2};
  if (const char *Env = std::getenv("SATB_MARK_THREADS")) {
    unsigned N = static_cast<unsigned>(std::atoi(Env));
    if (N > 0 && std::find(G.begin(), G.end(), N) == G.end())
      G.push_back(N);
  }
  return G;
}

/// Iteration multiplier for the stress tests: 1 by default, raised by the
/// scheduled nightly CI run via SATB_STRESS_ITERS.
unsigned stressIters() {
  if (const char *Env = std::getenv("SATB_STRESS_ITERS")) {
    int N = std::atoi(Env);
    if (N > 0)
      return static_cast<unsigned>(N);
  }
  return 1;
}

MultiMutatorResult runMulti(unsigned Mutators, MultiMarkerKind Kind,
                            int64_t Scale, MultiMutatorConfig Cfg = {}) {
  Workload W = makeJbbLike();
  CompilerOptions Opts;
  Opts.Interp = InterpMode::Fast;
  Opts.Barrier = Kind == MultiMarkerKind::Satb ? BarrierMode::Satb
                                               : BarrierMode::CardMarking;
  CompiledProgram CP = compileProgram(*W.P, Opts);
  Cfg.Marker = Kind;
  return runWithConcurrentMutators(Mutators, *W.P, CP, W.Entry, {Scale}, Cfg);
}

void expectClean(const MultiMutatorResult &R, const char *What) {
  EXPECT_TRUE(R.OracleHolds) << What;
  EXPECT_EQ(R.Violations, 0u) << What;
  for (size_t T = 0; T != R.Statuses.size(); ++T) {
    EXPECT_TRUE(R.Statuses[T] == RunStatus::Finished ||
                R.Statuses[T] == RunStatus::Trapped)
        << What << ": mutator " << T << " hit the step limit";
    EXPECT_EQ(R.Traps[T], TrapKind::None) << What << ": mutator " << T;
  }
}

} // namespace

class MultiMutator
    : public ::testing::TestWithParam<
          std::tuple<unsigned, MultiMarkerKind, unsigned, bool>> {};

TEST_P(MultiMutator, OracleHoldsAtFinalPause) {
  auto [N, Kind, MarkThreads, Fuse] = GetParam();
  // jbb allocates roughly one object per scale unit per mutator; the
  // warmup threshold must leave plenty of mutation for the marking window.
  MultiMutatorConfig Cfg;
  Cfg.WarmupAllocs = 300;
  Cfg.MarkThreads = MarkThreads;
  Cfg.Fuse = Fuse;
  MultiMutatorResult R = runMulti(N, Kind, 800, Cfg);
  const char *What =
      Kind == MultiMarkerKind::Satb ? "SATB" : "incremental-update";
  expectClean(R, What);
  EXPECT_EQ(R.Statuses.size(), N);
  EXPECT_GT(R.Marked, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, MultiMutator,
    ::testing::Combine(::testing::Values(1u, 2u, 4u),
                       ::testing::Values(MultiMarkerKind::Satb,
                                         MultiMarkerKind::IncrementalUpdate),
                       ::testing::ValuesIn(markThreadGrid()),
                       /*superinstruction fusion*/ ::testing::Bool()));

TEST(MultiMutator, TinyPollQuantaStress) {
  // One-step quanta force a driver-level safepoint check between every
  // engine resume, maximizing park/handshake traffic — and, with fusion
  // on, routinely suspend mid-superinstruction at the poll.
  for (bool Fuse : {true, false}) {
    MultiMutatorConfig Cfg;
    Cfg.PollQuantum = 1;
    Cfg.MarkerQuantum = 2;
    Cfg.WarmupAllocs = 50;
    Cfg.Fuse = Fuse;
    MultiMutatorResult R = runMulti(2, MultiMarkerKind::Satb, 200, Cfg);
    expectClean(R, Fuse ? "tiny-quanta SATB fused"
                        : "tiny-quanta SATB unfused");
  }
}

TEST(MultiMutator, ShardMergeIsExactPerSite) {
  // Determinism of the sharded instrumentation: summing each flat site
  // slot across the per-thread shards independently must reproduce the
  // merged BarrierStats bit-for-bit.
  MultiMutatorConfig Cfg;
  Cfg.WarmupAllocs = 200;
  MultiMutatorResult R = runMulti(4, MultiMarkerKind::Satb, 300, Cfg);
  expectClean(R, "shard merge");
  ASSERT_EQ(R.Shards.size(), 4u);
  const std::vector<SiteStats> &Merged = R.Merged.flat();
  for (size_t I = 0; I != Merged.size(); ++I) {
    SiteStats Sum = R.Shards[0].flat()[I];
    for (size_t T = 1; T != R.Shards.size(); ++T) {
      const SiteStats &S = R.Shards[T].flat()[I];
      Sum.Execs += S.Execs;
      Sum.PreNull += S.PreNull;
      Sum.Elided += S.Elided;
      Sum.Rearranged += S.Rearranged;
      Sum.Violations += S.Violations;
    }
    ASSERT_EQ(Sum, Merged[I]) << "flat site " << I;
  }
}

TEST(MultiMutator, SatbBuffersReachTheMarker) {
  // The jbb workload overwrites non-null fields, so per-thread buffers
  // must flow to the marker whenever mutation overlaps the marking window.
  // The overlap is OS-scheduled; retry a couple of times rather than
  // assume one particular schedule.
  uint64_t Logged = 0;
  for (int Attempt = 0; Attempt != 3 && Logged == 0; ++Attempt) {
    MultiMutatorConfig Cfg;
    Cfg.WarmupAllocs = 300;
    Cfg.MarkerQuantum = 8;
    MultiMutatorResult R = runMulti(4, MultiMarkerKind::Satb, 1500, Cfg);
    expectClean(R, "SATB buffers");
    Logged = R.LoggedPreValues;
  }
  EXPECT_GT(Logged, 0u);
}

TEST(MultiMutator, SingleMutatorStepsMatchPlainFastRun) {
  // N=1 under the full safepoint/TLAB protocol must execute exactly the
  // steps a plain FastInterp run executes: translated Safepoint polls
  // refund their fuel and the driver never perturbs the instruction
  // stream. Pin fusion on both sides; fused handlers charge the sum of
  // their parts, so the count must also agree *across* the two rounds.
  Workload W = makeJbbLike();
  CompilerOptions Opts;
  Opts.Interp = InterpMode::Fast;
  CompiledProgram CP = compileProgram(*W.P, Opts);

  uint64_t UnfusedSteps = 0;
  for (bool Fuse : {false, true}) {
    TranslateOptions TO;
    TO.Fuse = Fuse;
    FastProgram FP = translateProgram(*W.P, CP, TO);
    Heap H(*W.P);
    FastInterp Plain(FP, CP, H);
    ASSERT_EQ(Plain.run(W.Entry, {300}), RunStatus::Finished);

    MultiMutatorConfig Cfg;
    Cfg.Fuse = Fuse;
    MultiMutatorResult R = runMulti(1, MultiMarkerKind::Satb, 300, Cfg);
    ASSERT_EQ(R.Statuses[0], RunStatus::Finished);
    EXPECT_EQ(R.Steps[0], Plain.stepsExecuted())
        << (Fuse ? "fused" : "unfused");
    if (!Fuse)
      UnfusedSteps = Plain.stepsExecuted();
    else
      EXPECT_EQ(Plain.stepsExecuted(), UnfusedSteps)
          << "fusion changed the observable step count";
  }
}

TEST(MultiMutator, RandomProgramsUnderMultiMutatorMarking) {
  // Alternate fusion by seed so both translations see random shapes
  // without doubling the grid.
  for (uint32_t Seed = 400; Seed != 404; ++Seed) {
    GeneratedProgram G = RandomProgramGenerator(Seed).generate();
    CompilerOptions Opts;
    Opts.Interp = InterpMode::Fast;
    CompiledProgram CP = compileProgram(*G.P, Opts);
    MultiMutatorConfig Cfg;
    Cfg.WarmupAllocs = 50;
    Cfg.MarkerQuantum = 4;
    Cfg.Fuse = Seed % 2 == 0;
    MultiMutatorResult R =
        runWithConcurrentMutators(3, *G.P, CP, G.Entry, {150}, Cfg);
    EXPECT_TRUE(R.OracleHolds) << "seed " << Seed;
    EXPECT_EQ(R.Violations, 0u) << "seed " << Seed;
  }
}

namespace {

/// Bulk-store workload for the concurrent grids: per transaction one
/// elided fill of a fresh 16-slot array, a kept range refill and an
/// overlapping self-copy (the memmove-style backward path) of a
/// published array, and a kept bulk copy between the two. All arrays
/// are mutator-local; the static sink exists only as the escape point,
/// so the interesting races are between the bulk heap paths
/// (storeRefRangeFill/Copy, markRangeWords) and the marker — exactly
/// what the TSan grid should see.
Workload makeBulkStoreWorkload() {
  Workload W;
  W.Name = "bulk-mm";
  W.Description = "bulk stores under concurrent marking";
  W.P = std::make_shared<Program>();
  Program &P = *W.P;
  StaticFieldId Sink = P.addStaticField("sink", JType::Ref);
  MethodBuilder B(P, "main", {JType::Int}, JType::Int);
  Local N = B.arg(0), T = B.newLocal(JType::Int);
  Local Old = B.newLocal(JType::Ref), Fresh = B.newLocal(JType::Ref);
  Label Head = B.newLabel(), Done = B.newLabel();
  B.iconst(16).newRefArray().astore(Old);
  B.aload(Old).putstatic(Sink); // escape: the range barriers below stay
  B.iconst(0).istore(T);
  B.bind(Head).iload(T).iload(N).ifICmpGe(Done);
  // Elided: in-order init of a fresh array (Section 3 range proof).
  B.iconst(16).newRefArray().astore(Fresh);
  B.aload(Fresh).aload(Fresh).iconst(0).iconst(16).arrayfill();
  // Kept range fill: republishes non-null pre-values after the first
  // transaction, so an active SATB window logs whole ranges.
  B.aload(Old).aload(Fresh).iconst(4).iconst(8).arrayfill();
  // Kept overlapping self-copy: src [0,8) into dst [1,9).
  B.aload(Old).iconst(0).aload(Old).iconst(1).iconst(8).arraycopy();
  // Kept bulk copy of fresh values into the published array.
  B.aload(Fresh).iconst(0).aload(Old).iconst(0).iconst(4).arraycopy();
  B.iinc(T, 1).jump(Head);
  B.bind(Done).iload(T).ireturn();
  W.Entry = B.finish();
  return W;
}

} // namespace

TEST(MultiMutator, BulkStoresUnderConcurrentMarking) {
  Workload W = makeBulkStoreWorkload();
  for (MultiMarkerKind Kind :
       {MultiMarkerKind::Satb, MultiMarkerKind::IncrementalUpdate}) {
    for (bool Fuse : {true, false}) {
      CompilerOptions Opts;
      Opts.Interp = InterpMode::Fast;
      Opts.Barrier = Kind == MultiMarkerKind::Satb ? BarrierMode::Satb
                                                   : BarrierMode::CardMarking;
      CompiledProgram CP = compileProgram(*W.P, Opts);
      MultiMutatorConfig Cfg;
      Cfg.WarmupAllocs = 100;
      Cfg.MarkerQuantum = 8;
      Cfg.Fuse = Fuse;
      Cfg.MarkThreads = markThreadGrid().back();
      Cfg.Marker = Kind;
      MultiMutatorResult R =
          runWithConcurrentMutators(4, *W.P, CP, W.Entry, {400}, Cfg);
      expectClean(R, Kind == MultiMarkerKind::Satb ? "bulk SATB"
                                                   : "bulk inc-update");
      EXPECT_GT(R.Marked, 0u);
    }
  }
}

// --- Frame-rooted live data under multi-mutator marking --------------------

namespace {

constexpr int32_t kChurnNodes = 4096;

/// Each mutator builds an array of kChurnNodes nodes held only by a local,
/// each node owning an item, then N times replaces every node's item in
/// index order. No static reaches any of it: the live set hangs off frame
/// roots. While the marker is slow to scan the nodes, each round
/// overwrites items of snapshot nodes it has not scanned yet, which are
/// then reachable from nowhere but the logged pre-value.
Workload makeFrameRootedChurn() {
  Workload W;
  W.Name = "frame-churn";
  W.Description = "frame-rooted nodes whose items are overwritten";
  W.P = std::make_shared<Program>();
  Program &P = *W.P;
  ClassId Node = P.addClass("Node");
  FieldId Item = P.addField(Node, "item", JType::Ref);
  MethodBuilder B(P, "main", {JType::Int}, JType::Int);
  Local N = B.arg(0), R = B.newLocal(JType::Int), I = B.newLocal(JType::Int);
  Local Arr = B.newLocal(JType::Ref), Cur = B.newLocal(JType::Ref);
  Label Build = B.newLabel(), Built = B.newLabel(), Round = B.newLabel();
  Label Walk = B.newLabel(), Walked = B.newLabel(), Done = B.newLabel();
  B.iconst(kChurnNodes).newRefArray().astore(Arr);
  B.iconst(0).istore(I);
  B.bind(Build).iload(I).iconst(kChurnNodes).ifICmpGe(Built);
  B.newInstance(Node).astore(Cur);
  B.aload(Cur).newInstance(Node).putfield(Item); // elided: fresh node
  B.aload(Arr).iload(I).aload(Cur).aastore();
  B.iinc(I, 1).jump(Build);
  B.bind(Built).iconst(0).istore(R);
  B.bind(Round).iload(R).iload(N).ifICmpGe(Done);
  B.iconst(0).istore(I);
  B.bind(Walk).iload(I).iconst(kChurnNodes).ifICmpGe(Walked);
  // Kept: the node comes from the array, its item is non-null.
  B.aload(Arr).iload(I).aaload().newInstance(Node).putfield(Item);
  B.iinc(I, 1).jump(Walk);
  B.bind(Walked).iinc(R, 1).jump(Round);
  B.bind(Done).iload(R).ireturn();
  W.Entry = B.finish();
  return W;
}

} // namespace

TEST(MultiMutator, FrameRootedChurnUnderMarking) {
  // On jbb what stays live is reachable from statics, so a marker that
  // drops the mutator roots or the logged pre-values still marks all the
  // oracle asks for. Here the SATB snapshot is reachable only through
  // frame roots and overwritten fields, so such a marker fails the oracle.
  // (Incremental update takes its oracle at the finish pause, which on
  // this workload comes after the mutators exit and so has no roots.)
  // Whether the cycle begins before every mutator exits is OS-scheduled;
  // retry for the overlap and check the oracle on every attempt.
  Workload W = makeFrameRootedChurn();
  CompilerOptions Opts;
  Opts.Interp = InterpMode::Fast;
  CompiledProgram CP = compileProgram(*W.P, Opts);
  uint64_t Snapshot = 0;
  for (int Attempt = 0; Attempt != 5 && Snapshot == 0; ++Attempt) {
    MultiMutatorConfig Cfg;
    // The cycle begins once the first mutator's nodes are built. The
    // marker scans one node per round and hands each round to a worker
    // gang, so it is still scanning long after the mutators resume.
    Cfg.WarmupAllocs = 2 * kChurnNodes;
    Cfg.MarkerQuantum = 1;
    Cfg.MarkThreads = 2;
    MultiMutatorResult R =
        runWithConcurrentMutators(2, *W.P, CP, W.Entry, {16}, Cfg);
    expectClean(R, "frame churn");
    EXPECT_EQ(R.Cycles, 1u);
    Snapshot = R.OracleLive;
  }
  EXPECT_GT(Snapshot, 0u);
}

// --- Generational nursery under multi-mutator marking -----------------------

TEST(MultiMutator, GenerationalNurseryGrid) {
  // Nursery-enabled multi-mutator runs: TLAB chunks carve from the
  // nursery and the coordinator serves stop-the-world minor collections
  // whenever a refill finds it exhausted. Generational mode keeps the
  // remembered set valid (precise collections while the marker is idle);
  // the same nursery under plain SATB has no remembered-set barrier and
  // must fall back to wholesale promotion at every collection. Both must
  // keep the marking oracle and the justification counters clean.
  //
  // Whether a refill-raised request is served while the mutators are
  // still alive (promoting their live young objects) is OS-scheduled;
  // like SatbBuffersReachTheMarker above, retry a few times for the
  // overlap instead of assuming one particular schedule. The safety
  // invariants are asserted on every attempt.
  Workload W = makeJbbLike();
  for (BarrierMode Mode : {BarrierMode::Generational, BarrierMode::Satb}) {
    for (bool Fuse : {true, false}) {
      CompilerOptions Opts;
      Opts.Interp = InterpMode::Fast;
      Opts.Barrier = Mode;
      CompiledProgram CP = compileProgram(*W.P, Opts);
      std::string What =
          std::string(Mode == BarrierMode::Generational ? "generational"
                                                        : "satb-wholesale") +
          (Fuse ? "/fused" : "/unfused");
      uint64_t Promoted = 0;
      for (int Attempt = 0; Attempt != 5 && Promoted == 0; ++Attempt) {
        MultiMutatorConfig Cfg;
        Cfg.WarmupAllocs = 300;
        Cfg.Fuse = Fuse;
        // Vary the marking backend with fusion to cover the
        // parallel-marker combination without doubling the grid.
        Cfg.MarkThreads = Fuse ? 2 : 1;
        Cfg.EnableNursery = true;
        // Two TLAB chunks' worth: with three mutators the very first
        // refill round already exhausts the nursery and raises the
        // minor-GC request.
        Cfg.NurseryBytes = 16 * 1024;
        MultiMutatorResult R =
            runWithConcurrentMutators(3, *W.P, CP, W.Entry, {20000}, Cfg);
        expectClean(R, What.c_str());
        EXPECT_GE(R.Minor.Collections, 1u) << What; // the final one at least
        if (Mode == BarrierMode::Satb) {
          // No generational barrier: every collection is wholesale.
          EXPECT_EQ(R.Minor.WholesalePromotions, R.Minor.Collections) << What;
          EXPECT_EQ(R.Minor.FreedYoung, 0u) << What;
        }
        uint64_t RemSetViolations = 0;
        for (const SiteStats &S : R.Merged.flat())
          RemSetViolations += S.RemSetViolations;
        EXPECT_EQ(RemSetViolations, 0u) << What;
        Promoted = R.Minor.PromotedObjects;
      }
      EXPECT_GT(Promoted, 0u) << What;
    }
  }
}

TEST(MultiMutator, RandomProgramsWithNursery) {
  // Random shapes through the generational multi-mutator path; tiny
  // nursery to maximize collection traffic relative to program size.
  for (uint32_t Seed = 450; Seed != 454; ++Seed) {
    GeneratedProgram G = RandomProgramGenerator(Seed).generate();
    CompilerOptions Opts;
    Opts.Interp = InterpMode::Fast;
    Opts.Barrier = BarrierMode::Generational;
    CompiledProgram CP = compileProgram(*G.P, Opts);
    MultiMutatorConfig Cfg;
    Cfg.WarmupAllocs = 50;
    Cfg.MarkerQuantum = 4;
    Cfg.Fuse = Seed % 2 == 0;
    Cfg.EnableNursery = true;
    Cfg.NurseryBytes = 32 * 1024;
    MultiMutatorResult R =
        runWithConcurrentMutators(3, *G.P, CP, G.Entry, {150}, Cfg);
    EXPECT_TRUE(R.OracleHolds) << "seed " << Seed;
    EXPECT_EQ(R.Violations, 0u) << "seed " << Seed;
    EXPECT_GE(R.Minor.Collections, 1u) << "seed " << Seed;
  }
}

TEST(MultiMutator, NurseryMinorGCOnlyAtPolls) {
  // One-step quanta make every instruction boundary a quantum end. The
  // young-target proof elides the remembered-set barrier on a store into
  // an object allocated since the last poll; a minor GC served between
  // that New and the store would promote the target and leave an
  // unrecorded old-to-young edge (a RemSetViolation). Mutators must
  // therefore park only at polls or between requests, however the
  // quantum falls. A tiny nursery keeps minor GCs coming all run long.
  Workload W = makeJbbLike();
  CompilerOptions Opts;
  Opts.Interp = InterpMode::Fast;
  Opts.Barrier = BarrierMode::Generational;
  CompiledProgram CP = compileProgram(*W.P, Opts);
  for (bool Fuse : {true, false}) {
    const char *What = Fuse ? "fused" : "unfused";
    MultiMutatorConfig Cfg;
    Cfg.PollQuantum = 1;
    Cfg.WarmupAllocs = 100;
    Cfg.Fuse = Fuse;
    Cfg.EnableNursery = true;
    Cfg.NurseryBytes = 16 * 1024;
    MultiMutatorResult R =
        runWithConcurrentMutators(3, *W.P, CP, W.Entry, {4000}, Cfg);
    expectClean(R, What);
    uint64_t RemSetViolations = 0;
    for (const SiteStats &S : R.Merged.flat())
      RemSetViolations += S.RemSetViolations;
    EXPECT_EQ(RemSetViolations, 0u) << What;
    EXPECT_GT(R.Minor.Collections, 1u) << What;
  }
}

// --- Parallel marking (sharded mark stacks, MarkThreads > 1) ----------------

TEST(MultiMutator, MarkOnceUnderParallelMarking) {
  // The mark-once property: with M workers claiming objects through the
  // atomic mark word, every object is traced at most once, and every
  // object of the SATB start-of-marking snapshot exactly once.
  for (unsigned MarkThreads : {2u, 4u}) {
    for (MultiMarkerKind Kind :
         {MultiMarkerKind::Satb, MultiMarkerKind::IncrementalUpdate}) {
      MultiMutatorConfig Cfg;
      Cfg.WarmupAllocs = 300;
      Cfg.MarkThreads = MarkThreads;
      Cfg.DebugTraceCounts = true;
      MultiMutatorResult R = runMulti(4, Kind, 800, Cfg);
      expectClean(R, "mark-once");
      ASSERT_FALSE(R.TraceCounts.empty());
      uint64_t Traced = 0;
      for (size_t Ref = 1; Ref != R.TraceCounts.size(); ++Ref) {
        ASSERT_LE(R.TraceCounts[Ref], 1u)
            << "object " << Ref << " traced twice (M=" << MarkThreads << ")";
        Traced += R.TraceCounts[Ref];
      }
      EXPECT_GT(Traced, 0u);
      for (size_t Ref = 1; Ref < R.SnapshotSet.size(); ++Ref) {
        if (R.SnapshotSet[Ref]) {
          ASSERT_EQ(R.TraceCounts[Ref], 1u)
              << "snapshot object " << Ref << " not traced exactly once";
        }
      }
    }
  }
}

TEST(MultiMutator, NightlyStressMatrix) {
  // Quick by default (one round); the scheduled nightly CI run raises
  // SATB_STRESS_ITERS and SATB_MARK_THREADS for a longer randomized soak. Each
  // seed runs 4 mutators per marker, plain, unelided and in a pacer storm. The
  // unelided run turns inlining and elision off, so every barrier is kept and
  // every store takes its marker's full barrier concurrently with marking. The
  // pacer storm starts a cycle per 4 KiB allocated and asks for a minor GC at
  // 25% nursery fill, racing begin handshakes with minor-GC pauses; as that
  // depends on scheduling, a run checks only what it owes once its mutators
  // exit: a pressure-triggered cycle and a minor GC besides the final nursery
  // drain.
  enum class Storm { None, Unelided, Pacer };
  const char *const StormName[] = {"none", "unelided", "pacer"};
  const unsigned Iters = stressIters();
  const std::vector<unsigned> Threads = markThreadGrid();
  for (unsigned It = 0; It != Iters; ++It) {
    for (uint32_t Seed = 500 + It * 7; Seed != 502 + It * 7; ++Seed) {
      GeneratedProgram G = RandomProgramGenerator(Seed).generate();
      for (Storm S : {Storm::None, Storm::Unelided, Storm::Pacer}) {
        for (MultiMarkerKind Kind :
             {MultiMarkerKind::Satb, MultiMarkerKind::IncrementalUpdate}) {
          const bool IsSatb = Kind == MultiMarkerKind::Satb;
          CompilerOptions Opts;
          Opts.Interp = InterpMode::Fast;
          Opts.Barrier = !IsSatb              ? BarrierMode::CardMarking
                         : S == Storm::Pacer ? BarrierMode::Generational
                                             : BarrierMode::Satb;
          MultiMutatorConfig Cfg;
          Cfg.Marker = Kind;
          Cfg.WarmupAllocs = 50;
          Cfg.MarkerQuantum = 4;
          Cfg.MarkThreads = Threads.back();
          Cfg.Fuse = Seed % 2 == 0;
          const int64_t Arg = S == Storm::Pacer ? 2000 : 150;
          if (S == Storm::Unelided) {
            Opts.ApplyElision = false;
            Opts.Inline.InlineLimit = 0;
          } else if (S == Storm::Pacer) {
            Cfg.Pacer.Enabled = true;
            Cfg.Pacer.TriggerBytes = 4 * 1024;
            Cfg.Pacer.NurseryFillPct = 25;
            Cfg.EnableNursery = true;
            Cfg.NurseryBytes = 256 * 1024;
          }
          CompiledProgram CP = compileProgram(*G.P, Opts);
          std::string What = "seed " + std::to_string(Seed) + " storm " +
                             StormName[static_cast<int>(S)] +
                             (IsSatb ? " satb" : " incupdate");
          MultiMutatorResult R =
              runWithConcurrentMutators(4, *G.P, CP, G.Entry, {Arg}, Cfg);
          EXPECT_TRUE(R.OracleHolds) << What;
          EXPECT_EQ(R.Violations, 0u) << What;
          if (S == Storm::Pacer) {
            EXPECT_GE(R.Pacing.PressureTriggers, 1u) << What;
            EXPECT_GE(R.Minor.Collections, 2u) << What;
          }
        }
      }
    }
  }
}

// --- Parallel marker replay: direct marker runs on a fixed graph ------------

namespace {

/// A random object graph plus a recorded SATB log, for replaying the same
/// marking inputs through different MarkThreads settings.
struct ReplayGraph {
  Program P;
  std::unique_ptr<Heap> H;
  std::vector<ObjRef> Objs;
  std::vector<ObjRef> Roots;
  std::vector<ObjRef> Log;

  explicit ReplayGraph(uint32_t Seed, size_t NumObjs = 3000) {
    ClassId C = P.addClass("Node");
    P.addField(C, "a", JType::Ref);
    P.addField(C, "b", JType::Ref);
    H = std::make_unique<Heap>(P);
    std::mt19937 Rng(Seed);
    for (size_t I = 0; I != NumObjs; ++I)
      Objs.push_back(H->allocateObject(C));
    // Arbitrary edges, cycles included.
    for (ObjRef R : Objs) {
      H->object(R).refs()[0] = Objs[Rng() % Objs.size()];
      H->object(R).refs()[1] = Objs[Rng() % Objs.size()];
    }
    for (int I = 0; I != 6; ++I)
      Roots.push_back(Objs[Rng() % Objs.size()]);
    // The recorded SATB log: pre-values a mutator would have handed over.
    for (int I = 0; I != 400; ++I)
      Log.push_back(Objs[Rng() % Objs.size()]);
  }

  std::vector<bool> markBitmap() const {
    std::vector<bool> Marked(H->maxRef() + 1, false);
    for (ObjRef R = 1; R <= H->maxRef(); ++R)
      Marked[R] = H->isMarked(R);
    return Marked;
  }
};

} // namespace

/// A replay input: mark workers and the markStep budget. Budget 1 parks
/// the lone worker's stack between every object.
struct ReplayRun {
  unsigned M;
  size_t Budget;
};
constexpr ReplayRun ReplayRuns[] = {{1, 64}, {1, 1}, {2, 64}, {4, 64}};

TEST(ParallelMark, SatbBitIdenticalToSerialOnRecordedLog) {
  // The same snapshot roots and the same recorded SATB log must produce a
  // bit-identical mark bitmap whether one worker drains or four do, and
  // whatever the step budget.
  ReplayGraph G(42);
  std::vector<bool> Serial;
  uint64_t SerialMarked = 0;
  for (auto [M, Budget] : ReplayRuns) {
    ThreadPool Pool(M);
    SatbMarker Marker(*G.H, 64);
    if (M > 1)
      Marker.setMarkThreads(M, &Pool);
    Marker.enableTraceCounts(G.H->maxRef() + 1);
    Marker.beginMarking(G.Roots);
    std::vector<ObjRef> LogCopy = G.Log;
    Marker.flushBuffer(std::move(LogCopy));
    while (!Marker.markStep(Budget))
      ;
    Marker.finishMarking();
    std::vector<bool> Marked = G.markBitmap();
    // Mark-once, and traced exactly the marked objects (nothing is
    // allocated during this cycle, so born-marked objects don't exist).
    for (ObjRef R = 1; R <= G.H->maxRef(); ++R)
      ASSERT_EQ(Marker.traceCount(R), Marked[R] ? 1u : 0u)
          << "object " << R << " at M=" << M << " budget " << Budget;
    if (Serial.empty()) {
      Serial = Marked;
      SerialMarked = Marker.stats().MarkedObjects;
      EXPECT_GT(SerialMarked, 0u);
    } else {
      EXPECT_EQ(Marked, Serial)
          << "mark bitmap diverged at M=" << M << " budget " << Budget;
      EXPECT_EQ(Marker.stats().MarkedObjects, SerialMarked);
    }
    G.H->clearMarks();
  }
}

TEST(ParallelMark, FinishMarkingMarksEveryObjectAtEachThreadCount) {
  // A fanout-8 tree of 40000 ref arrays, each also pointing at two random
  // earlier nodes, marked from its root inside the termination pause.
  // There the lone worker owns the bitmap and claims with a plain store,
  // while a gang claims with fetch_or; both must mark every object.
  constexpr size_t N = 40000;
  Program P;
  Heap H(P);
  std::vector<ObjRef> Nodes;
  std::mt19937 Rng(1234);
  for (size_t I = 0; I != N; ++I) {
    ObjRef R = H.allocateRefArray(10);
    if (I > 0) {
      H.object(Nodes[(I - 1) / 8]).refs()[(I - 1) % 8] = R;
      H.object(R).refs()[8] = Nodes[Rng() % I];
      H.object(R).refs()[9] = Nodes[Rng() % I];
    }
    Nodes.push_back(R);
  }
  for (unsigned M : {1u, 2u, 4u}) {
    ThreadPool Pool(M);
    SatbMarker Marker(H);
    if (M > 1)
      Marker.setMarkThreads(M, &Pool);
    H.clearMarks();
    Marker.beginMarking({Nodes[0]});
    Marker.finishMarking();
    EXPECT_EQ(Marker.stats().MarkedObjects, N) << "M=" << M;
  }
}

TEST(ParallelMark, IncUpdateBitIdenticalToSerialOnRecordedWrites) {
  // Same shape for the incremental-update marker: identical roots and an
  // identical recorded mutation sequence (slot stores + card dirtying
  // between the root scan and the drain) must mark the same set for every
  // MarkThreads value and step budget.
  std::vector<bool> Serial;
  for (auto [M, Budget] : ReplayRuns) {
    ReplayGraph G(99); // fresh heap per run so card state starts clean
    ThreadPool Pool(M);
    IncrementalUpdateMarker Marker(*G.H);
    if (M > 1)
      Marker.setMarkThreads(M, &Pool);
    Marker.enableTraceCounts(G.H->maxRef() + 1);
    Marker.beginMarking(G.Roots);
    // Replay the recorded writes: redirect slots deterministically and
    // dirty the written objects' cards, exactly as the barrier would.
    std::mt19937 Rng(7);
    for (ObjRef Src : G.Log) {
      ObjRef Dst = G.Objs[Rng() % G.Objs.size()];
      G.H->object(Src).refs()[Rng() % 2] = Dst;
      Marker.recordWrite(Src);
    }
    while (!Marker.markStep(Budget))
      ;
    Marker.finishMarking(G.Roots);
    for (ObjRef R = 1; R <= G.H->maxRef(); ++R)
      ASSERT_LE(Marker.traceCount(R), 1u)
          << "object " << R << " at M=" << M << " budget " << Budget;
    std::vector<bool> Marked = G.markBitmap();
    if (Serial.empty())
      Serial = Marked;
    else
      EXPECT_EQ(Marked, Serial)
          << "mark bitmap diverged at M=" << M << " budget " << Budget;
  }
}
