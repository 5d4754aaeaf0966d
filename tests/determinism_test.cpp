//===- tests/determinism_test.cpp - Analysis and pipeline determinism -----===//
///
/// \file
/// The analysis must be a pure function of (program, method, config):
/// repeated runs produce identical decisions, identical static counts, and
/// identical compiled artifacts. Nondeterminism here (e.g. iteration over
/// pointer-keyed containers) would make the reproduction unfalsifiable.
///
//===----------------------------------------------------------------------===//

#include "RandomProgram.h"
#include "TestUtil.h"

#include "workloads/Workload.h"

using namespace satb;
using namespace satb::testutil;

namespace {

bool sameDecisions(const AnalysisResult &A, const AnalysisResult &B) {
  if (A.Decisions.size() != B.Decisions.size())
    return false;
  for (size_t I = 0; I != A.Decisions.size(); ++I) {
    const BarrierDecision &X = A.Decisions[I], &Y = B.Decisions[I];
    if (X.IsBarrierSite != Y.IsBarrierSite || X.Elide != Y.Elide ||
        X.Reason != Y.Reason || X.IsArraySite != Y.IsArraySite)
      return false;
  }
  return true;
}

} // namespace

TEST(Determinism, RepeatedAnalysisIdentical) {
  for (uint32_t Seed = 700; Seed != 715; ++Seed) {
    GeneratedProgram G = RandomProgramGenerator(Seed).generate();
    const Method &M = G.P->method(G.Entry);
    AnalysisConfig Cfg;
    AnalysisResult A = analyzeBarriers(*G.P, M, Cfg);
    AnalysisResult B = analyzeBarriers(*G.P, M, Cfg);
    EXPECT_TRUE(sameDecisions(A, B)) << "seed " << Seed;
    EXPECT_EQ(A.NumElided, B.NumElided);
    EXPECT_EQ(A.BlockVisits, B.BlockVisits) << "seed " << Seed;
  }
}

TEST(Determinism, CompiledProgramsIdentical) {
  for (const Workload &W : allWorkloads()) {
    CompiledProgram A = compileProgram(*W.P, CompilerOptions{});
    CompiledProgram B = compileProgram(*W.P, CompilerOptions{});
    ASSERT_EQ(A.Methods.size(), B.Methods.size());
    for (size_t M = 0; M != A.Methods.size(); ++M) {
      EXPECT_EQ(A.Methods[M].Body.Instructions.size(),
                B.Methods[M].Body.Instructions.size());
      EXPECT_EQ(A.Methods[M].Plans, B.Methods[M].Plans)
          << W.Name;
      EXPECT_EQ(A.Methods[M].CodeSize, B.Methods[M].CodeSize);
    }
    EXPECT_EQ(A.totalElidedSites(), B.totalElidedSites()) << W.Name;
  }
}

TEST(Determinism, ExecutionBitIdentical) {
  // Same compiled program, fresh heaps: identical step counts, barrier
  // stats, and results.
  Workload W = makeJavacLike();
  CompiledProgram CP = compileProgram(*W.P, CompilerOptions{});
  uint64_t Steps[2], Execs[2];
  int64_t Result[2];
  for (int I = 0; I != 2; ++I) {
    Heap H(*W.P);
    Interpreter Interp(*W.P, CP, H);
    ASSERT_EQ(Interp.run(W.Entry, {777}), RunStatus::Finished);
    Steps[I] = Interp.stepsExecuted();
    Execs[I] = Interp.stats().summarize().TotalExecs;
    Result[I] = Interp.result().Int;
  }
  EXPECT_EQ(Steps[0], Steps[1]);
  EXPECT_EQ(Execs[0], Execs[1]);
  EXPECT_EQ(Result[0], Result[1]);
}

TEST(Determinism, DeterministicConcurrentCycles) {
  // The interleaved (non-threaded) driver is fully deterministic: same
  // quanta, same pause work, same marked count.
  Workload W = makeJessLike();
  ConcurrentRunResult R[2];
  for (int I = 0; I != 2; ++I) {
    CompiledProgram CP = compileProgram(*W.P, CompilerOptions{});
    Heap H(*W.P);
    SatbMarker M(H);
    Interpreter Interp(*W.P, CP, H);
    Interp.attachSatb(&M);
    ConcurrentRunConfig RC;
    RC.WarmupSteps = 2500;
    RC.MutatorQuantum = 33;
    RC.MarkerQuantum = 7;
    R[I] = runWithConcurrentCycle(Interp, M, H, W.Entry, {400}, RC);
    ASSERT_TRUE(R[I].OracleHolds);
  }
  EXPECT_EQ(R[0].Marked, R[1].Marked);
  EXPECT_EQ(R[0].FinalPauseWork, R[1].FinalPauseWork);
  EXPECT_EQ(R[0].Swept, R[1].Swept);
}

namespace {

/// Serial-marker work counts of one deterministic concurrent cycle.
struct PinnedCycle {
  uint64_t OracleLive, Marked, FinalPauseWork, Swept, ConcurrentWork;
  uint64_t LoggedPreValues = 0; ///< SATB only
};

PinnedCycle runPinnedCycle(const Workload &W, bool Satb) {
  CompilerOptions Opts;
  if (!Satb) {
    Opts.Barrier = BarrierMode::CardMarking;
    Opts.ApplyElision = false;
  }
  CompiledProgram CP = compileProgram(*W.P, Opts);
  Heap H(*W.P);
  Interpreter I(*W.P, CP, H);
  ConcurrentRunConfig RC;
  RC.WarmupSteps = 20000;
  RC.MutatorQuantum = 48;
  RC.MarkerQuantum = 12;
  ConcurrentRunResult R;
  PinnedCycle P{};
  if (Satb) {
    SatbMarker M(H);
    I.attachSatb(&M);
    R = runWithConcurrentCycle(I, M, H, W.Entry, {1500}, RC);
    P.ConcurrentWork = M.stats().ConcurrentWork;
    P.LoggedPreValues = M.stats().LoggedPreValues;
  } else {
    IncrementalUpdateMarker M(H);
    I.attachIncUpdate(&M);
    R = runWithConcurrentCycle(I, M, H, W.Entry, {1500}, RC);
    P.ConcurrentWork = M.stats().ConcurrentWork;
  }
  EXPECT_TRUE(R.OracleHolds) << W.Name;
  EXPECT_EQ(R.Status, RunStatus::Finished) << W.Name;
  P.OracleLive = R.OracleLive;
  P.Marked = R.Marked;
  P.FinalPauseWork = R.FinalPauseWork;
  P.Swept = R.Swept;
  return P;
}

} // namespace

TEST(Determinism, SerialMarkerCountsPinned) {
  // The serial (MarkThreads == 1) markers' work counts on every Table 1
  // workload, recorded by value: a refactor of the marking core or the
  // deterministic driver must reproduce them exactly. Rows follow
  // allWorkloads() order (jess, db, javac, mtrt, jack, jbb).
  const PinnedCycle Expected[2][6] = {
      // OracleLive, Marked, FinalPauseWork, Swept, ConcurrentWork,
      // LoggedPreValues
      {{243, 243, 5, 43, 471, 28},
       {262, 262, 7, 27, 510, 49},
       {174, 174, 13, 56, 328, 41},
       {369, 369, 27, 134, 703, 15},
       {167, 167, 1, 289, 330, 65},
       {201, 201, 1, 0, 396, 90}},
      // OracleLive, Marked, FinalPauseWork, Swept, ConcurrentWork
      {{266, 267, 0, 46, 835},
       {136, 298, 6, 28, 32397},
       {183, 184, 6, 62, 981},
       {421, 426, 12, 157, 1412},
       {202, 202, 0, 289, 1249},
       {1504, 1504, 1249, 0, 344506}}};
  std::vector<Workload> All = allWorkloads();
  ASSERT_EQ(All.size(), 6u);
  for (int Kind = 0; Kind != 2; ++Kind)
    for (size_t WI = 0; WI != All.size(); ++WI) {
      const PinnedCycle &E = Expected[Kind][WI];
      PinnedCycle P = runPinnedCycle(All[WI], /*Satb=*/Kind == 0);
      std::string What = All[WI].Name + (Kind == 0 ? " SATB" : " IU");
      EXPECT_EQ(P.OracleLive, E.OracleLive) << What;
      EXPECT_EQ(P.Marked, E.Marked) << What;
      EXPECT_EQ(P.FinalPauseWork, E.FinalPauseWork) << What;
      EXPECT_EQ(P.Swept, E.Swept) << What;
      EXPECT_EQ(P.ConcurrentWork, E.ConcurrentWork) << What;
      EXPECT_EQ(P.LoggedPreValues, E.LoggedPreValues) << What;
    }
}
