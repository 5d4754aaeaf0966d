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
    R[I] = runWithConcurrentSatb(Interp, M, H, W.Entry, {400}, RC);
    ASSERT_TRUE(R[I].OracleHolds);
  }
  EXPECT_EQ(R[0].Marked, R[1].Marked);
  EXPECT_EQ(R[0].FinalPauseWork, R[1].FinalPauseWork);
  EXPECT_EQ(R[0].Swept, R[1].Swept);
}
