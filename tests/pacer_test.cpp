//===- tests/pacer_test.cpp - Allocation-pressure pacing ------------------===//
///
/// \file
/// The pacer suite (gc/Pacer.h + the pacer-driven multi-mutator driver):
///
///  - unit tests of the trigger thresholds, the occupancy-watermark
///    hysteresis, and the proactive nursery-fill request against a real
///    heap;
///  - pacer-off bit-identity: with Pacer.Enabled=false the driver is the
///    scripted single-cycle driver, and a single paced mutator still
///    executes exactly the steps of a plain FastInterp run;
///  - the differential grid: pacer-triggered cycles (several per run,
///    tiny thresholds) must preserve every semantic observable across
///    {marker x generational x tiered} — same per-mutator step counts as
///    a plain run, oracle holds per cycle, zero elision violations;
///  - server mode: per-request accounting under pacer-driven cycles.
///
//===----------------------------------------------------------------------===//

#include "gc/Pacer.h"
#include "gc/SatbMarker.h"
#include "interp/FastInterp.h"
#include "interp/ThreadedCycle.h"
#include "jit/FastCode.h"
#include "workloads/Workload.h"

#include "gtest/gtest.h"

using namespace satb;

namespace {

// --- Pacer unit tests -------------------------------------------------------

struct PacerFixture : ::testing::Test {
  Program P;
  ClassId C = InvalidId;
  void SetUp() override {
    C = P.addClass("C");
    P.addField(C, "r", JType::Ref);
  }
};

PacerConfig quietConfig() {
  // Every trigger out of reach; each test lowers the one it exercises.
  PacerConfig Cfg;
  Cfg.Enabled = true;
  Cfg.TriggerBytes = 1u << 30;
  Cfg.LiveHighWater = 1u << 30;
  Cfg.LiveHeadroom = 32;
  Cfg.NurseryFillPct = 0;
  return Cfg;
}

TEST_F(PacerFixture, AllocationPressureThreshold) {
  Heap H(P);
  PacerConfig Cfg = quietConfig();
  Cfg.TriggerBytes = 4096;
  Pacer Pace(H, Cfg);

  EXPECT_FALSE(Pace.shouldStartCycle()) << "empty heap must not trigger";
  while (H.bytesAllocatedApprox() < 4096)
    H.allocateObject(C);
  EXPECT_TRUE(Pace.shouldStartCycle());

  Pace.noteCycleStart();
  EXPECT_FALSE(Pace.shouldStartCycle()) << "no trigger while a cycle runs";
  Pace.noteCycleEnd();
  EXPECT_FALSE(Pace.shouldStartCycle())
      << "cycle end re-anchors the allocation delta";

  uint64_t Anchor = H.bytesAllocatedApprox();
  while (H.bytesAllocatedApprox() < Anchor + 4096)
    H.allocateObject(C);
  EXPECT_TRUE(Pace.shouldStartCycle()) << "fresh pressure re-triggers";
  EXPECT_EQ(Pace.stats().CyclesStarted, 1u);
  EXPECT_EQ(Pace.stats().CyclesFinished, 1u);
}

TEST_F(PacerFixture, OccupancyWatermarkHysteresis) {
  Heap H(P);
  PacerConfig Cfg = quietConfig();
  Cfg.LiveHighWater = 64;
  Cfg.LiveHeadroom = 32;
  Pacer Pace(H, Cfg);

  std::vector<ObjRef> Live;
  while (H.numLive() < 63)
    Live.push_back(H.allocateObject(C));
  EXPECT_FALSE(Pace.shouldStartCycle());
  Live.push_back(H.allocateObject(C));
  EXPECT_TRUE(Pace.shouldStartCycle()) << "high watermark reached";

  // A cycle that reclaims nothing: occupancy stays at 64, above the low
  // watermark (high/2 = 32), so the watermark must rise to live+headroom
  // instead of re-triggering back-to-back.
  Pace.noteCycleStart();
  Pace.noteCycleEnd();
  EXPECT_EQ(Pace.liveHighWater(), 64u + 32u);
  EXPECT_FALSE(Pace.shouldStartCycle()) << "hysteresis: standing population";
  while (H.numLive() < 96)
    Live.push_back(H.allocateObject(C));
  EXPECT_TRUE(Pace.shouldStartCycle()) << "genuine growth re-triggers";

  // A cycle whose sweep drops occupancy below the low watermark re-arms
  // the configured watermark.
  Pace.noteCycleStart();
  for (ObjRef R : Live)
    H.free(R);
  Live.clear();
  Pace.noteCycleEnd();
  EXPECT_EQ(Pace.liveHighWater(), 64u);
  EXPECT_EQ(Pace.stats().OccupancyTriggers, 2u);
  EXPECT_EQ(Pace.stats().PressureTriggers, 0u);
}

TEST_F(PacerFixture, MaxCyclesCapStopsTriggering) {
  Heap H(P);
  PacerConfig Cfg = quietConfig();
  Cfg.TriggerBytes = 256;
  Cfg.MaxCycles = 1;
  Pacer Pace(H, Cfg);
  while (H.bytesAllocatedApprox() < 4096)
    H.allocateObject(C);
  ASSERT_TRUE(Pace.shouldStartCycle());
  Pace.noteCycleStart();
  Pace.noteCycleEnd();
  EXPECT_FALSE(Pace.shouldStartCycle()) << "cycle budget spent";
}

TEST_F(PacerFixture, NurseryFillRequestsMinorGC) {
  Heap H(P);
  PacerConfig Cfg = quietConfig();
  Cfg.NurseryFillPct = 50;
  Pacer Pace(H, Cfg);
  EXPECT_FALSE(Pace.shouldRequestMinorGC()) << "no nursery, no request";

  Heap::NurseryConfig NC;
  NC.NurseryBytes = 4096;
  NC.PretenureBytes = 256;
  H.enableNursery(NC);
  while (H.nurseryCarvedBytes() < 2048 - 64)
    H.allocateObject(C);
  EXPECT_FALSE(Pace.shouldRequestMinorGC()) << "below the fill threshold";
  while (H.nurseryCarvedBytes() < 2048)
    H.allocateObject(C);
  EXPECT_TRUE(Pace.shouldRequestMinorGC());
  EXPECT_GE(Pace.stats().MinorRequests, 1u);
}

// --- Driver integration -----------------------------------------------------

MultiMutatorResult runPaced(unsigned Mutators, const Workload &W,
                            BarrierMode Barrier, int64_t Scale,
                            MultiMutatorConfig Cfg) {
  CompilerOptions Opts;
  Opts.Interp = InterpMode::Fast;
  Opts.Barrier = Barrier;
  CompiledProgram CP = compileProgram(*W.P, Opts);
  return runWithConcurrentMutators(Mutators, *W.P, CP, W.Entry, {Scale}, Cfg);
}

/// Tiny thresholds: several cycles on test-sized heaps.
MultiMutatorConfig pacedConfig() {
  MultiMutatorConfig Cfg;
  Cfg.Pacer.Enabled = true;
  Cfg.Pacer.TriggerBytes = 8 * 1024;
  Cfg.Pacer.LiveHighWater = 1u << 30;
  return Cfg;
}

void expectClean(const MultiMutatorResult &R, const std::string &What) {
  EXPECT_TRUE(R.OracleHolds) << What;
  EXPECT_EQ(R.Violations, 0u) << What;
  for (size_t T = 0; T != R.Statuses.size(); ++T) {
    EXPECT_EQ(R.Statuses[T], RunStatus::Finished) << What << " mutator " << T;
    EXPECT_EQ(R.Traps[T], TrapKind::None) << What << " mutator " << T;
  }
}

uint64_t plainSteps(const Workload &W, BarrierMode Barrier, int64_t Scale) {
  CompilerOptions Opts;
  Opts.Interp = InterpMode::Fast;
  Opts.Barrier = Barrier;
  CompiledProgram CP = compileProgram(*W.P, Opts);
  FastProgram FP = translateProgram(*W.P, CP);
  Heap H(*W.P);
  FastInterp I(FP, CP, H);
  EXPECT_EQ(I.run(W.Entry, {Scale}), RunStatus::Finished);
  return I.stepsExecuted();
}

TEST(PacerDriver, PacerOffIsTheScriptedSingleCycleDriver) {
  // Bit-identity of the semantic observables across the two drivers for
  // one mutator: a pacer-off run (the scripted driver), a pacer-on run
  // (several cycles), and a plain FastInterp run must agree on the step
  // count, and the two driver runs on every per-site stat slot.
  Workload W = makeJbbLike();
  uint64_t Plain = plainSteps(W, BarrierMode::Satb, 400);

  MultiMutatorConfig Off;
  EXPECT_FALSE(Off.Pacer.Enabled) << "pacer must be opt-in";
  MultiMutatorResult ROff = runPaced(1, W, BarrierMode::Satb, 400, Off);
  expectClean(ROff, "pacer-off");
  EXPECT_EQ(ROff.Cycles, 1u) << "scripted driver runs exactly one cycle";
  EXPECT_EQ(ROff.Steps[0], Plain);

  MultiMutatorResult ROn = runPaced(1, W, BarrierMode::Satb, 400,
                                    pacedConfig());
  expectClean(ROn, "pacer-on");
  EXPECT_GE(ROn.Cycles, 1u);
  EXPECT_EQ(ROn.Steps[0], Plain);

  const std::vector<SiteStats> &A = ROff.Merged.flat();
  const std::vector<SiteStats> &B = ROn.Merged.flat();
  ASSERT_EQ(A.size(), B.size());
  for (size_t I = 0; I != A.size(); ++I) {
    EXPECT_EQ(A[I].Execs, B[I].Execs) << "site " << I;
    EXPECT_EQ(A[I].PreNull, B[I].PreNull) << "site " << I;
    EXPECT_EQ(A[I].Elided, B[I].Elided) << "site " << I;
  }
}

TEST(PacerDriver, DifferentialGridPreservesSemanticObservables) {
  // Pacer-triggered cycles must be invisible to the mutators: per-mutator
  // step counts equal a plain single-engine run, the per-cycle oracle
  // holds, and no elision violates, across the marker x generational x
  // tiered grid. GC-timing-dependent counters (logged pre-values,
  // remembered-set traffic) legitimately differ and are not compared.
  Workload W = makeJbbLike();
  for (MultiMarkerKind Kind :
       {MultiMarkerKind::Satb, MultiMarkerKind::IncrementalUpdate}) {
    for (bool Nursery : {false, true}) {
      for (bool Tiered : {false, true}) {
        BarrierMode Barrier =
            Kind == MultiMarkerKind::Satb
                ? (Nursery ? BarrierMode::Generational : BarrierMode::Satb)
                : BarrierMode::CardMarking;
        std::string What =
            std::string(Kind == MultiMarkerKind::Satb ? "satb" : "incupdate") +
            (Nursery ? "+nursery" : "") + (Tiered ? "+tiered" : "");
        MultiMutatorConfig Cfg = pacedConfig();
        Cfg.Marker = Kind;
        Cfg.EnableNursery = Nursery;
        Cfg.NurseryBytes = 32 * 1024;
        Cfg.Tiered.Enabled = Tiered;
        MultiMutatorResult R = runPaced(2, W, Barrier, 4000, Cfg);
        expectClean(R, What);
        EXPECT_GE(R.Cycles, 1u) << What;
        uint64_t Plain = plainSteps(W, Barrier, 4000);
        for (size_t T = 0; T != R.Steps.size(); ++T)
          EXPECT_EQ(R.Steps[T], Plain) << What << " mutator " << T;
        if (Nursery) {
          EXPECT_GE(R.Minor.Collections, 1u) << What;
        }
      }
    }
  }
}

TEST(PacerDriver, StormRunsBackToBackCycles) {
  // A near-zero trigger forces cycle after cycle — the nightly soak's
  // configuration. Every cycle's oracle must hold. The scale keeps the
  // mutators alive across several scheduler slices so cycles genuinely
  // interleave with execution, even on a single-CPU host.
  MultiMutatorConfig Cfg = pacedConfig();
  Cfg.Pacer.TriggerBytes = 1024;
  Workload W = makeJbbLike();
  MultiMutatorResult R = runPaced(2, W, BarrierMode::Satb, 120000, Cfg);
  expectClean(R, "pacer storm");
  EXPECT_GE(R.Cycles, 3u);
  EXPECT_EQ(R.Pacing.CyclesStarted, R.Cycles);
  EXPECT_EQ(R.Pacing.CyclesFinished, R.Cycles);
  EXPECT_GT(R.Safepoint.PauseNs.count(), 0u);
}

// --- Server mode ------------------------------------------------------------

TEST(ServerWorkload, VerifiesAndRunsSingleEngine) {
  Workload W = makeServerLike();
  CompilerOptions Opts;
  Opts.Interp = InterpMode::Fast;
  CompiledProgram CP = compileProgram(*W.P, Opts);
  FastProgram FP = translateProgram(*W.P, CP);
  Heap H(*W.P);
  SatbMarker M(H);
  FastInterp I(FP, CP, H);
  I.attachSatb(&M);
  ASSERT_EQ(I.run(W.Entry, {500}), RunStatus::Finished);
  BarrierStats::Summary S = I.stats().summarize();
  EXPECT_EQ(S.Violations, 0u);
  EXPECT_GT(S.TotalExecs, 0u) << "the handler must execute barriers";
}

TEST(ServerWorkload, RequestModeCountsEveryRequest) {
  // 4 mutators x 500 requests on a 96 KiB trigger, in each server
  // configuration: every mutator finishes, every request is counted once,
  // and the oracle holds on every cycle.
  struct ServerConfig {
    const char *Name;
    BarrierMode Barrier;
    MultiMarkerKind Marker;
    bool Nursery, Tiered;
  };
  const ServerConfig Configs[] = {
      {"satb", BarrierMode::Satb, MultiMarkerKind::Satb, false, false},
      {"incupdate", BarrierMode::CardMarking,
       MultiMarkerKind::IncrementalUpdate, false, false},
      {"generational", BarrierMode::Generational, MultiMarkerKind::Satb, true,
       false},
      {"satb_tiered", BarrierMode::Satb, MultiMarkerKind::Satb, false, true}};
  Workload W = makeServerLike();
  for (const ServerConfig &C : Configs) {
    MultiMutatorConfig Cfg = pacedConfig();
    Cfg.Pacer.TriggerBytes = 96 * 1024;
    Cfg.Marker = C.Marker;
    Cfg.Requests = 500;
    Cfg.EnableNursery = C.Nursery;
    Cfg.NurseryBytes = 128 * 1024;
    Cfg.Tiered.Enabled = C.Tiered;
    MultiMutatorResult R = runPaced(4, W, C.Barrier, /*Scale=*/1, Cfg);
    expectClean(R, C.Name);
    ASSERT_EQ(R.RequestsCompleted.size(), 4u) << C.Name;
    for (uint64_t Done : R.RequestsCompleted)
      EXPECT_EQ(Done, 500u) << C.Name;
    EXPECT_EQ(R.TotalRequests, 2000u) << C.Name;
    EXPECT_EQ(R.RequestNs.count(), 2000u) << C.Name;
    EXPECT_GE(R.Cycles, 1u) << C.Name << ": allocation must reach the trigger";
    if (C.Nursery) {
      EXPECT_GE(R.Minor.Collections, 1u) << C.Name;
    }
    // Every histogram recording is a real nonzero latency.
    EXPECT_GT(R.RequestNs.min(), 0u) << C.Name;
  }
}

TEST(ServerWorkload, SharedStateSurvivesAcrossEntryInvocations) {
  // One heap, repeated main(1) calls: the static session table persists,
  // so the seeded request mix continues instead of restarting — the
  // contract the per-request server mode relies on.
  Workload W = makeServerLike();
  CompilerOptions Opts;
  Opts.Interp = InterpMode::Fast;
  CompiledProgram CP = compileProgram(*W.P, Opts);
  FastProgram FP = translateProgram(*W.P, CP);

  Heap HBatch(*W.P);
  FastInterp Batch(FP, CP, HBatch);
  ASSERT_EQ(Batch.run(W.Entry, {40}), RunStatus::Finished);
  int64_t BatchSeed = Batch.result().Int;

  Heap HSplit(*W.P);
  FastInterp Split(FP, CP, HSplit);
  int64_t SplitSeed = -1;
  for (int I = 0; I != 40; ++I) {
    Split.start(W.Entry, {1});
    ASSERT_EQ(Split.step(100'000'000), RunStatus::Finished);
    SplitSeed = Split.result().Int;
  }
  // The entry returns the RNG seed; equal final seeds prove the split run
  // walked the same 40-request mix as the batch run.
  EXPECT_EQ(SplitSeed, BatchSeed)
      << "per-request invocations must continue the same mix";
}

} // namespace
