//===- bench/barrier_cost_micro.cpp - Section 4.5 barrier cost ------------===//
///
/// \file
/// Micro-benchmark of the write-barrier flavors using google-benchmark: a
/// tight field-store loop interpreted under each barrier mode. Reports
/// interpreted ns/store and the modeled RISC-instruction cost per store
/// (the paper's Section 1 budget: SATB barrier 9-12 instructions when
/// marking with a non-null pre-value, card barrier 2).
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "bytecode/MethodBuilder.h"
#include "gc/MinorGC.h"

#include <benchmark/benchmark.h>

using namespace satb;
using namespace satb::bench;

namespace {

/// One program: main(n) overwrites a field of an escaped object with a
/// non-null value n times — the worst case for the SATB barrier (always
/// logs).
struct MicroProgram {
  Program P;
  MethodId Main;

  MicroProgram() {
    ClassId C = P.addClass("Cell");
    FieldId F = P.addField(C, "ref", JType::Ref);
    StaticFieldId Sink = P.addStaticField("sink", JType::Ref);
    MethodBuilder B(P, "main", {JType::Int}, std::nullopt);
    Local T = B.newLocal(JType::Int), X = B.newLocal(JType::Ref);
    Label Head = B.newLabel(), Done = B.newLabel();
    B.newInstance(C).astore(X);
    B.aload(X).putstatic(Sink); // escape: the store below keeps its barrier
    B.aload(X).aload(X).putfield(F);
    B.iconst(0).istore(T);
    B.bind(Head).iload(T).iload(B.arg(0)).ifICmpGe(Done);
    B.aload(X).aload(X).putfield(F); // non-pre-null store under test
    B.iinc(T, 1).jump(Head);
    B.bind(Done).ret();
    Main = B.finish();
  }
};

void runMode(benchmark::State &State, BarrierMode Mode, bool MarkingActive) {
  MicroProgram MP;
  CompilerOptions Opts;
  Opts.Barrier = Mode;
  CompiledProgram CP = compileProgram(MP.P, Opts);
  const int64_t N = 20000;
  uint64_t Stores = 0, CostInstrs = 0;
  for (auto _ : State) {
    Heap H(MP.P);
    SatbMarker M(H);
    IncrementalUpdateMarker Inc(H);
    Interpreter I(MP.P, CP, H);
    I.attachSatb(&M);
    I.attachIncUpdate(&Inc);
    if (MarkingActive) {
      if (Mode == BarrierMode::CardMarking)
        Inc.beginMarking({});
      else
        M.beginMarking({});
    }
    I.run(MP.Main, {N});
    Stores += N;
    CostInstrs += modeledBarrierCost(I.stats());
    if (MarkingActive) {
      if (Mode == BarrierMode::CardMarking)
        Inc.finishMarking({});
      else
        M.finishMarking();
    }
    benchmark::DoNotOptimize(I.stepsExecuted());
  }
  // Stores per iteration is N; the inverted iteration-invariant rate
  // reports seconds per store.
  State.counters["sec/store"] = benchmark::Counter(
      static_cast<double>(N), benchmark::Counter::kIsIterationInvariantRate |
                                  benchmark::Counter::kInvert);
  State.counters["model instrs/store"] =
      Stores ? static_cast<double>(CostInstrs) / Stores : 0;
}

/// One program for the statically elided generational row: every loop
/// iteration allocates a fresh Cell and does one initializing store, so
/// the site carries both the pre-null proof (field never written) and
/// the young-target proof (freshly allocated base) — the barrier
/// vanishes entirely under BarrierMode::Generational with elision on.
struct GenElidedProgram {
  Program P;
  MethodId Main;

  GenElidedProgram() {
    ClassId C = P.addClass("Cell");
    FieldId F = P.addField(C, "ref", JType::Ref);
    StaticFieldId Sink = P.addStaticField("sink", JType::Ref);
    MethodBuilder B(P, "main", {JType::Int}, std::nullopt);
    Local T = B.newLocal(JType::Int), X = B.newLocal(JType::Ref),
          Y = B.newLocal(JType::Ref);
    Label Head = B.newLabel(), Done = B.newLabel();
    B.newInstance(C).astore(X);
    B.aload(X).putstatic(Sink);
    B.iconst(0).istore(T);
    B.bind(Head).iload(T).iload(B.arg(0)).ifICmpGe(Done);
    B.newInstance(C).astore(Y);
    B.aload(Y).aload(X).putfield(F); // pre-null + young-target: fully elided
    B.iinc(T, 1).jump(Head);
    B.bind(Done).ret();
    Main = B.finish();
  }
};

/// Generational rows: the remembered-set component's dynamic cost by
/// store target. \p PretenureBytes steers the MicroProgram's Cell into
/// the nursery (large threshold → young base, remset check stops at the
/// base-young test) or old space (tiny threshold → old base, the check
/// also null+young-tests the stored value). \p Elided instead runs
/// GenElidedProgram with elision on, where both barrier components are
/// statically removed. Elided iterations allocate per store, so compare
/// its "model instrs/store" (0), not its wall clock, against the others.
void runGenMode(benchmark::State &State, uint32_t PretenureBytes,
                bool Elided) {
  MicroProgram MP;
  GenElidedProgram EP;
  CompilerOptions Opts;
  Opts.Barrier = BarrierMode::Generational;
  Opts.ApplyElision = Elided;
  const Program &P = Elided ? EP.P : MP.P;
  MethodId Main = Elided ? EP.Main : MP.Main;
  CompiledProgram CP = compileProgram(P, Opts);
  const int64_t N = 20000;
  uint64_t Stores = 0, CostInstrs = 0;
  for (auto _ : State) {
    Heap H(P);
    Heap::NurseryConfig NC;
    NC.NurseryBytes = 4 * 1024 * 1024; // no minor GC during the loop
    NC.PretenureBytes = PretenureBytes;
    H.enableNursery(NC);
    SatbMarker M(H);
    MinorGC Gen(H);
    Gen.attachMarker(&M);
    Gen.setRemSetValid(true);
    Interpreter I(P, CP, H);
    I.attachSatb(&M);
    I.attachGen(&Gen);
    I.run(Main, {N});
    Stores += N;
    CostInstrs += modeledBarrierCost(I.stats());
    benchmark::DoNotOptimize(I.stepsExecuted());
  }
  State.counters["sec/store"] = benchmark::Counter(
      static_cast<double>(N), benchmark::Counter::kIsIterationInvariantRate |
                                  benchmark::Counter::kInvert);
  State.counters["model instrs/store"] =
      Stores ? static_cast<double>(CostInstrs) / Stores : 0;
}

/// Bulk-store rows: one 64-slot ArrayFill per iteration. \p Fresh fills
/// a freshly allocated array (the Section 3 range proof removes the
/// barrier); otherwise one published long-lived array is refilled every
/// iteration and the range barrier stays. Costs are modeled per bulk
/// execution, not per slot: the idle range barrier is the same 2-instr
/// check as one scalar store, and an active-marking refill pays the
/// per-slot SATB log for all 64 non-null pre-values.
struct RangeProgram {
  Program P;
  MethodId Main;

  explicit RangeProgram(bool Fresh) {
    StaticFieldId Sink = P.addStaticField("sink", JType::Ref);
    MethodBuilder B(P, "main", {JType::Int}, std::nullopt);
    Local T = B.newLocal(JType::Int), Arr = B.newLocal(JType::Ref);
    Label Head = B.newLabel(), Done = B.newLabel();
    if (!Fresh) {
      B.iconst(64).newRefArray().astore(Arr);
      B.aload(Arr).putstatic(Sink); // escape: the range barrier stays
    }
    B.iconst(0).istore(T);
    B.bind(Head).iload(T).iload(B.arg(0)).ifICmpGe(Done);
    if (Fresh)
      B.iconst(64).newRefArray().astore(Arr);
    B.aload(Arr).aload(Arr).iconst(0).iconst(64).arrayfill();
    B.iinc(T, 1).jump(Head);
    B.bind(Done).ret();
    Main = B.finish();
  }
};

void runRange(benchmark::State &State, bool Fresh, bool MarkingActive) {
  RangeProgram RP(Fresh);
  CompilerOptions Opts;
  Opts.Barrier = BarrierMode::Satb;
  CompiledProgram CP = compileProgram(RP.P, Opts);
  const int64_t N = 20000;
  uint64_t BulkStores = 0, CostInstrs = 0;
  for (auto _ : State) {
    Heap H(RP.P);
    SatbMarker M(H);
    Interpreter I(RP.P, CP, H);
    I.attachSatb(&M);
    if (MarkingActive)
      M.beginMarking({});
    I.run(RP.Main, {N});
    BulkStores += N;
    CostInstrs += modeledBarrierCost(I.stats());
    if (MarkingActive)
      M.finishMarking();
    benchmark::DoNotOptimize(I.stepsExecuted());
  }
  State.counters["sec/store"] = benchmark::Counter(
      static_cast<double>(N), benchmark::Counter::kIsIterationInvariantRate |
                                  benchmark::Counter::kInvert);
  State.counters["model instrs/store"] =
      BulkStores ? static_cast<double>(CostInstrs) / BulkStores : 0;
}

void BM_NoBarrier(benchmark::State &S) {
  runMode(S, BarrierMode::None, false);
}
void BM_SatbIdle(benchmark::State &S) { runMode(S, BarrierMode::Satb, false); }
void BM_SatbMarking(benchmark::State &S) {
  runMode(S, BarrierMode::Satb, true);
}
void BM_SatbAlwaysLog(benchmark::State &S) {
  runMode(S, BarrierMode::SatbAlwaysLog, false);
}
void BM_CardMarking(benchmark::State &S) {
  runMode(S, BarrierMode::CardMarking, true);
}
// Generational rows (nursery on, marking idle): young-target store pays
// only the base-young test on top of the idle SATB check; old-target
// also null+young-tests the stored value; the statically proven
// initializing store skips both components.
void BM_GenYoungStore(benchmark::State &S) {
  runGenMode(S, /*PretenureBytes=*/1024, /*Elided=*/false);
}
void BM_GenOldStore(benchmark::State &S) {
  runGenMode(S, /*PretenureBytes=*/1, /*Elided=*/false);
}
void BM_GenElided(benchmark::State &S) {
  runGenMode(S, /*PretenureBytes=*/1024, /*Elided=*/true);
}
// Bulk rows: 64-slot ArrayFill, cost per bulk execution.
void BM_RangeBarrierIdle(benchmark::State &S) {
  runRange(S, /*Fresh=*/false, /*MarkingActive=*/false);
}
void BM_RangeBarrierMarking(benchmark::State &S) {
  runRange(S, /*Fresh=*/false, /*MarkingActive=*/true);
}
void BM_RangeElided(benchmark::State &S) {
  runRange(S, /*Fresh=*/true, /*MarkingActive=*/false);
}

BENCHMARK(BM_NoBarrier);
BENCHMARK(BM_SatbIdle);
BENCHMARK(BM_SatbMarking);
BENCHMARK(BM_SatbAlwaysLog);
BENCHMARK(BM_CardMarking);
BENCHMARK(BM_GenYoungStore);
BENCHMARK(BM_GenOldStore);
BENCHMARK(BM_GenElided);
BENCHMARK(BM_RangeBarrierIdle);
BENCHMARK(BM_RangeBarrierMarking);
BENCHMARK(BM_RangeElided);

} // namespace

int main(int argc, char **argv) {
  std::printf("Barrier micro-costs. Expected model instrs/store: SATB idle "
              "2, SATB marking\n(non-null pre-value) 11 (the paper's 9-12 "
              "budget), always-log 9, card 2,\ngenerational young store 4, "
              "old store 6, statically elided 0.\nBulk rows (64-slot "
              "ArrayFill, per bulk execution): range barrier idle 2,\nrange "
              "barrier marking ~389 (2 + 3 + 64 non-null pre-value logs at "
              "6), range\nelided 0.\n\n");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
