//===- bench/gen_heap.cpp - Generational heap composition table -----------===//
///
/// \file
/// The Table-1-style row set for the generational layer (ROADMAP item
/// "Generational heap + nursery-aware elision"): every workload runs
/// under BarrierMode::Generational with the nursery enabled and minor
/// collections firing from the allocation slow path. Per workload we
/// report how the paper's pre-null elision composes with the
/// remembered-set barrier — elision rates split by the static
/// young-target proof (young vs. old rows the paper couldn't measure),
/// minor-GC counts, pause times and promotions, and mutator wall time.
///
/// At kCheckedScale (the scale ctest runs) the bench exits 1 when the
/// total row's young-target elision rate (yElid%) or remembered-set
/// elision rate (rsElid%) falls below its floor. Both are deterministic
/// counter ratios, and each floor is the exact value at that scale.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "gc/MinorGC.h"
#include "support/Stopwatch.h"

using namespace satb;
using namespace satb::bench;

namespace {

struct GenRun {
  double WallSeconds = 0.0;
  BarrierStats::Summary Stats;
  MinorGCStats Minor;
  double PauseUsTotal = 0.0;
  // Dynamic executions split by the static young-target proof.
  uint64_t YoungExecs = 0, YoungElided = 0;
  uint64_t OldExecs = 0, OldElided = 0;
};

/// Sums the SATB-component elisions per young-target decision from the
/// per-site slots (the Summary only carries the young total).
void splitBySpace(const FastInterp &I, GenRun &R) {
  for (const SiteStats &SS : I.stats().flat()) {
    if (SS.Execs == 0)
      continue;
    if (SS.Plan.Rem == RemPlan::Elided) {
      R.YoungExecs += SS.Execs;
      R.YoungElided += SS.Elided;
    } else {
      R.OldExecs += SS.Execs;
      R.OldElided += SS.Elided;
    }
  }
}

/// Runs \p W under the generational barrier with the nursery on: the
/// heap's exhaustion hook triggers a timed stop-the-world minor
/// collection rooted in the engine's frames, exactly the wiring the
/// gc_property_test uses, plus pause timing.
GenRun runGenerational(const Workload &W, int64_t Scale) {
  CompilerOptions Opts;
  Opts.Barrier = BarrierMode::Generational;
  Opts.Interp = InterpMode::Fast;
  CompiledProgram CP = compileProgram(*W.P, Opts);
  FastProgram FP = translateProgram(*W.P, CP);
  GenRun R;
  Heap H(*W.P);
  Heap::NurseryConfig NC;
  NC.NurseryBytes = 32 * 1024;
  NC.PretenureBytes = 1024;
  H.enableNursery(NC);
  SatbMarker M(H);
  MinorGC Gen(H);
  Gen.attachMarker(&M);
  Gen.setRemSetValid(true);
  FastInterp I(FP, CP, H);
  I.attachSatb(&M);
  I.attachGen(&Gen);
  H.setNurseryGCHook([&] {
    Stopwatch PauseTimer;
    Gen.collect(I.collectRoots());
    R.PauseUsTotal += PauseTimer.elapsedUs();
  });
  Stopwatch Timer;
  RunStatus S = I.run(W.Entry, {Scale});
  R.WallSeconds = Timer.elapsedUs() / 1e6;
  if (S != RunStatus::Finished) {
    std::fprintf(stderr, "bench: %s trapped: %s\n", W.Name.c_str(),
                 trapName(I.trap()));
    std::abort();
  }
  R.Stats = I.stats().summarize();
  splitBySpace(I, R);
  R.Minor = Gen.stats();
  if (R.Stats.Violations != 0 || R.Stats.RemSetViolations != 0) {
    std::fprintf(stderr,
                 "bench: %s unsound (violations %llu, remset violations "
                 "%llu)\n",
                 W.Name.c_str(),
                 static_cast<unsigned long long>(R.Stats.Violations),
                 static_cast<unsigned long long>(R.Stats.RemSetViolations));
    std::abort();
  }
  return R;
}

double pct(uint64_t Part, uint64_t Whole) {
  return Whole ? 100.0 * Part / Whole : 0.0;
}

} // namespace

int main() {
  int64_t Scale = benchScale(4000);
  std::printf("Generational heap: pre-null elision composed with the "
              "remembered-set barrier\n(engine fast, scale %lld, nursery 32 "
              "KiB, pretenure 1 KiB)\n",
              static_cast<long long>(Scale));
  printRule();
  std::printf("%6s %10s %6s %9s %9s %7s %7s %7s %7s\n", "wkld", "wall us",
              "gcs", "pause us", "promoted", "yng%", "yElid%", "oElid%",
              "rsElid%");
  printRule();

  GenRun Total;
  for (const Workload &W : allWorkloads()) {
    GenRun R = runGenerational(W, Scale);
    const BarrierStats::Summary &S = R.Stats;
    std::printf("%6s %10.1f %6llu %9.1f %9llu %7.1f %7.1f %7.1f %7.1f\n",
                W.Name.c_str(), R.WallSeconds * 1e6,
                static_cast<unsigned long long>(R.Minor.Collections),
                R.Minor.Collections ? R.PauseUsTotal / R.Minor.Collections
                                    : 0.0,
                static_cast<unsigned long long>(R.Minor.PromotedObjects),
                pct(R.YoungExecs, S.TotalExecs),
                pct(R.YoungElided, R.YoungExecs),
                pct(R.OldElided, R.OldExecs),
                pct(S.RemSetElided, S.TotalExecs));
    Total.WallSeconds += R.WallSeconds;
    Total.Minor.Collections += R.Minor.Collections;
    Total.Minor.PromotedObjects += R.Minor.PromotedObjects;
    Total.PauseUsTotal += R.PauseUsTotal;
    Total.YoungExecs += R.YoungExecs;
    Total.YoungElided += R.YoungElided;
    Total.OldExecs += R.OldExecs;
    Total.OldElided += R.OldElided;
    Total.Stats.RemSetElided += S.RemSetElided;
    Total.Stats.TotalExecs += S.TotalExecs;
  }

  const uint64_t TotalStores = Total.Stats.TotalExecs;
  const double YoungElidePct = pct(Total.YoungElided, Total.YoungExecs);
  const double RemSetElidePct = pct(Total.Stats.RemSetElided, TotalStores);
  printRule();
  std::printf("%6s %10.1f %6llu %9.1f %9llu %7.1f %7.1f %7.1f %7.1f\n",
              "total", Total.WallSeconds * 1e6,
              static_cast<unsigned long long>(Total.Minor.Collections),
              Total.Minor.Collections
                  ? Total.PauseUsTotal / Total.Minor.Collections
                  : 0.0,
              static_cast<unsigned long long>(Total.Minor.PromotedObjects),
              pct(Total.YoungExecs, TotalStores), YoungElidePct,
              pct(Total.OldElided, Total.OldExecs), RemSetElidePct);
  std::printf("\nyng%% = dynamic stores at sites with the static "
              "young-target proof;\nyElid%%/oElid%% = SATB-component "
              "elision rate among young-proof / other stores;\nrsElid%% = "
              "stores whose remembered-set component is statically "
              "removed.\n");

  if (Scale != kCheckedScale)
    return 0;
  const double YoungFloor = 91.85, RemSetFloor = 43.15;
  int Status = 0;
  if (YoungElidePct < YoungFloor) {
    std::fprintf(stderr, "gen_heap: total yElid%% %.4f is below %.2f\n",
                 YoungElidePct, YoungFloor);
    Status = 1;
  }
  if (RemSetElidePct < RemSetFloor) {
    std::fprintf(stderr, "gen_heap: total rsElid%% %.4f is below %.2f\n",
                 RemSetElidePct, RemSetFloor);
    Status = 1;
  }
  return Status;
}
