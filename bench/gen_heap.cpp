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
/// the modeled barrier cost per store, minor-GC pause times, and
/// mutator throughput.
///
/// JSON rows (SATB_BENCH_JSON=BENCH_gen.json or --json) carry the per-
/// workload columns plus a trailing "total" summary row; CI gates the
/// total row's counter-based elision percentages, which are
/// deterministic and host-independent.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "gc/MinorGC.h"
#include "support/Stopwatch.h"

#include <algorithm>

using namespace satb;
using namespace satb::bench;

namespace {

struct GenRun {
  WorkloadRun Base;
  MinorGCStats Minor;
  double PauseUsTotal = 0.0;
  double PauseUsMax = 0.0;
  // Dynamic executions split by the static young-target proof.
  uint64_t YoungExecs = 0, YoungElided = 0;
  uint64_t OldExecs = 0, OldElided = 0;
};

/// Sums the SATB-component elisions per young-target decision from the
/// per-site slots (the Summary only carries the young total).
template <typename Engine> void splitBySpace(const Engine &I, GenRun &R) {
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
  Opts.Interp = benchEngine();
  CompiledProgram CP = compileProgram(*W.P, Opts);
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
  auto Execute = [&](auto &I) {
    I.attachSatb(&M);
    I.attachGen(&Gen);
    H.setNurseryGCHook([&] {
      Stopwatch PauseTimer;
      Gen.collect(I.collectRoots());
      double Us = PauseTimer.elapsedUs();
      R.PauseUsTotal += Us;
      R.PauseUsMax = std::max(R.PauseUsMax, Us);
    });
    Stopwatch Timer;
    RunStatus S = I.run(W.Entry, {Scale});
    R.Base.WallSeconds = Timer.elapsedUs() / 1e6;
    R.Base.Stats = I.stats().summarize();
    R.Base.Steps = I.stepsExecuted();
    R.Base.BarrierCostInstrs = I.barrierCostInstrs();
    R.Base.Status = S;
    if (S != RunStatus::Finished) {
      std::fprintf(stderr, "bench: %s trapped: %s\n", W.Name.c_str(),
                   trapName(I.trap()));
      std::abort();
    }
    splitBySpace(I, R);
  };
  if (Opts.Interp == InterpMode::Fast) {
    FastProgram FP = translateProgram(*W.P, CP);
    FastInterp I(FP, CP, H);
    Execute(I);
  } else {
    Interpreter I(*W.P, CP, H);
    Execute(I);
  }
  R.Minor = Gen.stats();
  if (R.Base.Stats.Violations != 0 || R.Base.Stats.RemSetViolations != 0) {
    std::fprintf(stderr,
                 "bench: %s unsound (violations %llu, remset violations "
                 "%llu)\n",
                 W.Name.c_str(),
                 static_cast<unsigned long long>(R.Base.Stats.Violations),
                 static_cast<unsigned long long>(R.Base.Stats.RemSetViolations));
    std::abort();
  }
  return R;
}

double pct(uint64_t Part, uint64_t Whole) {
  return Whole ? 100.0 * Part / Whole : 0.0;
}

} // namespace

int main(int argc, char **argv) {
  int64_t Scale = benchScale(4000);
  InterpMode Engine = benchEngine();
  JsonBench Json(argc, argv, "gen_heap", Scale);
  if (!Json.quiet()) {
    std::printf("Generational heap: pre-null elision composed with the "
                "remembered-set barrier\n(engine %s, scale %lld, nursery 32 "
                "KiB, pretenure 1 KiB)\n",
                engineName(Engine), static_cast<long long>(Scale));
    printRule();
    std::printf("%6s %10s %6s %9s %9s %7s %7s %7s %7s\n", "wkld", "wall us",
                "gcs", "pause us", "promoted", "yng%", "yElid%", "oElid%",
                "rsElid%");
    printRule();
  }

  GenRun Total;
  uint64_t TotalStores = 0;
  for (const Workload &W : allWorkloads()) {
    GenRun R = runGenerational(W, Scale);
    const BarrierStats::Summary &S = R.Base.Stats;
    double WallUs = R.Base.WallSeconds * 1e6;
    double PauseAvg =
        R.Minor.Collections ? R.PauseUsTotal / R.Minor.Collections : 0.0;
    if (!Json.quiet())
      std::printf("%6s %10.1f %6llu %9.1f %9llu %7.1f %7.1f %7.1f %7.1f\n",
                  W.Name.c_str(), WallUs,
                  static_cast<unsigned long long>(R.Minor.Collections),
                  PauseAvg,
                  static_cast<unsigned long long>(R.Minor.PromotedObjects),
                  pct(R.YoungExecs, S.TotalExecs),
                  pct(R.YoungElided, R.YoungExecs),
                  pct(R.OldElided, R.OldExecs),
                  pct(S.RemSetElided, S.TotalExecs));
    Json.beginRow();
    Json.field("workload", W.Name);
    Json.field("wall_us", WallUs);
    Json.field("steps", R.Base.Steps);
    Json.field("steps_per_sec",
               R.Base.WallSeconds ? R.Base.Steps / R.Base.WallSeconds : 0.0);
    Json.field("minor_gcs", R.Minor.Collections);
    Json.field("pause_us_avg", PauseAvg);
    Json.field("pause_us_max", R.PauseUsMax);
    Json.field("promoted_objs", R.Minor.PromotedObjects);
    Json.field("freed_young", R.Minor.FreedYoung);
    Json.field("remset_cards_scanned", R.Minor.RemSetCardsScanned);
    Json.field("stores", S.TotalExecs);
    Json.field("young_stores", R.YoungExecs);
    Json.field("young_elide_pct", pct(R.YoungElided, R.YoungExecs));
    Json.field("old_stores", R.OldExecs);
    Json.field("old_elide_pct", pct(R.OldElided, R.OldExecs));
    Json.field("remset_dirtied", S.RemSetDirtied);
    Json.field("remset_elide_pct", pct(S.RemSetElided, S.TotalExecs));
    Json.field("barrier_instrs_per_store",
               S.TotalExecs ? static_cast<double>(R.Base.BarrierCostInstrs) /
                                  S.TotalExecs
                            : 0.0);
    Json.endRow();

    Total.Base.WallSeconds += R.Base.WallSeconds;
    Total.Base.Steps += R.Base.Steps;
    Total.Base.BarrierCostInstrs += R.Base.BarrierCostInstrs;
    Total.Minor.Collections += R.Minor.Collections;
    Total.Minor.PromotedObjects += R.Minor.PromotedObjects;
    Total.Minor.FreedYoung += R.Minor.FreedYoung;
    Total.Minor.RemSetCardsScanned += R.Minor.RemSetCardsScanned;
    Total.PauseUsTotal += R.PauseUsTotal;
    Total.PauseUsMax = std::max(Total.PauseUsMax, R.PauseUsMax);
    Total.YoungExecs += R.YoungExecs;
    Total.YoungElided += R.YoungElided;
    Total.OldExecs += R.OldExecs;
    Total.OldElided += R.OldElided;
    Total.Base.Stats.RemSetDirtied += S.RemSetDirtied;
    Total.Base.Stats.RemSetElided += S.RemSetElided;
    TotalStores += S.TotalExecs;
  }

  double TotalPauseAvg = Total.Minor.Collections
                             ? Total.PauseUsTotal / Total.Minor.Collections
                             : 0.0;
  if (!Json.quiet()) {
    printRule();
    std::printf("%6s %10.1f %6llu %9.1f %9llu %7.1f %7.1f %7.1f %7.1f\n",
                "total", Total.Base.WallSeconds * 1e6,
                static_cast<unsigned long long>(Total.Minor.Collections),
                TotalPauseAvg,
                static_cast<unsigned long long>(Total.Minor.PromotedObjects),
                pct(Total.YoungExecs, TotalStores),
                pct(Total.YoungElided, Total.YoungExecs),
                pct(Total.OldElided, Total.OldExecs),
                pct(Total.Base.Stats.RemSetElided, TotalStores));
    std::printf("\nyng%% = dynamic stores at sites with the static "
                "young-target proof;\nyElid%%/oElid%% = SATB-component "
                "elision rate among young-proof / other stores;\nrsElid%% = "
                "stores whose remembered-set component is statically "
                "removed.\n");
  }
  Json.beginRow();
  Json.field("workload", std::string("total"));
  Json.field("wall_us", Total.Base.WallSeconds * 1e6);
  Json.field("steps", Total.Base.Steps);
  Json.field("steps_per_sec", Total.Base.WallSeconds
                                  ? Total.Base.Steps / Total.Base.WallSeconds
                                  : 0.0);
  Json.field("minor_gcs", Total.Minor.Collections);
  Json.field("pause_us_avg", TotalPauseAvg);
  Json.field("pause_us_max", Total.PauseUsMax);
  Json.field("promoted_objs", Total.Minor.PromotedObjects);
  Json.field("freed_young", Total.Minor.FreedYoung);
  Json.field("remset_cards_scanned", Total.Minor.RemSetCardsScanned);
  Json.field("stores", TotalStores);
  Json.field("young_stores", Total.YoungExecs);
  Json.field("young_elide_pct", pct(Total.YoungElided, Total.YoungExecs));
  Json.field("old_stores", Total.OldExecs);
  Json.field("old_elide_pct", pct(Total.OldElided, Total.OldExecs));
  Json.field("remset_dirtied", Total.Base.Stats.RemSetDirtied);
  Json.field("remset_elide_pct",
             pct(Total.Base.Stats.RemSetElided, TotalStores));
  Json.field("barrier_instrs_per_store",
             TotalStores ? static_cast<double>(Total.Base.BarrierCostInstrs) /
                               TotalStores
                         : 0.0);
  Json.endRow();
  return 0;
}
