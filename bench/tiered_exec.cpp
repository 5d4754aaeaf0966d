//===- bench/tiered_exec.cpp - Tiered execution cost/benefit table --------===//
///
/// \file
/// The row set for the tiered method-version layer (ROADMAP item "Tiered
/// execution", DESIGN.md "Tiered execution"): every Table 1 workload runs
/// three ways on the fast engine under the SATB barrier —
///
///   static  : the untiered engine, Section 2/3 proof applied (today's
///             default configuration);
///   tiered  : the tiered engine, Baseline -> Static -> Speculative
///             lifecycle with the default promotion thresholds; the
///             speculative tier elides profile-null barriers the static
///             proof cannot discharge (SpecElided);
///   storm   : tiered with TieredOptions::ForceDeoptEvery tripping every
///             64th passing guard, measuring the deopt path's cost.
///
/// Inlining is disabled for all three configurations: tiering promotes
/// whole methods, so a fully inlined workload would leave the promotion
/// policy nothing to act on (the entry method never promotes), and the
/// comparison must hold the compiled bodies constant across configs.
///
/// Exits 1 when the total row's storm deopt rate (drate%) exceeds
/// 100/64 = 1.5625%. The storm forces exactly one of every 64 passing
/// guards to deopt, so that is the exact rate at every scale; anything
/// above it is a guard failing on its own.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include <algorithm>

using namespace satb;
using namespace satb::bench;

namespace {

struct TieredRun {
  double WallSeconds = 0.0;
  uint64_t Steps = 0;
  BarrierStats::Summary Stats;
  TierCounters Tiers;
};

/// Runs \p W once; \p TOpts == nullptr selects the untiered engine.
TieredRun runConfig(const Workload &W, const CompiledProgram &CP,
                    int64_t Scale, const TieredOptions *TOpts) {
  TieredRun R;
  Heap H(*W.P);
  SatbMarker M(H); // log target; no cycle runs during timing
  TranslateOptions TO;
  auto Execute = [&](FastInterp &I) {
    I.attachSatb(&M);
    Stopwatch Timer;
    RunStatus S = I.run(W.Entry, {Scale});
    R.WallSeconds = Timer.elapsedUs() / 1e6;
    R.Steps = I.stepsExecuted();
    R.Stats = I.stats().summarize();
    if (S != RunStatus::Finished) {
      std::fprintf(stderr, "bench: %s trapped: %s\n", W.Name.c_str(),
                   trapName(I.trap()));
      std::abort();
    }
    if (R.Stats.Violations != 0) {
      std::fprintf(stderr, "bench: %s had %llu elision violations\n",
                   W.Name.c_str(),
                   static_cast<unsigned long long>(R.Stats.Violations));
      std::abort();
    }
  };
  if (TOpts) {
    MethodVersionTable VT(*W.P, CP, TO, *TOpts);
    FastInterp I(VT, CP, H);
    Execute(I);
    R.Tiers = VT.counters();
  } else {
    FastProgram FP = translateProgram(*W.P, CP, TO);
    FastInterp I(FP, CP, H);
    Execute(I);
  }
  return R;
}

double pct(uint64_t Part, uint64_t Whole) {
  return Whole ? 100.0 * Part / Whole : 0.0;
}

/// Share of speculative-guard outcomes that deopted: the storm run's
/// deopts against its successful guarded elisions.
double deoptRate(const TieredRun &R) {
  return pct(R.Stats.Deopts, R.Stats.SpecElided + R.Stats.Deopts);
}

} // namespace

int main() {
  int64_t Scale = benchScale(4000);

  TieredOptions Tiered;
  Tiered.Enabled = true;
  Tiered.ForceDeoptEvery = 0;
  TieredOptions Storm = Tiered;
  Storm.ForceDeoptEvery = 64;

  std::printf("Tiered execution: speculative elision beyond the static "
              "proof\n(fast engine, scale %lld, warm %u, hot %u, storm "
              "every %u guards)\n",
              static_cast<long long>(Scale), Tiered.WarmInvocations,
              Tiered.HotInvocations, Storm.ForceDeoptEvery);
  printRule();
  std::printf("%6s %10s %10s %7s %8s %8s %7s %7s %7s\n", "wkld", "stat us",
              "tier us", "spdup", "elide%", "spec%", "promos", "deopts",
              "drate%");
  printRule();

  double StaticWall = 0.0, TieredWall = 0.0;
  TieredRun Total, StormTotal;
  for (const Workload &W : allWorkloads()) {
    CompilerOptions Opts;
    Opts.Interp = InterpMode::Fast;
    Opts.Barrier = BarrierMode::Satb;
    Opts.Inline.InlineLimit = 0; // see file comment
    CompiledProgram CP = compileProgram(*W.P, Opts);

    TieredRun S = runConfig(W, CP, Scale, nullptr);
    TieredRun T = runConfig(W, CP, Scale, &Tiered);
    TieredRun D = runConfig(W, CP, Scale, &Storm);
    if (S.Steps != T.Steps || S.Steps != D.Steps) {
      std::fprintf(stderr, "bench: %s step drift across tiers\n",
                   W.Name.c_str());
      std::abort();
    }

    std::printf("%6s %10.1f %10.1f %7.2f %8.1f %8.2f %7llu %7llu %7.1f\n",
                W.Name.c_str(), S.WallSeconds * 1e6, T.WallSeconds * 1e6,
                T.WallSeconds > 0.0 ? S.WallSeconds / T.WallSeconds : 0.0,
                pct(T.Stats.ElidedExecs, T.Stats.TotalExecs),
                pct(T.Stats.SpecElided, T.Stats.TotalExecs),
                static_cast<unsigned long long>(T.Tiers.SpecPromotions),
                static_cast<unsigned long long>(D.Stats.Deopts),
                deoptRate(D));

    StaticWall += S.WallSeconds;
    TieredWall += T.WallSeconds;
    Total.Stats.TotalExecs += T.Stats.TotalExecs;
    Total.Stats.ElidedExecs += T.Stats.ElidedExecs;
    Total.Stats.SpecElided += T.Stats.SpecElided;
    Total.Tiers.SpecPromotions += T.Tiers.SpecPromotions;
    StormTotal.Stats.SpecElided += D.Stats.SpecElided;
    StormTotal.Stats.Deopts += D.Stats.Deopts;
  }

  const double DeoptRate = deoptRate(StormTotal);
  printRule();
  std::printf("%6s %10.1f %10.1f %7.2f %8.1f %8.2f %7llu %7llu %7.1f\n",
              "total", StaticWall * 1e6, TieredWall * 1e6,
              TieredWall > 0.0 ? StaticWall / TieredWall : 0.0,
              pct(Total.Stats.ElidedExecs, Total.Stats.TotalExecs),
              pct(Total.Stats.SpecElided, Total.Stats.TotalExecs),
              static_cast<unsigned long long>(Total.Tiers.SpecPromotions),
              static_cast<unsigned long long>(StormTotal.Stats.Deopts),
              DeoptRate);
  std::printf("speculative tier elided %llu barriers beyond the static "
              "proof (%.2f%% of stores) across %llu promoted methods\n",
              static_cast<unsigned long long>(Total.Stats.SpecElided),
              pct(Total.Stats.SpecElided, Total.Stats.TotalExecs),
              static_cast<unsigned long long>(Total.Tiers.SpecPromotions));
  const double DeoptCeiling = 100.0 / Storm.ForceDeoptEvery;
  if (DeoptRate > DeoptCeiling) {
    std::fprintf(stderr, "tiered_exec: total drate%% %.4f is above %.4f\n",
                 DeoptRate, DeoptCeiling);
    return 1;
  }
  return 0;
}
