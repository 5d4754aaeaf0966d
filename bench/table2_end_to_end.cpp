//===- bench/table2_end_to_end.cpp - Paper Table 2 ------------------------===//
///
/// \file
/// Regenerates Table 2, "jbb end-to-end barrier cost": throughput of the
/// jbb workload under three barrier modes, each the average of 5 runs
/// (matching the paper's methodology):
///
///   no-barrier       every SATB barrier removed (the paper ran with a
///                    heap large enough to never mark);
///   always-log       the Section 4.5 future-work mode — skip the
///                    marking-active check, always log non-null
///                    pre-values; elision disabled;
///   always-log-elim  always-log with write-barrier elimination on.
///
/// The paper reports 1.000 / 0.975 / 0.984: barriers cost ~2.5% end to
/// end, and eliminating ~25% of jbb's barriers claws back about that
/// fraction. Our substrate is an interpreter, so the absolute barrier
/// share of runtime differs; the ordering and the claw-back shape are the
/// reproduction targets. Timing runs use the fast engine (its
/// barrier-specialized opcodes make the wall-clock delta closest to
/// compiled code). The modeled RISC-instruction cost (Section 1's 9-12
/// instructions per executed barrier) only exists on the reference
/// engine, so a single deterministic reference side-run per mode fills
/// those columns (the engines are observable-equivalent, so the
/// counters are identical).
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include <algorithm>
#include <vector>

using namespace satb;
using namespace satb::bench;

namespace {

struct ModeResult {
  std::vector<double> Runs; // transactions per second, one per repetition
  uint64_t BarrierCost = 0;
  uint64_t ModeledInstrs = 0;
  double ElimPct = 0;

  /// Median throughput: robust against scheduler noise on a shared core.
  double Throughput = 0;
  void finalize() {
    std::sort(Runs.begin(), Runs.end());
    Throughput = Runs.empty() ? 0 : Runs[Runs.size() / 2];
  }
};

} // namespace

int main() {
  int64_t Scale = benchScale(8000);
  const int Runs = 9;
  // 180 pad iterations dilute the condensed workload's store density to
  // real-jbb levels: barriers end up costing a few percent of the modeled
  // machine instructions, like the paper's 2.5%.
  Workload W = makeJbbLike(/*PadIterations=*/180);

  std::printf("Table 2: jbb end-to-end barrier cost (scale %lld, fast engine, "
              "median CPU-time throughput of %d interleaved runs)\n",
              static_cast<long long>(Scale), Runs);

  // The three modes are measured round-robin within each repetition (and a
  // discarded warmup repetition) so allocator/cache drift on a single core
  // cannot bias later modes; each mode reports its best repetition.
  const struct {
    BarrierMode Mode;
    bool Elide;
  } Configs[3] = {{BarrierMode::None, false},
                  {BarrierMode::SatbAlwaysLog, false},
                  {BarrierMode::SatbAlwaysLog, true}};
  ModeResult Results[3];
  for (int Rep = -1; Rep != Runs; ++Rep) {
    for (int M = 0; M != 3; ++M) {
      CompilerOptions Opts;
      Opts.Barrier = Configs[M].Mode;
      Opts.ApplyElision = Configs[M].Elide;
      Opts.Interp = InterpMode::Fast;
      WorkloadRun Run = runWorkload(W, Opts, Scale);
      if (Rep < 0)
        continue; // warmup
      Results[M].Runs.push_back(static_cast<double>(Scale) /
                                Run.CpuSeconds);
      Results[M].BarrierCost = Run.BarrierCostInstrs;
      Results[M].ElimPct = Run.Stats.pctElided();
    }
  }
  // The fast engine does not model RISC instruction counts; one
  // deterministic (untimed) reference run per mode fills them in.
  for (int M = 0; M != 3; ++M) {
    CompilerOptions Opts;
    Opts.Barrier = Configs[M].Mode;
    Opts.ApplyElision = Configs[M].Elide;
    Opts.Interp = InterpMode::Reference;
    Results[M].ModeledInstrs = runWorkload(W, Opts, Scale).ModeledInstrs;
  }
  for (ModeResult &R : Results)
    R.finalize();
  ModeResult &NoBarrier = Results[0];
  ModeResult &AlwaysLog = Results[1];
  ModeResult &AlwaysLogElim = Results[2];

  printRule(98);
  std::printf("%-16s %13s %9s %10s %8s %16s %9s\n", "barrier mode",
              "throughput", "measured", "modeled", "[paper]",
              "barrier instrs", "%elim");
  printRule(98);
  // "measured" is interpreted CPU-time throughput relative to no-barrier
  // (noisy: interpreter dispatch dwarfs the barrier delta); "modeled" is
  // the deterministic RISC-instruction-count relative, the measure the
  // paper's compiled-code numbers correspond to.
  auto Row = [&](const char *Name, const ModeResult &R, double PaperRel) {
    std::printf("%-16s %13.0f %9.3f %10.3f %8.3f %16llu %8.1f%%\n", Name,
                R.Throughput, R.Throughput / NoBarrier.Throughput,
                static_cast<double>(NoBarrier.ModeledInstrs) /
                    R.ModeledInstrs,
                PaperRel, static_cast<unsigned long long>(R.BarrierCost),
                R.ElimPct);
  };
  Row("no-barrier", NoBarrier, 1.000);
  Row("always-log", AlwaysLog, 0.975);
  Row("always-log-elim", AlwaysLogElim, 0.984);
  printRule(86);

  double MCost =
      1.0 - static_cast<double>(NoBarrier.ModeledInstrs) /
                AlwaysLog.ModeledInstrs;
  double MRecovered =
      static_cast<double>(AlwaysLog.ModeledInstrs -
                          AlwaysLogElim.ModeledInstrs) /
      (AlwaysLog.ModeledInstrs - NoBarrier.ModeledInstrs + 1e-12);
  std::printf("modeled barrier cost: %.1f%% of machine instructions; "
              "elimination recovered %.0f%% of it\n(paper: 2.5%% "
              "throughput cost; eliminating 25.6%% of barriers recovered "
              "~36%% of the gap).\n",
              100.0 * MCost, 100.0 * MRecovered);
  std::printf("modeled barrier instructions: always-log %llu -> elim %llu "
              "(-%.1f%%)\n",
              static_cast<unsigned long long>(AlwaysLog.BarrierCost),
              static_cast<unsigned long long>(AlwaysLogElim.BarrierCost),
              100.0 * (AlwaysLog.BarrierCost - AlwaysLogElim.BarrierCost) /
                  (AlwaysLog.BarrierCost + 1e-12));
  return 0;
}
