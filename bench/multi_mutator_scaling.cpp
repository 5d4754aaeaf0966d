//===- bench/multi_mutator_scaling.cpp - Mutator-count scaling ------------===//
///
/// \file
/// Aggregate mutator throughput with a concurrent SATB cycle as the
/// mutator count grows (runWithConcurrentMutators): N fast engines share
/// one heap, allocate from per-thread TLABs, log pre-values into
/// per-thread SATB buffers, and park at real stop-the-world handshakes.
/// The paper's setting is a multiprocessor ("garbage collection and the
/// user program execute simultaneously"); this bench measures how far the
/// runtime's lock-free fast paths carry that on the current machine.
/// Every run asserts the snapshot oracle and zero elision violations —
/// an unsound configuration must not report numbers.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "interp/ThreadedCycle.h"
#include "support/Stopwatch.h"

#include <thread>

using namespace satb;
using namespace satb::bench;

int main() {
  int64_t Scale = benchScale(4000);
  Workload W = makeJbbLike();
  CompilerOptions Opts;
  Opts.Interp = InterpMode::Fast;
  CompiledProgram CP = compileProgram(*W.P, Opts);

  const unsigned HwThreads = std::thread::hardware_concurrency();
  std::printf("Aggregate mutator throughput under one concurrent SATB "
              "cycle (jbb, scale %lld, %u hardware threads)\n",
              static_cast<long long>(Scale), HwThreads);
  if (HwThreads <= 1)
    std::printf("note: 1-CPU container, scaling not meaningful — mutators "
                "time-slice one core and only add handshake overhead\n");
  printRule(70);
  std::printf("%10s %14s %16s %16s %8s\n", "mutators", "wall us",
              "total steps", "steps/sec", "oracle");
  printRule(70);

  double BaselineStepsPerSec = 0;
  for (unsigned N : {1u, 2u, 4u}) {
    MultiMutatorConfig Cfg;
    Cfg.WarmupAllocs = 500;
    Stopwatch Timer;
    MultiMutatorResult R =
        runWithConcurrentMutators(N, *W.P, CP, W.Entry, {Scale}, Cfg);
    double WallUs = Timer.elapsedUs();
    if (!R.OracleHolds || R.Violations != 0) {
      std::fprintf(stderr,
                   "bench: N=%u unsound (oracle %d, violations %llu)\n", N,
                   static_cast<int>(R.OracleHolds),
                   static_cast<unsigned long long>(R.Violations));
      return 1;
    }
    uint64_t TotalSteps = 0;
    for (uint64_t S : R.Steps)
      TotalSteps += S;
    double StepsPerSec = TotalSteps / (WallUs / 1e6);
    if (N == 1)
      BaselineStepsPerSec = StepsPerSec;
    std::printf("%10u %14.1f %16llu %16.0f %8s\n", N, WallUs,
                static_cast<unsigned long long>(TotalSteps), StepsPerSec,
                R.OracleHolds ? "holds" : "FAILS");
  }
  printRule(70);
  std::printf("scaling vs. 1 mutator uses aggregate steps/sec "
              "(baseline %.0f)\n",
              BaselineStepsPerSec);
  return 0;
}
