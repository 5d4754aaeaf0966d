//===- bench/compile_parallel.cpp - Parallel method compilation -----------===//
///
/// \file
/// The barrier analysis is intra-procedural, so compileProgram fans the
/// per-method pipeline (inline -> verify -> analyze -> size) over a
/// worker pool with index-ordered, scheduling-independent results. This
/// bench compiles the whole workload suite serially (CompileThreads = 1)
/// and with a small pool, and reports the wall-clock speedup. The
/// engine-equivalence test asserts the outputs are identical; this bench
/// asserts the parallelism is worth having.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "support/ThreadPool.h"

#include <algorithm>

using namespace satb;
using namespace satb::bench;

namespace {

/// Wall time of compiling every workload program with \p Threads workers,
/// best of \p Reps.
double compileSuiteUs(const std::vector<Workload> &All, unsigned Threads,
                      int Reps) {
  CompilerOptions Opts;
  Opts.CompileThreads = Threads;
  double Best = 1e30;
  for (int R = 0; R != Reps; ++R) {
    Stopwatch Timer;
    for (const Workload &W : All) {
      CompiledProgram CP = compileProgram(*W.P, Opts);
      (void)CP;
    }
    Best = std::min(Best, Timer.elapsedUs());
  }
  return Best;
}

} // namespace

int main() {
  std::vector<Workload> All = allWorkloads();

  const unsigned HwThreads = ThreadPool::defaultThreadCount();
  const int Reps = 5;
  double SerialUs = compileSuiteUs(All, 1, Reps);
  std::printf("Workload-suite compile wall time vs. CompileThreads "
              "(best of %d, %u hardware threads)\n",
              Reps, HwThreads);
  if (HwThreads <= 1)
    std::printf("note: 1-CPU container, speedup not meaningful — worker "
                "pools only add scheduling overhead here\n");
  printRule(56);
  std::printf("%10s %14s %10s\n", "threads", "compile us", "speedup");
  printRule(56);
  std::printf("%10u %14.1f %10.2f\n", 1u, SerialUs, 1.0);

  for (unsigned Threads : {2u, 4u, HwThreads}) {
    if (Threads <= 1)
      continue;
    double Us = compileSuiteUs(All, Threads, Reps);
    std::printf("%10u %14.1f %10.2f\n", Threads, Us, SerialUs / Us);
  }
  printRule(56);
  return 0;
}
