//===- bench/BenchUtil.h - Shared bench harness helpers --------*- C++ -*-===//
///
/// \file
/// Helpers shared by the table/figure benches: workload running with
/// instrumentation, CPU-time timing, and environment-variable scale
/// control (SATB_BENCH_SCALE overrides the default transaction count).
///
//===----------------------------------------------------------------------===//

#ifndef SATB_BENCH_BENCHUTIL_H
#define SATB_BENCH_BENCHUTIL_H

#include "interp/FastInterp.h"
#include "interp/Interpreter.h"
#include "support/Stopwatch.h"
#include "workloads/Workload.h"

#include <cstdio>
#include <cstdlib>

namespace satb {
namespace bench {

inline int64_t benchScale(int64_t Default) {
  if (const char *Env = std::getenv("SATB_BENCH_SCALE"))
    return std::atoll(Env);
  return Default;
}

struct WorkloadRun {
  BarrierStats::Summary Stats;
  double CpuSeconds = 0.0;
  uint64_t BarrierCostInstrs = 0;
  uint64_t ModeledInstrs = 0;
};

/// Compiles and runs \p W at \p Scale under the engine selected by
/// Opts.Interp; aborts loudly on traps or elision violations (a bench
/// must not quietly report unsound numbers). The fast engine does not
/// model RISC instruction counts, so ModeledInstrs stays 0 there.
inline WorkloadRun runWorkload(const Workload &W, const CompilerOptions &Opts,
                               int64_t Scale) {
  CompiledProgram CP = compileProgram(*W.P, Opts);
  Heap H(*W.P);
  WorkloadRun R;
  SatbMarker M(H); // present so always-log modes have a log target
  auto Execute = [&](auto &I) {
    I.attachSatb(&M);
    CpuStopwatch CpuTimer;
    RunStatus S = I.run(W.Entry, {Scale});
    R.CpuSeconds = CpuTimer.elapsedUs() / 1e6;
    R.Stats = I.stats().summarize();
    R.BarrierCostInstrs = modeledBarrierCost(I.stats());
    if (S != RunStatus::Finished) {
      std::fprintf(stderr, "bench: %s trapped: %s\n", W.Name.c_str(),
                   trapName(I.trap()));
      std::abort();
    }
  };
  if (Opts.Interp == InterpMode::Fast) {
    FastProgram FP = translateProgram(*W.P, CP);
    FastInterp I(FP, CP, H);
    Execute(I);
  } else {
    Interpreter I(*W.P, CP, H);
    Execute(I);
    R.ModeledInstrs = I.modeledInstrsExecuted();
  }
  if (R.Stats.Violations != 0) {
    std::fprintf(stderr, "bench: %s had %llu elision violations\n",
                 W.Name.c_str(),
                 static_cast<unsigned long long>(R.Stats.Violations));
    std::abort();
  }
  return R;
}

inline void printRule(int Width = 78) {
  for (int I = 0; I != Width; ++I)
    std::fputc('-', stdout);
  std::fputc('\n', stdout);
}

} // namespace bench
} // namespace satb

#endif // SATB_BENCH_BENCHUTIL_H
