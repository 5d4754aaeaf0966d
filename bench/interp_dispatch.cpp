//===- bench/interp_dispatch.cpp - Reference vs fast engine wall time -----===//
///
/// \file
/// Measures the mutator-engine speedup: each Table 1 workload compiled
/// once, then executed by the reference switch interpreter and the
/// threaded-dispatch FastInterp in two translations — superinstructions
/// on (the default) and off (TranslateOptions::Fuse = false, the
/// SATB_NO_FUSE oracle). Runs are interleaved (ref, fast, nofuse, ...)
/// so frequency scaling and cache state hit all engines equally; each
/// configuration's time is the minimum over the repetitions. Every rep
/// cross-checks result, steps, and barrier cost across all three — a
/// speedup from a wrong answer is no speedup, and a fused translation
/// that changes any observable fails the bench outright.
///
/// Columns: the three wall times, speedup (ref/fused), fuse (nofuse/
/// fused) and the one-time translation cost (fused pass included). A
/// final geomean line summarizes the suite. The timings are reported,
/// not checked; perfbench times the fused fast engine with medians.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include <cmath>
#include <vector>

using namespace satb;
using namespace satb::bench;

namespace {

struct EngineTiming {
  double WallUs = 1e300; ///< min over reps
  int64_t ResultInt = 0;
  uint64_t Steps = 0;
  uint64_t BarrierCost = 0;
};

template <typename MakeEngine>
void runOnce(const Workload &W, int64_t Scale, MakeEngine Make,
             EngineTiming &T) {
  Heap H(*W.P);
  auto I = Make(H);
  SatbMarker M(H);
  I.attachSatb(&M);
  Stopwatch Timer;
  RunStatus S = I.run(W.Entry, {Scale});
  double Us = Timer.elapsedUs();
  if (S != RunStatus::Finished) {
    std::fprintf(stderr, "interp_dispatch: %s trapped: %s\n", W.Name.c_str(),
                 trapName(I.trap()));
    std::abort();
  }
  T.WallUs = Us < T.WallUs ? Us : T.WallUs;
  T.ResultInt = I.result().Int;
  T.Steps = I.stepsExecuted();
  T.BarrierCost = I.barrierCostInstrs();
}

} // namespace

int main() {
  int64_t Scale = benchScale(2000);
  const int Reps = 5;

  std::printf("Mutator engine dispatch: reference vs fast, fused vs "
              "unfused (scale %lld, min of %d interleaved reps)\n",
              static_cast<long long>(Scale), Reps);
  printRule();
  std::printf("%-10s %11s %11s %11s %8s %8s %12s\n", "workload", "ref us",
              "fast us", "nofuse us", "speedup", "fuse", "translate us");
  printRule();

  CompilerOptions Opts;
  double LogSum = 0.0, FuseLogSum = 0.0;
  int N = 0;
  for (const Workload &W : allWorkloads()) {
    CompiledProgram CP = compileProgram(*W.P, Opts);
    TranslateOptions Fused, Unfused;
    Fused.Fuse = true;
    Unfused.Fuse = false;
    Stopwatch TranslateTimer;
    FastProgram FP = translateProgram(*W.P, CP, Fused);
    double TranslateUs = TranslateTimer.elapsedUs();
    FastProgram FPNoFuse = translateProgram(*W.P, CP, Unfused);

    EngineTiming Ref, Fast, NoFuse;
    for (int R = 0; R != Reps; ++R) {
      runOnce(
          W, Scale,
          [&](Heap &H) { return Interpreter(*W.P, CP, H); }, Ref);
      runOnce(
          W, Scale, [&](Heap &H) { return FastInterp(FP, CP, H); }, Fast);
      runOnce(
          W, Scale, [&](Heap &H) { return FastInterp(FPNoFuse, CP, H); },
          NoFuse);
    }
    for (const EngineTiming *T : {&Fast, &NoFuse}) {
      if (Ref.ResultInt != T->ResultInt || Ref.Steps != T->Steps ||
          Ref.BarrierCost != T->BarrierCost) {
        std::fprintf(stderr,
                     "interp_dispatch: %s engines disagree "
                     "(result %lld/%lld steps %llu/%llu cost %llu/%llu)\n",
                     W.Name.c_str(), static_cast<long long>(Ref.ResultInt),
                     static_cast<long long>(T->ResultInt),
                     static_cast<unsigned long long>(Ref.Steps),
                     static_cast<unsigned long long>(T->Steps),
                     static_cast<unsigned long long>(Ref.BarrierCost),
                     static_cast<unsigned long long>(T->BarrierCost));
        std::abort();
      }
    }

    double Speedup = Ref.WallUs / Fast.WallUs;
    double FuseSpeedup = NoFuse.WallUs / Fast.WallUs;
    LogSum += std::log(Speedup);
    FuseLogSum += std::log(FuseSpeedup);
    ++N;
    std::printf("%-10s %11.1f %11.1f %11.1f %7.2fx %7.2fx %12.1f\n",
                W.Name.c_str(), Ref.WallUs, Fast.WallUs, NoFuse.WallUs,
                Speedup, FuseSpeedup, TranslateUs);
  }

  printRule();
  std::printf("geomean speedup: %.2fx   geomean fused-vs-unfused: %.2fx\n",
              std::exp(LogSum / N), std::exp(FuseLogSum / N));
  return 0;
}
