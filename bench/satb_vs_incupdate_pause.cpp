//===- bench/satb_vs_incupdate_pause.cpp - Section 1 pause claim ----------===//
///
/// \file
/// Reproduces the paper's motivation for SATB (Section 1): "pause times
/// necessary to complete SATB marking are sometimes more than an order of
/// magnitude smaller than corresponding incremental-update pauses". Each
/// workload runs one concurrent marking cycle under both collectors with
/// an identical, mutation-heavy interleaving; the final stop-the-world
/// pause work (objects/slots processed inside the pause) is compared.
///
/// SATB's final pause drains the remaining log buffers; incremental
/// update must re-scan roots and iterate dirty-card scanning to a clean
/// table — including every object allocated during marking, which SATB
/// never examines.
///
/// Exits 1 when an oracle fails or when some workload's incremental-update
/// pause does not exceed SATB's.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

using namespace satb;
using namespace satb::bench;

int main() {
  int64_t Scale = benchScale(3000);
  ConcurrentRunConfig RC;
  RC.WarmupSteps = 5000;
  RC.MutatorQuantum = 512; // mutation-heavy: the regime the paper targets
  RC.MarkerQuantum = 8;

  std::printf("SATB vs. incremental-update final-pause work (scale %lld, "
              "mutator %llu : marker %zu)\n",
              static_cast<long long>(Scale),
              static_cast<unsigned long long>(RC.MutatorQuantum),
              RC.MarkerQuantum);
  printRule(86);
  std::printf("%-6s %14s %16s %10s %14s %14s\n", "bench", "satb pause",
              "incupd pause", "ratio", "satb logged", "cards dirty");
  printRule(86);

  std::vector<std::string> ShapeFails;
  for (const Workload &W : allWorkloads()) {
    size_t SatbPause;
    uint64_t Logged;
    {
      CompiledProgram CP = compileProgram(*W.P, CompilerOptions{});
      Heap H(*W.P);
      SatbMarker M(H);
      Interpreter I(*W.P, CP, H);
      I.attachSatb(&M);
      ConcurrentRunResult R =
          runWithConcurrentCycle(I, M, H, W.Entry, {Scale}, RC);
      if (!R.OracleHolds) {
        std::fprintf(stderr, "SATB oracle violated on %s\n", W.Name.c_str());
        return 1;
      }
      SatbPause = R.FinalPauseWork;
      Logged = M.stats().LoggedPreValues;
    }
    size_t IncPause;
    uint64_t Cards;
    {
      CompilerOptions Opts;
      Opts.Barrier = BarrierMode::CardMarking;
      Opts.ApplyElision = false;
      CompiledProgram CP = compileProgram(*W.P, Opts);
      Heap H(*W.P);
      IncrementalUpdateMarker M(H);
      Interpreter I(*W.P, CP, H);
      I.attachIncUpdate(&M);
      ConcurrentRunResult R =
          runWithConcurrentCycle(I, M, H, W.Entry, {Scale}, RC);
      if (!R.OracleHolds) {
        std::fprintf(stderr, "IU oracle violated on %s\n", W.Name.c_str());
        return 1;
      }
      IncPause = R.FinalPauseWork;
      Cards = M.stats().CardsDirtied;
    }
    if (IncPause <= SatbPause)
      ShapeFails.push_back(W.Name);
    std::printf("%-6s %14zu %16zu %9.1fx %14llu %14llu\n", W.Name.c_str(),
                SatbPause, IncPause,
                static_cast<double>(IncPause) /
                    (SatbPause ? SatbPause : 1),
                static_cast<unsigned long long>(Logged),
                static_cast<unsigned long long>(Cards));
  }
  printRule(86);
  std::printf("Shape check: the incremental-update final pause exceeds "
              "SATB's on every workload,\noften by an order of magnitude "
              "(the paper's Section 1 claim).\n");
  for (const std::string &Name : ShapeFails)
    std::fprintf(stderr,
                 "shape check failed on %s: incremental-update pause does "
                 "not exceed SATB's\n",
                 Name.c_str());
  return ShapeFails.empty() ? 0 : 1;
}
