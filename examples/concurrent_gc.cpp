//===- examples/concurrent_gc.cpp - SATB marking with elided barriers -----===//
///
/// \file
/// Drives a full concurrent SATB marking cycle against the jbb-like
/// workload with write-barrier elision enabled, interleaving mutator and
/// marker at instruction granularity, and checks the snapshot-at-the-
/// beginning guarantee: everything reachable when marking started is
/// marked when it finishes — elided (pre-null) barriers cannot unlink any
/// part of the snapshot. Also runs the incremental-update comparison
/// collector on the same workload to show the final-pause asymmetry the
/// paper's introduction describes, and the SATB cycle once more with the
/// mutator and the marker on real threads.
///
/// Run:  ./concurrent_gc
///
//===----------------------------------------------------------------------===//

#include "interp/Interpreter.h"
#include "interp/ThreadedCycle.h"
#include "workloads/Workload.h"

#include <cstdio>

using namespace satb;

int main() {
  Workload W = makeJbbLike();

  // --- SATB with elision ---------------------------------------------------
  {
    CompilerOptions Opts;
    Opts.Barrier = BarrierMode::Satb;
    CompiledProgram CP = compileProgram(*W.P, Opts);
    Heap H(*W.P);
    SatbMarker M(H);
    Interpreter I(*W.P, CP, H);
    I.attachSatb(&M);

    ConcurrentRunConfig Cfg;
    Cfg.WarmupSteps = 20000;
    ConcurrentRunResult R =
        runWithConcurrentCycle(I, M, H, W.Entry, {2000}, Cfg);

    std::printf("SATB cycle on '%s' (barrier elision ON):\n",
                W.Name.c_str());
    std::printf("  snapshot-reachable objects: %llu\n",
                static_cast<unsigned long long>(R.OracleLive));
    std::printf("  marked: %llu, swept: %zu\n",
                static_cast<unsigned long long>(R.Marked), R.Swept);
    std::printf("  pre-values logged by barriers: %llu\n",
                static_cast<unsigned long long>(M.stats().LoggedPreValues));
    std::printf("  final (termination) pause work: %zu units\n",
                R.FinalPauseWork);
    std::printf("  SATB snapshot oracle: %s\n",
                R.OracleHolds ? "HOLDS" : "VIOLATED");
    BarrierStats::Summary S = I.stats().summarize();
    std::printf("  barriers: %llu executed, %.1f%% elided, %llu violations\n\n",
                static_cast<unsigned long long>(S.TotalExecs), S.pctElided(),
                static_cast<unsigned long long>(S.Violations));
    if (!R.OracleHolds || S.Violations != 0)
      return 1;
  }

  // --- Incremental update for comparison -----------------------------------
  {
    CompilerOptions Opts;
    Opts.Barrier = BarrierMode::CardMarking;
    Opts.ApplyElision = false; // pre-null elision is an SATB property
    CompiledProgram CP = compileProgram(*W.P, Opts);
    Heap H(*W.P);
    IncrementalUpdateMarker M(H);
    Interpreter I(*W.P, CP, H);
    I.attachIncUpdate(&M);

    ConcurrentRunConfig Cfg;
    Cfg.WarmupSteps = 20000;
    ConcurrentRunResult R =
        runWithConcurrentCycle(I, M, H, W.Entry, {2000}, Cfg);

    std::printf("Incremental-update cycle on '%s' (card marking):\n",
                W.Name.c_str());
    std::printf("  cards dirtied: %llu\n",
                static_cast<unsigned long long>(M.stats().CardsDirtied));
    std::printf("  final pause work: %zu units\n", R.FinalPauseWork);
    std::printf("  end-reachability oracle: %s\n",
                R.OracleHolds ? "HOLDS" : "VIOLATED");
    if (!R.OracleHolds)
      return 1;
  }
  // --- SATB again, mutator and marker on real threads ---------------------
  {
    CompilerOptions Opts;
    Opts.Interp = InterpMode::Fast;
    CompiledProgram CP = compileProgram(*W.P, Opts);
    MultiMutatorConfig Cfg;
    MultiMutatorResult R =
        runWithConcurrentMutators(1, *W.P, CP, W.Entry, {2000}, Cfg);
    std::printf("SATB cycle with the mutator and the marker on real "
                "threads:\n");
    std::printf("  snapshot oracle: %s (marked %llu, swept %zu)\n",
                R.OracleHolds ? "HOLDS" : "VIOLATED",
                static_cast<unsigned long long>(R.Marked), R.Swept);
    if (!R.OracleHolds || R.Violations != 0)
      return 1;
  }

  std::printf("\nBoth collectors preserved their invariants; compare the "
              "final pause work\nto see why the paper prefers SATB "
              "termination pauses.\n");
  return 0;
}
