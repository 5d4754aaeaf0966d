//===- bench/parallel_mark_scaling.cpp - Mark-thread scaling --------------===//
///
/// \file
/// Mark-phase wall time as the mark-worker count grows: one fixed object
/// graph (a fanout-8 tree with extra cross edges, every node reachable
/// from the root), marked to completion by the SATB marker with
/// MarkThreads in {1, 2, 4}. M = 1 runs the one worker inline on the
/// calling thread; M > 1 drains over sharded grey stacks with the locked
/// segment hand-off queue (DESIGN.md "Parallel marking"). The rows do
/// not differ in thread count alone: the lone worker owns the mark
/// bitmap and claims with a plain load and store, while a gang claims
/// with fetch_or, so the claim column says which one each row timed and
/// the speedup column is not pure scaling. Every run exits 1 unless the
/// full graph got marked — a marker that loses objects must not report
/// numbers. As with compile_parallel and multi_mutator_scaling, speedup
/// is only meaningful on a multi-core host; the header prints the
/// hardware thread count.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "gc/SatbMarker.h"
#include "support/Stopwatch.h"
#include "support/ThreadPool.h"

#include <random>
#include <thread>

using namespace satb;
using namespace satb::bench;

int main() {
  const int64_t Scale = benchScale(200000); // objects in the graph
  const unsigned HwThreads = std::thread::hardware_concurrency();

  // Build the graph once: a fanout-8 tree (slots 0..7 are the children)
  // and, via an extra array per node, two cross edges to random earlier
  // nodes so the trace sees shared structure, not just a tree.
  Program P;
  Heap H(P);
  const size_t N = static_cast<size_t>(Scale);
  std::vector<ObjRef> Nodes;
  Nodes.reserve(N);
  std::mt19937 Rng(1234);
  for (size_t I = 0; I != N; ++I) {
    ObjRef R = H.allocateRefArray(10);
    if (I > 0) {
      ObjRef Parent = Nodes[(I - 1) / 8];
      H.object(Parent).refs()[(I - 1) % 8] = R;
      H.object(R).refs()[8] = Nodes[Rng() % I];
      H.object(R).refs()[9] = Nodes[Rng() % I];
    }
    Nodes.push_back(R);
  }
  const std::vector<ObjRef> Roots{Nodes[0]};

  std::printf("SATB mark-phase wall time vs. mark threads "
              "(%zu objects, %u hardware threads)\n",
              N, HwThreads);
  if (HwThreads <= 1)
    std::printf("note: 1-CPU container, scaling not meaningful — workers "
                "time-slice one core and only add hand-off overhead\n");
  printRule(70);
  std::printf("%12s %10s %14s %12s %10s\n", "mark threads", "claim",
              "wall us", "marked", "speedup");
  printRule(70);

  double BaseUs = 0;
  for (unsigned M : {1u, 2u, 4u}) {
    ThreadPool Pool(M);
    SatbMarker Marker(H);
    if (M > 1)
      Marker.setMarkThreads(M, &Pool);
    H.clearMarks();
    Marker.beginMarking(Roots);
    Stopwatch Timer;
    Marker.finishMarking();
    double WallUs = Timer.elapsedUs();
    uint64_t Marked = Marker.stats().MarkedObjects;
    if (Marked != N) {
      std::fprintf(stderr, "bench: M=%u marked %llu of %zu objects\n", M,
                   static_cast<unsigned long long>(Marked), N);
      return 1;
    }
    if (M == 1)
      BaseUs = WallUs;
    // finishMarking drains in a pause; only a gang shares the bitmap.
    std::printf("%12u %10s %14.1f %12llu %10.2f\n", M,
                M == 1 ? "plain" : "fetch_or", WallUs,
                static_cast<unsigned long long>(Marked),
                WallUs > 0 ? BaseUs / WallUs : 0);
  }
  printRule(70);
  return 0;
}
