//===- gc/ConcurrentMarker.cpp --------------------------------------------===//

#include "gc/ConcurrentMarker.h"

#include "support/ThreadPool.h"

#include <thread>

using namespace satb;

void ConcurrentMarker::setMarkThreads(unsigned N, ThreadPool *Pool) {
  assert(!isActive() && "changing mark threads mid-cycle");
  assert((N <= 1 || (Pool && Pool->numThreads() >= N)) &&
         "MarkThreads > 1 needs a pool with at least that many threads");
  MarkThreads = N == 0 ? 1 : N;
  MarkPool = MarkThreads > 1 ? Pool : nullptr;
}

void ConcurrentMarker::enableTraceCounts(size_t CapacityRefs) {
  TraceCounts.reset(new std::atomic<uint32_t>[CapacityRefs]());
  TraceCountCap = CapacityRefs;
}

void ConcurrentMarker::startMarking(const std::vector<ObjRef> &MutatorRoots) {
  assert(!isActive() && "marking already in progress");
  // Relaxed suffices: the begin pause runs at a stop-the-world point; the
  // safepoint release ordering publishes the flag to every mutator.
  Active.store(true, std::memory_order_relaxed);
  MarkStack.clear();
  size_t Work = 0;
  greyRoots(MutatorRoots, Work);
}

void ConcurrentMarker::greyRoots(const std::vector<ObjRef> &MutatorRoots,
                                 size_t &Work) {
  for (ObjRef R : MutatorRoots)
    pushIfUnmarked(R, Work);
  for (ObjRef R : H.staticRefs())
    pushIfUnmarked(R, Work);
}

size_t ConcurrentMarker::stopMarking(size_t Pause) {
  Counts.FinalPauseWork += Pause;
  Active.store(false, std::memory_order_relaxed);
  return Pause;
}

bool ConcurrentMarker::markStep(size_t Budget) {
  assert(isActive() && "markStep outside a marking cycle");
  size_t Work = 0;
  if (MarkThreads > 1)
    Work = parallelDrain(Budget, /*ToCompletion=*/false);
  else
    drain(Work, Budget);
  Counts.ConcurrentWork += Work;
  return MarkStack.empty() && Grey.empty() && !hasPendingSource();
}

void ConcurrentMarker::drain(size_t &Work, size_t Budget) {
  while (Work < Budget) {
    if (!MarkStack.empty()) {
      ObjRef R = MarkStack.back();
      MarkStack.pop_back();
      scanObject(R, Work);
      continue;
    }
    if (!refill(Work))
      break;
  }
}

void ConcurrentMarker::drainAll(size_t &Work) {
  if (MarkThreads == 1) {
    drain(Work, SIZE_MAX);
    return;
  }
  // Mutators are stopped, so the source cannot grow behind the drain: one
  // parallel drain to completion empties the grey queue, MarkStack and the
  // source.
  Work += parallelDrain(0, /*ToCompletion=*/true);
  assert(Grey.empty() && MarkStack.empty() && !hasPendingSource() &&
         "parallel drain left work");
}

size_t ConcurrentMarker::sweep() {
  assert(!isActive() && "sweep during marking");
  // A word-wise scan of the heap's live & ~marked bitmaps; the heap
  // clears marks and tracing states afterwards.
  size_t Freed = H.sweepUnmarked();
  Counts.SweptObjects += Freed;
  return Freed;
}

// --- Parallel drain ---------------------------------------------------------

size_t ConcurrentMarker::parallelDrain(size_t Budget, bool ToCompletion) {
  assert(MarkPool && MarkPool->numThreads() >= MarkThreads);
  // Seed the hand-off queue with whatever the serial entry points staged
  // (roots from beginMarking, pause-time pushes from finishMarking).
  if (!MarkStack.empty()) {
    Grey.push(std::move(MarkStack));
    MarkStack.clear();
  }
  TerminationGate Gate;
  Gate.reset(MarkThreads);
  std::atomic<uint64_t> Marked{0};
  std::atomic<size_t> Work{0};
  MarkPool->parallelFor(MarkThreads, [&](size_t Idx) {
    Worker W{*this, static_cast<unsigned>(Idx), {}};
    parallelWorker(W, Budget, ToCompletion, Gate);
    Marked.fetch_add(W.Marked);
    Work.fetch_add(W.Work);
  });
  Counts.MarkedObjects += Marked.load();
  return Work.load();
}

void ConcurrentMarker::parallelWorker(Worker &W, size_t Budget,
                                      bool ToCompletion,
                                      TerminationGate &Gate) {
  bool Counted = true; // this worker is counted in the gate
  for (;;) {
    while (!W.Local.empty() && (ToCompletion || W.Work < Budget)) {
      ObjRef R = W.Local.back();
      W.Local.pop_back();
      HeapObject &Obj = H.object(R);
      storeTracingRelaxed(Obj, TraceState::Tracing);
      W.scanSlots(Obj);
      storeTracingRelaxed(Obj, TraceState::Traced);
      bumpTrace(R);
      ++W.Work;
    }
    if (!ToCompletion && W.Work >= Budget) {
      // Budget exhausted: park remaining work where other workers (or the
      // next markStep) can reach it.
      Grey.push(std::move(W.Local));
      break;
    }
    // Local stack dry: refill from a hand-off segment, then from the
    // marker's grey source.
    if (Grey.tryPop(W.Local) || refill(W))
      continue;
    // No work anywhere we can see: enter the termination protocol.
    Gate.goIdle();
    Counted = false;
    for (;;) {
      // Read the gate BEFORE re-checking for work: any segment handed off
      // before the last worker went idle is then guaranteed visible to
      // the work check, so "allIdle and still no work" is a sound exit.
      bool Done = Gate.allIdle();
      if (!Grey.empty() || hasPendingSource()) {
        Gate.reOffer();
        Counted = true;
        break;
      }
      if (Done)
        break;
      std::this_thread::yield();
    }
    if (!Counted)
      break;
  }
  if (Counted)
    Gate.goIdle();
}
