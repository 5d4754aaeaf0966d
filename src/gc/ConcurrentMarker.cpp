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
  Counts.ConcurrentWork += runWorkers(Budget, /*Pause=*/false);
  return MarkStack.empty() && Grey.empty() && !hasPendingSource();
}

void ConcurrentMarker::drainAll(size_t &Work) {
  // Mutators are stopped, so the source cannot grow behind the drain: one
  // drain to completion empties the grey stacks and the source.
  Work += runWorkers(SIZE_MAX, /*Pause=*/true);
  assert(Grey.empty() && MarkStack.empty() && !hasPendingSource() &&
         "drain left work");
}

size_t ConcurrentMarker::sweep() {
  assert(!isActive() && "sweep during marking");
  // A word-wise scan of the heap's live & ~marked bitmaps; the heap
  // clears the marks afterwards and advances the tracing epoch.
  size_t Freed = H.sweepUnmarked();
  Counts.SweptObjects += Freed;
  return Freed;
}

// --- The mark workers -------------------------------------------------------

size_t ConcurrentMarker::runWorkers(size_t Budget, bool Pause) {
  if (MarkThreads == 1) {
    // The lone worker runs inline and its stack is MarkStack, so leftover
    // work stays put between calls. It claims with plain stores unless
    // mutator threads may be installing born-marked objects beside it.
    Claim Mode =
        Pause || !H.multiMutator() ? Claim::Exclusive : Claim::Shared;
    Worker W{*this, 0, nullptr, Pause, Mode, std::move(MarkStack)};
    traceLoop(W, Budget);
    MarkStack = std::move(W.Local);
    Counts.MarkedObjects += W.Marked;
    return W.Work;
  }
  assert(MarkPool && MarkPool->numThreads() >= MarkThreads);
  // Seed the hand-off queue with whatever the pauses staged.
  Grey.push(std::move(MarkStack));
  MarkStack.clear();
  TerminationGate Gate;
  Gate.reset(MarkThreads);
  std::atomic<uint64_t> Marked{0};
  std::atomic<size_t> Work{0};
  MarkPool->parallelFor(MarkThreads, [&](size_t Idx) {
    Worker W{*this, static_cast<unsigned>(Idx), &Gate, Pause, Claim::Shared,
             {}};
    traceLoop(W, Budget);
    Marked.fetch_add(W.Marked);
    Work.fetch_add(W.Work);
  });
  Counts.MarkedObjects += Marked.load();
  return Work.load();
}

void ConcurrentMarker::traceLoop(Worker &W, size_t Budget) {
  // Every claim this worker makes, on its grey stack and in refill(),
  // happens inside this loop.
  assert((W.Mode == Claim::Shared || W.ownsBitmap()) &&
         "plain mark claim beside another writer of the mark bitmap");
  TerminationGate *Gate = W.Gate;
  const TraceStamp Epoch = H.traceEpoch();
  for (;;) {
    while (!W.Local.empty() && W.Work < Budget) {
      ObjRef R = W.Local.back();
      W.Local.pop_back();
      // A reference array's tracing state brackets its scan for the SATB
      // rearrangement protocol (SatbMarker::exitRearrange), the only
      // reader, which looks at nothing else.
      HeapObject &Obj = H.object(R);
      if (Obj.Kind == ObjectKind::RefArray) {
        storeTracingRelaxed(Obj, Epoch, TraceState::Tracing);
        W.scanSlots(Obj);
        storeTracingRelaxed(Obj, Epoch, TraceState::Traced);
      } else {
        W.scanSlots(Obj);
      }
      bumpTrace(R);
      ++W.Work;
    }
    if (W.Work >= Budget) {
      // Budget exhausted. The lone worker keeps its stack; a gang member
      // parks its remaining work where other workers (or the next
      // markStep) can reach it.
      if (Gate) {
        Grey.push(std::move(W.Local));
        Gate->goIdle();
      }
      return;
    }
    // Local stack dry: refill from a hand-off segment, then from the
    // marker's grey source.
    if ((Gate && Grey.tryPop(W.Local)) || refill(W))
      continue;
    if (!Gate)
      return;
    // No work anywhere we can see: go idle until work reappears or every
    // worker is idle.
    Gate->goIdle();
    for (;;) {
      // Read the gate BEFORE re-checking for work: any segment handed off
      // before the last worker went idle is then guaranteed visible to
      // the work check, so "allIdle and still no work" is a sound exit.
      bool Done = Gate->allIdle();
      if (!Grey.empty() || hasPendingSource()) {
        Gate->reOffer();
        break;
      }
      if (Done)
        return;
      std::this_thread::yield();
    }
  }
}
