//===- gc/IncrementalUpdateMarker.cpp -------------------------------------===//

#include "gc/IncrementalUpdateMarker.h"

#include "support/ThreadPool.h"

#include <thread>

using namespace satb;

void IncrementalUpdateMarker::setMarkThreads(unsigned N, ThreadPool *Pool) {
  assert(!isActive() && "changing mark threads mid-cycle");
  assert((N <= 1 || (Pool && Pool->numThreads() >= N)) &&
         "MarkThreads > 1 needs a pool with at least that many threads");
  MarkThreads = N == 0 ? 1 : N;
  MarkPool = MarkThreads > 1 ? Pool : nullptr;
}

void IncrementalUpdateMarker::enableTraceCounts(size_t CapacityRefs) {
  TraceCounts.reset(new std::atomic<uint32_t>[CapacityRefs]());
  TraceCountCap = CapacityRefs;
}

void IncrementalUpdateMarker::beginMarking(
    const std::vector<ObjRef> &MutatorRoots) {
  assert(!isActive() && "marking already in progress");
  // Runs at a stop-the-world point; fix the card table's footprint first
  // so concurrent recordWrite can never resize it under the collector.
  Cards.ensureCapacity(H.maxRef());
  Active.store(true, std::memory_order_relaxed);
  MarkStack.clear();
  size_t Work = 0;
  for (ObjRef R : MutatorRoots)
    pushIfUnmarked(R, Work);
  for (ObjRef R : H.staticRefs())
    pushIfUnmarked(R, Work);
}

void IncrementalUpdateMarker::pushIfUnmarked(ObjRef R, size_t &Work) {
  if (R == NullRef || !H.isLive(R) || H.isMarked(R))
    return;
  H.setMarked(R);
  ++Stats.MarkedObjects;
  ++Work;
  MarkStack.push_back(R);
}

void IncrementalUpdateMarker::scanObject(ObjRef R, size_t &Work) {
  HeapObject &Obj = H.object(R);
  const ObjRef *Slots = Obj.refs();
  if (Obj.Kind == ObjectKind::RefArray) {
    // Word-at-a-time range marking, same path as the SATB marker's array
    // scan: one bitmap fetch_or per touched mark word.
    H.markRangeWords(Slots, Obj.NumRefs, [&](ObjRef V) {
      ++Stats.MarkedObjects;
      ++Work;
      MarkStack.push_back(V);
    });
  } else {
    for (uint32_t I = 0, E = Obj.NumRefs; I != E; ++I)
      pushIfUnmarked(loadRefAcquire(&Slots[I]), Work);
  }
  bumpTrace(R);
  ++Work;
}

// --- Parallel drain ---------------------------------------------------------

uint64_t IncrementalUpdateMarker::parallelDrain(size_t Budget,
                                                bool ToCompletion) {
  assert(MarkPool && MarkPool->numThreads() >= MarkThreads);
  if (!MarkStack.empty()) {
    Grey.push(std::move(MarkStack));
    MarkStack.clear();
  }
  TerminationGate Gate;
  Gate.reset(MarkThreads);
  std::atomic<uint64_t> Marked{0};
  std::atomic<uint64_t> Work{0};
  MarkPool->parallelFor(MarkThreads, [&](size_t W) {
    parallelWorker(static_cast<unsigned>(W), Budget, ToCompletion, Gate,
                   Marked, Work);
  });
  Stats.MarkedObjects += Marked.load();
  return Work.load();
}

void IncrementalUpdateMarker::parallelWorker(unsigned WorkerIdx, size_t Budget,
                                             bool ToCompletion,
                                             TerminationGate &Gate,
                                             std::atomic<uint64_t> &MarkedOut,
                                             std::atomic<uint64_t> &WorkOut) {
  GreySegment Local;
  uint64_t Marked = 0;
  uint64_t Work = 0;
  bool Counted = true;
  auto Admit = [&](ObjRef R) {
    ++Marked;
    ++Work;
    Local.push_back(R);
    if (Local.size() >= 2 * GreySegmentTarget) {
      GreySegment Out(Local.begin(), Local.begin() + GreySegmentTarget);
      Local.erase(Local.begin(), Local.begin() + GreySegmentTarget);
      Grey.push(std::move(Out));
    }
  };
  auto Claim = [&](ObjRef R) {
    if (R == NullRef || !H.isLive(R) || !H.tryClaimMark(R))
      return;
    Admit(R);
  };
  // Slot scan of one object: reference arrays go word-at-a-time through
  // the batched bitmap claim, everything else slot-by-slot.
  auto ScanSlots = [&](HeapObject &Obj) {
    const ObjRef *Slots = Obj.refs();
    if (Obj.Kind == ObjectKind::RefArray)
      H.markRangeWords(Slots, Obj.NumRefs, Admit);
    else
      for (uint32_t I = 0, E = Obj.NumRefs; I != E; ++I)
        Claim(loadRefAcquire(&Slots[I]));
  };
  // Rescan of one dirty card, claimed through testAndClean (an atomic
  // exchange, so exactly one worker scans each dirty instance).
  auto RescanCard = [&](uint32_t Card) {
    if (!Cards.testAndClean(Card))
      return false; // another worker claimed it between probe and clean
    ObjRef Begin = Card << CardTable::CardShift;
    ObjRef End = Begin + (1u << CardTable::CardShift);
    for (ObjRef R = Begin == 0 ? 1 : Begin; R < End && R <= H.maxRef(); ++R) {
      HeapObject *Obj = H.objectOrNull(R);
      if (!Obj)
        continue;
      if (H.isMarked(R))
        ScanSlots(*Obj);
      ++Work;
    }
    return true;
  };
  // Workers probe the card table starting at staggered offsets so they
  // fan out over dirty regions instead of all racing on the lowest card.
  const uint32_t NumCards = Cards.numCards();
  const uint32_t CardOffset =
      NumCards ? (uint64_t(WorkerIdx) * NumCards) / MarkThreads : 0;
  for (;;) {
    while (!Local.empty() && (ToCompletion || Work < Budget)) {
      ObjRef R = Local.back();
      Local.pop_back();
      ScanSlots(H.object(R));
      bumpTrace(R);
      ++Work;
    }
    if (!ToCompletion && Work >= Budget) {
      Grey.push(std::move(Local));
      break;
    }
    if (Grey.tryPop(Local))
      continue;
    // Refill from one dirty card, if any survives the probe race.
    bool Rescanned = false;
    for (uint32_t I = 0; I != NumCards && !Rescanned; ++I)
      if (Cards.isDirty((I + CardOffset) % NumCards))
        Rescanned = RescanCard((I + CardOffset) % NumCards);
    if (Rescanned)
      continue;
    Gate.goIdle();
    Counted = false;
    for (;;) {
      // Gate before work re-check: see ParallelMark.h's termination note.
      bool Done = Gate.allIdle();
      if (!Grey.empty() || Cards.anyDirty()) {
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
  MarkedOut.fetch_add(Marked);
  WorkOut.fetch_add(Work);
}

void IncrementalUpdateMarker::rescanCard(uint32_t Card, size_t &Work) {
  // Clean-then-scan: a store racing past the scan re-dirties the card for
  // the next pass (the testAndClean RMW orders the scan's reads after the
  // clean becomes visible).
  Cards.testAndClean(Card);
  ObjRef Begin = Card << CardTable::CardShift;
  ObjRef End = Begin + (1u << CardTable::CardShift);
  for (ObjRef R = Begin == 0 ? 1 : Begin; R < End && R <= H.maxRef(); ++R) {
    HeapObject *Obj = H.objectOrNull(R);
    if (!Obj)
      continue;
    // Re-examine every marked object on the card: its fields may have been
    // updated to point at unmarked objects. (Unmarked objects need no
    // examination: if they become reachable, the write that made them so
    // dirtied a card holding a marked object.)
    if (H.isMarked(R)) {
      const ObjRef *Slots = Obj->refs();
      if (Obj->Kind == ObjectKind::RefArray) {
        H.markRangeWords(Slots, Obj->NumRefs, [&](ObjRef V) {
          ++Stats.MarkedObjects;
          ++Work;
          MarkStack.push_back(V);
        });
      } else {
        for (uint32_t I = 0, E2 = Obj->NumRefs; I != E2; ++I)
          pushIfUnmarked(loadRefAcquire(&Slots[I]), Work);
      }
    }
    ++Work;
  }
}

bool IncrementalUpdateMarker::markStep(size_t Budget) {
  assert(isActive() && "markStep outside a marking cycle");
  if (MarkThreads > 1) {
    Stats.ConcurrentWork += parallelDrain(Budget, /*ToCompletion=*/false);
    return Grey.empty() && !Cards.anyDirty();
  }
  size_t Work = 0;
  while (Work < Budget) {
    if (!MarkStack.empty()) {
      ObjRef R = MarkStack.back();
      MarkStack.pop_back();
      scanObject(R, Work);
      continue;
    }
    // Refill from one dirty card, if any.
    bool Found = false;
    for (uint32_t Card = 0, E = Cards.numCards(); Card != E; ++Card) {
      if (Cards.isDirty(Card)) {
        rescanCard(Card, Work);
        Found = true;
        break;
      }
    }
    if (!Found)
      break;
  }
  Stats.ConcurrentWork += Work;
  return MarkStack.empty() && !Cards.anyDirty();
}

size_t IncrementalUpdateMarker::finishMarking(
    const std::vector<ObjRef> &MutatorRoots) {
  assert(isActive() && "finishMarking outside a marking cycle");
  size_t Pause = 0;
  // Roots must be re-scanned: the mutator may have stored the only
  // reference to an object into a root after the concurrent phase visited
  // it.
  for (ObjRef R : MutatorRoots)
    pushIfUnmarked(R, Pause);
  for (ObjRef R : H.staticRefs())
    pushIfUnmarked(R, Pause);
  if (MarkThreads > 1) {
    // Mutators are parked, so nothing re-dirties a card behind the drain:
    // one parallel pass to completion reaches the clean-table fixpoint
    // (the termination gate re-offers on anyDirty until no card is left).
    ++Stats.FinalPausePasses;
    Pause += parallelDrain(0, /*ToCompletion=*/true);
    assert(Grey.empty() && MarkStack.empty() && !Cards.anyDirty() &&
           "parallel drain left work");
    Stats.FinalPauseWork += Pause;
    Active.store(false, std::memory_order_relaxed);
    return Pause;
  }
  // Iterate to a clean card table with the world stopped. Every dirty
  // card lies below the heap's ref high-water mark.
  const uint32_t CardsInUse = Cards.cardsBelow(H.refHighWater());
  bool Progress = true;
  while (Progress) {
    ++Stats.FinalPausePasses;
    Progress = false;
    while (!MarkStack.empty()) {
      ObjRef R = MarkStack.back();
      MarkStack.pop_back();
      scanObject(R, Pause);
      Progress = true;
    }
    for (uint32_t Card = 0; Card != CardsInUse; ++Card) {
      if (Cards.isDirty(Card)) {
        rescanCard(Card, Pause);
        Progress = true;
      }
    }
  }
  Stats.FinalPauseWork += Pause;
  Active.store(false, std::memory_order_relaxed);
  return Pause;
}

size_t IncrementalUpdateMarker::sweep() {
  assert(!isActive() && "sweep during marking");
  size_t Freed = H.sweepUnmarked();
  Stats.SweptObjects += Freed;
  return Freed;
}
