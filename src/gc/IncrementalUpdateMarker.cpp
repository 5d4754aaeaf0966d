//===- gc/IncrementalUpdateMarker.cpp -------------------------------------===//

#include "gc/IncrementalUpdateMarker.h"

using namespace satb;

void IncrementalUpdateMarker::beginMarking(
    const std::vector<ObjRef> &MutatorRoots) {
  // Runs at a stop-the-world point; fix the card table's footprint first
  // so concurrent recordWrite can never resize it under the collector.
  Cards.ensureCapacity(H.maxRef());
  startMarking(MutatorRoots);
}

template <typename ScanFn>
bool IncrementalUpdateMarker::rescanCard(uint32_t Card, size_t &Work,
                                         ScanFn ScanMarked) {
  // Clean-then-scan: a store racing past the scan re-dirties the card for
  // the next pass (the testAndClean RMW orders the scan's reads after the
  // clean becomes visible), and exactly one worker scans each dirty
  // instance.
  if (!Cards.testAndClean(Card))
    return false;
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
    if (H.isMarked(R))
      ScanMarked(*Obj);
    ++Work;
  }
  return true;
}

template <typename ScanFn>
bool IncrementalUpdateMarker::rescanFirstDirty(uint32_t From, size_t &Work,
                                               ScanFn ScanMarked) {
  const uint32_t NumCards = Cards.numCards();
  for (uint32_t I = 0; I != NumCards; ++I) {
    uint32_t Card = (I + From) % NumCards;
    // A lost testAndClean race means another worker took the card; probe on.
    if (Cards.isDirty(Card) && rescanCard(Card, Work, ScanMarked))
      return true;
  }
  return false;
}

bool IncrementalUpdateMarker::refill(size_t &Work) {
  return rescanFirstDirty(
      0, Work, [&](const HeapObject &Obj) { scanSlots(Obj, Work); });
}

bool IncrementalUpdateMarker::refill(Worker &W) {
  // Workers probe the card table starting at staggered offsets so they
  // fan out over dirty regions instead of all racing on the lowest card.
  const uint64_t NumCards = Cards.numCards();
  const uint32_t From =
      static_cast<uint32_t>(W.Index * NumCards / MarkThreads);
  return rescanFirstDirty(From, W.Work,
                          [&](const HeapObject &Obj) { W.scanSlots(Obj); });
}

size_t IncrementalUpdateMarker::finishMarking(
    const std::vector<ObjRef> &MutatorRoots) {
  assert(isActive() && "finishMarking outside a marking cycle");
  size_t Pause = 0;
  // Roots must be re-scanned: the mutator may have stored the only
  // reference to an object into a root after the concurrent phase visited
  // it.
  greyRoots(MutatorRoots, Pause);
  if (MarkThreads > 1) {
    // Mutators are parked, so nothing re-dirties a card behind the drain:
    // one parallel pass to completion reaches the clean-table fixpoint
    // (the termination gate re-offers on anyDirty until no card is left).
    ++Stats.FinalPausePasses;
    drainAll(Pause);
    return stopMarking(Pause);
  }
  // Iterate to a clean card table with the world stopped. Every dirty
  // card lies below the heap's ref high-water mark.
  const uint32_t CardsInUse = Cards.cardsBelow(H.refHighWater());
  auto Scan = [&](const HeapObject &Obj) { scanSlots(Obj, Pause); };
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
    for (uint32_t Card = 0; Card != CardsInUse; ++Card)
      if (Cards.isDirty(Card) && rescanCard(Card, Pause, Scan))
        Progress = true;
  }
  return stopMarking(Pause);
}
