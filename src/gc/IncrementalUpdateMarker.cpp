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

bool IncrementalUpdateMarker::refill(Worker &W) {
  // Workers probe from staggered offsets so they fan out over dirty
  // regions instead of all racing on the lowest card. While mutators run,
  // a card can be re-dirtied behind the probe, so every refill probes the
  // whole table afresh. In a pause nothing dirties a card, so a cleaned
  // card stays clean: each worker walks the cards below the ref high-water
  // mark once, resuming from its cursor.
  uint32_t Fresh = 0;
  uint32_t &Probed = W.Pause ? W.Cursor : Fresh;
  const uint32_t NumCards =
      W.Pause ? Cards.cardsBelow(H.refHighWater()) : Cards.numCards();
  const uint32_t From =
      static_cast<uint32_t>(W.Index * uint64_t(NumCards) / MarkThreads);
  while (Probed < NumCards) {
    uint32_t Card = (From + Probed++) % NumCards;
    // Clean-then-scan: a store racing past the scan re-dirties the card
    // for a later refill (the testAndClean RMW orders the scan's reads
    // after the clean becomes visible), and exactly one worker scans each
    // dirty instance; a lost race means another worker took the card.
    if (!Cards.testAndClean(Card))
      continue;
    ObjRef Begin = Card << CardTable::CardShift;
    ObjRef End = Begin + (1u << CardTable::CardShift);
    for (ObjRef R = Begin == 0 ? 1 : Begin; R < End && R <= H.maxRef(); ++R) {
      HeapObject *Obj = H.objectOrNull(R);
      if (!Obj)
        continue;
      // Re-examine every marked object on the card: its fields may have
      // been updated to point at unmarked objects. (Unmarked objects need
      // no examination: if they become reachable, the write that made
      // them so dirtied a card holding a marked object.)
      if (H.isMarked(R))
        W.scanSlots(*Obj);
      ++W.Work;
    }
    return true;
  }
  return false;
}

size_t IncrementalUpdateMarker::finishMarking(
    const std::vector<ObjRef> &MutatorRoots) {
  assert(isActive() && "finishMarking outside a marking cycle");
  size_t Pause = 0;
  // Roots must be re-scanned: the mutator may have stored the only
  // reference to an object into a root after the concurrent phase visited
  // it. The drain then reaches the clean-table fixpoint: mutators are
  // parked, so nothing re-dirties a card behind it.
  greyRoots(MutatorRoots, Pause);
  drainAll(Pause);
  return stopMarking(Pause);
}
