//===- gc/MinorGC.cpp -----------------------------------------------------===//

#include "gc/MinorGC.h"

#include <algorithm>

using namespace satb;

void MinorGC::promoteAll() {
  ++Stats.WholesalePromotions;
  H.forEachYoung([&](ObjRef R) {
    Stats.PromotedBytes += H.promoteToOld(R);
    ++Stats.PromotedObjects;
    ++Stats.PauseWork;
  });
}

void MinorGC::clearRemSet() {
  for (uint32_t Card = 0, E = RemSet.cardsBelow(H.refHighWater()); Card != E;
       ++Card)
    RemSet.testAndClean(Card);
}

void MinorGC::collect(const std::vector<ObjRef> &MutatorRoots) {
  ++Stats.Collections;

  if (markingActive() || !RemSetValid) {
    // Either a concurrent cycle could be holding snapshot references into
    // the nursery, or no barrier maintained the remembered set; both cases
    // demand the conservative choice: promote everything, free nothing.
    promoteAll();
    clearRemSet();
    H.resetNursery();
    H.clearMinorGCRequest();
    return;
  }

  // Precise collection in one depth-first pass: a young object is promoted
  // the first time it is reached and pushed, so its slots are read once,
  // from the copy just made, and its cleared young bit is the visited mark.
  // MarkWords stays untouched, so minor collections compose with (inactive)
  // major cycles.
  //
  // The dirty cards' old objects are listed before anything is promoted: a
  // young object promoted below must not be scanned again as an old one
  // when its own card comes up. Young objects on the cards are skipped —
  // they are reached through roots, other young objects or these old
  // ones, or they die.
  CardObjects.clear();
  const ObjRef HighWater = H.refHighWater();
  for (uint32_t Card = 0, E = RemSet.cardsBelow(HighWater); Card != E;
       ++Card) {
    if (!RemSet.testAndClean(Card))
      continue;
    ++Stats.RemSetCardsScanned;
    ObjRef First = static_cast<ObjRef>(Card) << CardTable::CardShift;
    ObjRef Last = std::min<ObjRef>(First + (ObjRef(1) << CardTable::CardShift),
                                   HighWater);
    H.forEachOld(First, Last, [&](ObjRef R) { CardObjects.push_back(R); });
  }
  Stats.RemSetOldScanned += CardObjects.size();

  auto Reach = [&](ObjRef R) {
    if (!H.isYoung(R)) // also NullRef: ObjRef 0 is never young
      return;
    Stats.PromotedBytes += H.promoteToOld(R);
    ++Stats.PromotedObjects;
    Worklist.push_back(R);
  };
  auto Drain = [&] {
    while (!Worklist.empty()) {
      const HeapObject &Obj = H.object(Worklist.back());
      Worklist.pop_back();
      ++Stats.PauseWork;
      const ObjRef *Slots = Obj.refs();
      for (uint32_t I = 0, N = Obj.NumRefs; I != N; ++I) {
        Reach(loadRefAcquire(Slots + I));
        ++Stats.PauseWork;
      }
    }
  };

  // Every root slot naming a young object counts, also one whose referent
  // an earlier slot promoted: count them all before promoting any.
  auto IsYoung = [&](ObjRef R) { return H.isYoung(R); };
  for (const std::vector<ObjRef> *Roots : {&MutatorRoots, &H.staticRefs()})
    Stats.RootYoung += std::count_if(Roots->begin(), Roots->end(), IsYoung);
  for (const std::vector<ObjRef> *Roots : {&MutatorRoots, &H.staticRefs()})
    for (ObjRef R : *Roots) {
      Reach(R);
      ++Stats.PauseWork;
    }
  Drain();

  // Card objects are cold: fetch each a few entries ahead of its scan.
  constexpr size_t PrefetchAhead = 8;
  for (size_t I = 0, N = CardObjects.size(); I != N; ++I) {
    if (I + PrefetchAhead < N)
      __builtin_prefetch(&H.object(CardObjects[I + PrefetchAhead]));
    Worklist.push_back(CardObjects[I]);
    Drain();
  }

  // Whatever is still young was never reached.
  H.forEachYoung([&](ObjRef R) {
    H.free(R);
    ++Stats.FreedYoung;
    ++Stats.PauseWork;
  });

  H.resetNursery();
  H.clearMinorGCRequest();
}
