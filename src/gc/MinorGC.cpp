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

  // Precise collection. Young reachability is computed in a scratch
  // bitmap — MarkWords stays untouched so minor collections compose with
  // (inactive) major cycles without clobbering their bookkeeping. The
  // bitmap and worklist keep their storage across collections.
  const ObjRef HighWater = H.refHighWater();
  YoungMark.assign((static_cast<size_t>(HighWater) + 63) / 64, 0);
  Worklist.clear();

  auto PushIfYoungUnmarked = [&](ObjRef R) {
    if (R == NullRef || !H.isYoung(R))
      return;
    uint64_t &W = YoungMark[R >> 6];
    uint64_t Bit = uint64_t(1) << (R & 63);
    if (W & Bit)
      return;
    W |= Bit;
    Worklist.push_back(R);
  };

  for (ObjRef R : MutatorRoots) {
    if (R != NullRef && H.isYoung(R))
      ++Stats.RootYoung;
    PushIfYoungUnmarked(R);
    ++Stats.PauseWork;
  }
  for (ObjRef R : H.staticRefs()) {
    if (R != NullRef && H.isYoung(R))
      ++Stats.RootYoung;
    PushIfYoungUnmarked(R);
    ++Stats.PauseWork;
  }

  // Remembered-set scan: every live *old* object on a dirty card is
  // re-examined for young referents. Young objects sharing the card are
  // skipped — they are reached through roots or other young objects, or
  // they die.
  for (uint32_t Card = 0, E = RemSet.cardsBelow(HighWater); Card != E;
       ++Card) {
    if (!RemSet.testAndClean(Card))
      continue;
    ++Stats.RemSetCardsScanned;
    ObjRef First = static_cast<ObjRef>(Card) << CardTable::CardShift;
    ObjRef Last = std::min<ObjRef>(First + (ObjRef(1) << CardTable::CardShift),
                                   HighWater);
    for (ObjRef R = First; R < Last; ++R) {
      HeapObject *Obj = H.objectOrNull(R);
      if (!Obj || H.isYoung(R))
        continue;
      ++Stats.RemSetOldScanned;
      ++Stats.PauseWork;
      const ObjRef *Slots = Obj->refs();
      for (uint32_t I = 0, N = Obj->NumRefs; I != N; ++I) {
        PushIfYoungUnmarked(loadRefAcquire(Slots + I));
        ++Stats.PauseWork;
      }
    }
  }

  // Young-to-young closure.
  while (!Worklist.empty()) {
    ObjRef R = Worklist.back();
    Worklist.pop_back();
    const HeapObject &Obj = H.object(R);
    ++Stats.PauseWork;
    const ObjRef *Slots = Obj.refs();
    for (uint32_t I = 0, N = Obj.NumRefs; I != N; ++I) {
      PushIfYoungUnmarked(loadRefAcquire(Slots + I));
      ++Stats.PauseWork;
    }
  }

  // Evacuate survivors, free the rest. forEachYoung copies each bitmap
  // word before walking it, so promoting/freeing under iteration is safe.
  H.forEachYoung([&](ObjRef R) {
    if ((YoungMark[R >> 6] >> (R & 63)) & 1) {
      Stats.PromotedBytes += H.promoteToOld(R);
      ++Stats.PromotedObjects;
    } else {
      H.free(R);
      ++Stats.FreedYoung;
    }
    ++Stats.PauseWork;
  });

  H.resetNursery();
  H.clearMinorGCRequest();
}
