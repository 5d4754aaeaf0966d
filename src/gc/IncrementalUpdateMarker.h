//===- gc/IncrementalUpdateMarker.h - Mostly-parallel marking --*- C++ -*-===//
///
/// \file
/// The comparison collector of Section 1: incremental-update concurrent
/// marking in the mostly-parallel style of Boehm, Demers, and Shenker [6].
/// The mutator's card-marking barrier records *where* pointers were
/// written; the collector re-examines dirty locations. Unlike SATB,
/// objects allocated during marking must be examined (their cards are
/// dirtied at birth), and the final stop-the-world pause must re-scan
/// roots and iterate over dirty cards until clean — which is why the paper
/// reports SATB termination pauses "sometimes more than an order of
/// magnitude smaller" (bench S1 reproduces the asymmetry).
///
/// The tracing itself is the shared marking core (gc/ConcurrentMarker.h);
/// this marker adds its grey source (dirty cards, claimed with
/// testAndClean), its barrier entry (recordWrite), and the root rescan of
/// its final pause.
///
//===----------------------------------------------------------------------===//

#ifndef SATB_GC_INCREMENTALUPDATEMARKER_H
#define SATB_GC_INCREMENTALUPDATEMARKER_H

#include "gc/ConcurrentMarker.h"

namespace satb {

/// A card table over ObjRefs: CardShift objects per card. Bytes, not
/// vector<bool> — mutators dirty cards concurrently and packed bits would
/// race on the shared word.
///
/// Memory protocol: dirty() is a release store and the collector's
/// testAndClean() an acq_rel exchange, so observing a dirty card also
/// observes the slot store that preceded it in the barrier ("store the
/// reference, then dirty the card"). A dirty the exchange races past
/// survives as a 1 for a later scan; the final pause drains with the
/// world stopped, so a card it cleans stays clean.
class CardTable {
public:
  static constexpr uint32_t CardShift = 7; ///< 128 objects per card

  /// Pre-sizes the table for refs up to \p MaxRef so no mutator-side
  /// dirty() can ever resize it while the collector scans (required in
  /// multi-mutator mode, where heap capacity is fixed up front).
  void ensureCapacity(ObjRef MaxRef) {
    uint32_t Cards = (MaxRef >> CardShift) + 1;
    if (Cards > Dirty.size())
      Dirty.resize(Cards, 0);
  }

  void dirty(ObjRef R) {
    uint32_t Card = R >> CardShift;
    if (Card >= Dirty.size())
      Dirty.resize(Card + 1, 0); // single-mutator growth path only
    __atomic_store_n(&Dirty[Card], uint8_t(1), __ATOMIC_RELEASE);
  }
  bool isDirty(uint32_t Card) const {
    return Card < Dirty.size() &&
           __atomic_load_n(&Dirty[Card], __ATOMIC_ACQUIRE);
  }
  /// Cleans the card and \returns whether it was dirty. Test, then
  /// clean: a plain load skips a clean card, so only a dirty one pays the
  /// acq_rel RMW (a locked instruction on x86) that keeps the subsequent
  /// slot reads from starting before the clean is visible — the classic
  /// card-scan fence. A dirty() the load races past is ordered after it
  /// and survives for the next pass, exactly as if it had landed after
  /// the exchange.
  bool testAndClean(uint32_t Card) {
    if (Card >= Dirty.size() ||
        !__atomic_load_n(&Dirty[Card], __ATOMIC_RELAXED))
      return false;
    return __atomic_exchange_n(&Dirty[Card], uint8_t(0), __ATOMIC_ACQ_REL);
  }
  uint32_t numCards() const { return static_cast<uint32_t>(Dirty.size()); }
  /// The cards covering ObjRefs below \p HighWater — every card a dirty()
  /// can have touched when no object lies at or above it
  /// (Heap::refHighWater). Pause-time card walks stop here.
  uint32_t cardsBelow(ObjRef HighWater) const {
    uint64_t Cards = (uint64_t(HighWater) + (uint64_t(1) << CardShift) - 1) >>
                     CardShift;
    return Cards < Dirty.size() ? static_cast<uint32_t>(Cards) : numCards();
  }
  bool anyDirty() const {
    for (size_t I = 0, E = Dirty.size(); I != E; ++I)
      if (__atomic_load_n(&Dirty[I], __ATOMIC_RELAXED))
        return true;
    return false;
  }

private:
  std::vector<uint8_t> Dirty;
};

struct IncUpdateStats : MarkStats {
  uint64_t CardsDirtied = 0; ///< barrier executions
};

class IncrementalUpdateMarker : public ConcurrentMarker {
public:
  explicit IncrementalUpdateMarker(Heap &H)
      : ConcurrentMarker(H, Stats, /*SnapshotAtBegin=*/false) {}

  void beginMarking(const std::vector<ObjRef> &MutatorRoots) override;

  /// Mutator barrier: the card of the written object goes dirty. Also
  /// called for objects allocated during marking. Thread-safe (release
  /// byte store + relaxed counter).
  void recordWrite(ObjRef Obj) {
    if (!isActive())
      return;
    Cards.dirty(Obj);
    __atomic_fetch_add(&Stats.CardsDirtied, uint64_t(1), __ATOMIC_RELAXED);
  }

  /// Final stop-the-world pause: re-scan roots, then drain the grey
  /// stacks and the dirty cards to a clean table. \returns the pause work.
  size_t finishMarking(const std::vector<ObjRef> &MutatorRoots) override;

  const IncUpdateStats &stats() const { return Stats; }

private:
  // The grey source: dirty cards.
  /// Cleans the next dirty card and re-examines every marked object on
  /// it, counting one unit per object.
  bool refill(Worker &W) override;
  bool hasPendingSource() override { return Cards.anyDirty(); }

  IncUpdateStats Stats;
  CardTable Cards;
};

} // namespace satb

#endif // SATB_GC_INCREMENTALUPDATEMARKER_H
