//===- heap/Heap.h - Simulated managed heap --------------------*- C++ -*-===//
///
/// \file
/// The managed heap the mutator and collectors share. The allocator zeroes
/// every field and array element — the language invariant both analyses
/// rest on: "the field is null because the object has been recently
/// allocated, and the allocator zeros fields" (Section 2); "a newly
/// allocated array of an object type has all elements set to null"
/// (Section 3).
///
/// Storage layout: objects live in bump-allocated slabs with their slots
/// stored *inline* after a 16-byte header (int slots first, then ref
/// slots), so a field access is one pointer dereference instead of the
/// header + two-std::vector chase the original layout required. Freed
/// blocks are recycled through exact-size LIFO free lists threaded
/// through the dead blocks themselves, and freed ObjRefs through a LIFO
/// list threaded through their object-table entries, so freeing writes
/// nothing outside the heap's own storage. Mark bits and liveness live in
/// side bitmaps indexed by ObjRef, which makes a sweep a word-wise scan of
/// live & ~marked instead of maxRef() objectOrNull probes. Reference
/// arrays carry a tracing state (untraced/tracing/traced, the array header
/// protocol sketched in Section 4.3) in their header, stamped with the
/// heap's cycle epoch so that clearing every state at a cycle's end is one
/// epoch increment rather than a walk over the live objects. ObjRef 0 is
/// null.
///
//===----------------------------------------------------------------------===//

#ifndef SATB_HEAP_HEAP_H
#define SATB_HEAP_HEAP_H

#include "bytecode/Program.h"

#include <atomic>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

namespace satb {

using ObjRef = uint32_t;
constexpr ObjRef NullRef = 0;

// --- Shared-slot access helpers ---------------------------------------------
//
// In multi-mutator mode, heap reference slots are written by one thread and
// read by mutator threads and the concurrent marker. The protocol:
//
//  - reference-slot *stores* are release: the store publishes the referent
//    (whose header/payload writes and object-table entry precede it in
//    program order);
//  - reference-slot *loads* are acquire: a reader that observes the new
//    value also observes the referent's initialization and table entry;
//  - integer slots are relaxed: no data is published through them.
//
// On x86-64 all of these compile to plain MOVs — the helpers exist for the
// memory model (and for ThreadSanitizer), not for speed. The single-mutator
// engines use them too so the two paths cannot diverge.

inline ObjRef loadRefAcquire(const ObjRef *P) {
  return __atomic_load_n(P, __ATOMIC_ACQUIRE);
}
inline void storeRefRelease(ObjRef *P, ObjRef V) {
  __atomic_store_n(P, V, __ATOMIC_RELEASE);
}
inline int64_t loadIntRelaxed(const int64_t *P) {
  return __atomic_load_n(P, __ATOMIC_RELAXED);
}
inline void storeIntRelaxed(int64_t *P, int64_t V) {
  __atomic_store_n(P, V, __ATOMIC_RELAXED);
}

// Range analogues for the bulk-store bytecodes. Every slot store is
// release (same protocol as storeRefRelease) so the concurrent marker's
// acquire loads never race with a bulk store. The copy reads each source
// slot before writing the destination slot that could alias it — forward
// when the destination starts below the source, backward otherwise — so
// overlapping self-copies produce exactly std::memmove's result.
inline void storeRefRangeFill(ObjRef *Dst, size_t N, ObjRef V) {
  for (size_t I = 0; I != N; ++I)
    __atomic_store_n(Dst + I, V, __ATOMIC_RELEASE);
}
inline void storeRefRangeCopy(ObjRef *Dst, const ObjRef *Src, size_t N) {
  if (Dst == Src)
    return;
  if (Dst < Src) {
    for (size_t I = 0; I != N; ++I)
      __atomic_store_n(Dst + I, __atomic_load_n(Src + I, __ATOMIC_ACQUIRE),
                       __ATOMIC_RELEASE);
  } else {
    for (size_t I = N; I-- != 0;)
      __atomic_store_n(Dst + I, __atomic_load_n(Src + I, __ATOMIC_ACQUIRE),
                       __ATOMIC_RELEASE);
  }
}

enum class ObjectKind : uint8_t { Object, RefArray, IntArray };

/// Array tracing states for the Section 4.3 optimistic protocol.
enum class TraceState : uint8_t { Untraced, Tracing, Traced };

/// A tracing state tagged with the marking epoch it was written in:
/// (epoch << 2) | TraceState. A stamp from any other epoch reads as
/// Untraced, so a fresh header (stamp 0; epoch 0 is never current) and
/// every stamp of an earlier cycle are untraced without being rewritten.
using TraceStamp = uint16_t;
constexpr unsigned TraceEpochBits = 14;

/// A heap object header. The payload is stored inline immediately after
/// the header: NumInts int64 slots first (8-aligned), then NumRefs ObjRef
/// slots. Never constructed directly — the Heap placement-allocates
/// headers inside its slabs.
struct alignas(8) HeapObject {
  ClassId Class = InvalidId; ///< for Kind == Object
  uint32_t NumRefs = 0;
  uint32_t NumInts = 0;
  ObjectKind Kind = ObjectKind::Object;
  /// Written by the marker for reference arrays only; see TraceStamp.
  TraceStamp Stamp = 0;

  int64_t *ints() { return reinterpret_cast<int64_t *>(this + 1); }
  const int64_t *ints() const {
    return reinterpret_cast<const int64_t *>(this + 1);
  }
  ObjRef *refs() { return reinterpret_cast<ObjRef *>(ints() + NumInts); }
  const ObjRef *refs() const {
    return reinterpret_cast<const ObjRef *>(ints() + NumInts);
  }

  /// Lightweight views for range-for iteration over the inline slots.
  struct RefSpan {
    const ObjRef *B;
    const ObjRef *E;
    const ObjRef *begin() const { return B; }
    const ObjRef *end() const { return E; }
    size_t size() const { return static_cast<size_t>(E - B); }
    ObjRef operator[](size_t I) const { return B[I]; }
  };
  RefSpan refSlots() const { return RefSpan{refs(), refs() + NumRefs}; }

  uint32_t arrayLength() const {
    assert(Kind != ObjectKind::Object && "arrayLength of non-array");
    return Kind == ObjectKind::RefArray ? NumRefs : NumInts;
  }

  /// Block footprint in bytes (header + inline payload, 8-byte rounded).
  uint32_t blockBytes() const {
    uint32_t Raw = static_cast<uint32_t>(sizeof(HeapObject)) + NumInts * 8 +
                   NumRefs * 4;
    return (Raw + 7u) & ~7u;
  }
};

static_assert(sizeof(HeapObject) == 16, "header must stay 16 bytes");
static_assert(alignof(HeapObject) == 8, "payload int slots need 8-align");
static_assert(sizeof(HeapObject) >= sizeof(char *),
              "a freed block must hold its free-list link");

/// Tracing-state access shared by the marker (writer) and the mutators'
/// rearrangement protocol (readers), in the heap's current \p Epoch
/// (Heap::traceEpoch). Relaxed: the protocol tolerates stale states — a
/// mis-read only sends an array to the conservative retrace list, never
/// skips required work.
inline TraceState loadTracingRelaxed(const HeapObject &O, TraceStamp Epoch) {
  TraceStamp S = __atomic_load_n(&O.Stamp, __ATOMIC_RELAXED);
  return (S >> 2) == Epoch ? static_cast<TraceState>(S & 3)
                           : TraceState::Untraced;
}
inline void storeTracingRelaxed(HeapObject &O, TraceStamp Epoch,
                                TraceState S) {
  __atomic_store_n(&O.Stamp,
                   static_cast<TraceStamp>((Epoch << 2) |
                                           static_cast<unsigned>(S)),
                   __ATOMIC_RELAXED);
}

/// How a mark worker claims mark bits. Shared is an atomic fetch_or, safe
/// against every other writer of the bitmap. Exclusive is a plain load
/// then store, valid only while the caller is the one thread that can
/// write the mark bitmap: a lone mark worker in a heap outside
/// multi-mutator mode, or inside a stop-the-world pause. While mutators
/// run, tlabInstall's fetch_or of a born-marked bit can land on the word
/// the marker is writing, and a plain store would silently drop that bit.
/// Both accesses are atomic, so ThreadSanitizer would not report it.
enum class Claim : bool { Shared, Exclusive };

/// Where a FieldId lives inside an object of its owning class.
struct FieldSlot {
  JType Type = JType::Ref;
  uint32_t Slot = 0; ///< index into the ref or int payload
};

/// Per-FieldId layout for \p P: ref fields and int fields of each class
/// get consecutive slots in declaration order. Shared by the Heap and the
/// fast-interpreter translation (which bakes slots into opcodes) so the
/// two can never disagree.
std::vector<FieldSlot> computeFieldLayout(const Program &P);

/// The cache-line size the multi-mutator layout is cut to: a TLAB owns
/// whole lines of the side bitmaps, not just whole words (see Heap::Tlab).
constexpr size_t CacheLineBytes = 64;

class Heap {
public:
  explicit Heap(const Program &P);

  // --- Allocation (always zeroed) ----------------------------------------

  ObjRef allocateObject(ClassId C);
  ObjRef allocateRefArray(uint32_t Length);
  ObjRef allocateIntArray(uint32_t Length);

  // --- TLAB allocation (multi-mutator mode) -------------------------------
  //
  // Each MutatorContext owns a Tlab: a private bump region carved from the
  // shared slabs plus a private block of RefBlockRefs consecutive ObjRefs.
  // The fast path (bump + ref from the block) touches no shared mutable
  // state; both refills go through the mutex-guarded slow path. Ref blocks
  // are RefBlockRefs-aligned, so each context owns whole cache lines of the
  // live, young and mark bitmaps (and a whole line-aligned run of the
  // object table) for the objects it installs: two mutators never write
  // one line. Between pauses only the owner writes its block's live and
  // young bits, so it sets them with a plain load and store; the marker
  // claims bits in the same mark words, so the born-marked bit stays a
  // fetch_or (Claim). TLAB allocation ignores the block and ref free lists
  // (and the coordinator's releaseSwept pushes them while mutators run,
  // which is safe only because no TLAB reads them; recycled space is
  // picked up again once the heap leaves multi-mutator mode).
  //
  // The allocation counters (numAllocated, numLive, bytesAllocatedApprox)
  // are shared, so a Tlab counts its installs privately and adds them
  // to the heap's counters in batches: once TlabPublishObjects installs or
  // a chunk's worth of bytes are pending, and in publishTlab. Per-install
  // atomic adds would bounce one cache line between every mutator and the
  // pacer's polls on every allocation, at a cost that depends on which
  // cores the threads land on.

  /// ObjRefs per TLAB ref block: the refs whose bits fill one cache line
  /// of a side bitmap.
  static constexpr uint32_t RefBlockRefs =
      CacheLineBytes / sizeof(uint64_t) * 64;
  static_assert(RefBlockRefs == 512,
                "8 words of 64 bits: one ref block per 64-byte bitmap line");
  /// Installs a Tlab holds back from the heap's counters before it
  /// publishes them.
  static constexpr uint32_t TlabPublishObjects = 64;

  struct Tlab {
    char *Cur = nullptr;
    char *End = nullptr;
    ObjRef NextRef = 0;
    ObjRef RefEnd = 0;
    /// Installs not yet added to the heap's counters: fewer than
    /// TlabPublishObjects objects and TlabChunkBytes bytes.
    uint32_t PendingObjects = 0;
    uint64_t PendingBytes = 0;
    /// Objects carved from the current chunk are born young. True for
    /// nursery chunks, but also for old-space chunks handed out while the
    /// nursery is enabled but exhausted: youngness is a logical property
    /// (the ObjRef-indexed bitmap), not an address range, and the
    /// compile-time young-target proof relies on every small allocation
    /// made under an enabled nursery being young at birth.
    bool ChunkYoung = false;
  };

  // --- Generational layer (nursery) ---------------------------------------
  //
  // An optional young space: a single contiguous buffer bump-allocated in
  // both the single-mutator and TLAB paths. Objects born in the buffer get
  // a bit in the YoungWords side bitmap (same indexing as live/mark).
  // Promotion copies a young object's block into old space and republishes
  // Table[R]; the ObjRef is stable, so no interior-reference fixup ever
  // happens — every heap slot, root, mark-stack entry, and SATB buffer
  // entry keeps meaning the same object. A minor collection (gc/MinorGC.h)
  // promotes or frees every young object and then resets the whole buffer,
  // so nursery memory never enters the old free lists.

  struct NurseryConfig {
    size_t NurseryBytes = 256 * 1024;
    /// Blocks larger than this allocate directly in old space (pretenured).
    uint32_t PretenureBytes = 1024;
  };

  /// Switches nursery allocation on. Call with no mutator threads live and
  /// no young objects outstanding.
  void enableNursery(const NurseryConfig &Cfg);
  void enableNursery() { enableNursery(NurseryConfig()); }
  /// Switches nursery allocation off. The nursery must be empty (run a
  /// minor collection first); subsequent allocation is bit-identical to a
  /// heap that never had a nursery.
  void disableNursery();
  bool nurseryEnabled() const { return NurseryBase != nullptr; }
  const NurseryConfig &nurseryConfig() const { return NurseryCfg; }
  uint64_t nurseryUsedBytes() const {
    return static_cast<uint64_t>(NurseryCur - NurseryBase);
  }
  /// Bytes carved from the nursery since the last reset, as a relaxed
  /// atomic mirror of the bump pointer: the pacer polls this from the
  /// coordinator thread while mutators advance NurseryCur under the
  /// allocation lock (gc/Pacer.h).
  uint64_t nurseryCarvedBytes() const {
    return NurseryCarved.load(std::memory_order_relaxed);
  }

  bool isYoung(ObjRef R) const {
    return R < Table.size() &&
           (__atomic_load_n(&YoungWords[R >> 6], __ATOMIC_RELAXED) >>
            (R & 63)) &
               1;
  }

  /// Word-at-a-time young scan for the range remembered-set barrier:
  /// \returns true iff any of \p Vals[0..N) is a non-null young
  /// reference. The young-bitmap word is cached across consecutive
  /// values — bulk stores overwhelmingly move refs allocated together —
  /// so an all-old source touches each bitmap word once, not once per
  /// slot. Values are read with acquire loads so the scan may run
  /// directly over shared heap slots.
  bool anyYoung(const ObjRef *Vals, size_t N) const {
    size_t CurWord = ~size_t(0);
    uint64_t W = 0;
    for (size_t I = 0; I != N; ++I) {
      ObjRef R = __atomic_load_n(Vals + I, __ATOMIC_ACQUIRE);
      if (R == NullRef || R >= Table.size())
        continue;
      size_t WI = R >> 6;
      if (WI != CurWord) {
        CurWord = WI;
        W = __atomic_load_n(&YoungWords[WI], __ATOMIC_RELAXED);
      }
      if ((W >> (R & 63)) & 1)
        return true;
    }
    return false;
  }

  /// \returns true if \p Mem points into the nursery buffer (block starts
  /// only; used by install and by release()'s recycling guard).
  bool inNursery(const void *Mem) const {
    const char *P = static_cast<const char *>(Mem);
    return NurseryBase && P >= NurseryBase && P < NurseryEnd;
  }

  /// Single-mutator minor-GC hook: invoked synchronously from the
  /// allocation slow path when the nursery cannot satisfy a young request.
  /// The hook runs a minor collection (promote/free every young object and
  /// reset the nursery); the allocation then retries the nursery carve.
  /// Deterministic: both engines allocate in the same order, so the hook
  /// fires at identical points. Never invoked in multi-mutator mode.
  void setNurseryGCHook(std::function<void()> Hook) {
    NurseryGCHook = std::move(Hook);
  }

  /// Multi-mutator mode never collects inside an allocation; a TLAB refill
  /// that finds the nursery exhausted raises this flag (and falls back to
  /// an old-space chunk) so the coordinator can run the minor collection
  /// at the next safepoint pause.
  bool minorGCRequested() const {
    return MinorGCNeeded.load(std::memory_order_relaxed);
  }
  void clearMinorGCRequest() {
    MinorGCNeeded.store(false, std::memory_order_relaxed);
  }
  /// Raises the request from outside the allocation path — the pacer's
  /// proactive nursery-fill trigger uses this; the coordinator serves the
  /// collection exactly as for a mutator-raised request.
  void requestMinorGC() {
    MinorGCNeeded.store(true, std::memory_order_relaxed);
  }

  /// Evacuates young object \p R into old space: copy the block, clear the
  /// young bit, republish Table[R]. Stop-the-world only (minor GC).
  /// \returns the promoted block's byte size.
  uint32_t promoteToOld(ObjRef R);

  /// Resets the nursery bump pointer for reuse. Every young object must
  /// already have been promoted or freed. Stop-the-world only.
  void resetNursery();

  /// Invokes \p Fn(R) for every young object, in ascending ObjRef order.
  /// Safe against promoteToOld/free of the visited object (each bitmap
  /// word is copied before its bits are walked). Walks only the words
  /// below refHighWater(). Stop-the-world only.
  template <typename FnT> void forEachYoung(FnT Fn) const {
    for (size_t WI = 0, WE = highWaterWords(); WI != WE; ++WI) {
      uint64_t W = __atomic_load_n(&YoungWords[WI], __ATOMIC_RELAXED);
      while (W) {
        unsigned Bit = static_cast<unsigned>(__builtin_ctzll(W));
        Fn(static_cast<ObjRef>(WI * 64 + Bit));
        W &= W - 1;
      }
    }
  }

  /// Invokes \p Fn(R) for every live object in [\p First, \p Last) that is
  /// not young, in ascending ObjRef order, reading each live and young
  /// bitmap word once. \p First starts a bitmap word; \p Last is at most
  /// refHighWater(). Stop-the-world only: then a live bit implies a
  /// published object (objectOrNull would return it).
  template <typename FnT>
  void forEachOld(ObjRef First, ObjRef Last, FnT Fn) const {
    assert(First % 64 == 0 && "range starts inside a bitmap word");
    for (size_t WI = First / 64; WI * 64 < Last; ++WI) {
      uint64_t W = __atomic_load_n(&LiveWords[WI], __ATOMIC_RELAXED) &
                   ~__atomic_load_n(&YoungWords[WI], __ATOMIC_RELAXED);
      if (Last - WI * 64 < 64)
        W &= (uint64_t(1) << (Last - WI * 64)) - 1;
      for (; W; W &= W - 1)
        Fn(static_cast<ObjRef>(WI * 64 + __builtin_ctzll(W)));
    }
  }

  /// Drops a TLAB's current chunk if it was carved from the nursery; called
  /// for every context inside the minor-GC pause, before the nursery is
  /// reset, so no mutator can keep bumping into recycled space.
  void invalidateNurseryTlab(Tlab &T) const {
    // T.Cur - 1: the last consumed byte. A fully consumed chunk has
    // Cur == End == one past the chunk, which for the nursery's last chunk
    // is one past the buffer itself.
    if (T.Cur && inNursery(T.Cur - 1)) {
      T.Cur = nullptr;
      T.End = nullptr;
    }
  }

  /// Fixes the object table and bitmaps at \p CapacityRefs entries so no
  /// allocation can ever move them while mutator threads run, and switches
  /// ref handout to RefBlockRefs-aligned private blocks. Call with no
  /// threads live.
  void enterMultiMutator(uint32_t CapacityRefs);
  /// Leaves multi-mutator mode (table stays at capacity; the cursor's
  /// high-water mark is kept). Call with no threads live.
  void exitMultiMutator();
  bool multiMutator() const { return MultiMutator; }

  /// Adds \p T's pending installs to the heap's counters. The owning
  /// mutator, or any thread while it is parked or has exited: every pause
  /// publishes each Tlab before it reads the counters or frees objects.
  void publishTlab(Tlab &T);

  ObjRef allocateObjectTlab(Tlab &T, ClassId C);
  ObjRef allocateRefArrayTlab(Tlab &T, uint32_t Length);
  ObjRef allocateIntArrayTlab(Tlab &T, uint32_t Length);

  /// While set, freshly allocated objects are born marked ("objects
  /// allocated during marking, while implicitly marked, are not part of
  /// the snapshot", Section 1). The SATB marker sets this during marking.
  /// Atomic because mutator threads read it on every allocation; relaxed
  /// is sufficient because it only transitions inside stop-the-world
  /// pauses (begin/finish of marking), which already order it against
  /// every mutator's next allocation via the safepoint handshake.
  void setAllocateMarked(bool V) {
    AllocateMarked.store(V, std::memory_order_relaxed);
  }

  // --- Access -------------------------------------------------------------

  HeapObject &object(ObjRef R) {
    assert(R != NullRef && R < Table.size() && isObject(Table[R]) &&
           "bad object reference");
    return *Table[R];
  }
  const HeapObject &object(ObjRef R) const {
    assert(R != NullRef && R < Table.size() && isObject(Table[R]) &&
           "bad object reference");
    return *Table[R];
  }
  /// Unchecked dereference for the fast-interpreter hot path. The caller
  /// must hold a live reference (engine code null-checks first; refs read
  /// from live slots cannot dangle because the sweep frees only
  /// unreachable objects).
  HeapObject &deref(ObjRef R) { return *Table[R]; }
  /// Raw object table for the fast interpreter's dispatch loop, which
  /// caches it in a local across heap accesses. Invalidated only by
  /// allocation (the table may grow); free() just rewrites an entry.
  HeapObject *const *tableData() const { return Table.data(); }

  /// \returns the object or null if freed/never allocated (for GC sweeps
  /// and oracles). Acquire pairs with the release publication of Table[R]
  /// in install/tlabInstall: an index-based scan (e.g. card rescans) that
  /// observes the entry also observes the zeroed payload and the live bit
  /// set before it. An object the last sweep freed but has not yet
  /// released (see sweepUnmarked) still has its entry, but no live bit,
  /// and reads as freed: a card scan must not follow its stale slots.
  HeapObject *objectOrNull(ObjRef R) {
    if (R == NullRef || R >= Table.size())
      return nullptr;
    HeapObject *Entry = __atomic_load_n(&Table[R], __ATOMIC_ACQUIRE);
    return isObject(Entry) && isLive(R) ? Entry : nullptr;
  }

  const FieldSlot &fieldSlot(FieldId F) const {
    assert(F < FieldSlots.size() && "field id out of range");
    return FieldSlots[F];
  }

  // --- Statics (GC roots) --------------------------------------------------

  ObjRef getStaticRef(StaticFieldId F) const { return StaticRefs[F]; }
  void setStaticRef(StaticFieldId F, ObjRef V) { StaticRefs[F] = V; }
  int64_t getStaticInt(StaticFieldId F) const { return StaticInts[F]; }
  void setStaticInt(StaticFieldId F, int64_t V) { StaticInts[F] = V; }
  const std::vector<ObjRef> &staticRefs() const { return StaticRefs; }
  /// Stable direct pointers for the fast interpreter (the vectors are
  /// sized once at construction and never resized).
  ObjRef *staticRefsData() { return StaticRefs.data(); }
  int64_t *staticIntsData() { return StaticInts.data(); }

  // --- Mark / liveness bitmaps ---------------------------------------------
  //
  // Mark words are shared between the marker (setMarked) and allocating
  // mutators (tlabInstall sets born-marked bits). TLAB ref blocks are
  // RefBlockRefs-aligned so two mutators never touch the same line, but
  // the marker may hit a word a mutator is installing into — hence
  // fetch_or, except where one mark worker owns the bitmap (Claim). Live
  // and young words have one writer at a time: the owning TLAB between
  // pauses, the collector inside them. Relaxed is enough: the bits carry
  // no payload; every read that decides liveness/sweeping happens at a
  // stop-the-world point ordered by the safepoint handshake.

  bool isLive(ObjRef R) const {
    return R < Table.size() &&
           (__atomic_load_n(&LiveWords[R >> 6], __ATOMIC_RELAXED) >>
            (R & 63)) &
               1;
  }
  bool isMarked(ObjRef R) const {
    return R < Table.size() &&
           (__atomic_load_n(&MarkWords[R >> 6], __ATOMIC_RELAXED) >>
            (R & 63)) &
               1;
  }
  void setMarked(ObjRef R) {
    assert(isLive(R) && "marking a non-live reference");
    __atomic_fetch_or(&MarkWords[R >> 6], uint64_t(1) << (R & 63),
                      __ATOMIC_RELAXED);
  }
  /// Marking claim: sets the mark bit and \returns true iff this caller
  /// set it. Under Claim::Shared the returned-once guarantee is the
  /// exactly-once gate for sharded mark stacks — whichever worker's RMW
  /// flips the bit owns tracing the object; every later claimer sees the
  /// bit already set and backs off. Claim::Exclusive gives the same answer
  /// with a plain load and store, for a caller that owns the bitmap (see
  /// Claim). Relaxed like setMarked: mark bits carry no payload (object
  /// contents are published by the ref-slot release/acquire protocol, not
  /// by the bit).
  template <Claim C> bool tryClaimMark(ObjRef R) {
    assert(isLive(R) && "claiming a non-live reference");
    return claimBits<C>(MarkWords[R >> 6], uint64_t(1) << (R & 63)) != 0;
  }

  /// Batched tryClaimMark over a reference-array range: claims the mark
  /// bit of every distinct, live, not-yet-marked referent in
  /// \p Slots[0..N) with one claim per touched bitmap word, invoking
  /// \p OnMarked(R) exactly once per newly marked object in
  /// first-occurrence slot order. Duplicates within the range are folded
  /// against a snapshot of the word; under Claim::Shared, bits another
  /// worker claims between the snapshot and the fetch_or are reconciled
  /// from the fetch_or's returned previous value, preserving the
  /// exactly-once guarantee. Pending bits are flushed whenever the scan
  /// leaves a bitmap word, so callback order equals the order a
  /// slot-by-slot tryClaimMark loop would produce. Slots are read with
  /// acquire loads (the marker-side protocol).
  template <Claim C, typename FnT>
  void markRangeWords(const ObjRef *Slots, size_t N, FnT OnMarked) {
    size_t CurWord = ~size_t(0);
    uint64_t Seen = 0;     ///< mark-word snapshot for CurWord
    uint64_t PendMask = 0; ///< bits this batch still has to claim
    ObjRef Scratch[64];    ///< pended refs of CurWord, slot order
    unsigned Pend = 0;
    auto Flush = [&] {
      if (!PendMask)
        return;
      uint64_t Newly = claimBits<C>(MarkWords[CurWord], PendMask);
      for (unsigned I = 0; I != Pend; ++I)
        if ((Newly >> (Scratch[I] & 63)) & 1)
          OnMarked(Scratch[I]);
      PendMask = 0;
      Pend = 0;
    };
    for (size_t I = 0; I != N; ++I) {
      ObjRef R = __atomic_load_n(Slots + I, __ATOMIC_ACQUIRE);
      if (R == NullRef || !isLive(R))
        continue;
      size_t WI = R >> 6;
      if (WI != CurWord) {
        Flush();
        CurWord = WI;
        Seen = __atomic_load_n(&MarkWords[WI], __ATOMIC_RELAXED);
      }
      uint64_t Bit = uint64_t(1) << (R & 63);
      if ((Seen | PendMask) & Bit)
        continue;
      Scratch[Pend++] = R;
      PendMask |= Bit;
    }
    Flush();
  }

  // --- GC support -----------------------------------------------------------

  /// Highest valid index into the object table (its capacity in
  /// multi-mutator mode).
  ObjRef maxRef() const { return static_cast<ObjRef>(Table.size() - 1); }
  /// One past the highest ObjRef ever handed out: every live object, and
  /// so every live, mark and young bit and every dirty card, lies below
  /// it. Pause-time walks stop here, which makes their cost follow the
  /// heap in use rather than the table's capacity. In multi-mutator mode
  /// that is RefCursor (TLAB ref blocks are carved below it; refs freed
  /// there are never reused), otherwise the table size. RefCursor moves
  /// under SlowLock while mutators run, so read this only with the world
  /// stopped or no mutator thread live.
  ObjRef refHighWater() const {
    return MultiMutator ? RefCursor : static_cast<ObjRef>(Table.size());
  }
  void free(ObjRef R);
  /// Zeroes the mark bitmap and advances the tracing epoch, which turns
  /// every tracing stamp Untraced. Once per 2^14 - 1 calls the epoch wraps
  /// and the call also zeroes the stamps of all live objects, so a stamp
  /// can never outlive its epoch's next turn. Stop-the-world only.
  void clearMarks();
  /// The epoch tracing stamps are read and written in: 1 .. 2^14 - 1.
  /// Changes only in clearMarks, at a stop-the-world point.
  TraceStamp traceEpoch() const { return TraceEpoch; }
  /// Frees every live-but-unmarked object and clears marks as clearMarks
  /// does: one pass over the bitmap words below refHighWater() that zeroes
  /// each mark word, clears each dead object's live and young bits and
  /// records it as swept. \returns the number of
  /// objects freed, already subtracted from numLive(). Nothing per object
  /// happens here: the swept objects' blocks and refs reach the free lists
  /// only in releaseSwept. Call only with marking complete, with the world
  /// stopped in multi-mutator mode (a TLAB writes its live and young words
  /// with plain stores).
  size_t sweepUnmarked();
  /// Releases (see release) every object the last sweepUnmarked freed, in
  /// ascending ObjRef order, exactly as an eager sweep would have. A
  /// single-mutator heap calls it itself before its next free-list push
  /// or pop: install's ref pop, oldBlockMem, free and the next sweep. In
  /// multi-mutator mode the driver calls it once the finish pause ends,
  /// while mutators run and before any other pause: TLABs never touch the
  /// free lists, FreeRefHead or a dead object's entry or block.
  void releaseSwept() {
    if (SweptEnd != 0)
      releaseSweptWords();
  }
  /// True from a sweep that freed something until its releaseSwept.
  bool hasSweptUnreleased() const { return SweptEnd != 0; }
  /// The oracle's end-of-cycle check, a word at a time: \returns true iff
  /// every object whose bit is set in \p Bits (same indexing as the
  /// live/mark bitmaps, at most refHighWater() bits) is live and marked.
  bool allLiveAndMarked(const std::vector<uint64_t> &Bits) const;

  // Counter reads may race with TLAB publication (e.g. the coordinator's
  // warmup wait and the pacer's polls); relaxed atomics keep them exact
  // without ordering cost. Between pauses they lag each running Tlab's
  // pending installs (see Tlab).
  uint64_t numAllocated() const {
    return __atomic_load_n(&NumAllocated, __ATOMIC_RELAXED);
  }
  uint64_t numLive() const { return __atomic_load_n(&NumLive, __ATOMIC_RELAXED); }
  uint64_t bytesAllocatedApprox() const {
    return __atomic_load_n(&BytesAllocated, __ATOMIC_RELAXED);
  }

private:
  /// Sets \p Bits in mark word \p Word the way \p C says and \returns
  /// the bits this call set.
  template <Claim C> static uint64_t claimBits(uint64_t &Word, uint64_t Bits) {
    uint64_t Prev;
    if constexpr (C == Claim::Exclusive) {
      Prev = __atomic_load_n(&Word, __ATOMIC_RELAXED);
      __atomic_store_n(&Word, Prev | Bits, __ATOMIC_RELAXED);
    } else {
      Prev = __atomic_fetch_or(&Word, Bits, __ATOMIC_RELAXED);
    }
    return Bits & ~Prev;
  }
  HeapObject *allocateBlock(uint32_t Bytes);
  /// Old-space block memory: free lists then slab carve. No nursery
  /// routing, no multi-mutator assert — shared by allocateBlock and
  /// promoteToOld (which runs stop-the-world in either mode).
  char *oldBlockMem(uint32_t Bytes);
  /// Nursery bump carve; null when the nursery cannot hold \p Bytes.
  char *nurseryCarve(uint32_t Bytes) {
    if (static_cast<size_t>(NurseryEnd - NurseryCur) < Bytes)
      return nullptr;
    char *Mem = NurseryCur;
    NurseryCur += Bytes;
    NurseryCarved.fetch_add(Bytes, std::memory_order_relaxed);
    return Mem;
  }
  ObjRef install(HeapObject *Obj);
  /// Pushes \p R's block (unless it is nursery storage) and \p R itself on
  /// their free lists, reading the dead object's header for its size and
  /// tagging its table entry. Leaves the bitmaps and counters to the
  /// caller. Under ASan the listed block is poisoned here, not at the
  /// sweep.
  void release(ObjRef R);
  void releaseSweptWords();
  /// clearMarks' epoch half: advances TraceEpoch and, on a wrap, zeroes
  /// every live object's stamp.
  void advanceTraceEpoch();
  /// A table entry is an object, null (never handed out), or a free-list
  /// link tagged with bit 0 (see FreeRefHead).
  static bool isObject(const HeapObject *Entry) {
    return Entry && !(reinterpret_cast<uintptr_t>(Entry) & 1);
  }
  /// Bump-carves \p Bytes from the current slab, starting a new slab if
  /// needed. In multi-mutator mode the caller must hold SlowLock.
  char *carveFromSlab(uint32_t Bytes);
  /// Refill-aware bump allocation for a TLAB; takes SlowLock on refill.
  char *tlabBlock(Tlab &T, uint32_t Bytes);
  /// Installs a header into the fixed-capacity table using the TLAB's
  /// private ref block (refilled under SlowLock from RefCursor).
  ObjRef tlabInstall(Tlab &T, HeapObject *Obj);
  /// Clears \p R's young bit. Young bits of published objects change only
  /// with the world stopped (promoteToOld, free), and a TLAB sets bits
  /// only between pauses, so a relaxed load and store do — no locked RMW.
  void clearYoung(ObjRef R) {
    uint64_t &W = YoungWords[R >> 6];
    __atomic_store_n(&W,
                     __atomic_load_n(&W, __ATOMIC_RELAXED) &
                         ~(uint64_t(1) << (R & 63)),
                     __ATOMIC_RELAXED);
  }
  /// Bitmap words holding the bits below refHighWater().
  size_t highWaterWords() const {
    return (static_cast<size_t>(refHighWater()) + 63) / 64;
  }

  /// Line-aligned storage for the object table and the side bitmaps, so
  /// that a ref block's bitmap words start a line rather than straddle
  /// two. It over-allocates by a line and keeps the pointer operator new
  /// returned just below the aligned one.
  template <typename T> struct LineAlignedAllocator {
    using value_type = T;
    LineAlignedAllocator() = default;
    template <typename U>
    LineAlignedAllocator(const LineAlignedAllocator<U> &) {}
    T *allocate(size_t N) {
      char *Raw = static_cast<char *>(::operator new(
          N * sizeof(T) + sizeof(void *) + CacheLineBytes - 1));
      uintptr_t Aligned =
          (reinterpret_cast<uintptr_t>(Raw) + sizeof(void *) +
           CacheLineBytes - 1) &
          ~uintptr_t(CacheLineBytes - 1);
      reinterpret_cast<void **>(Aligned)[-1] = Raw;
      return reinterpret_cast<T *>(Aligned);
    }
    void deallocate(T *Ptr, size_t) {
      ::operator delete(reinterpret_cast<void **>(Ptr)[-1]);
    }
    bool operator==(const LineAlignedAllocator &) const { return true; }
  };
  template <typename T>
  using LineVector = std::vector<T, LineAlignedAllocator<T>>;

  const Program &P;
  /// Indexed directly by ObjRef; Table[0] is always null.
  LineVector<HeapObject *> Table;
  LineVector<uint64_t> LiveWords;  ///< bit R: ObjRef R is live
  LineVector<uint64_t> MarkWords;  ///< bit R: ObjRef R is marked
  LineVector<uint64_t> YoungWords; ///< bit R: ObjRef R is nursery-resident
  /// Last freed ObjRef, or NullRef. Each freed entry holds the next link
  /// as (Next << 1) | 1; the tag keeps it apart from an object pointer
  /// (8-aligned) and from null, and costs no memory beyond the entry the
  /// free writes anyway.
  ObjRef FreeRefHead = NullRef;
  /// Bit R: the last sweep freed ObjRef R and releaseSwept has not yet
  /// released it. Nonzero only in words [SweptBegin, SweptEnd); SweptEnd
  /// is 0 when nothing is pending. Written by one thread at a time: the
  /// sweep in its pause, then whoever calls releaseSwept.
  std::vector<uint64_t> SweptWords;
  size_t SweptBegin = 0;
  size_t SweptEnd = 0;

  // Slab storage: blocks are carved from 64 KiB slabs by bump pointer;
  // freed blocks recycle through exact-size free lists. A small size
  // class is a LIFO list whose links sit in the first 8 bytes of each
  // dead block; rare large blocks go on a linear list.
  static constexpr size_t SlabBytes = 64 * 1024;
  static constexpr uint32_t SmallClassBytes = 1024;
  std::vector<std::unique_ptr<char[]>> Slabs;
  char *SlabCur = nullptr;
  char *SlabEnd = nullptr;
  char *SmallFree[SmallClassBytes / 8 + 1] = {}; ///< heads; index: bytes / 8
  std::vector<std::pair<uint32_t, char *>> LargeFree;

  /// Per-class ref/int slot counts, precomputed so allocation does not
  /// walk field declarations.
  struct ClassLayout {
    uint32_t NumRefs = 0;
    uint32_t NumInts = 0;
  };
  std::vector<ClassLayout> Layouts;
  std::vector<FieldSlot> FieldSlots; ///< indexed by FieldId
  std::vector<ObjRef> StaticRefs;    ///< indexed by StaticFieldId (refs)
  std::vector<int64_t> StaticInts;
  std::atomic<bool> AllocateMarked{false};
  TraceStamp TraceEpoch = 1;
  uint64_t NumAllocated = 0;
  uint64_t NumLive = 0;
  uint64_t BytesAllocated = 0;

  // --- Multi-mutator state -------------------------------------------------
  /// Guards slab refills, TLAB chunk carving, and ref-block handout; the
  /// only lock on the allocation path, taken once per ~8 KiB of payload or
  /// RefBlockRefs installs.
  std::mutex SlowLock;
  bool MultiMutator = false;
  /// Next unhanded ObjRef in multi-mutator mode (RefBlockRefs-aligned
  /// handout).
  ObjRef RefCursor = 0;
  static constexpr uint32_t TlabChunkBytes = 8192;

  // --- Nursery state -------------------------------------------------------
  NurseryConfig NurseryCfg;
  std::unique_ptr<char[]> NurseryBuf;
  char *NurseryBase = nullptr;
  char *NurseryCur = nullptr;
  char *NurseryEnd = nullptr;
  /// Relaxed mirror of NurseryCur - NurseryBase (see nurseryCarvedBytes).
  std::atomic<uint64_t> NurseryCarved{0};
  std::function<void()> NurseryGCHook;
  std::atomic<bool> MinorGCNeeded{false};
};

/// The reachability oracle every marking cycle is checked against. SATB:
/// capture() at the start-of-marking pause, holds() at the termination
/// pause — the whole snapshot must be marked. Incremental update: both at
/// the final pause — everything reachable then must be marked. The
/// reachable set is a word bitmap with the heap's live/mark indexing,
/// sized to the heap's ref high-water mark, so the check runs a word at
/// a time. The bitmap and the traversal stack are kept across captures:
/// a pause allocates nothing once they have grown.
class ReachabilityOracle {
public:
  /// Records everything reachable from \p Roots and the heap's static
  /// refs, replacing any earlier capture. Stop-the-world only.
  /// \returns the number of reachable objects.
  uint64_t capture(const Heap &H, const std::vector<ObjRef> &Roots);
  /// \returns true iff every captured object is live and marked in \p H.
  bool holds(const Heap &H) const { return H.allLiveAndMarked(Words); }
  /// The captured set as a bit per ObjRef, sized \p NumRefs (at least
  /// the high-water mark at capture time).
  std::vector<bool> toBits(size_t NumRefs) const;

private:
  std::vector<uint64_t> Words;
  std::vector<ObjRef> Work;
};

/// Stop-the-world reachability (the snapshot oracle): a bit per ObjRef
/// (index R, size maxRef()+1) reachable from \p Roots and the heap's
/// static refs. One ReachabilityOracle capture, unpacked.
std::vector<bool> computeReachable(const Heap &H,
                                   const std::vector<ObjRef> &Roots);

} // namespace satb

#endif // SATB_HEAP_HEAP_H
