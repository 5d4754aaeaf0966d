//===- heap/Heap.cpp ------------------------------------------------------===//

#include "heap/Heap.h"

#include <algorithm>
#include <new>

#if defined(__SANITIZE_ADDRESS__)
#define SATB_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define SATB_ASAN 1
#endif
#endif
#ifdef SATB_ASAN
#include <sanitizer/asan_interface.h>
#else
#define ASAN_POISON_MEMORY_REGION(Addr, Size) ((void)(Addr), (void)(Size))
#define ASAN_UNPOISON_MEMORY_REGION(Addr, Size) ((void)(Addr), (void)(Size))
#endif

using namespace satb;

std::vector<FieldSlot> satb::computeFieldLayout(const Program &P) {
  // Per class, ref fields and int fields each get consecutive slots in
  // declaration order.
  std::vector<FieldSlot> Slots(P.numFields());
  for (ClassId C = 0, E = P.numClasses(); C != E; ++C) {
    uint32_t NextRef = 0, NextInt = 0;
    for (FieldId F : P.classDecl(C).Fields) {
      const FieldDecl &FD = P.fieldDecl(F);
      Slots[F].Type = FD.Type;
      Slots[F].Slot = FD.Type == JType::Ref ? NextRef++ : NextInt++;
    }
  }
  return Slots;
}

Heap::Heap(const Program &P) : P(P) {
  FieldSlots = computeFieldLayout(P);
  Layouts.resize(P.numClasses());
  for (ClassId C = 0, E = P.numClasses(); C != E; ++C) {
    for (FieldId F : P.classDecl(C).Fields) {
      if (P.fieldDecl(F).Type == JType::Ref)
        ++Layouts[C].NumRefs;
      else
        ++Layouts[C].NumInts;
    }
  }
  StaticRefs.assign(P.numStatics(), NullRef);
  StaticInts.assign(P.numStatics(), 0);
  Table.push_back(nullptr); // ObjRef 0 is null
  LiveWords.push_back(0);
  MarkWords.push_back(0);
  YoungWords.push_back(0);
}

void Heap::enableNursery(const NurseryConfig &Cfg) {
  assert(!NurseryBase && "nursery already enabled");
  assert(Cfg.NurseryBytes >= Cfg.PretenureBytes &&
         "nursery smaller than its own pretenure threshold");
  NurseryCfg = Cfg;
  NurseryBuf = std::make_unique<char[]>(Cfg.NurseryBytes);
  NurseryBase = NurseryBuf.get();
  NurseryCur = NurseryBase;
  NurseryEnd = NurseryBase + Cfg.NurseryBytes;
  NurseryCarved.store(0, std::memory_order_relaxed);
}

void Heap::disableNursery() {
  assert(NurseryBase && "nursery not enabled");
#ifndef NDEBUG
  for (size_t WI = 0, WE = highWaterWords(); WI != WE; ++WI)
    assert(YoungWords[WI] == 0 &&
           "disabling the nursery with young objects live");
#endif
  NurseryBuf.reset();
  NurseryBase = NurseryCur = NurseryEnd = nullptr;
  NurseryCarved.store(0, std::memory_order_relaxed);
  NurseryGCHook = nullptr;
  MinorGCNeeded.store(false, std::memory_order_relaxed);
}

uint32_t Heap::promoteToOld(ObjRef R) {
  assert(isLive(R) && isYoung(R) && "promoting a non-young reference");
  HeapObject *Young = Table[R];
  uint32_t Bytes = Young->blockBytes();
  if (!inNursery(Young)) {
    // Born young in an old-space block (nursery-exhausted TLAB fallback):
    // the storage is already tenured, so promotion is just dropping the
    // young bit — no copy, no republication.
    clearYoung(R);
    return Bytes;
  }
  char *Mem = oldBlockMem(Bytes);
  std::memcpy(Mem, Young, Bytes);
  // Young bit off before the new address is published: a reader that sees
  // the new pointer must not still classify the object as young.
  clearYoung(R);
  __atomic_store_n(&Table[R], reinterpret_cast<HeapObject *>(Mem),
                   __ATOMIC_RELEASE);
  return Bytes;
}

void Heap::resetNursery() {
  assert(NurseryBase && "resetting a disabled nursery");
#ifndef NDEBUG
  for (size_t WI = 0, WE = highWaterWords(); WI != WE; ++WI)
    assert(YoungWords[WI] == 0 &&
           "nursery reset with unprocessed young objects");
#endif
  NurseryCur = NurseryBase;
  NurseryCarved.store(0, std::memory_order_relaxed);
}

char *Heap::carveFromSlab(uint32_t Bytes) {
  if (static_cast<size_t>(SlabEnd - SlabCur) < Bytes) {
    size_t Size = std::max<size_t>(SlabBytes, Bytes);
    Slabs.push_back(std::make_unique<char[]>(Size));
    SlabCur = Slabs.back().get();
    SlabEnd = SlabCur + Size;
  }
  char *Mem = SlabCur;
  SlabCur += Bytes;
  return Mem;
}

char *Heap::oldBlockMem(uint32_t Bytes) {
  releaseSwept();
  char *Mem = nullptr;
  if (Bytes <= SmallClassBytes) {
    char *&Head = SmallFree[Bytes / 8];
    if (Head) {
      Mem = Head;
      std::memcpy(&Head, Mem, sizeof(char *));
    }
  } else {
    for (size_t I = 0, E = LargeFree.size(); I != E; ++I) {
      if (LargeFree[I].first == Bytes) {
        Mem = LargeFree[I].second;
        LargeFree[I] = LargeFree.back();
        LargeFree.pop_back();
        break;
      }
    }
  }
  if (!Mem)
    return carveFromSlab(Bytes);
  ASAN_UNPOISON_MEMORY_REGION(Mem, Bytes);
  return Mem;
}

HeapObject *Heap::allocateBlock(uint32_t Bytes) {
  assert(Bytes % 8 == 0 && "block sizes are 8-byte rounded");
  assert(!MultiMutator && "single-mutator allocation in multi-mutator mode");
  if (NurseryBase && Bytes <= NurseryCfg.PretenureBytes) {
    char *Mem = nurseryCarve(Bytes);
    if (!Mem && NurseryGCHook) {
      // Synchronous minor collection: promote/free every young object and
      // reset the bump pointer, then the carve below cannot fail (the
      // pretenure threshold bounds Bytes by the nursery size).
      NurseryGCHook();
      Mem = nurseryCarve(Bytes);
    }
    if (Mem)
      return new (Mem) HeapObject;
    // Nursery full and no collector attached: pretenure into old space.
  }
  return new (oldBlockMem(Bytes)) HeapObject;
}

ObjRef Heap::install(HeapObject *Obj) {
  // Zero the payload: the allocator zeroes fields / "a newly allocated
  // array of an object type has all elements set to null".
  std::memset(static_cast<void *>(Obj + 1), 0,
              Obj->blockBytes() - sizeof(HeapObject));
  ++NumAllocated;
  ++NumLive;
  BytesAllocated += Obj->blockBytes();
  releaseSwept();
  ObjRef R = FreeRefHead;
  if (R != NullRef) {
    FreeRefHead =
        static_cast<ObjRef>(reinterpret_cast<uintptr_t>(Table[R]) >> 1);
    Table[R] = Obj;
  } else {
    R = static_cast<ObjRef>(Table.size());
    Table.push_back(Obj);
    if ((R >> 6) >= LiveWords.size()) {
      LiveWords.push_back(0);
      MarkWords.push_back(0);
      YoungWords.push_back(0);
    }
  }
  LiveWords[R >> 6] |= uint64_t(1) << (R & 63);
  if (inNursery(Obj))
    YoungWords[R >> 6] |= uint64_t(1) << (R & 63);
  if (AllocateMarked.load(std::memory_order_relaxed))
    MarkWords[R >> 6] |= uint64_t(1) << (R & 63);
  return R;
}

void Heap::enterMultiMutator(uint32_t CapacityRefs) {
  assert(!MultiMutator && "already in multi-mutator mode");
  assert(CapacityRefs > Table.size() && "capacity below current table size");
  // Fix the table and bitmaps at full capacity up front: no mutator-side
  // allocation may ever reallocate them while other threads hold raw
  // pointers into them (tableData(), bitmap words).
  ObjRef FirstFresh = static_cast<ObjRef>(Table.size());
  Table.resize(CapacityRefs, nullptr);
  LiveWords.resize((CapacityRefs + 63) / 64, 0);
  MarkWords.resize((CapacityRefs + 63) / 64, 0);
  YoungWords.resize((CapacityRefs + 63) / 64, 0);
  // Start ref handout at the next aligned block so TLAB ref blocks own
  // whole bitmap lines and never share one with pre-existing objects.
  RefCursor = (FirstFresh + RefBlockRefs - 1) & ~(RefBlockRefs - 1);
  MultiMutator = true;
}

void Heap::exitMultiMutator() {
  assert(MultiMutator && "not in multi-mutator mode");
  MultiMutator = false;
}

char *Heap::tlabBlock(Tlab &T, uint32_t Bytes) {
  assert(Bytes % 8 == 0 && "block sizes are 8-byte rounded");
  if (static_cast<size_t>(T.End - T.Cur) >= Bytes) {
    char *Mem = T.Cur;
    T.Cur += Bytes;
    return Mem;
  }
  std::lock_guard<std::mutex> Lock(SlowLock);
  if (Bytes >= TlabChunkBytes) {
    // Large blocks are carved directly; refilling the TLAB with them
    // would just discard the remainder. They are also implicitly
    // pretenured: large blocks never come from the nursery.
    return carveFromSlab(Bytes);
  }
  if (NurseryBase) {
    // When the nursery cannot hand out a whole chunk, raise the minor-GC
    // request and fall back to an old-space chunk — the mutator never
    // blocks; the collection happens at the next pause.
    if (static_cast<size_t>(NurseryEnd - NurseryCur) >= TlabChunkBytes) {
      char *Chunk = NurseryCur;
      NurseryCur += TlabChunkBytes;
      NurseryCarved.fetch_add(TlabChunkBytes, std::memory_order_relaxed);
      T.Cur = Chunk + Bytes;
      T.End = Chunk + TlabChunkBytes;
      T.ChunkYoung = true;
      return Chunk;
    }
    MinorGCNeeded.store(true, std::memory_order_relaxed);
  }
  char *Chunk = carveFromSlab(TlabChunkBytes);
  T.Cur = Chunk + Bytes;
  T.End = Chunk + TlabChunkBytes;
  // The fallback chunk's storage is old space, but with the nursery
  // enabled its objects are still *born young*: the compiler's
  // young-target proof elides the remembered-set barrier on stores into
  // freshly allocated objects, which is only sound if "freshly allocated"
  // implies "young". Promotion is in-place for these blocks and free()
  // already routes non-nursery storage to the old free lists.
  T.ChunkYoung = NurseryBase != nullptr;
  return Chunk;
}

ObjRef Heap::tlabInstall(Tlab &T, HeapObject *Obj) {
  std::memset(static_cast<void *>(Obj + 1), 0,
              Obj->blockBytes() - sizeof(HeapObject));
  if (T.NextRef == T.RefEnd) {
    std::lock_guard<std::mutex> Lock(SlowLock);
    T.NextRef = RefCursor;
    RefCursor += RefBlockRefs;
    T.RefEnd = RefCursor;
    assert(T.RefEnd <= Table.size() &&
           "heap over capacity — raise MultiMutatorConfig::HeapCapacityRefs");
  }
  T.PendingBytes += Obj->blockBytes();
  if (++T.PendingObjects == TlabPublishObjects ||
      T.PendingBytes >= TlabChunkBytes)
    publishTlab(T);
  ObjRef R = T.NextRef++;
  const uint64_t Bit = uint64_t(1) << (R & 63);
  // Between pauses this Tlab is the only writer of its block's live and
  // young words (the collector writes them only with the world stopped),
  // so a plain load and store sets the bit; no locked RMW is needed.
  auto SetOwned = [&](LineVector<uint64_t> &Words) {
    uint64_t &W = Words[R >> 6];
    __atomic_store_n(&W, __atomic_load_n(&W, __ATOMIC_RELAXED) | Bit,
                     __ATOMIC_RELAXED);
  };
  // Live/mark bits first, table entry last: the release publication of
  // Table[R] is what makes the object visible, and any observer then sees
  // a fully formed (zeroed, live, maybe born-marked) object.
  SetOwned(LiveWords);
  // Large blocks (>= TlabChunkBytes) bypass the chunk and are implicitly
  // pretenured; everything else inherits the current chunk's birth class.
  if (T.ChunkYoung && Obj->blockBytes() < TlabChunkBytes)
    SetOwned(YoungWords);
  // The marker claims bits in this word concurrently (Claim), so the
  // born-marked bit must be a fetch_or.
  if (AllocateMarked.load(std::memory_order_relaxed))
    __atomic_fetch_or(&MarkWords[R >> 6], Bit, __ATOMIC_RELAXED);
  __atomic_store_n(&Table[R], Obj, __ATOMIC_RELEASE);
  return R;
}

void Heap::publishTlab(Tlab &T) {
  if (T.PendingObjects == 0)
    return;
  __atomic_fetch_add(&NumAllocated, uint64_t(T.PendingObjects),
                     __ATOMIC_RELAXED);
  __atomic_fetch_add(&NumLive, uint64_t(T.PendingObjects), __ATOMIC_RELAXED);
  __atomic_fetch_add(&BytesAllocated, T.PendingBytes, __ATOMIC_RELAXED);
  T.PendingObjects = 0;
  T.PendingBytes = 0;
}

ObjRef Heap::allocateObjectTlab(Tlab &T, ClassId C) {
  const ClassLayout &L = Layouts[C];
  HeapObject Header;
  Header.Kind = ObjectKind::Object;
  Header.Class = C;
  Header.NumRefs = L.NumRefs;
  Header.NumInts = L.NumInts;
  HeapObject *Obj = new (tlabBlock(T, Header.blockBytes())) HeapObject;
  *Obj = Header;
  return tlabInstall(T, Obj);
}

ObjRef Heap::allocateRefArrayTlab(Tlab &T, uint32_t Length) {
  HeapObject Header;
  Header.Kind = ObjectKind::RefArray;
  Header.NumRefs = Length;
  HeapObject *Obj = new (tlabBlock(T, Header.blockBytes())) HeapObject;
  *Obj = Header;
  return tlabInstall(T, Obj);
}

ObjRef Heap::allocateIntArrayTlab(Tlab &T, uint32_t Length) {
  HeapObject Header;
  Header.Kind = ObjectKind::IntArray;
  Header.NumInts = Length;
  HeapObject *Obj = new (tlabBlock(T, Header.blockBytes())) HeapObject;
  *Obj = Header;
  return tlabInstall(T, Obj);
}

ObjRef Heap::allocateObject(ClassId C) {
  const ClassLayout &L = Layouts[C];
  HeapObject Header;
  Header.Kind = ObjectKind::Object;
  Header.Class = C;
  Header.NumRefs = L.NumRefs;
  Header.NumInts = L.NumInts;
  HeapObject *Obj = allocateBlock(Header.blockBytes());
  *Obj = Header;
  return install(Obj);
}

ObjRef Heap::allocateRefArray(uint32_t Length) {
  HeapObject Header;
  Header.Kind = ObjectKind::RefArray;
  Header.NumRefs = Length;
  HeapObject *Obj = allocateBlock(Header.blockBytes());
  *Obj = Header;
  return install(Obj);
}

ObjRef Heap::allocateIntArray(uint32_t Length) {
  HeapObject Header;
  Header.Kind = ObjectKind::IntArray;
  Header.NumInts = Length;
  HeapObject *Obj = allocateBlock(Header.blockBytes());
  *Obj = Header;
  return install(Obj);
}

void Heap::release(ObjRef R) {
  char *Mem = reinterpret_cast<char *>(Table[R]);
  // Nursery blocks never enter the old free lists: the whole buffer is
  // recycled wholesale by resetNursery, and handing a nursery address out
  // as an old block would let the next reset clobber a live object.
  if (!inNursery(Mem)) {
    uint32_t Bytes = Table[R]->blockBytes();
    if (Bytes <= SmallClassBytes) {
      char *&Head = SmallFree[Bytes / 8];
      std::memcpy(Mem, &Head, sizeof(char *));
      Head = Mem;
    } else {
      LargeFree.emplace_back(Bytes, Mem);
    }
    // Under AddressSanitizer a listed block is poisoned past its link
    // word, so a read of a dead object (a stale SATB entry, a card rescan
    // that missed the tag check) faults instead of reading a link.
    ASAN_POISON_MEMORY_REGION(Mem + sizeof(char *), Bytes - sizeof(char *));
  }
  Table[R] = reinterpret_cast<HeapObject *>(
      (static_cast<uintptr_t>(FreeRefHead) << 1) | 1);
  FreeRefHead = R;
}

void Heap::free(ObjRef R) {
  assert(R != NullRef && R < Table.size() && isObject(Table[R]) &&
         "freeing a bad reference");
  releaseSwept();
  release(R);
  LiveWords[R >> 6] &= ~(uint64_t(1) << (R & 63));
  MarkWords[R >> 6] &= ~(uint64_t(1) << (R & 63));
  clearYoung(R);
  --NumLive;
}

void Heap::clearMarks() {
  // Nothing at or above the high-water mark was ever live or marked.
  std::fill_n(MarkWords.begin(), highWaterWords(), uint64_t(0));
  advanceTraceEpoch();
}

void Heap::advanceTraceEpoch() {
  if (++TraceEpoch != (1u << TraceEpochBits))
    return;
  // Wrapped: every epoch comes round again, so no live stamp may survive
  // the turn. Freed blocks need nothing; allocation writes a new header.
  TraceEpoch = 1;
  for (size_t WI = 0, WE = highWaterWords(); WI != WE; ++WI)
    for (uint64_t W = LiveWords[WI]; W; W &= W - 1)
      Table[WI * 64 + __builtin_ctzll(W)]->Stamp = 0;
}

size_t Heap::sweepUnmarked() {
  // The previous sweep's objects reach the lists before this one's.
  releaseSwept();
  // Ref 0 is the ref list's end marker; it is never live, so never dead.
  assert(!(LiveWords[0] & 1) && "ObjRef 0 is live");
  const size_t WE = highWaterWords();
  if (SweptWords.size() < WE)
    SweptWords.resize(WE, 0);
  size_t Freed = 0;
  for (size_t WI = 0; WI != WE; ++WI) {
    // One pass clears the marks too: nothing below reads this mark word.
    uint64_t Dead = LiveWords[WI] & ~MarkWords[WI];
    MarkWords[WI] = 0;
    if (!Dead)
      continue;
    LiveWords[WI] &= ~Dead;
    YoungWords[WI] &= ~Dead;
    SweptWords[WI] = Dead;
    if (SweptEnd == 0)
      SweptBegin = WI;
    SweptEnd = WI + 1;
    Freed += static_cast<size_t>(__builtin_popcountll(Dead));
  }
  NumLive -= Freed;
  advanceTraceEpoch();
  return Freed;
}

void Heap::releaseSweptWords() {
  for (size_t WI = SweptBegin; WI != SweptEnd; ++WI) {
    for (uint64_t Dead = SweptWords[WI]; Dead; Dead &= Dead - 1)
      release(static_cast<ObjRef>(WI * 64 + __builtin_ctzll(Dead)));
    SweptWords[WI] = 0;
  }
  SweptBegin = SweptEnd = 0;
}

bool Heap::allLiveAndMarked(const std::vector<uint64_t> &Bits) const {
  assert(Bits.size() <= LiveWords.size() && "bitmap wider than the heap");
  for (size_t WI = 0, WE = Bits.size(); WI != WE; ++WI) {
    uint64_t Live = __atomic_load_n(&LiveWords[WI], __ATOMIC_RELAXED);
    uint64_t Mark = __atomic_load_n(&MarkWords[WI], __ATOMIC_RELAXED);
    if (Bits[WI] & ~(Live & Mark))
      return false;
  }
  return true;
}

uint64_t ReachabilityOracle::capture(const Heap &H,
                                     const std::vector<ObjRef> &Roots) {
  const ObjRef HighWater = H.refHighWater();
  // assign() keeps the capacity of earlier captures: no allocation once
  // the bitmap has reached the heap's size.
  Words.assign((static_cast<size_t>(HighWater) + 63) / 64, 0);
  Work.clear();
  uint64_t Count = 0;
  auto Visit = [&](ObjRef R) {
    if (R == NullRef)
      return;
    assert(R < HighWater && "reference above the heap's high-water mark");
    uint64_t &W = Words[R >> 6];
    uint64_t Bit = uint64_t(1) << (R & 63);
    if (W & Bit)
      return;
    W |= Bit;
    ++Count;
    Work.push_back(R);
  };
  for (ObjRef R : Roots)
    Visit(R);
  for (ObjRef R : H.staticRefs())
    Visit(R);
  while (!Work.empty()) {
    ObjRef R = Work.back();
    Work.pop_back();
    for (ObjRef Child : H.object(R).refSlots())
      Visit(Child);
  }
  return Count;
}

std::vector<bool> ReachabilityOracle::toBits(size_t NumRefs) const {
  assert(Words.size() <= (NumRefs + 63) / 64 && "bit vector below the capture");
  std::vector<bool> Bits(NumRefs, false);
  for (size_t WI = 0, WE = Words.size(); WI != WE; ++WI)
    for (uint64_t W = Words[WI]; W; W &= W - 1)
      Bits[WI * 64 + static_cast<size_t>(__builtin_ctzll(W))] = true;
  return Bits;
}

std::vector<bool> satb::computeReachable(const Heap &H,
                                         const std::vector<ObjRef> &Roots) {
  ReachabilityOracle Oracle;
  Oracle.capture(H, Roots);
  return Oracle.toBits(H.maxRef() + 1);
}
