//===- gc/MutatorContext.h - Per-mutator runtime state ---------*- C++ -*-===//
///
/// \file
/// Everything one mutator thread owns privately: a TLAB carved from the
/// shared slab heap, a SATB log buffer handed to the marker wholesale, and
/// the safepoint flag its engine polls. The engine's `BarrierStats` is the
/// fourth per-thread shard — it already lives inside each `FastInterp`, so
/// the context does not duplicate it; `BarrierStats::merge` folds the
/// shards after a run.
///
/// Buffer ownership: the log buffer belongs to the mutator until flush();
/// flush transfers the whole vector to the marker's queue under the
/// marker's lock. Flush points are (a) the buffer reaching capacity on the
/// barrier slow path and (b) the stop-the-world pause, where the
/// coordinator flushes every context while its owner is parked — legal
/// precisely because the owner is parked (its release increment of the
/// park headcount, which the coordinator acquires before the pause work,
/// orders the owner's last append before the coordinator's drain).
///
/// Outside multi-mutator mode the context degrades to a transparent
/// pass-through (direct heap allocation, direct marker logging) so the
/// single-mutator engines keep bit-identical observables.
///
//===----------------------------------------------------------------------===//

#ifndef SATB_GC_MUTATORCONTEXT_H
#define SATB_GC_MUTATORCONTEXT_H

#include "gc/SatbMarker.h"
#include "heap/Heap.h"

namespace satb {

class MutatorContext {
public:
  explicit MutatorContext(Heap &H) : H(H) {}

  void bindSatb(SatbMarker *S) { Satb = S; }

  /// Switches the context to buffered multi-mutator operation: TLAB
  /// allocation and a private SATB buffer flushed at \p SatbBufferCap.
  /// \p SafepointFlag is the coordinator's poll flag (cached by the
  /// engine's dispatch loop). The heap must already be in multi-mutator
  /// mode.
  void enterMultiMutator(const std::atomic<bool> *SafepointFlag,
                         size_t SatbBufferCap) {
    assert(H.multiMutator() && "heap not in multi-mutator mode");
    Safepoint = SafepointFlag;
    BufferCap = SatbBufferCap;
    Buffer.reserve(BufferCap);
    Buffered = true;
  }

  void exitMultiMutator() {
    assert(Buffer.empty() && "exiting with an unflushed SATB buffer");
    Safepoint = nullptr;
    Buffered = false;
  }

  bool multiMutator() const { return Buffered; }
  const std::atomic<bool> *safepointFlag() const { return Safepoint; }

  // --- Allocation ---------------------------------------------------------

  ObjRef allocateObject(ClassId C) {
    return Buffered ? H.allocateObjectTlab(T, C) : H.allocateObject(C);
  }
  ObjRef allocateRefArray(uint32_t Length) {
    return Buffered ? H.allocateRefArrayTlab(T, Length)
                    : H.allocateRefArray(Length);
  }
  ObjRef allocateIntArray(uint32_t Length) {
    return Buffered ? H.allocateIntArrayTlab(T, Length)
                    : H.allocateIntArray(Length);
  }

  /// Drops this context's TLAB if its memory lives in the (just recycled)
  /// nursery; the next allocation refills from fresh space. Called by the
  /// minor-GC coordinator inside the stop-the-world pause — legal because
  /// the owner is parked.
  void invalidateNurseryTlab() { H.invalidateNurseryTlab(T); }
  /// Adds the TLAB's pending installs to the heap's counters
  /// (Heap::publishTlab).
  void publishAllocations() { H.publishTlab(T); }

  // --- SATB logging -------------------------------------------------------

  /// Barrier slow path. Buffered mode appends locally and flushes whole
  /// buffers; otherwise this is the marker's own (single-mutator) path so
  /// observables stay identical to the pre-context code.
  void logPreValue(ObjRef Pre) {
    assert(Satb && "logPreValue without a bound SATB marker");
    if (!Buffered) {
      Satb->logPreValue(Pre);
      return;
    }
    assert(Pre != NullRef && "inline barrier filters null pre-values");
    Buffer.push_back(Pre);
    if (Buffer.size() >= BufferCap)
      flush();
  }

  /// Hands the in-flight buffer to the marker. Called by the owner at
  /// capacity and by the coordinator at stop-the-world (owner parked).
  void flush() {
    if (Buffer.empty())
      return;
    Satb->flushBuffer(std::move(Buffer));
    Buffer.clear();
    Buffer.reserve(BufferCap);
  }

private:
  Heap &H;
  SatbMarker *Satb = nullptr;
  Heap::Tlab T;
  std::vector<ObjRef> Buffer;
  size_t BufferCap = 0;
  const std::atomic<bool> *Safepoint = nullptr;
  bool Buffered = false;
};

} // namespace satb

#endif // SATB_GC_MUTATORCONTEXT_H
