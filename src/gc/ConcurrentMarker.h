//===- gc/ConcurrentMarker.h - The shared marking core ---------*- C++ -*-===//
///
/// \file
/// What the paper's two concurrent collectors (Section 1) share: a grey
/// mark stack traced from the roots, the object and reference-array slot
/// scan, one tracing loop for any number of mark workers (sharded grey
/// stacks, ParallelMark.h), and the sweep. SATB and incremental update
/// differ only in three places, and each marker supplies just those:
///
///  - its *grey source*, the work the mutators' barrier hands over while
///    marking runs: SATB pre-value buffers (SatbMarker) or dirty cards
///    (IncrementalUpdateMarker), read through refill() and
///    hasPendingSource();
///  - its *barrier entry* (logPreValue/flushBuffer, or recordWrite);
///  - its *pause specifics* in finishMarking: the array-rearrangement
///    retrace, or the root rescan; either then drains to completion.
///
/// Dispatch to the marker is one virtual call per refill (a whole buffer
/// or card), never per object: the per-object scan below is inline.
/// MarkThreads == 1 runs the same loop inline on the caller with no
/// hand-off queue and no termination gate.
///
/// CycleEdges is the collector face the cycle drivers use: the two
/// stop-the-world edges of a cycle, with the marker's correctness oracle
/// placed where its guarantee is stated.
///
//===----------------------------------------------------------------------===//

#ifndef SATB_GC_CONCURRENTMARKER_H
#define SATB_GC_CONCURRENTMARKER_H

#include "gc/ParallelMark.h"
#include "heap/Heap.h"

#include <memory>

namespace satb {

class ThreadPool;

/// The counters every marker keeps; SatbStats and IncUpdateStats extend
/// them.
struct MarkStats {
  uint64_t ConcurrentWork = 0; ///< work units done while mutators run
  uint64_t FinalPauseWork = 0; ///< work units done in termination pauses
  uint64_t MarkedObjects = 0;
  uint64_t SweptObjects = 0;
};

class ConcurrentMarker {
public:
  virtual ~ConcurrentMarker() = default;

  /// Parallel-marking knob. The default (1) runs the one mark worker
  /// inline on the caller, keeping its grey stack across markStep calls.
  /// With \p N > 1, markStep and finishMarking run N workers over sharded
  /// grey stacks; \p Pool must outlive the marker's cycles and hold at
  /// least N threads (ThreadPool counts the caller, so ThreadPool(N) is
  /// the natural pool). Call between cycles only, never mid-drain.
  void setMarkThreads(unsigned N, ThreadPool *Pool = nullptr);

  /// Debug instrumentation for the mark-once property tests: allocates a
  /// per-ObjRef trace counter (capacity \p CapacityRefs) that every
  /// object scan increments. Off by default.
  void enableTraceCounts(size_t CapacityRefs);
  uint32_t traceCount(ObjRef R) const {
    return TraceCounts && R < TraceCountCap
               ? TraceCounts[R].load(std::memory_order_relaxed)
               : 0;
  }

  /// Relaxed: mutators poll this on every barrier. Transitions happen only
  /// at the stop-the-world edges of a cycle (beginMarking /
  /// finishMarking), which the safepoint handshake orders against every
  /// mutator's next step.
  bool isActive() const { return Active.load(std::memory_order_relaxed); }

  /// The begin pause: snapshots the roots (mutator stacks passed in;
  /// statics read from the heap) and activates the mutator barrier.
  virtual void beginMarking(const std::vector<ObjRef> &MutatorRoots) = 0;

  /// Runs up to \p Budget units of concurrent marking (one unit = one
  /// object scanned, one object greyed, or one grey-source item
  /// consumed). \returns true when no work appears to remain.
  bool markStep(size_t Budget);

  /// The termination pause, with every mutator stopped: drains everything
  /// to completion and deactivates the barrier. \p PauseRoots are the
  /// mutator roots at the pause; only incremental update rescans them.
  /// \returns the work done inside the pause.
  virtual size_t finishMarking(const std::vector<ObjRef> &PauseRoots) = 0;

  /// Frees unmarked objects; clears marks. Call only after finishMarking.
  /// \returns the number of objects freed.
  size_t sweep();

  /// The collector's guarantee, which places its correctness oracle: true
  /// for SATB (everything reachable in the start-of-marking snapshot ends
  /// up marked), false for incremental update (everything reachable at
  /// the final pause is marked).
  bool snapshotAtBegin() const { return SnapshotAtBegin; }

  const MarkStats &markStats() const { return Counts; }

protected:
  /// \p Counts is the derived marker's stats block; it is bound here and
  /// filled only once the derived constructor has run.
  ConcurrentMarker(Heap &H, MarkStats &Counts, bool SnapshotAtBegin)
      : H(H), Counts(Counts), SnapshotAtBegin(SnapshotAtBegin) {}

  /// One mark worker's private grey stack and counts. Whoever sets an
  /// object's mark bit admits it, so exactly one worker does. Workers of
  /// a gang claim with fetch_or. A lone worker (no Gate) shares nothing:
  /// it never offloads a segment, and when no mutator thread can write
  /// the mark bitmap beside it, it claims with plain stores
  /// (Claim::Exclusive).
  struct Worker {
    ConcurrentMarker &M;
    unsigned Index;
    TerminationGate *Gate; ///< null when MarkThreads == 1
    bool Pause;            ///< draining in a termination pause
    Claim Mode;            ///< how this worker claims mark bits
    GreySegment Local;
    uint64_t Marked = 0;
    size_t Work = 0;
    /// The grey source's resume point within one pause drain (cards
    /// probed by IncrementalUpdateMarker::refill).
    uint32_t Cursor = 0;

    void admit(ObjRef R) {
      ++Marked;
      ++Work;
      Local.push_back(R);
      if (Gate && Local.size() >= 2 * GreySegmentTarget) {
        // Offload the *oldest* half: deep stacks mean a skewed subgraph,
        // and the bottom entries fan out widest.
        GreySegment Out(Local.begin(), Local.begin() + GreySegmentTarget);
        Local.erase(Local.begin(), Local.begin() + GreySegmentTarget);
        M.Grey.push(std::move(Out));
      }
    }
    void claim(ObjRef R) {
      if (Mode == Claim::Exclusive ? M.tryClaim<Claim::Exclusive>(R)
                                   : M.tryClaim<Claim::Shared>(R))
        admit(R);
    }
    /// Greys every unmarked referent of \p Obj.
    void scanSlots(const HeapObject &Obj) {
      if (Mode == Claim::Exclusive)
        scanSlotsWith<Claim::Exclusive>(Obj);
      else
        scanSlotsWith<Claim::Shared>(Obj);
    }
    /// Whether this worker is the one thread that can write the mark
    /// bitmap, as Claim::Exclusive needs: it has no fellow workers, and no
    /// mutator thread is installing born-marked objects (in multi-mutator
    /// mode those run only outside a pause).
    bool ownsBitmap() const {
      return !Gate && (Pause || !M.H.multiMutator());
    }

  private:
    template <Claim C> void scanSlotsWith(const HeapObject &Obj) {
      // Acquire per slot: a concurrently stored reference must publish its
      // referent's table entry and zeroed payload before we push it.
      // Reference arrays take the word-at-a-time range path: one bitmap
      // claim per touched mark word instead of one per slot, with
      // callback order equal to the slot-by-slot loop's.
      const ObjRef *Slots = Obj.refs();
      if (Obj.Kind == ObjectKind::RefArray) {
        M.H.markRangeWords<C>(Slots, Obj.NumRefs,
                              [this](ObjRef V) { admit(V); });
        return;
      }
      for (uint32_t I = 0, E = Obj.NumRefs; I != E; ++I) {
        ObjRef R = loadRefAcquire(&Slots[I]);
        if (M.tryClaim<C>(R))
          admit(R);
      }
    }
  };

  // --- The grey source, supplied by each marker ---------------------------

  /// Greys the source's next item into \p W. \returns false when \p W
  /// found no work.
  virtual bool refill(Worker &W) = 0;
  /// Whether the source still holds work (the termination re-check).
  virtual bool hasPendingSource() = 0;

  // --- Shared marking routines --------------------------------------------

  /// Activates the barrier and greys the roots and statics.
  void startMarking(const std::vector<ObjRef> &MutatorRoots);
  /// Greys \p MutatorRoots and the heap's static references.
  void greyRoots(const std::vector<ObjRef> &MutatorRoots, size_t &Work);
  /// Ends the termination pause: records \p Pause, deactivates the
  /// barrier. \returns \p Pause.
  size_t stopMarking(size_t Pause);

  /// The one claim test: \returns true iff \p R is a live object whose
  /// mark bit this caller set. Under Claim::Shared a plain load skips
  /// marked objects before the atomic RMW; the exclusive claim is that
  /// load already.
  template <Claim C = Claim::Shared> bool tryClaim(ObjRef R) {
    if (R == NullRef || !H.isLive(R))
      return false;
    if constexpr (C == Claim::Shared)
      if (H.isMarked(R))
        return false;
    return H.tryClaimMark<C>(R);
  }
  /// Greys \p R onto MarkStack (roots staged in a pause).
  void pushIfUnmarked(ObjRef R, size_t &Work) {
    if (!tryClaim(R))
      return;
    ++Counts.MarkedObjects;
    ++Work;
    MarkStack.push_back(R);
  }

  /// Drains every grey object and the whole grey source. Pause-only:
  /// mutators must be stopped.
  void drainAll(size_t &Work);

  Heap &H;
  MarkStats &Counts;
  std::atomic<bool> Active{false};
  /// The grey stack of the begin and finish pauses, which the next drain
  /// picks up. With MarkThreads == 1 it is also the lone worker's stack,
  /// kept between markStep calls.
  std::vector<ObjRef> MarkStack;
  unsigned MarkThreads = 1;

private:
  /// Runs MarkThreads workers (one inline on the caller, or a gang on the
  /// pool seeded from MarkStack through the grey queue), each to
  /// \p Budget work units, and folds their totals into the stats.
  /// \returns the summed work units.
  size_t runWorkers(size_t Budget, bool Pause);
  /// The tracing loop: pops and scans grey objects, refilling from the
  /// hand-off queue and the grey source, until \p W.Work reaches \p Budget
  /// or no work remains (for a gang, once the termination gate agrees).
  void traceLoop(Worker &W, size_t Budget);
  void bumpTrace(ObjRef R) {
    if (TraceCounts && R < TraceCountCap)
      TraceCounts[R].fetch_add(1, std::memory_order_relaxed);
  }

  const bool SnapshotAtBegin;
  ThreadPool *MarkPool = nullptr;
  /// Segment hand-off queue between workers and between budgeted drains;
  /// always empty when MarkThreads == 1.
  GreyQueue Grey;
  /// Mark-once debug counters (test instrumentation, normally null).
  std::unique_ptr<std::atomic<uint32_t>[]> TraceCounts;
  size_t TraceCountCap = 0;
};

/// What a driver reports about its concurrent cycles; every field sums
/// over cycles.
struct CycleTotals {
  /// Every cycle's oracle held (see CycleEdges). Vacuously true when no
  /// cycle ran.
  bool OracleHolds = true;
  uint64_t OracleLive = 0; ///< objects the oracles required marked
  uint64_t Marked = 0;     ///< the marker's MarkedObjects
  size_t FinalPauseWork = 0;
  size_t Swept = 0;
};

/// The collector face of a concurrent cycle: its two stop-the-world edges
/// for either marker, with the marker's correctness oracle in place. SATB
/// captures the oracle from the begin pause's roots. Incremental update
/// captures it in the finish pause, from the roots that pause rescans.
/// Both check it in the finish pause, before the sweep.
class CycleEdges {
public:
  CycleEdges(ConcurrentMarker &M, Heap &H, CycleTotals &Out)
      : M(M), H(H), Out(Out) {}

  void begin(const std::vector<ObjRef> &Roots) {
    if (M.snapshotAtBegin())
      Out.OracleLive += Oracle.capture(H, Roots);
    M.beginMarking(Roots);
  }

  /// \p PauseRoots yields the mutator roots at the finish pause; it is
  /// called only when the marker rescans them.
  template <typename RootsFn> void finish(RootsFn &&PauseRoots) {
    if (M.snapshotAtBegin()) {
      Out.FinalPauseWork += M.finishMarking({});
    } else {
      const std::vector<ObjRef> &Roots = PauseRoots();
      Out.FinalPauseWork += M.finishMarking(Roots);
      Out.OracleLive += Oracle.capture(H, Roots);
    }
    Out.OracleHolds &= Oracle.holds(H);
    Out.Marked = M.markStats().MarkedObjects;
    Out.Swept += M.sweep();
  }

  /// The last cycle's oracle set (test instrumentation).
  const ReachabilityOracle &oracle() const { return Oracle; }

private:
  ConcurrentMarker &M;
  Heap &H;
  CycleTotals &Out;
  ReachabilityOracle Oracle;
};

} // namespace satb

#endif // SATB_GC_CONCURRENTMARKER_H
