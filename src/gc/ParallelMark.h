//===- gc/ParallelMark.h - Sharded mark stacks + termination ---*- C++ -*-===//
///
/// \file
/// Shared infrastructure for parallel marking (Flood et al.'s parallel-GC
/// design point: per-worker grey stacks with load balancing, see
/// PAPERS.md). Each mark worker keeps a private grey stack and claims
/// objects through the heap's mark word with an atomic fetch_or
/// (`Heap::tryClaimMark<Claim::Shared>`), so an object is traced exactly
/// once no matter which worker reaches it first. (A lone worker that owns
/// the bitmap claims with plain stores instead; see `Claim`.) Load
/// balancing uses a *locked segment hand-off queue* rather than a
/// Chase-Lev deque: workers that grow a deep local stack offload a
/// fixed-size segment under a mutex, and idle workers pop whole segments.
/// The rationale (see DESIGN.md "Parallel marking"): hand-off happens once
/// per `GreySegmentTarget` objects, so the mutex is off the per-object
/// path, and mutex + condvar-free spin keeps every access
/// ThreadSanitizer-annotatable without relying on the weaker orderings a
/// work-stealing deque needs.
///
/// Termination uses a global active-worker count with a re-offer check: a
/// worker that runs dry decrements the count and spins; it re-increments
/// (re-offers itself) whenever shared work reappears, and exits only after
/// observing the count at zero *and then* finding the shared queues still
/// empty. Reading the count before the work re-check closes the classic
/// race where worker A hands off a segment and goes idle while worker B
/// checked the queue just before the hand-off.
///
//===----------------------------------------------------------------------===//

#ifndef SATB_GC_PARALLELMARK_H
#define SATB_GC_PARALLELMARK_H

#include "heap/Heap.h"

#include <mutex>
#include <vector>

namespace satb {

/// A batch of grey references handed between mark workers. Also the type
/// of a worker's private stack, so hand-off is a vector move.
using GreySegment = std::vector<ObjRef>;

/// Hand-off granularity: a worker offloads this many objects at a time
/// once its local stack exceeds twice the target, and idle workers pick
/// whole segments up. Large enough that the queue mutex is cold, small
/// enough that a skewed object graph still spreads across workers.
constexpr size_t GreySegmentTarget = 128;

/// The locked segment hand-off queue (the load-balancing channel between
/// mark workers). All operations are under one mutex; see the file
/// comment for why this beats a lock-free deque here.
class GreyQueue {
public:
  void push(GreySegment &&Seg) {
    if (Seg.empty())
      return;
    std::lock_guard<std::mutex> Lock(M);
    Segments.push_back(std::move(Seg));
  }
  bool tryPop(GreySegment &Out) {
    std::lock_guard<std::mutex> Lock(M);
    if (Segments.empty())
      return false;
    Out = std::move(Segments.back());
    Segments.pop_back();
    return true;
  }
  bool empty() const {
    std::lock_guard<std::mutex> Lock(M);
    return Segments.empty();
  }

private:
  mutable std::mutex M;
  std::vector<GreySegment> Segments;
};

/// Termination detection for one parallel drain: a count of workers that
/// may still produce work. Every worker-body execution decrements exactly
/// once (on going idle or on budget exhaustion), so `allIdle` implies
/// every worker has both started and drained — which is what makes the
/// re-offer protocol in the markers' worker loops sound.
class TerminationGate {
public:
  void reset(unsigned Workers) { Active.store(Workers); }
  void goIdle() { Active.fetch_sub(1); }
  void reOffer() { Active.fetch_add(1); }
  bool allIdle() const { return Active.load() == 0; }

private:
  std::atomic<unsigned> Active{0};
};

} // namespace satb

#endif // SATB_GC_PARALLELMARK_H
