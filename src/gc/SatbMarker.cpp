//===- gc/SatbMarker.cpp --------------------------------------------------===//

#include "gc/SatbMarker.h"

using namespace satb;

void SatbMarker::beginMarking(const std::vector<ObjRef> &MutatorRoots) {
  H.setAllocateMarked(true);
  // Root snapshot: mutator stacks + statics. Roots are marked immediately
  // (they are trivially part of the snapshot).
  startMarking(MutatorRoots);
}

bool SatbMarker::popBuffer(std::vector<ObjRef> &Out) {
  std::lock_guard<std::mutex> Lock(QueueMutex);
  if (CompletedBuffers.empty())
    return false;
  Out = std::move(CompletedBuffers.back());
  CompletedBuffers.pop_back();
  return true;
}

bool SatbMarker::refill(Worker &W) {
  std::vector<ObjRef> Buf;
  if (!popBuffer(Buf))
    return false;
  for (ObjRef Pre : Buf)
    W.claim(Pre);
  ++W.Work;
  return true;
}

bool SatbMarker::hasPendingSource() {
  std::lock_guard<std::mutex> Lock(QueueMutex);
  return !CompletedBuffers.empty();
}

void SatbMarker::logPreValue(ObjRef Pre) {
  assert(Pre != NullRef && "inline barrier filters null pre-values");
  ++Stats.LoggedPreValues;
  CurrentBuffer.push_back(Pre);
  if (CurrentBuffer.size() >= BufferCapacity)
    flushCurrentBuffer();
}

void SatbMarker::flushCurrentBuffer() {
  if (CurrentBuffer.empty())
    return;
  if (isActive()) {
    std::lock_guard<std::mutex> Lock(QueueMutex);
    ++Stats.BuffersFlushed;
    CompletedBuffers.push_back(std::move(CurrentBuffer));
  } else {
    // Always-log mode outside a cycle: recycle the buffer unread.
    ++Stats.BuffersDiscarded;
  }
  CurrentBuffer.clear();
}

void SatbMarker::flushBuffer(std::vector<ObjRef> &&Buf) {
  if (Buf.empty())
    return;
  std::lock_guard<std::mutex> Lock(QueueMutex);
  // Count at hand-over time (not per logPreValue call) so per-thread
  // shards need no separate counter merge: the queue lock makes the total
  // exact regardless of flush interleaving.
  Stats.LoggedPreValues += Buf.size();
  if (isActive()) {
    ++Stats.BuffersFlushed;
    CompletedBuffers.push_back(std::move(Buf));
  } else {
    ++Stats.BuffersDiscarded;
  }
}

bool SatbMarker::enterRearrange(ObjRef Arr) {
  if (!isActive() || Arr == NullRef)
    return false;
  HeapObject *Obj = H.objectOrNull(Arr);
  if (!Obj)
    return false;
  std::lock_guard<std::mutex> Lock(RearrangeMutex);
  ++Stats.RearrangesEntered;
  ActiveRearranges[Arr] = loadTracingRelaxed(*Obj, H.traceEpoch());
  return true;
}

void SatbMarker::exitRearrange(ObjRef Arr) {
  std::lock_guard<std::mutex> Lock(RearrangeMutex);
  auto It = ActiveRearranges.find(Arr);
  if (It == ActiveRearranges.end())
    return;
  TraceState AtEnter = It->second;
  ActiveRearranges.erase(It);
  if (!isActive())
    return; // finishMarking already retraced the still-active set
  HeapObject *Obj = H.objectOrNull(Arr);
  TraceState Now =
      Obj ? loadTracingRelaxed(*Obj, H.traceEpoch()) : TraceState::Traced;
  // Safe cases: the marker finished with the array before the loop ran
  // (Traced -> Traced: it saw the pre-loop contents), or it never started
  // (Untraced -> Untraced: it will see the post-loop contents, plus the
  // dropped element logged at enter). Anything else may have interleaved.
  bool Clean = (AtEnter == TraceState::Traced && Now == TraceState::Traced) ||
               (AtEnter == TraceState::Untraced &&
                Now == TraceState::Untraced);
  if (Clean) {
    ++Stats.RearrangesClean;
    return;
  }
  ++Stats.RearrangeRetraces;
  RetraceList.push_back(Arr);
}

size_t SatbMarker::finishMarking() {
  assert(isActive() && "finishMarking outside a marking cycle");
  // The pause: every mutator is stopped (parked at a safepoint in the
  // multi-mutator driver, or the caller is sequential) with its context
  // buffer already flushed; drain everything to completion.
  size_t Pause = 0;
  flushCurrentBuffer();
  // Rearrangement loops still in flight, plus every array whose loop
  // overlapped the marker, are rescanned conservatively inside the pause:
  // each still-live one goes back on the grey stack for the drain.
  {
    std::lock_guard<std::mutex> Lock(RearrangeMutex);
    for (const auto &[Arr, State] : ActiveRearranges) {
      (void)State;
      ++Stats.RearrangeRetraces;
      RetraceList.push_back(Arr);
    }
    ActiveRearranges.clear();
    for (ObjRef Arr : RetraceList)
      if (H.objectOrNull(Arr))
        MarkStack.push_back(Arr);
    RetraceList.clear();
  }
  drainAll(Pause);
  H.setAllocateMarked(false);
  return stopMarking(Pause);
}
