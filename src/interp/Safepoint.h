//===- interp/Safepoint.h - Stop-the-world handshake -----------*- C++ -*-===//
///
/// \file
/// The safepoint protocol the multi-mutator driver uses for real
/// stop-the-world pauses. Mutator engines poll one atomic flag at
/// translated Safepoint instructions (loop back-edges and call sites, see
/// jit/FastTranslate.cpp); when a coordinator requests a pause every
/// mutator parks on the coordinator's mutex, the coordinator runs the
/// pause work (flush SATB buffers, scan roots, begin/finish marking) with
/// every thread stopped, then releases them.
///
/// The hot path is exactly one relaxed load + branch per poll site. All
/// ordering comes from the park mutex: everything a mutator did before
/// parking happens-before the pause work, and the pause work
/// happens-before anything the mutator does after release — which is why
/// the marking flags themselves can be relaxed.
///
/// Where a mutator may park: only at a translated poll, or between
/// requests (before the first instruction after FastInterp::start). The
/// driver steps an engine in fuel quanta that can end at any instruction,
/// so it parks only when FastInterp::atSafepoint() says the last quantum
/// stopped at a poll; otherwise it keeps stepping until the next poll.
/// The compiler relies on this: the young-target proof elides the
/// remembered-set barrier on a store into a freshly allocated object,
/// and only polls, calls and further allocations end that freshness; a
/// minor GC parked anywhere else could promote the object in between.
///
/// A generation counter distinguishes consecutive pauses so a mutator
/// released from pause N cannot be confused into satisfying pause N+1's
/// headcount without actually parking again.
///
/// Version invalidation rules (tiered execution, DESIGN.md): a parked or
/// exited mutator has flushed its frame (IP/SP written back), so the
/// pause work may retarget frames onto other versions of their methods —
/// this is where MethodVersionTable::invalidateYoungSpecs runs, inside
/// the same stopTheWorld that serves a minor collection. Outside a
/// pause, versions are only ever invalidated by the owning engine itself
/// (guard-failure deopt, or the lazy epoch check at its own invoke
/// sites), never by another thread: tables are per-engine and the
/// dynamic guards keep stale-but-still-executing versions sound until
/// one of those points is reached.
///
//===----------------------------------------------------------------------===//

#ifndef SATB_INTERP_SAFEPOINT_H
#define SATB_INTERP_SAFEPOINT_H

#include "support/Histogram.h"
#include "support/Stopwatch.h"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>

namespace satb {

/// Coordinator-side stop-the-world accounting, measured at the handshake
/// (DESIGN.md "Server workload & pacer"): TimeToStopNs is
/// request-to-all-parked — the time-to-safepoint the translated poll
/// sites bound — and PauseNs is all-parked-to-release, the window the
/// pause work itself owns. Both are recorded by the one coordinator
/// thread inside stopTheWorld, so the histograms need no synchronization;
/// the mutator-observed pause (its park() wait) is timed by the driver
/// per mutator and overlaps both components.
struct SafepointPauseStats {
  Histogram TimeToStopNs;
  Histogram PauseNs;
};

class SafepointCoordinator {
public:
  /// Every mutator thread registers before it starts executing; the
  /// stop-the-world headcount waits for Parked + Exited == Registered.
  void registerMutator() {
    std::lock_guard<std::mutex> Lock(M);
    ++Registered;
  }

  /// A mutator that finished (or trapped) counts as permanently parked.
  void markExited() {
    {
      std::lock_guard<std::mutex> Lock(M);
      ++Exited;
    }
    CoordinatorCV.notify_all();
  }

  /// The flag mutator engines cache and poll (one relaxed load + branch).
  const std::atomic<bool> *flag() const { return &Requested; }
  bool requested() const { return Requested.load(std::memory_order_relaxed); }

  /// Called by a mutator whose poll observed the flag. Blocks until the
  /// coordinator finishes the pause. Returns immediately if the pause
  /// already ended (a stale flag read).
  void park() {
    std::unique_lock<std::mutex> Lock(M);
    if (!ReqLocked)
      return;
    uint64_t Gen = Generation;
    ++Parked;
    CoordinatorCV.notify_all();
    MutatorCV.wait(Lock, [&] { return Generation != Gen; });
    --Parked;
  }

  /// Requests a pause, waits until every registered mutator is parked or
  /// exited, runs \p F with the world stopped, then releases everyone.
  /// Records time-to-stop and pause duration into the attached
  /// SafepointPauseStats, if any.
  template <typename Fn> void stopTheWorld(Fn &&F) {
    Stopwatch Timer;
    std::unique_lock<std::mutex> Lock(M);
    ReqLocked = true;
    Requested.store(true, std::memory_order_relaxed);
    CoordinatorCV.wait(Lock, [&] { return Parked + Exited == Registered; });
    double StoppedUs = Timer.elapsedUs();
    F();
    if (Pauses) {
      Pauses->TimeToStopNs.record(static_cast<uint64_t>(StoppedUs * 1000.0));
      Pauses->PauseNs.record(
          static_cast<uint64_t>((Timer.elapsedUs() - StoppedUs) * 1000.0));
    }
    ReqLocked = false;
    Requested.store(false, std::memory_order_relaxed);
    ++Generation;
    Lock.unlock();
    MutatorCV.notify_all();
  }

  /// Attach coordinator-side pause accounting (nullptr detaches). Only
  /// the thread calling stopTheWorld may touch \p P afterwards.
  void setPauseStats(SafepointPauseStats *P) { Pauses = P; }

  size_t exitedCount() const {
    std::lock_guard<std::mutex> Lock(M);
    return Exited;
  }

private:
  mutable std::mutex M;
  std::condition_variable CoordinatorCV; ///< mutators -> coordinator
  std::condition_variable MutatorCV;     ///< coordinator -> mutators
  std::atomic<bool> Requested{false};
  bool ReqLocked = false; ///< Requested, but under M (no stale reads)
  uint64_t Generation = 0;
  size_t Registered = 0;
  size_t Parked = 0;
  size_t Exited = 0;
  SafepointPauseStats *Pauses = nullptr;
};

} // namespace satb

#endif // SATB_INTERP_SAFEPOINT_H
