//===- interp/Safepoint.h - Stop-the-world handshake -----------*- C++ -*-===//
///
/// \file
/// The safepoint protocol the multi-mutator driver uses for real
/// stop-the-world pauses. Mutator engines poll one atomic flag at
/// translated Safepoint instructions (loop back-edges and call sites, see
/// jit/FastTranslate.cpp); when a coordinator requests a pause every
/// mutator parks, the coordinator runs the pause work (flush SATB
/// buffers, scan roots, begin/finish marking) with every thread stopped,
/// then releases them.
///
/// The hot path is exactly one relaxed load + branch per poll site. Both
/// sides of the handshake spin briefly before they block, because a
/// futex sleep and wake-up cost microseconds on each side of every pause
/// while a spinning side sees the other's progress at once: a parked
/// mutator spins on the release generation, the coordinator on the
/// headcount. The ordering comes from release/acquire on those two
/// atomics (and from the mutex on the blocking path): every mutator's
/// increment of Parked (or Exited) is a release that the coordinator's
/// acquire load of the headcount observes, so everything a mutator did
/// before parking happens-before the pause work; the pause work is
/// followed by a release bump of Generation that each parked mutator
/// acquires before it runs again. That is why the marking flags
/// themselves can be relaxed. The pause work runs without the mutex held.
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
/// A generation counter distinguishes consecutive pauses, and the release
/// resets the headcount to zero, so a mutator released from pause N
/// cannot satisfy pause N+1's headcount without actually parking again.
///
/// A parked or exited mutator has flushed its frame (IP/SP written back),
/// so the pause work may read every frame for roots.
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
#include <thread>

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
    Registered.fetch_add(1, std::memory_order_release);
  }

  /// A mutator that finished (or trapped) counts as permanently parked.
  void markExited() {
    bool Wake = false;
    {
      std::lock_guard<std::mutex> Lock(M);
      Exited.fetch_add(1, std::memory_order_release);
      Wake = CoordinatorAsleep;
    }
    if (Wake)
      CoordinatorCV.notify_one();
  }

  /// The flag mutator engines cache and poll (one relaxed load + branch).
  const std::atomic<bool> *flag() const { return &Requested; }
  bool requested() const { return Requested.load(std::memory_order_relaxed); }

  /// Called by a mutator whose poll observed the flag. Blocks until the
  /// coordinator finishes the pause. Returns immediately if the pause
  /// already ended (a stale flag read).
  void park() {
    uint64_t Gen = 0;
    bool Wake = false;
    {
      std::lock_guard<std::mutex> Lock(M);
      if (!ReqLocked)
        return;
      Gen = Generation.load(std::memory_order_relaxed);
      Parked.fetch_add(1, std::memory_order_release);
      Wake = CoordinatorAsleep;
    }
    if (Wake)
      CoordinatorCV.notify_one();
    auto Released = [&] {
      return Generation.load(std::memory_order_acquire) != Gen;
    };
    if (spinUntil(Released))
      return;
    std::unique_lock<std::mutex> Lock(M);
    ++MutatorsAsleep;
    ++ParkBlocks;
    MutatorCV.wait(Lock, Released);
    --MutatorsAsleep;
  }

  /// Requests a pause, waits until every registered mutator is parked or
  /// exited, runs \p F with the world stopped, then releases everyone.
  /// Records time-to-stop and pause duration into the attached
  /// SafepointPauseStats, if any.
  template <typename Fn> void stopTheWorld(Fn &&F) {
    Stopwatch Timer;
    {
      std::lock_guard<std::mutex> Lock(M);
      ReqLocked = true;
      Requested.store(true, std::memory_order_relaxed);
    }
    auto Stopped = [&] {
      return Parked.load(std::memory_order_acquire) +
                 Exited.load(std::memory_order_acquire) ==
             Registered.load(std::memory_order_acquire);
    };
    if (!spinUntil(Stopped)) {
      std::unique_lock<std::mutex> Lock(M);
      CoordinatorAsleep = true;
      ++StopBlocks;
      CoordinatorCV.wait(Lock, Stopped);
      CoordinatorAsleep = false;
    }
    double StoppedUs = Timer.elapsedUs();
    F();
    if (Pauses) {
      Pauses->TimeToStopNs.record(static_cast<uint64_t>(StoppedUs * 1000.0));
      Pauses->PauseNs.record(
          static_cast<uint64_t>((Timer.elapsedUs() - StoppedUs) * 1000.0));
    }
    bool Wake = false;
    {
      std::lock_guard<std::mutex> Lock(M);
      ReqLocked = false;
      Requested.store(false, std::memory_order_relaxed);
      // A released mutator counts toward the next pause only by parking
      // again.
      Parked.store(0, std::memory_order_relaxed);
      Generation.fetch_add(1, std::memory_order_release);
      Wake = MutatorsAsleep != 0;
    }
    if (Wake)
      MutatorCV.notify_all();
  }

  /// Attach coordinator-side pause accounting (nullptr detaches). Only
  /// the thread calling stopTheWorld may touch \p P afterwards.
  void setPauseStats(SafepointPauseStats *P) { Pauses = P; }

  size_t exitedCount() const { return Exited.load(std::memory_order_acquire); }

  /// How often each side outlasted its spin and took the blocking path:
  /// parks not released within it, and stopTheWorld calls whose headcount
  /// did not complete within it.
  uint64_t parkBlocks() const {
    std::lock_guard<std::mutex> Lock(M);
    return ParkBlocks;
  }
  uint64_t stopBlocks() const {
    std::lock_guard<std::mutex> Lock(M);
    return StopBlocks;
  }

private:
  /// Spin bounds, sized to cover a typical pause (50-100 us of pause work
  /// on server_gen) so that neither side sleeps in the common case:
  /// first SpinPauses busy-wait hints, then SpinYields scheduler yields.
  /// On a loaded host the awaited thread may need this core, so past
  /// both the waiter blocks.
  static constexpr unsigned SpinPauses = 4096;
  static constexpr unsigned SpinYields = 256;

  static void cpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield");
#endif
  }

  /// Polls \p Done within the spin bounds; false means block.
  template <typename Pred> static bool spinUntil(Pred Done) {
    for (unsigned I = 0; I != SpinPauses; ++I) {
      if (Done())
        return true;
      cpuRelax();
    }
    for (unsigned I = 0; I != SpinYields; ++I) {
      if (Done())
        return true;
      std::this_thread::yield();
    }
    return false;
  }

  /// Guards the request state and the sleepers. Every change to a count a
  /// sleeper's predicate reads is made under it, so no wake-up is lost.
  mutable std::mutex M;
  std::condition_variable CoordinatorCV; ///< mutators -> coordinator
  std::condition_variable MutatorCV;     ///< coordinator -> mutators
  std::atomic<bool> Requested{false};
  bool ReqLocked = false; ///< Requested, but under M (no stale reads)
  bool CoordinatorAsleep = false;
  size_t MutatorsAsleep = 0;
  uint64_t ParkBlocks = 0;
  uint64_t StopBlocks = 0;
  std::atomic<uint64_t> Generation{0};
  std::atomic<size_t> Registered{0};
  std::atomic<size_t> Parked{0};
  std::atomic<size_t> Exited{0};
  SafepointPauseStats *Pauses = nullptr;
};

} // namespace satb

#endif // SATB_INTERP_SAFEPOINT_H
