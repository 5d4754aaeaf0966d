//===- tests/safepoint_test.cpp - Stop-the-world handshake ----------------===//
///
/// \file
/// Unit tests of SafepointCoordinator (interp/Safepoint.h) with plain
/// std::thread mutators that poll requested() and call park(), no engine:
///
///  - the world is stopped: no mutator makes progress inside the pause
///    work, over thousands of back-to-back pauses;
///  - no stale headcount: in pause k every mutator has parked exactly k
///    times, so a mutator released from one pause never counts toward the
///    next without parking again;
///  - blocking fallback: pauses longer than the spin bounds make both
///    sides block, and every mutator still resumes;
///  - a mutator that exits while a pause is requested completes the
///    headcount.
///
//===----------------------------------------------------------------------===//

#include "interp/Safepoint.h"

#include "gtest/gtest.h"

#include <array>
#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

using namespace satb;

namespace {

constexpr unsigned NumMutators = 3;
constexpr unsigned BackToBackPauses = 2000;

/// A coordinator and NumMutators mutator threads. The test thread is the
/// coordinator; each mutator runs a body and counts as exited when it
/// returns.
struct World {
  SafepointCoordinator SC;
  std::atomic<bool> Stop{false};
  std::array<std::atomic<uint64_t>, NumMutators> Progress{};
  std::array<std::atomic<uint64_t>, NumMutators> Parks{};
  std::vector<std::thread> Threads;

  /// Registers every mutator, then starts thread T running Body(T).
  template <typename BodyFn> void start(BodyFn Body) {
    for (unsigned T = 0; T != NumMutators; ++T)
      SC.registerMutator();
    for (unsigned T = 0; T != NumMutators; ++T)
      Threads.emplace_back([this, Body, T] {
        Body(T);
        SC.markExited();
      });
  }

  /// One poll site: park if a pause is requested, then one unit of work.
  void poll(unsigned T) {
    if (SC.requested()) {
      Parks[T].fetch_add(1, std::memory_order_relaxed);
      SC.park();
    }
    Progress[T].fetch_add(1, std::memory_order_relaxed);
  }

  void pollUntilStopped(unsigned T) {
    while (!Stop.load(std::memory_order_relaxed))
      poll(T);
  }

  std::array<uint64_t, NumMutators> progress() const {
    std::array<uint64_t, NumMutators> P{};
    for (unsigned T = 0; T != NumMutators; ++T)
      P[T] = Progress[T].load(std::memory_order_relaxed);
    return P;
  }

  ~World() {
    Stop.store(true, std::memory_order_relaxed);
    for (std::thread &Th : Threads)
      Th.join();
  }
};

TEST(Safepoint, WorldIsStoppedInsideThePause) {
  World W;
  W.start([&](unsigned T) { W.pollUntilStopped(T); });
  uint64_t Moved = 0;
  for (unsigned K = 0; K != BackToBackPauses; ++K)
    W.SC.stopTheWorld([&] {
      auto Before = W.progress();
      for (int I = 0; I != 16; ++I)
        std::this_thread::yield();
      auto After = W.progress();
      for (unsigned T = 0; T != NumMutators; ++T)
        Moved += After[T] != Before[T];
    });
  EXPECT_EQ(Moved, 0u);
  for (unsigned T = 0; T != NumMutators; ++T)
    EXPECT_GT(W.Progress[T].load(), 0u) << "mutator " << T << " never ran";
}

TEST(Safepoint, InPauseKEveryMutatorHasParkedKTimes) {
  World W;
  W.start([&](unsigned T) { W.pollUntilStopped(T); });
  uint64_t Stale = 0;
  for (uint64_t K = 1; K <= BackToBackPauses; ++K)
    W.SC.stopTheWorld([&] {
      for (unsigned T = 0; T != NumMutators; ++T)
        Stale += W.Parks[T].load(std::memory_order_relaxed) != K;
    });
  EXPECT_EQ(Stale, 0u);
}

TEST(Safepoint, BlockingFallbackResumesEveryMutator) {
  // A 5 ms pause outlasts the mutators' spin, so they block; mutator 0
  // sleeps 5 ms between polls, so the coordinator's headcount outlasts
  // its spin too and it blocks.
  World W;
  W.start([&](unsigned T) {
    while (!W.Stop.load(std::memory_order_relaxed)) {
      W.poll(T);
      if (T == 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });
  // On a loaded host one side may still catch the other within its spin,
  // so pause until both have blocked (the cap only bounds a failure).
  for (unsigned K = 0;
       K != 200 && (W.SC.parkBlocks() == 0 || W.SC.stopBlocks() == 0); ++K) {
    std::array<uint64_t, NumMutators> InPause{};
    W.SC.stopTheWorld([&] {
      InPause = W.progress();
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    });
    auto Deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
    for (unsigned T = 0; T != NumMutators; ++T) {
      while (W.Progress[T].load() == InPause[T] &&
             std::chrono::steady_clock::now() < Deadline)
        std::this_thread::yield();
      ASSERT_GT(W.Progress[T].load(), InPause[T])
          << "mutator " << T << " not resumed after pause " << K;
    }
  }
  EXPECT_GT(W.SC.parkBlocks(), 0u);
  EXPECT_GT(W.SC.stopBlocks(), 0u);
}

TEST(Safepoint, ExitDuringRequestCompletesTheHeadcount) {
  // Mutator 2 never parks: once a pause is requested it waits past the
  // coordinator's spin, then exits. Its exit must complete the headcount
  // of the pause already requested (and wake the sleeping coordinator).
  World W;
  W.start([&](unsigned T) {
    if (T != 2)
      return W.pollUntilStopped(T);
    while (!W.SC.requested())
      std::this_thread::yield();
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  });
  size_t ExitedInPause = 0;
  std::array<uint64_t, NumMutators> ParksInPause{};
  W.SC.stopTheWorld([&] {
    ExitedInPause = W.SC.exitedCount();
    for (unsigned T = 0; T != NumMutators; ++T)
      ParksInPause[T] = W.Parks[T].load(std::memory_order_relaxed);
  });
  EXPECT_EQ(ExitedInPause, 1u);
  EXPECT_EQ(ParksInPause[0], 1u);
  EXPECT_EQ(ParksInPause[1], 1u);
  EXPECT_EQ(ParksInPause[2], 0u);
  // The exited mutator keeps counting toward every later headcount.
  uint64_t Stale = 0;
  for (uint64_t K = 2; K <= 100; ++K)
    W.SC.stopTheWorld([&] {
      Stale += W.Parks[0].load(std::memory_order_relaxed) != K;
      Stale += W.Parks[1].load(std::memory_order_relaxed) != K;
    });
  EXPECT_EQ(Stale, 0u);
}

} // namespace
