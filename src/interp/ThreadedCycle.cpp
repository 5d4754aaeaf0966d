//===- interp/ThreadedCycle.cpp -------------------------------------------===//

#include "interp/ThreadedCycle.h"

#include "interp/FastInterp.h"
#include "interp/Safepoint.h"
#include "jit/FastCode.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>

using namespace satb;

MultiMutatorResult satb::runWithConcurrentMutators(
    unsigned Mutators, const Program &P, const CompiledProgram &CP,
    MethodId Entry, const std::vector<int64_t> &IntArgs,
    const MultiMutatorConfig &Cfg) {
  assert(Mutators > 0 && "need at least one mutator");
  assert(!CP.Options.EnableArrayRearrange &&
         "the rearrangement protocol is single-mutator-only");
  MultiMutatorResult R;
  const bool UseSatb = Cfg.Marker == MultiMarkerKind::Satb;

  TranslateOptions TO;
  TO.InsertSafepoints = true;
  TO.Fuse = Cfg.Fuse;
  // One translation, shared read-only by every mutator.
  const FastProgram FP = translateProgram(P, CP, TO);

  Heap H(P);
  SatbMarker Satb(H, Cfg.SatbBufferCap);
  IncrementalUpdateMarker Inc(H);
  ConcurrentMarker &Marker =
      UseSatb ? static_cast<ConcurrentMarker &>(Satb) : Inc;
  SafepointCoordinator SC;
  SafepointPauseStats PauseStats;
  SC.setPauseStats(&PauseStats);
  // The cycle trigger: the pacer, or the scripted one-shot. DebugTraceCounts
  // pins the one-shot (the mark-once instrumentation is per-cycle).
  const bool UsePacer = Cfg.Pacer.Enabled && !Cfg.DebugTraceCounts;
  Pacer Pace(H, Cfg.Pacer);

  // Mark worker pool: the coordinator thread participates as one worker,
  // so a pool of MarkThreads gives exactly that many marking threads.
  std::unique_ptr<ThreadPool> MarkPool;
  if (Cfg.MarkThreads > 1) {
    MarkPool = std::make_unique<ThreadPool>(Cfg.MarkThreads);
    Marker.setMarkThreads(Cfg.MarkThreads, MarkPool.get());
  }
  if (Cfg.DebugTraceCounts)
    Marker.enableTraceCounts(Cfg.HeapCapacityRefs);

  H.enterMultiMutator(Cfg.HeapCapacityRefs);

  // Generational layer: nursery TLAB chunks for every mutator, with the
  // coordinator serving stop-the-world minor collections on request. The
  // remembered set is only maintained by the generational barrier; any
  // other barrier mode falls back to wholesale promotion (sound, less
  // precise).
  MinorGC Gen(H);
  if (Cfg.EnableNursery) {
    Heap::NurseryConfig NC;
    NC.NurseryBytes = Cfg.NurseryBytes;
    NC.PretenureBytes = Cfg.PretenureBytes;
    H.enableNursery(NC);
    Gen.attachMarker(&Marker);
    Gen.ensureCapacity(Cfg.HeapCapacityRefs);
    Gen.setRemSetValid(CP.Options.Barrier == BarrierMode::Generational);
  }

  std::vector<std::unique_ptr<FastInterp>> Engines;
  Engines.reserve(Mutators);
  for (unsigned T = 0; T != Mutators; ++T) {
    auto E = std::make_unique<FastInterp>(FP, CP, H);
    if (UseSatb)
      E->attachSatb(&Satb);
    else
      E->attachIncUpdate(&Inc);
    if (Cfg.EnableNursery)
      E->attachGen(&Gen);
    E->context().enterMultiMutator(SC.flag(), Cfg.SatbBufferCap);
    SC.registerMutator();
    Engines.push_back(std::move(E));
  }

  // Every engine's frames: the root set of each pause. Valid only while
  // the engines are parked or exited (frames flushed).
  std::vector<ObjRef> Roots, EngineRoots;
  auto CollectRoots = [&] {
    Roots.clear();
    for (auto &E : Engines) {
      E->collectRoots(EngineRoots);
      Roots.insert(Roots.end(), EngineRoots.begin(), EngineRoots.end());
    }
  };

  // Every pause starts by publishing each mutator's pending TLAB counts,
  // so what it reads (the pacer's counters) and frees is exact.
  auto StopTheWorld = [&](auto &&Fn) {
    SC.stopTheWorld([&] {
      for (auto &E : Engines)
        E->context().publishAllocations();
      Fn();
    });
  };

  // Stop-the-world minor collection service: a mutator whose nursery
  // chunk refill failed raised the heap's request flag (and fell back to
  // old-space allocation, so it never blocks). Roots are every engine's
  // frames; afterwards each context's TLAB is dropped if it pointed into
  // the recycled nursery buffer.
  auto ServeMinorGC = [&] {
    if (!Cfg.EnableNursery)
      return;
    // Pacer mode: raise the request proactively once the nursery is
    // NurseryFillPct carved, so the collection runs while mutators still
    // have headroom instead of after a refill already failed.
    if (UsePacer && !H.minorGCRequested() && Pace.shouldRequestMinorGC())
      H.requestMinorGC();
    if (!H.minorGCRequested())
      return;
    StopTheWorld([&] {
      if (!H.minorGCRequested())
        return; // raced with a collection already served
      CollectRoots();
      Gen.collect(Roots);
      for (auto &E : Engines)
        E->context().invalidateNurseryTlab();
    });
  };

  // Per-mutator histogram shards, merged after the join (same discipline
  // as the BarrierStats shards: no synchronization while threads run).
  std::vector<Histogram> ParkShards(Mutators);
  std::vector<Histogram> RequestShards(Mutators);
  R.RequestsCompleted.assign(Mutators, 0);

  std::vector<std::thread> Threads;
  Threads.reserve(Mutators);
  for (unsigned T = 0; T != Mutators; ++T) {
    Threads.emplace_back([&, T] {
      FastInterp &E = *Engines[T];
      uint64_t Remaining = Cfg.StepLimit;
      auto Drive = [&] {
        while (E.status() == RunStatus::Running && Remaining > 0) {
          // Park only where the engine stopped at a poll (or has not yet
          // run): a quantum can end anywhere, e.g. between a New and a
          // store whose barrier the compiler elided because the target is
          // young, and a minor GC there would promote that target. A
          // quantum end between polls just keeps stepping to the next one.
          if (SC.requested() && E.atSafepoint()) {
            Stopwatch ParkTimer;
            SC.park();
            ParkShards[T].record(
                static_cast<uint64_t>(ParkTimer.elapsedUs() * 1000.0));
          }
          uint64_t Before = E.stepsExecuted();
          E.step(std::min<uint64_t>(Cfg.PollQuantum, Remaining));
          Remaining -=
              std::min<uint64_t>(E.stepsExecuted() - Before, Remaining);
        }
      };
      if (Cfg.Requests == 0) {
        E.start(Entry, IntArgs);
        Drive();
      } else {
        // Server mode: one Entry invocation per request. start() resets
        // frames but accumulates stepsExecuted, so Remaining keeps
        // bounding the mutator's total work.
        for (uint64_t Q = 0; Q != Cfg.Requests && Remaining > 0; ++Q) {
          Stopwatch RequestTimer;
          E.start(Entry, IntArgs);
          Drive();
          if (E.status() != RunStatus::Finished)
            break; // trap or step-limit: Statuses[T] reports it
          RequestShards[T].record(
              static_cast<uint64_t>(RequestTimer.elapsedUs() * 1000.0));
          ++R.RequestsCompleted[T];
        }
      }
      // Hand over any in-flight SATB buffer before counting as exited; the
      // coordinator is still waiting on this thread's headcount, so the
      // flush cannot race a stop-the-world flush of the same context.
      E.context().flush();
      E.context().publishAllocations();
      SC.markExited();
    });
  }

  // The two cycle edges, each a stop-the-world pause. CycleEdges places
  // the marker's oracle; one bad cycle fails the run.
  CycleEdges Edges(Marker, H, R);
  auto BeginPause = [&] {
    StopTheWorld([&] {
      CollectRoots();
      Edges.begin(Roots);
    });
  };
  // Final STW: flush every context, terminate marking, check the oracle
  // and sweep — all inside the pause.
  auto FinishPause = [&] {
    StopTheWorld([&] {
      for (auto &E : Engines)
        E->context().flush();
      Edges.finish([&]() -> const std::vector<ObjRef> & {
        CollectRoots();
        return Roots;
      });
      if (Cfg.DebugTraceCounts) {
        R.TraceCounts.resize(H.maxRef() + 1, 0);
        for (ObjRef Ref = 1; Ref <= H.maxRef(); ++Ref)
          R.TraceCounts[Ref] = Marker.traceCount(Ref);
        R.SnapshotSet = Edges.oracle().toBits(H.maxRef() + 1);
      }
    });
    ++R.Cycles;
  };

  // --- The coordinator loop -------------------------------------------------
  //
  // The trigger policy decides when a cycle begins: the scripted trigger
  // fires once, when the mutators have allocated WarmupAllocs objects or
  // all exited; the pacer fires whenever allocation pressure asks. Between
  // polls the coordinator marks concurrently; three idle marking rounds in
  // a row mean the marker is waiting on mutator activity it may never get,
  // so the cycle ends with the termination pause. Mutators never wait on
  // the trigger; they only stop at the handshakes themselves.
  bool InCycle = false;
  bool Triggered = false;
  size_t IdleStreak = 0;
  auto ShouldStartCycle = [&] {
    if (UsePacer)
      return Pace.shouldStartCycle();
    return !Triggered && (H.numAllocated() >= Cfg.WarmupAllocs ||
                          SC.exitedCount() == Mutators);
  };
  auto BeginCycle = [&] {
    BeginPause();
    if (UsePacer)
      Pace.noteCycleStart();
    InCycle = Triggered = true;
    IdleStreak = 0;
  };
  auto FinishCycle = [&] {
    FinishPause();
    if (UsePacer)
      Pace.noteCycleEnd();
    InCycle = false;
  };

  while (SC.exitedCount() < Mutators) {
    ServeMinorGC();
    if (InCycle) {
      if (Marker.markStep(Cfg.MarkerQuantum)) {
        if (++IdleStreak >= 3)
          FinishCycle();
        else
          std::this_thread::yield();
      } else {
        IdleStreak = 0;
      }
    } else if (ShouldStartCycle()) {
      BeginCycle();
    } else {
      std::this_thread::yield();
    }
  }
  // Every mutator exited: terminate an in-flight cycle against the
  // quiesced heap, then run what accrued too late to be scheduled while
  // the mutators ran — on a busy (or single-CPU) host a short run can
  // finish inside one scheduler slice, before the coordinator's first
  // poll. A trigger that still fires owes a cycle (the scripted one always
  // does if it has not fired yet); a raised minor-GC request still owes a
  // nursery sweep. Both run exactly as they would have mid-run.
  ServeMinorGC();
  if (InCycle) {
    FinishCycle();
  } else if (ShouldStartCycle()) {
    BeginCycle();
    while (!Marker.markStep(Cfg.MarkerQuantum))
      ;
    FinishCycle();
  }

  for (std::thread &T : Threads)
    T.join();

  R.Merged.init(CP);
  R.Statuses.reserve(Mutators);
  R.Traps.reserve(Mutators);
  R.Steps.reserve(Mutators);
  R.Shards.reserve(Mutators);
  for (auto &E : Engines) {
    E->context().exitMultiMutator();
    R.Statuses.push_back(E->status());
    R.Traps.push_back(E->trap());
    R.Steps.push_back(E->stepsExecuted());
    R.Shards.push_back(E->stats());
    R.Merged.merge(E->stats());
  }
  R.Violations = R.Merged.summarize().Violations;
  R.LoggedPreValues = Satb.stats().LoggedPreValues;
  for (unsigned T = 0; T != Mutators; ++T) {
    R.MutatorPauseNs.merge(ParkShards[T]);
    R.RequestNs.merge(RequestShards[T]);
    R.TotalRequests += R.RequestsCompleted[T];
  }
  R.Pacing = Pace.stats();
  SC.setPauseStats(nullptr);
  R.Safepoint = PauseStats;
  if (Cfg.EnableNursery) {
    // Empty the nursery with one last collection (every thread has
    // joined; the marker is idle, so survivors promote precisely when
    // the remembered set is valid) — no young object may outlive the
    // nursery buffer.
    CollectRoots();
    Gen.collect(Roots);
    H.disableNursery();
  }
  R.Minor = Gen.stats();
  H.exitMultiMutator();
  return R;
}
