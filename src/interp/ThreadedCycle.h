//===- interp/ThreadedCycle.h - Real-thread concurrent marking -*- C++ -*-===//
///
/// \file
/// Concurrent cycles on real OS threads, the setting the paper targets
/// ("garbage collection and the user program execute simultaneously",
/// Section 1). runWithConcurrentMutators runs N FastInterp mutators
/// against one heap, and either marker, with *no* coarse lock. Each mutator
/// runs through its MutatorContext (TLAB allocation, private SATB buffer,
/// per-thread BarrierStats shard) and polls a safepoint flag at
/// translated poll sites. The coordinator thread uses real stop-the-world
/// handshakes (SafepointCoordinator) for the cycle edges (CycleEdges, with
/// the marker's oracle checked inside the final pause) and for minor
/// collections, and marks concurrently in between. One coordinator loop
/// carries both trigger policies: the scripted trigger fires once, the
/// pacer (gc/Pacer.h) fires from allocation pressure. See DESIGN.md
/// "Concurrent cycle" and "Multi-mutator runtime" for the memory-model
/// contract.
///
/// These runs are OS-scheduled; runWithConcurrentCycle (Interpreter.h) is
/// the deterministic single-mutator driver.
///
/// The Section 4.3 array-rearrangement protocol is single-mutator-only
/// (its active-set bookkeeping assumes one bracketing thread) and must be
/// compiled out (EnableArrayRearrange=false, the default) for these runs.
///
//===----------------------------------------------------------------------===//

#ifndef SATB_INTERP_THREADEDCYCLE_H
#define SATB_INTERP_THREADEDCYCLE_H

#include "gc/Pacer.h"
#include "interp/BarrierStats.h"
#include "interp/Interpreter.h"
#include "interp/Safepoint.h"
#include "jit/MethodVersionTable.h"

namespace satb {

// --- Multi-mutator driver ---------------------------------------------------

enum class MultiMarkerKind { Satb, IncrementalUpdate };

struct MultiMutatorConfig {
  MultiMarkerKind Marker = MultiMarkerKind::Satb;
  /// Mutator steps attempted between driver-level safepoint checks (the
  /// engine additionally polls at every translated safepoint inside the
  /// quantum, so pauses do not wait for quantum boundaries).
  uint64_t PollQuantum = 512;
  size_t MarkerQuantum = 64;  ///< marker work units per concurrent round
  uint64_t StepLimit = 20'000'000; ///< per mutator
  /// The scripted trigger: the one cycle begins once the mutators have
  /// allocated this many objects (or all exited), so it starts against a
  /// warm heap.
  uint64_t WarmupAllocs = 2000;
  /// Fixed object-table capacity for the run (Heap::enterMultiMutator).
  uint32_t HeapCapacityRefs = 1u << 20;
  /// Per-context SATB buffer capacity (flush granularity).
  size_t SatbBufferCap = 64;
  /// Mark worker threads (the markers' MarkThreads knob). 1 = one mark
  /// worker inline on the coordinator, with no hand-off queue and no
  /// termination gate; > 1 spins up a dedicated ThreadPool and both
  /// concurrent mark steps and the final termination drain run over
  /// sharded mark stacks (see DESIGN.md "Parallel marking"). The
  /// coordinator participates as one of the workers.
  unsigned MarkThreads = 1;
  /// Superinstruction fusion for the internal translation (forwarded to
  /// TranslateOptions::Fuse); tests pin it to run their grids in both
  /// translations.
  bool Fuse = true;
  /// Test instrumentation: record per-object trace counts (mark-once
  /// property) and, for SATB, the start-of-marking snapshot set into the
  /// result.
  bool DebugTraceCounts = false;
  /// Generational layer: give every mutator nursery TLAB chunks and serve
  /// stop-the-world minor collections from the coordinator whenever a
  /// mutator's chunk refill finds the nursery exhausted. Works under any
  /// barrier mode; only BarrierMode::Generational maintains the remembered
  /// set, so other modes promote wholesale at every minor collection.
  bool EnableNursery = false;
  size_t NurseryBytes = 256 * 1024;
  uint32_t PretenureBytes = 1024;
  /// Tiered execution: when Enabled, every mutator gets its own
  /// MethodVersionTable (tables are not thread-safe) and starts in the
  /// profiling Baseline tier; minor collections invalidate
  /// young-speculating versions inside the same stop-the-world pause
  /// that serves them. Off by default.
  TieredOptions Tiered;
  /// Allocation-pressure pacing (gc/Pacer.h): when Pacer.Enabled the
  /// pacer replaces the scripted trigger — as many cycles as allocation
  /// pressure asks for, each with its own begin/finish handshakes and
  /// per-cycle oracle — and requests proactive nursery-fill minor
  /// collections. Off by default. DebugTraceCounts forces the scripted
  /// trigger: the mark-once instrumentation accumulates across cycles and
  /// is only meaningful for exactly one.
  PacerConfig Pacer;
  /// Server mode: when nonzero, every mutator invokes Entry this many
  /// times (one request per invocation; heap and static state persist
  /// across requests) instead of once, recording each invocation's
  /// latency into a per-mutator histogram shard. StepLimit still bounds
  /// each mutator's total steps across all its requests.
  uint64_t Requests = 0;
};

/// CycleTotals sum over every cycle of the run.
struct MultiMutatorResult : CycleTotals {
  /// Per-mutator outcomes, indexed by mutator. A Running status means the
  /// per-mutator StepLimit cut the run short.
  std::vector<RunStatus> Statuses;
  std::vector<TrapKind> Traps;
  std::vector<uint64_t> Steps;
  /// Per-thread BarrierStats shards and their fold (BarrierStats::merge).
  std::vector<BarrierStats> Shards;
  BarrierStats Merged;
  /// Per-mutator version-table counters (empty unless Cfg.Tiered.Enabled).
  std::vector<TierCounters> Tiering;
  uint64_t Violations = 0;       ///< from the merged shards
  uint64_t LoggedPreValues = 0;  ///< SATB marker total (exact, lock-counted)
  /// Filled only when Cfg.DebugTraceCounts: TraceCounts[R] is how many
  /// times the marker traced object R (the mark-once property demands
  /// <= 1 everywhere); SnapshotSet is the cycle's oracle set (SATB: the
  /// start-of-marking snapshot; incremental update: what was reachable at
  /// the final pause), every object of which the marker traced exactly
  /// once.
  std::vector<uint32_t> TraceCounts;
  std::vector<bool> SnapshotSet;
  /// Minor-collection totals for the run (zero unless Cfg.EnableNursery).
  MinorGCStats Minor;
  /// Marking cycles completed: 1 for the scripted trigger, pacer-driven
  /// otherwise (0 when pressure never reached the trigger).
  uint64_t Cycles = 0;
  PacerStats Pacing; ///< pacer trigger counters (pacer mode only)
  /// Coordinator-side handshake accounting (interp/Safepoint.h): every
  /// stop-the-world pause of the run — cycle edges and minor GCs.
  SafepointPauseStats Safepoint;
  /// Mutator-observed safepoint pauses: each mutator's park() waits,
  /// merged across the per-mutator shards (nanoseconds).
  Histogram MutatorPauseNs;
  /// Server mode only: per-request latencies merged across mutators
  /// (nanoseconds), and completed-request counts per mutator.
  Histogram RequestNs;
  std::vector<uint64_t> RequestsCompleted;
  uint64_t TotalRequests = 0;
};

/// Runs \p Mutators FastInterp instances against one heap with
/// concurrent marking cycles: exactly one (the scripted trigger) unless
/// Cfg.Pacer is enabled. Builds the heap, marker, safepoint
/// coordinator, and a safepoint-instrumented translation internally;
/// every mutator executes \p Entry with \p IntArgs. \p CP must be
/// compiled with the barrier mode matching \p Cfg.Marker, and with the
/// rearrangement protocol disabled.
MultiMutatorResult runWithConcurrentMutators(
    unsigned Mutators, const Program &P, const CompiledProgram &CP,
    MethodId Entry, const std::vector<int64_t> &IntArgs = {},
    const MultiMutatorConfig &Cfg = {});

} // namespace satb

#endif // SATB_INTERP_THREADEDCYCLE_H
