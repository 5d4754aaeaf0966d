//===- gc/Pacer.h - Allocation-pressure GC triggering ----------*- C++ -*-===//
///
/// \file
/// Decides *when* collection cycles run, from allocation pressure instead
/// of script order (DESIGN.md "Server workload & pacer"). The scripted
/// multi-mutator driver runs exactly one marking cycle at a fixed warmup
/// point — fine for batch benches, wrong for the server-shaped workload
/// where cycles must start and finish underneath long-running request
/// handlers. The pacer watches three monotone heap counters the mutators
/// already publish relaxed (bytesAllocatedApprox, numLive, the nursery
/// carve cursor) and answers two questions on the coordinator thread:
///
///  - shouldStartCycle(): begin a concurrent marking cycle when either
///    TriggerBytes of allocation have accrued since the last cycle ended
///    (allocation pressure) or live occupancy crossed the high
///    watermark. Hysteresis lives in the watermark: when a finished
///    cycle's sweep leaves occupancy above the low watermark (a
///    mostly-live heap), the high watermark is raised to current live +
///    LiveHeadroom, so a standing population cannot re-trigger
///    back-to-back cycles — only genuine growth or fresh allocation can.
///
///  - shouldRequestMinorGC(): raise the heap's minor-collection request
///    proactively once the nursery is NurseryFillPct percent carved,
///    instead of waiting for a mutator's TLAB refill to find it
///    exhausted — the coordinator serves the collection at the next
///    handshake while every mutator still has nursery headroom.
///
/// All decisions are made (and all state mutated) on one thread; the heap
/// reads are relaxed atomics, so the pacer needs no locking and can be
/// polled every coordinator iteration. PacerConfig's defaults are
/// constants; a run that wants pacing sets the fields it needs.
///
//===----------------------------------------------------------------------===//

#ifndef SATB_GC_PACER_H
#define SATB_GC_PACER_H

#include "heap/Heap.h"

#include <cstdint>

namespace satb {

struct PacerConfig {
  /// Pacer-driven cycle triggering. Off by default: the scripted
  /// single-cycle driver stays the bit-identical baseline.
  bool Enabled = false;
  /// Allocation-pressure trigger: start a cycle once this many bytes have
  /// been allocated since the previous cycle ended.
  uint64_t TriggerBytes = 256 * 1024;
  /// Occupancy trigger: start a cycle when numLive() reaches the current
  /// high watermark, initially this value (objects). High enough that
  /// allocation pressure, not occupancy, is the normal trigger.
  uint64_t LiveHighWater = 1u << 20;
  /// Hysteresis band: a cycle that sweeps occupancy below
  /// LiveHighWater/2 re-arms the original watermark; one that does not
  /// raises the watermark to live + LiveHeadroom.
  uint64_t LiveHeadroom = 4096;
  /// Nursery-fill percentage that requests a proactive minor collection;
  /// 0 leaves minors purely demand-driven.
  uint32_t NurseryFillPct = 75;
  /// Upper bound on cycles started; 0 = unbounded. Tests use 1 to compare
  /// a pacer-triggered cycle against the scripted single-cycle run.
  uint64_t MaxCycles = 0;
};

struct PacerStats {
  uint64_t CyclesStarted = 0;
  uint64_t CyclesFinished = 0;
  uint64_t PressureTriggers = 0;  ///< cycles started by TriggerBytes
  uint64_t OccupancyTriggers = 0; ///< cycles started by the watermark
  uint64_t MinorRequests = 0;     ///< proactive nursery-fill requests
};

class Pacer {
public:
  Pacer(Heap &H, const PacerConfig &Cfg)
      : H(H), Cfg(Cfg), HighWater(Cfg.LiveHighWater) {}

  /// Coordinator-side: true when a new marking cycle should begin now.
  /// Never true while a cycle is running or after MaxCycles started.
  bool shouldStartCycle() {
    if (InCycle)
      return false;
    if (Cfg.MaxCycles && S.CyclesStarted >= Cfg.MaxCycles)
      return false;
    if (H.bytesAllocatedApprox() >= Anchor + Cfg.TriggerBytes) {
      PendingPressure = true;
      return true;
    }
    if (H.numLive() >= HighWater) {
      PendingPressure = false;
      return true;
    }
    return false;
  }

  void noteCycleStart() {
    InCycle = true;
    ++S.CyclesStarted;
    ++(PendingPressure ? S.PressureTriggers : S.OccupancyTriggers);
  }

  /// Re-anchors the allocation-pressure trigger and applies the
  /// watermark hysteresis (see file comment).
  void noteCycleEnd() {
    InCycle = false;
    ++S.CyclesFinished;
    Anchor = H.bytesAllocatedApprox();
    uint64_t Live = H.numLive();
    if (Live >= Cfg.LiveHighWater / 2)
      HighWater = Live + Cfg.LiveHeadroom;
    else
      HighWater = Cfg.LiveHighWater;
  }

  /// Coordinator-side: the nursery is full enough that a minor collection
  /// should be served at the next handshake. Reads the heap's atomic
  /// carve counter, never the bump pointer (mutators move that one under
  /// the allocation lock).
  bool shouldRequestMinorGC() {
    if (Cfg.NurseryFillPct == 0 || !H.nurseryEnabled())
      return false;
    uint64_t Budget = H.nurseryConfig().NurseryBytes;
    if (H.nurseryCarvedBytes() * 100 < Budget * Cfg.NurseryFillPct)
      return false;
    ++S.MinorRequests;
    return true;
  }

  uint64_t liveHighWater() const { return HighWater; }
  const PacerStats &stats() const { return S; }

private:
  Heap &H;
  PacerConfig Cfg;
  PacerStats S;
  uint64_t Anchor = 0; ///< bytesAllocatedApprox at the last cycle end
  uint64_t HighWater;
  bool InCycle = false;
  bool PendingPressure = false;
};

} // namespace satb

#endif // SATB_GC_PACER_H
