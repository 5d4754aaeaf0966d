//===- perfbench/harness/Server.cpp - The server_gen workload -------------===//
///
/// \file
/// makeServerLike() under BarrierMode::Generational with nursery, pacer
/// and SATB marker, on runWithConcurrentMutators with two mutators and
/// one mark thread. Each mutator is a closed-loop client: it sends its
/// next request when the previous one returns.
///
/// The object table never recycles refs in multi-mutator mode, so one
/// runtime call has a fixed request capacity. A run is therefore a series
/// of fresh back-to-back calls whose histograms are merged; each call's
/// request count is drawn from the seed. The program's own request mix is
/// fixed (its generator state starts at zero on every fresh heap).
///
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "interp/ThreadedCycle.h"
#include "workloads/Workload.h"

#include <cstdio>

using namespace satb;
using namespace perfbench;

namespace {

constexpr unsigned kMutators = 2;
constexpr uint64_t kRequests = 25000;     ///< per mutator per call (mean)
constexpr uint64_t kTinyRequests = 300;
constexpr uint32_t kCapacityRefs = 1u << 20;
/// Set-up repetitions, as in Table1.cpp: warm-up, initial, per call.
constexpr unsigned kSetupWarmup = 3, kSetupReps = 9, kSetupRepsPerCall = 3;

CompilerOptions serverOptions() {
  CompilerOptions O;
  O.Inline = InlineOptions{};
  O.Analysis = AnalysisConfig{};
  O.Barrier = BarrierMode::Generational;
  O.ApplyElision = true;
  O.EnableArrayRearrange = false;
  O.CompileThreads = 1;
  O.Interp = InterpMode::Fast;
  return O;
}

/// Every knob set explicitly: none inherits a SATB_* environment default.
MultiMutatorConfig serverConfig(uint64_t Requests) {
  MultiMutatorConfig C;
  C.Marker = MultiMarkerKind::Satb;
  C.PollQuantum = 512;
  C.MarkerQuantum = 64;
  C.StepLimit = 4'000'000'000ull;
  C.WarmupAllocs = 2000;
  C.HeapCapacityRefs = kCapacityRefs;
  C.SatbBufferCap = 64;
  C.MarkThreads = 1;
  C.Fuse = true;
  C.DebugTraceCounts = false;
  C.EnableNursery = true;
  C.NurseryBytes = 128 * 1024;
  C.PretenureBytes = 1024;
  C.Tiered.Enabled = false;
  C.Tiered.WarmInvocations = 8;
  C.Tiered.HotInvocations = 32;
  C.Tiered.MinSiteExecs = 16;
  C.Tiered.MaxDeopts = 3;
  C.Tiered.ForceDeoptEvery = 0;
  C.Pacer.Enabled = true;
  C.Pacer.TriggerBytes = 96 * 1024;
  C.Pacer.LiveHighWater = 1u << 20;
  C.Pacer.LiveHeadroom = 4096;
  C.Pacer.NurseryFillPct = 75;
  C.Pacer.MaxCycles = 0;
  C.Requests = Requests;
  return C;
}

TranslateOptions serverTranslate() {
  TranslateOptions T;
  T.InsertSafepoints = true;
  T.Fuse = true;
  T.Tier = TranslationTier::Static;
  return T;
}

/// The histogram's percentile, interpolated linearly by rank inside its
/// bucket, so it moves continuously with the samples instead of jumping
/// between bucket bounds.
double percentileUs(const Histogram &H, double P) {
  uint64_t N = H.count();
  if (N == 0)
    return 0.0;
  auto bucketOfRank = [&](uint64_t Rank) {
    return Histogram::bucketIndex(
        H.percentile(100.0 * (double(Rank) + 0.5) / double(N)));
  };
  uint64_t Rank = std::min<uint64_t>(uint64_t(P / 100.0 * double(N)), N - 1);
  unsigned B = bucketOfRank(Rank);
  // First rank in bucket B, and first rank past it.
  uint64_t Lo = 0, Hi = Rank;
  while (Lo < Hi) {
    uint64_t Mid = (Lo + Hi) / 2;
    if (bucketOfRank(Mid) < B)
      Lo = Mid + 1;
    else
      Hi = Mid;
  }
  uint64_t First = Lo;
  Lo = Rank + 1;
  Hi = N;
  while (Lo < Hi) {
    uint64_t Mid = (Lo + Hi) / 2;
    if (bucketOfRank(Mid) > B)
      Hi = Mid;
    else
      Lo = Mid + 1;
  }
  uint64_t End = Lo;
  double Floor = B == 0 ? 0.0 : double(Histogram::bucketUpperBound(B - 1));
  double Ceil = std::min(double(Histogram::bucketUpperBound(B)),
                         double(H.max()));
  Floor = std::max(std::min(Floor, Ceil), double(H.min()) - 1.0);
  double Frac = (double(Rank - First) + 0.5) / double(End - First);
  return (Floor + (Ceil - Floor) * Frac) / 1e3;
}

struct CallStats {
  double WallUs = 0;
  double Slowdown = 1; ///< the host's, over the call (HostSpeed)
  MultiMutatorResult R;
};

} // namespace

Result perfbench::runServer(const Options &O) {
  Result Res;
  Rng Seeded(O.Seed);
  const uint64_t Mean = O.Tiny ? kTinyRequests : kRequests;
  Workload W = makeServerLike();
  const CompilerOptions CO = serverOptions();
  const MultiMutatorConfig Base = serverConfig(Mean);

  Res.config("barrier_mode", "Generational");
  Res.config("apply_elision", "true");
  Res.config("compile_threads", uint64_t(CO.CompileThreads));
  Res.config("mutators", uint64_t(kMutators));
  Res.config("requests_per_mutator_mean", Mean);
  Res.config("mark_threads", uint64_t(Base.MarkThreads));
  Res.config("heap_capacity_refs", uint64_t(Base.HeapCapacityRefs));
  Res.config("nursery_bytes", uint64_t(Base.NurseryBytes));
  Res.config("pretenure_bytes", uint64_t(Base.PretenureBytes));
  Res.config("poll_quantum", Base.PollQuantum);
  Res.config("marker_quantum", uint64_t(Base.MarkerQuantum));
  Res.config("satb_buffer_cap", uint64_t(Base.SatbBufferCap));
  Res.config("translate_fuse", "true");
  Res.config("tiered", "false");
  Res.config("pacer_trigger_bytes", Base.Pacer.TriggerBytes);
  Res.config("pacer_live_high_water", Base.Pacer.LiveHighWater);
  Res.config("pacer_live_headroom", Base.Pacer.LiveHeadroom);
  Res.config("pacer_nursery_fill_pct", uint64_t(Base.Pacer.NurseryFillPct));

  // Set-up: what runWithConcurrentMutators needs before its first step.
  // Raw and scaled to the nominal host speed (see HostSpeed), which is
  // calibrated between calls while no mutator runs.
  HostSpeed Host;
  CompiledProgram CP;
  std::vector<double> SetupRawUs, SetupUs;
  auto measureSetUp = [&](unsigned Reps) {
    for (unsigned I = 0; I != Reps; ++I) {
      double T0 = nowUs();
      CP = compileProgram(*W.P, CO);
      FastProgram FP = translateProgram(*W.P, CP, serverTranslate());
      SetupRawUs.push_back(nowUs() - T0);
      SetupUs.push_back(SetupRawUs.back() / Host.current());
    }
  };
  measureSetUp(kSetupWarmup);
  SetupRawUs.clear();
  SetupUs.clear();
  measureSetUp(kSetupReps);

  auto oneCall = [&] {
    // +-10% around the mean, drawn from the seed.
    uint64_t Requests = Seeded.uniform(Mean - Mean / 10, Mean + Mean / 10);
    CallStats C;
    double T0 = nowUs();
    C.R = runWithConcurrentMutators(kMutators, *W.P, CP, W.Entry, {1},
                                    serverConfig(Requests));
    C.WallUs = nowUs() - T0;
    releaseFreedMemory();
    const MultiMutatorResult &R = C.R;
    BarrierStats::Summary S = R.Merged.summarize();
    bool CallOk = R.OracleHolds && R.Violations == 0 &&
                  S.RemSetViolations == 0;
    uint64_t Done = 0;
    for (unsigned T = 0; T != kMutators; ++T) {
      bool MutOk = T < R.Statuses.size() &&
                   R.Statuses[T] == RunStatus::Finished &&
                   R.RequestsCompleted[T] == Requests;
      if (!MutOk)
        std::fprintf(stderr, "perfbench: server mutator %u completed "
                             "%llu/%llu requests\n",
                     T,
                     static_cast<unsigned long long>(
                         T < R.RequestsCompleted.size()
                             ? R.RequestsCompleted[T]
                             : 0),
                     static_cast<unsigned long long>(Requests));
      Done += T < R.RequestsCompleted.size() ? R.RequestsCompleted[T] : 0;
    }
    if (!CallOk)
      std::fprintf(stderr, "perfbench: server call broke an invariant "
                           "(oracle %d, violations %llu, remset %llu)\n",
                   int(R.OracleHolds),
                   static_cast<unsigned long long>(R.Violations),
                   static_cast<unsigned long long>(S.RemSetViolations));
    uint64_t Attempted = Requests * kMutators;
    Res.Attempted += Attempted;
    Res.Failed += CallOk ? Attempted - std::min(Done, Attempted) : Attempted;
    Res.InvariantsHold &= CallOk && R.TotalRequests == Done;
    return C;
  };

  const double Budget = O.Seconds * 1e6;
  const double Start = nowUs();
  std::vector<CallStats> Calls;
  // A server process runs the runtime once; later calls only add the
  // allocator's fragmentation from thread arenas of earlier calls. The
  // peak resident set is therefore taken through the first call.
  double PeakRssMb = 0;
  while (Calls.size() < 2 || nowUs() - Start < Budget) {
    Calls.push_back(oneCall());
    if (Calls.size() == 1)
      PeakRssMb = peakRssMb();
    Calls.back().Slowdown = Host.interval();
    measureSetUp(kSetupRepsPerCall);
  }
  Res.config("calls", uint64_t(Calls.size()));

  auto values = [&](auto Fn) {
    std::vector<double> V;
    for (const CallStats &C : Calls)
      V.push_back(double(Fn(C)));
    return V;
  };
  auto perCall = [&](auto Fn) { return median(values(Fn)); };
  auto steps = [](const CallStats &C) {
    uint64_t N = 0;
    for (uint64_t S : C.R.Steps)
      N += S;
    return N;
  };
  Histogram Pause, Request, Stw, Ttsp;
  BarrierStats::Summary Stores;
  double MinHeadroom = 100.0;
  for (const CallStats &C : Calls) {
    Pause.merge(C.R.MutatorPauseNs);
    Request.merge(C.R.RequestNs);
    Stw.merge(C.R.Safepoint.PauseNs);
    Ttsp.merge(C.R.Safepoint.TimeToStopNs);
    BarrierStats::Summary S = C.R.Merged.summarize();
    Stores.TotalExecs += S.TotalExecs;
    Stores.ElidedExecs += S.ElidedExecs;
    // Every small object is born young while the nursery is on, so the
    // nursery's promoted + freed objects count the refs a call used.
    double Used = double(C.R.Minor.PromotedObjects + C.R.Minor.FreedYoung);
    MinHeadroom = std::min(MinHeadroom, 100.0 * (1.0 - Used / kCapacityRefs));
  }

  if (!O.Trace) {
    auto stepsPerS = [&](const CallStats &C) {
      return steps(C) / (C.WallUs / 1e6);
    };
    auto requestsPerS = [](const CallStats &C) {
      return C.R.TotalRequests / (C.WallUs / 1e6);
    };
    auto slowdown = [](const CallStats &C) { return C.Slowdown; };
    auto scaled = [](std::vector<double> V, const std::vector<double> &S) {
      for (size_t I = 0; I != V.size(); ++I)
        V[I] *= S[I];
      return V;
    };
    const std::vector<double> Slow = values(slowdown);
    Res.config("host_ns_per_op", std::to_string(Host.medianNsPerOp()));
    Res.config("raw_setup_s",
               std::to_string(bestQuarter(SetupRawUs, false) / 1e6));
    Res.config("raw_steps_per_s",
               std::to_string(bestQuarter(values(stepsPerS), true)));
    Res.config("raw_requests_per_s",
               std::to_string(bestQuarter(values(requestsPerS), true)));
    Res.config("raw_pause_p50_us", std::to_string(percentileUs(Pause, 50)));
    Res.metric("setup_s", bestQuarter(SetupUs, false) / 1e6, "s");
    Res.metric("steps_per_s", bestQuarter(scaled(values(stepsPerS), Slow), true),
               "1/s");
    Res.metric("requests_per_s",
               bestQuarter(scaled(values(requestsPerS), Slow), true), "1/s");
    Res.metric("pause_p50_us", percentileUs(Pause, 50) / median(Slow), "us");
    Res.metric("elided_store_pct", Stores.pctElided(), "%");
    Res.metric("peak_rss_mb", PeakRssMb, "MB");
    Res.metric("passed_pct", Res.passedPct(), "%");
    return Res;
  }

  // --- Traced run: set-up one layer at a time, then the runtime's layers.
  std::vector<SetupTrace> Setups;
  for (unsigned I = 0; I != kSetupReps; ++I)
    Setups.push_back(traceSetUp(*W.P, CO, serverTranslate()));
  reportSetUp(Res, Setups);

  // Layer coverage in mutator-thread time: each mutator is either inside
  // a request and running, inside a request and parked at a safepoint,
  // or outside any request (thread start, translation, heap set-up, the
  // final minor collection, join) -- the explicit "other". The runtime
  // records its histograms in every run and the harness adds no span
  // inside a call, so tracing costs the calls nothing.
  auto running = [](const CallStats &C) {
    return (double(C.R.RequestNs.sum()) - double(C.R.MutatorPauseNs.sum())) /
           1e3;
  };
  auto parked = [](const CallStats &C) {
    return double(C.R.MutatorPauseNs.sum()) / 1e3;
  };
  auto layersPct = [&](const CallStats &C) {
    return 100.0 * (running(C) + parked(C)) / (kMutators * C.WallUs);
  };
  Res.metric("host.ns_per_op", Host.medianNsPerOp(), "ns");
  Res.metric("trace.rounds", Calls.size(), "count");
  Res.metric("trace.wall_untraced_ms",
             perCall([](const CallStats &C) { return C.WallUs; }) / 1e3, "ms");
  Res.metric("trace.layers_pct", perCall(layersPct), "%");
  Res.metric("trace.other_pct", 100.0 - perCall(layersPct), "%");
  Res.metric("trace.overhead_pct", 0.0, "%");

  Res.metric("interp.mutator_us", perCall(running), "us");
  Res.metric("interp.steps", perCall(steps), "count");
  Res.metric("interp.ns_per_step", perCall([&](const CallStats &C) {
               return 1e3 * running(C) / double(steps(C));
             }),
             "ns");
  Res.metric("interp.store_execs", perCall([](const CallStats &C) {
               return C.R.Merged.summarize().TotalExecs;
             }),
             "count");
  Res.metric("interp.store_elided", perCall([](const CallStats &C) {
               return C.R.Merged.summarize().ElidedExecs;
             }),
             "count");
  Res.metric("interp.prenull_execs", perCall([](const CallStats &C) {
               return C.R.Merged.summarize().PreNullExecs;
             }),
             "count");
  Res.metric("heap.table_headroom_pct", MinHeadroom, "%");
  Res.metric("gc.cycles", perCall([](const CallStats &C) {
               return C.R.Cycles;
             }),
             "count");
  Res.metric("gc.logged_pre_values", perCall([](const CallStats &C) {
               return C.R.LoggedPreValues;
             }),
             "count");
  Res.metric("gc.final_pause_work", perCall([](const CallStats &C) {
               return C.R.FinalPauseWork;
             }),
             "count");
  Res.metric("gc.swept_objects", perCall([](const CallStats &C) {
               return C.R.Swept;
             }),
             "count");
  Res.metric("gc.minor.collections", perCall([](const CallStats &C) {
               return C.R.Minor.Collections;
             }),
             "count");
  Res.metric("gc.minor.promoted_bytes", perCall([](const CallStats &C) {
               return C.R.Minor.PromotedBytes;
             }),
             "bytes");
  Res.metric("gc.minor.cards_scanned", perCall([](const CallStats &C) {
               return C.R.Minor.RemSetCardsScanned;
             }),
             "count");
  Res.metric("gc.minor.pause_work", perCall([](const CallStats &C) {
               return C.R.Minor.PauseWork;
             }),
             "count");
  Res.metric("gc.pacer.pressure_triggers", perCall([](const CallStats &C) {
               return C.R.Pacing.PressureTriggers;
             }),
             "count");
  Res.metric("gc.pacer.occupancy_triggers", perCall([](const CallStats &C) {
               return C.R.Pacing.OccupancyTriggers;
             }),
             "count");
  Res.metric("gc.pacer.minor_requests", perCall([](const CallStats &C) {
               return C.R.Pacing.MinorRequests;
             }),
             "count");
  Res.metric("interp.safepoint.stw_count", perCall([](const CallStats &C) {
               return C.R.Safepoint.PauseNs.count();
             }),
             "count");
  Res.metric("interp.safepoint.stw_total_ms", perCall([](const CallStats &C) {
               return double(C.R.Safepoint.PauseNs.sum()) / 1e6;
             }),
             "ms");
  Res.metric("interp.safepoint.stw_share", perCall([](const CallStats &C) {
               return 100.0 * double(C.R.Safepoint.PauseNs.sum()) / 1e3 /
                      C.WallUs;
             }),
             "%");
  Res.metric("interp.safepoint.park_total_ms", perCall([](const CallStats &C) {
               return double(C.R.MutatorPauseNs.sum()) / 1e6;
             }),
             "ms");
  Res.metric("interp.safepoint.stw_p50_us", percentileUs(Stw, 50), "us");
  Res.metric("interp.safepoint.stw_p99_us", percentileUs(Stw, 99), "us");
  Res.metric("interp.safepoint.ttsp_p50_us", percentileUs(Ttsp, 50), "us");
  Res.metric("interp.safepoint.ttsp_p99_us", percentileUs(Ttsp, 99), "us");
  Res.metric("interp.safepoint.park_p99_us", percentileUs(Pause, 99), "us");
  Res.metric("interp.request_p50_us", percentileUs(Request, 50), "us");
  Res.metric("interp.request_p99_us", percentileUs(Request, 99), "us");
  Res.metric("interp.request_p999_us", percentileUs(Request, 99.9), "us");
  return Res;
}
