//===- bench/server_latency.cpp - Server-shaped latency rows --------------===//
///
/// \file
/// The latency table the ROADMAP's server-workload item asks for: N
/// mutator threads run the request/response workload (workloads/
/// ServerLike.cpp) in per-request mode against one shared heap, with GC
/// cycles triggered by the allocation-pressure pacer (gc/Pacer.h)
/// instead of script order. Per {barrier x marker x tiered} config the
/// row reports requests/sec, cycle and minor-GC counts, and the p50/p99
/// per-request and p50/p99/p999 mutator-observed safepoint-pause
/// percentiles (support/Histogram.h); the trailing "all" row adds the
/// coordinator's stw/ttsp p99s (interp/Safepoint.h). Timings are
/// reported, not checked; the run aborts if the marking oracle breaks or
/// a request is dropped. Scale = requests per mutator (SATB_BENCH_SCALE).
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "interp/ThreadedCycle.h"

using namespace satb;
using namespace satb::bench;

namespace {

constexpr unsigned Mutators = 4;

struct ServerConfig {
  const char *Name;
  BarrierMode Barrier;
  MultiMarkerKind Marker;
  bool Nursery;
  bool Tiered;
};

struct ServerRun {
  double WallSeconds = 0.0;
  uint64_t Requests = 0;
  uint64_t Cycles = 0;
  uint64_t MinorGCs = 0;
  Histogram PauseNs;   ///< mutator-observed park waits
  Histogram RequestNs; ///< per-request latencies
  Histogram StwNs;     ///< coordinator pause work windows
  Histogram TtspNs;    ///< coordinator time-to-stop
};

double us(uint64_t Ns) { return Ns / 1000.0; }

ServerRun runConfig(const ServerConfig &C, int64_t RequestsPerMutator) {
  Workload W = makeServerLike();
  CompilerOptions Opts;
  Opts.Interp = InterpMode::Fast;
  Opts.Barrier = C.Barrier;
  CompiledProgram CP = compileProgram(*W.P, Opts);

  MultiMutatorConfig Cfg;
  Cfg.Marker = C.Marker;
  Cfg.Requests = static_cast<uint64_t>(RequestsPerMutator);
  Cfg.Pacer.Enabled = true;
  Cfg.Pacer.TriggerBytes = 96 * 1024;
  Cfg.EnableNursery = C.Nursery;
  Cfg.NurseryBytes = 128 * 1024;
  Cfg.Tiered.Enabled = C.Tiered;

  Stopwatch Wall;
  MultiMutatorResult R =
      runWithConcurrentMutators(Mutators, *W.P, CP, W.Entry, {1}, Cfg);
  ServerRun S;
  S.WallSeconds = Wall.elapsedUs() / 1e6;

  if (!R.OracleHolds || R.Violations != 0) {
    std::fprintf(stderr, "bench: %s broke the marking oracle (%llu violations)\n",
                 C.Name, static_cast<unsigned long long>(R.Violations));
    std::abort();
  }
  for (unsigned T = 0; T != Mutators; ++T) {
    if (R.Statuses[T] != RunStatus::Finished) {
      std::fprintf(stderr, "bench: %s mutator %u did not finish (%llu/%llu "
                           "requests)\n",
                   C.Name, T,
                   static_cast<unsigned long long>(R.RequestsCompleted[T]),
                   static_cast<unsigned long long>(RequestsPerMutator));
      std::abort();
    }
  }
  if (R.TotalRequests !=
      static_cast<uint64_t>(RequestsPerMutator) * Mutators) {
    std::fprintf(stderr, "bench: %s dropped requests\n", C.Name);
    std::abort();
  }
  S.Requests = R.TotalRequests;
  S.Cycles = R.Cycles;
  S.MinorGCs = R.Minor.Collections;
  S.PauseNs = R.MutatorPauseNs;
  S.RequestNs = R.RequestNs;
  S.StwNs = R.Safepoint.PauseNs;
  S.TtspNs = R.Safepoint.TimeToStopNs;
  return S;
}

} // namespace

int main() {
  int64_t Scale = benchScale(2000); // requests per mutator

  const ServerConfig Configs[] = {
      {"satb", BarrierMode::Satb, MultiMarkerKind::Satb, false, false},
      {"incupdate", BarrierMode::CardMarking,
       MultiMarkerKind::IncrementalUpdate, false, false},
      {"generational", BarrierMode::Generational, MultiMarkerKind::Satb, true,
       false},
      {"satb_tiered", BarrierMode::Satb, MultiMarkerKind::Satb, false, true},
  };

  std::printf("Server latency: %u mutators, %lld requests each, "
              "pacer-driven cycles\n",
              Mutators, static_cast<long long>(Scale));
  printRule();
  std::printf("%12s %9s %7s %6s %9s %9s %9s %9s %9s\n", "config", "req/s",
              "cycles", "minor", "p50 rq", "p99 rq", "p50 pse", "p99 pse",
              "p999 pse");
  printRule();

  ServerRun All;
  for (const ServerConfig &C : Configs) {
    ServerRun S = runConfig(C, Scale);
    std::printf("%12s %9.0f %7llu %6llu %9.1f %9.1f %9.1f %9.1f %9.1f\n",
                C.Name, S.Requests / S.WallSeconds,
                static_cast<unsigned long long>(S.Cycles),
                static_cast<unsigned long long>(S.MinorGCs),
                us(S.RequestNs.percentile(50)),
                us(S.RequestNs.percentile(99)), us(S.PauseNs.percentile(50)),
                us(S.PauseNs.percentile(99)), us(S.PauseNs.percentile(99.9)));
    All.WallSeconds += S.WallSeconds;
    All.Requests += S.Requests;
    All.Cycles += S.Cycles;
    All.MinorGCs += S.MinorGCs;
    All.PauseNs.merge(S.PauseNs);
    All.RequestNs.merge(S.RequestNs);
    All.StwNs.merge(S.StwNs);
    All.TtspNs.merge(S.TtspNs);
  }

  printRule();
  std::printf("%12s %9.0f %7llu %6llu %9.1f %9.1f %9.1f %9.1f %9.1f\n", "all",
              All.Requests / All.WallSeconds,
              static_cast<unsigned long long>(All.Cycles),
              static_cast<unsigned long long>(All.MinorGCs),
              us(All.RequestNs.percentile(50)),
              us(All.RequestNs.percentile(99)), us(All.PauseNs.percentile(50)),
              us(All.PauseNs.percentile(99)), us(All.PauseNs.percentile(99.9)));
  std::printf("%llu stop-the-world pauses across %llu requests; "
              "coordinator stw p99 %.1f us, ttsp p99 %.1f us\n",
              static_cast<unsigned long long>(All.StwNs.count()),
              static_cast<unsigned long long>(All.Requests),
              us(All.StwNs.percentile(99)), us(All.TtspNs.percentile(99)));
  return 0;
}
