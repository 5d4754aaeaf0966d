//===- perfbench/harness/Common.h - Shared harness plumbing ----*- C++ -*-===//
///
/// \file
/// What every workload shares: the command-line options, a seeded
/// generator, span timing for the traced run, and the result record the
/// harness prints. Metric names are the ones BENCHMARK.json declares; a
/// workload adds only the metrics its layers produce and perfbench/run.py
/// fills the per-layer metrics of layers the workload never enters with 0.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_HARNESS_COMMON_H
#define PERFBENCH_HARNESS_COMMON_H

#include "jit/FastCode.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace perfbench {

struct Options {
  std::string Workload;
  uint64_t Seed = 0;
  double Seconds = 10.0;
  bool Trace = false;
  /// Tiny inputs for the self-test (perfbench/run.py --selftest).
  bool Tiny = false;
  /// Expected-output record for the Table 1 programs.
  std::string ExpectedPath;
};

/// splitmix64: a fixed, library-independent sequence per seed, so the
/// same seed draws the same inputs with any standard library.
class Rng {
public:
  explicit Rng(uint64_t Seed) : S(Seed) {}
  uint64_t next() {
    uint64_t Z = (S += 0x9e3779b97f4a7c15ull);
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
    return Z ^ (Z >> 31);
  }
  /// Uniform in [Lo, Hi] (the modulo bias is irrelevant at these ranges).
  uint64_t uniform(uint64_t Lo, uint64_t Hi) {
    return Lo + next() % (Hi - Lo + 1);
  }
  /// A seeded permutation of 0..N-1.
  std::vector<size_t> permutation(size_t N) {
    std::vector<size_t> P(N);
    for (size_t I = 0; I != N; ++I)
      P[I] = I;
    for (size_t I = N; I > 1; --I)
      std::swap(P[I - 1], P[next() % I]);
    return P;
  }

private:
  uint64_t S;
};

inline double nowUs() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double median(std::vector<double> V) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2.0;
}

/// The median of the best quarter of \p V (the largest values when
/// \p HigherIsBetter, else the smallest). Interference from other tenants
/// of a shared host only ever makes a round slower, so the best quarter of
/// a run's rounds estimates the program's own speed more steadily than
/// all of them.
inline double bestQuarter(std::vector<double> V, bool HigherIsBetter) {
  if (HigherIsBetter)
    std::sort(V.begin(), V.end(), std::greater<double>());
  else
    std::sort(V.begin(), V.end());
  V.resize((V.size() + 3) / 4);
  return median(std::move(V));
}

/// Nanoseconds per operation of the benchmark's own engine-shaped
/// calibration loop (HostSpeed.cpp): the host's current speed.
double calibrateNsPerOp();

/// The calibration speed end-to-end timings are scaled to.
constexpr double kNominalNsPerOp = 2.0;

/// Tracks the host's speed across a run. Other tenants of a shared host
/// can slow it by 15-40% for minutes at a time (a 4-vCPU Xeon VM);
/// calibrating between rounds and scaling each round's timings to the
/// nominal speed removes most of that from the end-to-end metrics.
class HostSpeed {
public:
  HostSpeed() : Last(calibrateNsPerOp()), All{Last} {}
  /// Calibrates again. \returns how much slower than nominal the host ran
  /// over the interval since the previous calibration (> 1 is slower).
  double interval() {
    double Now = calibrateNsPerOp();
    double Slowdown = (Last + Now) / 2.0 / kNominalNsPerOp;
    Last = Now;
    All.push_back(Now);
    return Slowdown;
  }
  /// The slowdown at the latest calibration.
  double current() const { return Last / kNominalNsPerOp; }
  double medianNsPerOp() const { return median(All); }

private:
  double Last;
  std::vector<double> All;
};

/// Times the calls into one layer: accumulates the span durations of
/// every call made through it. Untraced runs never construct one.
struct SpanTotal {
  double Us = 0.0;
  template <typename Fn> auto time(Fn &&F) {
    double T0 = nowUs();
    if constexpr (std::is_void_v<decltype(F())>) {
      F();
      Us += nowUs() - T0;
    } else {
      auto R = F();
      Us += nowUs() - T0;
      return R;
    }
  }
};

/// One workload run's outcome, printed by main.cpp.
struct Result {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  /// Invariants beyond per-operation checks (oracles, counters); a false
  /// one makes the run incorrect even when no operation failed.
  bool InvariantsHold = true;
  std::vector<std::pair<std::string, std::string>> Config; ///< pinned knobs
  struct Metric {
    std::string Name;
    double Value;
    std::string Unit;
  };
  std::vector<Metric> Metrics;

  void metric(std::string Name, double Value, std::string Unit) {
    Metrics.push_back({std::move(Name), Value, std::move(Unit)});
  }
  void config(std::string Key, std::string Value) {
    Config.emplace_back(std::move(Key), std::move(Value));
  }
  void config(std::string Key, uint64_t Value) {
    config(std::move(Key), std::to_string(Value));
  }
  double passedPct() const {
    return Attempted ? 100.0 * double(Attempted - Failed) / double(Attempted)
                     : 0.0;
  }
};

/// Process peak resident set, in MiB.
double peakRssMb();
/// Returns freed heap memory to the OS between program runs, so the
/// peak resident set is one run's peak rather than the allocator's
/// retention history across the runs before it.
void releaseFreedMemory();

/// One traced set-up (Setup.cpp): the pipeline driven one layer at a time
/// from outside, plus compileProgram and translateProgram timed whole.
struct SetupTrace {
  double InlineUs = 0, VerifyUs = 0, AnalysisUs = 0, CompileWallUs = 0,
         TranslateUs = 0;
  /// compileProgram's wall time minus its summed per-method compile
  /// times: the cost of the ThreadPool it builds on every call.
  double CompilePoolUs = 0;
  uint64_t CallsInlined = 0, InstrsOut = 0, BlockVisits = 0, Sites = 0,
           SitesElided = 0, FastInsts = 0;
};
SetupTrace traceSetUp(const satb::Program &P, const satb::CompilerOptions &CO,
                      const satb::TranslateOptions &TO);
SetupTrace &operator+=(SetupTrace &A, const SetupTrace &B);
/// The set-up metrics of the traced run: median times over \p Reps, and
/// the (repeatable) counts of the last one.
void reportSetUp(Result &Res, const std::vector<SetupTrace> &Reps);

Result runTable1(const Options &O, bool Marking);
Result runServer(const Options &O);
/// Writes the reference-Interpreter expected outputs for the Table 1
/// programs at the benchmark and self-test scales. \returns false on I/O
/// failure.
bool writeTable1Expected(const std::string &Path);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_COMMON_H
