//===- perfbench/harness/Table1.cpp - The table1_* workloads --------------===//
///
/// \file
/// The six Table 1 programs (allWorkloads()), compiled under
/// BarrierMode::Satb with elision on and run on one FastInterp each, in an
/// order drawn from the seed:
///
///  - table1_idle: each program runs to completion with no marking cycle,
///    then the heap it leaves gets one stop-the-world exit collection
///    (begin, finish, sweep). That collection is the workload's only
///    pause; it is timed apart from the run.
///  - table1_marking: the harness drives back-to-back SATB cycles on the
///    mutator's own thread, on a step-count schedule drawn from the seed:
///    an idle gap, then step(Q)/markStep(U) interleaving until the marker
///    is done, then the termination pause (finishMarking + sweep).
///
/// Every program run is checked against the expected-output record the
/// reference Interpreter produced (result, step count, per-site store
/// counters), and every collection against the snapshot oracle. Oracle
/// and check time is excluded from every end-to-end number.
///
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "interp/FastInterp.h"
#include "interp/Interpreter.h"
#include "workloads/Workload.h"

#include <array>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>

using namespace satb;
using namespace perfbench;

namespace {

constexpr int64_t kScale = 200000;
constexpr int64_t kTinyScale = 2000;
constexpr size_t kSatbBufferCap = 256;
/// Marking schedule: idle gaps are drawn uniformly from
/// [kGapSteps/2, 3*kGapSteps/2]; while marking, the mutator runs
/// kMarkQuantum steps per kMarkBudget marker work units.
constexpr uint64_t kGapSteps = 20000;
constexpr uint64_t kMarkQuantum = 1000;
constexpr size_t kMarkBudget = 200;
/// Set-up repetitions: discarded warm-up ones, ones before the first
/// round, and ones after every round, so the median set-up time samples
/// the whole run rather than its first milliseconds.
constexpr unsigned kSetupWarmup = 3, kSetupReps = 9, kSetupRepsPerRound = 3;

CompilerOptions table1Options(bool ApplyElision) {
  CompilerOptions O;
  O.Inline = InlineOptions{};   // limit 100, depth 6: the paper's setup
  O.Analysis = AnalysisConfig{}; // field + array analyses, RPO worklist
  O.Barrier = BarrierMode::Satb;
  O.ApplyElision = ApplyElision;
  O.EnableArrayRearrange = false;
  O.CompileThreads = 1;
  O.Interp = InterpMode::Fast;
  return O;
}

TranslateOptions table1Translate() {
  TranslateOptions T;
  T.InsertSafepoints = false;
  T.Fuse = true;
  T.Tier = TranslationTier::Static;
  return T;
}

// --- Expected outputs --------------------------------------------------------

struct Expected {
  int64_t ResultInt = 0;
  ObjRef ResultRef = NullRef;
  uint64_t Steps = 0;
  size_t FlatSize = 0;
  /// Flat site index -> {Execs, Elided, PreNull}; sites absent never ran.
  std::map<uint32_t, std::array<uint64_t, 3>> Sites;
};

using ExpectedTable = std::map<std::pair<std::string, int64_t>, Expected>;

bool readExpected(const std::string &Path, ExpectedTable &Out) {
  std::ifstream In(Path);
  if (!In)
    return false;
  std::string Tag;
  while (In >> Tag) {
    if (Tag == "#") {
      std::getline(In, Tag);
      continue;
    }
    if (Tag != "program")
      return false;
    std::string Name;
    int64_t Scale = 0;
    size_t N = 0;
    Expected E;
    In >> Name >> Scale >> E.ResultInt >> E.ResultRef >> E.Steps >>
        E.FlatSize >> N;
    for (size_t I = 0; I != N && In; ++I) {
      uint32_t Idx = 0;
      std::array<uint64_t, 3> C{};
      In >> Idx >> C[0] >> C[1] >> C[2];
      E.Sites[Idx] = C;
    }
    if (!In)
      return false;
    Out[{Name, Scale}] = std::move(E);
  }
  return true;
}

/// \returns an empty string when the run matches, else the first mismatch.
/// \p CountersExact is false for the elision-off variant, whose Elided
/// counters are zero by construction.
std::string mismatch(const Expected &E, const FastInterp &I,
                     bool CountersExact) {
  if (I.status() != RunStatus::Finished)
    return std::string("did not finish: ") + trapName(I.trap());
  if (I.result().Int != E.ResultInt || I.result().Ref != E.ResultRef)
    return "result differs";
  if (I.stepsExecuted() != E.Steps)
    return "step count differs";
  const std::vector<SiteStats> &Flat = I.stats().flat();
  if (Flat.size() != E.FlatSize)
    return "site table differs";
  for (uint32_t Idx = 0; Idx != Flat.size(); ++Idx) {
    const SiteStats &S = Flat[Idx];
    auto It = E.Sites.find(Idx);
    std::array<uint64_t, 3> Want =
        It == E.Sites.end() ? std::array<uint64_t, 3>{} : It->second;
    if (S.Execs != Want[0] || S.PreNull != Want[2] ||
        (CountersExact && S.Elided != Want[1]))
      return "store counters differ at site " + std::to_string(Idx);
    if (S.Violations != 0 || S.RemSetViolations != 0)
      return "elision violation at site " + std::to_string(Idx);
  }
  return "";
}

// --- Set-up ------------------------------------------------------------------

struct Program1 {
  Workload W;
  CompiledProgram CP;
  FastProgram FP;
};

/// Compile, translate and build an engine for every program: the set-up
/// a user pays before the first mutator step. \returns its wall time (us).
double setUp(std::vector<Program1> &Progs, const CompilerOptions &CO) {
  double T0 = nowUs();
  for (Program1 &Pr : Progs) {
    Pr.CP = compileProgram(*Pr.W.P, CO);
    Pr.FP = translateProgram(*Pr.W.P, Pr.CP, table1Translate());
    Heap H(*Pr.W.P);
    SatbMarker M(H, kSatbBufferCap);
    FastInterp E(Pr.FP, Pr.CP, H);
    E.attachSatb(&M);
  }
  return nowUs() - T0;
}

// --- One round: every program once -----------------------------------------

/// Per-layer span totals of a traced round (null in untraced rounds).
struct LayerSpans {
  SpanTotal Mutator, Begin, Mark, Final, Sweep;
  double sumUs() const {
    return Mutator.Us + Begin.Us + Mark.Us + Final.Us + Sweep.Us;
  }
};

template <typename Fn> auto inSpan(SpanTotal *S, Fn &&F) {
  return S ? S->time(F) : F();
}

struct RoundStats {
  uint64_t Runs = 0, Failed = 0, Steps = 0;
  double RunUs = 0;  ///< start() to finish, in-run collections included
  double WallUs = 0; ///< engine build + run + exit collection
  double OracleUs = 0;
  bool OracleHolds = true;
  std::vector<double> PausesUs; ///< termination / exit-collection pauses
  BarrierStats::Summary Stores;
  uint64_t Allocated = 0, BytesAllocated = 0, LiveEnd = 0;
  uint64_t Cycles = 0, MarkWork = 0, Logged = 0, FinalWork = 0, Swept = 0;
  LayerSpans Spans;
};

class Table1Runner {
public:
  Table1Runner(bool Marking, int64_t Scale, uint64_t Seed)
      : Marking(Marking), Scale(Scale), Seed(Seed) {}

  /// Runs every program once in \p Order. \p Traced wraps each call into
  /// a layer in a span; \p Oracle evaluates the snapshot oracle at every
  /// collection (off only in the elision pairs, which time nothing else).
  RoundStats round(const std::vector<Program1> &Progs,
                   const std::vector<size_t> &Order,
                   const std::vector<const Expected *> &Exp, bool Traced,
                   bool Oracle, bool CountersExact) const {
    RoundStats R;
    for (size_t Idx : Order)
      runProgram(Progs[Idx], Idx, Exp[Idx], Traced, Oracle, CountersExact, R);
    return R;
  }

  /// One program run, added into \p R. Its heap is gone on return.
  void runProgram(const Program1 &Pr, size_t Idx, const Expected *Exp,
                  bool Traced, bool Oracle, bool CountersExact,
                  RoundStats &R) const {
    LayerSpans *Sp = Traced ? &R.Spans : nullptr;
    const bool OracleHeld = R.OracleHolds;
    R.OracleHolds = true;
    releaseFreedMemory(); // the previous program's heap
    double T0 = nowUs();
    Heap H(*Pr.W.P);
    SatbMarker M(H, kSatbBufferCap);
    FastInterp E(Pr.FP, Pr.CP, H);
    E.attachSatb(&M);
    double Oracle0 = R.OracleUs;
    double T1 = nowUs();
    if (Marking)
      runMarking(E, M, H, Pr.W.Entry, Idx, stepLimit(Exp), Sp, Oracle, R);
    else
      inSpan(Sp ? &Sp->Mutator : nullptr,
             [&] { return E.run(Pr.W.Entry, {Scale}, stepLimit(Exp)); });
    double T2 = nowUs();
    R.LiveEnd += H.numLive();
    if (!Marking)
      collect(E, M, H, Sp, Oracle, R);
    double T3 = nowUs();
    double OracleSpent = R.OracleUs - Oracle0;
    R.RunUs += T2 - T1 - (Marking ? OracleSpent : 0.0);
    R.WallUs += T3 - T0 - OracleSpent;

    ++R.Runs;
    R.Steps += E.stepsExecuted();
    BarrierStats::Summary S = E.stats().summarize();
    R.Stores.TotalExecs += S.TotalExecs;
    R.Stores.ElidedExecs += S.ElidedExecs;
    R.Stores.PreNullExecs += S.PreNullExecs;
    R.Allocated += H.numAllocated();
    R.BytesAllocated += H.bytesAllocatedApprox();
    const SatbStats &SS = M.stats();
    R.MarkWork += SS.ConcurrentWork;
    R.Logged += SS.LoggedPreValues;
    R.FinalWork += SS.FinalPauseWork;
    R.Swept += SS.SweptObjects;
    std::string Why = Exp ? mismatch(*Exp, E, CountersExact)
                          : std::string("no expected-output record");
    if (!R.OracleHolds)
      Why = "snapshot oracle broken";
    R.OracleHolds &= OracleHeld;
    if (!Why.empty()) {
      ++R.Failed;
      std::fprintf(stderr, "perfbench: %s: %s\n", Pr.W.Name.c_str(),
                   Why.c_str());
    }
  }

private:
  static uint64_t stepLimit(const Expected *E) {
    return E ? 2 * E->Steps + 1000 : 2'000'000'000;
  }

  /// The snapshot oracle: the start-of-marking reachable set, which must
  /// be entirely marked at the termination pause. Timed into OracleUs.
  void snapshot(Heap &H, const std::vector<ObjRef> &Roots, bool Oracle,
                std::vector<bool> &Snap, RoundStats &R) const {
    if (!Oracle)
      return;
    double T0 = nowUs();
    Snap = computeReachable(H, Roots);
    R.OracleUs += nowUs() - T0;
  }

  void checkSnapshot(Heap &H, const std::vector<bool> &Snap,
                     RoundStats &R) const {
    double T0 = nowUs();
    for (ObjRef Ref = 1; Ref < Snap.size(); ++Ref)
      if (Snap[Ref] && !(H.isLive(Ref) && H.isMarked(Ref)))
        R.OracleHolds = false;
    R.OracleUs += nowUs() - T0;
  }

  /// table1_idle's exit collection: one stop-the-world cycle over the
  /// heap the finished program left behind.
  void collect(FastInterp &E, SatbMarker &M, Heap &H, LayerSpans *Sp,
               bool Oracle, RoundStats &R) const {
    double T0 = nowUs(), OracleBefore = R.OracleUs;
    std::vector<bool> Snap;
    std::vector<ObjRef> Roots;
    inSpan(Sp ? &Sp->Begin : nullptr, [&] {
      E.collectRoots(Roots);
      M.beginMarking(Roots);
    });
    snapshot(H, Roots, Oracle, Snap, R);
    inSpan(Sp ? &Sp->Final : nullptr, [&] { return M.finishMarking(); });
    checkSnapshot(H, Snap, R);
    inSpan(Sp ? &Sp->Sweep : nullptr, [&] { return M.sweep(); });
    ++R.Cycles;
    R.PausesUs.push_back(nowUs() - T0 - (R.OracleUs - OracleBefore));
  }

  /// table1_marking's mutator: back-to-back SATB cycles on the seeded
  /// step-count schedule. The schedule depends only on the seed and the
  /// program, so every round (and both elision variants) replays it.
  void runMarking(FastInterp &E, SatbMarker &M, Heap &H, MethodId Entry,
                  size_t ProgIdx, uint64_t StepLimit, LayerSpans *Sp,
                  bool Oracle, RoundStats &R) const {
    Rng Gaps(Seed * 0x9e3779b97f4a7c15ull + ProgIdx);
    SpanTotal *Mut = Sp ? &Sp->Mutator : nullptr;
    E.start(Entry, {Scale});
    std::vector<ObjRef> Roots;
    while (E.status() == RunStatus::Running) {
      inSpan(Mut, [&] {
        return E.step(Gaps.uniform(kGapSteps / 2, 3 * kGapSteps / 2));
      });
      if (E.status() != RunStatus::Running)
        break;
      std::vector<bool> Snap;
      inSpan(Sp ? &Sp->Begin : nullptr, [&] {
        E.collectRoots(Roots);
        M.beginMarking(Roots);
      });
      snapshot(H, Roots, Oracle, Snap, R);
      bool Done = false;
      while (!Done && E.status() == RunStatus::Running) {
        inSpan(Mut, [&] { return E.step(kMarkQuantum); });
        Done = inSpan(Sp ? &Sp->Mark : nullptr,
                      [&] { return M.markStep(kMarkBudget); });
      }
      double T0 = nowUs(), OracleBefore = R.OracleUs;
      inSpan(Sp ? &Sp->Final : nullptr, [&] { return M.finishMarking(); });
      checkSnapshot(H, Snap, R);
      inSpan(Sp ? &Sp->Sweep : nullptr, [&] { return M.sweep(); });
      ++R.Cycles;
      R.PausesUs.push_back(nowUs() - T0 - (R.OracleUs - OracleBefore));
      if (E.stepsExecuted() > StepLimit)
        break; // a runaway program; the expected-output check fails it
    }
  }

  bool Marking;
  int64_t Scale;
  uint64_t Seed;
};

std::vector<Program1> loadPrograms() {
  std::vector<Program1> Progs;
  for (Workload &W : allWorkloads())
    Progs.push_back(Program1{std::move(W), {}, {}});
  return Progs;
}

} // namespace

// --- The workload ------------------------------------------------------------

Result perfbench::runTable1(const Options &O, bool Marking) {
  Result Res;
  const int64_t Scale = O.Tiny ? kTinyScale : kScale;
  Rng Seeded(O.Seed);
  const CompilerOptions CO = table1Options(true);

  Res.config("scale", uint64_t(Scale));
  Res.config("barrier_mode", "Satb");
  Res.config("apply_elision", "true");
  Res.config("inline_limit", uint64_t(CO.Inline.InlineLimit));
  Res.config("inline_max_depth", uint64_t(CO.Inline.MaxDepth));
  Res.config("analysis_mode", "FieldAndArray");
  Res.config("compile_threads", uint64_t(CO.CompileThreads));
  Res.config("translate_fuse", "true");
  Res.config("tiered", "false");
  Res.config("satb_buffer_cap", uint64_t(kSatbBufferCap));
  Res.config("nursery", "off");
  if (Marking) {
    Res.config("mark_gap_steps", uint64_t(kGapSteps));
    Res.config("mark_quantum_steps", kMarkQuantum);
    Res.config("mark_budget_units", uint64_t(kMarkBudget));
  }

  ExpectedTable Table;
  if (!readExpected(O.ExpectedPath, Table)) {
    std::fprintf(stderr, "perfbench: cannot read expected outputs from '%s'\n",
                 O.ExpectedPath.c_str());
    Res.InvariantsHold = false;
  }

  // Set-up, repeated; the latest repetition's programs are the ones run.
  // Raw and scaled to the nominal host speed (see HostSpeed).
  HostSpeed Host;
  std::vector<Program1> Progs = loadPrograms();
  std::vector<double> SetupRawUs, SetupUs;
  auto measureSetUp = [&](unsigned Reps) {
    for (unsigned I = 0; I != Reps; ++I) {
      SetupRawUs.push_back(setUp(Progs, CO));
      SetupUs.push_back(SetupRawUs.back() / Host.current());
    }
  };
  measureSetUp(kSetupWarmup);
  SetupRawUs.clear();
  SetupUs.clear();
  measureSetUp(kSetupReps);

  std::vector<const Expected *> Exp;
  for (const Program1 &Pr : Progs) {
    auto It = Table.find({Pr.W.Name, Scale});
    Exp.push_back(It == Table.end() ? nullptr : &It->second);
  }
  const std::vector<size_t> Order = Seeded.permutation(Progs.size());
  std::string OrderStr;
  for (size_t I : Order)
    OrderStr += (OrderStr.empty() ? "" : ",") + Progs[I].W.Name;
  Res.config("program_order", OrderStr);

  Table1Runner Runner(Marking, Scale, O.Seed);
  const double Budget = O.Seconds * 1e6;
  const double Start = nowUs();
  auto account = [&](const RoundStats &R) {
    Res.Attempted += R.Runs;
    Res.Failed += R.Failed;
    Res.InvariantsHold &= R.OracleHolds;
  };

  if (!O.Trace) {
    // Per round: raw, and scaled by the host's slowdown over the round.
    std::vector<double> StepsRaw, RunsRaw, PauseRaw, StepsPerS, RunsPerS,
        PauseP50;
    RoundStats Last;
    while (StepsPerS.size() < 3 || nowUs() - Start < Budget) {
      RoundStats R = Runner.round(Progs, Order, Exp, false, true, true);
      account(R);
      const double Slowdown = Host.interval();
      StepsRaw.push_back(R.Steps / (R.RunUs / 1e6));
      RunsRaw.push_back(R.Runs / (R.WallUs / 1e6));
      PauseRaw.push_back(median(R.PausesUs));
      StepsPerS.push_back(StepsRaw.back() * Slowdown);
      RunsPerS.push_back(RunsRaw.back() * Slowdown);
      PauseP50.push_back(PauseRaw.back() / Slowdown);
      Last = std::move(R);
      measureSetUp(kSetupRepsPerRound);
    }
    Res.config("rounds", uint64_t(StepsPerS.size()));
    Res.config("host_ns_per_op", std::to_string(Host.medianNsPerOp()));
    Res.config("raw_setup_s",
               std::to_string(bestQuarter(SetupRawUs, false) / 1e6));
    Res.config("raw_steps_per_s", std::to_string(bestQuarter(StepsRaw, true)));
    Res.config("raw_requests_per_s",
               std::to_string(bestQuarter(RunsRaw, true)));
    Res.config("raw_pause_p50_us",
               std::to_string(bestQuarter(PauseRaw, false)));
    Res.metric("setup_s", bestQuarter(SetupUs, false) / 1e6, "s");
    Res.metric("steps_per_s", bestQuarter(StepsPerS, true), "1/s");
    Res.metric("requests_per_s", bestQuarter(RunsPerS, true), "1/s");
    Res.metric("pause_p50_us", bestQuarter(PauseP50, false), "us");
    Res.metric("elided_store_pct", Last.Stores.pctElided(), "%");
    Res.metric("peak_rss_mb", peakRssMb(), "MB");
    Res.metric("passed_pct", Res.passedPct(), "%");
    return Res;
  }

  // --- Traced run ------------------------------------------------------------
  // Set-up, one layer at a time.
  std::vector<SetupTrace> Setups;
  for (unsigned I = 0; I != kSetupReps; ++I) {
    SetupTrace Sum;
    for (const Program1 &Pr : Progs)
      Sum += traceSetUp(*Pr.W.P, CO, table1Translate());
    Setups.push_back(Sum);
  }
  reportSetUp(Res, Setups);

  // Half the budget: untraced and traced rounds alternate, so each traced
  // round's layers are checked against the untraced round beside it (the
  // pair shares the host's speed of the moment).
  std::vector<double> WallUntraced, LayersPct, OtherPct, OverheadPct;
  std::vector<double> Mutator, Begin, Mark, Final, Sweep, Oracle, PauseP50,
      Pauses;
  RoundStats Last;
  while (LayersPct.size() < 2 || nowUs() - Start < Budget / 2) {
    RoundStats U = Runner.round(Progs, Order, Exp, false, true, true);
    account(U);
    RoundStats T = Runner.round(Progs, Order, Exp, true, true, true);
    account(T);
    Host.interval();
    WallUntraced.push_back(U.WallUs);
    LayersPct.push_back(100.0 * T.Spans.sumUs() / U.WallUs);
    OtherPct.push_back(100.0 * (T.WallUs - T.Spans.sumUs()) / U.WallUs);
    OverheadPct.push_back(100.0 * (T.WallUs - U.WallUs) / U.WallUs);
    Mutator.push_back(T.Spans.Mutator.Us);
    Begin.push_back(T.Spans.Begin.Us);
    Mark.push_back(T.Spans.Mark.Us);
    Final.push_back(T.Spans.Final.Us);
    Sweep.push_back(T.Spans.Sweep.Us);
    Oracle.push_back(T.OracleUs);
    PauseP50.push_back(median(T.PausesUs));
    Pauses.insert(Pauses.end(), T.PausesUs.begin(), T.PausesUs.end());
    Last = std::move(T);
  }
  Res.metric("host.ns_per_op", Host.medianNsPerOp(), "ns");
  Res.metric("trace.rounds", LayersPct.size(), "count");
  Res.metric("trace.wall_untraced_ms", median(WallUntraced) / 1e3, "ms");
  Res.metric("trace.layers_pct", median(LayersPct), "%");
  Res.metric("trace.other_pct", median(OtherPct), "%");
  Res.metric("trace.overhead_pct", median(OverheadPct), "%");

  const double MutUs = median(Mutator);
  Res.metric("interp.mutator_us", MutUs, "us");
  Res.metric("interp.steps", Last.Steps, "count");
  Res.metric("interp.ns_per_step", 1e3 * MutUs / Last.Steps, "ns");
  Res.metric("interp.store_execs", Last.Stores.TotalExecs, "count");
  Res.metric("interp.store_elided", Last.Stores.ElidedExecs, "count");
  Res.metric("interp.prenull_execs", Last.Stores.PreNullExecs, "count");
  Res.metric("heap.objects_allocated", Last.Allocated, "count");
  Res.metric("heap.bytes_allocated", Last.BytesAllocated, "bytes");
  Res.metric("heap.live_objects_end", Last.LiveEnd, "count");
  Res.metric("gc.cycles", Last.Cycles, "count");
  Res.metric("gc.begin_us", median(Begin), "us");
  Res.metric("gc.mark_us", median(Mark), "us");
  Res.metric("gc.mark_work", Last.MarkWork, "count");
  Res.metric("gc.logged_pre_values", Last.Logged, "count");
  Res.metric("gc.final_pause_us", median(Final), "us");
  Res.metric("gc.final_pause_work", Last.FinalWork, "count");
  Res.metric("gc.sweep_us", median(Sweep), "us");
  Res.metric("gc.swept_objects", Last.Swept, "count");
  {
    std::sort(Pauses.begin(), Pauses.end());
    Res.metric("gc.pause_p50_us", median(PauseP50), "us");
    Res.metric("gc.pause_p99_us",
               Pauses.empty() ? 0.0 : Pauses[Pauses.size() * 99 / 100], "us");
  }
  Res.metric("gc.oracle_us", median(Oracle), "us");

  // The other half: the matched barrier cost on FastInterp. The same
  // programs compiled with elision off and on allocate and dispatch
  // identically, so the wall-time difference per elided store is what
  // the kept barrier costs there. Each program runs off and on back to
  // back, alternating which goes first; one pass over the programs gives
  // one estimate, and the median over passes is reported.
  std::vector<Program1> NoElide = loadPrograms();
  setUp(NoElide, table1Options(false));
  std::vector<double> Saving;
  while (Saving.size() < 3 || nowUs() - Start < Budget) {
    RoundStats Off, On;
    for (size_t Idx : Order)
      for (bool RunOff : {true, false}) {
        RunOff ^= (Saving.size() + Idx) % 2 == 1;
        Runner.runProgram(RunOff ? NoElide[Idx] : Progs[Idx], Idx, Exp[Idx],
                          false, false, !RunOff, RunOff ? Off : On);
      }
    account(Off);
    account(On);
    Saving.push_back(1e3 * (Off.RunUs - On.RunUs) /
                     double(std::max<uint64_t>(On.Stores.ElidedExecs, 1)));
  }
  Res.metric("interp.elision_pairs", Saving.size(), "count");
  Res.metric("interp.elision_saving_ns_per_store", median(Saving), "ns");
  return Res;
}

bool perfbench::writeTable1Expected(const std::string &Path) {
  std::ofstream Out(Path);
  if (!Out)
    return false;
  Out << "# Expected outputs of the Table 1 programs (BarrierMode::Satb,\n"
         "# elision on), produced by the reference Interpreter with\n"
         "# `perfbench_harness --write-expected`. Per program:\n"
         "# program <name> <scale> <result.int> <result.ref> <steps>"
         " <flat sites> <listed sites>\n"
         "# then one line per executed site: <flat index> <execs> <elided>"
         " <prenull>\n";
  for (int64_t Scale : {kScale, kTinyScale}) {
    for (Workload &W : allWorkloads()) {
      CompilerOptions CO = table1Options(true);
      CO.Interp = InterpMode::Reference;
      CompiledProgram CP = compileProgram(*W.P, CO);
      Heap H(*W.P);
      SatbMarker M(H, kSatbBufferCap);
      Interpreter I(*W.P, CP, H);
      I.attachSatb(&M);
      if (I.run(W.Entry, {Scale}) != RunStatus::Finished) {
        std::fprintf(stderr, "perfbench: %s trapped under the reference "
                             "interpreter: %s\n",
                     W.Name.c_str(), trapName(I.trap()));
        return false;
      }
      const std::vector<SiteStats> &Flat = I.stats().flat();
      std::ostringstream Sites;
      size_t Listed = 0;
      for (uint32_t Idx = 0; Idx != Flat.size(); ++Idx) {
        const SiteStats &S = Flat[Idx];
        if (S.Execs == 0)
          continue;
        ++Listed;
        Sites << Idx << ' ' << S.Execs << ' ' << S.Elided << ' ' << S.PreNull
              << '\n';
      }
      Out << "program " << W.Name << ' ' << Scale << ' ' << I.result().Int
          << ' ' << I.result().Ref << ' ' << I.stepsExecuted() << ' '
          << Flat.size() << ' ' << Listed << '\n'
          << Sites.str();
    }
  }
  return bool(Out);
}
