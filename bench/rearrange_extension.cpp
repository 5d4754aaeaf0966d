//===- bench/rearrange_extension.cpp - Section 4.3 rearrangement ----------===//
///
/// \file
/// Measures the array-rearrangement protocol on the workloads containing
/// the paper's target idiom (jbb's delete-element move-down loop), plus
/// an isolated delete-heavy microworkload. Reported per configuration:
/// SATB pre-values logged during a concurrent cycle, protocol bracket
/// outcomes (clean vs. retraced), final pause work, and the snapshot
/// oracle (which must hold in every configuration).
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "bytecode/MethodBuilder.h"

using namespace satb;
using namespace satb::bench;

namespace {

struct CycleResult {
  uint64_t Logged = 0;
  uint64_t Rearranged = 0;
  uint64_t Clean = 0, Retraced = 0;
  size_t Pause = 0;
  bool Oracle = false;
};

CycleResult runCycle(const Workload &W, bool Enable, int64_t Scale) {
  CompilerOptions Opts;
  Opts.EnableArrayRearrange = Enable;
  CompiledProgram CP = compileProgram(*W.P, Opts);
  Heap H(*W.P);
  SatbMarker M(H);
  Interpreter I(*W.P, CP, H);
  I.attachSatb(&M);
  ConcurrentRunConfig RC;
  RC.WarmupSteps = 2000;
  RC.MutatorQuantum = 256;
  RC.MarkerQuantum = 4;
  ConcurrentRunResult R = runWithConcurrentCycle(I, M, H, W.Entry, {Scale}, RC);
  CycleResult C;
  C.Logged = M.stats().LoggedPreValues;
  C.Rearranged = I.stats().summarize().RearrangedExecs;
  C.Clean = M.stats().RearrangesClean;
  C.Retraced = M.stats().RearrangeRetraces;
  C.Pause = R.FinalPauseWork;
  C.Oracle = R.OracleHolds;
  return C;
}

/// An isolated delete-heavy workload: a shared 16-element order table,
/// refilled and move-down-deleted every transaction.
Workload makeDeleteHeavy() {
  Workload W;
  W.Name = "delete-heavy";
  W.P = std::make_shared<Program>();
  Program &P = *W.P;
  ClassId Node = P.addClass("Node");
  P.addField(Node, "x", JType::Ref);
  StaticFieldId ArrSt = P.addStaticField("arr", JType::Ref);

  MethodBuilder D(P, "deleteFirst", {JType::Ref}, std::nullopt);
  {
    Local Arr = D.arg(0), J = D.newLocal(JType::Int);
    Label Head = D.newLabel(), Exit = D.newLabel();
    D.iconst(0).istore(J);
    D.bind(Head).iload(J).aload(Arr).arraylength().iconst(1).isub()
        .ifICmpGe(Exit);
    D.aload(Arr).iload(J);
    D.aload(Arr).iload(J).iconst(1).iadd().aaload();
    D.aastore();
    D.iinc(J, 1).jump(Head);
    D.bind(Exit).ret();
  }
  MethodId Delete = D.finish();

  MethodBuilder B(P, "main", {JType::Int}, std::nullopt);
  Local N = B.arg(0), T = B.newLocal(JType::Int);
  Local Arr = B.newLocal(JType::Ref);
  Label Loop = B.newLabel(), Done = B.newLabel();
  B.iconst(16).newRefArray().astore(Arr);
  B.aload(Arr).putstatic(ArrSt);
  B.iconst(0).istore(T);
  B.bind(Loop).iload(T).iload(N).ifICmpGe(Done);
  B.aload(Arr).iload(T).iconst(16).irem().newInstance(Node).aastore();
  B.aload(Arr).invoke(Delete);
  B.iinc(T, 1).jump(Loop);
  B.bind(Done).ret();
  W.Entry = B.finish();
  W.DefaultScale = 3000;
  return W;
}

} // namespace

int main() {
  int64_t Scale = benchScale(3000);
  std::printf("Section 4.3 array-rearrangement protocol during a concurrent "
              "SATB cycle\n(scale %lld)\n",
              static_cast<long long>(Scale));
  printRule(96);
  std::printf("%-13s %13s %13s %12s %14s %12s %7s\n", "workload",
              "logged(off)", "logged(on)", "rearranged", "clean/retrace",
              "pause(on)", "oracle");
  printRule(96);

  std::vector<Workload> Targets;
  Targets.push_back(makeDeleteHeavy());
  Targets.push_back(makeJbbLike());
  Targets.push_back(makeDbLike());

  for (const Workload &W : Targets) {
    CycleResult Off = runCycle(W, false, Scale);
    CycleResult On = runCycle(W, true, Scale);
    if (!Off.Oracle || !On.Oracle) {
      std::fprintf(stderr, "oracle violated on %s\n", W.Name.c_str());
      return 1;
    }
    char CleanBuf[32];
    std::snprintf(CleanBuf, sizeof(CleanBuf), "%llu/%llu",
                  static_cast<unsigned long long>(On.Clean),
                  static_cast<unsigned long long>(On.Retraced));
    std::printf("%-13s %13llu %13llu %12llu %14s %12zu %7s\n",
                W.Name.c_str(), static_cast<unsigned long long>(Off.Logged),
                static_cast<unsigned long long>(On.Logged),
                static_cast<unsigned long long>(On.Rearranged), CleanBuf,
                On.Pause, "HOLDS");
  }
  printRule(96);
  std::printf("Shape checks: the protocol removes most per-store logging "
              "in move-down loops (one\nlogged value per loop execution "
              "instead of one per store) and in db's swap idiom\n(both "
              "stores covered by one enter-time log — \"we could "
              "eliminate both barriers in\nthe swap idiom with this "
              "approach\", Section 4.3); overlapping brackets retrace\n"
              "instead of logging.\n");
  return 0;
}
