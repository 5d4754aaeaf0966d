//===- tools/dispatch_profile.cpp - Dynamic opcode-pair profiler ----------===//
///
/// \file
/// The data behind the superinstruction set (DESIGN.md
/// "Superinstructions"): runs every Table 1 workload on the *unfused*
/// fast engine with pair profiling enabled (FastInterp::
/// enablePairProfile, a separate dispatch-loop instantiation — the
/// production loop carries no profiling cost) and dumps the dynamic
/// opcode-pair frequencies, aggregated across the suite and sorted by
/// count. Each row is marked [fused] when fusedOp() selects the pair,
/// so the dump doubles as an audit: the chosen set should cover the top
/// of this list, and any hot unfused pair is a candidate for the next
/// revision.
///
/// Usage: dispatch_profile [scale] [--threshold=PCT]
///
/// [scale] defaults to 2000. --threshold=PCT suppresses rows whose share
/// of dynamic adjacent pairs is below PCT — the tail is summarized
/// instead of printed, with its aggregate coverage, so the cut is
/// auditable.
///
/// A bulk-store program rides along with the Table 1 suite so the
/// ArrayFill_*/ArrayCopy_* opcodes show up in the dump, and their
/// dynamic share is summarized separately. Bulk opcodes are *excluded
/// from pair fusion by design* (fusedOp never selects a pair containing
/// one): a single bulk dispatch already amortizes the dispatch cost over
/// the whole range, so fusing it with a neighbor buys nothing — the
/// summary line keeps that exclusion auditable.
///
/// Regenerate the pair profile DESIGN.md quotes with
/// `dispatch_profile 500 --threshold=0.05`.
///
//===----------------------------------------------------------------------===//

#include "bytecode/MethodBuilder.h"
#include "interp/FastInterp.h"
#include "workloads/Workload.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

using namespace satb;

namespace {

/// True for every ArrayFill_*/ArrayCopy_* opcode; fusedOp never pairs
/// them.
bool isBulkOp(FastOp Op) {
  std::optional<StoreOpInfo> SI = storeOpInfo(Op);
  return SI && (SI->Kind == StoreKind::ArrayFill ||
                SI->Kind == StoreKind::ArrayCopy);
}

/// A bulk-store rider workload: per transaction, one elided fill of a
/// fresh 8-slot array and one elided copy into a second fresh array —
/// enough to put the bulk opcodes into the pair stream.
Workload makeBulkRider() {
  Workload W;
  W.Name = "bulk";
  W.Description = "bulk-store rider for dispatch coverage";
  W.P = std::make_shared<Program>();
  MethodBuilder B(*W.P, "main", {JType::Int}, JType::Int);
  Local T = B.newLocal(JType::Int);
  Local Src = B.newLocal(JType::Ref), Dst = B.newLocal(JType::Ref);
  Label Head = B.newLabel(), Done = B.newLabel();
  B.iconst(0).istore(T);
  B.bind(Head).iload(T).iload(B.arg(0)).ifICmpGe(Done);
  B.iconst(8).newRefArray().astore(Src);
  B.aload(Src).aload(Src).iconst(0).iconst(8).arrayfill();
  B.iconst(8).newRefArray().astore(Dst);
  B.aload(Src).iconst(0).aload(Dst).iconst(0).iconst(8).arraycopy();
  B.iinc(T, 1).jump(Head);
  B.bind(Done).iload(T).ireturn();
  W.Entry = B.finish();
  return W;
}

} // namespace

int main(int Argc, char **Argv) {
  int64_t Scale = 2000;
  double ThresholdPct = 0.0; // print everything by default
  for (int I = 1; I != Argc; ++I) {
    const char *Arg = Argv[I];
    if (std::strncmp(Arg, "--threshold=", 12) == 0) {
      ThresholdPct = std::atof(Arg + 12);
    } else if (std::strcmp(Arg, "--threshold") == 0 && I + 1 != Argc) {
      ThresholdPct = std::atof(Argv[++I]);
    } else if (Arg[0] == '-') {
      std::fprintf(stderr,
                   "usage: dispatch_profile [scale] [--threshold=PCT]\n");
      return 2;
    } else {
      Scale = std::atoll(Arg);
    }
  }

  CompilerOptions Opts;
  std::vector<uint64_t> Total(static_cast<size_t>(kNumFastOps) * kNumFastOps,
                              0);
  uint64_t Steps = 0;
  std::vector<Workload> Suite = allWorkloads();
  Suite.push_back(makeBulkRider());
  for (const Workload &W : Suite) {
    CompiledProgram CP = compileProgram(*W.P, Opts);
    TranslateOptions TO;
    TO.Fuse = false; // profile the base stream: pairs are fusion *input*
    FastProgram FP = translateProgram(*W.P, CP, TO);
    Heap H(*W.P);
    FastInterp I(FP, CP, H);
    SatbMarker M(H);
    I.attachSatb(&M);
    I.enablePairProfile();
    if (I.run(W.Entry, {Scale}) != RunStatus::Finished) {
      std::fprintf(stderr, "dispatch_profile: %s trapped: %s\n",
                   W.Name.c_str(), trapName(I.trap()));
      return 1;
    }
    Steps += I.stepsExecuted();
    const std::vector<uint64_t> &P = I.pairProfile();
    for (size_t K = 0; K != P.size(); ++K)
      Total[K] += P[K];
  }

  struct Row {
    uint64_t Count;
    uint16_t First, Second;
  };
  std::vector<Row> Rows;
  uint64_t PairTotal = 0;
  for (uint16_t F = 0; F != kNumFastOps; ++F)
    for (uint16_t S = 0; S != kNumFastOps; ++S) {
      uint64_t C = Total[static_cast<size_t>(F) * kNumFastOps + S];
      if (C == 0)
        continue;
      Rows.push_back({C, F, S});
      PairTotal += C;
    }
  std::sort(Rows.begin(), Rows.end(),
            [](const Row &A, const Row &B) { return A.Count > B.Count; });

  std::printf("# dynamic opcode-pair profile, Table 1 suite, scale %lld\n",
              static_cast<long long>(Scale));
  std::printf("# steps %llu, adjacent pairs %llu, distinct pairs %zu\n",
              static_cast<unsigned long long>(Steps),
              static_cast<unsigned long long>(PairTotal), Rows.size());
  if (ThresholdPct > 0.0)
    std::printf("# threshold: hiding pairs below %.3f%% of dynamic total\n",
                ThresholdPct);
  std::printf("%-12s %7s %6s  %s\n", "count", "pct", "cum", "pair");
  double Cum = 0.0;
  uint64_t FusedCovered = 0;
  uint64_t Excluded = 0, ExcludedFused = 0;
  size_t ExcludedRows = 0;
  for (const Row &R : Rows) {
    double Pct = 100.0 * R.Count / PairTotal;
    Cum += Pct;
    bool Fused = fusedOp(static_cast<FastOp>(R.First),
                         static_cast<FastOp>(R.Second))
                     .has_value();
    if (Fused)
      FusedCovered += R.Count;
    if (Pct < ThresholdPct) {
      // Rows arrive sorted, so everything from here down is tail; keep
      // accumulating instead of printing.
      Excluded += R.Count;
      ExcludedFused += Fused ? R.Count : 0;
      ++ExcludedRows;
      continue;
    }
    std::printf("%-12llu %6.2f%% %5.1f%%  %s+%s%s\n",
                static_cast<unsigned long long>(R.Count), Pct, Cum,
                fastOpName(static_cast<FastOp>(R.First)),
                fastOpName(static_cast<FastOp>(R.Second)),
                Fused ? "  [fused]" : "");
  }
  if (ExcludedRows)
    std::printf("# threshold excluded %zu pairs covering %.2f%% of dynamic "
                "adjacent pairs (%.2f%% of them already fused)\n",
                ExcludedRows, PairTotal ? 100.0 * Excluded / PairTotal : 0.0,
                Excluded ? 100.0 * ExcludedFused / Excluded : 0.0);
  std::printf("# fused pairs cover %.1f%% of dynamic adjacent pairs\n",
              PairTotal ? 100.0 * FusedCovered / PairTotal : 0.0);
  // Bulk-store coverage: executions counted as the pair's first element
  // (each executed instruction heads exactly one adjacent pair).
  uint64_t BulkExecs = 0, BulkPairs = 0;
  for (const Row &R : Rows) {
    bool B1 = isBulkOp(static_cast<FastOp>(R.First));
    bool B2 = isBulkOp(static_cast<FastOp>(R.Second));
    if (B1)
      BulkExecs += R.Count;
    if (B1 || B2)
      BulkPairs += R.Count;
  }
  std::printf("# bulk stores: %llu executions, %.2f%% of adjacent pairs touch "
              "a bulk opcode;\n# bulk opcodes never fuse (by design: one bulk "
              "dispatch covers the whole range)\n",
              static_cast<unsigned long long>(BulkExecs),
              PairTotal ? 100.0 * BulkPairs / PairTotal : 0.0);
  return 0;
}
