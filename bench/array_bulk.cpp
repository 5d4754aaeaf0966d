//===- bench/array_bulk.cpp - Bulk-store vs per-slot array stores ---------===//
///
/// \file
/// The bulk-store experiment (ROADMAP item "Bulk-store barriers and
/// array-range elision"): matched workload pairs that initialize or copy
/// 64-element reference arrays either with a per-slot aastore loop or
/// with one ArrayFill/ArrayCopy bulk bytecode, on fresh (range-elidable)
/// and escaped long-lived (range-barrier) destinations.
///
/// Per pair we report mutator wall time, dynamic store-site executions,
/// and the elision rate. The trailing "total" row carries the summed
/// per-slot over summed bulk wall time of the matched pairs, and the
/// range elision rate: dynamic bulk-store executions whose marking
/// barrier the Section 3 null-range proof removed, across all bulk rows.
///
/// At kCheckedScale (the scale ctest runs) the bench exits 1 when that
/// range elision rate, a deterministic counter ratio, falls below its
/// floor, the exact value at that scale.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "bytecode/MethodBuilder.h"

#include <vector>

using namespace satb;
using namespace satb::bench;

namespace {

constexpr int32_t kLen = 64; ///< slots per array, one mark word's worth

/// fill workload: per transaction, write every slot of a 64-slot array.
/// \p Bulk selects one ArrayFill against a per-slot aastore loop;
/// \p Escaped reuses one published long-lived array (barrier kept)
/// instead of allocating a fresh one per transaction (range elided).
Workload makeFillWorkload(const char *Name, bool Bulk, bool Escaped) {
  Workload W;
  W.Name = Name;
  W.Description = "bulk/per-slot array initialization";
  W.P = std::make_shared<Program>();
  Program &P = *W.P;
  StaticFieldId Sink = P.addStaticField("sink", JType::Ref);
  MethodBuilder B(P, "main", {JType::Int}, JType::Int);
  Local N = B.arg(0), T = B.newLocal(JType::Int);
  Local Arr = B.newLocal(JType::Ref), I = B.newLocal(JType::Int);
  Label Head = B.newLabel(), Done = B.newLabel();
  if (Escaped) {
    B.iconst(kLen).newRefArray().astore(Arr);
    B.aload(Arr).putstatic(Sink); // escape: the null range dies here
  }
  B.iconst(0).istore(T);
  B.bind(Head).iload(T).iload(N).ifICmpGe(Done);
  if (!Escaped)
    B.iconst(kLen).newRefArray().astore(Arr);
  if (Bulk) {
    B.aload(Arr).aload(Arr).iconst(0).iconst(kLen).arrayfill();
  } else {
    Label IHead = B.newLabel(), IDone = B.newLabel();
    B.iconst(0).istore(I);
    B.bind(IHead).iload(I).iconst(kLen).ifICmpGe(IDone);
    B.aload(Arr).iload(I).aload(Arr).aastore();
    B.iinc(I, 1).jump(IHead);
    B.bind(IDone);
  }
  B.iinc(T, 1).jump(Head);
  B.bind(Done).iload(T).ireturn();
  W.Entry = B.finish();
  return W;
}

/// copy workload: per transaction, copy all 64 slots of a published
/// source array into a destination. \p Bulk selects one ArrayCopy
/// against an aaload/aastore loop; \p FreshDst allocates the
/// destination per transaction (range elided) instead of reusing a
/// second published array (range barrier kept).
Workload makeCopyWorkload(const char *Name, bool Bulk, bool FreshDst) {
  Workload W;
  W.Name = Name;
  W.Description = "bulk/per-slot array copy";
  W.P = std::make_shared<Program>();
  Program &P = *W.P;
  StaticFieldId SrcS = P.addStaticField("src", JType::Ref);
  StaticFieldId DstS = P.addStaticField("dst", JType::Ref);
  MethodBuilder B(P, "main", {JType::Int}, JType::Int);
  Local N = B.arg(0), T = B.newLocal(JType::Int);
  Local Src = B.newLocal(JType::Ref), Dst = B.newLocal(JType::Ref);
  Local I = B.newLocal(JType::Int);
  Label Head = B.newLabel(), Done = B.newLabel();
  // Source: filled while fresh (one elided bulk store), then published.
  B.iconst(kLen).newRefArray().astore(Src);
  B.aload(Src).aload(Src).iconst(0).iconst(kLen).arrayfill();
  B.aload(Src).putstatic(SrcS);
  if (!FreshDst) {
    B.iconst(kLen).newRefArray().astore(Dst);
    B.aload(Dst).putstatic(DstS);
  }
  B.iconst(0).istore(T);
  B.bind(Head).iload(T).iload(N).ifICmpGe(Done);
  if (FreshDst)
    B.iconst(kLen).newRefArray().astore(Dst);
  if (Bulk) {
    B.aload(Src).iconst(0).aload(Dst).iconst(0).iconst(kLen).arraycopy();
  } else {
    Label IHead = B.newLabel(), IDone = B.newLabel();
    B.iconst(0).istore(I);
    B.bind(IHead).iload(I).iconst(kLen).ifICmpGe(IDone);
    B.aload(Dst).iload(I).aload(Src).iload(I).aaload().aastore();
    B.iinc(I, 1).jump(IHead);
    B.bind(IDone);
  }
  B.iinc(T, 1).jump(Head);
  B.bind(Done).iload(T).ireturn();
  W.Entry = B.finish();
  return W;
}

double pct(uint64_t Part, uint64_t Whole) {
  return Whole ? 100.0 * Part / Whole : 0.0;
}

struct Row {
  Workload W;
  int Baseline = -1; ///< index of the matched per-slot row (-1: is one)
  WorkloadRun R;
};

} // namespace

int main() {
  int64_t Scale = benchScale(4000);

  std::vector<Row> Rows;
  Rows.push_back({makeFillWorkload("fill-ps-new", false, false), -1, {}});
  Rows.push_back({makeFillWorkload("fill-bulk-new", true, false), 0, {}});
  Rows.push_back({makeFillWorkload("fill-ps-old", false, true), -1, {}});
  Rows.push_back({makeFillWorkload("fill-bulk-old", true, true), 2, {}});
  Rows.push_back({makeCopyWorkload("copy-ps-new", false, true), -1, {}});
  Rows.push_back({makeCopyWorkload("copy-bulk-new", true, true), 4, {}});
  Rows.push_back({makeCopyWorkload("copy-bulk-old", true, false), 4, {}});

  CompilerOptions Opts;
  Opts.Barrier = BarrierMode::Satb;
  Opts.Interp = InterpMode::Fast;
  for (Row &R : Rows)
    R.R = runWorkload(R.W, Opts, Scale);

  std::printf("Bulk array stores: range barrier/elision vs per-slot "
              "loops\n(engine fast, scale %lld, %d-slot arrays, SATB "
              "mode)\n",
              static_cast<long long>(Scale), kLen);
  printRule();
  std::printf("%14s %10s %9s %9s %7s %10s %8s\n", "wkld", "wall us",
              "steps", "stores", "elide%", "cost/store", "speedup");
  printRule();

  double PerSlotWall = 0.0, BulkWall = 0.0;
  uint64_t BulkExecs = 0, BulkElided = 0;
  for (Row &R : Rows) {
    const BarrierStats::Summary &S = R.R.Stats;
    bool IsBulk = R.Baseline >= 0;
    double Speedup =
        IsBulk && R.R.WallSeconds
            ? Rows[R.Baseline].R.WallSeconds / R.R.WallSeconds
            : 1.0;
    if (IsBulk) {
      PerSlotWall += Rows[R.Baseline].R.WallSeconds;
      BulkWall += R.R.WallSeconds;
      BulkExecs += S.TotalExecs;
      BulkElided += S.ElidedExecs;
    }
    std::printf("%14s %10.1f %9llu %9llu %7.1f %10.2f %8.2f\n",
                R.W.Name.c_str(), R.R.WallSeconds * 1e6,
                static_cast<unsigned long long>(R.R.Steps),
                static_cast<unsigned long long>(S.TotalExecs),
                pct(S.ElidedExecs, S.TotalExecs),
                S.TotalExecs ? static_cast<double>(R.R.BarrierCostInstrs) /
                                   S.TotalExecs
                             : 0.0,
                Speedup);
  }

  const double RangeElidePct = pct(BulkElided, BulkExecs);
  printRule();
  std::printf("%14s %10.1f %38.1f %18.2f\n", "total",
              (PerSlotWall + BulkWall) * 1e6, RangeElidePct,
              BulkWall ? PerSlotWall / BulkWall : 0.0);
  std::printf("\nspeedup = matched per-slot wall / bulk wall; elide%% on "
              "the total row is the\nbulk-row range elision rate "
              "(counter-based; checked against its floor).\n");
  const double RangeFloor = 49.96;
  if (Scale == kCheckedScale && RangeElidePct < RangeFloor) {
    std::fprintf(stderr, "array_bulk: range elide%% %.4f is below %.2f\n",
                 RangeElidePct, RangeFloor);
    return 1;
  }
  return 0;
}
