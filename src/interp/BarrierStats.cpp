//===- interp/BarrierStats.cpp --------------------------------------------===//

#include "interp/BarrierStats.h"

#include <algorithm>

using namespace satb;

void BarrierStats::init(const CompiledProgram &CP) {
  Offsets = CP.instrOffsets();
  Flat.assign(Offsets.back(), SiteStats{});
  for (size_t M = 0; M != CP.Methods.size(); ++M) {
    const CompiledMethod &CM = CP.Methods[M];
    for (size_t I = 0; I != CM.Analysis.Decisions.size(); ++I) {
      const BarrierDecision &D = CM.Analysis.Decisions[I];
      if (!D.IsBarrierSite)
        continue;
      SiteStats &SS = Flat[Offsets[M] + I];
      SS.IsArray = D.IsArraySite;
      SS.Plan = CM.Plans[I];
      SS.Reason = D.Reason;
    }
  }
}

void BarrierStats::merge(const BarrierStats &Other) {
  assert(Flat.size() == Other.Flat.size() && Offsets == Other.Offsets &&
         "merging shards of different programs");
  for (size_t I = 0, E = Flat.size(); I != E; ++I) {
    SiteStats &D = Flat[I];
    const SiteStats &S = Other.Flat[I];
    assert(D.IsArray == S.IsArray && D.Plan == S.Plan &&
           D.Reason == S.Reason && "shards disagree on translation facts");
    D.Execs += S.Execs;
    D.PreNull += S.PreNull;
    D.Elided += S.Elided;
    D.Rearranged += S.Rearranged;
    D.Violations += S.Violations;
    D.RemSetDirtied += S.RemSetDirtied;
    D.RemSetElided += S.RemSetElided;
    D.RemSetViolations += S.RemSetViolations;
  }
}

BarrierStats::Summary BarrierStats::summarize() const {
  Summary S;
  for (const SiteStats &SS : Flat) {
    if (SS.Execs == 0)
      continue;
    S.TotalExecs += SS.Execs;
    S.ElidedExecs += SS.Elided;
    S.RearrangedExecs += SS.Rearranged;
    S.PreNullExecs += SS.PreNull;
    S.Violations += SS.Violations;
    S.RemSetDirtied += SS.RemSetDirtied;
    S.RemSetElided += SS.RemSetElided;
    S.RemSetViolations += SS.RemSetViolations;
    if (SS.Plan.Rem == RemPlan::Elided)
      S.YoungExecs += SS.Execs;
    if (SS.IsArray) {
      S.ArrayExecs += SS.Execs;
      S.ArrayElided += SS.Elided;
    } else {
      S.FieldExecs += SS.Execs;
      S.FieldElided += SS.Elided;
    }
    if (SS.PreNull == SS.Execs)
      S.PotentiallyPreNullExecs += SS.Execs;
  }
  return S;
}

std::vector<BarrierStats::SiteRow> BarrierStats::topSites(size_t N,
                                                          bool OnlyKept) const {
  std::vector<SiteRow> Rows;
  for (MethodId M = 0; M + 1 < Offsets.size(); ++M)
    for (uint32_t I = 0, E = Offsets[M + 1] - Offsets[M]; I != E; ++I) {
      const SiteStats &SS = Flat[Offsets[M] + I];
      if (SS.Execs == 0)
        continue;
      if (OnlyKept && SS.Plan.Mark == MarkPlan::Elided)
        continue;
      Rows.push_back(SiteRow{M, I, SS});
    }
  std::sort(Rows.begin(), Rows.end(), [](const SiteRow &A, const SiteRow &B) {
    if (A.Stats.Execs != B.Stats.Execs)
      return A.Stats.Execs > B.Stats.Execs;
    if (A.M != B.M)
      return A.M < B.M;
    return A.Instr < B.Instr;
  });
  if (Rows.size() > N)
    Rows.resize(N);
  return Rows;
}
