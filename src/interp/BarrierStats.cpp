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
      SS.IsStatic = CM.Body.Instructions[I].Op == Opcode::PutStatic;
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
    assert(D.IsArray == S.IsArray && D.IsStatic == S.IsStatic &&
           D.Plan == S.Plan && D.Reason == S.Reason &&
           "shards disagree on translation facts");
    D.Execs += S.Execs;
    D.PreNull += S.PreNull;
    D.Elided += S.Elided;
    D.Rearranged += S.Rearranged;
    D.Violations += S.Violations;
    D.MarkingActive += S.MarkingActive;
    D.PreLogged += S.PreLogged;
    D.OldBase += S.OldBase;
    D.RemSetDirtied += S.RemSetDirtied;
    D.RemSetElided += S.RemSetElided;
    D.RemSetViolations += S.RemSetViolations;
  }
  Brackets.Enters += Other.Brackets.Enters;
  Brackets.Entered += Other.Brackets.Entered;
  Brackets.Exits += Other.Brackets.Exits;
}

uint64_t satb::modeledBarrierCost(const SiteStats &S) {
  using C = CodeSizeModel;
  // A protocol store inside an active bracket pays only the in-bracket
  // check; every other execution runs the plan's marking component.
  uint64_t Cost = S.Rearranged * C::InBracketCheck;
  const uint64_t Marking = S.Execs - S.Rearranged;
  switch (S.Plan.Mark) {
  case MarkPlan::Satb:
    Cost += Marking * C::MarkingCheck + S.MarkingActive * C::PreValueTest +
            S.PreLogged * C::LogPreValue;
    break;
  case MarkPlan::AlwaysLog:
    Cost += Marking * C::AlwaysLogTest + S.PreLogged * C::LogPreValue;
    break;
  case MarkPlan::Card:
    Cost += S.Execs * C::CardBarrierCost;
    break;
  case MarkPlan::None:
  case MarkPlan::Elided:
    break;
  }
  if (S.Plan.Rem == RemPlan::Kept && !S.IsStatic)
    Cost += S.Execs * C::RemBaseTest + S.OldBase * C::RemValueTest +
            S.RemSetDirtied * C::RemCardDirty;
  return Cost;
}

uint64_t satb::modeledBarrierCost(const BarrierStats &Stats) {
  using C = CodeSizeModel;
  const BracketStats &B = Stats.brackets();
  uint64_t Cost = B.Enters * C::BracketEnterCheck +
                  B.Entered * C::BracketEnterLog + B.Exits * C::BracketExit;
  for (const SiteStats &S : Stats.flat())
    Cost += modeledBarrierCost(S);
  return Cost;
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
