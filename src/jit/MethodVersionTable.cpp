//===- jit/MethodVersionTable.cpp - Tiered translation cache --------------===//

#include "jit/MethodVersionTable.h"

#include "analysis/BarrierAnalysis.h"

#include <algorithm>

using namespace satb;

MethodVersionTable::MethodVersionTable(const FastProgram &FP)
    : Tiered(false), MaxFrameSlots(FP.MaxFrameSlots) {
  Opts.Enabled = false;
  Opts.ForceDeoptEvery = 0;
  Entries.resize(FP.Methods.size());
  for (size_t M = 0; M != FP.Methods.size(); ++M) {
    Entries[M].Active = &FP.Methods[M];
    Entries[M].ActiveTier = TranslationTier::Static;
  }
}

MethodVersionTable::MethodVersionTable(const Program &P_,
                                       const CompiledProgram &CP_,
                                       const TranslateOptions &TO_,
                                       const TieredOptions &TOpts)
    : Tiered(TOpts.Enabled), Opts(TOpts), P(&P_), CP(&CP_), TO(TO_),
      Offsets(CP_.instrOffsets()) {
  Entries.resize(CP_.Methods.size());
  if (!Tiered) {
    OwnedStatic = translateProgram(P_, CP_, TO_);
    MaxFrameSlots = OwnedStatic.MaxFrameSlots;
    for (size_t M = 0; M != Entries.size(); ++M) {
      Entries[M].Active = &OwnedStatic.Methods[M];
      Entries[M].ActiveTier = TranslationTier::Static;
    }
    return;
  }
  TranslateOptions T = TO;
  T.Tier = TranslationTier::Baseline;
  T.Spec = nullptr;
  for (MethodId M = 0; M != Entries.size(); ++M) {
    auto V = std::make_unique<Version>();
    V->Tier = TranslationTier::Baseline;
    V->FM = translateMethod(P_, CP_, M, T);
    MaxFrameSlots = std::max(MaxFrameSlots, V->FM.FrameSlots);
    Entry &E = Entries[M];
    E.Active = &V->FM;
    E.ActiveTier = TranslationTier::Baseline;
    E.BaselineV = std::move(V);
    E.NextCheck = Opts.WarmInvocations;
  }
}

void MethodVersionTable::promote(MethodId M, const SiteStats *Sites,
                                 uint64_t Epoch) {
  Entry &E = Entries[M];
  if (!E.StaticV) {
    TranslateOptions T = TO;
    T.Tier = TranslationTier::Static;
    T.Spec = nullptr;
    auto V = std::make_unique<Version>();
    V->Tier = TranslationTier::Static;
    V->FM = translateMethod(*P, *CP, M, T);
    E.StaticV = std::move(V);
    E.Active = &E.StaticV->FM;
    E.ActiveTier = TranslationTier::Static;
    ++Counters.StaticPromotions;
    E.NextCheck =
        std::max<uint64_t>(E.Invocations + 1, Opts.HotInvocations);
    return;
  }
  if (!E.SpecV && E.DeoptCount < Opts.MaxDeopts) {
    trySpeculate(M, Sites, Epoch);
    return;
  }
  E.NextCheck = UINT64_MAX; // pinned (speculating or out of deopt budget)
}

void MethodVersionTable::trySpeculate(MethodId M, const SiteStats *Sites,
                                      uint64_t Epoch) {
  Entry &E = Entries[M];
  const CompiledMethod &CM = CP->Methods[M];
  size_t N = CM.Analysis.Decisions.size();
  std::vector<bool> NullAlways(N, false), YoungAlways(N, false);
  bool Any = false;
  for (uint32_t PC = 0; PC != N; ++PC) {
    const BarrierPlan &Plan = CM.Plans[PC];
    bool GuardNull = Plan.canGuardNull();
    bool GuardYoung =
        Plan.canGuardYoung(CM.Body.Instructions[PC].Op == Opcode::PutStatic);
    if (!GuardNull && !GuardYoung)
      continue;
    const SiteStats &SS = Sites[Offsets[M] + PC];
    if (SS.Execs < Opts.MinSiteExecs)
      continue;
    if (GuardNull && SS.PreNull == SS.Execs) {
      NullAlways[PC] = true;
      Any = true;
    }
    if (GuardYoung && SS.YoungSeen == SS.Execs) {
      YoungAlways[PC] = true;
      Any = true;
    }
  }
  SpeculativeFacts Facts;
  if (Any)
    Facts = injectSpeculativeFacts(CM.Analysis, NullAlways, YoungAlways,
                                   CP->Options.ApplyElision);
  if (!Any || !Facts.any()) {
    // Nothing qualifies yet; re-poll after more profile accumulates.
    E.NextCheck = E.Invocations + Opts.HotInvocations;
    return;
  }
  uint32_t NumSpecSites = 0;
  bool AnyYoung = false;
  for (size_t PC = 0; PC != N; ++PC) {
    bool S = Facts.NullSpec[PC] || Facts.YoungSpec[PC];
    NumSpecSites += S;
    AnyYoung |= Facts.YoungSpec[PC];
  }
  TranslateOptions T = TO;
  T.Tier = TranslationTier::Speculative;
  T.Spec = &Facts;
  auto V = std::make_unique<Version>();
  V->Tier = TranslationTier::Speculative;
  V->FM = translateMethod(*P, *CP, M, T);
  V->HasYoungSpec = AnyYoung;
  V->SpecSites = NumSpecSites;
  E.SpecV = std::move(V);
  E.Active = &E.SpecV->FM;
  E.ActiveTier = TranslationTier::Speculative;
  E.ActiveYoungSpec = AnyYoung;
  E.SpecEpoch = Epoch;
  E.NextCheck = UINT64_MAX;
  ++Counters.SpecPromotions;
  Counters.SpecSites += NumSpecSites;
}

const FastMethod *MethodVersionTable::retireSpec(Entry &E, bool GuardFailed) {
  assert(E.StaticV && "speculative version without a static fallback");
  if (E.SpecV)
    E.Retired.push_back(std::move(E.SpecV));
  E.Active = &E.StaticV->FM;
  E.ActiveTier = TranslationTier::Static;
  E.ActiveYoungSpec = false;
  if (GuardFailed) {
    ++E.DeoptCount;
    E.NextCheck = E.DeoptCount >= Opts.MaxDeopts
                      ? UINT64_MAX
                      : E.Invocations + Opts.HotInvocations;
  } else {
    ++Counters.EpochInvalidations;
    // An epoch invalidation is not a mis-speculation; the method may
    // re-qualify against the post-GC profile.
    E.NextCheck = E.Invocations + Opts.HotInvocations;
  }
  return E.Active;
}

MethodVersionTable::Entry *
MethodVersionTable::findEntryOwning(const FastMethod *FM) {
  // Deopt-path only (rare): a linear scan over methods is fine.
  for (Entry &E : Entries) {
    if (E.SpecV && FM == &E.SpecV->FM)
      return &E;
    for (const std::unique_ptr<Version> &V : E.Retired)
      if (FM == &V->FM)
        return &E;
  }
  return nullptr;
}
