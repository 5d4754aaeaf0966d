//===- jit/MethodVersionTable.h - Tiered translation cache -----*- C++ -*-===//
///
/// \file
/// The tiered engine's single dispatch point (DESIGN.md "Tiered
/// execution"). Every method has up to three live translations —
/// Baseline (conservative, profiling), Static (the Section 2/3 proof
/// applied), Speculative (profile-driven guarded elision) — and the fast
/// interpreter resolves *every* activation, including the entry method,
/// through this table. In untiered mode the table degenerates to a flat
/// array of Static streams with zero per-invoke overhead beyond one
/// predicted branch.
///
/// Version lifecycle:
///
///   Baseline --warm--> Static --hot+profile--> Speculative
///                        ^                          |
///                        +---- guard failure -------+  (deopt)
///                        +---- minor-GC epoch ------+  (young-spec only)
///
/// All tiers translate the same compiled body with the same
/// Safepoint-poll placement, so a method's versions have identical
/// stream lengths, branch displacements, and Site numbering. Deopt is
/// therefore an index-preserving IP transfer: NewIP = To.Code.data() +
/// (IP - From.Code.data()), legal at any instruction boundary (fused
/// second slots are verbatim copies, and suspension never stops inside a
/// pair). Retired versions are kept alive until the table dies — a
/// lazily invalidated version may still have live frames, which the
/// dynamic guards keep sound until the next deopt or stop-the-world
/// invalidation transfers them.
///
//===----------------------------------------------------------------------===//

#ifndef SATB_JIT_METHODVERSIONTABLE_H
#define SATB_JIT_METHODVERSIONTABLE_H

// SiteStats only (a POD counter block): the promotion policy reads the
// engine's Site-indexed profile shard. No BarrierStats member function is
// called, so this is a header-only dependency, not a link-layer one.
#include "interp/BarrierStats.h"
#include "jit/FastCode.h"

#include <memory>

namespace satb {

/// Tiering knobs.
struct TieredOptions {
  /// Master switch. Off by default: untiered execution runs the Static
  /// translation of every method.
  bool Enabled = false;
  /// Invocations before a Baseline method is re-translated at Static.
  uint32_t WarmInvocations = 8;
  /// Invocations before the profile is consulted for speculation (and
  /// the re-poll interval while no site qualifies).
  uint32_t HotInvocations = 32;
  /// A site speculates only after this many profiled executions.
  uint64_t MinSiteExecs = 16;
  /// Guard-failure deopts after which a method is pinned to Static.
  uint32_t MaxDeopts = 3;
  /// Testing knob: every k-th guard evaluation takes the failure path
  /// (conservative barrier + deopt) even when the guard holds; 0 = off.
  uint32_t ForceDeoptEvery = 0;
};

/// Per-table lifecycle counters (per engine, like the BarrierStats
/// shards — merged by the caller if aggregation is wanted).
struct TierCounters {
  uint64_t StaticPromotions = 0;
  uint64_t SpecPromotions = 0;
  uint64_t SpecSites = 0;          ///< guarded sites across all promotions
  uint64_t Deopts = 0;             ///< guard-failure deopts (incl. forced)
  uint64_t ForcedDeopts = 0;       ///< of which ForceDeoptEvery forced
  uint64_t EpochInvalidations = 0; ///< young-spec retired by a minor GC
};

class MethodVersionTable {
  struct Version {
    TranslationTier Tier = TranslationTier::Static;
    FastMethod FM;
    bool HasYoungSpec = false;
    uint32_t SpecSites = 0;
  };

  struct Entry {
    const FastMethod *Active = nullptr;
    TranslationTier ActiveTier = TranslationTier::Static;
    std::unique_ptr<Version> BaselineV, StaticV, SpecV;
    /// Invalidated speculative versions, kept alive for frames that may
    /// still be executing them (see file comment).
    std::vector<std::unique_ptr<Version>> Retired;
    uint64_t Invocations = 0;
    /// Invocation count at which the lifecycle advances (warm, hot,
    /// re-poll); UINT64_MAX pins the method to its current version.
    uint64_t NextCheck = 0;
    uint32_t DeoptCount = 0;
    bool ActiveYoungSpec = false;
    /// Minor-GC collection count when the active young-spec version was
    /// installed; a newer epoch invalidates it at next dispatch.
    uint64_t SpecEpoch = 0;
  };

public:
  /// Untiered: wrap an existing translation, one immutable Static
  /// version per method. \p FP must outlive the table.
  explicit MethodVersionTable(const FastProgram &FP);

  /// Tiered (or self-owned untiered, when !TOpts.Enabled): translates
  /// every method at Baseline now; Static and Speculative versions are
  /// produced on demand by the promotion policy. \p P and \p CP must
  /// outlive the table.
  MethodVersionTable(const Program &P, const CompiledProgram &CP,
                     const TranslateOptions &TO, const TieredOptions &TOpts);

  bool tiered() const { return Tiered; }
  const TieredOptions &options() const { return Opts; }
  const TierCounters &counters() const { return Counters; }
  uint32_t maxFrameSlots() const { return MaxFrameSlots; }
  size_t numMethods() const { return Entries.size(); }

  /// The version the next activation of \p M executes (also the entry
  /// method's resolution in FastInterp::start).
  const FastMethod &active(MethodId M) const { return *Entries[M].Active; }
  TranslationTier activeTier(MethodId M) const {
    return Entries[M].ActiveTier;
  }
  uint64_t invocations(MethodId M) const { return Entries[M].Invocations; }
  uint32_t deoptCount(MethodId M) const { return Entries[M].DeoptCount; }

  /// THE dispatch point: resolves the callee's current version and
  /// advances the tiered lifecycle — invocation counting, lazy
  /// young-spec epoch invalidation, warm/hot promotion. \p Sites is the
  /// calling engine's flat profile shard; \p Epoch its current minor-GC
  /// collection count (0 when not generational).
  const FastMethod &invoke(MethodId M, const SiteStats *Sites,
                           uint64_t Epoch) {
    Entry &E = Entries[M];
    if (Tiered) {
      if (E.ActiveYoungSpec && Epoch != E.SpecEpoch)
        retireSpec(E, /*GuardFailed=*/false);
      if (++E.Invocations >= E.NextCheck)
        promote(M, Sites, Epoch);
    }
    return *E.Active;
  }

  /// Guard failure in the version executing Frames.back(): retire it,
  /// transfer every frame running it onto the Static version, and update
  /// the re-speculation policy. Called from the dispatch loop with the
  /// failing frame already flushed (FLUSH_FRAME discipline), i.e. at a
  /// Safepoint-compatible point. \p FrameVec elements expose .FM and
  /// .IP, the engine's frame layout.
  template <class FrameVec> void deoptimize(FrameVec &Frames, bool Forced) {
    const FastMethod *From = Frames.back().FM;
    Entry *E = findEntryOwning(From);
    assert(E && E->StaticV && "deopt from a stream the table does not own");
    if (!E || !E->StaticV)
      return;
    ++Counters.Deopts;
    if (Forced)
      ++Counters.ForcedDeopts;
    const FastMethod *To;
    if (E->SpecV && From == &E->SpecV->FM) {
      To = retireSpec(*E, /*GuardFailed=*/true);
    } else {
      // A lazily retired version tripped a guard; its frames transfer
      // now, and the failure still counts against re-speculation.
      ++E->DeoptCount;
      To = &E->StaticV->FM;
    }
    transfer(Frames, From, To);
  }

  /// Stop-the-world invalidation hook (ServeMinorGC): retire every
  /// young-speculating version and transfer any frames still executing
  /// one — including versions a lazy epoch check already retired. The
  /// caller guarantees all mutators are parked with flushed frames.
  template <class FrameVec> void invalidateYoungSpecs(FrameVec &Frames) {
    if (!Tiered)
      return;
    for (Entry &E : Entries) {
      if (E.SpecV && E.SpecV->HasYoungSpec && E.Active == &E.SpecV->FM) {
        const FastMethod *From = &E.SpecV->FM;
        transfer(Frames, From, retireSpec(E, /*GuardFailed=*/false));
      }
      if (E.StaticV)
        for (const std::unique_ptr<Version> &V : E.Retired)
          if (V->HasYoungSpec)
            transfer(Frames, &V->FM, &E.StaticV->FM);
    }
  }

private:
  /// Index-preserving frame transfer between two versions of one method
  /// (identical stream shape; see file comment).
  template <class FrameVec>
  static void transfer(FrameVec &Frames, const FastMethod *From,
                       const FastMethod *To) {
    if (From == To)
      return;
    for (auto &F : Frames)
      if (F.FM == From) {
        F.IP = To->Code.data() + (F.IP - From->Code.data());
        F.FM = To;
      }
  }

  void promote(MethodId M, const SiteStats *Sites, uint64_t Epoch);
  void trySpeculate(MethodId M, const SiteStats *Sites, uint64_t Epoch);
  /// Moves the speculative version to Retired, reactivates Static, and
  /// sets the re-speculation schedule. Returns the new active stream.
  const FastMethod *retireSpec(Entry &E, bool GuardFailed);
  Entry *findEntryOwning(const FastMethod *FM);

  bool Tiered = false;
  TieredOptions Opts;
  TierCounters Counters;
  uint32_t MaxFrameSlots = 0;
  std::vector<Entry> Entries;

  // Tiered-construction state for on-demand re-translation.
  const Program *P = nullptr;
  const CompiledProgram *CP = nullptr;
  TranslateOptions TO;
  std::vector<uint32_t> Offsets; ///< CP->instrOffsets(), cached
  /// Untiered self-owned mode: the Static translation backing Entries.
  FastProgram OwnedStatic;
};

} // namespace satb

#endif // SATB_JIT_METHODVERSIONTABLE_H
