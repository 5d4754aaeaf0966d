//===- tests/barrier_plan_test.cpp - One barrier decision per site --------===//
///
/// \file
/// The barrier plan is the compiler's whole verdict for a store site
/// (jit/BarrierPlan.h), and the fast engine's store opcodes are generated
/// from it (SATB_FAST_STORE_OPS in jit/FastCode.h). This pins the whole
/// mapping by value: every BarrierMode x ApplyElision x {Elide,
/// TargetYoung, rearrangement} for the Static tier, plus the Baseline and
/// Speculative tiers, each row naming the plan planFor computes, the plan
/// the tier executes at a heap store, and the opcode each store kind
/// lowers to. The opcode names were those of the hand-written
/// per-variant selection this table replaced, so a change to any
/// selection shows up here as a named row. "-" marks a combination the
/// compiler never produces for that kind (a rearranged non-aastore, a
/// young-target static); such a kind has no opcode for it.
///
//===----------------------------------------------------------------------===//

#include "jit/FastCode.h"

#include <gtest/gtest.h>

#include <set>
#include <sstream>

using namespace satb;

namespace {

using M = BarrierMode;
constexpr char S = 'S', B = 'B', P = 'P'; // Static, Baseline, Speculative

struct PlanRow {
  char Tier;
  BarrierMode Mode;
  bool Apply, Elide, Young, Rearr, NullSpec, YoungSpec;
  const char *Plan;     ///< planFor's plan, Mark/Rem[/R]
  const char *TierPlan; ///< tierPlan at a heap store
  /// Opcode suffix per kind: PutFieldRef PutStaticRef AAStore ArrayFill
  /// ArrayCopy LoadPutFieldRef LoadAAStore.
  const char *Ops;
};

const PlanRow Rows[] = {
    // Static tier, BarrierMode::None
    {S, M::None, 0, 0, 0, 0, 0, 0, "None/None", "None/None",
     "NoBarrier NoBarrier NoBarrier NoBarrier NoBarrier NoBarrier NoBarrier"},
    {S, M::None, 0, 0, 0, 1, 0, 0, "None/None", "None/None",
     "NoBarrier NoBarrier NoBarrier NoBarrier NoBarrier NoBarrier NoBarrier"},
    {S, M::None, 0, 0, 1, 0, 0, 0, "None/None", "None/None",
     "NoBarrier NoBarrier NoBarrier NoBarrier NoBarrier NoBarrier NoBarrier"},
    {S, M::None, 0, 0, 1, 1, 0, 0, "None/None", "None/None",
     "NoBarrier NoBarrier NoBarrier NoBarrier NoBarrier NoBarrier NoBarrier"},
    {S, M::None, 0, 1, 0, 0, 0, 0, "None/None", "None/None",
     "NoBarrier NoBarrier NoBarrier NoBarrier NoBarrier NoBarrier NoBarrier"},
    {S, M::None, 0, 1, 0, 1, 0, 0, "None/None", "None/None",
     "NoBarrier NoBarrier NoBarrier NoBarrier NoBarrier NoBarrier NoBarrier"},
    {S, M::None, 0, 1, 1, 0, 0, 0, "None/None", "None/None",
     "NoBarrier NoBarrier NoBarrier NoBarrier NoBarrier NoBarrier NoBarrier"},
    {S, M::None, 0, 1, 1, 1, 0, 0, "None/None", "None/None",
     "NoBarrier NoBarrier NoBarrier NoBarrier NoBarrier NoBarrier NoBarrier"},
    {S, M::None, 1, 0, 0, 0, 0, 0, "None/None", "None/None",
     "NoBarrier NoBarrier NoBarrier NoBarrier NoBarrier NoBarrier NoBarrier"},
    {S, M::None, 1, 0, 0, 1, 0, 0, "None/None", "None/None",
     "NoBarrier NoBarrier NoBarrier NoBarrier NoBarrier NoBarrier NoBarrier"},
    {S, M::None, 1, 0, 1, 0, 0, 0, "None/None", "None/None",
     "NoBarrier NoBarrier NoBarrier NoBarrier NoBarrier NoBarrier NoBarrier"},
    {S, M::None, 1, 0, 1, 1, 0, 0, "None/None", "None/None",
     "NoBarrier NoBarrier NoBarrier NoBarrier NoBarrier NoBarrier NoBarrier"},
    {S, M::None, 1, 1, 0, 0, 0, 0, "Elided/None", "Elided/None",
     "Elided Elided Elided Elided Elided Elided Elided"},
    {S, M::None, 1, 1, 0, 1, 0, 0, "Elided/None", "Elided/None",
     "Elided Elided Elided Elided Elided Elided Elided"},
    {S, M::None, 1, 1, 1, 0, 0, 0, "Elided/None", "Elided/None",
     "Elided Elided Elided Elided Elided Elided Elided"},
    {S, M::None, 1, 1, 1, 1, 0, 0, "Elided/None", "Elided/None",
     "Elided Elided Elided Elided Elided Elided Elided"},
    // Static tier, BarrierMode::Satb
    {S, M::Satb, 0, 0, 0, 0, 0, 0, "Satb/None", "Satb/None",
     "Satb Satb Satb Satb Satb Satb Satb"},
    {S, M::Satb, 0, 0, 0, 1, 0, 0, "Satb/None/R", "Satb/None/R",
     "- - Rearr_Satb - - - -"},
    {S, M::Satb, 0, 0, 1, 0, 0, 0, "Satb/None", "Satb/None",
     "Satb Satb Satb Satb Satb Satb Satb"},
    {S, M::Satb, 0, 0, 1, 1, 0, 0, "Satb/None/R", "Satb/None/R",
     "- - Rearr_Satb - - - -"},
    {S, M::Satb, 0, 1, 0, 0, 0, 0, "Satb/None", "Satb/None",
     "Satb Satb Satb Satb Satb Satb Satb"},
    {S, M::Satb, 0, 1, 0, 1, 0, 0, "Satb/None/R", "Satb/None/R",
     "- - Rearr_Satb - - - -"},
    {S, M::Satb, 0, 1, 1, 0, 0, 0, "Satb/None", "Satb/None",
     "Satb Satb Satb Satb Satb Satb Satb"},
    {S, M::Satb, 0, 1, 1, 1, 0, 0, "Satb/None/R", "Satb/None/R",
     "- - Rearr_Satb - - - -"},
    {S, M::Satb, 1, 0, 0, 0, 0, 0, "Satb/None", "Satb/None",
     "Satb Satb Satb Satb Satb Satb Satb"},
    {S, M::Satb, 1, 0, 0, 1, 0, 0, "Satb/None/R", "Satb/None/R",
     "- - Rearr_Satb - - - -"},
    {S, M::Satb, 1, 0, 1, 0, 0, 0, "Satb/None", "Satb/None",
     "Satb Satb Satb Satb Satb Satb Satb"},
    {S, M::Satb, 1, 0, 1, 1, 0, 0, "Satb/None/R", "Satb/None/R",
     "- - Rearr_Satb - - - -"},
    {S, M::Satb, 1, 1, 0, 0, 0, 0, "Elided/None", "Elided/None",
     "Elided Elided Elided Elided Elided Elided Elided"},
    {S, M::Satb, 1, 1, 0, 1, 0, 0, "Elided/None/R", "Elided/None/R",
     "Elided Elided Elided Elided Elided Elided Elided"},
    {S, M::Satb, 1, 1, 1, 0, 0, 0, "Elided/None", "Elided/None",
     "Elided Elided Elided Elided Elided Elided Elided"},
    {S, M::Satb, 1, 1, 1, 1, 0, 0, "Elided/None/R", "Elided/None/R",
     "Elided Elided Elided Elided Elided Elided Elided"},
    // Static tier, BarrierMode::SatbAlwaysLog
    {S, M::SatbAlwaysLog, 0, 0, 0, 0, 0, 0, "AlwaysLog/None", "AlwaysLog/None",
     "AlwaysLog AlwaysLog AlwaysLog AlwaysLog AlwaysLog AlwaysLog AlwaysLog"},
    {S, M::SatbAlwaysLog, 0, 0, 0, 1, 0, 0,
     "AlwaysLog/None/R", "AlwaysLog/None/R",
     "- - Rearr_AlwaysLog - - - -"},
    {S, M::SatbAlwaysLog, 0, 0, 1, 0, 0, 0, "AlwaysLog/None", "AlwaysLog/None",
     "AlwaysLog AlwaysLog AlwaysLog AlwaysLog AlwaysLog AlwaysLog AlwaysLog"},
    {S, M::SatbAlwaysLog, 0, 0, 1, 1, 0, 0,
     "AlwaysLog/None/R", "AlwaysLog/None/R",
     "- - Rearr_AlwaysLog - - - -"},
    {S, M::SatbAlwaysLog, 0, 1, 0, 0, 0, 0, "AlwaysLog/None", "AlwaysLog/None",
     "AlwaysLog AlwaysLog AlwaysLog AlwaysLog AlwaysLog AlwaysLog AlwaysLog"},
    {S, M::SatbAlwaysLog, 0, 1, 0, 1, 0, 0,
     "AlwaysLog/None/R", "AlwaysLog/None/R",
     "- - Rearr_AlwaysLog - - - -"},
    {S, M::SatbAlwaysLog, 0, 1, 1, 0, 0, 0, "AlwaysLog/None", "AlwaysLog/None",
     "AlwaysLog AlwaysLog AlwaysLog AlwaysLog AlwaysLog AlwaysLog AlwaysLog"},
    {S, M::SatbAlwaysLog, 0, 1, 1, 1, 0, 0,
     "AlwaysLog/None/R", "AlwaysLog/None/R",
     "- - Rearr_AlwaysLog - - - -"},
    {S, M::SatbAlwaysLog, 1, 0, 0, 0, 0, 0, "AlwaysLog/None", "AlwaysLog/None",
     "AlwaysLog AlwaysLog AlwaysLog AlwaysLog AlwaysLog AlwaysLog AlwaysLog"},
    {S, M::SatbAlwaysLog, 1, 0, 0, 1, 0, 0,
     "AlwaysLog/None/R", "AlwaysLog/None/R",
     "- - Rearr_AlwaysLog - - - -"},
    {S, M::SatbAlwaysLog, 1, 0, 1, 0, 0, 0, "AlwaysLog/None", "AlwaysLog/None",
     "AlwaysLog AlwaysLog AlwaysLog AlwaysLog AlwaysLog AlwaysLog AlwaysLog"},
    {S, M::SatbAlwaysLog, 1, 0, 1, 1, 0, 0,
     "AlwaysLog/None/R", "AlwaysLog/None/R",
     "- - Rearr_AlwaysLog - - - -"},
    {S, M::SatbAlwaysLog, 1, 1, 0, 0, 0, 0, "Elided/None", "Elided/None",
     "Elided Elided Elided Elided Elided Elided Elided"},
    {S, M::SatbAlwaysLog, 1, 1, 0, 1, 0, 0, "Elided/None/R", "Elided/None/R",
     "Elided Elided Elided Elided Elided Elided Elided"},
    {S, M::SatbAlwaysLog, 1, 1, 1, 0, 0, 0, "Elided/None", "Elided/None",
     "Elided Elided Elided Elided Elided Elided Elided"},
    {S, M::SatbAlwaysLog, 1, 1, 1, 1, 0, 0, "Elided/None/R", "Elided/None/R",
     "Elided Elided Elided Elided Elided Elided Elided"},
    // Static tier, BarrierMode::CardMarking
    {S, M::CardMarking, 0, 0, 0, 0, 0, 0, "Card/None", "Card/None",
     "Card Card Card Card Card Card Card"},
    {S, M::CardMarking, 0, 0, 0, 1, 0, 0, "Card/None", "Card/None",
     "Card Card Card Card Card Card Card"},
    {S, M::CardMarking, 0, 0, 1, 0, 0, 0, "Card/None", "Card/None",
     "Card Card Card Card Card Card Card"},
    {S, M::CardMarking, 0, 0, 1, 1, 0, 0, "Card/None", "Card/None",
     "Card Card Card Card Card Card Card"},
    {S, M::CardMarking, 0, 1, 0, 0, 0, 0, "Card/None", "Card/None",
     "Card Card Card Card Card Card Card"},
    {S, M::CardMarking, 0, 1, 0, 1, 0, 0, "Card/None", "Card/None",
     "Card Card Card Card Card Card Card"},
    {S, M::CardMarking, 0, 1, 1, 0, 0, 0, "Card/None", "Card/None",
     "Card Card Card Card Card Card Card"},
    {S, M::CardMarking, 0, 1, 1, 1, 0, 0, "Card/None", "Card/None",
     "Card Card Card Card Card Card Card"},
    {S, M::CardMarking, 1, 0, 0, 0, 0, 0, "Card/None", "Card/None",
     "Card Card Card Card Card Card Card"},
    {S, M::CardMarking, 1, 0, 0, 1, 0, 0, "Card/None", "Card/None",
     "Card Card Card Card Card Card Card"},
    {S, M::CardMarking, 1, 0, 1, 0, 0, 0, "Card/None", "Card/None",
     "Card Card Card Card Card Card Card"},
    {S, M::CardMarking, 1, 0, 1, 1, 0, 0, "Card/None", "Card/None",
     "Card Card Card Card Card Card Card"},
    {S, M::CardMarking, 1, 1, 0, 0, 0, 0, "Elided/None", "Elided/None",
     "Elided Elided Elided Elided Elided Elided Elided"},
    {S, M::CardMarking, 1, 1, 0, 1, 0, 0, "Elided/None", "Elided/None",
     "Elided Elided Elided Elided Elided Elided Elided"},
    {S, M::CardMarking, 1, 1, 1, 0, 0, 0, "Elided/None", "Elided/None",
     "Elided Elided Elided Elided Elided Elided Elided"},
    {S, M::CardMarking, 1, 1, 1, 1, 0, 0, "Elided/None", "Elided/None",
     "Elided Elided Elided Elided Elided Elided Elided"},
    // Static tier, BarrierMode::Generational
    {S, M::Generational, 0, 0, 0, 0, 0, 0, "Satb/Kept", "Satb/Kept",
     "Gen Gen Gen Gen Gen Gen Gen"},
    {S, M::Generational, 0, 0, 0, 1, 0, 0, "Satb/Kept", "Satb/Kept",
     "Gen Gen Gen Gen Gen Gen Gen"},
    {S, M::Generational, 0, 0, 1, 0, 0, 0, "Satb/Kept", "Satb/Kept",
     "Gen Gen Gen Gen Gen Gen Gen"},
    {S, M::Generational, 0, 0, 1, 1, 0, 0, "Satb/Kept", "Satb/Kept",
     "Gen Gen Gen Gen Gen Gen Gen"},
    {S, M::Generational, 0, 1, 0, 0, 0, 0, "Satb/Kept", "Satb/Kept",
     "Gen Gen Gen Gen Gen Gen Gen"},
    {S, M::Generational, 0, 1, 0, 1, 0, 0, "Satb/Kept", "Satb/Kept",
     "Gen Gen Gen Gen Gen Gen Gen"},
    {S, M::Generational, 0, 1, 1, 0, 0, 0, "Satb/Kept", "Satb/Kept",
     "Gen Gen Gen Gen Gen Gen Gen"},
    {S, M::Generational, 0, 1, 1, 1, 0, 0, "Satb/Kept", "Satb/Kept",
     "Gen Gen Gen Gen Gen Gen Gen"},
    {S, M::Generational, 1, 0, 0, 0, 0, 0, "Satb/Kept", "Satb/Kept",
     "Gen Gen Gen Gen Gen Gen Gen"},
    {S, M::Generational, 1, 0, 0, 1, 0, 0, "Satb/Kept", "Satb/Kept",
     "Gen Gen Gen Gen Gen Gen Gen"},
    {S, M::Generational, 1, 0, 1, 0, 0, 0, "Satb/Elided", "Satb/Elided",
     "GenYoung - GenYoung GenYoung GenYoung GenYoung GenYoung"},
    {S, M::Generational, 1, 0, 1, 1, 0, 0, "Satb/Elided", "Satb/Elided",
     "GenYoung - GenYoung GenYoung GenYoung GenYoung GenYoung"},
    {S, M::Generational, 1, 1, 0, 0, 0, 0, "Elided/Kept", "Elided/Kept",
     "GenPreNull Elided GenPreNull GenPreNull "
     "GenPreNull GenPreNull GenPreNull"},
    {S, M::Generational, 1, 1, 0, 1, 0, 0, "Elided/Kept", "Elided/Kept",
     "GenPreNull Elided GenPreNull GenPreNull "
     "GenPreNull GenPreNull GenPreNull"},
    {S, M::Generational, 1, 1, 1, 0, 0, 0, "Elided/Elided", "Elided/Elided",
     "GenElided Elided GenElided GenElided GenElided GenElided GenElided"},
    {S, M::Generational, 1, 1, 1, 1, 0, 0, "Elided/Elided", "Elided/Elided",
     "GenElided Elided GenElided GenElided GenElided GenElided GenElided"},
    // Baseline tier, BarrierMode::None
    {B, M::None, 1, 1, 1, 0, 0, 0, "Elided/None", "None/None",
     "NoBarrier NoBarrier NoBarrier NoBarrier NoBarrier NoBarrier NoBarrier"},
    {B, M::None, 1, 1, 1, 1, 0, 0, "Elided/None", "None/None",
     "NoBarrier NoBarrier NoBarrier NoBarrier NoBarrier NoBarrier NoBarrier"},
    // Baseline tier, BarrierMode::Satb
    {B, M::Satb, 1, 1, 1, 0, 0, 0, "Elided/None", "Satb/None",
     "Satb Satb Satb Satb Satb Satb Satb"},
    {B, M::Satb, 1, 1, 1, 1, 0, 0, "Elided/None/R", "Satb/None/R",
     "- - Rearr_Satb - - - -"},
    // Baseline tier, BarrierMode::SatbAlwaysLog
    {B, M::SatbAlwaysLog, 1, 1, 1, 0, 0, 0, "Elided/None", "AlwaysLog/None",
     "AlwaysLog AlwaysLog AlwaysLog AlwaysLog AlwaysLog AlwaysLog AlwaysLog"},
    {B, M::SatbAlwaysLog, 1, 1, 1, 1, 0, 0, "Elided/None/R", "AlwaysLog/None/R",
     "- - Rearr_AlwaysLog - - - -"},
    // Baseline tier, BarrierMode::CardMarking
    {B, M::CardMarking, 1, 1, 1, 0, 0, 0, "Elided/None", "Card/None",
     "Card Card Card Card Card Card Card"},
    {B, M::CardMarking, 1, 1, 1, 1, 0, 0, "Elided/None", "Card/None",
     "Card Card Card Card Card Card Card"},
    // Baseline tier, BarrierMode::Generational
    {B, M::Generational, 1, 1, 1, 0, 0, 0, "Elided/Elided", "Satb/Kept",
     "Gen Gen Gen Gen Gen Gen Gen"},
    {B, M::Generational, 1, 1, 1, 1, 0, 0, "Elided/Elided", "Satb/Kept",
     "Gen Gen Gen Gen Gen Gen Gen"},
    // Speculative tier, BarrierMode::None
    {P, M::None, 1, 0, 0, 0, 0, 0, "None/None", "None/None",
     "NoBarrier NoBarrier NoBarrier NoBarrier NoBarrier NoBarrier NoBarrier"},
    {P, M::None, 1, 0, 0, 0, 0, 1, "None/None", "None/None",
     "NoBarrier NoBarrier NoBarrier NoBarrier NoBarrier NoBarrier NoBarrier"},
    {P, M::None, 1, 0, 0, 0, 1, 0, "None/None", "None/None",
     "NoBarrier NoBarrier NoBarrier NoBarrier NoBarrier NoBarrier NoBarrier"},
    {P, M::None, 1, 0, 0, 0, 1, 1, "None/None", "None/None",
     "NoBarrier NoBarrier NoBarrier NoBarrier NoBarrier NoBarrier NoBarrier"},
    {P, M::None, 1, 0, 1, 0, 0, 0, "None/None", "None/None",
     "NoBarrier NoBarrier NoBarrier NoBarrier NoBarrier NoBarrier NoBarrier"},
    {P, M::None, 1, 0, 1, 0, 0, 1, "None/None", "None/None",
     "NoBarrier NoBarrier NoBarrier NoBarrier NoBarrier NoBarrier NoBarrier"},
    {P, M::None, 1, 0, 1, 0, 1, 0, "None/None", "None/None",
     "NoBarrier NoBarrier NoBarrier NoBarrier NoBarrier NoBarrier NoBarrier"},
    {P, M::None, 1, 0, 1, 0, 1, 1, "None/None", "None/None",
     "NoBarrier NoBarrier NoBarrier NoBarrier NoBarrier NoBarrier NoBarrier"},
    {P, M::None, 1, 1, 0, 0, 0, 0, "Elided/None", "Elided/None",
     "Elided Elided Elided Elided Elided Elided Elided"},
    {P, M::None, 1, 1, 0, 0, 0, 1, "Elided/None", "Elided/None",
     "Elided Elided Elided Elided Elided Elided Elided"},
    {P, M::None, 1, 1, 0, 0, 1, 0, "Elided/None", "Elided/None",
     "Elided Elided Elided Elided Elided Elided Elided"},
    {P, M::None, 1, 1, 0, 0, 1, 1, "Elided/None", "Elided/None",
     "Elided Elided Elided Elided Elided Elided Elided"},
    {P, M::None, 1, 1, 1, 0, 0, 0, "Elided/None", "Elided/None",
     "Elided Elided Elided Elided Elided Elided Elided"},
    {P, M::None, 1, 1, 1, 0, 0, 1, "Elided/None", "Elided/None",
     "Elided Elided Elided Elided Elided Elided Elided"},
    {P, M::None, 1, 1, 1, 0, 1, 0, "Elided/None", "Elided/None",
     "Elided Elided Elided Elided Elided Elided Elided"},
    {P, M::None, 1, 1, 1, 0, 1, 1, "Elided/None", "Elided/None",
     "Elided Elided Elided Elided Elided Elided Elided"},
    // Speculative tier, BarrierMode::Satb
    {P, M::Satb, 1, 0, 0, 0, 0, 0, "Satb/None", "Satb/None",
     "Satb Satb Satb Satb Satb Satb Satb"},
    {P, M::Satb, 1, 0, 0, 0, 0, 1, "Satb/None", "Satb/None",
     "Satb Satb Satb Satb Satb Satb Satb"},
    {P, M::Satb, 1, 0, 0, 0, 1, 0, "Satb/None", "GuardNull/None",
     "Spec Spec Spec Spec Spec Spec Spec"},
    {P, M::Satb, 1, 0, 0, 0, 1, 1, "Satb/None", "GuardNull/None",
     "Spec Spec Spec Spec Spec Spec Spec"},
    {P, M::Satb, 1, 0, 1, 0, 0, 0, "Satb/None", "Satb/None",
     "Satb Satb Satb Satb Satb Satb Satb"},
    {P, M::Satb, 1, 0, 1, 0, 0, 1, "Satb/None", "Satb/None",
     "Satb Satb Satb Satb Satb Satb Satb"},
    {P, M::Satb, 1, 0, 1, 0, 1, 0, "Satb/None", "GuardNull/None",
     "Spec Spec Spec Spec Spec Spec Spec"},
    {P, M::Satb, 1, 0, 1, 0, 1, 1, "Satb/None", "GuardNull/None",
     "Spec Spec Spec Spec Spec Spec Spec"},
    {P, M::Satb, 1, 1, 0, 0, 0, 0, "Elided/None", "Elided/None",
     "Elided Elided Elided Elided Elided Elided Elided"},
    {P, M::Satb, 1, 1, 0, 0, 0, 1, "Elided/None", "Elided/None",
     "Elided Elided Elided Elided Elided Elided Elided"},
    {P, M::Satb, 1, 1, 0, 0, 1, 0, "Elided/None", "Elided/None",
     "Elided Elided Elided Elided Elided Elided Elided"},
    {P, M::Satb, 1, 1, 0, 0, 1, 1, "Elided/None", "Elided/None",
     "Elided Elided Elided Elided Elided Elided Elided"},
    {P, M::Satb, 1, 1, 1, 0, 0, 0, "Elided/None", "Elided/None",
     "Elided Elided Elided Elided Elided Elided Elided"},
    {P, M::Satb, 1, 1, 1, 0, 0, 1, "Elided/None", "Elided/None",
     "Elided Elided Elided Elided Elided Elided Elided"},
    {P, M::Satb, 1, 1, 1, 0, 1, 0, "Elided/None", "Elided/None",
     "Elided Elided Elided Elided Elided Elided Elided"},
    {P, M::Satb, 1, 1, 1, 0, 1, 1, "Elided/None", "Elided/None",
     "Elided Elided Elided Elided Elided Elided Elided"},
    // Speculative tier, BarrierMode::SatbAlwaysLog
    {P, M::SatbAlwaysLog, 1, 0, 0, 0, 0, 0, "AlwaysLog/None", "AlwaysLog/None",
     "AlwaysLog AlwaysLog AlwaysLog AlwaysLog AlwaysLog AlwaysLog AlwaysLog"},
    {P, M::SatbAlwaysLog, 1, 0, 0, 0, 0, 1, "AlwaysLog/None", "AlwaysLog/None",
     "AlwaysLog AlwaysLog AlwaysLog AlwaysLog AlwaysLog AlwaysLog AlwaysLog"},
    {P, M::SatbAlwaysLog, 1, 0, 0, 0, 1, 0,
     "AlwaysLog/None", "GuardNullAlwaysLog/None",
     "Spec Spec Spec Spec Spec Spec Spec"},
    {P, M::SatbAlwaysLog, 1, 0, 0, 0, 1, 1,
     "AlwaysLog/None", "GuardNullAlwaysLog/None",
     "Spec Spec Spec Spec Spec Spec Spec"},
    {P, M::SatbAlwaysLog, 1, 0, 1, 0, 0, 0, "AlwaysLog/None", "AlwaysLog/None",
     "AlwaysLog AlwaysLog AlwaysLog AlwaysLog AlwaysLog AlwaysLog AlwaysLog"},
    {P, M::SatbAlwaysLog, 1, 0, 1, 0, 0, 1, "AlwaysLog/None", "AlwaysLog/None",
     "AlwaysLog AlwaysLog AlwaysLog AlwaysLog AlwaysLog AlwaysLog AlwaysLog"},
    {P, M::SatbAlwaysLog, 1, 0, 1, 0, 1, 0,
     "AlwaysLog/None", "GuardNullAlwaysLog/None",
     "Spec Spec Spec Spec Spec Spec Spec"},
    {P, M::SatbAlwaysLog, 1, 0, 1, 0, 1, 1,
     "AlwaysLog/None", "GuardNullAlwaysLog/None",
     "Spec Spec Spec Spec Spec Spec Spec"},
    {P, M::SatbAlwaysLog, 1, 1, 0, 0, 0, 0, "Elided/None", "Elided/None",
     "Elided Elided Elided Elided Elided Elided Elided"},
    {P, M::SatbAlwaysLog, 1, 1, 0, 0, 0, 1, "Elided/None", "Elided/None",
     "Elided Elided Elided Elided Elided Elided Elided"},
    {P, M::SatbAlwaysLog, 1, 1, 0, 0, 1, 0, "Elided/None", "Elided/None",
     "Elided Elided Elided Elided Elided Elided Elided"},
    {P, M::SatbAlwaysLog, 1, 1, 0, 0, 1, 1, "Elided/None", "Elided/None",
     "Elided Elided Elided Elided Elided Elided Elided"},
    {P, M::SatbAlwaysLog, 1, 1, 1, 0, 0, 0, "Elided/None", "Elided/None",
     "Elided Elided Elided Elided Elided Elided Elided"},
    {P, M::SatbAlwaysLog, 1, 1, 1, 0, 0, 1, "Elided/None", "Elided/None",
     "Elided Elided Elided Elided Elided Elided Elided"},
    {P, M::SatbAlwaysLog, 1, 1, 1, 0, 1, 0, "Elided/None", "Elided/None",
     "Elided Elided Elided Elided Elided Elided Elided"},
    {P, M::SatbAlwaysLog, 1, 1, 1, 0, 1, 1, "Elided/None", "Elided/None",
     "Elided Elided Elided Elided Elided Elided Elided"},
    // Speculative tier, BarrierMode::CardMarking
    {P, M::CardMarking, 1, 0, 0, 0, 0, 0, "Card/None", "Card/None",
     "Card Card Card Card Card Card Card"},
    {P, M::CardMarking, 1, 0, 0, 0, 0, 1, "Card/None", "Card/None",
     "Card Card Card Card Card Card Card"},
    {P, M::CardMarking, 1, 0, 0, 0, 1, 0, "Card/None", "Card/None",
     "Card Card Card Card Card Card Card"},
    {P, M::CardMarking, 1, 0, 0, 0, 1, 1, "Card/None", "Card/None",
     "Card Card Card Card Card Card Card"},
    {P, M::CardMarking, 1, 0, 1, 0, 0, 0, "Card/None", "Card/None",
     "Card Card Card Card Card Card Card"},
    {P, M::CardMarking, 1, 0, 1, 0, 0, 1, "Card/None", "Card/None",
     "Card Card Card Card Card Card Card"},
    {P, M::CardMarking, 1, 0, 1, 0, 1, 0, "Card/None", "Card/None",
     "Card Card Card Card Card Card Card"},
    {P, M::CardMarking, 1, 0, 1, 0, 1, 1, "Card/None", "Card/None",
     "Card Card Card Card Card Card Card"},
    {P, M::CardMarking, 1, 1, 0, 0, 0, 0, "Elided/None", "Elided/None",
     "Elided Elided Elided Elided Elided Elided Elided"},
    {P, M::CardMarking, 1, 1, 0, 0, 0, 1, "Elided/None", "Elided/None",
     "Elided Elided Elided Elided Elided Elided Elided"},
    {P, M::CardMarking, 1, 1, 0, 0, 1, 0, "Elided/None", "Elided/None",
     "Elided Elided Elided Elided Elided Elided Elided"},
    {P, M::CardMarking, 1, 1, 0, 0, 1, 1, "Elided/None", "Elided/None",
     "Elided Elided Elided Elided Elided Elided Elided"},
    {P, M::CardMarking, 1, 1, 1, 0, 0, 0, "Elided/None", "Elided/None",
     "Elided Elided Elided Elided Elided Elided Elided"},
    {P, M::CardMarking, 1, 1, 1, 0, 0, 1, "Elided/None", "Elided/None",
     "Elided Elided Elided Elided Elided Elided Elided"},
    {P, M::CardMarking, 1, 1, 1, 0, 1, 0, "Elided/None", "Elided/None",
     "Elided Elided Elided Elided Elided Elided Elided"},
    {P, M::CardMarking, 1, 1, 1, 0, 1, 1, "Elided/None", "Elided/None",
     "Elided Elided Elided Elided Elided Elided Elided"},
    // Speculative tier, BarrierMode::Generational
    {P, M::Generational, 1, 0, 0, 0, 0, 0, "Satb/Kept", "Satb/Kept",
     "Gen Gen Gen Gen Gen Gen Gen"},
    {P, M::Generational, 1, 0, 0, 0, 0, 1, "Satb/Kept", "Satb/GuardYoung",
     "Spec Gen Spec Spec Spec Spec Spec"},
    {P, M::Generational, 1, 0, 0, 0, 1, 0, "Satb/Kept", "GuardNull/Kept",
     "Spec Spec Spec Spec Spec Spec Spec"},
    {P, M::Generational, 1, 0, 0, 0, 1, 1, "Satb/Kept", "GuardNull/GuardYoung",
     "Spec Spec Spec Spec Spec Spec Spec"},
    {P, M::Generational, 1, 0, 1, 0, 0, 0, "Satb/Elided", "Satb/Elided",
     "GenYoung - GenYoung GenYoung GenYoung GenYoung GenYoung"},
    {P, M::Generational, 1, 0, 1, 0, 0, 1, "Satb/Elided", "Satb/Elided",
     "GenYoung - GenYoung GenYoung GenYoung GenYoung GenYoung"},
    {P, M::Generational, 1, 0, 1, 0, 1, 0, "Satb/Elided", "GuardNull/Elided",
     "Spec Spec Spec Spec Spec Spec Spec"},
    {P, M::Generational, 1, 0, 1, 0, 1, 1, "Satb/Elided", "GuardNull/Elided",
     "Spec Spec Spec Spec Spec Spec Spec"},
    {P, M::Generational, 1, 1, 0, 0, 0, 0, "Elided/Kept", "Elided/Kept",
     "GenPreNull Elided GenPreNull GenPreNull "
     "GenPreNull GenPreNull GenPreNull"},
    {P, M::Generational, 1, 1, 0, 0, 0, 1, "Elided/Kept", "Elided/GuardYoung",
     "Spec Elided Spec Spec Spec Spec Spec"},
    {P, M::Generational, 1, 1, 0, 0, 1, 0, "Elided/Kept", "Elided/Kept",
     "GenPreNull Elided GenPreNull GenPreNull "
     "GenPreNull GenPreNull GenPreNull"},
    {P, M::Generational, 1, 1, 0, 0, 1, 1, "Elided/Kept", "Elided/GuardYoung",
     "Spec Elided Spec Spec Spec Spec Spec"},
    {P, M::Generational, 1, 1, 1, 0, 0, 0, "Elided/Elided", "Elided/Elided",
     "GenElided Elided GenElided GenElided GenElided GenElided GenElided"},
    {P, M::Generational, 1, 1, 1, 0, 0, 1, "Elided/Elided", "Elided/Elided",
     "GenElided Elided GenElided GenElided GenElided GenElided GenElided"},
    {P, M::Generational, 1, 1, 1, 0, 1, 0, "Elided/Elided", "Elided/Elided",
     "GenElided Elided GenElided GenElided GenElided GenElided GenElided"},
    {P, M::Generational, 1, 1, 1, 0, 1, 1, "Elided/Elided", "Elided/Elided",
     "GenElided Elided GenElided GenElided GenElided GenElided GenElided"},
    // Speculative tier, BarrierMode::Satb
    {P, M::Satb, 1, 0, 0, 1, 0, 0, "Satb/None/R", "Satb/None/R",
     "- - Rearr_Satb - - - -"},
    {P, M::Satb, 1, 0, 0, 1, 1, 0, "Satb/None/R", "Satb/None/R",
     "- - Rearr_Satb - - - -"},
    // Speculative tier, BarrierMode::SatbAlwaysLog
    {P, M::SatbAlwaysLog, 1, 0, 0, 1, 0, 0,
     "AlwaysLog/None/R", "AlwaysLog/None/R",
     "- - Rearr_AlwaysLog - - - -"},
    {P, M::SatbAlwaysLog, 1, 0, 0, 1, 1, 0,
     "AlwaysLog/None/R", "AlwaysLog/None/R",
     "- - Rearr_AlwaysLog - - - -"},
};

const StoreKind Kinds[] = {
    StoreKind::PutFieldRef,     StoreKind::PutStaticRef, StoreKind::AAStore,
    StoreKind::ArrayFill,       StoreKind::ArrayCopy,
    StoreKind::LoadPutFieldRef, StoreKind::LoadAAStore,
};
const char *const KindNames[] = {"PutFieldRef",     "PutStaticRef",
                                 "AAStore",         "ArrayFill",
                                 "ArrayCopy",       "LoadPutFieldRef",
                                 "LoadAAStore"};

std::string planString(BarrierPlan P) {
  static const char *const Marks[] = {"None",      "Elided", "Satb",
                                      "AlwaysLog", "Card",   "GuardNull",
                                      "GuardNullAlwaysLog"};
  static const char *const Rems[] = {"None", "Elided", "Kept", "GuardYoung"};
  std::string Out = std::string(Marks[static_cast<int>(P.Mark)]) + "/" +
                    Rems[static_cast<int>(P.Rem)];
  return P.Rearrange ? Out + "/R" : Out;
}

TranslationTier tierOf(char T) {
  return T == S   ? TranslationTier::Static
         : T == B ? TranslationTier::Baseline
                  : TranslationTier::Speculative;
}

std::string describe(const PlanRow &R) {
  std::ostringstream OS;
  OS << R.Tier << " mode " << static_cast<int>(R.Mode) << " apply "
     << R.Apply << " elide " << R.Elide << " young " << R.Young
     << " rearr " << R.Rearr << " nullspec " << R.NullSpec << " youngspec "
     << R.YoungSpec;
  return OS.str();
}

/// The opcode a row selects for kind \p K, if the kind has one.
std::optional<FastOp> selected(const PlanRow &R, size_t K) {
  CompilerOptions Opts;
  Opts.Barrier = R.Mode;
  Opts.ApplyElision = R.Apply;
  BarrierDecision D;
  D.IsBarrierSite = true;
  D.Elide = R.Elide;
  D.TargetYoung = R.Young;
  BarrierPlan Plan =
      tierPlan(planFor(Opts, D, R.Rearr), R.Mode, tierOf(R.Tier), R.NullSpec,
               R.YoungSpec, Kinds[K] == StoreKind::PutStaticRef);
  return findStoreOp(Kinds[K], Plan);
}

std::string nameOf(std::optional<FastOp> Op) {
  return Op ? fastOpName(*Op) : "-";
}

std::vector<std::string> expectedOps(const PlanRow &R) {
  std::vector<std::string> Out;
  std::istringstream IS(R.Ops);
  std::string Suffix;
  for (size_t K = 0; IS >> Suffix; ++K)
    Out.push_back(Suffix == "-" ? "-" : std::string(KindNames[K]) + "_" +
                                            Suffix);
  return Out;
}

} // namespace

TEST(BarrierPlan, RowsPinPlansAndOpcodes) {
  for (const PlanRow &R : Rows) {
    CompilerOptions Opts;
    Opts.Barrier = R.Mode;
    Opts.ApplyElision = R.Apply;
    BarrierDecision D;
    D.IsBarrierSite = true;
    D.Elide = R.Elide;
    D.TargetYoung = R.Young;
    BarrierPlan Plan = planFor(Opts, D, R.Rearr);
    EXPECT_EQ(planString(Plan), R.Plan) << describe(R);
    BarrierPlan Tiered = tierPlan(Plan, R.Mode, tierOf(R.Tier), R.NullSpec,
                                  R.YoungSpec, /*IsStatic=*/false);
    EXPECT_EQ(planString(Tiered), R.TierPlan) << describe(R);
    // A guarded plan travels in FastInst::C.
    EXPECT_EQ(BarrierPlan::fromBits(Tiered.bits()), Tiered) << describe(R);

    std::vector<std::string> Want = expectedOps(R);
    ASSERT_EQ(Want.size(), std::size(Kinds)) << describe(R);
    for (size_t K = 0; K != std::size(Kinds); ++K)
      EXPECT_EQ(nameOf(selected(R, K)), Want[K])
          << describe(R) << " kind " << KindNames[K];
  }
}

TEST(BarrierPlan, FusedStoresAreTheLoadPairOfTheSamePlan) {
  // The peephole's store pairs: Load + a field/array store fuses into the
  // Load* opcode of the same plan, wherever the row table has one.
  for (const PlanRow &R : Rows) {
    std::vector<std::string> Want = expectedOps(R);
    // PutFieldRef -> LoadPutFieldRef, AAStore -> LoadAAStore.
    for (auto [Plain, Load] : {std::pair<size_t, size_t>{0, 5}, {2, 6}}) {
      if (std::optional<FastOp> Op = selected(R, Plain)) {
        EXPECT_EQ(nameOf(fusedOp(FastOp::Load, *Op)), Want[Load])
            << describe(R) << " kind " << KindNames[Plain];
      }
    }
  }
}

TEST(BarrierPlan, EveryStoreOpcodeIsSelectedAndRoundTrips) {
  std::set<std::string> Selected;
  for (const PlanRow &R : Rows)
    for (size_t K = 0; K != std::size(Kinds); ++K)
      Selected.insert(nameOf(selected(R, K)));
  size_t StoreOps = 0;
  for (unsigned I = 0; I != kNumFastOps; ++I) {
    FastOp Op = static_cast<FastOp>(I);
    std::optional<StoreOpInfo> SI = storeOpInfo(Op);
    if (!SI)
      continue;
    ++StoreOps;
    EXPECT_TRUE(Selected.count(fastOpName(Op)))
        << fastOpName(Op) << " is generated but no plan selects it";
    EXPECT_EQ(findStoreOp(SI->Kind, SI->Plan), Op) << fastOpName(Op);
  }
  EXPECT_EQ(StoreOps, 69u);
  EXPECT_EQ(kNumFastOps, 169u);
}
