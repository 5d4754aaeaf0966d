//===- tests/barrier_plan_test.cpp - One barrier decision per site --------===//
///
/// \file
/// The barrier plan is the compiler's whole verdict for a store site
/// (jit/BarrierPlan.h), and the fast engine's store opcodes are generated from
/// it (SATB_FAST_STORE_OPS in jit/FastCode.h). This pins the whole mapping by
/// value: every BarrierMode x ApplyElision x {Elide, TargetYoung,
/// rearrangement}, each row naming the plan planFor computes and the opcode
/// each store kind lowers to. The opcode names were those of the hand-written
/// per-variant selection this table replaced, so a change to any selection
/// shows up here as a named row. "-" marks a combination the compiler never
/// produces for that kind (a rearranged non-aastore, a young-target static);
/// such a kind has no opcode for it.
///
//===----------------------------------------------------------------------===//

#include "jit/FastCode.h"

#include <gtest/gtest.h>

#include <set>
#include <sstream>

using namespace satb;

namespace {

using M = BarrierMode;

struct PlanRow {
  BarrierMode Mode;
  bool Apply, Elide, Young, Rearr;
  const char *Plan; ///< planFor's plan, Mark/Rem[/R]
  /// Opcode suffix per kind: PutFieldRef PutStaticRef AAStore ArrayFill
  /// ArrayCopy, or one suffix for every kind.
  const char *Ops;
};

const PlanRow Rows[] = {
    // BarrierMode::None
    {M::None, 0, 0, 0, 0, "None/None", "NoBarrier"},
    {M::None, 0, 0, 0, 1, "None/None", "NoBarrier"},
    {M::None, 0, 0, 1, 0, "None/None", "NoBarrier"},
    {M::None, 0, 0, 1, 1, "None/None", "NoBarrier"},
    {M::None, 0, 1, 0, 0, "None/None", "NoBarrier"},
    {M::None, 0, 1, 0, 1, "None/None", "NoBarrier"},
    {M::None, 0, 1, 1, 0, "None/None", "NoBarrier"},
    {M::None, 0, 1, 1, 1, "None/None", "NoBarrier"},
    {M::None, 1, 0, 0, 0, "None/None", "NoBarrier"},
    {M::None, 1, 0, 0, 1, "None/None", "NoBarrier"},
    {M::None, 1, 0, 1, 0, "None/None", "NoBarrier"},
    {M::None, 1, 0, 1, 1, "None/None", "NoBarrier"},
    {M::None, 1, 1, 0, 0, "Elided/None", "Elided"},
    {M::None, 1, 1, 0, 1, "Elided/None", "Elided"},
    {M::None, 1, 1, 1, 0, "Elided/None", "Elided"},
    {M::None, 1, 1, 1, 1, "Elided/None", "Elided"},
    // BarrierMode::Satb
    {M::Satb, 0, 0, 0, 0, "Satb/None", "Satb"},
    {M::Satb, 0, 0, 0, 1, "Satb/None/R", "- - Rearr_Satb - -"},
    {M::Satb, 0, 0, 1, 0, "Satb/None", "Satb"},
    {M::Satb, 0, 0, 1, 1, "Satb/None/R", "- - Rearr_Satb - -"},
    {M::Satb, 0, 1, 0, 0, "Satb/None", "Satb"},
    {M::Satb, 0, 1, 0, 1, "Satb/None/R", "- - Rearr_Satb - -"},
    {M::Satb, 0, 1, 1, 0, "Satb/None", "Satb"},
    {M::Satb, 0, 1, 1, 1, "Satb/None/R", "- - Rearr_Satb - -"},
    {M::Satb, 1, 0, 0, 0, "Satb/None", "Satb"},
    {M::Satb, 1, 0, 0, 1, "Satb/None/R", "- - Rearr_Satb - -"},
    {M::Satb, 1, 0, 1, 0, "Satb/None", "Satb"},
    {M::Satb, 1, 0, 1, 1, "Satb/None/R", "- - Rearr_Satb - -"},
    {M::Satb, 1, 1, 0, 0, "Elided/None", "Elided"},
    {M::Satb, 1, 1, 0, 1, "Elided/None/R", "Elided"},
    {M::Satb, 1, 1, 1, 0, "Elided/None", "Elided"},
    {M::Satb, 1, 1, 1, 1, "Elided/None/R", "Elided"},
    // BarrierMode::SatbAlwaysLog
    {M::SatbAlwaysLog, 0, 0, 0, 0, "AlwaysLog/None", "AlwaysLog"},
    {M::SatbAlwaysLog, 0, 0, 0, 1, "AlwaysLog/None/R",
     "- - Rearr_AlwaysLog - -"},
    {M::SatbAlwaysLog, 0, 0, 1, 0, "AlwaysLog/None", "AlwaysLog"},
    {M::SatbAlwaysLog, 0, 0, 1, 1, "AlwaysLog/None/R",
     "- - Rearr_AlwaysLog - -"},
    {M::SatbAlwaysLog, 0, 1, 0, 0, "AlwaysLog/None", "AlwaysLog"},
    {M::SatbAlwaysLog, 0, 1, 0, 1, "AlwaysLog/None/R",
     "- - Rearr_AlwaysLog - -"},
    {M::SatbAlwaysLog, 0, 1, 1, 0, "AlwaysLog/None", "AlwaysLog"},
    {M::SatbAlwaysLog, 0, 1, 1, 1, "AlwaysLog/None/R",
     "- - Rearr_AlwaysLog - -"},
    {M::SatbAlwaysLog, 1, 0, 0, 0, "AlwaysLog/None", "AlwaysLog"},
    {M::SatbAlwaysLog, 1, 0, 0, 1, "AlwaysLog/None/R",
     "- - Rearr_AlwaysLog - -"},
    {M::SatbAlwaysLog, 1, 0, 1, 0, "AlwaysLog/None", "AlwaysLog"},
    {M::SatbAlwaysLog, 1, 0, 1, 1, "AlwaysLog/None/R",
     "- - Rearr_AlwaysLog - -"},
    {M::SatbAlwaysLog, 1, 1, 0, 0, "Elided/None", "Elided"},
    {M::SatbAlwaysLog, 1, 1, 0, 1, "Elided/None/R", "Elided"},
    {M::SatbAlwaysLog, 1, 1, 1, 0, "Elided/None", "Elided"},
    {M::SatbAlwaysLog, 1, 1, 1, 1, "Elided/None/R", "Elided"},
    // BarrierMode::CardMarking
    {M::CardMarking, 0, 0, 0, 0, "Card/None", "Card"},
    {M::CardMarking, 0, 0, 0, 1, "Card/None", "Card"},
    {M::CardMarking, 0, 0, 1, 0, "Card/None", "Card"},
    {M::CardMarking, 0, 0, 1, 1, "Card/None", "Card"},
    {M::CardMarking, 0, 1, 0, 0, "Card/None", "Card"},
    {M::CardMarking, 0, 1, 0, 1, "Card/None", "Card"},
    {M::CardMarking, 0, 1, 1, 0, "Card/None", "Card"},
    {M::CardMarking, 0, 1, 1, 1, "Card/None", "Card"},
    {M::CardMarking, 1, 0, 0, 0, "Card/None", "Card"},
    {M::CardMarking, 1, 0, 0, 1, "Card/None", "Card"},
    {M::CardMarking, 1, 0, 1, 0, "Card/None", "Card"},
    {M::CardMarking, 1, 0, 1, 1, "Card/None", "Card"},
    {M::CardMarking, 1, 1, 0, 0, "Elided/None", "Elided"},
    {M::CardMarking, 1, 1, 0, 1, "Elided/None", "Elided"},
    {M::CardMarking, 1, 1, 1, 0, "Elided/None", "Elided"},
    {M::CardMarking, 1, 1, 1, 1, "Elided/None", "Elided"},
    // BarrierMode::Generational
    {M::Generational, 0, 0, 0, 0, "Satb/Kept", "Gen"},
    {M::Generational, 0, 0, 0, 1, "Satb/Kept", "Gen"},
    {M::Generational, 0, 0, 1, 0, "Satb/Kept", "Gen"},
    {M::Generational, 0, 0, 1, 1, "Satb/Kept", "Gen"},
    {M::Generational, 0, 1, 0, 0, "Satb/Kept", "Gen"},
    {M::Generational, 0, 1, 0, 1, "Satb/Kept", "Gen"},
    {M::Generational, 0, 1, 1, 0, "Satb/Kept", "Gen"},
    {M::Generational, 0, 1, 1, 1, "Satb/Kept", "Gen"},
    {M::Generational, 1, 0, 0, 0, "Satb/Kept", "Gen"},
    {M::Generational, 1, 0, 0, 1, "Satb/Kept", "Gen"},
    {M::Generational, 1, 0, 1, 0, "Satb/Elided",
     "GenYoung - GenYoung GenYoung GenYoung"},
    {M::Generational, 1, 0, 1, 1, "Satb/Elided",
     "GenYoung - GenYoung GenYoung GenYoung"},
    {M::Generational, 1, 1, 0, 0, "Elided/Kept",
     "GenPreNull Elided GenPreNull GenPreNull GenPreNull"},
    {M::Generational, 1, 1, 0, 1, "Elided/Kept",
     "GenPreNull Elided GenPreNull GenPreNull GenPreNull"},
    {M::Generational, 1, 1, 1, 0, "Elided/Elided",
     "GenElided Elided GenElided GenElided GenElided"},
    {M::Generational, 1, 1, 1, 1, "Elided/Elided",
     "GenElided Elided GenElided GenElided GenElided"},
};

const StoreKind Kinds[] = {StoreKind::PutFieldRef, StoreKind::PutStaticRef,
                           StoreKind::AAStore, StoreKind::ArrayFill,
                           StoreKind::ArrayCopy};
const char *const KindNames[] = {"PutFieldRef", "PutStaticRef", "AAStore",
                                 "ArrayFill", "ArrayCopy"};

std::string planString(BarrierPlan P) {
  static const char *const Marks[] = {"None", "Elided", "Satb", "AlwaysLog",
                                      "Card"};
  static const char *const Rems[] = {"None", "Elided", "Kept"};
  std::string Out = std::string(Marks[static_cast<int>(P.Mark)]) + "/" +
                    Rems[static_cast<int>(P.Rem)];
  return P.Rearrange ? Out + "/R" : Out;
}

std::string describe(const PlanRow &R) {
  std::ostringstream OS;
  OS << "mode " << static_cast<int>(R.Mode) << " apply " << R.Apply
     << " elide " << R.Elide << " young " << R.Young << " rearr " << R.Rearr;
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
  return findStoreOp(Kinds[K], planFor(Opts, D, R.Rearr));
}

std::string nameOf(std::optional<FastOp> Op) {
  return Op ? fastOpName(*Op) : "-";
}

std::vector<std::string> expectedOps(const PlanRow &R) {
  std::vector<std::string> Suffixes, Out;
  std::istringstream IS(R.Ops);
  for (std::string Suffix; IS >> Suffix;)
    Suffixes.push_back(Suffix);
  if (Suffixes.size() == 1)
    Suffixes.assign(std::size(Kinds), Suffixes[0]);
  for (size_t K = 0; K != Suffixes.size(); ++K)
    Out.push_back(Suffixes[K] == "-" ? "-"
                                     : std::string(KindNames[K]) + "_" +
                                           Suffixes[K]);
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

    std::vector<std::string> Want = expectedOps(R);
    ASSERT_EQ(Want.size(), std::size(Kinds)) << describe(R);
    for (size_t K = 0; K != std::size(Kinds); ++K)
      EXPECT_EQ(nameOf(selected(R, K)), Want[K])
          << describe(R) << " kind " << KindNames[K];
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
  EXPECT_EQ(StoreOps, 44u);
  EXPECT_EQ(kNumFastOps, 123u);
}
