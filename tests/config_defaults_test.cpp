//===- tests/config_defaults_test.cpp - Defaults are constants ------------===//
///
/// \file
/// Every library default is a constant in code, so a run's configuration
/// is what its code sets, whatever shell runs it. ctest runs this binary
/// with SATB_PACER*, SATB_TIER*, SATB_DEOPT_EVERY and SATB_NO_FUSE set to
/// non-default values (tests/CMakeLists.txt); the default-constructed
/// configurations must still hold the constants below.
///
//===----------------------------------------------------------------------===//

#include "gc/Pacer.h"
#include "interp/ThreadedCycle.h"
#include "jit/FastCode.h"
#include "jit/MethodVersionTable.h"

#include "gtest/gtest.h"

using namespace satb;

namespace {

void expectDefaultPacer(const PacerConfig &C) {
  EXPECT_FALSE(C.Enabled);
  EXPECT_EQ(C.TriggerBytes, 256u * 1024);
  EXPECT_EQ(C.LiveHighWater, 1u << 20);
  EXPECT_EQ(C.LiveHeadroom, 4096u);
  EXPECT_EQ(C.NurseryFillPct, 75u);
  EXPECT_EQ(C.MaxCycles, 0u);
}

void expectDefaultTiering(const TieredOptions &T) {
  EXPECT_FALSE(T.Enabled);
  EXPECT_EQ(T.WarmInvocations, 8u);
  EXPECT_EQ(T.HotInvocations, 32u);
  EXPECT_EQ(T.MinSiteExecs, 16u);
  EXPECT_EQ(T.MaxDeopts, 3u);
  EXPECT_EQ(T.ForceDeoptEvery, 0u);
}

TEST(ConfigDefaults, PacerConfig) { expectDefaultPacer(PacerConfig{}); }

TEST(ConfigDefaults, TieredOptions) { expectDefaultTiering(TieredOptions{}); }

TEST(ConfigDefaults, TranslateOptions) {
  TranslateOptions TO{};
  EXPECT_TRUE(TO.Fuse);
  EXPECT_FALSE(TO.InsertSafepoints);
  EXPECT_EQ(TO.Tier, TranslationTier::Static);
}

TEST(ConfigDefaults, MultiMutatorConfig) {
  MultiMutatorConfig Cfg{};
  EXPECT_TRUE(Cfg.Fuse);
  expectDefaultPacer(Cfg.Pacer);
  expectDefaultTiering(Cfg.Tiered);
}

} // namespace
