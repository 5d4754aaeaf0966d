//===- tests/config_defaults_test.cpp - Defaults are constants ------------===//
///
/// \file
/// Every library default is a constant in code, so a run's configuration
/// is what its code sets, whatever shell runs it. ctest runs this binary
/// with SATB_PACER* and SATB_NO_FUSE set to non-default values
/// (tests/CMakeLists.txt); the default-constructed configurations must
/// still hold the constants below.
///
//===----------------------------------------------------------------------===//

#include "gc/Pacer.h"
#include "interp/ThreadedCycle.h"
#include "jit/FastCode.h"

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

TEST(ConfigDefaults, PacerConfig) { expectDefaultPacer(PacerConfig{}); }

TEST(ConfigDefaults, TranslateOptions) {
  TranslateOptions TO{};
  EXPECT_TRUE(TO.Fuse);
  EXPECT_FALSE(TO.InsertSafepoints);
}

TEST(ConfigDefaults, MultiMutatorConfig) {
  MultiMutatorConfig Cfg{};
  EXPECT_TRUE(Cfg.Fuse);
  expectDefaultPacer(Cfg.Pacer);
}

} // namespace
