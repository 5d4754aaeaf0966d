//===- tests/engine_equivalence_test.cpp - Fixpoint engine invariants -----===//
///
/// \file
/// The fixpoint engine's performance features must not change its
/// answers. Three invariants pin that down:
///
///   - the worklist order (RPO priority vs. the historical FIFO) may
///     change how many blocks are visited, never which barriers elide;
///   - parallel method compilation (CompileThreads > 1) must produce the
///     same CompiledProgram as the serial compile, method for method;
///   - the widening trigger counts *merges into* a block's in-state, so
///     widening — and through it every decision — is independent of the
///     iteration order even with a tiny visit budget.
///
/// All three are checked over the seeded random-program corpus and every
/// Table 1 workload, across the analysis config variations that exercise
/// distinct transfer paths (two-name allocation naming on/off,
/// null-or-same on/off, field-only mode).
///
//===----------------------------------------------------------------------===//

#include "RandomProgram.h"
#include "TestUtil.h"

#include "workloads/Workload.h"

#include <sstream>

using namespace satb;
using namespace satb::testutil;

namespace {

std::string decisionKey(const BarrierDecision &D) {
  std::ostringstream OS;
  OS << D.IsBarrierSite << D.IsArraySite << D.Elide
     << static_cast<int>(D.Reason);
  return OS.str();
}

/// Renders the full decision vector so mismatches point at the exact
/// instruction.
std::string decisionString(const std::vector<BarrierDecision> &Ds) {
  std::ostringstream OS;
  for (size_t I = 0; I != Ds.size(); ++I)
    if (Ds[I].IsBarrierSite)
      OS << I << ":" << decisionKey(Ds[I]) << " ";
  return OS.str();
}

/// The config variations under test; each exercises a different transfer
/// or merge path.
std::vector<std::pair<std::string, AnalysisConfig>> configVariations() {
  std::vector<std::pair<std::string, AnalysisConfig>> Out;
  Out.emplace_back("default", AnalysisConfig{});
  AnalysisConfig Nos;
  Nos.EnableNullOrSame = true;
  Out.emplace_back("null-or-same", Nos);
  AnalysisConfig OneName;
  OneName.TwoNamesPerSite = false;
  Out.emplace_back("one-name", OneName);
  AnalysisConfig FieldOnly;
  FieldOnly.Mode = AnalysisMode::FieldOnly;
  Out.emplace_back("field-only", FieldOnly);
  return Out;
}

void expectSameDecisions(const AnalysisResult &A, const AnalysisResult &B,
                         const std::string &What) {
  ASSERT_EQ(A.Decisions.size(), B.Decisions.size()) << What;
  EXPECT_EQ(decisionString(A.Decisions), decisionString(B.Decisions))
      << What;
  EXPECT_EQ(A.NumElided, B.NumElided) << What;
  EXPECT_EQ(A.NumElidedArray, B.NumElidedArray) << What;
}

} // namespace

TEST(EngineEquivalence, FifoVsRpoIdenticalOnRandomCorpus) {
  for (uint32_t Seed = 1200; Seed != 1240; ++Seed) {
    GeneratedProgram G = RandomProgramGenerator(Seed).generate();
    for (auto &[VarName, Cfg] : configVariations()) {
      for (MethodId Id = 0; Id != G.P->numMethods(); ++Id) {
        const Method &M = G.P->method(Id);
        AnalysisConfig Rpo = Cfg;
        Rpo.Order = WorklistOrder::RPO;
        AnalysisConfig Fifo = Cfg;
        Fifo.Order = WorklistOrder::FIFO;
        AnalysisResult A = analyzeBarriers(*G.P, M, Rpo);
        AnalysisResult B = analyzeBarriers(*G.P, M, Fifo);
        expectSameDecisions(A, B,
                            "seed " + std::to_string(Seed) + " method " +
                                std::to_string(Id) + " cfg " + VarName);
      }
    }
  }
}

TEST(EngineEquivalence, FifoVsRpoIdenticalOnWorkloads) {
  for (const Workload &W : allWorkloads()) {
    for (auto &[VarName, Cfg] : configVariations()) {
      CompilerOptions Rpo;
      Rpo.Analysis = Cfg;
      Rpo.Analysis.Order = WorklistOrder::RPO;
      CompilerOptions Fifo;
      Fifo.Analysis = Cfg;
      Fifo.Analysis.Order = WorklistOrder::FIFO;
      CompiledProgram A = compileProgram(*W.P, Rpo);
      CompiledProgram B = compileProgram(*W.P, Fifo);
      ASSERT_EQ(A.Methods.size(), B.Methods.size());
      for (size_t M = 0; M != A.Methods.size(); ++M) {
        expectSameDecisions(A.Methods[M].Analysis, B.Methods[M].Analysis,
                            W.Name + " method " + std::to_string(M) +
                                " cfg " + VarName);
        EXPECT_EQ(A.Methods[M].Plans, B.Methods[M].Plans);
        EXPECT_EQ(A.Methods[M].CodeSize, B.Methods[M].CodeSize);
      }
    }
  }
}

TEST(EngineEquivalence, SerialVsParallelCompileIdentical) {
  // One pass over the workloads and a slice of the corpus with a
  // many-thread pool: every method's artifact must equal the serial one.
  auto CheckProgram = [](const Program &P, const std::string &What) {
    CompilerOptions Serial;
    Serial.CompileThreads = 1;
    CompilerOptions Parallel;
    Parallel.CompileThreads = 4;
    CompiledProgram A = compileProgram(P, Serial);
    CompiledProgram B = compileProgram(P, Parallel);
    ASSERT_EQ(A.Methods.size(), B.Methods.size()) << What;
    for (size_t M = 0; M != A.Methods.size(); ++M) {
      const std::string Where = What + " method " + std::to_string(M);
      EXPECT_EQ(A.Methods[M].Id, B.Methods[M].Id) << Where;
      expectSameDecisions(A.Methods[M].Analysis, B.Methods[M].Analysis,
                          Where);
      EXPECT_EQ(A.Methods[M].Plans, B.Methods[M].Plans)
          << Where;
      EXPECT_EQ(A.Methods[M].CodeSize, B.Methods[M].CodeSize) << Where;
      EXPECT_EQ(A.Methods[M].CodeSizeNoElision,
                B.Methods[M].CodeSizeNoElision)
          << Where;
    }
  };
  for (const Workload &W : allWorkloads())
    CheckProgram(*W.P, W.Name);
  for (uint32_t Seed = 1300; Seed != 1310; ++Seed) {
    GeneratedProgram G = RandomProgramGenerator(Seed).generate();
    CheckProgram(*G.P, "seed " + std::to_string(Seed));
  }
}

TEST(EngineEquivalence, WideningIsOrderIndependent) {
  // A strided loop with a conditional join inside it: every iteration
  // merges into the loop head and the join block, so a tiny budget makes
  // widening fire early and often. Because the trigger counts merges into
  // the block — not pops of it — FIFO and RPO widen the same in-states
  // after the same number of joins, and the decisions stay identical.
  PairFixture F;
  MethodBuilder B(F.P, "stride", {JType::Int}, std::nullopt);
  Local T = B.newLocal(JType::Int), X = B.newLocal(JType::Ref);
  Local Arr = B.newLocal(JType::Ref);
  Label Head = B.newLabel(), Else = B.newLabel(), Join = B.newLabel(),
        Done = B.newLabel();
  B.iconst(0).istore(T);
  B.bind(Head).iload(T).iload(B.arg(0)).ifICmpGe(Done);
  B.iconst(3).newRefArray().astore(Arr);
  B.iload(T).iconst(7).ifICmpGe(Else);
  B.newInstance(F.Pair).astore(X);
  B.jump(Join);
  B.bind(Else);
  B.newInstance(F.Pair).astore(X);
  B.bind(Join);
  B.aload(X).aconstNull().putfield(F.A);
  B.aload(Arr).iload(T).aload(X).aastore();
  B.iinc(T, 3).jump(Head);
  B.bind(Done).ret();
  MethodId Id = B.finish();

  for (uint32_t Budget : {0u, 1u, 2u, 5u, 40u}) {
    AnalysisConfig Rpo;
    Rpo.MaxBlockVisits = Budget;
    Rpo.Order = WorklistOrder::RPO;
    AnalysisConfig Fifo = Rpo;
    Fifo.Order = WorklistOrder::FIFO;
    AnalysisResult A = analyze(F.P, Id, Rpo);
    AnalysisResult C = analyze(F.P, Id, Fifo);
    expectSameDecisions(A, C, "budget " + std::to_string(Budget));
    // Merge-count widening bounds the fixpoint: each block can change at
    // most a bounded number of times past the budget, so visits stay far
    // below the unwidened worst case even for the FIFO order.
    EXPECT_LE(C.BlockVisits, 40u * (Budget + 2))
        << "budget " << Budget << " did not bound the fixpoint";
  }
}

TEST(EngineEquivalence, MergeCountWideningTerminatesZeroBudget) {
  // With a zero budget every merge widens; the analysis must still reach
  // a fixpoint and keep its (conservative) answers order-independent.
  for (uint32_t Seed = 1400; Seed != 1410; ++Seed) {
    GeneratedProgram G = RandomProgramGenerator(Seed).generate();
    AnalysisConfig Cfg;
    Cfg.MaxBlockVisits = 0;
    for (MethodId Id = 0; Id != G.P->numMethods(); ++Id) {
      const Method &M = G.P->method(Id);
      AnalysisConfig Fifo = Cfg;
      Fifo.Order = WorklistOrder::FIFO;
      AnalysisResult A = analyzeBarriers(*G.P, M, Cfg);
      AnalysisResult B = analyzeBarriers(*G.P, M, Fifo);
      expectSameDecisions(A, B, "seed " + std::to_string(Seed) +
                                    " method " + std::to_string(Id));
    }
  }
}
