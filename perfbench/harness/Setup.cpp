//===- perfbench/harness/Setup.cpp - The traced set-up --------------------===//
///
/// \file
/// The set-up pipeline driven one layer at a time from outside -- inline,
/// verify and analyze each method -- with compileProgram and
/// translateProgram also timed whole. Shared by every workload's traced
/// run.
///
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "verifier/Verifier.h"

using namespace satb;
using namespace perfbench;

SetupTrace perfbench::traceSetUp(const Program &P, const CompilerOptions &CO,
                                 const TranslateOptions &TO) {
  SetupTrace T;
  SpanTotal Inline, Verify, Analyze, Compile, Translate;
  for (MethodId Id = 0; Id != P.numMethods(); ++Id) {
    InlineStats IS;
    Method Body = Inline.time(
        [&] { return inlineMethod(P, P.method(Id), CO.Inline, &IS, Id); });
    Verify.time([&] { return verifyMethod(P, Body); });
    AnalysisResult AR =
        Analyze.time([&] { return analyzeBarriers(P, Body, CO.Analysis); });
    T.CallsInlined += IS.CallSitesInlined;
    T.InstrsOut += Body.Instructions.size();
    T.BlockVisits += AR.BlockVisits;
    T.Sites += AR.NumSites;
    T.SitesElided += AR.NumElided;
  }
  CompiledProgram CP = Compile.time([&] { return compileProgram(P, CO); });
  FastProgram FP = Translate.time([&] { return translateProgram(P, CP, TO); });
  for (const FastMethod &FM : FP.Methods)
    T.FastInsts += FM.Code.size();
  T.InlineUs = Inline.Us;
  T.VerifyUs = Verify.Us;
  T.AnalysisUs = Analyze.Us;
  T.CompileWallUs = Compile.Us;
  T.CompilePoolUs = Compile.Us - CP.totalCompileTimeUs();
  T.TranslateUs = Translate.Us;
  return T;
}

SetupTrace &perfbench::operator+=(SetupTrace &A, const SetupTrace &B) {
  A.InlineUs += B.InlineUs;
  A.VerifyUs += B.VerifyUs;
  A.AnalysisUs += B.AnalysisUs;
  A.CompileWallUs += B.CompileWallUs;
  A.CompilePoolUs += B.CompilePoolUs;
  A.TranslateUs += B.TranslateUs;
  A.CallsInlined += B.CallsInlined;
  A.InstrsOut += B.InstrsOut;
  A.BlockVisits += B.BlockVisits;
  A.Sites += B.Sites;
  A.SitesElided += B.SitesElided;
  A.FastInsts += B.FastInsts;
  return A;
}

void perfbench::reportSetUp(Result &Res, const std::vector<SetupTrace> &Reps) {
  auto timeUs = [&](double SetupTrace::*F) {
    std::vector<double> V;
    for (const SetupTrace &S : Reps)
      V.push_back(S.*F);
    return median(V);
  };
  const SetupTrace &Counts = Reps.back();
  Res.metric("inliner.time_us", timeUs(&SetupTrace::InlineUs), "us");
  Res.metric("inliner.calls_inlined", Counts.CallsInlined, "count");
  Res.metric("inliner.instrs_out", Counts.InstrsOut, "count");
  Res.metric("verifier.time_us", timeUs(&SetupTrace::VerifyUs), "us");
  Res.metric("analysis.time_us", timeUs(&SetupTrace::AnalysisUs), "us");
  Res.metric("analysis.block_visits", Counts.BlockVisits, "count");
  Res.metric("analysis.sites", Counts.Sites, "count");
  Res.metric("analysis.sites_elided", Counts.SitesElided, "count");
  Res.metric("jit.compile_wall_us", timeUs(&SetupTrace::CompileWallUs), "us");
  Res.metric("jit.compile_pool_us", timeUs(&SetupTrace::CompilePoolUs), "us");
  Res.metric("jit.translate_us", timeUs(&SetupTrace::TranslateUs), "us");
  Res.metric("jit.fast_insts", Counts.FastInsts, "count");
}
