//===- jit/Compiler.cpp ---------------------------------------------------===//

#include "jit/Compiler.h"

#include "analysis/Rearrange.h"

#include "support/Stopwatch.h"
#include "support/ThreadPool.h"
#include "verifier/Verifier.h"

#include <cstdio>
#include <cstdlib>

using namespace satb;

BarrierPlan satb::planFor(const CompilerOptions &Opts,
                          const BarrierDecision &D, bool ProtocolStore) {
  BarrierPlan P;
  P.Mark = Opts.ApplyElision && D.Elide ? MarkPlan::Elided
                                        : BarrierPlan::keptMark(Opts.Barrier);
  if (Opts.Barrier == BarrierMode::Generational)
    P.Rem = Opts.ApplyElision && D.TargetYoung ? RemPlan::Elided
                                               : RemPlan::Kept;
  // The protocol replaces an SATB log; card marking and the generational
  // barrier (whose remembered set must still see every store) ignore it.
  P.Rearrange = ProtocolStore && (Opts.Barrier == BarrierMode::Satb ||
                                  Opts.Barrier == BarrierMode::SatbAlwaysLog);
  return P;
}

CompiledMethod satb::compileMethod(const Program &P, MethodId Id,
                                   const CompilerOptions &Opts) {
  Stopwatch Timer;
  CompiledMethod CM;
  CM.Id = Id;
  CM.Body = inlineMethod(P, P.method(Id), Opts.Inline, &CM.Inlining, Id);

  std::vector<bool> ProtocolStores;
  if (Opts.EnableArrayRearrange) {
    RearrangeResult RR = recognizeMoveDownLoops(CM.Body);
    CM.Body = std::move(RR.Transformed);
    ProtocolStores = std::move(RR.ProtocolStores);
    CM.RearrangeLoops = RR.LoopsTransformed;
  }

  VerifyResult VR = verifyMethod(P, CM.Body);
  if (!VR.Ok) {
    // The analyses are only sound on verified input; an unverifiable body
    // here is a builder or inliner bug, not a user error.
    std::fprintf(stderr, "satb-elide: post-inline verification failed: %s\n",
                 VR.Error.c_str());
    std::abort();
  }

  CM.Analysis = analyzeBarriers(P, CM.Body, Opts.Analysis);

  const size_t N = CM.Body.Instructions.size();
  CM.Plans.assign(N, BarrierPlan{});
  std::vector<BarrierPlan> AllKept(N);
  for (size_t I = 0; I != N; ++I) {
    const BarrierDecision &D = CM.Analysis.Decisions[I];
    if (!D.IsBarrierSite)
      continue;
    CM.Plans[I] = planFor(Opts, D, I < ProtocolStores.size() &&
                                       ProtocolStores[I]);
    AllKept[I] = CM.Plans[I].kept(Opts.Barrier);
  }
  CM.CodeSize = CodeSizeModel::bodyCost(CM.Body.Instructions, CM.Plans);
  CM.CodeSizeNoElision =
      CodeSizeModel::bodyCost(CM.Body.Instructions, AllKept);
  CM.CompileTimeUs = Timer.elapsedUs();
  return CM;
}

CompiledProgram satb::compileProgram(const Program &P,
                                     const CompilerOptions &Opts) {
  CompiledProgram CP;
  CP.Options = Opts;
  const size_t NumMethods = P.numMethods();
  CP.Methods.resize(NumMethods);
  // compileMethod is a pure function of (P, Id, Opts), so methods compile
  // on any number of threads; each writes only its own pre-sized slot,
  // which keeps CP.Methods identical to the serial compile.
  ThreadPool Pool(NumMethods <= 1 ? 1 : Opts.CompileThreads);
  Pool.parallelFor(NumMethods, [&](size_t Id) {
    CP.Methods[Id] = compileMethod(P, static_cast<MethodId>(Id), Opts);
  });
  return CP;
}

uint32_t CompiledProgram::totalCodeSize() const {
  uint32_t Total = 0;
  for (const CompiledMethod &M : Methods)
    Total += M.CodeSize;
  return Total;
}

uint32_t CompiledProgram::totalCodeSizeNoElision() const {
  uint32_t Total = 0;
  for (const CompiledMethod &M : Methods)
    Total += M.CodeSizeNoElision;
  return Total;
}

double CompiledProgram::totalCompileTimeUs() const {
  double Total = 0;
  for (const CompiledMethod &M : Methods)
    Total += M.CompileTimeUs;
  return Total;
}

double CompiledProgram::totalAnalysisTimeUs() const {
  double Total = 0;
  for (const CompiledMethod &M : Methods)
    Total += M.Analysis.AnalysisTimeUs;
  return Total;
}

uint32_t CompiledProgram::totalBarrierSites() const {
  uint32_t Total = 0;
  for (const CompiledMethod &M : Methods)
    Total += M.Analysis.NumSites;
  return Total;
}

std::vector<uint32_t> CompiledProgram::instrOffsets() const {
  std::vector<uint32_t> Offsets(Methods.size() + 1, 0);
  for (size_t M = 0; M != Methods.size(); ++M)
    Offsets[M + 1] =
        Offsets[M] +
        static_cast<uint32_t>(Methods[M].Body.Instructions.size());
  return Offsets;
}

uint32_t CompiledProgram::totalElidedSites() const {
  uint32_t Total = 0;
  for (const CompiledMethod &M : Methods)
    Total += M.Analysis.NumElided;
  return Total;
}
