//===- tests/fusion_test.cpp - Superinstruction fusion pass ---------------===//
///
/// \file
/// Direct tests for the translation-time superinstruction peephole
/// (DESIGN.md "Superinstructions"). The equivalence grids in
/// mutator_equivalence_test already run every workload fused and
/// unfused against the reference engine; this suite pins down the
/// pass's structural invariants on the instruction stream itself:
///
///   - fusion only ever rewrites the Op field of a pair's *first* slot
///     (stream length, operands, Site indices, displacements untouched);
///   - no fused instruction spans a jump target: a branch into the
///     middle of a would-be pair suppresses that fusion (the latent
///     hazard class the translation-time assert also guards);
///   - Safepoint polls never participate in a pair;
///   - TranslateOptions::Fuse really is the on/off oracle knob;
///   - randomized differential: fused and unfused translations of
///     seeded random programs are observably bit-identical, including
///     when chopped into quanta that suspend mid-superinstruction.
///
//===----------------------------------------------------------------------===//

#include "RandomProgram.h"
#include "TestUtil.h"

#include "interp/FastInterp.h"
#include "workloads/Workload.h"

using namespace satb;
using namespace satb::testutil;

namespace {

bool isBranchOp(FastOp Op) {
  return Op >= FastOp::Goto && Op <= FastOp::IfACmpNe;
}

/// Branch-target bitmap of \p Code, read from the emitted self-relative
/// displacements. Second slots of fused pairs keep their original
/// branch opcode and displacement, so scanning the fused stream sees
/// exactly the targets the unfused stream has.
std::vector<bool> leadersOf(const std::vector<FastInst> &Code) {
  std::vector<bool> Leader(Code.size() + 1, false);
  for (size_t I = 0; I != Code.size(); ++I)
    if (isBranchOp(static_cast<FastOp>(Code[I].Op)))
      Leader[I + static_cast<int64_t>(Code[I].A)] = true;
  return Leader;
}

size_t countFused(const FastProgram &FP) {
  size_t N = 0;
  for (const FastMethod &FM : FP.Methods)
    for (const FastInst &I : FM.Code)
      N += isFusedOp(static_cast<FastOp>(I.Op));
  return N;
}

/// Translates \p P both ways and checks the stream-shape invariant:
/// identical length, identical everything except Op at fused first
/// slots, second slots verbatim and never themselves fused or leaders.
/// \returns the number of fused instructions found.
size_t expectFirstSlotOnlyRewrite(const Program &P,
                                  const CompiledProgram &CP,
                                  bool InsertSafepoints = false) {
  TranslateOptions Unfused, Fused;
  Unfused.InsertSafepoints = Fused.InsertSafepoints = InsertSafepoints;
  Unfused.Fuse = false;
  Fused.Fuse = true;
  FastProgram U = translateProgram(P, CP, Unfused);
  FastProgram F = translateProgram(P, CP, Fused);
  EXPECT_EQ(U.MaxFrameSlots, F.MaxFrameSlots);
  EXPECT_EQ(U.Methods.size(), F.Methods.size());
  size_t FusedCount = 0;
  for (size_t M = 0; M != U.Methods.size(); ++M) {
    const std::vector<FastInst> &UC = U.Methods[M].Code;
    const std::vector<FastInst> &FC = F.Methods[M].Code;
    EXPECT_EQ(UC.size(), FC.size()) << "method " << M;
    if (UC.size() != FC.size())
      continue;
    std::vector<bool> Leader = leadersOf(UC);
    for (size_t I = 0; I != UC.size(); ++I) {
      // Operands, cost class, and site index never change.
      EXPECT_EQ(UC[I].A, FC[I].A) << "method " << M << " slot " << I;
      EXPECT_EQ(UC[I].B, FC[I].B) << "method " << M << " slot " << I;
      EXPECT_EQ(UC[I].C, FC[I].C) << "method " << M << " slot " << I;
      EXPECT_EQ(UC[I].Site, FC[I].Site) << "method " << M << " slot " << I;
      FastOp UOp = static_cast<FastOp>(UC[I].Op);
      FastOp FOp = static_cast<FastOp>(FC[I].Op);
      EXPECT_FALSE(isFusedOp(UOp)) << "unfused translation has fused op";
      if (UOp == FOp)
        continue;
      // A diff is only ever base-op -> superinstruction on a first slot
      // whose second half is intact, not a branch target, and not a
      // Safepoint poll.
      ++FusedCount;
      EXPECT_TRUE(isFusedOp(FOp))
          << "method " << M << " slot " << I << ": op changed to a "
          << "non-fused op (" << fastOpName(UOp) << " -> "
          << fastOpName(FOp) << ")";
      EXPECT_LT(I + 1, FC.size());
      if (!isFusedOp(FOp) || I + 1 >= FC.size())
        continue;
      EXPECT_EQ(UC[I + 1].Op, FC[I + 1].Op)
          << "second half rewritten at method " << M << " slot " << I + 1;
      EXPECT_FALSE(isFusedOp(static_cast<FastOp>(FC[I + 1].Op)))
          << "overlapping fusions at method " << M << " slot " << I;
      EXPECT_FALSE(Leader[I + 1])
          << "fused pair spans the jump target at method " << M
          << " slot " << I + 1;
      EXPECT_NE(UOp, FastOp::Safepoint);
      EXPECT_NE(static_cast<FastOp>(UC[I + 1].Op), FastOp::Safepoint)
          << "Safepoint fused at method " << M << " slot " << I + 1;
    }
  }
  return FusedCount;
}

/// Runs \p Entry to completion under one translation; \p Quantum == 0
/// means one uninterrupted run.
Observed runTranslation(const Program &P, const CompiledProgram &CP,
                        const FastProgram &FP, MethodId Entry,
                        const std::vector<int64_t> &Args,
                        uint64_t Quantum = 0) {
  Heap H(P);
  FastInterp I(FP, CP, H);
  SatbMarker M(H);
  I.attachSatb(&M);
  if (Quantum == 0) {
    I.run(Entry, Args);
  } else {
    I.start(Entry, Args);
    while (I.status() == RunStatus::Running)
      I.step(Quantum);
  }
  return observe(I, H);
}

// --- Branch into the middle of a would-be pair ------------------------------

/// Entry: two (Load, Store) candidate pairs; a branch jumps straight at
/// the istore of the first one, so only the second may fuse.
///
///   iconst 11; istore T
///   iload N; ifgt Fall
///   iconst 7; goto Mid          // taken path arrives with one value
///   Fall: iload T               // would-be first half
///   Mid:  istore S              // branch target: pair must stay unfused
///   iload S; istore T           // control-free pair: must fuse
///   iload T; ireturn
struct BranchIntoPairProgram {
  Program P;
  MethodId Entry;
  uint32_t MidIndex = 0; ///< instruction index of the protected istore

  BranchIntoPairProgram() {
    MethodBuilder B(P, "main", {JType::Int}, JType::Int);
    Local N = B.arg(0);
    Local T = B.newLocal(JType::Int), S = B.newLocal(JType::Int);
    Label Fall = B.newLabel(), Mid = B.newLabel();
    B.iconst(11).istore(T);
    B.iload(N).ifgt(Fall);
    B.iconst(7).jump(Mid);
    B.bind(Fall).iload(T);
    MidIndex = B.nextIndex();
    B.bind(Mid).istore(S);
    B.iload(S).istore(T);
    B.iload(T).ireturn();
    Entry = B.finish();
  }
};

TEST(Fusion, BranchIntoPairMiddleSuppressesFusion) {
  BranchIntoPairProgram G;
  CompilerOptions Opts;
  Opts.Interp = InterpMode::Fast;
  CompiledProgram CP = compileProgram(G.P, Opts);

  TranslateOptions TO;
  TO.Fuse = true;
  FastProgram FP = translateProgram(G.P, CP, TO);
  const std::vector<FastInst> &Code = FP.Methods[G.Entry].Code;

  // The default translation is 1:1 with the built body, so MidIndex
  // addresses the jump-target istore directly. The (iload T, istore S)
  // pair straddling it must stay unfused: jumping to the istore would
  // otherwise land inside a superinstruction.
  ASSERT_LT(G.MidIndex, Code.size());
  ASSERT_GT(G.MidIndex, 0u);
  EXPECT_EQ(static_cast<FastOp>(Code[G.MidIndex - 1].Op), FastOp::Load)
      << "iload T before the jump target must stay unfused";

  // A leader may *begin* a pair, just never sit inside one: the istore
  // at Mid itself fuses forward with the iload after it (both entries —
  // the jump and the fallthrough — execute the whole superinstruction),
  // proving the suppression above is the leader check, not a failure to
  // recognize Load/Store pairs.
  EXPECT_EQ(static_cast<FastOp>(Code[G.MidIndex].Op), FastOp::StoreLoad);

  // Both paths through the merge produce the same answer fused and
  // unfused (taken path lands mid-pair; fallthrough runs the pair).
  TranslateOptions Plain;
  Plain.Fuse = false;
  FastProgram UF = translateProgram(G.P, CP, Plain);
  for (int64_t N : {0, 1}) {
    Observed F = runTranslation(G.P, CP, FP, G.Entry, {N});
    Observed U = runTranslation(G.P, CP, UF, G.Entry, {N});
    EXPECT_EQ(F.ResultInt, N > 0 ? 11 : 7);
    expectEqual(U, F, "branch-into-pair N=" + std::to_string(N));
  }
}

TEST(Fusion, BackwardBranchTargetSuppressesFusion) {
  // Loop header as the second half: the backedge targets an istore
  // whose predecessor iload would otherwise make a LoadStore pair.
  //
  //   iconst 0; istore Acc
  //   iinc Acc 0                // spacer: keeps (istore Acc, iload N)
  //                             // from pairing so the guarded pair is
  //                             // really considered and then rejected
  //   iload N                   // would-be first half
  //   Head: istore Cur          // backedge target: pair must not fuse
  //   iload Acc; iload Cur; iadd; istore Acc
  //   iload Cur; iconst 1; isub // next Cur on the stack
  //   dup; ifgt Head            // loop while Cur-1 > 0
  //   pop; iload Acc; ireturn   // returns N + (N-1) + ... + 1
  Program P;
  MethodBuilder B(P, "main", {JType::Int}, JType::Int);
  Local N = B.arg(0);
  Local Cur = B.newLocal(JType::Int), Acc = B.newLocal(JType::Int);
  Label Head = B.newLabel();
  B.iconst(0).istore(Acc);
  B.iinc(Acc, 0);
  uint32_t LoadAt = B.nextIndex();
  B.iload(N);
  uint32_t HeadAt = B.nextIndex();
  B.bind(Head).istore(Cur);
  B.iload(Acc).iload(Cur).iadd().istore(Acc);
  B.iload(Cur).iconst(1).isub();
  B.dup().ifgt(Head);
  B.pop();
  B.iload(Acc).ireturn();
  MethodId Entry = B.finish();

  CompilerOptions Opts;
  Opts.Interp = InterpMode::Fast;
  CompiledProgram CP = compileProgram(P, Opts);
  TranslateOptions TO;
  TO.Fuse = true;
  FastProgram FP = translateProgram(P, CP, TO);
  const std::vector<FastInst> &Code = FP.Methods[Entry].Code;
  EXPECT_EQ(static_cast<FastOp>(Code[LoadAt].Op), FastOp::Load)
      << "iload N before the backedge target must stay unfused";
  // The header itself begins the next pair (istore Cur, iload Acc) —
  // legal, since both the backedge and the fallthrough enter at its
  // first slot.
  EXPECT_EQ(static_cast<FastOp>(Code[HeadAt].Op), FastOp::StoreLoad);
  // Nothing anywhere in the stream fuses across a branch target, and
  // running it agrees with the unfused translation.
  std::vector<bool> Leader = leadersOf(Code);
  for (size_t S = 1; S != Code.size(); ++S) {
    if (Leader[S]) {
      EXPECT_FALSE(isFusedOp(static_cast<FastOp>(Code[S - 1].Op)))
          << "slot " << S;
    }
  }
  TranslateOptions Plain;
  Plain.Fuse = false;
  FastProgram UF = translateProgram(P, CP, Plain);
  Observed F = runTranslation(P, CP, FP, Entry, {6});
  Observed U = runTranslation(P, CP, UF, Entry, {6});
  EXPECT_EQ(F.ResultInt, 6 + 5 + 4 + 3 + 2 + 1);
  expectEqual(U, F, "loop-header pair");
}

// --- Stream-shape invariants on real programs -------------------------------

TEST(Fusion, StreamDiffersOnlyInFirstSlotOps) {
  for (Workload (*Make)() : {makeJessLike, makeDbLike, makeJavacLike}) {
    Workload W = Make();
    CompilerOptions Opts;
    Opts.Interp = InterpMode::Fast;
    CompiledProgram CP = compileProgram(*W.P, Opts);
    size_t Fused = expectFirstSlotOnlyRewrite(*W.P, CP);
    EXPECT_GT(Fused, 0u) << "fusion never fired on a Table 1 workload";
  }
}

TEST(Fusion, StreamInvariantHoldsWithSafepoints) {
  // The multi-mutator translation interleaves Safepoint polls; pairs
  // must not straddle them and the shape invariant must survive.
  Workload W = makeJbbLike();
  CompilerOptions Opts;
  Opts.Interp = InterpMode::Fast;
  CompiledProgram CP = compileProgram(*W.P, Opts);
  size_t Fused =
      expectFirstSlotOnlyRewrite(*W.P, CP, /*InsertSafepoints=*/true);
  EXPECT_GT(Fused, 0u);
}

TEST(Fusion, StreamInvariantHoldsOnRandomPrograms) {
  for (uint32_t Seed = 600; Seed != 610; ++Seed) {
    GeneratedProgram G = RandomProgramGenerator(Seed).generate();
    CompilerOptions Opts;
    Opts.Interp = InterpMode::Fast;
    CompiledProgram CP = compileProgram(*G.P, Opts);
    expectFirstSlotOnlyRewrite(*G.P, CP);
    expectFirstSlotOnlyRewrite(*G.P, CP, /*InsertSafepoints=*/true);
  }
}

TEST(Fusion, FuseKnobIsTheOracle) {
  Workload W = makeJessLike();
  CompilerOptions Opts;
  Opts.Interp = InterpMode::Fast;
  CompiledProgram CP = compileProgram(*W.P, Opts);
  TranslateOptions Off;
  Off.Fuse = false;
  EXPECT_EQ(countFused(translateProgram(*W.P, CP, Off)), 0u);
  TranslateOptions On;
  On.Fuse = true;
  EXPECT_GT(countFused(translateProgram(*W.P, CP, On)), 0u);
}

// --- Randomized fused-vs-unfused differential -------------------------------

TEST(Fusion, RandomProgramsFusedMatchesUnfused) {
  // Bit-identical observables (status, trap, result, steps, cost, the
  // full per-site stats table, heap history, reachability) across the
  // two translations, whole-run and chopped into quanta small enough to
  // suspend mid-superinstruction on every resume.
  for (uint32_t Seed = 700; Seed != 716; ++Seed) {
    GeneratedProgram G = RandomProgramGenerator(Seed).generate();
    CompilerOptions Opts;
    Opts.Interp = InterpMode::Fast;
    CompiledProgram CP = compileProgram(*G.P, Opts);
    TranslateOptions On, Off;
    On.Fuse = true;
    Off.Fuse = false;
    FastProgram FP = translateProgram(*G.P, CP, On);
    FastProgram UF = translateProgram(*G.P, CP, Off);
    std::string What = "seed " + std::to_string(Seed);
    Observed U = runTranslation(*G.P, CP, UF, G.Entry, {});
    Observed F = runTranslation(*G.P, CP, FP, G.Entry, {});
    expectEqual(U, F, What + " whole-run");
    for (uint64_t Quantum : {1, 3}) {
      Observed FQ = runTranslation(*G.P, CP, FP, G.Entry, {}, Quantum);
      expectEqual(U, FQ,
                  What + " fused, " + std::to_string(Quantum) +
                      "-step quanta");
    }
  }
}

} // namespace
