//===- jit/FastCode.h - Pre-decoded threaded instruction stream -*- C++ -*-===//
///
/// \file
/// The fast mutator engine's instruction format. translateProgram lowers
/// each CompiledMethod into a stream of FastInsts in which everything the
/// reference interpreter decides per-execution is decided once, at
/// translation time:
///
///  - field accesses carry their payload slot index and owner class
///    (no FieldDecl / FieldSlot lookups at run time),
///  - every reference-store site is lowered to a *barrier-specialized*
///    opcode baking in the compiler's per-site BarrierPlan — an elided store
///    executes zero barrier instructions, a kept store executes exactly
///    its BarrierMode's sequence, with no per-execution decision tree,
///  - each store site carries its flat BarrierStats index
///    (CompiledProgram::instrOffsets()[M] + PC), so counter updates are a
///    single indexed add.
///
/// The translation is 1:1 with the compiled body's instructions, so
/// branch targets, PCs, and step counts are unchanged — the equivalence
/// test relies on this to compare the engines instruction-for-
/// instruction.
///
//===----------------------------------------------------------------------===//

#ifndef SATB_JIT_FASTCODE_H
#define SATB_JIT_FASTCODE_H

#include "jit/Compiler.h"

#include <optional>

namespace satb {

/// The store kinds: one per reference-store bytecode. No store fuses with
/// its neighbour, so each (kind, plan) pair has exactly one handler.
enum class StoreKind : uint8_t {
  PutFieldRef,
  PutStaticRef,
  AAStore,
  ArrayFill,
  ArrayCopy,
};

/// The valid barrier plans per store kind, as S(Kind, Name, Mark, Rem,
/// Rearrange) rows: the opcode Kind_Name executes exactly the plan
/// {MarkPlan::Mark, RemPlan::Rem, Rearrange}. A kind lists only the plans
/// it can be given — the rearrangement protocol marks aastores alone —
/// so no row is a dead handler.
#define SATB_PLANS_CLASSIC(S, K)                                               \
  S(K, Elided, Elided, None, 0)                                                \
  S(K, NoBarrier, None, None, 0)                                               \
  S(K, Satb, Satb, None, 0)                                                    \
  S(K, AlwaysLog, AlwaysLog, None, 0)                                          \
  S(K, Card, Card, None, 0)
#define SATB_PLANS_REARR(S, K)                                                 \
  S(K, Rearr_Satb, Satb, None, 1)                                              \
  S(K, Rearr_AlwaysLog, AlwaysLog, None, 1)
#define SATB_PLANS_GEN(S, K)                                                   \
  S(K, Gen, Satb, Kept, 0)                                                     \
  S(K, GenPreNull, Elided, Kept, 0)                                            \
  S(K, GenYoung, Satb, Elided, 0)                                              \
  S(K, GenElided, Elided, Elided, 0)
#define SATB_PLANS_BULK(S, K) SATB_PLANS_CLASSIC(S, K) SATB_PLANS_GEN(S, K)

/// The specialized opcode set, as an X-macro so the dispatch label table
/// in FastInterp.cpp can never fall out of sync with the enum: X(Name)
/// for a plain op, S(...) for a store kind x plan row. The order is the
/// enum order (isFusedOp and the branch/comparison ranges rely on it).
#define SATB_FAST_BASE_OPS(X, S)                                               \
  X(IConst)                                                                    \
  X(AConstNull)                                                                \
  X(Load)                                                                      \
  X(Store)                                                                     \
  X(IInc)                                                                      \
  X(Dup)                                                                       \
  X(Pop)                                                                       \
  X(Swap)                                                                      \
  X(IAdd)                                                                      \
  X(ISub)                                                                      \
  X(IMul)                                                                      \
  X(IDiv)                                                                      \
  X(IRem)                                                                      \
  X(INeg)                                                                      \
  X(GetFieldRef)                                                               \
  X(GetFieldInt)                                                               \
  X(PutFieldInt)                                                               \
  SATB_PLANS_CLASSIC(S, PutFieldRef)                                           \
  X(GetStaticRef)                                                              \
  X(GetStaticInt)                                                              \
  X(PutStaticInt)                                                              \
  SATB_PLANS_CLASSIC(S, PutStaticRef)                                          \
  X(NewInstance)                                                               \
  X(NewRefArray)                                                               \
  X(NewIntArray)                                                               \
  X(AALoad)                                                                    \
  X(IALoad)                                                                    \
  X(IAStore)                                                                   \
  X(ArrayLength)                                                               \
  SATB_PLANS_CLASSIC(S, AAStore)                                               \
  SATB_PLANS_REARR(S, AAStore)                                                 \
  X(Invoke)                                                                    \
  X(Goto)                                                                      \
  X(IfEq)                                                                      \
  X(IfNe)                                                                      \
  X(IfLt)                                                                      \
  X(IfGe)                                                                      \
  X(IfGt)                                                                      \
  X(IfLe)                                                                      \
  X(IfICmpEq)                                                                  \
  X(IfICmpNe)                                                                  \
  X(IfICmpLt)                                                                  \
  X(IfICmpGe)                                                                  \
  X(IfICmpGt)                                                                  \
  X(IfICmpLe)                                                                  \
  X(IfNull)                                                                    \
  X(IfNonNull)                                                                 \
  X(IfACmpEq)                                                                  \
  X(IfACmpNe)                                                                  \
  X(Ret)                                                                       \
  X(IReturn)                                                                   \
  X(AReturn)                                                                   \
  X(RearrangeEnter)                                                            \
  X(RearrangeEnterDyn)                                                         \
  X(RearrangeExit)                                                             \
  X(Safepoint)                                                                 \
  SATB_PLANS_GEN(S, PutFieldRef)                                               \
  SATB_PLANS_GEN(S, AAStore)                                                   \
  /* a static's remembered-set component is its root scan: no code */         \
  S(PutStaticRef, Gen, Satb, Kept, 0)                                          \
  SATB_PLANS_BULK(S, ArrayFill)                                                \
  SATB_PLANS_BULK(S, ArrayCopy)

/// Fused superinstructions (translation-time peephole, DESIGN.md
/// "Superinstructions"), as R(Kind, First, Second) rows: the op
/// First##Second replaces the *opcode of the first instruction* of an
/// adjacent (First, Second) pair; the second slot keeps its original
/// instruction verbatim. Stream length, branch displacements, trap points
/// and BarrierStats site numbering are therefore identical to the unfused
/// translation; only Op fields differ. The rows generate the FastOp
/// names, fusedOp() and every fused handler. A handler charges both
/// halves' fuel; when the quantum expires mid-pair it runs only the
/// first half's handler and suspends on the untouched second slot.
///
/// Kind is the handler's shape. Pipe: the second half consumes the value
/// the first half (Load or IConst) would push, so the value never touches
/// the operand stack. Seq: the handler runs the first half's body, then
/// the second half's, with one dispatch.
///
/// A pair is a row iff the benchmark programs execute it
/// (tests/fusion_test.cpp pins every row's count above zero;
/// tools/dispatch_profile prints them). No reference store fuses, so
/// each (kind, plan) has one handler (EXPERIMENTS.md "Removed
/// mechanisms").
#define SATB_FAST_FUSED_OPS(R)                                                 \
  R(Pipe, Load, GetFieldRef)                                                   \
  R(Pipe, Load, GetFieldInt)                                                   \
  R(Pipe, Load, PutFieldInt)                                                   \
  R(Pipe, Load, AALoad)                                                        \
  R(Pipe, Load, Store)                                                         \
  R(Pipe, Load, IfNe)                                                          \
  R(Pipe, Load, IfLe)                                                          \
  R(Pipe, Load, IfICmpGe)                                                      \
  R(Pipe, Load, IfNull)                                                        \
  R(Pipe, Load, IfNonNull)                                                     \
  R(Pipe, IConst, IAdd)                                                        \
  R(Pipe, IConst, ISub)                                                        \
  R(Pipe, IConst, IMul)                                                        \
  R(Pipe, IConst, IRem)                                                        \
  R(Pipe, IConst, IfICmpNe)                                                    \
  R(Pipe, IConst, IfICmpGe)                                                    \
  R(Seq, IInc, Goto)                                                           \
  R(Seq, Load, Load)                                                           \
  R(Seq, Load, IConst)                                                         \
  R(Seq, Store, Load)                                                          \
  R(Seq, Store, Store)                                                         \
  R(Seq, IConst, IConst)                                                       \
  R(Seq, Pop, IConst)                                                          \
  R(Seq, IRem, Store)                                                          \
  R(Seq, IMul, Pop)                                                            \
  R(Seq, IAdd, IConst)                                                         \
  R(Seq, IMul, IConst)

/// The full dispatch set: base ops first, fused ops appended (isFusedOp
/// relies on the ordering).
#define SATB_FAST_OPS(X, S, R)                                                 \
  SATB_FAST_BASE_OPS(X, S)                                                     \
  SATB_FAST_FUSED_OPS(R)

/// Every store kind x plan row alone, in enum order.
#define SATB_FAST_IGNORE_OP(name)
#define SATB_FAST_IGNORE_ROW(Kind, First, Second)
#define SATB_FAST_STORE_OPS(S)                                                 \
  SATB_FAST_OPS(SATB_FAST_IGNORE_OP, S, SATB_FAST_IGNORE_ROW)

enum class FastOp : uint16_t {
#define X(name) name,
#define S(K, Name, M, R, Rr) K##_##Name,
#define R(Kind, First, Second) First##Second,
  SATB_FAST_OPS(X, S, R)
#undef R
#undef S
#undef X
};

constexpr unsigned kNumBaseFastOps = 0
#define X(name) +1
#define S(...) +1
    SATB_FAST_BASE_OPS(X, S)
#undef S
#undef X
    ;

constexpr unsigned kNumFastOps = kNumBaseFastOps
#define R(...) +1
    SATB_FAST_FUSED_OPS(R)
#undef R
    ;

/// True for superinstructions (the ops SATB_FAST_FUSED_OPS adds).
inline bool isFusedOp(FastOp Op) {
  return static_cast<unsigned>(Op) >= kNumBaseFastOps;
}

/// The row a store opcode was generated from.
struct StoreOpInfo {
  StoreKind Kind;
  BarrierPlan Plan;
};

/// The store kind and plan behind \p Op, or std::nullopt for a non-store
/// opcode.
std::optional<StoreOpInfo> storeOpInfo(FastOp Op);

/// The opcode executing plan \p P at a store of kind \p K, or
/// std::nullopt if the kind has no such row (e.g. a rearranged field
/// store). Components the kind's handlers cannot express are dropped
/// first: a non-SATB mark's rearrangement bit, and a static's
/// remembered-set component once its marking barrier is elided (the
/// static then runs the plain Elided body).
std::optional<FastOp> findStoreOp(StoreKind K, BarrierPlan P);

/// findStoreOp for a plan the compiler produced — every such plan has a
/// row.
FastOp opFor(StoreKind K, BarrierPlan P);

/// Opcode name for profile dumps and diagnostics.
const char *fastOpName(FastOp Op);

/// The superinstruction of the SATB_FAST_FUSED_OPS row for an adjacent
/// (First, Second) pair, or std::nullopt if no row names the pair.
std::optional<FastOp> fusedOp(FastOp First, FastOp Second);

/// One pre-decoded instruction, 16 bytes. Operand meanings:
///  - Load/Store/IInc: A = local index (IInc: B = increment)
///  - field ops: A = payload slot index, B = owner ClassId
///  - static ops: A = StaticFieldId
///  - NewInstance: A = ClassId
///  - Invoke: A = callee MethodId, C = callee arg count
///  - branches: A = self-relative displacement (target - branch PC)
///  - Rearrange*: A, B as in Opcode.h
///  - Site: flat BarrierStats index (store sites only)
struct FastInst {
  uint16_t Op = 0;
  uint16_t C = 0;
  int32_t A = 0;
  int32_t B = 0;
  uint32_t Site = 0;
};

static_assert(sizeof(FastInst) == 16, "keep the stream dense");

struct FastMethod {
  std::vector<FastInst> Code;
  uint32_t NumLocals = 0;
  uint32_t NumArgs = 0;
  /// Locals + worst-case operand stack depth (a translation-time dataflow
  /// over the verified body): the frame's slot footprint in the engine's
  /// contiguous slot arena.
  uint32_t FrameSlots = 0;
};

struct FastProgram {
  std::vector<FastMethod> Methods; ///< indexed by MethodId
  /// max over methods of FrameSlots; sizes the engine's slot arena.
  uint32_t MaxFrameSlots = 0;
};

/// Pinned by perfbench/harness (Server.cpp:84, Table1.cpp:71); unread.
enum class TranslationTier : uint8_t { Static };

/// Translation knobs. The default translation is 1:1 with the compiled
/// body (the equivalence test's invariant); the multi-mutator driver opts
/// into safepoint polls, which insert extra instructions.
struct TranslateOptions {
  /// Insert a Safepoint instruction before every loop header (any target
  /// of a backward branch) and before every Invoke, so a running mutator
  /// reaches a poll in bounded time on every path. Safepoint refunds its
  /// fuel in the dispatch loop, so step counts still count only real
  /// instructions; barrier-site indices are assigned from the *original*
  /// PCs, so BarrierStats stay comparable across both translations.
  bool InsertSafepoints = false;
  /// Run the superinstruction peephole over the emitted stream (see
  /// SATB_FAST_FUSED_OPS). Fusion never crosses a branch target or a
  /// Safepoint poll, never rewrites anything but Op fields, and fused
  /// handlers charge the sum of their parts, so every observable —
  /// steps, traps, stats, suspension points — is bit-identical with the
  /// pass on or off. On by default; tests that use the unfused
  /// translation as an oracle set it to false.
  bool Fuse = true;
  /// Pinned by perfbench/harness (Server.cpp:84, Table1.cpp:71); unread.
  TranslationTier Tier = TranslationTier::Static;
};

/// Lowers \p CP (compiled from \p P) into the specialized stream. Field
/// layout comes from computeFieldLayout(P) — the same function the Heap
/// uses — so baked slot indices can never disagree with the heap.
FastProgram translateProgram(const Program &P, const CompiledProgram &CP,
                             const TranslateOptions &Opts = {});

} // namespace satb

#endif // SATB_JIT_FASTCODE_H
