//===- jit/FastTranslate.cpp - CompiledMethod -> FastInst stream ----------===//

#include "jit/FastCode.h"

#include "heap/Heap.h"

#include <algorithm>

using namespace satb;

const char *satb::fastOpName(FastOp Op) {
  switch (Op) {
#define X(name)                                                                \
  case FastOp::name:                                                           \
    return #name;
#define S(K, Name, M, R, Rr)                                                   \
  case FastOp::K##_##Name:                                                     \
    return #K "_" #Name;
    SATB_FAST_OPS(X, S)
#undef S
#undef X
  }
  return "<unknown>";
}

std::optional<StoreOpInfo> satb::storeOpInfo(FastOp Op) {
  switch (Op) {
#define S(K, Name, M, R, Rr)                                                   \
  case FastOp::K##_##Name:                                                     \
    return StoreOpInfo{StoreKind::K, {MarkPlan::M, RemPlan::R, Rr != 0}};
    SATB_FAST_STORE_OPS(S)
#undef S
  default:
    return std::nullopt;
  }
}

std::optional<FastOp> satb::findStoreOp(StoreKind K, BarrierPlan P) {
  P.Rearrange = P.rearranged();
  if (K == StoreKind::PutStaticRef && P.Mark == MarkPlan::Elided)
    P.Rem = RemPlan::None;
#define S(K_, Name, M, R, Rr)                                                  \
  if (K == StoreKind::K_ &&                                                    \
      P == BarrierPlan{MarkPlan::M, RemPlan::R, Rr != 0})                      \
    return FastOp::K_##_##Name;
  SATB_FAST_STORE_OPS(S)
#undef S
  return std::nullopt;
}

FastOp satb::opFor(StoreKind K, BarrierPlan P) {
  std::optional<FastOp> Op = findStoreOp(K, P);
  assert(Op && "compiled plan without a store opcode");
  return *Op;
}

std::optional<FastOp> satb::fusedOp(FastOp First, FastOp Second) {
  // Offset helpers for the op families whose members are contiguous in
  // the enum (the X-macro fixes the layout; the static_asserts pin it).
  auto Off = [](FastOp Op, FastOp Base) {
    return static_cast<uint16_t>(Op) - static_cast<uint16_t>(Base);
  };
  auto At = [](FastOp Base, uint16_t Delta) {
    return static_cast<FastOp>(static_cast<uint16_t>(Base) + Delta);
  };
  static_assert(static_cast<uint16_t>(FastOp::IfLe) -
                        static_cast<uint16_t>(FastOp::IfEq) == 5 &&
                    static_cast<uint16_t>(FastOp::IfICmpLe) -
                        static_cast<uint16_t>(FastOp::IfICmpEq) == 5 &&
                    static_cast<uint16_t>(FastOp::LoadIfLe) -
                        static_cast<uint16_t>(FastOp::LoadIfEq) == 5 &&
                    static_cast<uint16_t>(FastOp::LoadIfICmpLe) -
                        static_cast<uint16_t>(FastOp::LoadIfICmpEq) == 5 &&
                    static_cast<uint16_t>(FastOp::IConstIfICmpLe) -
                        static_cast<uint16_t>(FastOp::IConstIfICmpEq) == 5,
                "comparison families must stay contiguous");

  switch (First) {
  case FastOp::Load:
    switch (Second) {
    case FastOp::GetFieldRef:
      return FastOp::LoadGetFieldRef;
    case FastOp::GetFieldInt:
      return FastOp::LoadGetFieldInt;
    case FastOp::PutFieldInt:
      return FastOp::LoadPutFieldInt;
    case FastOp::AALoad:
      return FastOp::LoadAALoad;
    case FastOp::IALoad:
      return FastOp::LoadIALoad;
    case FastOp::IAStore:
      return FastOp::LoadIAStore;
    case FastOp::Store:
      return FastOp::LoadStore;
    case FastOp::Load:
      return FastOp::LoadLoad;
    case FastOp::IConst:
      return FastOp::LoadIConst;
    case FastOp::IAdd:
      return FastOp::LoadIAdd;
    case FastOp::ISub:
      return FastOp::LoadISub;
    case FastOp::IMul:
      return FastOp::LoadIMul;
    case FastOp::IfNull:
      return FastOp::LoadIfNull;
    case FastOp::IfNonNull:
      return FastOp::LoadIfNonNull;
    default:
      if (Second >= FastOp::IfEq && Second <= FastOp::IfLe)
        return At(FastOp::LoadIfEq, Off(Second, FastOp::IfEq));
      if (Second >= FastOp::IfICmpEq && Second <= FastOp::IfICmpLe)
        return At(FastOp::LoadIfICmpEq, Off(Second, FastOp::IfICmpEq));
      return std::nullopt;
    }
  case FastOp::IConst:
    switch (Second) {
    case FastOp::IConst:
      return FastOp::IConstIConst;
    case FastOp::IAdd:
      return FastOp::IConstIAdd;
    case FastOp::ISub:
      return FastOp::IConstISub;
    case FastOp::IMul:
      return FastOp::IConstIMul;
    case FastOp::IDiv:
      return FastOp::IConstIDiv;
    case FastOp::IRem:
      return FastOp::IConstIRem;
    case FastOp::AALoad:
      return FastOp::IConstAALoad;
    case FastOp::IALoad:
      return FastOp::IConstIALoad;
    default:
      if (Second >= FastOp::IfICmpEq && Second <= FastOp::IfICmpLe)
        return At(FastOp::IConstIfICmpEq, Off(Second, FastOp::IfICmpEq));
      return std::nullopt;
    }
  case FastOp::IInc:
    if (Second == FastOp::Goto)
      return FastOp::IIncGoto;
    return std::nullopt;
  case FastOp::Store:
    if (Second == FastOp::Load)
      return FastOp::StoreLoad;
    if (Second == FastOp::Store)
      return FastOp::StoreStore;
    return std::nullopt;
  case FastOp::Pop:
    if (Second == FastOp::IConst)
      return FastOp::PopIConst;
    return std::nullopt;
  case FastOp::IRem:
    if (Second == FastOp::Store)
      return FastOp::IRemStore;
    return std::nullopt;
  case FastOp::IMul:
    if (Second == FastOp::Pop)
      return FastOp::IMulPop;
    if (Second == FastOp::IConst)
      return FastOp::IMulIConst;
    return std::nullopt;
  case FastOp::IAdd:
    if (Second == FastOp::IConst)
      return FastOp::IAddIConst;
    return std::nullopt;
  default:
    return std::nullopt;
  }
}

namespace {

/// Net operand-stack effect of one instruction (callee effects folded in
/// for Invoke).
int stackDelta(const CompiledProgram &CP, const Instruction &Ins) {
  switch (Ins.Op) {
  case Opcode::IConst:
  case Opcode::AConstNull:
  case Opcode::ILoad:
  case Opcode::ALoad:
  case Opcode::GetStatic:
  case Opcode::NewInstance:
  case Opcode::Dup:
    return 1;
  case Opcode::IInc:
  case Opcode::Swap:
  case Opcode::INeg:
  case Opcode::GetField:
  case Opcode::NewRefArray:
  case Opcode::NewIntArray:
  case Opcode::ArrayLength:
  case Opcode::Goto:
  case Opcode::Ret:
  case Opcode::RearrangeEnter:
  case Opcode::RearrangeEnterDyn:
  case Opcode::RearrangeExit:
    return 0;
  case Opcode::IStore:
  case Opcode::AStore:
  case Opcode::Pop:
  case Opcode::IAdd:
  case Opcode::ISub:
  case Opcode::IMul:
  case Opcode::IDiv:
  case Opcode::IRem:
  case Opcode::PutStatic:
  case Opcode::AALoad:
  case Opcode::IALoad:
  case Opcode::IfEq:
  case Opcode::IfNe:
  case Opcode::IfLt:
  case Opcode::IfGe:
  case Opcode::IfGt:
  case Opcode::IfLe:
  case Opcode::IfNull:
  case Opcode::IfNonNull:
  case Opcode::IReturn:
  case Opcode::AReturn:
    return -1;
  case Opcode::PutField:
  case Opcode::IfICmpEq:
  case Opcode::IfICmpNe:
  case Opcode::IfICmpLt:
  case Opcode::IfICmpGe:
  case Opcode::IfICmpGt:
  case Opcode::IfICmpLe:
  case Opcode::IfACmpEq:
  case Opcode::IfACmpNe:
    return -2;
  case Opcode::AAStore:
  case Opcode::IAStore:
    return -3;
  case Opcode::ArrayFill:
    return -4;
  case Opcode::ArrayCopy:
    return -5;
  case Opcode::Invoke: {
    const Method &Callee = CP.method(static_cast<MethodId>(Ins.A)).Body;
    return -static_cast<int>(Callee.numArgs()) +
           (Callee.ReturnType.has_value() ? 1 : 0);
  }
  }
  assert(false && "unknown opcode");
  return 0;
}

/// Branch ops in the emitted stream (displacement in A). Fused branch
/// variants are deliberately excluded: their own A slot holds the first
/// half's operand, the displacement lives in the retained second slot.
bool isFastBranch(FastOp Op) {
  return Op >= FastOp::Goto && Op <= FastOp::IfACmpNe;
}

/// The superinstruction peephole. Rewrites the Op of the first
/// instruction of each selected adjacent pair (greedy left-to-right;
/// operands and the second slot stay untouched, so the fused stream
/// differs from the unfused one only in Op fields). A pair is fused only
/// when the second slot is not a branch target — leaders are recomputed
/// here from the emitted displacements, which also accounts for inserted
/// Safepoint polls (a poll between two instructions breaks adjacency by
/// construction, and Safepoint itself is in no fusion pair).
void fuseMethod(FastMethod &FM) {
  std::vector<FastInst> &Code = FM.Code;
  if (Code.size() < 2)
    return;
  std::vector<bool> Leader(Code.size(), false);
  for (uint32_t I = 0; I != Code.size(); ++I)
    if (isFastBranch(static_cast<FastOp>(Code[I].Op)))
      Leader[I + Code[I].A] = true;
  for (uint32_t I = 0; I + 1 < Code.size();) {
    if (!Leader[I + 1]) {
      if (std::optional<FastOp> F =
              fusedOp(static_cast<FastOp>(Code[I].Op),
                      static_cast<FastOp>(Code[I + 1].Op))) {
        Code[I].Op = static_cast<uint16_t>(*F);
        I += 2;
        continue;
      }
    }
    ++I;
  }
#ifndef NDEBUG
  // The branch-target hazard class, asserted away wholesale: no branch
  // in the final stream may land on the second slot of a fused pair
  // (entering mid-pair would skip the fused execution's first half).
  // Second slots keep their original branch ops, so scanning every
  // isFastBranch slot covers fused-pair branches too.
  for (uint32_t I = 0; I != Code.size(); ++I) {
    if (!isFastBranch(static_cast<FastOp>(Code[I].Op)))
      continue;
    uint32_t T = I + Code[I].A;
    assert(T < Code.size() && "branch displacement out of range");
    assert((T == 0 || !isFusedOp(static_cast<FastOp>(Code[T - 1].Op))) &&
           "fused instruction spans a jump target");
  }
#endif
}

/// Worst-case operand stack depth of the verified body: forward dataflow
/// of entry depths (verification guarantees path-independence).
uint32_t maxStackDepth(const CompiledProgram &CP, const Method &Body) {
  const std::vector<Instruction> &Code = Body.Instructions;
  if (Code.empty())
    return 0;
  std::vector<int> Depth(Code.size(), -1);
  std::vector<uint32_t> Work;
  Depth[0] = 0;
  Work.push_back(0);
  int Max = 0;
  while (!Work.empty()) {
    uint32_t I = Work.back();
    Work.pop_back();
    int In = Depth[I];
    int Out = In + stackDelta(CP, Code[I]);
    Max = std::max({Max, In, Out});
    auto Flow = [&](uint32_t Succ) {
      assert(Succ < Code.size() && "branch target out of range");
      if (Depth[Succ] == -1) {
        Depth[Succ] = Out;
        Work.push_back(Succ);
      } else {
        assert(Depth[Succ] == Out && "inconsistent stack depths");
      }
    };
    if (isBranch(Code[I].Op))
      Flow(static_cast<uint32_t>(Code[I].A));
    if (!isTerminator(Code[I].Op))
      Flow(I + 1);
  }
  return static_cast<uint32_t>(Max);
}

} // namespace

FastProgram satb::translateProgram(const Program &P, const CompiledProgram &CP,
                                   const TranslateOptions &Opts) {
  std::vector<FieldSlot> Layout = computeFieldLayout(P);
  std::vector<uint32_t> Offsets = CP.instrOffsets();

  FastProgram FP;
  FP.Methods.resize(CP.Methods.size());
  for (MethodId M = 0; M != CP.Methods.size(); ++M) {
    const CompiledMethod &CM = CP.Methods[M];
    const Method &Body = CM.Body;
    FastMethod &FM = FP.Methods[M];
    FM.NumLocals = Body.NumLocals;
    FM.NumArgs = Body.numArgs();
    FM.FrameSlots = Body.NumLocals + maxStackDepth(CP, Body);

    // Safepoint placement: a poll before every loop header (any target of
    // a backward branch) and before every call bounds the instructions a
    // mutator can execute between polls on any path — straight-line code
    // without calls terminates on its own. Polls have no stack effect, so
    // FrameSlots is computed on the original body above.
    uint32_t NumPCs = static_cast<uint32_t>(Body.Instructions.size());
    std::vector<bool> Poll(NumPCs, false);
    if (Opts.InsertSafepoints) {
      for (uint32_t PC = 0; PC != NumPCs; ++PC) {
        const Instruction &Ins = Body.Instructions[PC];
        if (isBranch(Ins.Op) && static_cast<uint32_t>(Ins.A) <= PC)
          Poll[static_cast<uint32_t>(Ins.A)] = true;
        if (Ins.Op == Opcode::Invoke)
          Poll[PC] = true;
      }
    }
    // NewIdx[PC] = the instruction's index in the emitted stream; its
    // poll, if any, sits at NewIdx[PC] - 1. Branches land on the poll so
    // every back-edge polls.
    std::vector<uint32_t> NewIdx(NumPCs);
    uint32_t Emitted = 0;
    for (uint32_t PC = 0; PC != NumPCs; ++PC) {
      if (Poll[PC])
        ++Emitted;
      NewIdx[PC] = Emitted++;
    }

    FM.Code.resize(Emitted);
    for (uint32_t PC = 0; PC != NumPCs; ++PC) {
      const Instruction &Ins = Body.Instructions[PC];
      if (Poll[PC])
        FM.Code[NewIdx[PC] - 1].Op =
            static_cast<uint16_t>(FastOp::Safepoint);
      FastInst &FI = FM.Code[NewIdx[PC]];
      FI.A = Ins.A;
      FI.B = Ins.B;
      auto Set = [&FI](FastOp Op) { FI.Op = static_cast<uint16_t>(Op); };
      // A store site lowers to the one opcode executing its plan.
      auto SetStore = [&](StoreKind K) {
        Set(opFor(K, CM.Plans[PC]));
        FI.Site = Offsets[M] + PC;
      };
      switch (Ins.Op) {
      case Opcode::IConst:
        Set(FastOp::IConst);
        break;
      case Opcode::AConstNull:
        Set(FastOp::AConstNull);
        break;
      case Opcode::ILoad:
      case Opcode::ALoad:
        Set(FastOp::Load);
        break;
      case Opcode::IStore:
      case Opcode::AStore:
        Set(FastOp::Store);
        break;
      case Opcode::IInc:
        Set(FastOp::IInc);
        break;
      case Opcode::Dup:
        Set(FastOp::Dup);
        break;
      case Opcode::Pop:
        Set(FastOp::Pop);
        break;
      case Opcode::Swap:
        Set(FastOp::Swap);
        break;
      case Opcode::IAdd:
        Set(FastOp::IAdd);
        break;
      case Opcode::ISub:
        Set(FastOp::ISub);
        break;
      case Opcode::IMul:
        Set(FastOp::IMul);
        break;
      case Opcode::IDiv:
        Set(FastOp::IDiv);
        break;
      case Opcode::IRem:
        Set(FastOp::IRem);
        break;
      case Opcode::INeg:
        Set(FastOp::INeg);
        break;
      case Opcode::GetField:
      case Opcode::PutField: {
        FieldId FId = static_cast<FieldId>(Ins.A);
        const FieldDecl &FD = P.fieldDecl(FId);
        FI.A = static_cast<int32_t>(Layout[FId].Slot);
        FI.B = static_cast<int32_t>(FD.Owner);
        if (Ins.Op == Opcode::GetField) {
          Set(FD.Type == JType::Ref ? FastOp::GetFieldRef
                                    : FastOp::GetFieldInt);
        } else if (FD.Type == JType::Int) {
          Set(FastOp::PutFieldInt);
        } else {
          SetStore(StoreKind::PutFieldRef);
        }
        break;
      }
      case Opcode::GetStatic: {
        StaticFieldId SId = static_cast<StaticFieldId>(Ins.A);
        Set(P.staticDecl(SId).Type == JType::Ref ? FastOp::GetStaticRef
                                                 : FastOp::GetStaticInt);
        break;
      }
      case Opcode::PutStatic: {
        StaticFieldId SId = static_cast<StaticFieldId>(Ins.A);
        if (P.staticDecl(SId).Type == JType::Int) {
          Set(FastOp::PutStaticInt);
        } else {
          SetStore(StoreKind::PutStaticRef);
        }
        break;
      }
      case Opcode::NewInstance:
        Set(FastOp::NewInstance);
        break;
      case Opcode::NewRefArray:
        Set(FastOp::NewRefArray);
        break;
      case Opcode::NewIntArray:
        Set(FastOp::NewIntArray);
        break;
      case Opcode::AALoad:
        Set(FastOp::AALoad);
        break;
      case Opcode::IALoad:
        Set(FastOp::IALoad);
        break;
      case Opcode::IAStore:
        Set(FastOp::IAStore);
        break;
      case Opcode::AAStore:
        SetStore(StoreKind::AAStore);
        break;
      case Opcode::ArrayFill:
        SetStore(StoreKind::ArrayFill);
        break;
      case Opcode::ArrayCopy:
        SetStore(StoreKind::ArrayCopy);
        break;
      case Opcode::ArrayLength:
        Set(FastOp::ArrayLength);
        break;
      case Opcode::Invoke:
        Set(FastOp::Invoke);
        FI.C = static_cast<uint16_t>(
            CP.method(static_cast<MethodId>(Ins.A)).Body.numArgs());
        break;
      case Opcode::Goto:
        Set(FastOp::Goto);
        break;
      case Opcode::IfEq:
        Set(FastOp::IfEq);
        break;
      case Opcode::IfNe:
        Set(FastOp::IfNe);
        break;
      case Opcode::IfLt:
        Set(FastOp::IfLt);
        break;
      case Opcode::IfGe:
        Set(FastOp::IfGe);
        break;
      case Opcode::IfGt:
        Set(FastOp::IfGt);
        break;
      case Opcode::IfLe:
        Set(FastOp::IfLe);
        break;
      case Opcode::IfICmpEq:
        Set(FastOp::IfICmpEq);
        break;
      case Opcode::IfICmpNe:
        Set(FastOp::IfICmpNe);
        break;
      case Opcode::IfICmpLt:
        Set(FastOp::IfICmpLt);
        break;
      case Opcode::IfICmpGe:
        Set(FastOp::IfICmpGe);
        break;
      case Opcode::IfICmpGt:
        Set(FastOp::IfICmpGt);
        break;
      case Opcode::IfICmpLe:
        Set(FastOp::IfICmpLe);
        break;
      case Opcode::IfNull:
        Set(FastOp::IfNull);
        break;
      case Opcode::IfNonNull:
        Set(FastOp::IfNonNull);
        break;
      case Opcode::IfACmpEq:
        Set(FastOp::IfACmpEq);
        break;
      case Opcode::IfACmpNe:
        Set(FastOp::IfACmpNe);
        break;
      case Opcode::Ret:
        Set(FastOp::Ret);
        break;
      case Opcode::IReturn:
        Set(FastOp::IReturn);
        break;
      case Opcode::AReturn:
        Set(FastOp::AReturn);
        break;
      case Opcode::RearrangeEnter:
        Set(FastOp::RearrangeEnter);
        break;
      case Opcode::RearrangeEnterDyn:
        Set(FastOp::RearrangeEnterDyn);
        break;
      case Opcode::RearrangeExit:
        Set(FastOp::RearrangeExit);
        break;
      }
      // Branches become self-relative displacements: a taken branch is a
      // single IP += A with no code-base register in the dispatch loop.
      // With polls inserted, a branch targets its target's poll (if any)
      // so the back-edge cannot skip it.
      if (isBranch(Ins.Op)) {
        uint32_t T = static_cast<uint32_t>(Ins.A);
        uint32_t TIdx = NewIdx[T] - (Poll[T] ? 1 : 0);
        FI.A = static_cast<int32_t>(TIdx) - static_cast<int32_t>(NewIdx[PC]);
      }
    }
    if (Opts.Fuse)
      fuseMethod(FM);
    FP.MaxFrameSlots = std::max(FP.MaxFrameSlots, FM.FrameSlots);
  }
  return FP;
}
