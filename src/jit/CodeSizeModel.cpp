//===- jit/CodeSizeModel.cpp ----------------------------------------------===//

#include "jit/CodeSizeModel.h"

using namespace satb;

uint32_t CodeSizeModel::instrCost(const Instruction &I) {
  switch (I.Op) {
  case Opcode::IConst:
  case Opcode::AConstNull:
  case Opcode::ILoad:
  case Opcode::IStore:
  case Opcode::ALoad:
  case Opcode::AStore:
  case Opcode::Dup:
  case Opcode::Pop:
  case Opcode::Swap:
  case Opcode::IAdd:
  case Opcode::ISub:
  case Opcode::IMul:
  case Opcode::INeg:
  case Opcode::IInc:
  case Opcode::Goto:
    return 1;
  case Opcode::IDiv:
  case Opcode::IRem:
    return 3; // zero check + divide
  case Opcode::GetField:
  case Opcode::PutField:
  case Opcode::GetStatic:
  case Opcode::PutStatic:
    return 2; // null check + memory op
  case Opcode::AALoad:
  case Opcode::IALoad:
  case Opcode::AAStore:
  case Opcode::IAStore:
    return 4; // null check + bounds check + address + memory op
  case Opcode::ArrayLength:
    return 2;
  case Opcode::NewInstance:
    return 10; // allocation fast path + zeroing stub
  case Opcode::NewRefArray:
  case Opcode::NewIntArray:
    return 12;
  case Opcode::Invoke:
    return 3; // argument shuffle + call
  case Opcode::IfEq:
  case Opcode::IfNe:
  case Opcode::IfLt:
  case Opcode::IfGe:
  case Opcode::IfGt:
  case Opcode::IfLe:
  case Opcode::IfICmpEq:
  case Opcode::IfICmpNe:
  case Opcode::IfICmpLt:
  case Opcode::IfICmpGe:
  case Opcode::IfICmpGt:
  case Opcode::IfICmpLe:
  case Opcode::IfNull:
  case Opcode::IfNonNull:
  case Opcode::IfACmpEq:
  case Opcode::IfACmpNe:
    return 2; // compare + branch
  case Opcode::Ret:
  case Opcode::IReturn:
  case Opcode::AReturn:
    return 2; // epilogue
  case Opcode::RearrangeEnter:
  case Opcode::RearrangeEnterDyn:
    return 5; // log the dropped element + read the tracing state
  case Opcode::RearrangeExit:
    return 3; // re-read the state + conditional retrace enqueue
  case Opcode::ArrayFill:
  case Opcode::ArrayCopy:
    return 8; // null/kind/range checks + loop setup; the per-slot moves
              // are data movement a compiled memmove amortizes away
  }
  return 1;
}

uint32_t CodeSizeModel::barrierCost(const Instruction &I, BarrierPlan P) {
  uint32_t Cost = 0;
  switch (P.Mark) {
  case MarkPlan::Satb:
    Cost = SatbBarrierCost;
    break;
  case MarkPlan::AlwaysLog:
    Cost = SatbBarrierCost - 2; // no marking check
    break;
  case MarkPlan::Card:
    Cost = CardBarrierCost;
    break;
  case MarkPlan::None:
  case MarkPlan::Elided:
    break;
  }
  if (P.Rem == RemPlan::Kept && I.Op != Opcode::PutStatic)
    Cost += GenRemSetCost;
  return Cost;
}

uint32_t CodeSizeModel::bodyCost(const std::vector<Instruction> &Code,
                                 const std::vector<BarrierPlan> &Plans) {
  uint32_t Total = 0;
  for (size_t I = 0, E = Code.size(); I != E; ++I) {
    Total += instrCost(Code[I]);
    if (I < Plans.size())
      Total += barrierCost(Code[I], Plans[I]);
  }
  return Total;
}
