//===- interp/Interpreter.cpp ---------------------------------------------===//

#include "interp/Interpreter.h"

#include <algorithm>
#include <cstring>

using namespace satb;

const char *satb::trapName(TrapKind K) {
  switch (K) {
  case TrapKind::None:
    return "none";
  case TrapKind::NullPointer:
    return "null pointer";
  case TrapKind::OutOfBounds:
    return "index out of bounds";
  case TrapKind::NegativeArraySize:
    return "negative array size";
  case TrapKind::DivisionByZero:
    return "division by zero";
  case TrapKind::BadFieldAccess:
    return "bad field access";
  case TrapKind::StackOverflow:
    return "stack overflow";
  case TrapKind::StepLimit:
    return "step limit exceeded";
  }
  return "<bad-trap>";
}

namespace {
/// JVM int semantics: wrap to 32 bits.
int64_t wrap32(int64_t V) { return static_cast<int32_t>(V); }
} // namespace

Interpreter::Interpreter(const Program &P, const CompiledProgram &CP, Heap &H)
    : P(P), CP(CP), H(H) {
  Stats.init(CP);
}

void Interpreter::pushFrame(MethodId Id) {
  Frame F;
  F.CM = &CP.method(Id);
  F.Locals.resize(F.CM->Body.NumLocals);
  Frames.push_back(std::move(F));
}

void Interpreter::start(MethodId Entry, const std::vector<int64_t> &IntArgs) {
  Frames.clear();
  Status = RunStatus::Running;
  Trap = TrapKind::None;
  Result = Slot();
  pushFrame(Entry);
  Frame &F = Frames.back();
  const Method &M = F.CM->Body;
  for (uint32_t A = 0; A != M.numArgs(); ++A) {
    assert(M.ArgTypes[A] == JType::Int &&
           "entry methods take only int arguments");
    F.Locals[A] =
        Slot::ofInt(A < IntArgs.size() ? wrap32(IntArgs[A]) : 0);
  }
}

RunStatus Interpreter::step(uint64_t MaxSteps) {
  for (uint64_t I = 0; I != MaxSteps && Status == RunStatus::Running; ++I) {
    ++Steps;
    if (!stepOne())
      break;
  }
  return Status;
}

RunStatus Interpreter::run(MethodId Entry, const std::vector<int64_t> &IntArgs,
                           uint64_t StepLimit) {
  start(Entry, IntArgs);
  uint64_t Before = Steps;
  step(StepLimit);
  if (Status == RunStatus::Running && Steps - Before >= StepLimit)
    setTrap(TrapKind::StepLimit);
  return Status;
}

uint64_t Interpreter::modeledInstrsExecuted() const {
  uint64_t Total = BarrierCost;
  for (unsigned Op = 0; Op != 64; ++Op) {
    if (!OpcodeCounts[Op])
      continue;
    Instruction Probe{static_cast<Opcode>(Op), 0, 0};
    Total += OpcodeCounts[Op] * CodeSizeModel::instrCost(Probe);
  }
  return Total;
}

void Interpreter::collectRoots(std::vector<ObjRef> &Out) const {
  Out.clear();
  for (const Frame &F : Frames) {
    for (const Slot &S : F.Locals)
      if (S.Ref != NullRef)
        Out.push_back(S.Ref);
    for (const Slot &S : F.Stack)
      if (S.Ref != NullRef)
        Out.push_back(S.Ref);
  }
}

void Interpreter::refStoreBarrier(const Frame &F, uint32_t PC, ObjRef Base,
                                  ObjRef Pre, ObjRef New) {
  const CompiledMethod &CM = *F.CM;
  SiteStats &SS = Stats.site(CM.Id, PC);
  ++SS.Execs;
  if (Pre == NullRef)
    ++SS.PreNull;

  // The marking component, then (BarrierMode::Generational) the
  // remembered-set component, each exactly as the site's plan says.
  const BarrierPlan P = SS.Plan;
  switch (P.Mark) {
  case MarkPlan::None:
    break;
  case MarkPlan::Elided: {
    ++SS.Elided;
#ifndef SATB_NO_JUSTIFICATION_CHECK
    // The Section 4.2 correctness check: an elided barrier must be
    // justified dynamically on every execution. Pure instrumentation —
    // compiled out of Release builds (the repo keeps asserts on in every
    // config, so this is gated by an explicit macro, not NDEBUG).
    bool Justified = SS.Reason == ElisionReason::NullOrSame
                         ? (Pre == NullRef || Pre == New)
                         : (Pre == NullRef);
    if (!Justified)
      ++SS.Violations;
#endif
    break;
  }
  case MarkPlan::Satb:
  case MarkPlan::AlwaysLog:
    // Section 4.3 rearrangement protocol: while the array is inside an
    // active enter/exit bracket, the permutation store skips the log (the
    // genuinely overwritten element was logged at enter, and marker
    // overlap is detected at exit). If the bracket was missed — marking
    // began mid-loop — fall through to the normal barrier.
    if (P.Rearrange && Satb && Satb->isActive() &&
        Satb->inActiveRearrange(Base)) {
      ++SS.Rearranged;
      BarrierCost += 1; // the in-bracket check; state reads are hoisted
      return;
    }
    if (P.Mark == MarkPlan::Satb) {
      // Inline: is marking in progress? (The generational marking
      // component is exactly the SATB sequence.)
      BarrierCost += 2;
      if (Satb && Satb->isActive()) {
        // Inline: load the pre-value, null test.
        BarrierCost += 3;
        if (Pre != NullRef) {
          // Out-of-line: append to the thread-local log buffer.
          BarrierCost += 6;
          Satb->logPreValue(Pre);
        }
      }
    } else {
      // The Section 4.5 future-work mode: no marking check, always log
      // non-null pre-values.
      BarrierCost += 3;
      if (Pre != NullRef) {
        BarrierCost += 6;
        if (Satb)
          Satb->logPreValue(Pre);
      }
    }
    break;
  case MarkPlan::Card:
    // Dirtied before the caller's store, unlike FastInterp (after): this
    // engine runs on one thread, and its driver (runWithConcurrentCycle)
    // runs marker work only between instructions, so no card refill can
    // clean and scan the object between this dirty and the store.
    BarrierCost += 2;
    if (Inc && Base != NullRef)
      Inc->recordWrite(Base);
    break;
  }

  // Statics never pay the remembered-set component (they are scanned as
  // roots by every minor collection).
  if (Base == NullRef)
    return;
  if (P.Rem == RemPlan::Elided) {
    ++SS.RemSetElided;
#ifndef SATB_NO_JUSTIFICATION_CHECK
    // A young-target elision is justified iff the base really is young
    // (trivially so when the nursery is off: no old-to-young edges exist
    // at all).
    if (H.nurseryEnabled() && !H.isYoung(Base))
      ++SS.RemSetViolations;
#endif
  } else if (P.Rem == RemPlan::Kept) {
    BarrierCost += 2; // young-test the base
    if (!H.isYoung(Base)) {
      BarrierCost += 2; // null + young test the stored value
      if (New != NullRef && H.isYoung(New)) {
        BarrierCost += 2; // shift + dirty the card
        ++SS.RemSetDirtied;
        if (Gen)
          Gen->recordOldToYoung(Base);
      }
    }
  }
}

void Interpreter::rangeStoreBarrier(const Frame &F, uint32_t PC, ObjRef Base,
                                    const ObjRef *Pre, size_t N,
                                    const ObjRef *NewVals, size_t NewStride) {
  const CompiledMethod &CM = *F.CM;
  SiteStats &SS = Stats.site(CM.Id, PC);
  ++SS.Execs;
  bool AllPreNull = true;
  for (size_t I = 0; I != N; ++I)
    if (Pre[I] != NullRef) {
      AllPreNull = false;
      break;
    }
  // PreNull counts executions whose whole destination range was pre-null:
  // the range analogue of the per-slot counter.
  if (AllPreNull)
    ++SS.PreNull;

  const BarrierPlan P = SS.Plan;
  switch (P.Mark) {
  case MarkPlan::None:
    break;
  case MarkPlan::Elided:
    ++SS.Elided;
#ifndef SATB_NO_JUSTIFICATION_CHECK
    // Range elisions are only ever justified by the Section 3 null-range
    // proof: every covered slot must still be pre-null.
    if (!AllPreNull)
      ++SS.Violations;
#endif
    break;
  case MarkPlan::Satb:
    BarrierCost += 2; // one marking-active check for the whole range
    if (Satb && Satb->isActive()) {
      BarrierCost += 3; // range-scan setup; per-slot checks amortize
      for (size_t I = 0; I != N; ++I)
        if (Pre[I] != NullRef) {
          BarrierCost += 6;
          Satb->logPreValue(Pre[I]);
        }
    }
    break;
  case MarkPlan::AlwaysLog:
    BarrierCost += 3;
    for (size_t I = 0; I != N; ++I)
      if (Pre[I] != NullRef) {
        BarrierCost += 6;
        if (Satb)
          Satb->logPreValue(Pre[I]);
      }
    break;
  case MarkPlan::Card:
    // Cards are per-object here: one dirty covers the whole range. Before
    // the store is safe here for the reason given in refStoreBarrier.
    BarrierCost += 2;
    if (Inc && Base != NullRef)
      Inc->recordWrite(Base);
    break;
  }

  if (Base == NullRef)
    return;
  if (P.Rem == RemPlan::Elided) {
    ++SS.RemSetElided;
#ifndef SATB_NO_JUSTIFICATION_CHECK
    if (H.nurseryEnabled() && !H.isYoung(Base))
      ++SS.RemSetViolations;
#endif
  } else if (P.Rem == RemPlan::Kept) {
    BarrierCost += 2; // young-test the base once
    if (!H.isYoung(Base)) {
      BarrierCost += 2; // one word-at-a-time null+young scan of the values
      bool AnyYoung = false;
      for (size_t I = 0; I != N && !AnyYoung; ++I) {
        ObjRef V = NewVals[I * NewStride];
        AnyYoung = V != NullRef && H.isYoung(V);
      }
      if (AnyYoung) {
        BarrierCost += 2; // shift + dirty the card, once
        ++SS.RemSetDirtied;
        if (Gen)
          Gen->recordOldToYoung(Base);
      }
    }
  }
}

bool Interpreter::stepOne() {
  Frame &F = Frames.back();
  const std::vector<Instruction> &Code = F.CM->Body.Instructions;
  assert(F.PC < Code.size() && "PC past end of method");
  const Instruction &Ins = Code[F.PC];
  uint32_t PC = F.PC++;
  ++OpcodeCounts[static_cast<uint8_t>(Ins.Op)];
  std::vector<Slot> &Stk = F.Stack;

  auto Pop = [&Stk]() {
    assert(!Stk.empty() && "operand stack underflow");
    Slot S = Stk.back();
    Stk.pop_back();
    return S;
  };
  auto Branch = [&F](int32_t Target) { F.PC = static_cast<uint32_t>(Target); };

  switch (Ins.Op) {
  case Opcode::IConst:
    Stk.push_back(Slot::ofInt(Ins.A));
    return true;
  case Opcode::AConstNull:
    Stk.push_back(Slot::ofRef(NullRef));
    return true;
  case Opcode::ILoad:
  case Opcode::ALoad:
    Stk.push_back(F.Locals[static_cast<uint32_t>(Ins.A)]);
    return true;
  case Opcode::IStore:
  case Opcode::AStore:
    F.Locals[static_cast<uint32_t>(Ins.A)] = Pop();
    return true;
  case Opcode::IInc: {
    Slot &L = F.Locals[static_cast<uint32_t>(Ins.A)];
    L = Slot::ofInt(wrap32(L.Int + Ins.B));
    return true;
  }
  case Opcode::Dup:
    assert(!Stk.empty() && "dup on empty stack");
    Stk.push_back(Stk.back());
    return true;
  case Opcode::Pop:
    Pop();
    return true;
  case Opcode::Swap: {
    Slot A = Pop(), B = Pop();
    Stk.push_back(A);
    Stk.push_back(B);
    return true;
  }
  case Opcode::IAdd:
  case Opcode::ISub:
  case Opcode::IMul:
  case Opcode::IDiv:
  case Opcode::IRem: {
    int64_t B = Pop().Int, A = Pop().Int;
    int64_t R = 0;
    switch (Ins.Op) {
    case Opcode::IAdd:
      R = A + B;
      break;
    case Opcode::ISub:
      R = A - B;
      break;
    case Opcode::IMul:
      R = A * B;
      break;
    case Opcode::IDiv:
    case Opcode::IRem:
      if (B == 0) {
        setTrap(TrapKind::DivisionByZero);
        return false;
      }
      R = Ins.Op == Opcode::IDiv ? A / B : A % B;
      break;
    default:
      break;
    }
    Stk.push_back(Slot::ofInt(wrap32(R)));
    return true;
  }
  case Opcode::INeg:
    Stk.push_back(Slot::ofInt(wrap32(-Pop().Int)));
    return true;
  case Opcode::GetField:
  case Opcode::PutField: {
    FieldId FId = static_cast<FieldId>(Ins.A);
    const FieldDecl &FD = P.fieldDecl(FId);
    const FieldSlot &FS = H.fieldSlot(FId);
    Slot Val;
    if (Ins.Op == Opcode::PutField)
      Val = Pop();
    ObjRef Obj = Pop().Ref;
    if (Obj == NullRef) {
      setTrap(TrapKind::NullPointer);
      return false;
    }
    HeapObject &O = H.object(Obj);
    if (O.Kind != ObjectKind::Object || O.Class != FD.Owner) {
      setTrap(TrapKind::BadFieldAccess);
      return false;
    }
    if (Ins.Op == Opcode::GetField) {
      Stk.push_back(FD.Type == JType::Ref
                        ? Slot::ofRef(O.refs()[FS.Slot])
                        : Slot::ofInt(O.ints()[FS.Slot]));
      return true;
    }
    if (FD.Type == JType::Ref) {
      refStoreBarrier(F, PC, Obj, O.refs()[FS.Slot], Val.Ref);
      O.refs()[FS.Slot] = Val.Ref;
    } else {
      O.ints()[FS.Slot] = Val.Int;
    }
    return true;
  }
  case Opcode::GetStatic: {
    StaticFieldId SId = static_cast<StaticFieldId>(Ins.A);
    Stk.push_back(P.staticDecl(SId).Type == JType::Ref
                      ? Slot::ofRef(H.getStaticRef(SId))
                      : Slot::ofInt(H.getStaticInt(SId)));
    return true;
  }
  case Opcode::PutStatic: {
    StaticFieldId SId = static_cast<StaticFieldId>(Ins.A);
    Slot Val = Pop();
    if (P.staticDecl(SId).Type == JType::Ref) {
      refStoreBarrier(F, PC, NullRef, H.getStaticRef(SId), Val.Ref);
      H.setStaticRef(SId, Val.Ref);
    } else {
      H.setStaticInt(SId, Val.Int);
    }
    return true;
  }
  case Opcode::NewInstance: {
    ObjRef R = H.allocateObject(static_cast<ClassId>(Ins.A));
    if (Inc && Inc->isActive())
      Inc->recordWrite(R); // new objects must be examined (Section 1)
    Stk.push_back(Slot::ofRef(R));
    return true;
  }
  case Opcode::NewRefArray:
  case Opcode::NewIntArray: {
    int64_t Len = Pop().Int;
    if (Len < 0) {
      setTrap(TrapKind::NegativeArraySize);
      return false;
    }
    ObjRef R = Ins.Op == Opcode::NewRefArray
                   ? H.allocateRefArray(static_cast<uint32_t>(Len))
                   : H.allocateIntArray(static_cast<uint32_t>(Len));
    if (Inc && Inc->isActive())
      Inc->recordWrite(R);
    Stk.push_back(Slot::ofRef(R));
    return true;
  }
  case Opcode::AALoad:
  case Opcode::IALoad: {
    int64_t Idx = Pop().Int;
    ObjRef Arr = Pop().Ref;
    if (Arr == NullRef) {
      setTrap(TrapKind::NullPointer);
      return false;
    }
    HeapObject &O = H.object(Arr);
    ObjectKind Want =
        Ins.Op == Opcode::AALoad ? ObjectKind::RefArray : ObjectKind::IntArray;
    if (O.Kind != Want) {
      setTrap(TrapKind::BadFieldAccess);
      return false;
    }
    if (Idx < 0 || Idx >= O.arrayLength()) {
      setTrap(TrapKind::OutOfBounds);
      return false;
    }
    Stk.push_back(Ins.Op == Opcode::AALoad
                      ? Slot::ofRef(O.refs()[static_cast<size_t>(Idx)])
                      : Slot::ofInt(O.ints()[static_cast<size_t>(Idx)]));
    return true;
  }
  case Opcode::AAStore:
  case Opcode::IAStore: {
    Slot Val = Pop();
    int64_t Idx = Pop().Int;
    ObjRef Arr = Pop().Ref;
    if (Arr == NullRef) {
      setTrap(TrapKind::NullPointer);
      return false;
    }
    HeapObject &O = H.object(Arr);
    ObjectKind Want = Ins.Op == Opcode::AAStore ? ObjectKind::RefArray
                                                : ObjectKind::IntArray;
    if (O.Kind != Want) {
      setTrap(TrapKind::BadFieldAccess);
      return false;
    }
    if (Idx < 0 || Idx >= O.arrayLength()) {
      setTrap(TrapKind::OutOfBounds);
      return false;
    }
    if (Ins.Op == Opcode::AAStore) {
      refStoreBarrier(F, PC, Arr, O.refs()[static_cast<size_t>(Idx)],
                      Val.Ref);
      O.refs()[static_cast<size_t>(Idx)] = Val.Ref;
    } else {
      O.ints()[static_cast<size_t>(Idx)] = Val.Int;
    }
    return true;
  }
  case Opcode::ArrayFill: {
    int64_t Cnt = Pop().Int;
    int64_t Start = Pop().Int;
    ObjRef Val = Pop().Ref;
    ObjRef Arr = Pop().Ref;
    if (Arr == NullRef) {
      setTrap(TrapKind::NullPointer);
      return false;
    }
    HeapObject &O = H.object(Arr);
    if (O.Kind != ObjectKind::RefArray) {
      setTrap(TrapKind::BadFieldAccess);
      return false;
    }
    if (Cnt < 0 || Start < 0 || Start + Cnt > O.arrayLength()) {
      setTrap(TrapKind::OutOfBounds);
      return false;
    }
    ObjRef *Slots = O.refs() + static_cast<size_t>(Start);
    rangeStoreBarrier(F, PC, Arr, Slots, static_cast<size_t>(Cnt), &Val, 0);
    for (int64_t I = 0; I != Cnt; ++I)
      Slots[I] = Val;
    return true;
  }
  case Opcode::ArrayCopy: {
    int64_t Cnt = Pop().Int;
    int64_t DstPos = Pop().Int;
    ObjRef Dst = Pop().Ref;
    int64_t SrcPos = Pop().Int;
    ObjRef Src = Pop().Ref;
    if (Src == NullRef || Dst == NullRef) {
      setTrap(TrapKind::NullPointer);
      return false;
    }
    HeapObject &SrcO = H.object(Src);
    HeapObject &DstO = H.object(Dst);
    if (SrcO.Kind != ObjectKind::RefArray ||
        DstO.Kind != ObjectKind::RefArray) {
      setTrap(TrapKind::BadFieldAccess);
      return false;
    }
    if (Cnt < 0 || SrcPos < 0 || SrcPos + Cnt > SrcO.arrayLength() ||
        DstPos < 0 || DstPos + Cnt > DstO.arrayLength()) {
      setTrap(TrapKind::OutOfBounds);
      return false;
    }
    const ObjRef *From = SrcO.refs() + static_cast<size_t>(SrcPos);
    ObjRef *To = DstO.refs() + static_cast<size_t>(DstPos);
    // Barrier first: pre-values and source originals must be read before
    // any slot is written (self-copies may overlap).
    rangeStoreBarrier(F, PC, Dst, To, static_cast<size_t>(Cnt), From, 1);
    std::memmove(To, From, static_cast<size_t>(Cnt) * sizeof(ObjRef));
    return true;
  }
  case Opcode::ArrayLength: {
    ObjRef Arr = Pop().Ref;
    if (Arr == NullRef) {
      setTrap(TrapKind::NullPointer);
      return false;
    }
    HeapObject &O = H.object(Arr);
    if (O.Kind == ObjectKind::Object) {
      setTrap(TrapKind::BadFieldAccess);
      return false;
    }
    Stk.push_back(Slot::ofInt(O.arrayLength()));
    return true;
  }
  case Opcode::Invoke: {
    MethodId Callee = static_cast<MethodId>(Ins.A);
    if (Frames.size() >= MaxCallDepth) {
      setTrap(TrapKind::StackOverflow);
      return false;
    }
    uint32_t NumArgs = CP.method(Callee).Body.numArgs();
    pushFrame(Callee); // invalidates F/Stk references
    Frame &Caller = Frames[Frames.size() - 2];
    Frame &NewF = Frames.back();
    for (uint32_t A = NumArgs; A-- > 0;) {
      NewF.Locals[A] = Caller.Stack.back();
      Caller.Stack.pop_back();
    }
    return true;
  }
  case Opcode::Goto:
    Branch(Ins.A);
    return true;
  case Opcode::IfEq:
  case Opcode::IfNe:
  case Opcode::IfLt:
  case Opcode::IfGe:
  case Opcode::IfGt:
  case Opcode::IfLe: {
    int64_t V = Pop().Int;
    bool Taken = false;
    switch (Ins.Op) {
    case Opcode::IfEq:
      Taken = V == 0;
      break;
    case Opcode::IfNe:
      Taken = V != 0;
      break;
    case Opcode::IfLt:
      Taken = V < 0;
      break;
    case Opcode::IfGe:
      Taken = V >= 0;
      break;
    case Opcode::IfGt:
      Taken = V > 0;
      break;
    case Opcode::IfLe:
      Taken = V <= 0;
      break;
    default:
      break;
    }
    if (Taken)
      Branch(Ins.A);
    return true;
  }
  case Opcode::IfICmpEq:
  case Opcode::IfICmpNe:
  case Opcode::IfICmpLt:
  case Opcode::IfICmpGe:
  case Opcode::IfICmpGt:
  case Opcode::IfICmpLe: {
    int64_t B = Pop().Int, A = Pop().Int;
    bool Taken = false;
    switch (Ins.Op) {
    case Opcode::IfICmpEq:
      Taken = A == B;
      break;
    case Opcode::IfICmpNe:
      Taken = A != B;
      break;
    case Opcode::IfICmpLt:
      Taken = A < B;
      break;
    case Opcode::IfICmpGe:
      Taken = A >= B;
      break;
    case Opcode::IfICmpGt:
      Taken = A > B;
      break;
    case Opcode::IfICmpLe:
      Taken = A <= B;
      break;
    default:
      break;
    }
    if (Taken)
      Branch(Ins.A);
    return true;
  }
  case Opcode::IfNull:
    if (Pop().Ref == NullRef)
      Branch(Ins.A);
    return true;
  case Opcode::IfNonNull:
    if (Pop().Ref != NullRef)
      Branch(Ins.A);
    return true;
  case Opcode::IfACmpEq: {
    ObjRef B = Pop().Ref, A = Pop().Ref;
    if (A == B)
      Branch(Ins.A);
    return true;
  }
  case Opcode::IfACmpNe: {
    ObjRef B = Pop().Ref, A = Pop().Ref;
    if (A != B)
      Branch(Ins.A);
    return true;
  }
  case Opcode::RearrangeEnter:
  case Opcode::RearrangeEnterDyn: {
    ObjRef Arr = F.Locals[static_cast<uint32_t>(Ins.A)].Ref;
    BarrierCost += 2; // marking-active check
    if (Satb && Satb->isActive() && Arr != NullRef) {
      HeapObject &O = H.object(Arr);
      int64_t Idx = Ins.Op == Opcode::RearrangeEnter
                        ? Ins.B
                        : F.Locals[static_cast<uint32_t>(Ins.B)].Int;
      if (O.Kind == ObjectKind::RefArray && Idx >= 0 &&
          Idx < O.arrayLength()) {
        BarrierCost += 3; // log the dropped element + read tracing state
        ObjRef Dropped = O.refs()[static_cast<size_t>(Idx)];
        if (Dropped != NullRef)
          Satb->logPreValue(Dropped);
        Satb->enterRearrange(Arr);
      }
    }
    return true;
  }
  case Opcode::RearrangeExit: {
    ObjRef Arr = F.Locals[static_cast<uint32_t>(Ins.A)].Ref;
    BarrierCost += 2;
    if (Satb && Arr != NullRef)
      Satb->exitRearrange(Arr);
    return true;
  }
  case Opcode::Ret:
  case Opcode::IReturn:
  case Opcode::AReturn: {
    Slot Ret;
    if (Ins.Op != Opcode::Ret)
      Ret = Pop();
    Frames.pop_back();
    if (Frames.empty()) {
      Result = Ret;
      Status = RunStatus::Finished;
      return false;
    }
    if (Ins.Op != Opcode::Ret)
      Frames.back().Stack.push_back(Ret);
    return true;
  }
  }
  assert(false && "unknown opcode in interpreter");
  return false;
}

// Concurrent-cycle drivers are templates over the engine type; see
// Interpreter.h.
