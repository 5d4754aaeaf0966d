//===- interp/FastInterp.cpp - Threaded-dispatch mutator engine -----------===//
//
// Dispatch is direct-threaded: DISPATCH() pays the fuel check and jumps
// through a label table indexed by the pre-decoded opcode; handlers jump
// straight to the next handler with no central loop. CASE(name) labels a
// handler. The semantics oracle for this loop is the reference Interpreter
// (tests/mutator_equivalence_test.cpp).
//
// Fidelity notes, load-bearing for the equivalence test:
//  - the fuel decrement precedes execution, matching the reference
//    engine's ++Steps-before-stepOne accounting;
//  - handlers pop operands in the reference engine's order *before*
//    trap checks, so operand stacks match slot-for-slot after a trap;
//  - the StackOverflow check precedes argument popping, as in the
//    reference Invoke.
//
//===----------------------------------------------------------------------===//

#include "interp/FastInterp.h"

using namespace satb;

namespace {
/// JVM int semantics: wrap to 32 bits.
int64_t wrap32(int64_t V) { return static_cast<int32_t>(V); }
} // namespace

FastInterp::FastInterp(const FastProgram &FP, const CompiledProgram &CP,
                       Heap &H)
    : FP(FP), H(H), Ctx(H) {
  Stats.init(CP);
  Sites = Stats.flatData();
  StaticR = H.staticRefsData();
  StaticI = H.staticIntsData();
}

void FastInterp::start(MethodId Entry, const std::vector<int64_t> &IntArgs) {
  size_t Need = static_cast<size_t>(MaxCallDepth) * FP.MaxFrameSlots;
  if (Arena.size() < Need)
    Arena.resize(Need);
  Frames.clear();
  Frames.reserve(MaxCallDepth); // push_back never moves live frames
  Status = RunStatus::Running;
  Trap = TrapKind::None;
  Result = Slot();
  AtSafepoint = true;

  const FastMethod &FM = FP.Methods[Entry];
  Frame F;
  F.FM = &FM;
  F.IP = FM.Code.data();
  F.Base = Arena.data();
  for (uint32_t L = 0; L != FM.NumLocals; ++L)
    F.Base[L] = Slot();
  for (uint32_t A = 0; A != FM.NumArgs; ++A)
    F.Base[A] = Slot::ofInt(A < IntArgs.size() ? wrap32(IntArgs[A]) : 0);
  F.SP = F.Base + FM.NumLocals;
  Frames.push_back(F);
}

RunStatus FastInterp::run(MethodId Entry, const std::vector<int64_t> &IntArgs,
                          uint64_t StepLimit) {
  start(Entry, IntArgs);
  uint64_t Before = Steps;
  step(StepLimit);
  if (Status == RunStatus::Running && Steps - Before >= StepLimit)
    setTrap(TrapKind::StepLimit);
  return Status;
}

void FastInterp::collectRoots(std::vector<ObjRef> &Out) const {
  Out.clear();
  for (const Frame &F : Frames) {
    const Slot *StackBegin = F.Base + F.FM->NumLocals;
    for (const Slot *S = F.Base; S != StackBegin; ++S)
      if (S->Ref != NullRef)
        Out.push_back(S->Ref);
    for (const Slot *S = StackBegin; S != F.SP; ++S)
      if (S->Ref != NullRef)
        Out.push_back(S->Ref);
  }
}

// The if constexpr block is the SATB_DISPATCH_PROFILE hook: it counts
// fall-through-adjacent dynamic opcode pairs (the fusion candidates). The
// production instantiation (ProfilePairs = false) discards it, so the
// measured dispatch loop carries no profiling cost.
#define DISPATCH()                                                             \
  do {                                                                         \
    if (Fuel == 0)                                                             \
      goto ExitLoop;                                                           \
    --Fuel;                                                                    \
    if constexpr (ProfilePairs) {                                              \
      if (ProfPrev && IP == ProfPrev + 1)                                      \
        ++PairProfile[ProfPrev->Op * kNumFastOps + IP->Op];                    \
      ProfPrev = IP;                                                           \
    }                                                                          \
    goto *Labels[IP->Op];                                                      \
  } while (0)
#define CASE(name) L_##name:

#define NEXT()                                                                 \
  do {                                                                         \
    ++IP;                                                                      \
    DISPATCH();                                                                \
  } while (0)

#define TRAP(K)                                                                \
  do {                                                                         \
    setTrap(TrapKind::K);                                                      \
    goto ExitLoop;                                                             \
  } while (0)

#define PUSH(V) (*SP++ = (V))
#define POP() (*--SP)

// Barrier tails shared by the scalar and range store variants. EACH_PRE
// runs its body with `Pre` bound to each overwritten value: the one a
// scalar prologue loaded (SCALAR_PRE), or each destination slot of a
// range (RANGE_PRE), so only a range's per-slot log is linear; its checks
// are paid once. The counters record which of the plan's steps ran,
// exactly as the reference engine's; modeledBarrierCost prices them.
#define SCALAR_PRE(BODY) BODY
#define RANGE_PRE(BODY)                                                        \
  for (size_t I = 0; I != N; ++I) {                                            \
    ObjRef Pre = loadRefAcquire(DstP + I);                                     \
    BODY                                                                       \
  }

#define BARRIER_SATB(EACH_PRE)                                                 \
  do {                                                                         \
    if (Satb && Satb->isActive()) {                                            \
      ++SS.MarkingActive;                                                      \
      EACH_PRE(if (Pre != NullRef) {                                           \
        ++SS.PreLogged;                                                        \
        Ctx.logPreValue(Pre);                                                  \
      })                                                                       \
    }                                                                          \
  } while (0)

#define BARRIER_ALWAYSLOG(EACH_PRE)                                            \
  do {                                                                         \
    EACH_PRE(if (Pre != NullRef) {                                             \
      ++SS.PreLogged;                                                          \
      if (Satb)                                                                \
        Ctx.logPreValue(Pre);                                                  \
    })                                                                         \
  } while (0)

// An elided execution must be justified (Section 4.2): every overwritten
// slot pre-null or, for a null-or-same elision (scalar stores only; a
// range elision is the Section 3 null-range proof), the value stored.
#define BARRIER_ELIDED(PRENULL, SAME)                                          \
  do {                                                                         \
    ++SS.Elided;                                                               \
    if (kJustificationCheck && !(PRENULL) &&                                   \
        !(SS.Reason == ElisionReason::NullOrSame && (SAME)))                   \
      ++SS.Violations;                                                         \
  } while (0)

// Generational remembered-set tails (BarrierMode::Generational). The
// marking component reuses BARRIER_SATB / BARRIER_ELIDED above; these
// add the old-to-young component with the reference engine's exact
// counters. ANYYOUNG is the store's value test — one value for a scalar
// store, a word scan of the new values for a bulk one (read strictly
// before any slot is written), paid once per store either way. Statics
// never expand them (roots need no remembered set).
#define BARRIER_GEN_REMSET(BaseRef, ANYYOUNG)                                  \
  do {                                                                         \
    if (!H.isYoung(BaseRef)) {                                                 \
      ++SS.OldBase;                                                            \
      if (ANYYOUNG) {                                                          \
        ++SS.RemSetDirtied;                                                    \
        if (Gen)                                                               \
          Gen->recordOldToYoung(BaseRef);                                      \
      }                                                                        \
    }                                                                          \
  } while (0)

#define BARRIER_GEN_YOUNG(BaseRef)                                             \
  do {                                                                         \
    ++SS.RemSetElided;                                                         \
    if (kJustificationCheck && H.nurseryEnabled() && !H.isYoung(BaseRef))      \
      ++SS.RemSetViolations;                                                   \
  } while (0)

// Allocation handlers flush IP/SP to the frame first: a nursery-triggered
// minor collection (the Heap's GC hook) scans this engine's frames for
// roots mid-handler, and must see the operand stack exactly as the
// reference engine's would at its allocation point (operands already
// popped, result not yet pushed).
#define FLUSH_FRAME()                                                          \
  do {                                                                         \
    Frames.back().IP = IP;                                                     \
    Frames.back().SP = SP;                                                     \
  } while (0)

// The trap checks of a field access (binding O to the object of class
// I->B) and of an array element access (binding O to the array of kind
// KIND that holds index Idx), in the reference engine's order.
#define FIELD_OBJECT(Obj, I)                                                   \
  if (Obj == NullRef)                                                          \
    TRAP(NullPointer);                                                         \
  HeapObject &O = *Tbl[Obj];                                                   \
  if (O.Kind != ObjectKind::Object ||                                          \
      O.Class != static_cast<ClassId>((I)->B))                                 \
  TRAP(BadFieldAccess)
#define ARRAY_ELEMENT(Arr, KIND, Idx)                                          \
  if (Arr == NullRef)                                                          \
    TRAP(NullPointer);                                                         \
  HeapObject &O = *Tbl[Arr];                                                   \
  if (O.Kind != ObjectKind::KIND)                                              \
    TRAP(BadFieldAccess);                                                      \
  if (Idx < 0 || Idx >= O.arrayLength())                                       \
  TRAP(OutOfBounds)

// Pop / trap-check / stat prologues for the specialized store families.
// Evaluation order matches the reference engine: value first, then the
// remaining pops, then the trap checks.
#define PUTFIELD_REF_PROLOGUE()                                                \
  Slot Val = POP();                                                            \
  ObjRef Obj = POP().Ref;                                                      \
  FIELD_OBJECT(Obj, IP);                                                       \
  ObjRef *SlotP = O.refs() + IP->A;                                            \
  ObjRef Pre = loadRefAcquire(SlotP);                                          \
  SiteStats &SS = Sites[IP->Site];                                             \
  ++SS.Execs;                                                                  \
  if (Pre == NullRef)                                                          \
  ++SS.PreNull

#define PUTSTATIC_REF_PROLOGUE()                                               \
  Slot Val = POP();                                                            \
  ObjRef *SlotP = StaticR + IP->A;                                             \
  ObjRef Pre = loadRefAcquire(SlotP);                                          \
  SiteStats &SS = Sites[IP->Site];                                             \
  ++SS.Execs;                                                                  \
  if (Pre == NullRef)                                                          \
  ++SS.PreNull

#define AASTORE_PROLOGUE()                                                     \
  Slot Val = POP();                                                            \
  int64_t Idx = POP().Int;                                                     \
  ObjRef Arr = POP().Ref;                                                      \
  ARRAY_ELEMENT(Arr, RefArray, Idx);                                           \
  ObjRef *SlotP = O.refs() + Idx;                                              \
  ObjRef Pre = loadRefAcquire(SlotP);                                          \
  SiteStats &SS = Sites[IP->Site];                                             \
  ++SS.Execs;                                                                  \
  if (Pre == NullRef)                                                          \
  ++SS.PreNull

// --- Bulk-store plumbing ----------------------------------------------------
//
// ArrayFill / ArrayCopy prologues: pops and trap order mirror the reference
// engine's cases exactly. One bulk execution is one fuel unit, one Execs tick,
// and at most one PreNull tick — PreNull counts executions whose *whole*
// destination range was pre-null (the range analogue of the per-slot counter,
// vacuously true for N == 0). The pre-value scan runs before any slot is
// written: self-copies may overlap, and the SATB log must see the snapshot
// values. Bulk ops never fuse and are never poll points, so the instruction
// boundary after the handler is safepoint-correct for free.
#define BULK_PRENULL_SCAN()                                                    \
  bool AllPreNull = true;                                                      \
  for (size_t I = 0; I != N; ++I)                                              \
    if (loadRefAcquire(DstP + I) != NullRef) {                                 \
      AllPreNull = false;                                                      \
      break;                                                                   \
    }                                                                          \
  if (AllPreNull)                                                              \
  ++SS.PreNull

#define ARRAYFILL_PROLOGUE()                                                   \
  int64_t Cnt = POP().Int;                                                     \
  int64_t Start = POP().Int;                                                   \
  ObjRef Val = POP().Ref;                                                      \
  ObjRef Arr = POP().Ref;                                                      \
  if (Arr == NullRef)                                                          \
    TRAP(NullPointer);                                                         \
  HeapObject &O = *Tbl[Arr];                                                   \
  if (O.Kind != ObjectKind::RefArray)                                          \
    TRAP(BadFieldAccess);                                                      \
  if (Cnt < 0 || Start < 0 || Start + Cnt > O.arrayLength())                   \
    TRAP(OutOfBounds);                                                         \
  ObjRef *DstP = O.refs() + static_cast<size_t>(Start);                        \
  const size_t N = static_cast<size_t>(Cnt);                                   \
  SiteStats &SS = Sites[IP->Site];                                             \
  ++SS.Execs;                                                                  \
  BULK_PRENULL_SCAN()

#define ARRAYCOPY_PROLOGUE()                                                   \
  int64_t Cnt = POP().Int;                                                     \
  int64_t DstPos = POP().Int;                                                  \
  ObjRef Arr = POP().Ref; /* the destination: the barrier's base */            \
  int64_t SrcPos = POP().Int;                                                  \
  ObjRef Src = POP().Ref;                                                      \
  if (Src == NullRef || Arr == NullRef)                                        \
    TRAP(NullPointer);                                                         \
  HeapObject &SrcO = *Tbl[Src];                                                \
  HeapObject &DstO = *Tbl[Arr];                                                \
  if (SrcO.Kind != ObjectKind::RefArray || DstO.Kind != ObjectKind::RefArray)  \
    TRAP(BadFieldAccess);                                                      \
  if (Cnt < 0 || SrcPos < 0 || SrcPos + Cnt > SrcO.arrayLength() ||            \
      DstPos < 0 || DstPos + Cnt > DstO.arrayLength())                         \
    TRAP(OutOfBounds);                                                         \
  const ObjRef *SrcP = SrcO.refs() + static_cast<size_t>(SrcPos);              \
  ObjRef *DstP = DstO.refs() + static_cast<size_t>(DstPos);                    \
  const size_t N = static_cast<size_t>(Cnt);                                   \
  SiteStats &SS = Sites[IP->Site];                                             \
  ++SS.Execs;                                                                  \
  BULK_PRENULL_SCAN()

#define VAL_ANYYOUNG (Val.Ref != NullRef && H.isYoung(Val.Ref))
#define FILL_ANYYOUNG (N != 0 && Val != NullRef && H.isYoung(Val))
#define COPY_ANYYOUNG (H.anyYoung(SrcP, N))

// --- Row ops ---------------------------------------------------------------
//
// The semantics of each op a SATB_FAST_FUSED_OPS row names, and of every
// branch, written once as OP_<name>(TOP, I). TOP is the expression for
// the op's first pop (an op that pops nothing ignores it) and I the
// instruction holding its operands. A taken branch leaves through
// JUMP(I); every other exit is the caller's, to I + 1. The base handler
// is OP_X(POP(), IP); a Pipe row passes the first half's value as TOP and
// the second slot as I, so the value never touches the operand stack.
// Pass TOP as an expression: a Slot temporary costs the dispatch loop a
// spill.
#define JUMP(I)                                                                \
  do {                                                                         \
    IP = (I) + (I)->A; /* branch operands are self-relative */                 \
    DISPATCH();                                                                \
  } while (0)

#define OP_IConst(TOP, I) PUSH(Slot::ofInt((I)->A))
#define OP_Load(TOP, I) PUSH(Base[(I)->A])
#define OP_Store(TOP, I) Base[(I)->A] = (TOP)
#define OP_IInc(TOP, I)                                                        \
  {                                                                            \
    Slot &L = Base[(I)->A];                                                    \
    L = Slot::ofInt(wrap32(L.Int + (I)->B));                                   \
  }
#define OP_Pop(TOP, I) (void)(TOP)
#define OP_Goto(TOP, I) JUMP(I)
#define INT_BINOP(TOP, EXPR)                                                   \
  {                                                                            \
    int64_t B = (TOP).Int, A = POP().Int;                                      \
    PUSH(Slot::ofInt(wrap32(EXPR)));                                           \
  }
#define OP_IAdd(TOP, I) INT_BINOP(TOP, A + B)
#define OP_ISub(TOP, I) INT_BINOP(TOP, A - B)
#define OP_IMul(TOP, I) INT_BINOP(TOP, A * B)
#define OP_IRem(TOP, I)                                                        \
  {                                                                            \
    int64_t B = (TOP).Int, A = POP().Int;                                      \
    if (B == 0)                                                                \
      TRAP(DivisionByZero);                                                    \
    PUSH(Slot::ofInt(wrap32(A % B)));                                          \
  }
#define OP_GetFieldRef(TOP, I)                                                 \
  {                                                                            \
    ObjRef Obj = (TOP).Ref;                                                    \
    FIELD_OBJECT(Obj, I);                                                      \
    PUSH(Slot::ofRef(loadRefAcquire(O.refs() + (I)->A)));                      \
  }
#define OP_GetFieldInt(TOP, I)                                                 \
  {                                                                            \
    ObjRef Obj = (TOP).Ref;                                                    \
    FIELD_OBJECT(Obj, I);                                                      \
    PUSH(Slot::ofInt(loadIntRelaxed(O.ints() + (I)->A)));                      \
  }
#define OP_PutFieldInt(TOP, I)                                                 \
  {                                                                            \
    Slot Val = (TOP);                                                          \
    ObjRef Obj = POP().Ref;                                                    \
    FIELD_OBJECT(Obj, I);                                                      \
    storeIntRelaxed(O.ints() + (I)->A, Val.Int);                               \
  }
#define OP_AALoad(TOP, I)                                                      \
  {                                                                            \
    int64_t Idx = (TOP).Int;                                                   \
    ObjRef Arr = POP().Ref;                                                    \
    ARRAY_ELEMENT(Arr, RefArray, Idx);                                         \
    PUSH(Slot::ofRef(loadRefAcquire(O.refs() + Idx)));                         \
  }
#define IF_ZERO(TOP, I, CMP)                                                   \
  if ((TOP).Int CMP 0)                                                         \
  JUMP(I)
#define IF_ICMP(TOP, I, CMP)                                                   \
  {                                                                            \
    int64_t B = (TOP).Int, A = POP().Int;                                      \
    if (A CMP B)                                                               \
      JUMP(I);                                                                 \
  }
#define IF_ACMP(TOP, I, CMP)                                                   \
  {                                                                            \
    ObjRef B = (TOP).Ref, A = POP().Ref;                                       \
    if (A CMP B)                                                               \
      JUMP(I);                                                                 \
  }
#define OP_IfEq(TOP, I) IF_ZERO(TOP, I, ==)
#define OP_IfNe(TOP, I) IF_ZERO(TOP, I, !=)
#define OP_IfLt(TOP, I) IF_ZERO(TOP, I, <)
#define OP_IfGe(TOP, I) IF_ZERO(TOP, I, >=)
#define OP_IfGt(TOP, I) IF_ZERO(TOP, I, >)
#define OP_IfLe(TOP, I) IF_ZERO(TOP, I, <=)
#define OP_IfICmpEq(TOP, I) IF_ICMP(TOP, I, ==)
#define OP_IfICmpNe(TOP, I) IF_ICMP(TOP, I, !=)
#define OP_IfICmpLt(TOP, I) IF_ICMP(TOP, I, <)
#define OP_IfICmpGe(TOP, I) IF_ICMP(TOP, I, >=)
#define OP_IfICmpGt(TOP, I) IF_ICMP(TOP, I, >)
#define OP_IfICmpLe(TOP, I) IF_ICMP(TOP, I, <=)
#define OP_IfNull(TOP, I)                                                      \
  if ((TOP).Ref == NullRef)                                                    \
  JUMP(I)
#define OP_IfNonNull(TOP, I)                                                   \
  if ((TOP).Ref != NullRef)                                                    \
  JUMP(I)
#define OP_IfACmpEq(TOP, I) IF_ACMP(TOP, I, ==)
#define OP_IfACmpNe(TOP, I) IF_ACMP(TOP, I, !=)

#define BASE_CASE(X)                                                           \
  CASE(X) {                                                                    \
    OP_##X(POP(), IP);                                                         \
    NEXT();                                                                    \
  }

// --- Generated superinstruction handlers -----------------------------------
//
// One handler per SATB_FAST_FUSED_OPS row. It runs with the first half's
// fuel unit paid (the DISPATCH that reached it) and pays the second
// half's on entering it, so a trap in the first half charges one unit.
// When the quantum is exhausted it runs the first half's own handler
// instead, which suspends on the second slot; that slot still holds the
// original instruction. Suspension points, step totals and the operand
// stack at every boundary and trap are therefore exactly those of the
// unfused translation. A Pipe row hands the first half's value to the
// second half's body as TOP_<First>; a Seq row runs both bodies. Each
// row ends in its own dispatch: a Seq row that went to the second half's
// handler instead shared that handler's indirect jump and reloaded Base,
// and was slower (DESIGN.md "Superinstructions").
#define TOP_Load Base[IP->A]
#define TOP_IConst Slot::ofInt(IP->A)
#define FUSED_Pipe(First, Second)                                              \
  --Fuel;                                                                      \
  OP_##Second(TOP_##First, IP + 1);                                            \
  IP += 2;                                                                     \
  DISPATCH()
#define FUSED_Seq(First, Second)                                               \
  OP_##First(POP(), IP);                                                       \
  --Fuel;                                                                      \
  OP_##Second(POP(), IP + 1);                                                  \
  IP += 2;                                                                     \
  DISPATCH()
#define FUSED_CASE(Kind, First, Second)                                        \
  CASE(First##Second) {                                                        \
    if (Fuel == 0)                                                             \
      goto L_##First;                                                          \
    FUSED_##Kind(First, Second);                                               \
  }

// --- Generated store handlers ----------------------------------------------
//
// One handler per SATB_FAST_STORE_OPS row: the kind's prologue, the
// plan's marking component, its remembered-set component, the kind's
// store, and the exit. Each component expands to exactly its barrier
// sequence — an Elided row runs no barrier instruction.
//
// Marking components per shape (scalar slot vs. bulk range).
#define MARK_SCALAR_None()
#define MARK_SCALAR_Elided() BARRIER_ELIDED(Pre == NullRef, Pre == Val.Ref)
#define MARK_SCALAR_Satb() BARRIER_SATB(SCALAR_PRE)
#define MARK_SCALAR_AlwaysLog() BARRIER_ALWAYSLOG(SCALAR_PRE)
#define MARK_SCALAR_Card() /* after the store: see BARRIER_CARD */
#define MARK_RANGE_None()
#define MARK_RANGE_Elided() BARRIER_ELIDED(AllPreNull, false)
#define MARK_RANGE_Satb() BARRIER_SATB(RANGE_PRE)
#define MARK_RANGE_AlwaysLog() BARRIER_ALWAYSLOG(RANGE_PRE)
#define MARK_RANGE_Card() /* after the store; one card covers the range */

// Cards are per-object; the statics area (B = NullRef) has none to dirty.
// A store case dirties the card after its store: dirtied first, a refill
// could clean the card and scan the object in between, missing the value.
#define BARRIER_CARD(B)                                                        \
  do {                                                                         \
    if (Inc && (B) != NullRef)                                                 \
      Inc->recordWrite(B);                                                     \
  } while (0)

// Section 4.3 rearrangement: inside an active bracket the permutation
// store skips the log; outside it, the kept marking barrier runs.
#define REARR_0(B, MARK) MARK
#define REARR_1(B, MARK)                                                       \
  if (Satb && Satb->isActive() && Satb->inActiveRearrange(B)) {                \
    ++SS.Rearranged;                                                           \
  } else {                                                                     \
    MARK;                                                                      \
  }

// Remembered-set components: heap stores, and statics (roots: none).
#define REM_HEAP_None(B, ANYYOUNG)
#define REM_HEAP_Elided(B, ANYYOUNG) BARRIER_GEN_YOUNG(B)
#define REM_HEAP_Kept(B, ANYYOUNG) BARRIER_GEN_REMSET(B, ANYYOUNG)
#define REM_ROOT_None(B, ANYYOUNG)
#define REM_ROOT_Kept(B, ANYYOUNG)

// Kind traits: mark shape, rem shape, prologue, written object, value
// test, store.
#define PutFieldRef_TRAITS                                                     \
  SCALAR, HEAP, PUTFIELD_REF_PROLOGUE(), Obj, VAL_ANYYOUNG,                    \
      storeRefRelease(SlotP, Val.Ref)
#define PutStaticRef_TRAITS                                                    \
  SCALAR, ROOT, PUTSTATIC_REF_PROLOGUE(), NullRef, false,                      \
      storeRefRelease(SlotP, Val.Ref)
#define AAStore_TRAITS                                                         \
  SCALAR, HEAP, AASTORE_PROLOGUE(), Arr, VAL_ANYYOUNG,                         \
      storeRefRelease(SlotP, Val.Ref)
#define ArrayFill_TRAITS                                                       \
  RANGE, HEAP, ARRAYFILL_PROLOGUE(), Arr, FILL_ANYYOUNG,                       \
      storeRefRangeFill(DstP, N, Val)
#define ArrayCopy_TRAITS                                                       \
  RANGE, HEAP, ARRAYCOPY_PROLOGUE(), Arr, COPY_ANYYOUNG,                       \
      storeRefRangeCopy(DstP, SrcP, N)

#define STORE_CASE(K, Name, M, R, Rr)                                          \
  STORE_CASE_(K##_##Name, M, R, Rr, K##_TRAITS)
#define STORE_CASE_(...) STORE_CASE_IMPL(__VA_ARGS__)
#define STORE_CASE_IMPL(Op, M, R, Rr, MShape, RShape, Prologue, B, ANYYOUNG,  \
                        Store)                                                 \
  CASE(Op) {                                                                   \
    Prologue;                                                                  \
    REARR_##Rr(B, MARK_##MShape##_##M());                                      \
    REM_##RShape##_##R(B, ANYYOUNG);                                           \
    Store;                                                                     \
    if constexpr (MarkPlan::M == MarkPlan::Card)                               \
      BARRIER_CARD(B);                                                         \
    NEXT();                                                                    \
  }

RunStatus FastInterp::step(uint64_t MaxSteps) {
  // The profiled loop is a separate instantiation so the production
  // dispatch pays nothing for the SATB_DISPATCH_PROFILE machinery.
  return PairProfile.empty() ? stepImpl<false>(MaxSteps)
                             : stepImpl<true>(MaxSteps);
}

template <bool ProfilePairs>
RunStatus FastInterp::stepImpl(uint64_t MaxSteps) {
  if (Status != RunStatus::Running)
    return Status;
  AtSafepoint = false;
  uint64_t Fuel = MaxSteps;
  [[maybe_unused]] const FastInst *ProfPrev = nullptr;
  const FastInst *IP = Frames.back().IP;
  Slot *Base = Frames.back().Base;
  Slot *SP = Frames.back().SP;
  // Object-table base, cached across heap accesses; only allocation can
  // grow the table, so only the New* handlers refresh it. (In
  // multi-mutator mode the table is fixed at capacity and never moves.)
  HeapObject *const *Tbl = H.tableData();
  // Safepoint poll flag, null unless the multi-mutator driver armed it.
  const std::atomic<bool> *SpReq = Ctx.safepointFlag();

  static const void *const Labels[] = {
#define X(name) &&L_##name,
#define S(K, Name, M, R, Rr) &&L_##K##_##Name,
#define R(Kind, First, Second) &&L_##First##Second,
      SATB_FAST_OPS(X, S, R)
#undef R
#undef S
#undef X
  };
  DISPATCH();

  BASE_CASE(IConst)
  CASE(AConstNull) {
    PUSH(Slot::ofRef(NullRef));
    NEXT();
  }
  BASE_CASE(Load)
  BASE_CASE(Store)
  BASE_CASE(IInc)
  CASE(Dup) {
    Slot S = SP[-1];
    PUSH(S);
    NEXT();
  }
  BASE_CASE(Pop)
  CASE(Swap) {
    Slot A = POP(), B = POP();
    PUSH(A);
    PUSH(B);
    NEXT();
  }
  BASE_CASE(IAdd)
  BASE_CASE(ISub)
  BASE_CASE(IMul)
  CASE(IDiv) {
    int64_t B = POP().Int, A = POP().Int;
    if (B == 0)
      TRAP(DivisionByZero);
    PUSH(Slot::ofInt(wrap32(A / B))); // int64 math: INT_MIN / -1 is defined
    NEXT();
  }
  BASE_CASE(IRem)
  CASE(INeg) {
    int64_t A = POP().Int;
    PUSH(Slot::ofInt(wrap32(-A)));
    NEXT();
  }
  BASE_CASE(GetFieldRef)
  BASE_CASE(GetFieldInt)
  BASE_CASE(PutFieldInt)
  CASE(GetStaticRef) {
    PUSH(Slot::ofRef(loadRefAcquire(StaticR + IP->A)));
    NEXT();
  }
  CASE(GetStaticInt) {
    PUSH(Slot::ofInt(loadIntRelaxed(StaticI + IP->A)));
    NEXT();
  }
  CASE(PutStaticInt) {
    storeIntRelaxed(StaticI + IP->A, POP().Int);
    NEXT();
  }
  CASE(NewInstance) {
    FLUSH_FRAME();
    ObjRef R = Ctx.allocateObject(static_cast<ClassId>(IP->A));
    Tbl = H.tableData();
    if (Inc && Inc->isActive())
      Inc->recordWrite(R); // new objects must be examined (Section 1)
    PUSH(Slot::ofRef(R));
    NEXT();
  }
  CASE(NewRefArray) {
    int64_t Len = POP().Int;
    if (Len < 0)
      TRAP(NegativeArraySize);
    FLUSH_FRAME();
    ObjRef R = Ctx.allocateRefArray(static_cast<uint32_t>(Len));
    Tbl = H.tableData();
    if (Inc && Inc->isActive())
      Inc->recordWrite(R);
    PUSH(Slot::ofRef(R));
    NEXT();
  }
  CASE(NewIntArray) {
    int64_t Len = POP().Int;
    if (Len < 0)
      TRAP(NegativeArraySize);
    FLUSH_FRAME();
    ObjRef R = Ctx.allocateIntArray(static_cast<uint32_t>(Len));
    Tbl = H.tableData();
    if (Inc && Inc->isActive())
      Inc->recordWrite(R);
    PUSH(Slot::ofRef(R));
    NEXT();
  }
  BASE_CASE(AALoad)
  CASE(IALoad) {
    int64_t Idx = POP().Int;
    ObjRef Arr = POP().Ref;
    ARRAY_ELEMENT(Arr, IntArray, Idx);
    PUSH(Slot::ofInt(loadIntRelaxed(O.ints() + Idx)));
    NEXT();
  }
  CASE(IAStore) {
    Slot Val = POP();
    int64_t Idx = POP().Int;
    ObjRef Arr = POP().Ref;
    ARRAY_ELEMENT(Arr, IntArray, Idx);
    storeIntRelaxed(O.ints() + Idx, Val.Int);
    NEXT();
  }
  CASE(ArrayLength) {
    ObjRef Arr = POP().Ref;
    if (Arr == NullRef)
      TRAP(NullPointer);
    HeapObject &O = *Tbl[Arr];
    if (O.Kind == ObjectKind::Object)
      TRAP(BadFieldAccess);
    PUSH(Slot::ofInt(O.arrayLength()));
    NEXT();
  }

  // --- Reference stores ------------------------------------------------------
  // Every store kind x plan handler, generated from SATB_FAST_STORE_OPS.
  // Bulk stores run the barrier first, then the slot movement:
  // pre-values and source originals are all read before any slot is
  // written (self-copies may overlap), and the barrier prologue is paid
  // once per range.
  SATB_FAST_STORE_OPS(STORE_CASE)

  CASE(Invoke) {
    if (Frames.size() >= MaxCallDepth)
      TRAP(StackOverflow);
    const FastMethod &Callee = FP.Methods[static_cast<MethodId>(IP->A)];
    uint32_t NumArgs = IP->C;
    SP -= NumArgs;
    Frame &Cur = Frames.back();
    Cur.IP = IP + 1;
    Cur.SP = SP;
    Slot *NewBase = Cur.Base + Cur.FM->FrameSlots;
    for (uint32_t A = 0; A != NumArgs; ++A)
      NewBase[A] = SP[A];
    for (uint32_t L = NumArgs; L != Callee.NumLocals; ++L)
      NewBase[L] = Slot();
    Frames.push_back(Frame{&Callee, Callee.Code.data(), NewBase, nullptr});
    Base = NewBase;
    SP = NewBase + Callee.NumLocals;
    IP = Callee.Code.data();
    DISPATCH();
  }
  BASE_CASE(Goto)
  BASE_CASE(IfEq)
  BASE_CASE(IfNe)
  BASE_CASE(IfLt)
  BASE_CASE(IfGe)
  BASE_CASE(IfGt)
  BASE_CASE(IfLe)
  BASE_CASE(IfICmpEq)
  BASE_CASE(IfICmpNe)
  BASE_CASE(IfICmpLt)
  BASE_CASE(IfICmpGe)
  BASE_CASE(IfICmpGt)
  BASE_CASE(IfICmpLe)
  BASE_CASE(IfNull)
  BASE_CASE(IfNonNull)
  BASE_CASE(IfACmpEq)
  BASE_CASE(IfACmpNe)
  CASE(Ret) {
    Frames.pop_back();
    if (Frames.empty()) {
      Result = Slot();
      Status = RunStatus::Finished;
      goto ExitLoop;
    }
    Frame &Caller = Frames.back();
    IP = Caller.IP;
    Base = Caller.Base;
    SP = Caller.SP;
    DISPATCH();
  }
  CASE(IReturn) {
    Slot Ret = POP();
    Frames.pop_back();
    if (Frames.empty()) {
      Result = Ret;
      Status = RunStatus::Finished;
      goto ExitLoop;
    }
    Frame &Caller = Frames.back();
    IP = Caller.IP;
    Base = Caller.Base;
    SP = Caller.SP;
    PUSH(Ret);
    DISPATCH();
  }
  CASE(AReturn) {
    Slot Ret = POP();
    Frames.pop_back();
    if (Frames.empty()) {
      Result = Ret;
      Status = RunStatus::Finished;
      goto ExitLoop;
    }
    Frame &Caller = Frames.back();
    IP = Caller.IP;
    Base = Caller.Base;
    SP = Caller.SP;
    PUSH(Ret);
    DISPATCH();
  }
  CASE(RearrangeEnter)
  CASE(RearrangeEnterDyn) {
    ObjRef Arr = Base[IP->A].Ref;
    BracketStats &BS = Stats.brackets();
    ++BS.Enters; // the marking-active check
    if (Satb && Satb->isActive() && Arr != NullRef) {
      HeapObject &O = *Tbl[Arr];
      int64_t Idx = IP->Op == static_cast<uint16_t>(FastOp::RearrangeEnter)
                        ? IP->B
                        : Base[IP->B].Int;
      if (O.Kind == ObjectKind::RefArray && Idx >= 0 &&
          Idx < O.arrayLength()) {
        ++BS.Entered; // log the dropped element + read tracing state
        ObjRef Dropped = loadRefAcquire(O.refs() + Idx);
        if (Dropped != NullRef)
          Satb->logPreValue(Dropped);
        Satb->enterRearrange(Arr);
      }
    }
    NEXT();
  }
  CASE(RearrangeExit) {
    ObjRef Arr = Base[IP->A].Ref;
    ++Stats.brackets().Exits;
    if (Satb && Arr != NullRef)
      Satb->exitRearrange(Arr);
    NEXT();
  }
  CASE(Safepoint) {
    // A poll is one relaxed load + branch; refund its fuel so Steps
    // counts only real instructions (step totals stay comparable with the
    // poll-free translation). On a pending request, suspend past the poll
    // with Status still Running — the driver parks and resumes.
    ++Fuel;
    if (SpReq && SpReq->load(std::memory_order_relaxed)) {
      ++IP;
      AtSafepoint = true;
      goto ExitLoop;
    }
    NEXT();
  }

  // --- Superinstructions ----------------------------------------------------
  // Every fused handler, generated from SATB_FAST_FUSED_OPS.
  SATB_FAST_FUSED_OPS(FUSED_CASE)

ExitLoop:
  if (!Frames.empty()) {
    Frames.back().IP = IP;
    Frames.back().SP = SP;
  }
  Steps += MaxSteps - Fuel;
  return Status;
}

template RunStatus FastInterp::stepImpl<false>(uint64_t);
template RunStatus FastInterp::stepImpl<true>(uint64_t);
