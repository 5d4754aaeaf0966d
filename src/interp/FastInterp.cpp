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

// Pop / trap-check / stat prologues for the specialized store families.
// Evaluation order matches the reference engine: value first, then the
// remaining pops, then the trap checks.
#define PUTFIELD_REF_PROLOGUE()                                                \
  Slot Val = POP();                                                            \
  ObjRef Obj = POP().Ref;                                                      \
  if (Obj == NullRef)                                                          \
    TRAP(NullPointer);                                                         \
  HeapObject &O = *Tbl[Obj];                                                   \
  if (O.Kind != ObjectKind::Object || O.Class != static_cast<ClassId>(IP->B))  \
    TRAP(BadFieldAccess);                                                      \
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
  if (Arr == NullRef)                                                          \
    TRAP(NullPointer);                                                         \
  HeapObject &O = *Tbl[Arr];                                                   \
  if (O.Kind != ObjectKind::RefArray)                                          \
    TRAP(BadFieldAccess);                                                      \
  if (Idx < 0 || Idx >= O.arrayLength())                                       \
    TRAP(OutOfBounds);                                                         \
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

// --- Superinstruction plumbing ---------------------------------------------
//
// A fused handler runs with one fuel unit already paid (the DISPATCH that
// reached it). FUSE_* charges the second half's unit — or, when the
// quantum is exhausted, executes only the first half and suspends on the
// second slot, which still holds the original instruction. Suspension
// points, step totals, and the operand stack at every boundary are
// therefore exactly those of the unfused translation.
#define FUSE_SECOND_HALF_OR(FirstHalf)                                         \
  do {                                                                         \
    if (Fuel == 0) {                                                           \
      FirstHalf;                                                               \
      NEXT();                                                                  \
    }                                                                          \
    --Fuel;                                                                    \
  } while (0)

#define FUSE_LOAD() FUSE_SECOND_HALF_OR(PUSH(Base[IP->A]))
#define FUSE_ICONST() FUSE_SECOND_HALF_OR(PUSH(Slot::ofInt(IP->A)))
#define FUSE_IINC()                                                            \
  FUSE_SECOND_HALF_OR({                                                        \
    Slot &L = Base[IP->A];                                                     \
    L = Slot::ofInt(wrap32(L.Int + IP->B));                                    \
  })

#define NEXT2()                                                                \
  do {                                                                         \
    IP += 2;                                                                   \
    DISPATCH();                                                                \
  } while (0)

// The retained second slot's branch displacement is relative to itself
// (one past the fused op), hence the +1.
#define FUSED_BRANCH(Cond)                                                     \
  do {                                                                         \
    if (Cond) {                                                                \
      IP += 1 + IP[1].A;                                                       \
      DISPATCH();                                                              \
    }                                                                          \
    NEXT2();                                                                   \
  } while (0)

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
      SATB_FAST_OPS(X, S)
#undef S
#undef X
  };
  DISPATCH();

  CASE(IConst) {
    PUSH(Slot::ofInt(IP->A));
    NEXT();
  }
  CASE(AConstNull) {
    PUSH(Slot::ofRef(NullRef));
    NEXT();
  }
  CASE(Load) {
    PUSH(Base[IP->A]);
    NEXT();
  }
  CASE(Store) {
    Base[IP->A] = POP();
    NEXT();
  }
  CASE(IInc) {
    Slot &L = Base[IP->A];
    L = Slot::ofInt(wrap32(L.Int + IP->B));
    NEXT();
  }
  CASE(Dup) {
    Slot S = SP[-1];
    PUSH(S);
    NEXT();
  }
  CASE(Pop) {
    --SP;
    NEXT();
  }
  CASE(Swap) {
    Slot A = POP(), B = POP();
    PUSH(A);
    PUSH(B);
    NEXT();
  }
  CASE(IAdd) {
    int64_t B = POP().Int, A = POP().Int;
    PUSH(Slot::ofInt(wrap32(A + B)));
    NEXT();
  }
  CASE(ISub) {
    int64_t B = POP().Int, A = POP().Int;
    PUSH(Slot::ofInt(wrap32(A - B)));
    NEXT();
  }
  CASE(IMul) {
    int64_t B = POP().Int, A = POP().Int;
    PUSH(Slot::ofInt(wrap32(A * B)));
    NEXT();
  }
  CASE(IDiv) {
    int64_t B = POP().Int, A = POP().Int;
    if (B == 0)
      TRAP(DivisionByZero);
    PUSH(Slot::ofInt(wrap32(A / B))); // int64 math: INT_MIN / -1 is defined
    NEXT();
  }
  CASE(IRem) {
    int64_t B = POP().Int, A = POP().Int;
    if (B == 0)
      TRAP(DivisionByZero);
    PUSH(Slot::ofInt(wrap32(A % B)));
    NEXT();
  }
  CASE(INeg) {
    int64_t A = POP().Int;
    PUSH(Slot::ofInt(wrap32(-A)));
    NEXT();
  }
  CASE(GetFieldRef) {
    ObjRef Obj = POP().Ref;
    if (Obj == NullRef)
      TRAP(NullPointer);
    HeapObject &O = *Tbl[Obj];
    if (O.Kind != ObjectKind::Object ||
        O.Class != static_cast<ClassId>(IP->B))
      TRAP(BadFieldAccess);
    PUSH(Slot::ofRef(loadRefAcquire(O.refs() + IP->A)));
    NEXT();
  }
  CASE(GetFieldInt) {
    ObjRef Obj = POP().Ref;
    if (Obj == NullRef)
      TRAP(NullPointer);
    HeapObject &O = *Tbl[Obj];
    if (O.Kind != ObjectKind::Object ||
        O.Class != static_cast<ClassId>(IP->B))
      TRAP(BadFieldAccess);
    PUSH(Slot::ofInt(loadIntRelaxed(O.ints() + IP->A)));
    NEXT();
  }
  CASE(PutFieldInt) {
    Slot Val = POP();
    ObjRef Obj = POP().Ref;
    if (Obj == NullRef)
      TRAP(NullPointer);
    HeapObject &O = *Tbl[Obj];
    if (O.Kind != ObjectKind::Object ||
        O.Class != static_cast<ClassId>(IP->B))
      TRAP(BadFieldAccess);
    storeIntRelaxed(O.ints() + IP->A, Val.Int);
    NEXT();
  }
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
  CASE(AALoad) {
    int64_t Idx = POP().Int;
    ObjRef Arr = POP().Ref;
    if (Arr == NullRef)
      TRAP(NullPointer);
    HeapObject &O = *Tbl[Arr];
    if (O.Kind != ObjectKind::RefArray)
      TRAP(BadFieldAccess);
    if (Idx < 0 || Idx >= O.arrayLength())
      TRAP(OutOfBounds);
    PUSH(Slot::ofRef(loadRefAcquire(O.refs() + Idx)));
    NEXT();
  }
  CASE(IALoad) {
    int64_t Idx = POP().Int;
    ObjRef Arr = POP().Ref;
    if (Arr == NullRef)
      TRAP(NullPointer);
    HeapObject &O = *Tbl[Arr];
    if (O.Kind != ObjectKind::IntArray)
      TRAP(BadFieldAccess);
    if (Idx < 0 || Idx >= O.arrayLength())
      TRAP(OutOfBounds);
    PUSH(Slot::ofInt(loadIntRelaxed(O.ints() + Idx)));
    NEXT();
  }
  CASE(IAStore) {
    Slot Val = POP();
    int64_t Idx = POP().Int;
    ObjRef Arr = POP().Ref;
    if (Arr == NullRef)
      TRAP(NullPointer);
    HeapObject &O = *Tbl[Arr];
    if (O.Kind != ObjectKind::IntArray)
      TRAP(BadFieldAccess);
    if (Idx < 0 || Idx >= O.arrayLength())
      TRAP(OutOfBounds);
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
  CASE(Goto) {
    IP += IP->A; // branch operands are self-relative displacements
    DISPATCH();
  }
  CASE(IfEq) {
    if (POP().Int == 0) {
      IP += IP->A;
      DISPATCH();
    }
    NEXT();
  }
  CASE(IfNe) {
    if (POP().Int != 0) {
      IP += IP->A;
      DISPATCH();
    }
    NEXT();
  }
  CASE(IfLt) {
    if (POP().Int < 0) {
      IP += IP->A;
      DISPATCH();
    }
    NEXT();
  }
  CASE(IfGe) {
    if (POP().Int >= 0) {
      IP += IP->A;
      DISPATCH();
    }
    NEXT();
  }
  CASE(IfGt) {
    if (POP().Int > 0) {
      IP += IP->A;
      DISPATCH();
    }
    NEXT();
  }
  CASE(IfLe) {
    if (POP().Int <= 0) {
      IP += IP->A;
      DISPATCH();
    }
    NEXT();
  }
  CASE(IfICmpEq) {
    int64_t B = POP().Int, A = POP().Int;
    if (A == B) {
      IP += IP->A;
      DISPATCH();
    }
    NEXT();
  }
  CASE(IfICmpNe) {
    int64_t B = POP().Int, A = POP().Int;
    if (A != B) {
      IP += IP->A;
      DISPATCH();
    }
    NEXT();
  }
  CASE(IfICmpLt) {
    int64_t B = POP().Int, A = POP().Int;
    if (A < B) {
      IP += IP->A;
      DISPATCH();
    }
    NEXT();
  }
  CASE(IfICmpGe) {
    int64_t B = POP().Int, A = POP().Int;
    if (A >= B) {
      IP += IP->A;
      DISPATCH();
    }
    NEXT();
  }
  CASE(IfICmpGt) {
    int64_t B = POP().Int, A = POP().Int;
    if (A > B) {
      IP += IP->A;
      DISPATCH();
    }
    NEXT();
  }
  CASE(IfICmpLe) {
    int64_t B = POP().Int, A = POP().Int;
    if (A <= B) {
      IP += IP->A;
      DISPATCH();
    }
    NEXT();
  }
  CASE(IfNull) {
    if (POP().Ref == NullRef) {
      IP += IP->A;
      DISPATCH();
    }
    NEXT();
  }
  CASE(IfNonNull) {
    if (POP().Ref != NullRef) {
      IP += IP->A;
      DISPATCH();
    }
    NEXT();
  }
  CASE(IfACmpEq) {
    ObjRef B = POP().Ref, A = POP().Ref;
    if (A == B) {
      IP += IP->A;
      DISPATCH();
    }
    NEXT();
  }
  CASE(IfACmpNe) {
    ObjRef B = POP().Ref, A = POP().Ref;
    if (A != B) {
      IP += IP->A;
      DISPATCH();
    }
    NEXT();
  }
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
  // Each handler: FUSE_* pays the second half's fuel (or bails to the
  // unfused first half), the body does both halves' work reading the
  // second half's operands from the retained IP[1], and control leaves
  // via NEXT2/FUSED_BRANCH. Trap paths reproduce the reference engine's
  // operand-stack state exactly: the value the first half would have
  // pushed was never pushed, and the second half's pops skip that same
  // value — the net stack motion at every trap point is identical.

  CASE(LoadGetFieldRef) {
    FUSE_LOAD();
    ObjRef Obj = Base[IP->A].Ref;
    if (Obj == NullRef)
      TRAP(NullPointer);
    HeapObject &O = *Tbl[Obj];
    if (O.Kind != ObjectKind::Object ||
        O.Class != static_cast<ClassId>(IP[1].B))
      TRAP(BadFieldAccess);
    PUSH(Slot::ofRef(loadRefAcquire(O.refs() + IP[1].A)));
    NEXT2();
  }
  CASE(LoadGetFieldInt) {
    FUSE_LOAD();
    ObjRef Obj = Base[IP->A].Ref;
    if (Obj == NullRef)
      TRAP(NullPointer);
    HeapObject &O = *Tbl[Obj];
    if (O.Kind != ObjectKind::Object ||
        O.Class != static_cast<ClassId>(IP[1].B))
      TRAP(BadFieldAccess);
    PUSH(Slot::ofInt(loadIntRelaxed(O.ints() + IP[1].A)));
    NEXT2();
  }
  CASE(LoadPutFieldInt) {
    FUSE_LOAD();
    Slot Val = Base[IP->A];
    ObjRef Obj = POP().Ref;
    if (Obj == NullRef)
      TRAP(NullPointer);
    HeapObject &O = *Tbl[Obj];
    if (O.Kind != ObjectKind::Object ||
        O.Class != static_cast<ClassId>(IP[1].B))
      TRAP(BadFieldAccess);
    storeIntRelaxed(O.ints() + IP[1].A, Val.Int);
    NEXT2();
  }
  CASE(LoadAALoad) {
    FUSE_LOAD();
    int64_t Idx = Base[IP->A].Int;
    ObjRef Arr = POP().Ref;
    if (Arr == NullRef)
      TRAP(NullPointer);
    HeapObject &O = *Tbl[Arr];
    if (O.Kind != ObjectKind::RefArray)
      TRAP(BadFieldAccess);
    if (Idx < 0 || Idx >= O.arrayLength())
      TRAP(OutOfBounds);
    PUSH(Slot::ofRef(loadRefAcquire(O.refs() + Idx)));
    NEXT2();
  }
  CASE(LoadIALoad) {
    FUSE_LOAD();
    int64_t Idx = Base[IP->A].Int;
    ObjRef Arr = POP().Ref;
    if (Arr == NullRef)
      TRAP(NullPointer);
    HeapObject &O = *Tbl[Arr];
    if (O.Kind != ObjectKind::IntArray)
      TRAP(BadFieldAccess);
    if (Idx < 0 || Idx >= O.arrayLength())
      TRAP(OutOfBounds);
    PUSH(Slot::ofInt(loadIntRelaxed(O.ints() + Idx)));
    NEXT2();
  }
  CASE(LoadIAStore) {
    FUSE_LOAD();
    Slot Val = Base[IP->A];
    int64_t Idx = POP().Int;
    ObjRef Arr = POP().Ref;
    if (Arr == NullRef)
      TRAP(NullPointer);
    HeapObject &O = *Tbl[Arr];
    if (O.Kind != ObjectKind::IntArray)
      TRAP(BadFieldAccess);
    if (Idx < 0 || Idx >= O.arrayLength())
      TRAP(OutOfBounds);
    storeIntRelaxed(O.ints() + Idx, Val.Int);
    NEXT2();
  }
  CASE(LoadStore) {
    FUSE_LOAD();
    Base[IP[1].A] = Base[IP->A];
    NEXT2();
  }
  CASE(LoadIAdd) {
    FUSE_LOAD();
    int64_t B = Base[IP->A].Int, A = POP().Int;
    PUSH(Slot::ofInt(wrap32(A + B)));
    NEXT2();
  }
  CASE(LoadISub) {
    FUSE_LOAD();
    int64_t B = Base[IP->A].Int, A = POP().Int;
    PUSH(Slot::ofInt(wrap32(A - B)));
    NEXT2();
  }
  CASE(LoadIMul) {
    FUSE_LOAD();
    int64_t B = Base[IP->A].Int, A = POP().Int;
    PUSH(Slot::ofInt(wrap32(A * B)));
    NEXT2();
  }
  CASE(LoadIfEq) {
    FUSE_LOAD();
    FUSED_BRANCH(Base[IP->A].Int == 0);
  }
  CASE(LoadIfNe) {
    FUSE_LOAD();
    FUSED_BRANCH(Base[IP->A].Int != 0);
  }
  CASE(LoadIfLt) {
    FUSE_LOAD();
    FUSED_BRANCH(Base[IP->A].Int < 0);
  }
  CASE(LoadIfGe) {
    FUSE_LOAD();
    FUSED_BRANCH(Base[IP->A].Int >= 0);
  }
  CASE(LoadIfGt) {
    FUSE_LOAD();
    FUSED_BRANCH(Base[IP->A].Int > 0);
  }
  CASE(LoadIfLe) {
    FUSE_LOAD();
    FUSED_BRANCH(Base[IP->A].Int <= 0);
  }
  CASE(LoadIfICmpEq) {
    FUSE_LOAD();
    int64_t B = Base[IP->A].Int, A = POP().Int;
    FUSED_BRANCH(A == B);
  }
  CASE(LoadIfICmpNe) {
    FUSE_LOAD();
    int64_t B = Base[IP->A].Int, A = POP().Int;
    FUSED_BRANCH(A != B);
  }
  CASE(LoadIfICmpLt) {
    FUSE_LOAD();
    int64_t B = Base[IP->A].Int, A = POP().Int;
    FUSED_BRANCH(A < B);
  }
  CASE(LoadIfICmpGe) {
    FUSE_LOAD();
    int64_t B = Base[IP->A].Int, A = POP().Int;
    FUSED_BRANCH(A >= B);
  }
  CASE(LoadIfICmpGt) {
    FUSE_LOAD();
    int64_t B = Base[IP->A].Int, A = POP().Int;
    FUSED_BRANCH(A > B);
  }
  CASE(LoadIfICmpLe) {
    FUSE_LOAD();
    int64_t B = Base[IP->A].Int, A = POP().Int;
    FUSED_BRANCH(A <= B);
  }
  CASE(LoadIfNull) {
    FUSE_LOAD();
    FUSED_BRANCH(Base[IP->A].Ref == NullRef);
  }
  CASE(LoadIfNonNull) {
    FUSE_LOAD();
    FUSED_BRANCH(Base[IP->A].Ref != NullRef);
  }
  CASE(IConstIAdd) {
    FUSE_ICONST();
    int64_t A = POP().Int;
    PUSH(Slot::ofInt(wrap32(A + IP->A)));
    NEXT2();
  }
  CASE(IConstISub) {
    FUSE_ICONST();
    int64_t A = POP().Int;
    PUSH(Slot::ofInt(wrap32(A - IP->A)));
    NEXT2();
  }
  CASE(IConstIMul) {
    FUSE_ICONST();
    int64_t A = POP().Int;
    PUSH(Slot::ofInt(wrap32(A * IP->A)));
    NEXT2();
  }
  CASE(IConstIDiv) {
    FUSE_ICONST();
    int64_t A = POP().Int;
    if (IP->A == 0)
      TRAP(DivisionByZero);
    PUSH(Slot::ofInt(wrap32(A / IP->A)));
    NEXT2();
  }
  CASE(IConstIRem) {
    FUSE_ICONST();
    int64_t A = POP().Int;
    if (IP->A == 0)
      TRAP(DivisionByZero);
    PUSH(Slot::ofInt(wrap32(A % IP->A)));
    NEXT2();
  }
  CASE(IConstIfICmpEq) {
    FUSE_ICONST();
    int64_t A = POP().Int;
    FUSED_BRANCH(A == IP->A);
  }
  CASE(IConstIfICmpNe) {
    FUSE_ICONST();
    int64_t A = POP().Int;
    FUSED_BRANCH(A != IP->A);
  }
  CASE(IConstIfICmpLt) {
    FUSE_ICONST();
    int64_t A = POP().Int;
    FUSED_BRANCH(A < IP->A);
  }
  CASE(IConstIfICmpGe) {
    FUSE_ICONST();
    int64_t A = POP().Int;
    FUSED_BRANCH(A >= IP->A);
  }
  CASE(IConstIfICmpGt) {
    FUSE_ICONST();
    int64_t A = POP().Int;
    FUSED_BRANCH(A > IP->A);
  }
  CASE(IConstIfICmpLe) {
    FUSE_ICONST();
    int64_t A = POP().Int;
    FUSED_BRANCH(A <= IP->A);
  }
  CASE(IConstAALoad) {
    FUSE_ICONST();
    int64_t Idx = IP->A;
    ObjRef Arr = POP().Ref;
    if (Arr == NullRef)
      TRAP(NullPointer);
    HeapObject &O = *Tbl[Arr];
    if (O.Kind != ObjectKind::RefArray)
      TRAP(BadFieldAccess);
    if (Idx < 0 || Idx >= O.arrayLength())
      TRAP(OutOfBounds);
    PUSH(Slot::ofRef(loadRefAcquire(O.refs() + Idx)));
    NEXT2();
  }
  CASE(IConstIALoad) {
    FUSE_ICONST();
    int64_t Idx = IP->A;
    ObjRef Arr = POP().Ref;
    if (Arr == NullRef)
      TRAP(NullPointer);
    HeapObject &O = *Tbl[Arr];
    if (O.Kind != ObjectKind::IntArray)
      TRAP(BadFieldAccess);
    if (Idx < 0 || Idx >= O.arrayLength())
      TRAP(OutOfBounds);
    PUSH(Slot::ofInt(loadIntRelaxed(O.ints() + Idx)));
    NEXT2();
  }
  CASE(IIncGoto) {
    FUSE_IINC();
    Slot &L = Base[IP->A];
    L = Slot::ofInt(wrap32(L.Int + IP->B));
    IP += 1 + IP[1].A;
    DISPATCH();
  }
  CASE(LoadLoad) {
    FUSE_LOAD();
    PUSH(Base[IP->A]);
    PUSH(Base[IP[1].A]);
    NEXT2();
  }
  CASE(LoadIConst) {
    FUSE_LOAD();
    PUSH(Base[IP->A]);
    PUSH(Slot::ofInt(IP[1].A));
    NEXT2();
  }
  CASE(StoreLoad) {
    FUSE_SECOND_HALF_OR(Base[IP->A] = POP());
    // Store first, then load: the halves may name the same local.
    Base[IP->A] = POP();
    PUSH(Base[IP[1].A]);
    NEXT2();
  }
  CASE(StoreStore) {
    FUSE_SECOND_HALF_OR(Base[IP->A] = POP());
    Base[IP->A] = POP();
    Base[IP[1].A] = POP();
    NEXT2();
  }
  CASE(IConstIConst) {
    FUSE_ICONST();
    PUSH(Slot::ofInt(IP->A));
    PUSH(Slot::ofInt(IP[1].A));
    NEXT2();
  }
  CASE(PopIConst) {
    FUSE_SECOND_HALF_OR(--SP);
    SP[-1] = Slot::ofInt(IP[1].A);
    NEXT2();
  }
  CASE(IRemStore) {
    if (Fuel == 0) { // unfused first half: full IRem, suspend on Store
      int64_t B = POP().Int, A = POP().Int;
      if (B == 0)
        TRAP(DivisionByZero);
      PUSH(Slot::ofInt(wrap32(A % B)));
      NEXT();
    }
    --Fuel;
    int64_t B = POP().Int, A = POP().Int;
    if (B == 0)
      TRAP(DivisionByZero);
    Base[IP[1].A] = Slot::ofInt(wrap32(A % B));
    NEXT2();
  }
  CASE(IMulPop) {
    if (Fuel == 0) { // unfused first half: full IMul, suspend on Pop
      int64_t B = POP().Int, A = POP().Int;
      PUSH(Slot::ofInt(wrap32(A * B)));
      NEXT();
    }
    --Fuel;
    SP -= 2; // product immediately discarded: net two pops
    NEXT2();
  }
  CASE(IAddIConst) {
    if (Fuel == 0) { // unfused first half: full IAdd, suspend on IConst
      int64_t B = POP().Int, A = POP().Int;
      PUSH(Slot::ofInt(wrap32(A + B)));
      NEXT();
    }
    --Fuel;
    int64_t B = POP().Int, A = POP().Int;
    PUSH(Slot::ofInt(wrap32(A + B)));
    PUSH(Slot::ofInt(IP[1].A));
    NEXT2();
  }
  CASE(IMulIConst) {
    if (Fuel == 0) { // unfused first half: full IMul, suspend on IConst
      int64_t B = POP().Int, A = POP().Int;
      PUSH(Slot::ofInt(wrap32(A * B)));
      NEXT();
    }
    --Fuel;
    int64_t B = POP().Int, A = POP().Int;
    PUSH(Slot::ofInt(wrap32(A * B)));
    PUSH(Slot::ofInt(IP[1].A));
    NEXT2();
  }

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
