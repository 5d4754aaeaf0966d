//===- analysis/BarrierAnalysis.cpp - Transfer functions + fixpoint -------===//
///
/// \file
/// Implements the abstract semantics of Sections 2.4 and 3.3, the fixpoint
/// driver, and the elision judgments. Structure:
///
///   BarrierAnalyzer::run          worklist fixpoint, then judgment pass
///   BarrierAnalyzer::transfer     per-instruction abstract semantics
///   BarrierAnalyzer::judge*       the elision judgments at stores
///   allNonTL / allNonTLCond       escape propagation (Section 2.4)
///   substForAllocation            rngSubst/transfer/replS at allocations
///
//===----------------------------------------------------------------------===//

#include "analysis/BarrierAnalysis.h"

#include "analysis/AnalysisState.h"
#include "analysis/NullOrSame.h"
#include "analysis/StateMerger.h"
#include "cfg/ControlFlowGraph.h"
#include "support/Stopwatch.h"

#include <deque>
#include <optional>
#include <queue>

using namespace satb;

namespace {

IntVal simpleIntMerge(const IntVal &A, const IntVal &B) {
  return A == B ? A : IntVal::top();
}

/// Computes, for every method of \p P, whether it is a *pure reader*: no
/// putfield/putstatic/aastore/iastore anywhere, no reference-typed return
/// (a returned reference could alias an argument, laundering a
/// thread-local object into GlobalRef), and only calls to other pure
/// readers. Fixpoint over the call graph; cycles start impure and can
/// never become pure through themselves, so iterating to stability is
/// sound and terminates (purity only ever turns off).
std::vector<bool> computePureReaders(const Program &P) {
  const uint32_t N = P.numMethods();
  std::vector<bool> Pure(N, true);
  for (uint32_t M = 0; M != N; ++M) {
    const Method &Body = P.method(M);
    if (Body.ReturnType && *Body.ReturnType == JType::Ref) {
      Pure[M] = false;
      continue;
    }
    for (const Instruction &Ins : Body.Instructions) {
      switch (Ins.Op) {
      case Opcode::PutField:
      case Opcode::PutStatic:
      case Opcode::AAStore:
      case Opcode::IAStore:
      case Opcode::ArrayFill:
      case Opcode::ArrayCopy:
        Pure[M] = false;
        break;
      default:
        break;
      }
      if (!Pure[M])
        break;
    }
  }
  // Propagate impurity through call sites to a fixed point.
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (uint32_t M = 0; M != N; ++M) {
      if (!Pure[M])
        continue;
      for (const Instruction &Ins : P.method(M).Instructions) {
        if (Ins.Op == Opcode::Invoke &&
            !Pure[static_cast<MethodId>(Ins.A)]) {
          Pure[M] = false;
          Changed = true;
          break;
        }
      }
    }
  }
  return Pure;
}

class BarrierAnalyzer {
public:
  BarrierAnalyzer(const Program &P, const Method &M,
                  const AnalysisConfig &Cfg)
      : P(P), M(M), Cfg(Cfg), Refs(M, Cfg.TwoNamesPerSite), CFG(M),
        Vars(Cfg.MaxVars) {
    if (Cfg.UseCalleeSummaries && Cfg.Mode != AnalysisMode::None)
      PureReaders = computePureReaders(P);
    // Safepoint poll sites, computed exactly as the fast-interpreter
    // translation places them (FastTranslate: backward-branch targets). A
    // minor GC can run at a poll or inside an allocation/call, so the
    // Young set dies at each. Computed unconditionally: when safepoints
    // are not inserted this only costs precision, never soundness.
    PollKill.assign(M.Instructions.size(), false);
    for (uint32_t PC = 0; PC != M.Instructions.size(); ++PC) {
      const Instruction &Ins = M.Instructions[PC];
      if (isBranch(Ins.Op) && static_cast<uint32_t>(Ins.A) <= PC)
        PollKill[static_cast<uint32_t>(Ins.A)] = true;
    }
  }

  AnalysisResult run();

private:
  bool modeA() const { return Cfg.Mode == AnalysisMode::FieldAndArray; }
  bool nosOn() const { return Cfg.EnableNullOrSame; }

  /// In FieldOnly mode integer values are not tracked (Figure 2's F
  /// configuration); everything integral is Top.
  IntVal mkInt(IntVal V) const { return modeA() ? std::move(V) : IntVal::top(); }

  AbstractValue nullRef() const {
    return AbstractValue::nullRef(Refs.numRefs());
  }
  AbstractValue globalRef() const {
    return AbstractValue::singleRef(Refs.numRefs(), RefUniverse::GlobalRef);
  }
  AbstractValue singleRef(RefId R) const {
    return AbstractValue::singleRef(Refs.numRefs(), R);
  }

  void pushRef(AnalysisState &S, AbstractValue V) {
    if (nosOn())
      nos::applyFacts(S, V);
    S.push(std::move(V));
  }
  void pushInt(AnalysisState &S, IntVal V) {
    S.push(AbstractValue::intVal(mkInt(std::move(V))));
  }

  /// lookup(sigma, r, NL, f) of Section 2.4: {GlobalRef} (or Top for an
  /// int field) when r is non-thread-local, else sigma(r, f).
  AbstractValue lookupField(const AnalysisState &S, RefId R, uint32_t Field,
                            JType Ty) const {
    if (S.NL.test(R))
      return Ty == JType::Ref ? globalRef()
                              : AbstractValue::intVal(IntVal::top());
    if (const AbstractValue *E = S.storeEntry(R, Field))
      return *E;
    // Unpopulated entry: the object cannot actually have this field (the
    // access traps at runtime), so any value is sound.
    return Ty == JType::Ref ? nullRef() : AbstractValue::intVal(IntVal::top());
  }

  /// Joins lookups over every member of \p Obj.
  AbstractValue lookupJoin(const AnalysisState &S, const AbstractValue &Obj,
                           uint32_t Field, JType Ty) const {
    AbstractValue Result = AbstractValue::bottom();
    if (Obj.isRefs())
      Obj.refSet().forEach([&](size_t Ot) {
        Result.mergeFrom(lookupField(S, static_cast<RefId>(Ot), Field, Ty),
                         simpleIntMerge);
      });
    if (Result.isBottom())
      Result = Ty == JType::Ref ? nullRef()
                                : AbstractValue::intVal(IntVal::top());
    return Result;
  }

  /// AllNonTL: extends NL with \p RS and everything transitively reachable
  /// from it through sigma.
  void allNonTL(AnalysisState &S, const BitSet &RS) const {
    std::vector<RefId> Work;
    RS.forEach([&](size_t R) {
      if (!S.NL.test(R)) {
        S.NL.set(R);
        Work.push_back(static_cast<RefId>(R));
      }
    });
    while (!Work.empty()) {
      RefId R = Work.back();
      Work.pop_back();
      for (auto It = S.Store.lower_bound(StoreKey{R, 0});
           It != S.Store.end() && It->first.Ref == R; ++It) {
        if (!It->second.isRefs())
          continue;
        It->second.refSet().forEach([&](size_t R2) {
          if (!S.NL.test(R2)) {
            S.NL.set(R2);
            Work.push_back(static_cast<RefId>(R2));
          }
        });
      }
    }
  }

  /// AllNonTLCond: if any base in \p Obj may be non-thread-local, the
  /// stored value (and its reachable closure) escapes.
  void allNonTLCond(AnalysisState &S, const AbstractValue &Obj,
                    const AbstractValue &Val) const {
    if (!Val.isRefs())
      return;
    bool MayEscape = !Obj.isRefs() || Obj.refSet().intersects(S.NL);
    if (MayEscape)
      allNonTL(S, Val.refSet());
  }

  void substRefInValues(AnalysisState &S, RefId A, RefId B) const {
    auto Subst = [&](AbstractValue &V) {
      if (V.isRefs() && V.refSet().test(A)) {
        V.refSet().reset(A);
        V.refSet().set(B);
      }
    };
    for (AbstractValue &V : S.Locals)
      Subst(V);
    for (AbstractValue &V : S.Stack)
      Subst(V);
    for (auto &KV : S.Store)
      Subst(KV.second);
  }

  /// The newinstance/newarray bookkeeping of Section 2.4 (rngSubst +
  /// transfer + replS: merge R_id/A's attributes into R_id/B so R_id/A is
  /// free to denote the new allocation) fused with the installation of the
  /// fresh object's zeroed state. Fusing the two steps lets the steady
  /// state — every fixpoint visit of an allocation after the first, where
  /// R_A's store run already holds exactly the fresh key set — overwrite
  /// values in place instead of erasing and re-inserting, so the flat
  /// store vector never shifts.
  ///
  /// \p ClassFields is the allocated class's field list for NewInstance
  /// (null for arrays); \p FreshElems installs the f_elems entry of a
  /// fresh reference array; \p NewLen / \p NewNR are the mode-A length and
  /// null range of a fresh array (null when untracked).
  void reallocate(AnalysisState &S, uint32_t Site,
                  const std::vector<FieldId> *ClassFields, bool FreshElems,
                  const IntVal *NewLen, const IntRange *NewNR) {
    RefId A = Refs.siteA(Site), B = Refs.siteB(Site);

    const size_t NumFresh =
        ClassFields ? ClassFields->size() : (FreshElems ? 1 : 0);
    auto FreshKeyAt = [&](size_t I) -> uint32_t {
      return ClassFields ? (*ClassFields)[I] : AnalysisState::ElemsFieldBase;
    };
    auto FreshValueAt = [&](size_t I) -> AbstractValue {
      if (!ClassFields)
        return nullRef(); // f_elems of a fresh reference array
      return P.fieldDecl((*ClassFields)[I]).Type == JType::Ref
                 ? nullRef()
                 : AbstractValue::intVal(mkInt(IntVal::constant(0)));
    };
    // In-place form of `Slot = FreshValueAt(I)` that reuses Slot's
    // existing RefSet allocation when it is already a reference value
    // (the common steady-state case).
    auto AssignFreshTo = [&](AbstractValue &Slot, size_t I) {
      bool WantNullRef =
          !ClassFields || P.fieldDecl((*ClassFields)[I]).Type == JType::Ref;
      if (WantNullRef && Slot.isRefs()) {
        Slot.refSet().clear();
        Slot.clearSrcLocal();
        Slot.clearNosTags();
        return;
      }
      Slot = FreshValueAt(I);
    };

    if (A == B) {
      // One-name ablation mode: no substitution; the site's single summary
      // name takes weak (joining) initialization.
      for (size_t I = 0; I != NumFresh; ++I)
        setFreshEntry(S, A, FreshKeyAt(I), FreshValueAt(I));
      if (NewLen) {
        auto It = S.Len.find(A);
        if (It == S.Len.end())
          S.Len.emplace(A, *NewLen);
        else
          It->second = simpleIntMerge(It->second, *NewLen);
      }
      if (NewNR) {
        auto It = S.NR.find(A);
        if (It == S.NR.end())
          S.NR.emplace(A, *NewNR);
        else if (It->second != *NewNR)
          It->second = IntRange::empty();
      }
      return;
    }

    substRefInValues(S, A, B);
    if (S.NL.test(A)) {
      S.NL.reset(A);
      S.NL.set(B);
    }

    // sigma. A's entries form one contiguous run of the flat store, with
    // B's run (B == A + 1) immediately after it, so merging into B never
    // shifts A's run: its indices stay valid across the B inserts.
    const size_t FirstIdx =
        static_cast<size_t>(S.Store.lower_bound(StoreKey{A, 0}) -
                            S.Store.begin());
    size_t RunLen = 0;
    bool SameKeys = true;
    for (auto It = S.Store.begin() + FirstIdx;
         It != S.Store.end() && It->first.Ref == A; ++It, ++RunLen)
      SameKeys &= RunLen < NumFresh && It->first.Field == FreshKeyAt(RunLen);
    SameKeys &= RunLen == NumFresh;

    // transfer(sigma, R_A, R_B): join A's current values into B's. The
    // entry reference is re-derived by index each iteration because an
    // insert into B's run may reallocate the store vector; A's slots are
    // read (not moved from) so the steady-state path below can reuse
    // their allocations.
    for (size_t I = 0; I != RunLen; ++I) {
      StoreKey NewKey{B, (S.Store.begin() + FirstIdx + I)->first.Field};
      auto It = S.Store.find(NewKey);
      if (It == S.Store.end()) {
        AbstractValue Copy = (S.Store.begin() + FirstIdx + I)->second;
        S.Store.emplace(NewKey, std::move(Copy));
      } else {
        It->second.mergeFrom((S.Store.begin() + FirstIdx + I)->second,
                             simpleIntMerge);
      }
    }

    if (SameKeys) {
      // Steady state: the run already holds exactly the fresh keys;
      // overwrite the values in place, reusing their allocations.
      for (size_t I = 0; I != NumFresh; ++I)
        AssignFreshTo((S.Store.begin() + FirstIdx + I)->second, I);
    } else {
      // First visit of this site (or extra fields were written through
      // R_A): reshape the run the slow way.
      auto RunFirst = S.Store.begin() + FirstIdx;
      S.Store.erase(RunFirst, RunFirst + RunLen);
      for (size_t I = 0; I != NumFresh; ++I)
        S.Store[StoreKey{A, FreshKeyAt(I)}] = FreshValueAt(I);
    }

    // Len / NR: merge A's entry into B's, then replace A's value in place
    // with the fresh array's (when tracked) rather than erase + reinsert.
    if (auto It = S.Len.find(A); It != S.Len.end()) {
      IntVal LA = std::move(It->second);
      auto BIt = S.Len.find(B);
      if (BIt == S.Len.end())
        S.Len.emplace(B, std::move(LA)); // invalidates It
      else
        BIt->second = simpleIntMerge(BIt->second, LA);
      if (NewLen)
        S.Len.find(A)->second = *NewLen;
      else
        S.Len.erase(A);
    } else if (NewLen) {
      S.Len[A] = *NewLen;
    }
    if (auto It = S.NR.find(A); It != S.NR.end()) {
      IntRange RA = std::move(It->second);
      auto BIt = S.NR.find(B);
      if (BIt == S.NR.end())
        S.NR.emplace(B, std::move(RA)); // invalidates It
      else if (BIt->second != RA)
        BIt->second = IntRange::empty();
      if (NewNR)
        S.NR.find(A)->second = *NewNR;
      else
        S.NR.erase(A);
    } else if (NewNR) {
      S.NR[A] = *NewNR;
    }
  }

  /// Installs the freshly allocated object's zeroed field state. With the
  /// one-name ablation the site's single summary name must join (weak
  /// initialization) rather than overwrite.
  void setFreshEntry(AnalysisState &S, RefId R, uint32_t Field,
                     AbstractValue Init) const {
    if (Cfg.TwoNamesPerSite) {
      S.Store[StoreKey{R, Field}] = std::move(Init);
      return;
    }
    auto It = S.Store.find(StoreKey{R, Field});
    if (It == S.Store.end())
      S.Store.emplace(StoreKey{R, Field}, std::move(Init));
    else
      It->second.mergeFrom(Init, simpleIntMerge);
  }

  void transfer(AnalysisState &S, uint32_t InstrIdx);

  void judgePutField(const AnalysisState &S, const AbstractValue &Obj,
                     const AbstractValue &Val, FieldId F, uint32_t InstrIdx);
  void judgeAAStore(const AnalysisState &S, const AbstractValue &Arr,
                    const AbstractValue &Ind, uint32_t InstrIdx);
  void judgeRangeStore(const AnalysisState &S, const AbstractValue &Arr,
                       const AbstractValue &Start, const AbstractValue &Cnt,
                       uint32_t InstrIdx);
  bool indexInNullRange(const AnalysisState &S, RefId At,
                        const IntVal &Ind) const;
  bool rangeInNullRange(const AnalysisState &S, RefId At, const IntVal &Start,
                        const IntVal &Cnt) const;
  /// Shared abstract effect of a bulk store: escape, the weak f_elems
  /// update, and the null-range contraction over [Start .. Start+Cnt).
  void rangeStoreEffect(AnalysisState &S, const AbstractValue &Arr,
                        AbstractValue Val, const AbstractValue &Start,
                        const AbstractValue &Cnt);

  AnalysisState initialState();

  /// Renders \p S (a block's fixpoint in-state) for CaptureStates dumps,
  /// in the paper's notation: rho, NL, sigma, Len, NR.
  std::string dumpState(const AnalysisState &S) const;

  /// Processes one block in place from \p S (the caller's scratch copy of
  /// the block's in-state), emitting one out state per successor slot via
  /// \p EmitOut(slot, state, lastUse). When lastUse is true the emitted
  /// state is dead afterwards and may be moved from.
  template <typename FnT>
  void processBlock(uint32_t BI, AnalysisState &S, FnT EmitOut);

  const Program &P;
  const Method &M;
  const AnalysisConfig &Cfg;
  RefUniverse Refs;
  ControlFlowGraph CFG;
  std::vector<bool> PureReaders;
  ConstUnknownRegistry ConstReg;
  VarAllocator Vars;
  /// Instruction indices where a safepoint poll may run a minor GC
  /// (backward-branch targets; always block leaders).
  std::vector<bool> PollKill;
  AnalysisResult Result;
  /// Reused across block visits so the per-visit in-state copy lands in
  /// already-allocated vectors instead of fresh heap blocks.
  AnalysisState Scratch;
  bool Judging = false;
};

AnalysisState BarrierAnalyzer::initialState() {
  AnalysisState S;
  S.Locals.resize(M.NumLocals);
  S.NL = BitSet(Refs.numRefs());
  // No reference is young on entry (the caller may have crossed any
  // number of GC points since its allocations).
  S.Young = BitSet(Refs.numRefs());
  // NL is initialized to {GlobalRef}; all references reachable via
  // GlobalRef are collapsed into GlobalRef (Section 2.3), which lookupField
  // realizes by answering {GlobalRef} for NL members.
  S.NL.set(RefUniverse::GlobalRef);

  for (uint32_t A = 0, E = M.numArgs(); A != E; ++A) {
    if (M.ArgTypes[A] == JType::Int) {
      // Section 3.4: a constant unknown per integer parameter.
      S.Locals[A] = AbstractValue::intVal(
          mkInt(IntVal::constUnknown(ConstReg.create(/*NonNegative=*/false))));
      continue;
    }
    RefId R = Refs.argRef(A);
    S.Locals[A] = singleRef(R);
    if (M.IsConstructor && A == 0) {
      // The constructor's `this` is unique and thread-local on entry, with
      // the fields declared by its class known null (Section 2.3).
      if (M.Owner != InvalidId)
        for (FieldId F : P.classDecl(M.Owner).Fields)
          S.Store[StoreKey{R, F}] =
              P.fieldDecl(F).Type == JType::Ref
                  ? nullRef()
                  : AbstractValue::intVal(mkInt(IntVal::constant(0)));
      continue;
    }
    // Other reference arguments are non-unique and non-thread-local
    // (Section 2.1); they may still carry a symbolic array length
    // (Section 3.4: Len(R_arg(i)) = c_i, a fresh non-negative unknown).
    S.NL.set(R);
    if (modeA())
      S.Len.emplace(R, IntVal::constUnknown(ConstReg.create(true)));
  }
  return S;
}

void BarrierAnalyzer::judgePutField(const AnalysisState &S,
                                    const AbstractValue &Obj,
                                    const AbstractValue &Val, FieldId F,
                                    uint32_t InstrIdx) {
  BarrierDecision &D = Result.Decisions[InstrIdx];
  if (Obj.isBottom()) {
    D.Elide = true;
    D.Reason = ElisionReason::DeadCode;
    return;
  }
  if (!Obj.isRefs())
    return;

  // Generational judgment: every possible target is proven young, so the
  // store cannot create an old-to-young edge.
  bool AllYoung = !Obj.refSet().empty();
  Obj.refSet().forEach([&](size_t Ot) {
    if (!S.Young.test(Ot))
      AllYoung = false;
  });
  D.TargetYoung = AllYoung;

  // Section 2.4: forall ot in obj: ot not in NL and sigma(ot, f) = {}.
  bool AllPreNull = true;
  Obj.refSet().forEach([&](size_t Ot) {
    RefId R = static_cast<RefId>(Ot);
    if (S.NL.test(R)) {
      AllPreNull = false;
      return;
    }
    const AbstractValue *E = S.storeEntry(R, F);
    if (!E || !E->isDefinitelyNull())
      AllPreNull = false;
  });
  if (AllPreNull) {
    D.Elide = true;
    D.Reason = ElisionReason::PreNullField;
    return;
  }

  // Section 4.3 extension: the store writes null-or-same.
  if (!nosOn())
    return;
  uint32_t Base = Obj.srcLocal();
  if (Base == InvalidId)
    return;
  bool TagOk = Val.findNosTag(Base, F) != nullptr;
  bool FactOk = S.hasFact(Base, F);
  if (!TagOk && !FactOk)
    return;
  if (!Cfg.NosAssumeNoRaces) {
    // Another mutator overwriting the field between our load and store
    // invalidates the reasoning, so require thread locality.
    bool ThreadLocal = true;
    Obj.refSet().forEach([&](size_t Ot) {
      if (S.NL.test(static_cast<RefId>(Ot)))
        ThreadLocal = false;
    });
    if (!ThreadLocal)
      return;
  }
  D.Elide = true;
  D.Reason = ElisionReason::NullOrSame;
}

bool BarrierAnalyzer::indexInNullRange(const AnalysisState &S, RefId At,
                                       const IntVal &Ind) const {
  const IntRange R = S.nullRangeOf(At);
  // A lower bound of exactly 0 is discharged by the runtime bounds check:
  // a negative index traps before writing (Section 3.6).
  auto LowerOk = [&](const IntVal &Lo) {
    return Lo == IntVal::constant(0) ||
           provablyNonNegative(Ind - Lo, ConstReg);
  };
  switch (R.kind()) {
  case IntRange::Kind::Empty:
    return false;
  case IntRange::Kind::From:
    // [lo..]: need lo <= Ind; the bounds check discharges Ind < length.
    return LowerOk(R.lo());
  case IntRange::Kind::To:
    // [..hi]: need Ind <= hi; a negative Ind traps before writing.
    return !R.hi().isTop() && provablyNonNegative(R.hi() - Ind, ConstReg);
  case IntRange::Kind::Full: {
    if (!LowerOk(R.lo()))
      return false;
    const IntVal &Hi = R.hi();
    if (Hi.isTop())
      return false;
    if (provablyNonNegative(Hi - Ind, ConstReg))
      return true;
    // When the range's upper bound is the array's last valid index, the
    // runtime bounds check discharges the upper side.
    IntVal Len = S.lenOf(At);
    return !Len.isTop() && Hi.addConstant(1) == Len;
  }
  }
  return false;
}

void BarrierAnalyzer::judgeAAStore(const AnalysisState &S,
                                   const AbstractValue &Arr,
                                   const AbstractValue &Ind,
                                   uint32_t InstrIdx) {
  BarrierDecision &D = Result.Decisions[InstrIdx];
  if (Arr.isBottom()) {
    D.Elide = true;
    D.Reason = ElisionReason::DeadCode;
    return;
  }
  // Generational judgment (independent of mode A: no index facts needed).
  if (Arr.isRefs() && !Arr.refSet().empty()) {
    bool AllYoung = true;
    Arr.refSet().forEach([&](size_t At) {
      if (!S.Young.test(At))
        AllYoung = false;
    });
    D.TargetYoung = AllYoung;
  }
  if (!modeA() || !Arr.isRefs() || !Ind.isInt() || Ind.intValue().isTop())
    return;
  bool Ok = true;
  Arr.refSet().forEach([&](size_t At) {
    RefId R = static_cast<RefId>(At);
    if (S.NL.test(R) || !indexInNullRange(S, R, Ind.intValue()))
      Ok = false;
  });
  if (Ok) {
    D.Elide = true;
    D.Reason = ElisionReason::PreNullArrayElement;
  }
}

bool BarrierAnalyzer::rangeInNullRange(const AnalysisState &S, RefId At,
                                       const IntVal &Start,
                                       const IntVal &Cnt) const {
  const IntRange R = S.nullRangeOf(At);
  // The whole destination [Start .. Start+Cnt) must lie inside the null
  // range. As with the per-slot judgment, the runtime bounds check
  // discharges what it already enforces: Start < 0 traps before any slot
  // is written, and Start+Cnt <= length likewise.
  const IntVal Last = Start + Cnt.addConstant(-1);
  auto LowerOk = [&](const IntVal &Lo) {
    return Lo == IntVal::constant(0) ||
           provablyNonNegative(Start - Lo, ConstReg);
  };
  switch (R.kind()) {
  case IntRange::Kind::Empty:
    return false;
  case IntRange::Kind::From:
    // [lo..]: need lo <= Start; the bounds check discharges the top end.
    return LowerOk(R.lo());
  case IntRange::Kind::To:
    // [..hi]: need Start+Cnt-1 <= hi; a negative start traps first.
    return !R.hi().isTop() && provablyNonNegative(R.hi() - Last, ConstReg);
  case IntRange::Kind::Full: {
    if (!LowerOk(R.lo()))
      return false;
    const IntVal &Hi = R.hi();
    if (Hi.isTop())
      return false;
    if (provablyNonNegative(Hi - Last, ConstReg))
      return true;
    // When the range's upper bound is the array's last valid index, the
    // runtime bounds check discharges the upper side.
    IntVal Len = S.lenOf(At);
    return !Len.isTop() && Hi.addConstant(1) == Len;
  }
  }
  return false;
}

void BarrierAnalyzer::judgeRangeStore(const AnalysisState &S,
                                      const AbstractValue &Arr,
                                      const AbstractValue &Start,
                                      const AbstractValue &Cnt,
                                      uint32_t InstrIdx) {
  BarrierDecision &D = Result.Decisions[InstrIdx];
  if (Arr.isBottom()) {
    D.Elide = true;
    D.Reason = ElisionReason::DeadCode;
    return;
  }
  // Generational judgment: identical to the per-slot one — the whole range
  // lands in one object, so one young destination proof covers it.
  if (Arr.isRefs() && !Arr.refSet().empty()) {
    bool AllYoung = true;
    Arr.refSet().forEach([&](size_t At) {
      if (!S.Young.test(At))
        AllYoung = false;
    });
    D.TargetYoung = AllYoung;
  }
  if (!modeA() || !Arr.isRefs() || !Start.isInt() ||
      Start.intValue().isTop() || !Cnt.isInt() || Cnt.intValue().isTop())
    return;
  bool Ok = true;
  Arr.refSet().forEach([&](size_t At) {
    RefId R = static_cast<RefId>(At);
    if (S.NL.test(R) ||
        !rangeInNullRange(S, R, Start.intValue(), Cnt.intValue()))
      Ok = false;
  });
  if (Ok) {
    D.Elide = true;
    D.Reason = ElisionReason::PreNullArrayElement;
  }
}

std::string BarrierAnalyzer::dumpState(const AnalysisState &S) const {
  std::string Out;
  auto Value = [&](const AbstractValue &V) -> std::string {
    switch (V.kind()) {
    case AbstractValue::Kind::Bottom:
      return "_|_";
    case AbstractValue::Kind::Conflict:
      return "conflict";
    case AbstractValue::Kind::Int:
      return V.intValue().str();
    case AbstractValue::Kind::Refs: {
      if (V.isDefinitelyNull())
        return "{null}";
      std::string R = "{";
      bool First = true;
      V.refSet().forEach([&](size_t Ref) {
        if (!First)
          R += ", ";
        First = false;
        R += Refs.refName(static_cast<RefId>(Ref));
      });
      return R + "}";
    }
    }
    return "?";
  };
  auto FieldName = [&](uint32_t F) -> std::string {
    if (F >= AnalysisState::ElemsFieldBase)
      return "elems";
    return P.fieldDecl(static_cast<FieldId>(F)).Name;
  };

  Out += "  rho: ";
  for (size_t L = 0; L != S.Locals.size(); ++L) {
    if (S.Locals[L].isBottom())
      continue;
    Out += "local" + std::to_string(L) + "=" + Value(S.Locals[L]) + " ";
  }
  Out += "\n  NL: {";
  bool First = true;
  S.NL.forEach([&](size_t R) {
    if (!First)
      Out += ", ";
    First = false;
    Out += Refs.refName(static_cast<RefId>(R));
  });
  Out += "}\n  sigma: ";
  for (const auto &[Key, Val] : S.Store)
    Out += "(" + Refs.refName(Key.Ref) + "." + FieldName(Key.Field) +
           ")=" + Value(Val) + " ";
  if (!S.Len.empty()) {
    Out += "\n  Len: ";
    for (const auto &[R, L] : S.Len)
      Out += Refs.refName(R) + "=" + L.str() + " ";
  }
  if (!S.NR.empty()) {
    Out += "\n  NR: ";
    for (const auto &[R, NR] : S.NR)
      Out += Refs.refName(R) + "=" + NR.str() + " ";
  }
  return Out;
}

void BarrierAnalyzer::transfer(AnalysisState &S, uint32_t InstrIdx) {
  const Instruction &Ins = M.Instructions[InstrIdx];
  switch (Ins.Op) {
  case Opcode::IConst:
    pushInt(S, IntVal::constant(Ins.A));
    return;
  case Opcode::AConstNull:
    pushRef(S, nullRef());
    return;
  case Opcode::ILoad:
    S.push(S.Locals[static_cast<uint32_t>(Ins.A)]);
    return;
  case Opcode::ALoad: {
    AbstractValue V = S.Locals[static_cast<uint32_t>(Ins.A)];
    V.setSrcLocal(static_cast<uint32_t>(Ins.A));
    pushRef(S, std::move(V));
    return;
  }
  case Opcode::IStore: {
    AbstractValue V = S.popValue();
    V.clearSrcLocal();
    S.Locals[static_cast<uint32_t>(Ins.A)] = std::move(V);
    return;
  }
  case Opcode::AStore: {
    AbstractValue V = S.popValue();
    uint32_t L = static_cast<uint32_t>(Ins.A);
    if (nosOn()) {
      // The binding of local L changes: tags anchored at L go stale,
      // including any carried by the stored value itself.
      nos::onLocalReassigned(S, L);
      V.dropNosTagsForBase(L);
    }
    V.clearSrcLocal();
    S.Locals[L] = std::move(V);
    return;
  }
  case Opcode::IInc: {
    AbstractValue &V = S.Locals[static_cast<uint32_t>(Ins.A)];
    if (V.isInt())
      V = AbstractValue::intVal(mkInt(V.intValue().addConstant(Ins.B)));
    else
      V = AbstractValue::intVal(IntVal::top());
    return;
  }
  case Opcode::Dup:
    S.push(S.top());
    return;
  case Opcode::Pop:
    S.popValue();
    return;
  case Opcode::Swap: {
    AbstractValue A = S.popValue();
    AbstractValue B = S.popValue();
    S.push(std::move(A));
    S.push(std::move(B));
    return;
  }
  case Opcode::IAdd:
  case Opcode::ISub:
  case Opcode::IMul:
  case Opcode::IDiv:
  case Opcode::IRem: {
    AbstractValue Rhs = S.popValue();
    AbstractValue Lhs = S.popValue();
    IntVal Out = IntVal::top();
    if (Lhs.isInt() && Rhs.isInt()) {
      const IntVal &A = Lhs.intValue(), &B = Rhs.intValue();
      switch (Ins.Op) {
      case Opcode::IAdd:
        Out = A + B;
        break;
      case Opcode::ISub:
        Out = A - B;
        break;
      case Opcode::IMul:
        Out = IntVal::mul(A, B);
        break;
      default: // IDiv/IRem: no symbolic division
        break;
      }
    }
    pushInt(S, std::move(Out));
    return;
  }
  case Opcode::INeg: {
    AbstractValue V = S.popValue();
    pushInt(S, V.isInt() ? V.intValue().negate() : IntVal::top());
    return;
  }
  case Opcode::GetField: {
    FieldId F = static_cast<FieldId>(Ins.A);
    JType Ty = P.fieldDecl(F).Type;
    AbstractValue Obj = S.popValue();
    AbstractValue Out = lookupJoin(S, Obj, F, Ty);
    if (Ty == JType::Int) {
      pushInt(S, Out.isInt() ? Out.intValue() : IntVal::top());
      return;
    }
    if (nosOn() && Obj.srcLocal() != InvalidId)
      Out.addNosTag(NosTag{Obj.srcLocal(), F, /*IsEq=*/true});
    pushRef(S, std::move(Out));
    return;
  }
  case Opcode::PutField: {
    FieldId F = static_cast<FieldId>(Ins.A);
    JType Ty = P.fieldDecl(F).Type;
    AbstractValue Val = S.popValue();
    AbstractValue Obj = S.popValue();
    if (Judging && Ty == JType::Ref)
      judgePutField(S, Obj, Val, F, InstrIdx);
    if (Ty == JType::Ref)
      allNonTLCond(S, Obj, Val);
    if (Obj.isRefs()) {
      const BitSet &Targets = Obj.refSet();
      bool Strong = Targets.count() == 1 &&
                    Refs.uniqueInContext(
                        static_cast<RefId>(Targets.firstSetBit()),
                        M.IsConstructor);
      Val.clearSrcLocal();
      Val.clearNosTags();
      if (Strong) {
        S.Store[StoreKey{static_cast<RefId>(Targets.firstSetBit()), F}] = Val;
      } else {
        Targets.forEach([&](size_t Ot) {
          StoreKey Key{static_cast<RefId>(Ot), F};
          auto It = S.Store.find(Key);
          if (It == S.Store.end())
            S.Store.emplace(Key, Val);
          else
            It->second.mergeFrom(Val, simpleIntMerge);
        });
      }
    }
    if (nosOn() && Ty == JType::Ref)
      nos::onFieldWritten(S, F);
    return;
  }
  case Opcode::GetStatic: {
    JType Ty = P.staticDecl(static_cast<StaticFieldId>(Ins.A)).Type;
    if (Ty == JType::Ref)
      pushRef(S, globalRef());
    else
      pushInt(S, IntVal::top());
    return;
  }
  case Opcode::PutStatic: {
    AbstractValue Val = S.popValue();
    // Reference values stored into static variables escape, along with
    // everything reachable from them (Section 2.4).
    if (Val.isRefs())
      allNonTL(S, Val.refSet());
    return;
  }
  case Opcode::NewInstance: {
    uint32_t Site = Refs.siteOfInstr(InstrIdx);
    assert(Site != InvalidId && "allocation without a site");
    ClassId C = static_cast<ClassId>(Ins.A);
    reallocate(S, Site, &P.classDecl(C).Fields, /*FreshElems=*/false,
               /*NewLen=*/nullptr, /*NewNR=*/nullptr);
    // Generational: allocation is a potential minor-GC point (the nursery
    // slow path collects), so every prior young proof dies; the fresh
    // object itself is young.
    S.Young.clear();
    S.Young.set(Refs.siteA(Site));
    pushRef(S, singleRef(Refs.siteA(Site)));
    return;
  }
  case Opcode::NewRefArray:
  case Opcode::NewIntArray: {
    AbstractValue N = S.popValue();
    uint32_t Site = Refs.siteOfInstr(InstrIdx);
    assert(Site != InvalidId && "allocation without a site");
    const bool IsRef = Ins.Op == Opcode::NewRefArray;
    std::optional<IntVal> NewLen;
    std::optional<IntRange> NewNR;
    if (modeA()) {
      NewLen = N.isInt() ? N.intValue() : IntVal::top();
      if (IsRef)
        // NR[R_A] <- [0 .. n-1] (Section 3.3); unusable when the length
        // is unknown.
        NewNR = NewLen->isTop()
                    ? IntRange::empty()
                    : IntRange::full(IntVal::constant(0),
                                     NewLen->addConstant(-1));
    }
    reallocate(S, Site, /*ClassFields=*/nullptr, /*FreshElems=*/IsRef,
               NewLen ? &*NewLen : nullptr, NewNR ? &*NewNR : nullptr);
    S.Young.clear();
    S.Young.set(Refs.siteA(Site));
    pushRef(S, singleRef(Refs.siteA(Site)));
    return;
  }
  case Opcode::AALoad: {
    S.popValue(); // index
    AbstractValue Arr = S.popValue();
    pushRef(S,
            lookupJoin(S, Arr, AnalysisState::ElemsFieldBase, JType::Ref));
    return;
  }
  case Opcode::AAStore: {
    AbstractValue Val = S.popValue();
    AbstractValue Ind = S.popValue();
    AbstractValue Arr = S.popValue();
    if (Judging)
      judgeAAStore(S, Arr, Ind, InstrIdx);
    allNonTLCond(S, Arr, Val);
    if (Arr.isRefs()) {
      Val.clearSrcLocal();
      Val.clearNosTags();
      // Arrays always take weak updates (Section 2.4).
      Arr.refSet().forEach([&](size_t At) {
        StoreKey Key{static_cast<RefId>(At), AnalysisState::ElemsFieldBase};
        auto It = S.Store.find(Key);
        if (It == S.Store.end())
          S.Store.emplace(Key, Val);
        else
          It->second.mergeFrom(Val, simpleIntMerge);
      });
      if (modeA()) {
        IntVal IndV = Ind.isInt() ? Ind.intValue() : IntVal::top();
        Arr.refSet().forEach([&](size_t At) {
          auto It = S.NR.find(static_cast<RefId>(At));
          if (It == S.NR.end())
            return;
          It->second = Cfg.EnableContract ? It->second.contract(IndV)
                                          : IntRange::empty();
        });
      }
    }
    return;
  }
  case Opcode::ArrayFill: {
    AbstractValue Cnt = S.popValue();
    AbstractValue Start = S.popValue();
    AbstractValue Val = S.popValue();
    AbstractValue Arr = S.popValue();
    if (Judging)
      judgeRangeStore(S, Arr, Start, Cnt, InstrIdx);
    rangeStoreEffect(S, Arr, std::move(Val), Start, Cnt);
    return;
  }
  case Opcode::ArrayCopy: {
    AbstractValue Cnt = S.popValue();
    AbstractValue DstPos = S.popValue();
    AbstractValue Dst = S.popValue();
    S.popValue(); // source position: no abstract effect
    AbstractValue Src = S.popValue();
    if (Judging)
      judgeRangeStore(S, Dst, DstPos, Cnt, InstrIdx);
    // The stored values are whatever the source's elements may hold.
    AbstractValue Vals =
        lookupJoin(S, Src, AnalysisState::ElemsFieldBase, JType::Ref);
    rangeStoreEffect(S, Dst, std::move(Vals), DstPos, Cnt);
    return;
  }
  case Opcode::IALoad:
    S.popValue();
    S.popValue();
    pushInt(S, IntVal::top());
    return;
  case Opcode::IAStore:
    S.popValue();
    S.popValue();
    S.popValue();
    return;
  case Opcode::ArrayLength: {
    AbstractValue Arr = S.popValue();
    IntVal Out = IntVal::top();
    if (modeA() && Arr.isRefs() && !Arr.refSet().empty()) {
      bool First = true;
      Arr.refSet().forEach([&](size_t At) {
        IntVal L = S.lenOf(static_cast<RefId>(At));
        if (First) {
          Out = L;
          First = false;
        } else {
          Out = simpleIntMerge(Out, L);
        }
      });
    }
    pushInt(S, std::move(Out));
    return;
  }
  case Opcode::Invoke: {
    MethodId CalleeId = static_cast<MethodId>(Ins.A);
    const Method &Callee = P.method(CalleeId);
    // A pure-reader callee (see computePureReaders) cannot publish its
    // arguments, write any field, or hand back an alias, so the call is a
    // no-op for escape, sigma, and null-or-same state.
    bool Pure = CalleeId < PureReaders.size() && PureReaders[CalleeId];
    // Otherwise, passing a reference as an argument may cause it to
    // escape: nAllNonTL over the argument vector (Section 2.4).
    for (uint32_t AI = Callee.numArgs(); AI-- > 0;) {
      AbstractValue Arg = S.popValue();
      if (!Pure && Arg.isRefs())
        allNonTL(S, Arg.refSet());
    }
    if (nosOn() && !Pure)
      nos::onCall(S);
    // Any callee (pure readers included) may allocate and hence trigger a
    // minor GC that promotes everything currently young.
    S.Young.clear();
    if (Callee.ReturnType) {
      if (*Callee.ReturnType == JType::Ref)
        pushRef(S, globalRef());
      else
        pushInt(S, IntVal::top());
    }
    return;
  }
  case Opcode::Goto:
  case Opcode::RearrangeEnter:
  case Opcode::RearrangeEnterDyn:
  case Opcode::RearrangeExit:
    // The Section 4.3 protocol markers only read; no abstract effect.
    return;
  case Opcode::IfEq:
  case Opcode::IfNe:
  case Opcode::IfLt:
  case Opcode::IfGe:
  case Opcode::IfGt:
  case Opcode::IfLe:
  case Opcode::IfNull:
  case Opcode::IfNonNull:
    S.popValue();
    return;
  case Opcode::IfICmpEq:
  case Opcode::IfICmpNe:
  case Opcode::IfICmpLt:
  case Opcode::IfICmpGe:
  case Opcode::IfICmpGt:
  case Opcode::IfICmpLe:
  case Opcode::IfACmpEq:
  case Opcode::IfACmpNe:
    S.popValue();
    S.popValue();
    return;
  case Opcode::Ret:
    return;
  case Opcode::IReturn:
  case Opcode::AReturn:
    S.popValue();
    return;
  }
  assert(false && "unknown opcode in transfer");
}

void BarrierAnalyzer::rangeStoreEffect(AnalysisState &S,
                                       const AbstractValue &Arr,
                                       AbstractValue Val,
                                       const AbstractValue &Start,
                                       const AbstractValue &Cnt) {
  allNonTLCond(S, Arr, Val);
  if (!Arr.isRefs())
    return;
  Val.clearSrcLocal();
  Val.clearNosTags();
  // Arrays always take weak updates (Section 2.4).
  Arr.refSet().forEach([&](size_t At) {
    StoreKey Key{static_cast<RefId>(At), AnalysisState::ElemsFieldBase};
    auto It = S.Store.find(Key);
    if (It == S.Store.end())
      S.Store.emplace(Key, Val);
    else
      It->second.mergeFrom(Val, simpleIntMerge);
  });
  if (modeA()) {
    IntVal StartV = Start.isInt() ? Start.intValue() : IntVal::top();
    IntVal CntV = Cnt.isInt() ? Cnt.intValue() : IntVal::top();
    Arr.refSet().forEach([&](size_t At) {
      auto It = S.NR.find(static_cast<RefId>(At));
      if (It == S.NR.end())
        return;
      It->second = Cfg.EnableContract
                       ? It->second.contractRange(StartV, CntV)
                       : IntRange::empty();
    });
  }
}

template <typename FnT>
void BarrierAnalyzer::processBlock(uint32_t BI, AnalysisState &S,
                                   FnT EmitOut) {
  const BasicBlock &B = CFG.block(BI);
  // A safepoint poll at the block leader may run a minor GC before any
  // instruction of the block executes.
  if (PollKill[B.Begin])
    S.Young.clear();
  for (uint32_t I = B.Begin; I + 1 < B.End; ++I)
    transfer(S, I);
  uint32_t LastIdx = B.End - 1;
  const Instruction &Last = M.Instructions[LastIdx];

  // Null-check branch refinement for the null-or-same extension: on the
  // edge where a value is known null, its Eq tags become field-is-null
  // facts (see NullOrSame.h).
  if (nosOn() &&
      (Last.Op == Opcode::IfNull || Last.Op == Opcode::IfNonNull)) {
    AbstractValue V = S.popValue();
    AnalysisState Taken = S;
    if (Last.Op == Opcode::IfNull)
      nos::onKnownNull(Taken, V); // taken edge: value null
    else
      nos::onKnownNull(S, V); // fall-through edge: value null
    EmitOut(0, Taken, /*LastUse=*/true);
    EmitOut(1, S, /*LastUse=*/true);
    return;
  }

  transfer(S, LastIdx);
  for (size_t Slot = 0, E = B.Succs.size(); Slot != E; ++Slot)
    EmitOut(Slot, S, /*LastUse=*/Slot + 1 == E);
}

AnalysisResult BarrierAnalyzer::run() {
  Stopwatch Timer;
  const uint32_t N = static_cast<uint32_t>(M.Instructions.size());
  Result.Decisions.resize(N);

  // Pre-scan: classify barrier sites. Ref-typed putstatic is a barrier
  // site that is never elided (no intra-procedural facts survive about
  // global state).
  for (uint32_t I = 0; I != N; ++I) {
    const Instruction &Ins = M.Instructions[I];
    BarrierDecision &D = Result.Decisions[I];
    if (Ins.Op == Opcode::PutField &&
        P.fieldDecl(static_cast<FieldId>(Ins.A)).Type == JType::Ref)
      D.IsBarrierSite = true;
    else if (Ins.Op == Opcode::AAStore || Ins.Op == Opcode::ArrayFill ||
             Ins.Op == Opcode::ArrayCopy)
      D.IsBarrierSite = D.IsArraySite = true;
    else if (Ins.Op == Opcode::PutStatic &&
             P.staticDecl(static_cast<StaticFieldId>(Ins.A)).Type ==
                 JType::Ref)
      D.IsBarrierSite = true;
  }

  if (Cfg.Mode != AnalysisMode::None) {
    // Fixpoint over basic blocks (Section 2: "analyzes basic blocks with
    // modified start states, propagating changes to successor blocks,
    // until a fixed point is reached").
    std::vector<std::optional<AnalysisState>> BlockIn(CFG.numBlocks());
    std::vector<uint32_t> MergeCount(CFG.numBlocks(), 0);
    std::vector<bool> InList(CFG.numBlocks(), false);

    // The worklist drains in reverse post-order by default: the heap is
    // keyed by RPO index, so a loop body's changes flow back to the head
    // before anything downstream of the loop is revisited. Only reachable
    // blocks are ever enqueued (the entry, and successors of reachable
    // blocks), so every enqueued block has an RPO index.
    const std::vector<uint32_t> &RPO = CFG.reversePostOrder();
    const bool UseRpo = Cfg.Order == WorklistOrder::RPO;
    std::vector<uint32_t> RpoIndex(CFG.numBlocks(), 0);
    for (uint32_t I = 0, E = static_cast<uint32_t>(RPO.size()); I != E; ++I)
      RpoIndex[RPO[I]] = I;
    std::priority_queue<uint32_t, std::vector<uint32_t>,
                        std::greater<uint32_t>>
        Heap;
    std::deque<uint32_t> Fifo;
    auto Push = [&](uint32_t BI) {
      if (InList[BI])
        return;
      InList[BI] = true;
      if (UseRpo)
        Heap.push(RpoIndex[BI]);
      else
        Fifo.push_back(BI);
    };
    auto Pop = [&]() {
      uint32_t BI;
      if (UseRpo) {
        BI = RPO[Heap.top()];
        Heap.pop();
      } else {
        BI = Fifo.front();
        Fifo.pop_front();
      }
      InList[BI] = false;
      return BI;
    };

    BlockIn[0] = initialState();
    Push(0);

    while (UseRpo ? !Heap.empty() : !Fifo.empty()) {
      uint32_t BI = Pop();
      ++Result.BlockVisits;

      Scratch = *BlockIn[BI];
      processBlock(BI, Scratch, [&](size_t Slot, AnalysisState &Out,
                                    bool LastUse) {
        uint32_t Succ = CFG.block(BI).Succs[Slot];
        bool Changed;
        if (!BlockIn[Succ]) {
          if (LastUse)
            BlockIn[Succ] = std::move(Out);
          else
            BlockIn[Succ] = Out;
          Changed = true;
        } else if (CFG.block(Succ).Preds.size() == 1) {
          // A single-predecessor block needs no join: its in-state is
          // exactly the predecessor's out-state. Replacing (rather than
          // merging) keeps loop-body states expressed in the head's
          // variable unknowns instead of smearing them against stale
          // first-iteration constants.
          Changed = *BlockIn[Succ] != Out;
          if (Changed) {
            if (LastUse)
              *BlockIn[Succ] = std::move(Out);
            else
              *BlockIn[Succ] = Out;
          }
        } else {
          // Widening counts merges into the join point, not pops of it: a
          // head that keeps receiving changed states from one back edge
          // widens after a bounded number of joins no matter how the
          // worklist interleaves its pops.
          ++MergeCount[Succ];
          StateMerger Merger(Vars,
                             /*Widen=*/MergeCount[Succ] > Cfg.MaxBlockVisits);
          Changed = Merger.merge(*BlockIn[Succ], Out);
        }
        if (Changed)
          Push(Succ);
      });
    }

    // Judgment pass: "the last such judgment (at the fixed point of the
    // analysis) is correct" (Section 2.4). One pass over the final
    // in-states records per-site verdicts.
    Judging = true;
    for (uint32_t BI : CFG.reversePostOrder())
      if (BlockIn[BI]) {
        Scratch = *BlockIn[BI];
        processBlock(BI, Scratch, [](size_t, AnalysisState &, bool) {});
      }
    Judging = false;

    if (Cfg.CaptureStates) {
      for (uint32_t BI = 0; BI != CFG.numBlocks(); ++BI) {
        if (!BlockIn[BI])
          continue;
        const BasicBlock &B = CFG.block(BI);
        Result.BlockStateDumps.push_back(
            "block " + std::to_string(BI) + " [" +
            std::to_string(B.Begin) + ".." + std::to_string(B.End) +
            ") in-state:\n" + dumpState(*BlockIn[BI]));
      }
    }
  }

  for (const BarrierDecision &D : Result.Decisions) {
    if (!D.IsBarrierSite)
      continue;
    ++Result.NumSites;
    if (D.IsArraySite)
      ++Result.NumArraySites;
    if (D.TargetYoung)
      ++Result.NumTargetYoung;
    if (D.Elide) {
      ++Result.NumElided;
      if (D.IsArraySite)
        ++Result.NumElidedArray;
      if (D.Reason == ElisionReason::NullOrSame)
        ++Result.NumElidedNullOrSame;
    }
  }
  Result.AnalysisTimeUs = Timer.elapsedUs();
  return Result;
}

} // namespace

AnalysisResult satb::analyzeBarriers(const Program &P, const Method &M,
                                     const AnalysisConfig &Cfg) {
  return BarrierAnalyzer(P, M, Cfg).run();
}
