//===- tests/heap_test.cpp - Heap, layout, allocation zeroing -------------===//

#include "heap/Heap.h"

#include "RandomProgram.h"

#include "gc/MinorGC.h"
#include "gc/SatbMarker.h"
#include "interp/Interpreter.h"
#include "jit/Compiler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <set>

using namespace satb;
using namespace satb::testutil;

namespace {

struct HeapFixture : ::testing::Test {
  Program P;
  ClassId C;
  FieldId R1, I1, R2;
  StaticFieldId SRef, SInt;
  HeapFixture() {
    C = P.addClass("C");
    R1 = P.addField(C, "r1", JType::Ref);
    I1 = P.addField(C, "i1", JType::Int);
    R2 = P.addField(C, "r2", JType::Ref);
    SRef = P.addStaticField("sr", JType::Ref);
    SInt = P.addStaticField("si", JType::Int);
  }
};

/// The oracle's original bit-per-ObjRef traversal, kept here as the
/// independent reference the word-bitmap oracle is checked against.
std::vector<bool> perBitReachable(const Heap &H,
                                  const std::vector<ObjRef> &Roots) {
  std::vector<bool> Reached(H.maxRef() + 1, false);
  std::vector<ObjRef> Work;
  auto Visit = [&](ObjRef R) {
    if (R != NullRef && !Reached[R]) {
      Reached[R] = true;
      Work.push_back(R);
    }
  };
  for (ObjRef R : Roots)
    Visit(R);
  for (ObjRef R : H.staticRefs())
    Visit(R);
  while (!Work.empty()) {
    ObjRef R = Work.back();
    Work.pop_back();
    for (ObjRef Child : H.object(R).refSlots())
      Visit(Child);
  }
  return Reached;
}

/// Every young ObjRef, found by probing each entry of the whole table.
std::vector<ObjRef> youngByFullWalk(const Heap &H) {
  std::vector<ObjRef> Out;
  for (ObjRef R = 1; R <= H.maxRef(); ++R)
    if (H.isYoung(R))
      Out.push_back(R);
  return Out;
}

} // namespace

TEST_F(HeapFixture, AllocatorZeroesFields) {
  Heap H(P);
  ObjRef R = H.allocateObject(C);
  const HeapObject &O = H.object(R);
  EXPECT_EQ(O.Kind, ObjectKind::Object);
  EXPECT_EQ(O.Class, C);
  ASSERT_EQ(O.refSlots().size(), 2u); // r1, r2
  ASSERT_EQ(O.NumInts, 1u);
  EXPECT_EQ(O.refs()[0], NullRef);
  EXPECT_EQ(O.refs()[1], NullRef);
  EXPECT_EQ(O.ints()[0], 0);
}

TEST_F(HeapFixture, ArrayAllocationZeroed) {
  Heap H(P);
  ObjRef A = H.allocateRefArray(5);
  const HeapObject &O = H.object(A);
  EXPECT_EQ(O.Kind, ObjectKind::RefArray);
  EXPECT_EQ(O.arrayLength(), 5u);
  for (ObjRef E : O.refSlots())
    EXPECT_EQ(E, NullRef);
  ObjRef I = H.allocateIntArray(3);
  EXPECT_EQ(H.object(I).arrayLength(), 3u);
  EXPECT_EQ(H.object(I).ints()[2], 0);
}

TEST_F(HeapFixture, FieldSlotLayoutSeparatesKinds) {
  Heap H(P);
  // r1 and r2 occupy ref slots 0 and 1; i1 occupies int slot 0.
  EXPECT_EQ(H.fieldSlot(R1).Type, JType::Ref);
  EXPECT_EQ(H.fieldSlot(R1).Slot, 0u);
  EXPECT_EQ(H.fieldSlot(R2).Slot, 1u);
  EXPECT_EQ(H.fieldSlot(I1).Type, JType::Int);
  EXPECT_EQ(H.fieldSlot(I1).Slot, 0u);
}

TEST_F(HeapFixture, StaticsStartZeroed) {
  Heap H(P);
  EXPECT_EQ(H.getStaticRef(SRef), NullRef);
  EXPECT_EQ(H.getStaticInt(SInt), 0);
  ObjRef R = H.allocateObject(C);
  H.setStaticRef(SRef, R);
  EXPECT_EQ(H.getStaticRef(SRef), R);
}

TEST_F(HeapFixture, FreeAndReuse) {
  Heap H(P);
  ObjRef A = H.allocateObject(C);
  EXPECT_EQ(H.numLive(), 1u);
  H.free(A);
  EXPECT_EQ(H.numLive(), 0u);
  EXPECT_EQ(H.objectOrNull(A), nullptr);
  ObjRef B = H.allocateObject(C);
  EXPECT_EQ(B, A); // slot recycled
  EXPECT_EQ(H.numAllocated(), 2u);
}

TEST_F(HeapFixture, AllocateMarkedFlag) {
  Heap H(P);
  ObjRef A = H.allocateObject(C);
  EXPECT_FALSE(H.isMarked(A));
  H.setAllocateMarked(true);
  ObjRef B = H.allocateObject(C);
  EXPECT_TRUE(H.isMarked(B));
  H.setAllocateMarked(false);
  EXPECT_FALSE(H.isMarked(H.allocateObject(C)));
}

TEST_F(HeapFixture, ClearMarksResetsTracingState) {
  Heap H(P);
  ObjRef A = H.allocateRefArray(2);
  EXPECT_EQ(loadTracingRelaxed(H.object(A), H.traceEpoch()),
            TraceState::Untraced);
  H.setMarked(A);
  for (TraceState S :
       {TraceState::Tracing, TraceState::Traced, TraceState::Untraced,
        TraceState::Traced}) {
    storeTracingRelaxed(H.object(A), H.traceEpoch(), S);
    EXPECT_EQ(loadTracingRelaxed(H.object(A), H.traceEpoch()), S);
  }
  H.clearMarks();
  EXPECT_FALSE(H.isMarked(A));
  EXPECT_EQ(loadTracingRelaxed(H.object(A), H.traceEpoch()),
            TraceState::Untraced);
}

TEST_F(HeapFixture, TracingStampDoesNotOutliveEpochWrap) {
  // The epoch takes 2^14 - 1 values, so that many clearMarks calls bring
  // it back to the stamp's own epoch; the wrap on the way must have
  // zeroed the stamp. Offset 0 stamps in epoch 1, where the wrap lands
  // on the last call; offset 5000 puts the wrap mid-way.
  const uint32_t Period = (1u << TraceEpochBits) - 1;
  for (uint32_t Offset : {0u, 5000u}) {
    for (uint32_t Calls : {1u, Period, Period + 1, Period + 2}) {
      Heap H(P);
      ObjRef A = H.allocateRefArray(1);
      ObjRef B = H.allocateRefArray(1);
      for (uint32_t I = 0; I != Offset; ++I)
        H.clearMarks();
      storeTracingRelaxed(H.object(A), H.traceEpoch(), TraceState::Traced);
      storeTracingRelaxed(H.object(B), H.traceEpoch(), TraceState::Tracing);
      for (uint32_t I = 0; I != Calls; ++I)
        H.clearMarks();
      EXPECT_EQ(loadTracingRelaxed(H.object(A), H.traceEpoch()),
                TraceState::Untraced)
          << "offset " << Offset << ", " << Calls << " calls";
      EXPECT_EQ(loadTracingRelaxed(H.object(B), H.traceEpoch()),
                TraceState::Untraced)
          << "offset " << Offset << ", " << Calls << " calls";
      EXPECT_GE(H.traceEpoch(), 1u);
      EXPECT_LT(H.traceEpoch(), 1u << TraceEpochBits);
    }
  }
}

TEST_F(HeapFixture, ComputeReachableFollowsFieldsAndStatics) {
  Heap H(P);
  ObjRef A = H.allocateObject(C);
  ObjRef B = H.allocateObject(C);
  ObjRef D = H.allocateObject(C);
  ObjRef Unreached = H.allocateObject(C);
  H.object(A).refs()[0] = B;
  H.object(B).refs()[1] = D;
  H.setStaticRef(SRef, A);
  std::vector<bool> Reached = computeReachable(H, {});
  EXPECT_TRUE(Reached[A]);
  EXPECT_TRUE(Reached[B]);
  EXPECT_TRUE(Reached[D]);
  EXPECT_FALSE(Reached[Unreached]);
}

TEST_F(HeapFixture, ComputeReachableThroughArraysAndRoots) {
  Heap H(P);
  ObjRef Arr = H.allocateRefArray(3);
  ObjRef X = H.allocateObject(C);
  H.object(Arr).refs()[1] = X;
  std::vector<bool> Reached = computeReachable(H, {Arr});
  EXPECT_TRUE(Reached[Arr]);
  EXPECT_TRUE(Reached[X]);
}

TEST_F(HeapFixture, ComputeReachableHandlesCycles) {
  Heap H(P);
  ObjRef A = H.allocateObject(C);
  ObjRef B = H.allocateObject(C);
  H.object(A).refs()[0] = B;
  H.object(B).refs()[0] = A;
  std::vector<bool> Reached = computeReachable(H, {A});
  EXPECT_TRUE(Reached[A]);
  EXPECT_TRUE(Reached[B]);
}

TEST_F(HeapFixture, BytesAllocatedGrows) {
  Heap H(P);
  uint64_t Before = H.bytesAllocatedApprox();
  H.allocateRefArray(100);
  EXPECT_GT(H.bytesAllocatedApprox(), Before);
}

TEST_F(HeapFixture, TlabCountersPublishInBatches) {
  // TLAB installs reach the shared counters once TlabPublishObjects
  // installs or a chunk's worth of bytes are pending, or at publishTlab --
  // never later.
  Heap H(P);
  H.enterMultiMutator(1u << 12);
  Heap::Tlab T;
  ObjRef First = H.allocateObjectTlab(T, C); // takes the first ref block
  const uint64_t Block = H.object(First).blockBytes();
  for (int I = 1; I != 11; ++I)
    H.allocateObjectTlab(T, C);
  EXPECT_EQ(H.numAllocated(), 0u) << "small installs stay pending";
  EXPECT_EQ(T.PendingObjects, 11u);
  H.publishTlab(T);
  EXPECT_EQ(H.numAllocated(), 11u);
  EXPECT_EQ(H.numLive(), 11u);
  EXPECT_EQ(H.bytesAllocatedApprox(), 11 * Block);
  EXPECT_EQ(T.PendingObjects, 0u);

  // The TlabPublishObjects-th pending install publishes.
  for (uint32_t I = 1; I != Heap::TlabPublishObjects; ++I)
    H.allocateObjectTlab(T, C);
  EXPECT_EQ(H.numAllocated(), 11u);
  H.allocateObjectTlab(T, C);
  EXPECT_EQ(H.numAllocated(), 11u + Heap::TlabPublishObjects);
  EXPECT_EQ(T.PendingObjects, 0u);

  // The (RefBlockRefs + 1)-th install opens the next ref block; nothing
  // is counted twice or lost across the refill.
  ObjRef Last = NullRef;
  for (uint32_t I = 11 + Heap::TlabPublishObjects; I != Heap::RefBlockRefs + 1;
       ++I)
    Last = H.allocateObjectTlab(T, C);
  EXPECT_EQ(Last, First + Heap::RefBlockRefs);
  EXPECT_EQ(H.numAllocated() + T.PendingObjects, Heap::RefBlockRefs + 1);
  EXPECT_LT(T.PendingObjects, Heap::TlabPublishObjects);

  // A block of at least a chunk's bytes publishes at once.
  ObjRef Big = H.allocateRefArrayTlab(T, 4096);
  EXPECT_EQ(H.numAllocated(), Heap::RefBlockRefs + 2);
  EXPECT_EQ(H.bytesAllocatedApprox(),
            (Heap::RefBlockRefs + 1) * Block + H.object(Big).blockBytes());
  H.exitMultiMutator();
}

TEST_F(HeapFixture, TlabsNeverShareABitmapLine) {
  // A ref block's bits fill one cache line of each side bitmap, so TLABs
  // that refill in turn must never hand out refs from one block: the
  // first block starts aligned above the single-mutator objects, and
  // every later block belongs to exactly one TLAB. Pending counts still
  // publish every TlabPublishObjects installs.
  Heap H(P);
  constexpr uint32_t NumPre = 40;
  for (uint32_t I = 0; I != NumPre; ++I)
    ASSERT_LT(H.allocateObject(C), Heap::RefBlockRefs);
  H.enterMultiMutator(1u << 14);
  Heap::Tlab Tlabs[3];
  uint32_t Installs[3] = {};
  std::map<ObjRef, int> Owner; // R / RefBlockRefs -> TLAB
  for (uint32_t I = 0; I != 3 * Heap::RefBlockRefs + 100; ++I) {
    const int K = static_cast<int>(I % 3);
    ObjRef R = H.allocateObjectTlab(Tlabs[K], C);
    ++Installs[K];
    EXPECT_TRUE(H.isLive(R)) << R;
    auto [It, Fresh] = Owner.emplace(R / Heap::RefBlockRefs, K);
    EXPECT_EQ(It->second, K) << "ref " << R << " lies in another TLAB's block";
    if (Fresh) {
      EXPECT_EQ(R % Heap::RefBlockRefs, 0u) << "block opens mid-line";
    }
  }
  EXPECT_EQ(Owner.begin()->first, 1u) << "first block shares a line with "
                                         "single-mutator objects";
  EXPECT_EQ(Owner.size(), 6u) << "each TLAB refills exactly once";
  uint64_t Published = NumPre;
  for (int K = 0; K != 3; ++K) {
    EXPECT_EQ(Tlabs[K].PendingObjects,
              Installs[K] % Heap::TlabPublishObjects);
    Published += Installs[K] - Tlabs[K].PendingObjects;
  }
  EXPECT_EQ(H.numAllocated(), Published);
  H.exitMultiMutator();
}

// --- Generational layer: nursery, promotion, minor collection ---------------

TEST_F(HeapFixture, NurseryBumpAllocationSetsYoungBit) {
  Heap H(P);
  H.enableNursery();
  ObjRef A = H.allocateObject(C);
  EXPECT_TRUE(H.isYoung(A));
  EXPECT_TRUE(H.inNursery(&H.object(A)));
  uint64_t Used = H.nurseryUsedBytes();
  EXPECT_GT(Used, 0u);
  ObjRef B = H.allocateObject(C);
  EXPECT_TRUE(H.isYoung(B));
  EXPECT_GT(H.nurseryUsedBytes(), Used); // bump pointer advanced
}

TEST_F(HeapFixture, PretenureBypassesNursery) {
  Heap H(P);
  Heap::NurseryConfig NC;
  NC.PretenureBytes = 64;
  H.enableNursery(NC);
  ObjRef Big = H.allocateRefArray(100); // block > 64 bytes: pretenured
  EXPECT_FALSE(H.isYoung(Big));
  EXPECT_FALSE(H.inNursery(&H.object(Big)));
  ObjRef Small = H.allocateObject(C);
  EXPECT_TRUE(H.isYoung(Small));
}

TEST_F(HeapFixture, NurseryExhaustionWithoutCollectorPretenures) {
  // No GC hook installed: once the nursery fills, allocation falls back to
  // old space and never fails. Earlier young objects keep their placement.
  Heap H(P);
  Heap::NurseryConfig NC;
  NC.NurseryBytes = 256;
  NC.PretenureBytes = 128;
  H.enableNursery(NC);
  std::vector<ObjRef> Refs;
  for (int I = 0; I != 32; ++I)
    Refs.push_back(H.allocateObject(C));
  EXPECT_TRUE(H.isYoung(Refs.front()));
  EXPECT_FALSE(H.isYoung(Refs.back()));
  for (ObjRef R : Refs)
    EXPECT_TRUE(H.isLive(R));
}

TEST_F(HeapFixture, PromotionIsRefStableAndPreservesContents) {
  // Promotion republishes the object-table entry: the ObjRef survives, so
  // interior references into and out of the survivor need no fixup.
  Heap H(P);
  H.enableNursery();
  ObjRef A = H.allocateObject(C);
  ObjRef B = H.allocateObject(C);
  H.object(A).refs()[0] = B; // young-to-young interior reference
  H.object(A).ints()[0] = 77;
  const HeapObject *YoungAddr = &H.object(A);
  uint32_t Bytes = H.promoteToOld(A);
  EXPECT_EQ(Bytes, YoungAddr->blockBytes());
  EXPECT_FALSE(H.isYoung(A));
  EXPECT_TRUE(H.isLive(A));
  EXPECT_NE(&H.object(A), YoungAddr);
  EXPECT_FALSE(H.inNursery(&H.object(A)));
  EXPECT_EQ(H.object(A).refs()[0], B); // slots copied verbatim
  EXPECT_EQ(H.object(A).ints()[0], 77);
  EXPECT_TRUE(H.isYoung(B)); // referent untouched by the move
}

TEST_F(HeapFixture, MinorGCPrecisionRemSetAndRoots) {
  Heap H(P);
  ObjRef Old = H.allocateObject(C); // allocated before the nursery: old
  H.enableNursery();
  MinorGC Gen(H);
  Gen.setRemSetValid(true);
  ObjRef Kept = H.allocateObject(C);    // young, reached via the remset
  ObjRef Rooted = H.allocateObject(C);  // young, reached via a mutator root
  ObjRef Dead = H.allocateObject(C);    // young, unreachable
  ObjRef Chained = H.allocateObject(C); // young, reached via Kept
  H.object(Old).refs()[0] = Kept;
  Gen.recordOldToYoung(Old); // what the generational barrier does
  H.object(Kept).refs()[0] = Chained; // young-to-young: no barrier needed
  Gen.collect({Rooted});
  EXPECT_TRUE(H.isLive(Kept) && !H.isYoung(Kept));
  EXPECT_TRUE(H.isLive(Rooted) && !H.isYoung(Rooted));
  EXPECT_TRUE(H.isLive(Chained) && !H.isYoung(Chained));
  EXPECT_FALSE(H.isLive(Dead));
  EXPECT_EQ(H.object(Old).refs()[0], Kept); // edges survive promotion
  EXPECT_EQ(H.object(Kept).refs()[0], Chained);
  EXPECT_EQ(H.nurseryUsedBytes(), 0u); // buffer recycled wholesale
  const MinorGCStats &S = Gen.stats();
  EXPECT_EQ(S.Collections, 1u);
  EXPECT_EQ(S.WholesalePromotions, 0u);
  EXPECT_EQ(S.PromotedObjects, 3u);
  EXPECT_EQ(S.FreedYoung, 1u);
  EXPECT_EQ(S.RemSetCardsScanned, 1u);
  EXPECT_GE(S.RemSetOldScanned, 1u);
  EXPECT_EQ(S.RootYoung, 1u);
}

TEST_F(HeapFixture, MinorGCDirtyCardOverApproximationIsSafe) {
  // A card covers 2^CardShift consecutive ObjRefs, so the remembered set
  // over-approximates: scanning a dirty card re-examines *every* old
  // object on it. A young referent held only by an unrecorded neighbour
  // on the same card must still survive a precise collection.
  Heap H(P);
  ObjRef OldA = H.allocateObject(C);
  ObjRef OldB = H.allocateObject(C);
  ASSERT_EQ(OldA >> CardTable::CardShift, OldB >> CardTable::CardShift);
  H.enableNursery();
  MinorGC Gen(H);
  Gen.setRemSetValid(true);
  ObjRef YoungA = H.allocateObject(C);
  ObjRef YoungB = H.allocateObject(C);
  H.object(OldA).refs()[0] = YoungA;
  H.object(OldB).refs()[0] = YoungB;
  Gen.recordOldToYoung(OldA); // OldB's edge never recorded
  Gen.collect({});
  EXPECT_TRUE(H.isLive(YoungA) && !H.isYoung(YoungA));
  EXPECT_TRUE(H.isLive(YoungB) && !H.isYoung(YoungB));
  EXPECT_EQ(Gen.stats().RemSetCardsScanned, 1u);
}

TEST_F(HeapFixture, MinorGCPromotesEachSurvivorOnce) {
  // A precise collection promotes a young object when it first reaches
  // it, from whichever source. Shared is reached five ways (two roots, a
  // static, an old object on a dirty card, a young object); a three-deep
  // young chain hangs only off a dirty card's old object; a young cycle
  // is unreachable. Every object here shares card 0, so the young ones
  // promoted mid-scan sit on the card being scanned.
  Heap H(P);
  ObjRef OldShared = H.allocateObject(C); // allocated before the nursery
  ObjRef OldChain = H.allocateObject(C);
  H.enableNursery();
  MinorGC Gen(H);
  Gen.setRemSetValid(true);
  ObjRef Shared = H.allocateObject(C);
  ObjRef Link1 = H.allocateObject(C);
  ObjRef Link2 = H.allocateRefArray(3);
  ObjRef Link3 = H.allocateObject(C);
  ObjRef Dead1 = H.allocateObject(C);
  ObjRef Dead2 = H.allocateObject(C);
  for (ObjRef R : {OldShared, OldChain, Shared, Link1, Link2, Link3, Dead1,
                   Dead2})
    ASSERT_EQ(R >> CardTable::CardShift, 0u);
  H.object(OldShared).refs()[0] = Shared;
  Gen.recordOldToYoung(OldShared);
  H.object(OldChain).refs()[1] = Link1;
  Gen.recordOldToYoung(OldChain);
  H.object(Link1).refs()[0] = Link2;
  H.object(Link2).refs()[2] = Link3;
  H.object(Link3).refs()[1] = Shared;
  H.object(Dead1).refs()[0] = Dead2;
  H.object(Dead2).refs()[0] = Dead1;
  H.setStaticRef(SRef, Shared);
  const std::vector<ObjRef> Survivors = {Shared, Link1, Link2, Link3};
  uint64_t SurvivorBytes = 0;
  for (ObjRef R : Survivors)
    SurvivorBytes += H.object(R).blockBytes();

  Gen.collect({Shared, NullRef, OldShared, Shared});

  const MinorGCStats &S = Gen.stats();
  EXPECT_EQ(S.WholesalePromotions, 0u);
  EXPECT_EQ(S.PromotedObjects, Survivors.size());
  EXPECT_EQ(S.PromotedBytes, SurvivorBytes);
  EXPECT_EQ(S.FreedYoung, 2u);
  EXPECT_EQ(S.RootYoung, 3u); // two root slots and the static
  EXPECT_EQ(S.RemSetCardsScanned, 1u);
  EXPECT_EQ(S.RemSetOldScanned, 2u); // promoted survivors are not rescanned
  for (ObjRef R : Survivors) {
    EXPECT_TRUE(H.isLive(R)) << R;
    EXPECT_FALSE(H.inNursery(&H.object(R))) << R;
  }
  EXPECT_FALSE(H.isLive(Dead1));
  EXPECT_FALSE(H.isLive(Dead2));
  EXPECT_TRUE(youngByFullWalk(H).empty());
  EXPECT_EQ(H.object(Link2).refs()[2], Link3); // edges survive promotion
  EXPECT_EQ(H.object(Link3).refs()[1], Shared);
  EXPECT_EQ(H.numLive(), 2u + Survivors.size());
}

TEST_F(HeapFixture, MinorGCWholesaleWhenRemSetInvalid) {
  // RemSetValid defaults to false (no generational barrier maintaining
  // it): the collection must promote everything and free nothing.
  Heap H(P);
  H.enableNursery();
  MinorGC Gen(H);
  ObjRef Dead = H.allocateObject(C);
  ObjRef Live = H.allocateObject(C);
  Gen.collect({Live});
  EXPECT_TRUE(H.isLive(Dead) && !H.isYoung(Dead));
  EXPECT_TRUE(H.isLive(Live) && !H.isYoung(Live));
  EXPECT_EQ(Gen.stats().WholesalePromotions, 1u);
  EXPECT_EQ(Gen.stats().FreedYoung, 0u);
  EXPECT_EQ(H.nurseryUsedBytes(), 0u);
}

TEST_F(HeapFixture, MinorGCWholesaleDuringActiveMarking) {
  // A minor collection overlapping a SATB cycle may not free young
  // objects even with a valid remembered set: an unreachable young object
  // could still be part of the marker's snapshot.
  Heap H(P);
  SatbMarker M(H);
  H.enableNursery();
  MinorGC Gen(H);
  Gen.attachMarker(&M);
  Gen.setRemSetValid(true);
  ObjRef Dead = H.allocateObject(C);
  M.beginMarking({Dead});
  Gen.collect({});
  EXPECT_TRUE(H.isLive(Dead) && !H.isYoung(Dead));
  EXPECT_EQ(Gen.stats().WholesalePromotions, 1u);
  EXPECT_EQ(Gen.stats().FreedYoung, 0u);
  while (!M.markStep(64))
    ;
  M.finishMarking();
  EXPECT_TRUE(H.isMarked(Dead)); // the snapshot member survived promotion
}

TEST_F(HeapFixture, NurseryTlabRefillRequestsMinorGCAndFallsBack) {
  // Multi-mutator mode: a TLAB chunk refill that finds the nursery
  // exhausted raises the minor-GC request and hands out an old-space
  // chunk — the mutator never blocks inside an allocation. Objects in
  // the fallback chunk are still *born young* (youngness is the logical
  // bitmap, not an address range): the compile-time young-target proof
  // elides the remembered-set barrier on stores into freshly allocated
  // objects, which a pretenured-at-birth object would break.
  Heap H(P);
  H.enterMultiMutator(1u << 12);
  Heap::NurseryConfig NC;
  NC.NurseryBytes = 8192; // exactly one TLAB chunk
  H.enableNursery(NC);
  Heap::Tlab T;
  ObjRef A = H.allocateObjectTlab(T, C); // first chunk: the whole nursery
  EXPECT_TRUE(H.isYoung(A));
  EXPECT_FALSE(H.minorGCRequested());
  H.invalidateNurseryTlab(T); // drop the nursery chunk mid-use
  EXPECT_EQ(T.Cur, nullptr);
  ObjRef B = H.allocateObjectTlab(T, C); // refill fails: old-space chunk
  EXPECT_TRUE(H.isYoung(B));
  EXPECT_TRUE(H.isLive(B));
  EXPECT_TRUE(H.minorGCRequested());
  // An old-space TLAB is unaffected by nursery invalidation.
  char *OldCur = T.Cur;
  H.invalidateNurseryTlab(T);
  EXPECT_EQ(T.Cur, OldCur);
  // The pre-exhaustion young object kept its placement.
  EXPECT_TRUE(H.isYoung(A));
  // Promoting a fallback-chunk survivor is in-place: the storage is
  // already tenured, so only the young bit changes.
  const HeapObject *Before = &H.object(B);
  H.promoteToOld(B);
  EXPECT_FALSE(H.isYoung(B));
  EXPECT_EQ(&H.object(B), Before);
  H.clearMinorGCRequest();
  H.exitMultiMutator();
}

TEST_F(HeapFixture, DisableNurseryRestoresOldSpaceAllocation) {
  Heap H(P);
  H.enableNursery();
  ObjRef A = H.allocateObject(C);
  H.promoteToOld(A); // empty the nursery so disabling is legal
  H.resetNursery();
  H.disableNursery();
  EXPECT_FALSE(H.nurseryEnabled());
  ObjRef B = H.allocateObject(C);
  EXPECT_FALSE(H.isYoung(B));
}

// --- Reachability oracle -----------------------------------------------------

TEST(ReachabilityOracle, AgreesWithPerBitTraversalOnRandomHeaps) {
  // One oracle object is reused across every capture, as the runtime
  // drivers reuse theirs across pauses: a stale bit from an earlier,
  // larger capture would show up as a disagreement.
  ReachabilityOracle Oracle;
  uint64_t Total = 0;
  for (uint32_t Seed = 500; Seed != 508; ++Seed) {
    GeneratedProgram G = RandomProgramGenerator(Seed).generate();
    CompiledProgram CP = compileProgram(*G.P, CompilerOptions{});
    Heap H(*G.P);
    Interpreter I(*G.P, CP, H);
    I.start(G.Entry, {150});
    for (uint64_t Quantum : {50, 400, 3000, 20000}) {
      I.step(Quantum);
      std::vector<ObjRef> Roots = I.collectRoots();
      std::vector<bool> Expected = perBitReachable(H, Roots);
      uint64_t Count = Oracle.capture(H, Roots);
      Total += Count;
      EXPECT_EQ(Count, static_cast<uint64_t>(std::count(
                           Expected.begin(), Expected.end(), true)))
          << "seed " << Seed << " after " << I.stepsExecuted() << " steps";
      EXPECT_EQ(Oracle.toBits(Expected.size()), Expected) << "seed " << Seed;
      EXPECT_EQ(computeReachable(H, Roots), Expected) << "seed " << Seed;
      // Nothing is marked outside a cycle, so any non-empty capture
      // fails the check.
      EXPECT_EQ(Oracle.holds(H), Count == 0) << "seed " << Seed;
    }
  }
  EXPECT_GT(Total, 100u); // the corpus builds real object graphs
}

TEST_F(HeapFixture, ReachabilityOracleCheckIsWordExact) {
  // 150 objects: ObjRefs 1..150, so the bitmap's last word (128..191) is
  // partial. An array holds every object but one; the check must fail
  // when any single reachable object is unmarked — at either side of a
  // word boundary (63, 64) and in the last partial word (150) — and must
  // ignore the unreachable one.
  Heap H(P);
  ObjRef Arr = H.allocateRefArray(200);
  ASSERT_EQ(Arr, 1u);
  const ObjRef Unreached = 100;
  for (ObjRef R = 2; R <= 150; ++R) {
    ASSERT_EQ(H.allocateObject(C), R);
    if (R != Unreached)
      H.object(Arr).refs()[R] = R;
  }
  ASSERT_EQ(H.refHighWater(), 151u);
  ReachabilityOracle Oracle;
  EXPECT_EQ(Oracle.capture(H, {Arr}), 149u);
  auto MarkAllBut = [&](ObjRef Skip) {
    H.clearMarks();
    for (ObjRef R = 1; R <= 150; ++R)
      if (R != Skip)
        H.setMarked(R);
  };
  MarkAllBut(NullRef);
  EXPECT_TRUE(Oracle.holds(H));
  MarkAllBut(Unreached);
  EXPECT_TRUE(Oracle.holds(H));
  for (ObjRef Victim : {ObjRef(63), ObjRef(64), ObjRef(150)}) {
    MarkAllBut(Victim);
    EXPECT_FALSE(Oracle.holds(H)) << "unmarked snapshot object " << Victim;
  }
  // Dead counts as unmarked, too.
  MarkAllBut(NullRef);
  H.free(150);
  EXPECT_FALSE(Oracle.holds(H));
}

// --- High-water-bounded pause walks ---------------------------------------

TEST(CardTable, TestThenCleanKeepsEveryDirtyCard) {
  // The read before the exchange may skip only clean cards: every card
  // dirtied before the scan reports dirty exactly once and ends clean.
  CardTable Cards;
  Cards.ensureCapacity(1000);
  const std::vector<ObjRef> Dirtied = {0, 127, 128, 640, 1000};
  for (ObjRef R : Dirtied)
    Cards.dirty(R);
  for (uint32_t Card = 0; Card != Cards.numCards(); ++Card) {
    bool Want = std::any_of(Dirtied.begin(), Dirtied.end(), [&](ObjRef R) {
      return (R >> CardTable::CardShift) == Card;
    });
    EXPECT_EQ(Cards.testAndClean(Card), Want) << "card " << Card;
    EXPECT_FALSE(Cards.testAndClean(Card)) << "card " << Card;
    EXPECT_FALSE(Cards.isDirty(Card)) << "card " << Card;
  }
  EXPECT_FALSE(Cards.anyDirty());
  // The walk bound: the cards covering ObjRefs below a high-water mark.
  EXPECT_EQ(Cards.numCards(), 8u);
  EXPECT_EQ(Cards.cardsBelow(0), 0u);
  EXPECT_EQ(Cards.cardsBelow(1), 1u);
  EXPECT_EQ(Cards.cardsBelow(128), 1u);
  EXPECT_EQ(Cards.cardsBelow(129), 2u);
  EXPECT_EQ(Cards.cardsBelow(1u << 30), 8u);
}

TEST_F(HeapFixture, HighWaterWalksMatchFullTableWalks) {
  // A multi-mutator heap at 2^22 capacity holding a few hundred objects:
  // the minor GC, forEachYoung and the sweep stop at the ref high-water
  // mark, and must free, promote and count exactly what a walk of the
  // whole table finds.
  constexpr uint32_t Capacity = 1u << 22;
  Heap H(P);
  std::vector<ObjRef> Pre; // single-mutator objects, below every TLAB block
  for (int I = 0; I != 40; ++I)
    Pre.push_back(H.allocateObject(C));
  H.enterMultiMutator(Capacity);
  Heap::NurseryConfig NC;
  NC.NurseryBytes = 64 * 1024;
  H.enableNursery(NC);
  MinorGC Gen(H);
  Gen.ensureCapacity(Capacity);
  Gen.setRemSetValid(true);

  Heap::Tlab Tlabs[3];
  std::vector<ObjRef> Young;
  ObjRef BigMid = NullRef;
  for (int I = 0; I != 300; ++I) {
    Young.push_back(H.allocateObjectTlab(Tlabs[I % 3], C));
    if (I == 150) // pretenured (born old), mid-heap
      BigMid = H.allocateRefArrayTlab(Tlabs[1], 4096);
  }
  // Fill the highest ref block but for one ref. A pretenured array is
  // born old; allocated last into that ref, it holds the highest ObjRef,
  // so its card is the last one in use.
  while (Tlabs[2].RefEnd - Tlabs[2].NextRef > 1)
    Young.push_back(H.allocateObjectTlab(Tlabs[2], C));
  ObjRef Big = H.allocateRefArrayTlab(Tlabs[2], 4096);
  EXPECT_FALSE(H.isYoung(Big));
  EXPECT_GT(Big, Young.back());
  // The pre-existing objects' block, then one block per TLAB.
  EXPECT_EQ(H.refHighWater(), 4 * Heap::RefBlockRefs);
  EXPECT_EQ(Big, H.refHighWater() - 1);
  std::vector<ObjRef> Ascending = Young; // TLABs interleave their blocks
  std::sort(Ascending.begin(), Ascending.end());
  EXPECT_EQ(youngByFullWalk(H), Ascending);
  std::vector<ObjRef> Seen;
  H.forEachYoung([&](ObjRef R) { Seen.push_back(R); });
  EXPECT_EQ(Seen, Ascending);

  // Old-to-young edges recorded on the first card and on the last one in
  // use; a young chain hangs off a root; an old object on a card with no
  // recorded edge holds an unrecorded one (its referent must die).
  auto Link = [&](ObjRef From, ObjRef To) { H.object(From).refs()[0] = To; };
  Link(Pre[0], Young[10]);
  Gen.recordOldToYoung(Pre[0]);
  Link(Pre[39], Young[20]);
  Gen.recordOldToYoung(Pre[39]);
  Link(Big, Young[299]);
  Gen.recordOldToYoung(Big);
  Link(BigMid, Young[200]); // never recorded
  Link(Young[10], Young[11]);
  Link(Young[100], Young[101]);
  Link(Young[101], Young[102]);
  Link(Young[250], Young[251]); // unreachable young chain
  const uint32_t LastCard =
      (H.refHighWater() - 1) >> CardTable::CardShift;
  ASSERT_EQ(Big >> CardTable::CardShift, LastCard);
  ASSERT_NE(BigMid >> CardTable::CardShift, LastCard);
  ASSERT_NE(BigMid >> CardTable::CardShift, 0u);
  std::set<uint32_t> DirtyCards = {Pre[0] >> CardTable::CardShift,
                                   Pre[39] >> CardTable::CardShift,
                                   Big >> CardTable::CardShift};
  const std::set<ObjRef> Survivors = {Young[10], Young[11], Young[20],
                                      Young[299], Young[100], Young[101],
                                      Young[102]};
  Gen.collect({Young[100]});
  const MinorGCStats &S = Gen.stats();
  EXPECT_EQ(S.WholesalePromotions, 0u);
  EXPECT_EQ(S.PromotedObjects, Survivors.size());
  EXPECT_EQ(S.FreedYoung, Young.size() - Survivors.size());
  EXPECT_EQ(S.RemSetCardsScanned, DirtyCards.size());
  for (ObjRef R : Young)
    EXPECT_EQ(H.isLive(R), Survivors.count(R) == 1) << "young " << R;
  EXPECT_TRUE(youngByFullWalk(H).empty());
  EXPECT_FALSE(Gen.remSet().anyDirty());

  // The wholesale path's remembered-set clean is bounded the same way.
  ObjRef Late = H.allocateObjectTlab(Tlabs[0], C);
  Link(Pre[5], Late);
  Gen.recordOldToYoung(Pre[5]);
  Gen.recordOldToYoung(Big);
  Gen.setRemSetValid(false);
  Gen.collect({});
  EXPECT_TRUE(H.isLive(Late) && !H.isYoung(Late));
  EXPECT_FALSE(Gen.remSet().anyDirty());

  // Sweep: mark every third live object; the bounded sweep must free
  // exactly the live-unmarked set of the full table and clear every mark.
  std::vector<ObjRef> Unmarked;
  for (ObjRef R = 1, I = 0; R <= H.maxRef(); ++R) {
    if (!H.isLive(R))
      continue;
    if (I++ % 3 == 0)
      H.setMarked(R);
    else
      Unmarked.push_back(R);
  }
  EXPECT_EQ(H.sweepUnmarked(), Unmarked.size());
  for (ObjRef R : Unmarked)
    EXPECT_FALSE(H.isLive(R)) << R;
  for (ObjRef R = 1; R <= H.maxRef(); ++R)
    ASSERT_FALSE(H.isMarked(R)) << R;

  H.disableNursery();
  H.exitMultiMutator();
}

TEST_F(HeapFixture, WalksCoverWholeTableAfterExitMultiMutator) {
  // Leaving multi-mutator mode keeps the table at capacity and resumes
  // single-mutator allocation at its end, far above the last TLAB block:
  // the walks must then cover the whole table again.
  constexpr uint32_t Capacity = 1u << 12;
  Heap H(P);
  ObjRef Pre = H.allocateObject(C);
  H.enterMultiMutator(Capacity);
  Heap::Tlab T;
  ObjRef Mid = H.allocateObjectTlab(T, C);
  EXPECT_EQ(Mid, Heap::RefBlockRefs);
  EXPECT_EQ(H.refHighWater(), 2 * Heap::RefBlockRefs);
  H.exitMultiMutator();
  EXPECT_EQ(H.refHighWater(), Capacity);
  ObjRef Post = H.allocateObject(C);
  EXPECT_EQ(Post, Capacity);
  EXPECT_EQ(H.refHighWater(), Capacity + 1);

  H.enableNursery();
  ObjRef Young = H.allocateObject(C);
  std::vector<ObjRef> Seen;
  H.forEachYoung([&](ObjRef R) { Seen.push_back(R); });
  EXPECT_EQ(Seen, std::vector<ObjRef>{Young});
  MinorGC Gen(H);
  Gen.setRemSetValid(true);
  H.object(Post).refs()[0] = Young;
  Gen.recordOldToYoung(Post);
  Gen.collect({});
  EXPECT_TRUE(H.isLive(Young) && !H.isYoung(Young));
  EXPECT_EQ(Gen.stats().RemSetCardsScanned, 1u);
  H.disableNursery();

  ReachabilityOracle Oracle;
  EXPECT_EQ(Oracle.capture(H, {Post}), 2u);
  EXPECT_EQ(Oracle.toBits(H.maxRef() + 1), computeReachable(H, {Post}));
  H.setMarked(Pre);
  EXPECT_EQ(H.sweepUnmarked(), 3u); // Mid, Post, Young
  EXPECT_TRUE(H.isLive(Pre));
  EXPECT_FALSE(H.isLive(Mid) || H.isLive(Post) || H.isLive(Young));
}

TEST_F(HeapFixture, FreeListReuseIsLifoAcrossSweepAndFree) {
  // Pins the reuse order: refs and old-space blocks are handed out again
  // last-freed first, whether free(R) or a sweep (ascending ObjRef order)
  // released them, and nursery blocks never re-enter the old free lists.
  // The model below replays every release into one ref stack and one
  // block stack per byte size; the allocations must match it exactly.
  Heap H(P);
  Heap::NurseryConfig NC;
  NC.NurseryBytes = 32; // room for exactly one 32-byte young block
  NC.PretenureBytes = 32;
  H.enableNursery(NC);

  enum Kind { Obj32, Int56, Large, Int32, NumKinds };
  auto Alloc = [&](Kind K) {
    switch (K) {
    case Obj32:
      return H.allocateObject(C); // 16 + 2 * 4 + 8 = 32 bytes
    case Int56:
      return H.allocateIntArray(5);
    case Large:
      return H.allocateIntArray(200); // 1616 bytes, above the small classes
    default:
      return H.allocateIntArray(2);
    }
  };
  constexpr ObjRef N = 200; // bitmap words 0..3
  const Kind Pattern[3] = {Obj32, Int56, Int32};
  for (ObjRef I = 1; I <= N; ++I)
    ASSERT_EQ(Alloc(I == 100 ? Large : Pattern[I % 3]), I);
  // The first 32-byte block fills the nursery; the rest are pretenured.
  const ObjRef NurseryRef = 2;
  ASSERT_TRUE(H.isYoung(NurseryRef));

  std::vector<ObjRef> RefStack;
  std::map<uint32_t, std::vector<const char *>> BlockStacks;
  std::set<const char *> Released;
  std::vector<ObjRef> Freed;
  auto Model = [&](ObjRef R) {
    const char *Mem = reinterpret_cast<const char *>(&H.object(R));
    RefStack.push_back(R);
    if (R != NurseryRef)
      BlockStacks[H.object(R).blockBytes()].push_back(Mem);
    Released.insert(Mem);
    Freed.push_back(R);
  };
  auto FreeOne = [&](ObjRef R) {
    Model(R);
    H.free(R);
  };
  auto Sweep = [&](auto IsSurvivor) {
    size_t Dead = 0, Live = 0;
    for (ObjRef R = 1; R <= H.maxRef(); ++R) {
      if (!H.isLive(R))
        continue;
      if (IsSurvivor(R)) {
        H.setMarked(R);
        ++Live;
      } else {
        Model(R);
        ++Dead;
      }
    }
    EXPECT_EQ(H.sweepUnmarked(), Dead);
    EXPECT_EQ(H.numLive(), Live);
  };

  for (ObjRef R : {7u, NurseryRef, 150u, 100u, 40u})
    FreeOne(R);
  // Word 1 (refs 64..127) dies whole; word 0 keeps ref 0 out of the sweep.
  Sweep([](ObjRef R) {
    return (R >= 64 && R < 128) ? false : R < 64 ? R % 4 != 1 : R % 5 != 0;
  });
  for (ObjRef R : {3u, 189u, 128u})
    FreeOne(R);
  Sweep([](ObjRef R) { return R != 4 && R != 191 && R != 129; });

  for (ObjRef R : Freed) {
    EXPECT_EQ(H.objectOrNull(R), nullptr) << R;
    EXPECT_FALSE(H.isLive(R) || H.isMarked(R) || H.isYoung(R)) << R;
  }
  EXPECT_EQ(H.numLive(), N - Freed.size());

  // Each size class gets at least as many allocations as it had frees,
  // so every list drains and the fresh carves after it are checked too.
  const size_t Total = 2 * Freed.size() + 8;
  ObjRef NextFresh = N + 1;
  for (size_t I = 0; I != Total; ++I) {
    Kind K = static_cast<Kind>(I % NumKinds);
    ObjRef R = Alloc(K);
    ASSERT_NE(R, NullRef);
    const char *Mem = reinterpret_cast<const char *>(&H.object(R));
    if (RefStack.empty()) {
      EXPECT_EQ(R, NextFresh++) << "allocation " << I;
    } else {
      EXPECT_EQ(R, RefStack.back()) << "allocation " << I;
      RefStack.pop_back();
    }
    std::vector<const char *> &Blocks = BlockStacks[H.object(R).blockBytes()];
    if (Blocks.empty()) {
      EXPECT_EQ(Released.count(Mem), 0u) << "allocation " << I;
    } else {
      EXPECT_EQ(Mem, Blocks.back()) << "allocation " << I;
      Blocks.pop_back();
    }
  }
  EXPECT_TRUE(RefStack.empty());
  for (const auto &[Bytes, Blocks] : BlockStacks)
    EXPECT_TRUE(Blocks.empty()) << Bytes;
}

TEST_F(HeapFixture, SweptObjectsReadFreedBeforeTheirRelease) {
  // The sweep's pass over the bitmap words frees; the blocks and refs
  // reach the free lists only at the next push or pop. In between, every
  // reader must already see the swept objects as gone.
  Heap H(P);
  std::vector<ObjRef> Dead;
  size_t Live = 0;
  for (ObjRef I = 0; I != 300; ++I) {
    ObjRef R = I % 7 == 3 ? H.allocateIntArray(I % 5) : H.allocateObject(C);
    if (I % 3 == 0) {
      H.setMarked(R);
      ++Live;
    } else {
      Dead.push_back(R);
    }
  }
  EXPECT_FALSE(H.hasSweptUnreleased());
  EXPECT_EQ(H.sweepUnmarked(), Dead.size());
  EXPECT_TRUE(H.hasSweptUnreleased());
  EXPECT_EQ(H.numLive(), Live);
  for (ObjRef R : Dead) {
    EXPECT_EQ(H.objectOrNull(R), nullptr) << R;
    EXPECT_FALSE(H.isLive(R) || H.isMarked(R) || H.isYoung(R)) << R;
  }
  // The first allocation releases the whole set, then reuses the last
  // swept ref: the sweep releases in ascending order.
  EXPECT_EQ(H.allocateObject(C), Dead.back());
  EXPECT_FALSE(H.hasSweptUnreleased());
  EXPECT_EQ(H.numLive(), Live + 1);
}

TEST_F(HeapFixture, MinorGCRightAfterSweepSkipsSweptOldObject) {
  // An old object on a dirty card dies in a major cycle while its slot
  // still names a young object that nothing else reaches. A minor
  // collection right after the sweep, before any allocation releases the
  // old object, must not follow that stale slot.
  Heap H(P);
  ObjRef Old = H.allocateObject(C); // allocated before the nursery: old
  H.enableNursery();
  SatbMarker M(H);
  MinorGC Gen(H);
  Gen.attachMarker(&M);
  Gen.setRemSetValid(true);
  ObjRef Young = H.allocateObject(C);
  H.object(Old).refs()[0] = Young;
  Gen.recordOldToYoung(Old);
  // The snapshot reaches Young through a root, not Old; the root is
  // dropped before the minor collection.
  M.beginMarking({Young});
  while (!M.markStep(64))
    ;
  M.finishMarking();
  EXPECT_EQ(M.sweep(), 1u); // Old
  ASSERT_TRUE(H.hasSweptUnreleased());
  ASSERT_TRUE(H.isLive(Young) && H.isYoung(Young));
  Gen.collect({});
  EXPECT_FALSE(H.isLive(Young));
  EXPECT_EQ(Gen.stats().FreedYoung, 1u);
  EXPECT_EQ(Gen.stats().PromotedObjects, 0u);
  EXPECT_EQ(Gen.stats().RemSetCardsScanned, 1u);
  EXPECT_EQ(Gen.stats().RemSetOldScanned, 0u);
  EXPECT_EQ(H.numLive(), 0u);
}

namespace {

/// Exposes the marker's claim test to the claim differential below.
struct ClaimProbe : SatbMarker {
  using SatbMarker::SatbMarker;
  using ConcurrentMarker::tryClaim;
};

/// One claim run over \p Slots: the refs the claim reported newly marked,
/// in order, and the mark bit of every ObjRef afterwards.
struct ClaimRun {
  std::vector<ObjRef> Marked;
  std::vector<bool> Bits;
  bool operator==(const ClaimRun &) const = default;
};

/// Runs \p Claim from the mark state \p PreMarked (and no other bit set).
template <typename ClaimFn>
ClaimRun runClaim(Heap &H, const std::vector<ObjRef> &PreMarked,
                  ClaimFn Claim) {
  H.clearMarks();
  for (ObjRef R : PreMarked)
    H.setMarked(R);
  ClaimRun Out;
  Claim([&](ObjRef R) { Out.Marked.push_back(R); });
  for (ObjRef R = 0; R <= H.maxRef(); ++R)
    Out.Bits.push_back(H.isMarked(R));
  return Out;
}

template <Claim Mode>
ClaimRun claimRange(Heap &H, const std::vector<ObjRef> &PreMarked,
                    const std::vector<ObjRef> &Slots) {
  return runClaim(H, PreMarked, [&](auto OnMarked) {
    H.markRangeWords<Mode>(Slots.data(), Slots.size(), OnMarked);
  });
}

template <Claim Mode>
ClaimRun claimEach(ClaimProbe &Probe, Heap &H,
                   const std::vector<ObjRef> &PreMarked,
                   const std::vector<ObjRef> &Slots) {
  return runClaim(H, PreMarked, [&](auto OnMarked) {
    for (ObjRef R : Slots)
      if (Probe.tryClaim<Mode>(R))
        OnMarked(R);
  });
}

} // namespace

TEST_F(HeapFixture, ExclusiveAndSharedClaimsAgree) {
  // 320 objects span bitmap words 0..5; every seventh is freed, so slots
  // can hold nulls, dead refs and live refs, duplicated and crossing
  // words, against a seeded set of pre-marked bits. The plain claim must
  // leave the same mark words and report the same objects in the same
  // order as the fetch_or claim, and both must match the slot-order model.
  Heap H(P);
  std::vector<ObjRef> Live, Dead;
  for (int I = 0; I != 320; ++I)
    Live.push_back(H.allocateObject(C));
  for (size_t I = 3; I < Live.size(); I += 7) {
    H.free(Live[I]);
    Dead.push_back(Live[I]);
    Live[I] = NullRef;
  }
  std::erase(Live, NullRef);
  ClaimProbe Probe(H);
  std::mt19937 Rng(2210);
  uint64_t NonEmpty = 0;
  for (int Case = 0; Case != 300; ++Case) {
    std::vector<ObjRef> PreMarked;
    const unsigned PreMarkPct = Rng() % 60;
    for (ObjRef R : Live)
      if (Rng() % 100 < PreMarkPct)
        PreMarked.push_back(R);
    // A window of nearby refs makes duplicates and word crossings common.
    const size_t N = Rng() % 150;
    const size_t Lo = Rng() % Live.size();
    const size_t Width = 1 + Rng() % 140;
    std::vector<ObjRef> Slots;
    for (size_t I = 0; I != N; ++I) {
      unsigned Pick = Rng() % 10;
      if (Pick == 0)
        Slots.push_back(NullRef);
      else if (Pick == 1)
        Slots.push_back(Dead[Rng() % Dead.size()]);
      else
        Slots.push_back(Live[(Lo + Rng() % Width) % Live.size()]);
    }

    ClaimRun Model;
    {
      std::set<ObjRef> Marked(PreMarked.begin(), PreMarked.end());
      for (ObjRef R : Slots)
        if (R != NullRef && H.isLive(R) && Marked.insert(R).second)
          Model.Marked.push_back(R);
      for (ObjRef R = 0; R <= H.maxRef(); ++R)
        Model.Bits.push_back(Marked.count(R) != 0);
    }
    NonEmpty += !Model.Marked.empty();

    ClaimRun Range = claimRange<Claim::Shared>(H, PreMarked, Slots);
    EXPECT_EQ(claimRange<Claim::Exclusive>(H, PreMarked, Slots), Range)
        << "case " << Case;
    EXPECT_EQ(Range, Model) << "case " << Case;
    ClaimRun Each = claimEach<Claim::Shared>(Probe, H, PreMarked, Slots);
    EXPECT_EQ(claimEach<Claim::Exclusive>(Probe, H, PreMarked, Slots), Each)
        << "case " << Case;
    EXPECT_EQ(Each, Model) << "case " << Case;
  }
  EXPECT_GT(NonEmpty, 200u); // most cases mark something
}
