//===- tests/gc_test.cpp - SATB and incremental-update markers ------------===//

#include "gc/IncrementalUpdateMarker.h"
#include "gc/SatbMarker.h"

#include <gtest/gtest.h>

using namespace satb;

namespace {

struct GcFixture : ::testing::Test {
  Program P;
  ClassId C;
  Heap H{makeProgram()};

  // Heap wants a stable Program reference; build it once.
  Program &makeProgram() {
    static bool Done = false;
    C = P.addClass("Node");
    P.addField(C, "a", JType::Ref);
    P.addField(C, "b", JType::Ref);
    (void)Done;
    return P;
  }

  ObjRef node() { return H.allocateObject(C); }
  void link(ObjRef From, unsigned Slot, ObjRef To) {
    H.object(From).refs()[Slot] = To;
  }
};

} // namespace

TEST_F(GcFixture, SatbMarksRootsTransitively) {
  ObjRef A = node(), B = node(), D = node(), Garbage = node();
  link(A, 0, B);
  link(B, 0, D);
  SatbMarker M(H);
  M.beginMarking({A});
  EXPECT_TRUE(M.isActive());
  while (!M.markStep(8))
    ;
  M.finishMarking();
  EXPECT_TRUE(H.isMarked(A));
  EXPECT_TRUE(H.isMarked(B));
  EXPECT_TRUE(H.isMarked(D));
  EXPECT_FALSE(H.isMarked(Garbage));
  EXPECT_EQ(M.sweep(), 1u);
  EXPECT_EQ(H.objectOrNull(Garbage), nullptr);
}

TEST_F(GcFixture, SatbStampsOnlyRefArrays) {
  // The rearrangement protocol reads tracing states of reference arrays
  // only, so only they are stamped; the sweep's epoch advance clears them.
  ObjRef A = node(), Arr = H.allocateRefArray(2), B = node();
  link(A, 0, Arr);
  H.object(Arr).refs()[1] = B;
  SatbMarker M(H);
  M.beginMarking({A});
  auto State = [&](ObjRef R) {
    return loadTracingRelaxed(H.object(R), H.traceEpoch());
  };
  EXPECT_EQ(State(Arr), TraceState::Untraced);
  while (!M.markStep(8))
    ;
  EXPECT_EQ(State(Arr), TraceState::Traced);
  EXPECT_EQ(H.object(A).Stamp, 0u);
  EXPECT_EQ(H.object(B).Stamp, 0u);
  M.finishMarking();
  EXPECT_EQ(M.sweep(), 0u);
  EXPECT_EQ(State(Arr), TraceState::Untraced);
}

TEST_F(GcFixture, SatbSnapshotPreservedThroughUnlink) {
  // A -> B at snapshot time; the mutator unlinks B during marking but the
  // logged pre-value keeps B in the snapshot.
  ObjRef A = node(), B = node();
  link(A, 0, B);
  SatbMarker M(H);
  M.beginMarking({A});
  // Mutator overwrites A.a before the marker scans A's children: the
  // barrier logs the pre-value.
  M.logPreValue(B);
  link(A, 0, NullRef);
  while (!M.markStep(8))
    ;
  M.finishMarking();
  EXPECT_TRUE(H.isMarked(B)) << "snapshot object lost";
  EXPECT_EQ(M.sweep(), 0u);
}

TEST_F(GcFixture, SatbUnlinkWithoutLoggingLosesSnapshot) {
  // The negative control: skipping the barrier on a NON-pre-null store
  // breaks the snapshot guarantee (this is exactly what unsound elision
  // would do).
  ObjRef A = node(), B = node();
  link(A, 0, B);
  SatbMarker M(H);
  M.beginMarking({A});
  link(A, 0, NullRef); // no logPreValue!
  while (!M.markStep(8))
    ;
  M.finishMarking();
  EXPECT_FALSE(H.isMarked(B));
  EXPECT_EQ(M.sweep(), 1u); // B collected despite being in the snapshot
}

TEST_F(GcFixture, SatbElidedPreNullStoreIsHarmless) {
  // Overwriting null unlinks nothing: eliding that barrier is safe.
  ObjRef A = node(), B = node();
  SatbMarker M(H);
  M.beginMarking({A, B});
  link(A, 0, B); // pre-value null: no log needed
  while (!M.markStep(8))
    ;
  M.finishMarking();
  EXPECT_TRUE(H.isMarked(A));
  EXPECT_TRUE(H.isMarked(B));
  EXPECT_EQ(M.sweep(), 0u);
}

TEST_F(GcFixture, SatbAllocateBlack) {
  ObjRef A = node();
  SatbMarker M(H);
  M.beginMarking({A});
  ObjRef New = node(); // allocated during marking: implicitly marked
  EXPECT_TRUE(H.isMarked(New));
  while (!M.markStep(8))
    ;
  M.finishMarking();
  EXPECT_EQ(M.sweep(), 0u);
  // After the cycle the flag is off again.
  EXPECT_FALSE(H.isMarked(node()));
}

TEST_F(GcFixture, SatbBuffersFlushAtCapacity) {
  ObjRef A = node();
  SatbMarker M(H, /*BufferCapacity=*/4);
  M.beginMarking({A});
  ObjRef B = node(); // marked at birth, but logs still flow
  for (int I = 0; I != 10; ++I)
    M.logPreValue(B);
  EXPECT_EQ(M.stats().LoggedPreValues, 10u);
  EXPECT_EQ(M.stats().BuffersFlushed, 2u); // two full buffers of 4
  M.finishMarking();
  M.sweep();
}

TEST_F(GcFixture, SatbAlwaysLogOutsideCycleDiscards) {
  SatbMarker M(H, 2);
  ObjRef A = node();
  EXPECT_FALSE(M.isActive());
  for (int I = 0; I != 6; ++I)
    M.logPreValue(A); // Table 2 always-log mode, no marking
  EXPECT_EQ(M.stats().BuffersDiscarded, 3u);
  EXPECT_EQ(M.stats().BuffersFlushed, 0u);
}

TEST_F(GcFixture, SatbFinalPauseCountsRemainingWork) {
  ObjRef A = node(), B = node(), D = node();
  link(A, 0, B);
  link(B, 0, D);
  SatbMarker M(H);
  M.beginMarking({A});
  // No concurrent steps at all: the entire trace lands in the pause.
  size_t Pause = M.finishMarking();
  EXPECT_GT(Pause, 0u);
  EXPECT_EQ(M.stats().FinalPauseWork, Pause);
  M.sweep();
}

TEST_F(GcFixture, IncUpdateMarksEndReachable) {
  ObjRef A = node(), B = node(), Garbage = node();
  IncrementalUpdateMarker M(H);
  M.beginMarking({A});
  // Mutator links B into A during marking; the card barrier records it.
  link(A, 0, B);
  M.recordWrite(A);
  while (!M.markStep(8))
    ;
  size_t Pause = M.finishMarking({A});
  (void)Pause;
  EXPECT_TRUE(H.isMarked(A));
  EXPECT_TRUE(H.isMarked(B));
  EXPECT_FALSE(H.isMarked(Garbage));
  EXPECT_EQ(M.sweep(), 1u);
}

TEST_F(GcFixture, IncUpdateMissesUnrecordedWrite_NegativeControl) {
  // Without the dirty card the new link is invisible to the collector
  // (why incremental update *needs* its barrier).
  ObjRef A = node(), B = node();
  IncrementalUpdateMarker M(H);
  M.beginMarking({A});
  while (!M.markStep(8))
    ; // A fully scanned (a is null)
  link(A, 0, B); // no recordWrite
  M.finishMarking({A});
  EXPECT_FALSE(H.isMarked(B));
}

TEST_F(GcFixture, IncUpdateFinalRootRescanCatchesRootStores) {
  ObjRef A = node(), B = node();
  IncrementalUpdateMarker M(H);
  M.beginMarking({A});
  while (!M.markStep(8))
    ;
  // B becomes reachable only through a root at pause time.
  M.finishMarking({A, B});
  EXPECT_TRUE(H.isMarked(B));
}

TEST_F(GcFixture, IncUpdateNewObjectsNeedExamination) {
  // Objects allocated during IU marking start unmarked and must be found
  // through dirty cards or roots — the cost SATB avoids (Section 1).
  ObjRef A = node();
  IncrementalUpdateMarker M(H);
  M.beginMarking({A});
  ObjRef New = node();
  EXPECT_FALSE(H.isMarked(New));
  link(A, 0, New);
  M.recordWrite(A);
  M.finishMarking({A});
  EXPECT_TRUE(H.isMarked(New));
}

TEST_F(GcFixture, CardTableBasics) {
  CardTable T;
  EXPECT_FALSE(T.anyDirty());
  T.dirty(1);
  T.dirty(500);
  EXPECT_TRUE(T.isDirty(1 >> CardTable::CardShift));
  EXPECT_TRUE(T.isDirty(500 >> CardTable::CardShift));
  EXPECT_TRUE(T.anyDirty());
  EXPECT_TRUE(T.testAndClean(1 >> CardTable::CardShift));
  EXPECT_TRUE(T.testAndClean(500 >> CardTable::CardShift));
  EXPECT_FALSE(T.testAndClean(500 >> CardTable::CardShift));
  EXPECT_FALSE(T.anyDirty());
}
