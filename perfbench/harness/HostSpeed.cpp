//===- perfbench/harness/HostSpeed.cpp - Host speed calibration -----------===//
///
/// \file
/// A fixed loop shaped like the engine: computed-goto dispatch over a
/// repeating 64-op program, loads and stores within a 1 MiB table, and
/// object-sized streaming stores over an 8 MiB ring (about half a byte
/// per op, the Table 1 programs' allocation rate per step). The benchmark
/// owns it, so no change to the repository's code can change its speed;
/// only the host's speed can. Its buffers are allocated per call and
/// released before it returns, so it never raises the peak resident set
/// of a run above the workload's own.
///
//===----------------------------------------------------------------------===//

#include "Common.h"

using namespace perfbench;

/// Keeps the loop's result observable, so it cannot be optimized away.
static volatile uint64_t CalibrationSink;

double perfbench::calibrateNsPerOp() {
  constexpr size_t Ops = 16'000'000;
  constexpr uint64_t TableMask = (1u << 17) - 1, RingMask = (1u << 20) - 1;
  static const std::vector<uint8_t> Code = [] {
    std::vector<uint8_t> C(64);
    Rng R(42);
    for (uint8_t &Op : C)
      Op = static_cast<uint8_t>(R.next() % 7);
    C[13] = C[45] = 7; // two streaming stores per pass
    return C;
  }();
  releaseFreedMemory();
  std::vector<uint64_t> Table(TableMask + 1, 1), Ring(RingMask + 1, 0);
  static const void *const Labels[] = {&&Load,  &&Store, &&Xor,  &&Mul,
                                       &&Add,   &&Branch, &&Hash, &&Stream};
  uint64_t Acc = 12345, Bump = 0;
  size_t I = 0;
  double T0 = nowUs();
#define NEXT()                                                                 \
  do {                                                                         \
    if (++I == Ops)                                                            \
      goto Done;                                                               \
    goto *Labels[Code[I & 63]];                                                \
  } while (0)
  goto *Labels[Code[0]];
Load:
  Acc += Table[Acc & TableMask];
  NEXT();
Store:
  Table[(Acc >> 3) & TableMask] = Acc;
  NEXT();
Xor:
  Acc ^= Acc << 13;
  Acc ^= Acc >> 7;
  NEXT();
Mul:
  Acc = Acc * 3 + 1;
  NEXT();
Add:
  Acc += I;
  NEXT();
Branch:
  if (Acc & 1)
    Acc += 5;
  else
    Acc >>= 1;
  NEXT();
Hash:
  Acc = (Acc * 2654435761u) >> 3;
  NEXT();
Stream:
  Ring[Bump & RingMask] = Acc;
  Ring[(Bump + 1) & RingMask] = 0;
  Bump += 2;
  NEXT();
#undef NEXT
Done:
  double Us = nowUs() - T0;
  CalibrationSink = Acc;
  Table = {};
  Ring = {};
  releaseFreedMemory();
  return Us * 1e3 / double(Ops);
}
