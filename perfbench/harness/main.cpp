//===- perfbench/harness/main.cpp - Harness entry point -------------------===//
///
/// \file
///   perfbench_harness --workload <name> --seed <n> --seconds <s>
///                     --trace <0|1> --expected <file> [--tiny]
///   perfbench_harness --write-expected <file>
///
/// Prints one line "config {...}" (seed, host, build type, every pinned
/// knob) and, last, the result object
/// {"correct", "attempted", "failed", "metrics"}. perfbench/run.py builds
/// the harness and is the command BENCHMARK.json names.
///
//===----------------------------------------------------------------------===//

#include "Common.h"

#include <cmath>
#include <cpuid.h>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

using namespace perfbench;

double perfbench::peakRssMb() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return double(U.ru_maxrss) / 1024.0; // ru_maxrss is KiB on Linux
}

void perfbench::releaseFreedMemory() { malloc_trim(0); }

namespace {

/// The processor brand string, from CPUID (no file is read).
std::string cpuModel() {
  unsigned Regs[12] = {};
  if (__get_cpuid_max(0x80000000, nullptr) < 0x80000004)
    return "unknown";
  for (unsigned Leaf = 0; Leaf != 3; ++Leaf)
    __get_cpuid(0x80000002 + Leaf, &Regs[4 * Leaf], &Regs[4 * Leaf + 1],
                &Regs[4 * Leaf + 2], &Regs[4 * Leaf + 3]);
  char Brand[sizeof(Regs) + 1] = {};
  std::memcpy(Brand, Regs, sizeof(Regs));
  std::string S = Brand;
  size_t B = S.find_first_not_of(' '), E = S.find_last_not_of(' ');
  return B == std::string::npos ? "unknown" : S.substr(B, E - B + 1);
}

/// CPUs this process may run on, as `nproc` reports them.
int usableCpus() {
  cpu_set_t Set;
  CPU_ZERO(&Set);
  return sched_getaffinity(0, sizeof(Set), &Set) == 0 ? CPU_COUNT(&Set) : 0;
}

std::string quoted(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    if (static_cast<unsigned char>(C) >= 0x20)
      Out += C;
  }
  return Out + '"';
}

std::string number(double V) {
  if (!std::isfinite(V))
    V = 0.0;
  char Buf[40];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_harness --workload "
               "table1_idle|table1_marking|server_gen --seed N --seconds S "
               "--trace 0|1 --expected FILE [--tiny]\n"
               "       perfbench_harness --write-expected FILE\n");
  return 2;
}

} // namespace

int main(int argc, char **argv) {
  Options O;
  std::string WriteExpected;
  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    const char *V = I + 1 < argc ? argv[I + 1] : nullptr;
    if (A == "--tiny") {
      O.Tiny = true;
      continue;
    }
    if (!V)
      return usage();
    ++I;
    if (A == "--workload")
      O.Workload = V;
    else if (A == "--seed")
      O.Seed = std::strtoull(V, nullptr, 10);
    else if (A == "--seconds")
      O.Seconds = std::atof(V);
    else if (A == "--trace")
      O.Trace = std::strcmp(V, "0") != 0;
    else if (A == "--expected")
      O.ExpectedPath = V;
    else if (A == "--write-expected")
      WriteExpected = V;
    else
      return usage();
  }
  if (!WriteExpected.empty())
    return writeTable1Expected(WriteExpected) ? 0 : 1;
  if (O.Seconds <= 0)
    return usage();

  Result R;
  if (O.Workload == "table1_idle")
    R = runTable1(O, /*Marking=*/false);
  else if (O.Workload == "table1_marking")
    R = runTable1(O, /*Marking=*/true);
  else if (O.Workload == "server_gen")
    R = runServer(O);
  else
    return usage();

  std::string Config = "{\"workload\": " + quoted(O.Workload) +
                       ", \"seed\": " + std::to_string(O.Seed) +
                       ", \"trace\": " + (O.Trace ? "1" : "0") +
                       ", \"seconds\": " + number(O.Seconds) +
                       ", \"tiny\": " + (O.Tiny ? "true" : "false") +
                       ", \"host\": {\"nproc\": " +
                       std::to_string(usableCpus()) +
                       ", \"cpu\": " + quoted(cpuModel()) +
                       "}, \"build_type\": " + quoted(PERFBENCH_BUILD_TYPE) +
#ifdef SATB_NO_JUSTIFICATION_CHECK
                       ", \"justification_audit\": false" +
#else
                       ", \"justification_audit\": true" +
#endif
                       ", \"pinned\": {";
  for (size_t I = 0; I != R.Config.size(); ++I)
    Config += (I ? ", " : "") + quoted(R.Config[I].first) + ": " +
              quoted(R.Config[I].second);
  Config += "}}";
  std::printf("config %s\n", Config.c_str());

  std::string Out = std::string("{\"correct\": ") +
                    (R.Failed == 0 && R.InvariantsHold && R.Attempted > 0
                         ? "true"
                         : "false") +
                    ", \"attempted\": " + std::to_string(R.Attempted) +
                    ", \"failed\": " + std::to_string(R.Failed) +
                    ", \"metrics\": {";
  for (size_t I = 0; I != R.Metrics.size(); ++I)
    Out += (I ? ", " : "") + quoted(R.Metrics[I].Name) +
           ": {\"value\": " + number(R.Metrics[I].Value) +
           ", \"unit\": " + quoted(R.Metrics[I].Unit) + "}";
  Out += "}}";
  std::printf("%s\n", Out.c_str());
  return 0;
}
