//===- bench/table1_dynamic_elimination.cpp - Paper Table 1 ---------------===//
///
/// \file
/// Regenerates Table 1, "Analysis results: dynamic": for each workload,
/// the total dynamic barrier executions, the percentage eliminated by the
/// field+array analyses (inline limit 100, the paper's configuration), the
/// potentially-pre-null upper bound, the field/array split, and the
/// per-kind elimination rates. The paper's own numbers are printed beside
/// ours for shape comparison (absolute counts differ: our workloads are
/// synthetic stand-ins for SPEC, see DESIGN.md).
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

using namespace satb;
using namespace satb::bench;

namespace {

struct PaperRow {
  double TotalM, Elim, Potential;
  int FieldPct, ArrayPct;
  double FieldElim, ArrayElim;
};

// Table 1 of the paper, in row order.
const PaperRow PaperRows[] = {
    {7.9, 50.5, 75.0, 51, 49, 99.7, 0.0},  // jess
    {30.1, 10.2, 28.2, 10, 90, 99.4, 0.0}, // db
    {19.9, 32.8, 38.5, 92, 8, 33.9, 20.5}, // javac
    {3.0, 61.9, 91.6, 41, 59, 72.0, 54.7}, // mtrt
    {10.7, 41.0, 54.0, 74, 26, 55.5, 0.0}, // jack
    {297.8, 25.6, 53.4, 69, 31, 37.0, 0.0} // jbb
};

} // namespace

int main() {
  int64_t Scale = benchScale(20000);
  CompilerOptions Opts; // inline limit 100, mode A: the paper's setup
  Opts.Interp = InterpMode::Fast;

  std::printf("Table 1: Analysis results, dynamic  (scale %lld, fast engine; "
              "ours vs. paper '[p]')\n",
              static_cast<long long>(Scale));
  printRule(98);
  std::printf("%-6s %10s %7s %7s %9s %9s %9s %9s %9s %9s\n", "bench",
              "total", "%elim", "[p]", "%potent", "[p]", "fld/arr", "[p]",
              "f/a %el", "[p]");
  printRule(98);

  std::vector<Workload> All = allWorkloads();
  for (size_t I = 0; I != All.size(); ++I) {
    const Workload &W = All[I];
    WorkloadRun R = runWorkload(W, Opts, Scale);
    const BarrierStats::Summary &S = R.Stats;
    const PaperRow &P = PaperRows[I];
    char Split[16], PSplit[16], PerKind[24], PPerKind[24];
    std::snprintf(Split, sizeof(Split), "%d/%d",
                  static_cast<int>(100.0 * S.FieldExecs / S.TotalExecs + .5),
                  static_cast<int>(100.0 * S.ArrayExecs / S.TotalExecs + .5));
    std::snprintf(PSplit, sizeof(PSplit), "%d/%d", P.FieldPct, P.ArrayPct);
    std::snprintf(PerKind, sizeof(PerKind), "%5.1f/%4.1f", S.pctFieldElided(),
                  S.pctArrayElided());
    std::snprintf(PPerKind, sizeof(PPerKind), "%5.1f/%4.1f", P.FieldElim,
                  P.ArrayElim);
    std::printf("%-6s %10llu %6.1f%% %6.1f%% %8.1f%% %8.1f%% %9s %9s %9s "
                "%9s\n",
                W.Name.c_str(),
                static_cast<unsigned long long>(S.TotalExecs), S.pctElided(),
                P.Elim, S.pctPotentiallyPreNull(), P.Potential, Split,
                PSplit, PerKind, PPerKind);
  }
  printRule(98);
  std::printf("Shape checks (paper Section 4.2): db lowest elimination; "
              "mtrt highest, with the\nmajority of its eliminations array "
              "stores; array elimination nonzero only in\njavac and mtrt; "
              "every elimination within its potentially-pre-null bound; "
              "zero\ndynamic violations (asserted by the harness).\n");
  return 0;
}
