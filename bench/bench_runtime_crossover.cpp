/// \file bench_runtime_crossover.cpp
/// The Section 2.4 decision in practice: scanning edge iterators execute
/// more operations than vertex iterators (w_n = cost(E1)/cost(T1) > 1)
/// but each operation is cheaper. On the paper's SIMD hardware the
/// break-even is w_n ~ 95; this bench measures *end-to-end wall time* of
/// T1 vs E1 (and the LEI variant L2) on real generated graphs across
/// alpha, reporting the operation ratio w_n, the time ratio, and which
/// method wins on this machine — connecting Table 3's microbenchmark to
/// the cost model's prediction. Each alpha's graph + orientation + runs
/// execute through the shared RunPipeline, which also reuses one
/// orientation across the three methods. Each wall is the minimum of
/// kRepeats listing passes, printed with the mean's excess over it, so
/// a winner is not named from one noisy sample.

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <string>

#include "bench/bench_common.h"
#include "src/util/table_printer.h"

namespace {

/// Listing passes per method; the runner keeps the fastest.
constexpr int kRepeats = 5;

/// "0.123s +4%": the min-of-kRepeats wall and how far the mean lies
/// above it.
std::string WallCell(const trilist::MethodReport& m) {
  const double mean = m.wall_total_s / kRepeats;
  const double spread = m.wall_s > 0 ? (mean / m.wall_s - 1) * 100 : 0.0;
  return trilist::FormatNumber(m.wall_s, 3) + "s +" +
         trilist::FormatNumber(spread, 0) + "%";
}

}  // namespace

int main() {
  using namespace trilist;
  const size_t n = trilist_bench::ScaledN(1000000, 200000);
  std::cout << "=== Runtime crossover: T1 vs E1 vs L2 under theta_D "
               "(n=" << n << ") ===\n";

  std::cout << "times: min of " << kRepeats
            << " passes, +% = mean above min\n";
  TablePrinter table({"alpha", "w_n = ops(E1)/ops(T1)", "T1 time", "E1 time",
                      "L2 time", "winner"});
  for (double alpha : {1.5, 1.7, 2.1, 3.0}) {
    RunSpec spec;
    spec.source = GraphSource::FromGenerator(
        trilist_bench::ParetoSpec(n, alpha, TruncationKind::kRoot));
    spec.methods = {Method::kT1, Method::kE1, Method::kL2};
    spec.seed = trilist_bench::Seed();
    spec.repeats = kRepeats;
    auto report = RunPipeline(spec);
    if (!report.ok()) {
      std::fprintf(stderr, "run failed: %s\n",
                   report.status().ToString().c_str());
      return 1;
    }
    const MethodReport& t1 = report->methods[0];
    const MethodReport& e1 = report->methods[1];
    const MethodReport& l2 = report->methods[2];
    const double t1_ops = static_cast<double>(t1.ops.PaperCost());
    const double wn =
        t1_ops > 0 ? static_cast<double>(e1.ops.PaperCost()) / t1_ops : 0.0;
    const double best = std::min({t1.wall_s, e1.wall_s, l2.wall_s});
    const char* winner = best == e1.wall_s ? "E1"
                         : best == t1.wall_s ? "T1"
                                             : "L2";
    table.AddRow({FormatNumber(alpha, 1), FormatNumber(wn, 2), WallCell(t1),
                  WallCell(e1), WallCell(l2), winner});
  }
  table.Print(std::cout);
  std::cout << "\nreading: E1 runs w_n times more operations but each "
               "merge step is far cheaper than a hash probe (Table 3); "
               "the winner flips when w_n exceeds this machine's per-op "
               "speed ratio.\n\n";
  return 0;
}
