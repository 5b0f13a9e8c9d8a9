/// \file bench_ablation_optimality.cpp
/// Ablation benches for the design choices DESIGN.md calls out:
///
/// A. Permutation optimality (Theorem 3 / Corollaries 1-3): for each
///    fundamental method, measure cost on a real graph under the five
///    named permutations, the OPT permutation built by Algorithm 1, and
///    its complement (the predicted worst case). OPT must match the best
///    named order; the complement must be the worst.
///
/// B. Preprocessing ablation (Section 2.4): full three-step preprocessing
///    vs orientation-without-relabeling (2x penalty on T1-class terms) vs
///    no orientation at all (the classic vertex iterator, 3x vs theta_U
///    and far more vs theta_D).

#include <cstdio>
#include <iostream>

#include "bench/bench_common.h"
#include "src/algo/baselines.h"
#include "src/algo/registry.h"
#include "src/core/h_function.h"
#include "src/order/optimal.h"
#include "src/order/pipeline.h"
#include "src/util/table_printer.h"

int main() {
  using namespace trilist;
  const size_t n = trilist_bench::ScaledN(1000000, 100000);
  Rng rng(trilist_bench::Seed());
  const Graph graph = trilist_bench::MakeBenchGraph(
      trilist_bench::ParetoSpec(n, 1.7, TruncationKind::kRoot), &rng);

  int failures = 0;
  auto check = [&](bool ok, const char* what) {
    std::printf("  [%s] %s\n", ok ? "ok" : "FAIL", what);
    if (!ok) ++failures;
  };

  // -------------------------------------------------------------------
  // A. Permutation optimality.
  // -------------------------------------------------------------------
  std::cout << "=== Ablation A: named permutations vs Algorithm-1 OPT "
               "(alpha=1.7 root, n=" << n << ") ===\n";
  const PermutationKind named[] = {
      PermutationKind::kAscending, PermutationKind::kDescending,
      PermutationKind::kRoundRobin,
      PermutationKind::kComplementaryRoundRobin, PermutationKind::kUniform};
  TablePrinter table({"method", "theta_A", "theta_D", "theta_RR",
                      "theta_CRR", "theta_U", "OPT", "OPT-complement"});
  for (Method m : FundamentalMethods()) {
    std::vector<std::string> row = {MethodName(m)};
    double best_named = 0.0;
    double worst_named = 0.0;
    for (PermutationKind kind : named) {
      const OrientedGraph og = OrientNamed(graph, kind, &rng);
      const double cost = MethodCostTotal(og, m);
      row.push_back(FormatOps(cost));
      if (best_named == 0.0 || cost < best_named) best_named = cost;
      if (cost > worst_named) worst_named = cost;
    }
    const Permutation opt = OptimalPermutation(HOf(m), true, n);
    const double opt_cost = MethodCostTotal(Orient(graph, opt), m);
    const double comp_cost =
        MethodCostTotal(Orient(graph, opt.Complement()), m);
    row.push_back(FormatOps(opt_cost));
    row.push_back(FormatOps(comp_cost));
    table.AddRow(std::move(row));

    char buf[96];
    std::snprintf(buf, sizeof(buf),
                  "%s: OPT within 2%% of best named order", MethodName(m));
    check(opt_cost <= best_named * 1.02, buf);
    std::snprintf(buf, sizeof(buf),
                  "%s: OPT-complement at least as bad as worst named",
                  MethodName(m));
    check(comp_cost >= worst_named * 0.98, buf);
  }
  table.Print(std::cout);

  // -------------------------------------------------------------------
  // B. Preprocessing ablation.
  // -------------------------------------------------------------------
  std::cout << "\n=== Ablation B: preprocessing levels (Section 2.4) ===\n";
  // The classic (non-oriented) iterator pays a binary search per candidate
  // pair, so part B runs on a smaller graph.
  const size_t n_b = trilist_bench::ScaledN(100000, 30000);
  const Graph graph_b = trilist_bench::MakeBenchGraph(
      trilist_bench::ParetoSpec(n_b, 1.7, TruncationKind::kRoot), &rng);
  const OrientedGraph og_d = OrientNamed(graph_b, PermutationKind::kDescending);
  const DirectedEdgeSet arcs(og_d);
  CountingSink sink;
  const OpCounts t1_full = RunMethod(Method::kT1, og_d, arcs, &sink);
  const OpCounts t1_norelabel = RunT1NoRelabel(og_d, arcs, &sink);
  const OpCounts classic = RunClassicVertexIterator(graph_b, &sink);
  const OpCounts e1_full = RunMethod(Method::kE1, og_d, &sink);
  const OpCounts e1_norelabel = RunE1NoRelabel(og_d, &sink);

  TablePrinter prep({"configuration", "T1-class ops", "E1-class ops"});
  prep.AddRow({"relabel + orient (full framework)",
               FormatCount(static_cast<uint64_t>(t1_full.candidate_checks)),
               FormatCount(static_cast<uint64_t>(e1_full.PaperCost()))});
  prep.AddRow({"orient only (no relabeling)",
               FormatCount(static_cast<uint64_t>(
                   t1_norelabel.candidate_checks)),
               FormatCount(static_cast<uint64_t>(e1_norelabel.PaperCost()))});
  prep.AddRow({"no orientation (classic VI)",
               FormatCount(static_cast<uint64_t>(classic.candidate_checks)),
               "-"});
  prep.Print(std::cout);

  check(t1_norelabel.candidate_checks == 2 * t1_full.candidate_checks,
        "omitting relabeling exactly doubles T1's candidate count");
  check(classic.candidate_checks > 3 * t1_full.candidate_checks,
        "classic (non-oriented) VI pays > 3x the full framework");
  std::printf("%s\n\n", failures == 0 ? "all checks passed"
                                      : "SOME CHECKS FAILED");
  return failures == 0 ? 0 : 1;
}
