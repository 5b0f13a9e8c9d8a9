#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "src/algo/cost.h"
#include "src/algo/fundamental.h"
#include "src/obs/degree_profile.h"
#include "src/util/metrics.h"
#include "src/xm/partitioned.h"  // IoStats

/// \file run_report.h
/// Structured result of one Runner execution: where the time went (per
/// pipeline stage), what each method produced (triangles, paper-metric
/// operation counters, wall time), and what the process consumed (peak
/// RSS, CPU seconds, thread utilization). Exports as machine-readable
/// JSON (`trilist_cli run --report json`, golden-tested schema) or as an
/// aligned console table.

namespace trilist {

/// Version of the JSON schema emitted by RunReport::ToJson. Bump when
/// fields are renamed or removed (additions are compatible).
///
/// v2 (additive): "build" provenance object, "exec.requested_threads",
/// and the "degree_profiles" array (empty unless RunSpec::degree_profile).
///
/// v3 (additive): the "io" object — the out-of-core ledger of a
/// memory-budgeted run (RunSpec::mem_budget_bytes > 0): partition count
/// and the src/xm IoStats bytes. All-zero with "partitioned": false on
/// in-memory runs.
///
/// v4 (additive): the "plan" object — the query planner's audit trail
/// when any RunSpec::plan axis was free: which axes were auto, what was
/// chosen, the Section-3 predicted ops/cost of the choice, the measured
/// ops/cost of the actual run (same weighting, so regret is a plain
/// ratio), and the candidate count. "planned": false with empty/zero
/// fields on fully pinned runs.
///
/// v5 (additive): "io.evictions" — the MADV_DONTNEED calls a budgeted
/// run over a demand-paged `.tlg` issued behind its scan (0 elsewhere).
inline constexpr int kRunReportSchemaVersion = 5;

/// \brief Result of one method's listing pass (best of RunSpec::repeats).
struct MethodReport {
  Method method = Method::kE1;
  uint64_t triangles = 0;    ///< triangles listed (identical across repeats).
  /// Intersection backend the method's kernels ran on ("merge" or
  /// "bitmap"); "none" for families that never intersect (T*, L*).
  std::string intersect_backend = "none";
  OpCounts ops;              ///< operation counters of one pass.
  /// Closed-form cost of this method on the realized orientation (Tables
  /// 1-2 evaluated on the oriented degrees) — the prediction the measured
  /// paper-metric counters should match.
  double formula_cost = 0;
  double wall_s = 0;         ///< best listing wall time across repeats.
  double wall_total_s = 0;   ///< summed listing wall across repeats.
  bool parallel = false;     ///< ran on the parallel engine.
};

/// \brief The query planner's audit trail for one run (schema v4 "plan").
struct PlanReport {
  bool planned = false;    ///< any axis was resolved by the planner.
  bool auto_method = false;
  bool auto_order = false;
  bool auto_intersect = false;
  /// The chosen configuration (names, for the JSON document).
  std::vector<std::string> methods;
  std::string order;
  std::string intersect;
  /// Predicted price of the chosen plan (paper-metric ops and weighted
  /// comparable cost, summed over methods).
  double predicted_ops = 0;
  double predicted_cost = 0;
  /// The same two numbers measured from the run's operation counters,
  /// weighted identically — predicted vs measured is the model audit.
  double measured_ops = 0;
  double measured_cost = 0;
  int candidates = 0;      ///< configurations the planner priced.
};

/// \brief Everything the Runner measured about one pipeline execution.
struct RunReport {
  /// Human-readable description of the graph source ("pareto(n=...,
  /// alpha=...)", a file path, or "in-memory").
  std::string source;
  size_t num_nodes = 0;
  size_t num_edges = 0;

  /// Preprocessing configuration.
  std::string order;               ///< permutation name ("theta_D", ...).
  uint64_t orient_seed = 0;        ///< OrientSpec seed (kUniform only).
  bool cached_orientation = false; ///< reused a `.tlg`-embedded (O, theta).

  /// Execution configuration. `threads` is the *resolved* worker count
  /// the run actually used (a request of 0 = "auto" resolves to the
  /// hardware width before any dispatch or utilization math);
  /// `requested_threads` preserves what the spec asked for.
  int threads = 1;
  int requested_threads = 1;
  int repeats = 1;
  /// Requested intersection backend of the run (ExecPolicy::intersect).
  std::string intersect_backend = "merge";
  /// Widest SIMD level the CPU supports (cpu_features.h): provenance of
  /// the host, which no kernel dispatches on.
  std::string simd_level = "scalar";

  /// Planner audit trail (PlanFlags runs only; planned = false otherwise).
  PlanReport plan;

  /// Per-stage wall clocks, in pipeline order: "load" or "generate",
  /// "order", "orient", plus "arcs" (directed-arc set build, vertex
  /// iterators only) and "list".
  StageClock stages;

  /// Per-method results, in RunSpec::methods order.
  std::vector<MethodReport> methods;

  /// Degree-bucketed model-residual histograms, one per method, in
  /// RunSpec::methods order; filled only when RunSpec::degree_profile.
  std::vector<obs::DegreeProfile> degree_profiles;

  /// Build provenance of the binary that produced the report (from
  /// GetBuildInfo(); tests substitute fixed values for goldens).
  std::string build_version;
  std::string build_git_hash;
  std::string build_compiler;
  std::string build_type;

  /// Out-of-core execution (RunSpec::mem_budget_bytes > 0): the budget
  /// the listing stage was held to, the partition count of the label
  /// space, the I/O ledger summed across methods, and the page evictions
  /// issued over a demand-paged `.tlg`.
  bool partitioned = false;
  int64_t mem_budget_bytes = 0;
  int64_t io_partitions = 0;
  IoStats io;
  int64_t io_evictions = 0;

  /// Process resource gauges, sampled across the whole run.
  size_t peak_rss_bytes = 0;
  double cpu_s = 0;
  /// CPU seconds / (listing wall * threads): ~1.0 = fully busy workers.
  double utilization = 0;

  /// Sum of stage walls (the run's accounted wall time).
  double TotalWallSeconds() const { return stages.Total(); }

  /// Triangle count of the first method (all methods agree on any valid
  /// run; convenience for single-method callers).
  uint64_t Triangles() const {
    return methods.empty() ? 0 : methods.front().triangles;
  }

  /// Machine-readable JSON document (schema kRunReportSchemaVersion;
  /// deterministic key order, golden-tested in run_report_test).
  std::string ToJson() const;

  /// Aligned human-readable tables (stages + per-method results).
  void PrintTable(std::ostream& out) const;
};

}  // namespace trilist
