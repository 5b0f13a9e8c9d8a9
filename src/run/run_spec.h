#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/algo/cost.h"
#include "src/algo/exec_policy.h"
#include "src/degree/truncated.h"
#include "src/graph/graph.h"
#include "src/order/pipeline.h"

/// \file run_spec.h
/// Declarative description of one end-to-end paper pipeline run:
///
///   acquire graph -> permutation theta -> relabel + orient (Section 2)
///   -> run method(s) -> account cost (Section 3)
///
/// Every front end (CLI subcommands, benches, examples, the simulation
/// harness) used to hand-roll this wiring with slightly different seeds
/// and timers; a RunSpec names the run once and the Runner
/// (src/run/runner.h) executes it uniformly, with per-stage telemetry.

namespace trilist {

/// Which random-graph generator realizes a sampled degree sequence.
enum class GeneratorKind {
  kResidual,       ///< exact realization (Section 7.2, the paper's choice).
  kConfiguration,  ///< classic stub matching (inexact for heavy tails).
  kGnp,            ///< Erdos-Renyi control; ignores the Pareto parameters.
};

/// Name of a generator kind ("residual", ...).
const char* GeneratorKindName(GeneratorKind kind);

/// \brief Parameters of a synthetic graph: the paper's truncated-Pareto
/// family realized by one of the generators.
struct GenerateSpec {
  size_t n = 100000;        ///< nodes.
  double alpha = 1.7;       ///< Pareto shape.
  double beta = -1.0;       ///< Pareto scale; < 0 = the 30(alpha-1) default.
  TruncationKind truncation = TruncationKind::kRoot;
  GeneratorKind generator = GeneratorKind::kResidual;
  /// For kGnp only: edge probability; < 0 derives p from the Pareto mean
  /// degree so the control graph matches the family's density.
  double gnp_p = -1.0;
  /// Residual generator: fail on shortfall beyond the odd-sum stub?
  bool strict = true;

  /// The effective beta (resolving the 30(alpha-1) convention).
  double ResolvedBeta() const {
    return beta > 0.0 ? beta : 30.0 * (alpha - 1.0);
  }
};

/// How the Runner obtains the input graph.
enum class GraphSourceKind {
  kGenerate,  ///< sample + realize a GenerateSpec (seeded by RunSpec::seed).
  kFile,      ///< read from disk; `.tlg` containers are detected by magic
              ///< and mmap-loaded, anything else parses as a text edge list.
  kInMemory,  ///< use a caller-provided Graph (cheap span-backed copy).
};

/// \brief One of the three ways to acquire the pipeline's input graph.
struct GraphSource {
  GraphSourceKind kind = GraphSourceKind::kGenerate;
  GenerateSpec gen;   ///< kGenerate parameters.
  std::string path;   ///< kFile path.
  Graph graph;        ///< kInMemory graph (copies share storage).

  /// Source from a synthetic-family description.
  static GraphSource FromGenerator(const GenerateSpec& spec) {
    GraphSource s;
    s.kind = GraphSourceKind::kGenerate;
    s.gen = spec;
    return s;
  }
  /// Source from a file path (text edge list or `.tlg`, sniffed at run
  /// time).
  static GraphSource FromFile(std::string path) {
    GraphSource s;
    s.kind = GraphSourceKind::kFile;
    s.path = std::move(path);
    return s;
  }
  /// Source from an already-loaded graph.
  static GraphSource FromGraph(Graph g) {
    GraphSource s;
    s.kind = GraphSourceKind::kInMemory;
    s.graph = std::move(g);
    return s;
  }
};

/// Which RunSpec axes the cost-model planner (src/run/planner.h) is free
/// to choose. With any flag set, the Runner inserts a "plan" stage that
/// prices the free axes against the realized degree sequence and
/// overrides the corresponding spec fields with the minimum-predicted-
/// cost choice; the pinned fields are honored as-is.
struct PlanFlags {
  bool method = false;     ///< `--method auto`
  bool order = false;      ///< `--order auto`
  bool intersect = false;  ///< `--intersect auto` (planner mode)

  bool Any() const { return method || order || intersect; }
};

/// \brief Full declarative description of a pipeline run.
struct RunSpec {
  /// Input graph.
  GraphSource source;
  /// Preprocessing: the global order O and its seed (kUniform only).
  OrientSpec orient{PermutationKind::kDescending, 0};
  /// Axes the planner resolves at run time (all pinned by default).
  PlanFlags plan;
  /// Methods to run on the oriented graph, in order. Empty = listing is
  /// skipped (orientation-only run, e.g. preprocessing benches).
  std::vector<Method> methods{Method::kE1};
  /// Concurrency; exec.threads > 1 dispatches orientation and the
  /// fundamental methods through the parallel engine (bit-identical
  /// results).
  ExecPolicy exec;
  /// Listing repetitions per method; the report keeps the best wall time
  /// and verifies triangle counts agree across repeats.
  int repeats = 1;
  /// Seed of the generator RNG (kGenerate sources).
  uint64_t seed = 1;
  /// Attach one degree-bucketed model-residual histogram per method
  /// (see src/obs/degree_profile.h) to the report: an O(n) pass over the
  /// oriented degrees after listing, checked against the listing's
  /// paper-metric ops. Nothing is listed twice.
  bool degree_profile = false;
  /// Memory budget for the listing stage, in bytes; 0 (default) runs
  /// fully in memory. When positive, E1/E2 execute through the
  /// partitioned out-of-core executors (src/xm) — other methods are
  /// rejected — and the report carries the realized I/O ledger. Half
  /// the budget funds the resident partition (see ListOnOriented). A
  /// `.tlg` source is opened demand-paged, must embed the requested
  /// orientation, and is evicted behind the scan, so the process stays
  /// under the budget.
  int64_t mem_budget_bytes = 0;
};

}  // namespace trilist
