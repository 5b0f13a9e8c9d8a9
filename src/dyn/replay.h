#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/dyn/mutation_log.h"
#include "src/graph/graph.h"
#include "src/order/pipeline.h"
#include "src/util/status.h"

/// \file replay.h
/// The dynamic-graph exactness proof: replay a recorded mutation log
/// against a base graph through the incremental maintenance path
/// (src/dyn/dyn_graph.h) and cross-check the result two independent
/// ways:
///
///   1. **Counts.** The incrementally maintained triangle count must
///      equal a from-scratch recount of the final graph by two different
///      listing methods (T1 and T2 through the registry — the same code
///      path served queries run).
///   2. **Bytes.** WriteTlgFile of the materialized final dynamic state
///      must be bit-identical to WriteTlgFile of a Graph rebuilt via
///      FromEdges from the final edge list — proving the overlay/merge
///      machinery leaves no trace in the container.
///
/// Any divergence is a bug in the incremental path, never "expected
/// drift": both checks are exact or they fail.

namespace trilist::dyn {

struct ReplayOptions {
  /// Mutations applied per DynGraph::Apply call.
  size_t batch_size = 256;
  /// Threads for the from-scratch recounts (counts identical for any).
  int threads = 1;
  /// Also run the compaction bit-match (check 2). Needs the two paths.
  bool verify_tlg = true;
  /// Where the compacted container is written (check 2).
  std::string compact_path;
  /// Where the from-scratch container is written (check 2).
  std::string fresh_path;
  /// Orientations embedded in both containers (byte-compared too).
  std::vector<OrientSpec> orientations;
  /// Orientation used for the from-scratch recounts.
  OrientSpec recount_orient;
  /// Compact the DynGraph mid-replay whenever the overlay crosses this
  /// fraction of the base arcs (0 disables; exercises Compact under
  /// churn so the verifier covers the production trigger).
  double compact_overlay_fraction = 0;
  size_t compact_min_arcs = 1;
};

struct ReplayReport {
  uint64_t mutations = 0;         ///< log entries replayed.
  uint64_t applied = 0;           ///< non-noop inserts + deletes.
  uint64_t noops = 0;             ///< already-present / already-absent.
  uint64_t batches = 0;           ///< Apply calls issued.
  uint64_t compactions = 0;       ///< mid-replay compactions triggered.
  uint64_t final_nodes = 0;
  uint64_t final_edges = 0;
  uint64_t incremental_triangles = 0;  ///< the maintained running count.
  uint64_t recount_t1 = 0;        ///< from-scratch T1 on the final graph.
  uint64_t recount_t2 = 0;        ///< from-scratch T2 on the final graph.
  bool counts_match = false;      ///< incremental == T1 == T2.
  bool tlg_checked = false;       ///< check 2 ran (verify_tlg && paths).
  bool tlg_bitmatch = false;      ///< compacted bytes == fresh bytes.
  int64_t comparisons = 0;        ///< measured merge comparisons (cost).
  double predicted_ops = 0;       ///< Σ PredictedMutationOps over the log.
  double apply_wall_s = 0;        ///< incremental maintenance wall time.
  double recount_wall_s = 0;      ///< one full T1 recount wall time.
};

/// True iff both checks the options requested passed.
bool ReplayPassed(const ReplayReport& report);

/// Replays `log` over `base` in batches and runs the checks above.
/// Status errors are infrastructure failures (bad mutation, unwritable
/// path); a *mismatch* is not an error — it comes back as a report with
/// counts_match / tlg_bitmatch false so callers can print both sides.
Result<ReplayReport> ReplayVerify(const Graph& base,
                                  std::span<const EdgeMutation> log,
                                  const ReplayOptions& options = {});

}  // namespace trilist::dyn
