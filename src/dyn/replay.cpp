#include "src/dyn/replay.h"

#include <algorithm>
#include <fstream>
#include <utility>

#include "src/algo/cost.h"
#include "src/dyn/dyn_graph.h"
#include "src/graph/binfmt.h"
#include "src/obs/trace.h"
#include "src/run/runner.h"
#include "src/util/timer.h"

namespace trilist::dyn {

namespace {

Result<std::string> ReadAllBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::InvalidArgument("cannot open '" + path +
                                   "' for reading");
  }
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  if (in.bad()) {
    return Status::Internal("read failed on '" + path + "'");
  }
  return bytes;
}

}  // namespace

bool ReplayPassed(const ReplayReport& report) {
  if (!report.counts_match) return false;
  if (report.tlg_checked && !report.tlg_bitmatch) return false;
  return true;
}

Result<ReplayReport> ReplayVerify(const Graph& base,
                                  std::span<const EdgeMutation> log,
                                  const ReplayOptions& options) {
  obs::TraceSpan span("dyn_replay");
  span.Arg("mutations", static_cast<int64_t>(log.size()));
  const size_t batch_size = std::max<size_t>(1, options.batch_size);

  ReplayReport report;
  report.mutations = log.size();

  // Incremental pass: batched Apply, optional mid-replay compactions so
  // the verifier exercises the production trigger, not just the final
  // state.
  Timer apply_timer;
  DynGraph dyn = DynGraph::FromBase(base);
  for (size_t pos = 0; pos < log.size(); pos += batch_size) {
    const size_t len = std::min(batch_size, log.size() - pos);
    Result<ApplyResult> applied = dyn.Apply(log.subspan(pos, len));
    if (!applied.ok()) return applied.status();
    report.applied += applied->applied_inserts + applied->applied_deletes;
    report.noops += applied->noops;
    report.comparisons += applied->comparisons;
    report.predicted_ops += applied->predicted_ops;
    ++report.batches;
    if (options.compact_overlay_fraction > 0 &&
        dyn.ShouldCompact(options.compact_overlay_fraction,
                          options.compact_min_arcs)) {
      dyn.Compact();
      ++report.compactions;
    }
  }
  report.apply_wall_s = apply_timer.ElapsedSeconds();
  report.final_nodes = dyn.num_nodes();
  report.final_edges = dyn.num_edges();
  report.incremental_triangles = dyn.triangles();

  // Check 1: from-scratch recounts of the final graph, two methods so a
  // bug in either listing path cannot silently confirm itself.
  const Graph final_graph = dyn.MaterializeGraph();
  Timer recount_timer;
  Result<uint64_t> t1 = CountTrianglesWithMethod(
      final_graph, Method::kT1, options.recount_orient, options.threads);
  if (!t1.ok()) return t1.status();
  report.recount_wall_s = recount_timer.ElapsedSeconds();
  Result<uint64_t> t2 = CountTrianglesWithMethod(
      final_graph, Method::kT2, options.recount_orient, options.threads);
  if (!t2.ok()) return t2.status();
  report.recount_t1 = *t1;
  report.recount_t2 = *t2;
  report.counts_match = report.incremental_triangles == *t1 && *t1 == *t2;

  // Check 2: compacted container vs a from-scratch convert of the final
  // edge list, byte for byte. The fresh side deliberately rebuilds via
  // FromEdges so the two containers share no in-memory state.
  if (options.verify_tlg && !options.compact_path.empty() &&
      !options.fresh_path.empty()) {
    report.tlg_checked = true;
    TlgWriteOptions write;
    write.orientations = options.orientations;
    write.threads = options.threads;
    TRILIST_RETURN_NOT_OK(
        WriteTlgFile(final_graph, options.compact_path, write));

    Result<Graph> fresh = Graph::FromEdges(final_graph.num_nodes(),
                                           final_graph.EdgeList());
    if (!fresh.ok()) return fresh.status();
    TRILIST_RETURN_NOT_OK(
        WriteTlgFile(*fresh, options.fresh_path, write));

    Result<std::string> compact_bytes = ReadAllBytes(options.compact_path);
    if (!compact_bytes.ok()) return compact_bytes.status();
    Result<std::string> fresh_bytes = ReadAllBytes(options.fresh_path);
    if (!fresh_bytes.ok()) return fresh_bytes.status();
    report.tlg_bitmatch = *compact_bytes == *fresh_bytes;
  }
  span.Arg("applied", static_cast<int64_t>(report.applied));
  span.Arg("match", report.counts_match ? int64_t{1} : int64_t{0});
  return report;
}

}  // namespace trilist::dyn
