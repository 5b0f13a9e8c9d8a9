#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/graph/mmap_file.h"
#include "src/run/run_report.h"
#include "src/run/run_spec.h"
#include "src/util/rng.h"
#include "src/util/status.h"

/// \file runner.h
/// The single instrumented executor of the paper pipeline. Every front
/// end — `trilist_cli`, the benches, the examples, the Section 7
/// simulation loop — describes its run as a RunSpec and calls
/// RunPipeline, which:
///
///   1. acquires the graph (generate / text edge list / `.tlg`, reusing a
///      cached orientation embedded in a container when one matches),
///   2. computes the global order theta and the label map   ["order"],
///   3. relabels + orients into the CSR                      ["orient"],
///   4. builds the directed-arc set when a vertex iterator
///      needs it                                             ["arcs"],
///   5. runs every requested method through the registry
///      (serial or parallel engine per ExecPolicy, identical
///      results either way)                                  ["list"],
///   6. with RunSpec::degree_profile, buckets each method's
///      per-node cost (NodeCost on the oriented degrees) and
///      fails with Internal unless it sums to the listed ops  ["profile"],
///
/// and returns a RunReport with per-stage wall clocks, per-method
/// operation counters and process resource gauges. The graph-acquisition
/// helpers are exposed separately so callers with bespoke loops (the
/// simulation harness shares degree sequences across graphs) reuse the
/// same sampling/realization code path.

namespace trilist {

/// Uniform `--threads` semantics for all front ends: values <= 0 mean
/// "all hardware threads", anything else is taken literally.
int ResolveThreads(int threads);

/// Samples an i.i.d. degree sequence from the spec's truncated Pareto and
/// makes it graphic — the first half of every synthetic-graph experiment.
/// Consumes `rng` exactly like the historical Section 7 loop, so existing
/// seeds reproduce bit-identically.
std::vector<int64_t> SampleGraphicDegrees(const GenerateSpec& spec,
                                          Rng* rng);

/// Realizes `degrees` as a simple graph with the spec's generator
/// (kGnp ignores the degrees and draws an Erdos-Renyi control instead).
Result<Graph> RealizeGraph(const GenerateSpec& spec,
                           const std::vector<int64_t>& degrees, Rng* rng);

/// Sample + realize in one step (the common case).
Result<Graph> GenerateGraph(const GenerateSpec& spec, Rng* rng);

/// One-line human-readable description of a source, as used in reports:
/// "pareto(n=..., alpha=..., root, residual)", a file path, "in-memory".
std::string DescribeSource(const GraphSource& source);

/// Steps 2-3 of the pipeline: computes the global order theta and builds
/// the oriented CSR, accounting the two phases to the "order" and
/// "orient" stages of `stages` (which may be null). Bit-identical to the
/// fused OrientWithSpec call — same RNG construction, same label
/// pipeline — and shared by RunPipeline and the serving catalog
/// (src/serve/catalog.h), so a cached orientation can stand in for this
/// call byte for byte.
OrientedGraph OrientStages(const Graph& graph, const OrientSpec& orient,
                           int threads, StageClock* stages);

/// Steps 4-5 of the pipeline: builds the directed-arc set when a vertex
/// iterator needs it ("arcs" stage) and runs every requested method
/// ("list" stage), appending one MethodReport per method to `report`.
/// `exec.threads` must already be resolved (see ResolveThreads). This is
/// the single listing loop behind both RunPipeline and the serve worker
/// pool, which is what makes served triangle counts bit-identical to
/// `trilist_cli run` on the same spec.
///
/// A positive `mem_budget_bytes` B switches E1/E2 to the partitioned
/// out-of-core executors (src/xm) and rejects any other method with
/// InvalidArgument. Counts and CPU counters are identical; the report
/// additionally carries the I/O ledger. B/2 funds the resident
/// partition and the streamed window is max(B/8, 1 MiB); budgets below
/// 1 MiB act as 1 MiB. When `paged_file` is the demand-paged mapping
/// that `oriented`'s arrays live in, an ooc::Evictor drops each streamed
/// window behind the cursor, so the whole run stays under B.
Status ListOnOriented(const OrientedGraph& oriented,
                      const std::vector<Method>& methods,
                      const ExecPolicy& exec, int repeats,
                      RunReport* report, int64_t mem_budget_bytes = 0,
                      const MmapFile* paged_file = nullptr);

/// Orients `g` under `spec` and counts its triangles with method `m` —
/// the one-call from-scratch baseline shared by the dynamic-graph replay
/// verifier (src/dyn/replay.h) and `bench_dynamic_mix`, so "recount the
/// final graph" runs the exact listing path queries run.
Result<uint64_t> CountTrianglesWithMethod(const Graph& g, Method m,
                                          const OrientSpec& spec,
                                          int threads);

/// Executes `spec` end to end and reports where the time went. Expected
/// failures (unreadable file, generation stuck, corrupt container) come
/// back as a Status error.
Result<RunReport> RunPipeline(const RunSpec& spec);

}  // namespace trilist
