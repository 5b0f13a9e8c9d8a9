#include "src/run/runner.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>
#include <utility>

#include "src/algo/cost.h"
#include "src/algo/registry.h"
#include "src/algo/simd/bitmap_index.h"
#include "src/cost/cost_model.h"
#include "src/degree/degree_sequence.h"
#include "src/degree/degree_stats.h"
#include "src/degree/graphicality.h"
#include "src/degree/pareto.h"
#include "src/gen/configuration_model.h"
#include "src/gen/erdos_renyi.h"
#include "src/gen/residual_generator.h"
#include "src/graph/binfmt.h"
#include "src/graph/edge_set.h"
#include "src/graph/io.h"
#include "src/obs/degree_profile.h"
#include "src/obs/trace.h"
#include "src/ooc/evictor.h"
#include "src/order/pipeline.h"
#include "src/order/registry.h"
#include "src/run/planner.h"
#include "src/util/build_info.h"
#include "src/util/cpu_features.h"
#include "src/util/metrics.h"
#include "src/util/parallel_for.h"
#include "src/util/timer.h"
#include "src/xm/partitioned.h"

namespace trilist {

const char* GeneratorKindName(GeneratorKind kind) {
  switch (kind) {
    case GeneratorKind::kResidual: return "residual";
    case GeneratorKind::kConfiguration: return "configuration";
    case GeneratorKind::kGnp: return "gnp";
  }
  return "?";
}

int ResolveThreads(int threads) {
  return threads <= 0 ? HardwareThreads() : threads;
}

std::vector<int64_t> SampleGraphicDegrees(const GenerateSpec& spec,
                                          Rng* rng) {
  const DiscretePareto base(spec.alpha, spec.ResolvedBeta());
  const int64_t t_n =
      TruncationPoint(spec.truncation, static_cast<int64_t>(spec.n));
  const TruncatedDistribution fn(base, t_n);
  std::vector<int64_t> degrees =
      DegreeSequence::SampleIid(fn, spec.n, rng).degrees();
  MakeGraphic(&degrees);
  return degrees;
}

Result<Graph> RealizeGraph(const GenerateSpec& spec,
                           const std::vector<int64_t>& degrees, Rng* rng) {
  switch (spec.generator) {
    case GeneratorKind::kResidual: {
      ResidualGenOptions options;
      options.strict = spec.strict;
      return GenerateExactDegree(degrees, rng, nullptr, options);
    }
    case GeneratorKind::kConfiguration:
      return ConfigurationModel(degrees, rng);
    case GeneratorKind::kGnp: {
      double p = spec.gnp_p;
      if (p < 0) {
        // Match the Pareto family's density: p = mean degree / (n - 1).
        const DiscretePareto base(spec.alpha, spec.ResolvedBeta());
        const TruncatedDistribution fn(
            base,
            TruncationPoint(spec.truncation, static_cast<int64_t>(spec.n)));
        p = spec.n > 1
                ? fn.Mean() / static_cast<double>(spec.n - 1)
                : 0.0;
      }
      return GenerateGnp(spec.n, std::min(1.0, std::max(0.0, p)), rng);
    }
  }
  return Status::InvalidArgument("unknown generator kind");
}

Result<Graph> GenerateGraph(const GenerateSpec& spec, Rng* rng) {
  if (spec.generator == GeneratorKind::kGnp) {
    return RealizeGraph(spec, {}, rng);
  }
  const std::vector<int64_t> degrees = SampleGraphicDegrees(spec, rng);
  return RealizeGraph(spec, degrees, rng);
}

std::string DescribeSource(const GraphSource& source) {
  switch (source.kind) {
    case GraphSourceKind::kGenerate: {
      char buf[160];
      std::snprintf(buf, sizeof(buf), "pareto(n=%zu, alpha=%.3g, %s, %s)",
                    source.gen.n, source.gen.alpha,
                    TruncationKindName(source.gen.truncation),
                    GeneratorKindName(source.gen.generator));
      return buf;
    }
    case GraphSourceKind::kFile:
      return source.path;
    case GraphSourceKind::kInMemory:
      return "in-memory";
  }
  return "?";
}

namespace {

/// Acquired input graph plus the container that may carry cached
/// orientations (null for non-`.tlg` sources).
struct AcquiredGraph {
  Graph graph;
  std::shared_ptr<TlgFile> tlg;
};

Result<AcquiredGraph> AcquireGraph(const RunSpec& spec, RunReport* report) {
  AcquiredGraph acquired;
  switch (spec.source.kind) {
    case GraphSourceKind::kGenerate: {
      obs::TraceSpan span("generate");
      span.Arg("n", static_cast<int64_t>(spec.source.gen.n));
      Rng rng(spec.seed);
      Timer timer;
      Result<Graph> g = GenerateGraph(spec.source.gen, &rng);
      if (!g.ok()) return g.status();
      report->stages.Add("generate", timer.ElapsedSeconds());
      acquired.graph = std::move(g).ValueOrDie();
      span.Arg("edges", static_cast<int64_t>(acquired.graph.num_edges()));
      return acquired;
    }
    case GraphSourceKind::kFile: {
      obs::TraceSpan span("load");
      Timer timer;
      if (LooksLikeTlgFile(spec.source.path)) {
        // A budgeted run must not fault the whole container in at load
        // time — open demand-paged and let listing drive page residency.
        TlgLoadOptions lopts;
        lopts.paged = spec.mem_budget_bytes > 0;
        Result<TlgFile> t = TlgFile::Open(spec.source.path, lopts);
        if (!t.ok()) return t.status();
        acquired.tlg =
            std::make_shared<TlgFile>(std::move(t).ValueOrDie());
        acquired.graph = acquired.tlg->graph();
      } else {
        Result<Graph> g = ReadEdgeListFile(spec.source.path);
        if (!g.ok()) return g.status();
        acquired.graph = std::move(g).ValueOrDie();
      }
      report->stages.Add("load", timer.ElapsedSeconds());
      span.Arg("edges", static_cast<int64_t>(acquired.graph.num_edges()));
      return acquired;
    }
    case GraphSourceKind::kInMemory:
      acquired.graph = spec.source.graph;
      report->stages.Add("load", 0.0);
      return acquired;
  }
  return Status::InvalidArgument("unknown graph source kind");
}

/// How a memory budget B is spent by a partitioned run — the one budget
/// rule, whatever the source. B/2 funds the resident partition; the
/// streamed window between evictions gets max(B/8, 1 MiB); the rest is
/// headroom for the node-indexed sections (offsets, original_of) that
/// every pass touches and that cannot be evicted while the pass runs.
/// Budgets below 1 MiB act as 1 MiB.
struct BudgetSplit {
  Partitioning parts;
  int64_t window_bytes;
};

BudgetSplit SplitBudget(const OrientedGraph& oriented,
                        int64_t mem_budget_bytes) {
  constexpr int64_t kFloor = int64_t{1} << 20;
  const int64_t budget = std::max(mem_budget_bytes, kFloor);
  return {Partitioning::ForMemoryBudget(oriented, budget / 2),
          std::max(budget / 8, kFloor)};
}

}  // namespace

OrientedGraph OrientStages(const Graph& graph, const OrientSpec& orient,
                           int threads, StageClock* stages) {
  StageClock local;
  StageClock* clock = stages != nullptr ? stages : &local;
  // Split of OrientWithSpec: theta + label map is "order", the CSR
  // build is "orient". Bit-identical to the fused call: same RNG
  // construction, same label pipeline (both route through the registry).
  std::vector<NodeId> labels;
  clock->Time("order", [&] {
    TRILIST_TRACE_SPAN("order");
    labels = OrderingLabels(graph, orient);
  });
  return clock->Time("orient", [&] {
    obs::TraceSpan span("orient");
    span.Arg("threads", static_cast<int64_t>(threads));
    return OrientedGraph::FromLabels(graph, labels, threads);
  });
}

Status ListOnOriented(const OrientedGraph& oriented,
                      const std::vector<Method>& methods,
                      const ExecPolicy& exec_in, int repeats,
                      RunReport* report, int64_t mem_budget_bytes,
                      const MmapFile* paged_file) {
  // Out-of-core mode: only the scanning edge iterators with partitioned
  // realizations run under a budget.
  std::optional<BudgetSplit> split;
  if (mem_budget_bytes > 0) {
    for (Method m : methods) {
      if (m != Method::kE1 && m != Method::kE2) {
        return Status::InvalidArgument(
            std::string("partitioned execution supports E1/E2 only, "
                        "got ") +
            MethodName(m));
      }
    }
    split.emplace(SplitBudget(oriented, mem_budget_bytes));
    report->partitioned = true;
    report->mem_budget_bytes = mem_budget_bytes;
    report->io_partitions =
        static_cast<int64_t>(split->parts.num_partitions());
  }

  // Directed-arc set, shared by all vertex-iterator methods.
  const bool needs_arcs =
      std::any_of(methods.begin(), methods.end(), [](Method m) {
        return MethodFamily(m) == Family::kVertexIterator;
      });
  std::optional<DirectedEdgeSet> arcs;
  if (needs_arcs) {
    report->stages.Time("arcs", [&] {
      obs::TraceSpan span("arcs");
      arcs.emplace(oriented);
      span.Arg("bytes", static_cast<int64_t>(arcs->bytes()));
    });
  }

  // Bitmap backend: build the hub index once up front (its own stage,
  // like "arcs") and share it across every SEI method and repeat.
  ExecPolicy exec = exec_in;
  const bool needs_bitmap =
      exec.intersect == IntersectBackend::kBitmap &&
      exec.bitmap_index == nullptr &&
      std::any_of(methods.begin(), methods.end(), [](Method m) {
        return MethodFamily(m) == Family::kScanningEdgeIterator;
      });
  if (needs_bitmap) {
    report->stages.Time("bitmap", [&] {
      TRILIST_TRACE_SPAN("bitmap");
      exec.bitmap_index = std::make_shared<const simd::BitmapIndex>(
          simd::BitmapIndex::Build(oriented));
    });
  }

  double list_wall = 0;
  for (Method m : methods) {
    MethodReport mr;
    mr.method = m;
    mr.formula_cost = MethodCostTotal(oriented, m);
    mr.parallel = exec.threads > 1;
    if (MethodFamily(m) == Family::kScanningEdgeIterator) {
      mr.intersect_backend = IntersectBackendName(exec.intersect);
    }
    if (split.has_value()) {
      // The partitioned executors are serial and always merge-intersect.
      mr.parallel = false;
      mr.intersect_backend = "merge";
    }
    bool first = true;
    for (int rep = 0; rep < repeats; ++rep) {
      CountingSink counting;
      obs::TraceSpan span(MethodName(m));
      span.Arg("stage", "list");
      span.Arg("repeat", static_cast<int64_t>(rep));
      Timer timer;
      OpCounts ops;
      if (split.has_value()) {
        // Over a paged mapping the evictor keeps the streamed window
        // and the last partition from accumulating in RSS.
        std::optional<ooc::Evictor> evictor;
        if (paged_file != nullptr) {
          evictor.emplace(oriented, paged_file, split->window_bytes);
        }
        PassObserver* observer = evictor ? &*evictor : nullptr;
        IoStats io;
        ops = m == Method::kE1
                  ? RunPartitionedE1(oriented, split->parts, &counting, &io,
                                     observer)
                  : RunPartitionedE2(oriented, split->parts, &counting, &io,
                                     observer);
        if (rep == 0) {
          report->io.passes += io.passes;
          report->io.bytes_loaded += io.bytes_loaded;
          report->io.bytes_streamed += io.bytes_streamed;
          if (evictor) report->io_evictions += evictor->evictions();
        }
      } else {
        ops = MethodFamily(m) == Family::kVertexIterator
                  ? RunMethod(m, oriented, *arcs, &counting, exec)
                  : RunMethod(m, oriented, &counting, exec);
      }
      const double wall = timer.ElapsedSeconds();
      span.Arg("ops", ops.PaperCost());
      const uint64_t triangles = counting.count();
      span.Arg("triangles", static_cast<int64_t>(triangles));
      mr.wall_total_s += wall;
      if (first || wall < mr.wall_s) mr.wall_s = wall;
      if (first) {
        mr.triangles = triangles;
        mr.ops = ops;
      } else if (mr.triangles != triangles) {
        return Status::Internal(
            std::string("triangle count diverged across repeats for ") +
            MethodName(m));
      }
      first = false;
    }
    list_wall += mr.wall_total_s;
    report->methods.push_back(std::move(mr));
  }
  report->stages.Add("list", list_wall);
  return Status::OK();
}

Result<uint64_t> CountTrianglesWithMethod(const Graph& g, Method m,
                                          const OrientSpec& spec,
                                          int threads) {
  const int resolved = ResolveThreads(threads);
  const OrientedGraph oriented = OrientStages(g, spec, resolved, nullptr);
  ExecPolicy exec;
  exec.threads = resolved;
  RunReport report;
  TRILIST_RETURN_NOT_OK(
      ListOnOriented(oriented, {m}, exec, 1, &report));
  return report.methods.front().triangles;
}

Result<RunReport> RunPipeline(const RunSpec& spec) {
  RunReport report;
  CpuGauge gauge;
  // Resolve "auto" (<= 0) to the hardware width once, up front: dispatch,
  // the utilization denominator and the report all see the same count.
  const int threads = ResolveThreads(spec.exec.threads);
  ExecPolicy exec = spec.exec;
  exec.threads = threads;
  const int repeats = std::max(1, spec.repeats);
  report.source = DescribeSource(spec.source);
  report.order = PermutationKindName(spec.orient.kind);
  report.orient_seed = spec.orient.seed;
  report.threads = threads;
  report.requested_threads = spec.exec.threads;
  report.repeats = repeats;
  report.intersect_backend = IntersectBackendName(exec.intersect);
  report.simd_level = SimdLevelName(ActiveSimdLevel());
  const BuildInfo& build = GetBuildInfo();
  report.build_version = build.version;
  report.build_git_hash = build.git_hash;
  report.build_compiler = build.compiler;
  report.build_type = build.build_type;

  // 1. Acquire the graph ("generate" or "load").
  Result<AcquiredGraph> acquired = AcquireGraph(spec, &report);
  if (!acquired.ok()) return acquired.status();
  const Graph& graph = acquired->graph;
  report.num_nodes = graph.num_nodes();
  report.num_edges = graph.num_edges();

  // 1b. Resolve any free plan axes against the realized degree sequence
  // ("plan" stage): the planner overrides orient/methods/backend with
  // the minimum-predicted-cost choice, and the model's weights stay so
  // the measured run can be priced in the same currency afterwards.
  OrientSpec orient = spec.orient;
  std::vector<Method> methods = spec.methods;
  std::optional<cost::CostModel> cost_model;
  if (spec.plan.Any()) {
    report.stages.Time("plan", [&] {
      TRILIST_TRACE_SPAN("plan");
      cost_model.emplace(AscendingDegrees(graph));
      PlannerRequest request;
      request.auto_method = spec.plan.method;
      request.auto_order = spec.plan.order;
      request.auto_intersect = spec.plan.intersect;
      request.methods = spec.methods;
      request.orient = spec.orient;
      request.intersect = exec.intersect;
      const PlanResult plan = ResolvePlan(*cost_model, request);
      // The audit below reads only the weights: free the O(n) degree
      // sequence before the listing allocates its own buffers.
      const cost::CostModelParams weights = cost_model->params();
      cost_model.emplace(std::vector<int64_t>{}, weights);
      orient = plan.chosen.orient;
      methods = plan.chosen.methods;
      exec.intersect = plan.chosen.intersect;
      report.plan.planned = true;
      report.plan.auto_method = spec.plan.method;
      report.plan.auto_order = spec.plan.order;
      report.plan.auto_intersect = spec.plan.intersect;
      for (const Method m : methods) {
        report.plan.methods.push_back(MethodName(m));
      }
      report.plan.order = orient.Key();
      report.plan.intersect = IntersectBackendName(exec.intersect);
      report.plan.predicted_ops = plan.chosen.predicted_ops;
      report.plan.predicted_cost = plan.chosen.predicted_cost;
      report.plan.candidates =
          static_cast<int>(plan.candidates.size());
    });
    report.order = PermutationKindName(orient.kind);
    report.orient_seed = orient.seed;
    report.intersect_backend = IntersectBackendName(exec.intersect);
  }

  // 2-3. Order + orient, reusing a container-cached (O, theta) when one
  // matches — in which case both stages are already paid for on disk.
  const OrientedGraph* cached =
      acquired->tlg != nullptr
          ? acquired->tlg->FindOrientation(orient)
          : nullptr;
  // A budgeted `.tlg` run streams the container's own arrays; orienting
  // in RAM would hold the whole graph, so the orientation must be there.
  if (spec.mem_budget_bytes > 0 && acquired->tlg != nullptr &&
      cached == nullptr) {
    std::string embed = std::string("--orders ") +
                        OrderingRegistry::Instance().Of(orient.kind).cli_name();
    if (orient.kind == PermutationKind::kUniform) {
      embed += " --seed " + std::to_string(orient.seed);
    }
    return Status::InvalidArgument(
        spec.source.path + " does not embed the " + orient.Key() +
        " orientation a budgeted run streams; re-run `trilist_cli convert " +
        embed + "` to embed it");
  }
  OrientedGraph oriented;
  if (cached != nullptr) {
    report.cached_orientation = true;
    oriented = *cached;  // cheap span-backed copy, pins the mapping
    report.stages.Add("order", 0.0);
    report.stages.Add("orient", 0.0);
  } else {
    oriented = OrientStages(graph, orient, threads, &report.stages);
  }

  // 4-5. Arc-set build + listing with every requested method.
  const Status listed =
      ListOnOriented(oriented, methods, exec, repeats, &report,
                     spec.mem_budget_bytes,
                     cached != nullptr && acquired->tlg->paged()
                         ? acquired->tlg->backing()
                         : nullptr);
  if (!listed.ok()) return listed;

  // Close the planner's audit loop: the measured operation counters,
  // weighted exactly as the prediction was, so predicted vs measured
  // (and regret vs an oracle) are plain ratios on the report.
  if (report.plan.planned) {
    for (const MethodReport& mr : report.methods) {
      report.plan.measured_ops += mr.ops.PaperCost();
      report.plan.measured_cost += cost_model->WeightedCost(
          mr.ops.PaperCost(), mr.method, exec.intersect);
    }
  }

  // 6. Optional model-residual pass: bucket each method's realized
  // per-node cost (Tables 1-2 on the oriented degrees, O(n)) against the
  // closed-form g(d)h(q). The listing above counted the same operations,
  // so the two totals must agree; a mismatch is a kernel/model bug.
  if (spec.degree_profile) {
    Status profiled;
    report.stages.Time("profile", [&] {
      for (const MethodReport& mr : report.methods) {
        obs::TraceSpan span(MethodName(mr.method));
        span.Arg("stage", "profile");
        obs::DegreeProfile profile =
            obs::BuildDegreeProfile(mr.method, oriented);
        span.Arg("ops", profile.total_measured);
        if (profile.total_measured != mr.ops.PaperCost()) {
          profiled = Status::Internal(
              std::string("degree profile of ") + MethodName(mr.method) +
              " charges " + std::to_string(profile.total_measured) +
              " ops, the listing counted " +
              std::to_string(mr.ops.PaperCost()));
          return;
        }
        report.degree_profiles.push_back(std::move(profile));
      }
    });
    if (!profiled.ok()) return profiled;
  }

  report.peak_rss_bytes = PeakRssBytes();
  report.cpu_s = gauge.CpuSecondsElapsed();
  report.utilization =
      gauge.UtilizationOver(report.TotalWallSeconds(), threads);
  return report;
}

}  // namespace trilist
