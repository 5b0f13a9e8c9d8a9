/// \file trilist_cli.cpp
/// Command-line front end covering the library's main workflows. Every
/// graph-touching subcommand executes through the unified RunSpec engine
/// (src/run/runner.h), which owns the acquire -> order -> orient -> list
/// pipeline and reports per-stage telemetry.
///
/// --threads semantics are uniform across all subcommands that accept the
/// flag (count, run, convert): N > 1 uses the parallel engine for
/// orientation and every listing method, N == 0 means
/// "all hardware threads", and results are bit-identical to the serial
/// run for any value.
///
///   trilist_cli generate --n N --alpha A [--trunc root|linear]
///                        [--seed S] --out FILE
///       Sample a truncated-Pareto degree sequence, realize it exactly,
///       write the graph as an edge list.
///
///   trilist_cli count --in FILE [--method T1|T2|E1|E4|...|auto]
///                     [--order D|A|RR|CRR|U|degen|auto] [--seed S]
///                     [--threads N] [--intersect merge|bitmap|auto]
///                     [--mem-budget SIZE]
///       Relabel + orient a graph and list its triangles with one
///       method, reporting the count, the operation metrics, the
///       per-stage wall times and, under --mem-budget, the I/O ledger.
///       It runs the RunSpec `run` builds from the same flags and prints
///       a summary of the report.
///
///   trilist_cli run [--in FILE | --n N --alpha A [--trunc root|linear]
///                    [--gen residual|config|gnp]]
///                   [--methods M1,M2,...|all|fundamental|auto]
///                   [--order O|auto] [--seed S] [--threads N]
///                   [--intersect merge|bitmap|auto] [--repeats R]
///                   [--report table|json] [--trace FILE.json]
///                   [--metrics FILE.prom] [--degree-profile]
///       The full RunSpec surface: acquire a graph (file or generated),
///       orient, run any method set, and dump the structured RunReport —
///       per-stage wall times (load/generate, order, orient, arcs, list),
///       per-method triangles + operation counters, peak RSS and thread
///       utilization — as an aligned table or machine-readable JSON.
///       The observability layer (src/obs/) hangs off this subcommand:
///       --trace records every pipeline span (stages, methods, parallel
///       chunks) into a Chrome trace-event file loadable in Perfetto,
///       --metrics exports the report in Prometheus text format, and
///       --degree-profile charges each method's realized per-node cost
///       (Tables 1-2 on the oriented degrees, checked against the
///       listing's ops) and reports it vs the model's g(d)h(q) per
///       log2-degree bucket with relative residuals.
///
///   trilist_cli version
///       Build provenance: version, git hash, compiler, flags, build type.
///
///   trilist_cli model --alpha A [--n N] [--trunc root|linear]
///                     [--method M] [--order O] [--eps E]
///       Evaluate the exact discrete cost model Eq. (50) at n and the
///       asymptotic limit via Algorithm 2.
///
///   trilist_cli advise --alpha A [--speedup X]
///       Recommend a method + ordering for a Pareto graph family.
///
///   trilist_cli convert --in FILE --out FILE [--orders D,RR,...]
///                       [--seed S] [--threads N]
///                       [--mem-budget SIZE [--tmpdir DIR] [--io-workers N]
///                        [--no-direct-io] [--report json]]
///       Convert between text edge lists and the `.tlg` binary container.
///       With --mem-budget, a text -> .tlg conversion runs out-of-core
///       (src/ooc/convert.h): chunked O_DIRECT reads, external edge sort
///       with spill files in --tmpdir, and a streamed container writer,
///       so peak memory stays under the budget for any graph size while
///       producing byte-identical output for compact inputs.
///       Text input goes through the tolerant ingester (duplicates,
///       self-loops and sparse IDs are normalized, with a report);
///       --orders embeds precomputed orientations so later runs skip
///       preprocessing. Output format follows the --out extension
///       (`.tlg` = binary, anything else = text). Deterministic: the
///       same input bytes always produce the same output bytes.
///
///   trilist_cli info --in FILE.tlg
///       Print the container's header, section table and cached
///       orientations (validates every CRC on the way).
///
///   trilist_cli serve [--tcp PORT] [--host H] [--unix PATH]
///                     [--graphs DIR] [--graph name=path[,name=path...]]
///                     [--workers N] [--queue N] [--catalog N] [--sjf]
///                     [--max-threads N] [--send-timeout SEC]
///       Run trilistd: the long-running triangle-query daemon
///       (src/serve/server.h). Serves the versioned binary protocol over
///       TCP and/or a Unix-domain socket, keeps an LRU catalog of
///       mmapped graphs with cached orientations, admits requests into a
///       bounded queue (explicit backpressure when full, optionally
///       shortest-predicted-job-first by the Section-3 formula cost) and
///       executes them on a worker pool through the same listing loop as
///       `run`. SIGTERM/SIGINT drain gracefully: in-flight and queued
///       requests finish, then the process exits 0.
///
///   trilist_cli query (--connect HOST:PORT | --unix PATH) --graph NAME
///                     [--methods ...] [--order O] [--seed S]
///                     [--threads N] [--repeats R] [--report] [--stats]
///       One round trip against a running daemon: print the served
///       triangle counts, stage walls and catalog provenance (warm hit
///       vs cold load), or --stats for the server's Prometheus text.
///
///   trilist_cli mutate ...
///       Dynamic graphs (src/dyn/): remotely, ship batched edge
///       inserts/deletes to a running daemon (--connect/--unix --graph,
///       with --add/--del/--ops-file) — each batch publishes a new
///       epoch whose exact triangle count is maintained incrementally;
///       locally, replay a recorded mutation log over --in and, with
///       --verify, prove the incremental count against a from-scratch
///       recount and byte-compare a compaction against a fresh convert.
///       `info` describes an on-disk container, which is always a
///       static snapshot: mutations live in the serving layer until a
///       compaction writes the next container.
///
/// `count` accepts either format transparently: `.tlg` inputs are
/// detected by magic, mmap-loaded zero-copy, and reuse a cached
/// orientation when one matches the requested --order/--seed.

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <csignal>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "src/algo/parallel_engine.h"
#include "src/algo/registry.h"
#include "src/core/advisor.h"
#include "src/core/discrete_model.h"
#include "src/core/fast_model.h"
#include "src/core/limits.h"
#include "src/degree/pareto.h"
#include "src/degree/truncated.h"
#include "src/gen/residual_generator.h"
#include "src/graph/binfmt.h"
#include "src/graph/ingest.h"
#include "src/graph/io.h"
#include "src/dyn/mutation_log.h"
#include "src/dyn/replay.h"
#include "src/obs/prom.h"
#include "src/obs/trace.h"
#include "src/ooc/convert.h"
#include "src/order/pipeline.h"
#include "src/order/registry.h"
#include "src/run/runner.h"
#include "src/serve/client.h"
#include "src/serve/server.h"
#include "src/util/build_info.h"
#include "src/util/cpu_features.h"
#include "src/util/rng.h"
#include "src/util/timer.h"

namespace {

using namespace trilist;

[[noreturn]] void BadNumber(const std::string& key, const std::string& value) {
  std::fprintf(stderr, "--%s: '%s' is not a valid number\n", key.c_str(),
               value.c_str());
  std::exit(2);
}

/// Parses the value of flag `key` as a decimal integer in [0, max], in
/// full: "abc", "12x", " 5", "-5" or a value above `max` is a usage error
/// (exit 2), never a silent 0, a wrapped or a truncated number.
uint64_t ParseUint(const std::string& key, const std::string& value,
                   uint64_t max = std::numeric_limits<uint64_t>::max()) {
  char* end = nullptr;
  errno = 0;
  const uint64_t u = std::strtoull(value.c_str(), &end, 10);
  // strtoull skips blanks and wraps a '-', so the first char must be a
  // digit.
  if (!std::isdigit(static_cast<unsigned char>(value[0])) || *end != '\0' ||
      errno == ERANGE || u > max) {
    BadNumber(key, value);
  }
  return u;
}

/// Minimal --flag parser: `--key value` pairs plus bare boolean switches
/// (`--degree-profile`). A flag followed by another `--flag` (or nothing)
/// is a switch; Get() returns "" for missing keys. A key outside the
/// subcommand's `accepted` set is a usage error (exit 2), never silently
/// ignored: `run --thread 4` must not run on one thread.
class Flags {
 public:
  Flags(int argc, char** argv, const std::vector<std::string>& accepted) {
    for (int i = 2; i < argc;) {
      if (std::strncmp(argv[i], "--", 2) != 0) {
        ++i;
        continue;
      }
      const char* key = argv[i] + 2;
      if (std::find(accepted.begin(), accepted.end(), key) ==
          accepted.end()) {
        std::fprintf(stderr, "unknown flag --%s\n", key);
        std::exit(2);
      }
      if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
        values_[key] = argv[i + 1];
        i += 2;
      } else {
        values_[key] = "";
        i += 1;
      }
    }
  }
  bool Has(const std::string& key) const {
    return values_.find(key) != values_.end();
  }
  std::string Get(const std::string& key, const std::string& def = "") const {
    const auto it = values_.find(key);
    return it == values_.end() ? def : it->second;
  }
  // Numeric flags must parse in full: "--threads abc" or "--n 12x" is a
  // usage error (exit 2), never a silent 0 or a truncated value.
  double GetDouble(const std::string& key, double def) const {
    const std::string v = Get(key);
    if (v.empty()) return def;
    char* end = nullptr;
    errno = 0;
    const double d = std::strtod(v.c_str(), &end);
    if (*end != '\0' || errno == ERANGE) BadNumber(key, v);
    return d;
  }
  uint64_t GetUint(const std::string& key, uint64_t def) const {
    const std::string v = Get(key);
    return v.empty() ? def : ParseUint(key, v);
  }

 private:
  std::map<std::string, std::string> values_;
};

bool ParseMethod(const std::string& name, Method* out) {
  for (Method m : AllMethods()) {
    if (name == MethodName(m)) {
      *out = m;
      return true;
    }
  }
  return false;
}

/// Ordering lookup through the registry: accepts both the CLI spelling
/// ("D", "aot") and the registry key ("theta_D", "aot"). `trilist_cli
/// orders` lists everything this accepts.
bool ParseOrder(const std::string& name, PermutationKind* out) {
  const OrderingProvider* provider =
      OrderingRegistry::Instance().FindByName(name);
  if (provider == nullptr) return false;
  *out = provider->kind();
  return true;
}

TruncationKind ParseTrunc(const std::string& name) {
  return name == "linear" ? TruncationKind::kLinear : TruncationKind::kRoot;
}

/// Raw --threads value; 0 means "all hardware threads". The runner
/// resolves it (so reports record both the request and the resolved
/// count); local consumers call ResolveThreads themselves.
int ParseThreadsFlag(const Flags& flags) {
  return static_cast<int>(flags.GetUint("threads", 1));
}

/// Byte-size flag with optional K/M/G (or KiB/MiB/GiB) suffix:
/// "--mem-budget 64M" = 64 MiB. Bare numbers are bytes. Returns `def`
/// when the flag is absent; 0 on a malformed value (callers treat a
/// present-but-zero budget as an error).
uint64_t ParseSizeFlag(const Flags& flags, const std::string& key,
                       uint64_t def) {
  const std::string v = flags.Get(key);
  if (v.empty()) return def;
  char* end = nullptr;
  const unsigned long long base = std::strtoull(v.c_str(), &end, 10);
  if (end == v.c_str()) return 0;
  uint64_t scale = 1;
  switch (*end) {
    case 'k': case 'K': scale = 1ull << 10; break;
    case 'm': case 'M': scale = 1ull << 20; break;
    case 'g': case 'G': scale = 1ull << 30; break;
    case '\0': break;
    default: return 0;
  }
  return base * scale;
}

/// --intersect backend for the SEI kernels, or `auto` for the planner;
/// returns false (after reporting) on an unknown name.
bool ParseIntersectFlag(const Flags& flags, RunSpec* spec) {
  const std::string name = flags.Get("intersect");
  if (name.empty()) return true;
  if (name == "auto") {
    spec->plan.intersect = true;
    return true;
  }
  if (!ParseIntersectBackend(name.c_str(), &spec->exec.intersect)) {
    std::fprintf(stderr,
                 "unknown intersect backend '%s' (merge|bitmap|auto)\n",
                 name.c_str());
    return false;
  }
  return true;
}

/// Writes `content` to `path`, reporting failures on stderr.
bool WriteFileOrWarn(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return false;
  }
  const size_t written = std::fwrite(content.data(), 1, content.size(), f);
  const bool ok = written == content.size() && std::fclose(f) == 0;
  if (!ok) std::fprintf(stderr, "short write to %s\n", path.c_str());
  return ok;
}

int CmdGenerate(const Flags& flags) {
  const std::string out = flags.Get("out");
  if (out.empty()) {
    std::fprintf(stderr, "generate: --out FILE is required\n");
    return 2;
  }
  GenerateSpec gen;
  gen.n = static_cast<size_t>(flags.GetUint("n", 100000));
  gen.alpha = flags.GetDouble("alpha", 1.7);
  gen.truncation = ParseTrunc(flags.Get("trunc", "root"));
  const uint64_t seed = flags.GetUint("seed", 1);
  Rng rng(seed);
  Timer timer;
  const std::vector<int64_t> degrees = SampleGraphicDegrees(gen, &rng);
  ResidualGenStats stats;
  auto graph = GenerateExactDegree(degrees, &rng, &stats);
  if (!graph.ok()) {
    std::fprintf(stderr, "generation failed: %s\n",
                 graph.status().ToString().c_str());
    return 1;
  }
  const Status write = WriteEdgeListFile(*graph, out);
  if (!write.ok()) {
    std::fprintf(stderr, "%s\n", write.ToString().c_str());
    return 1;
  }
  std::printf(
      "wrote %s: n=%zu m=%zu (alpha=%.3f trunc=%s seed=%llu, %.2fs, "
      "unplaced stubs %lld)\n",
      out.c_str(), graph->num_nodes(), graph->num_edges(), gen.alpha,
      TruncationKindName(gen.truncation),
      static_cast<unsigned long long>(seed), timer.ElapsedSeconds(),
      static_cast<long long>(stats.unplaced_stubs));
  return 0;
}

/// Parses a comma-separated method list; "all" and "fundamental" name the
/// standard sets.
bool ParseMethodList(const std::string& csv, std::vector<Method>* out) {
  if (csv.empty() || csv == "fundamental") {
    *out = FundamentalMethods();
    return true;
  }
  if (csv == "all") {
    *out = AllMethods();
    return true;
  }
  std::istringstream stream(csv);
  std::string token;
  while (std::getline(stream, token, ',')) {
    if (token.empty()) continue;
    Method m;
    if (!ParseMethod(token, &m)) {
      std::fprintf(stderr, "unknown method '%s' in --methods\n",
                   token.c_str());
      return false;
    }
    out->push_back(m);
  }
  return !out->empty();
}

/// The flags `count` and `run` share, parsed into `spec` (the caller sets
/// `spec->source`): --order and --seed, --method(s) (a list, `all`,
/// `fundamental` or `auto`), --threads, --intersect (a backend or `auto`:
/// the planner picks it, alone when method and order are pinned), and
/// --mem-budget. A malformed --mem-budget, or one next to a planner axis
/// (the planner may pick a method without a partitioned executor, or a
/// backend the partitioned executors do not run), is a usage error. Returns false after reporting one on
/// stderr.
bool ParseRunFlags(const char* sub, const Flags& flags, RunSpec* spec) {
  PermutationKind order = PermutationKind::kDescending;
  if (flags.Get("order") == "auto") {
    spec->plan.order = true;
  } else if (!flags.Get("order").empty() &&
             !ParseOrder(flags.Get("order"), &order)) {
    std::fprintf(stderr, "unknown order '%s'\n", flags.Get("order").c_str());
    return false;
  }
  spec->seed = flags.GetUint("seed", 1);
  spec->orient = OrientSpec{order, spec->seed};
  spec->methods.clear();
  // --methods (or the singular --method) accepts "auto": the planner
  // races PlannerMethodCandidates() and runs the cheapest.
  std::string methods_flag = flags.Get("methods");
  if (methods_flag.empty()) methods_flag = flags.Get("method");
  if (methods_flag == "auto") {
    spec->plan.method = true;
    spec->methods = {Method::kE1};  // placeholder; the planner overrides
  } else if (!ParseMethodList(methods_flag.empty() ? "E1" : methods_flag,
                              &spec->methods)) {
    return false;
  }
  spec->exec.threads = ParseThreadsFlag(flags);
  if (!ParseIntersectFlag(flags, spec)) return false;
  spec->mem_budget_bytes =
      static_cast<int64_t>(ParseSizeFlag(flags, "mem-budget", 0));
  if (flags.Has("mem-budget") && spec->mem_budget_bytes == 0) {
    std::fprintf(stderr, "%s: bad --mem-budget '%s' (want e.g. 64M)\n", sub,
                 flags.Get("mem-budget").c_str());
    return false;
  }
  if (spec->plan.Any() && spec->mem_budget_bytes > 0) {
    std::fprintf(stderr,
                 "%s: --method/--order/--intersect auto are incompatible "
                 "with --mem-budget (the planner may pick a "
                 "non-partitioned method or backend)\n",
                 sub);
    return false;
  }
  return true;
}

int CmdCount(const Flags& flags) {
  const std::string in = flags.Get("in");
  if (in.empty()) {
    std::fprintf(stderr, "count: --in FILE is required\n");
    return 2;
  }
  RunSpec spec;
  spec.source = GraphSource::FromFile(in);
  if (!ParseRunFlags("count", flags, &spec)) return 2;
  if (spec.methods.size() != 1) {
    std::fprintf(stderr, "count: --method takes one method (`run "
                         "--methods` lists several)\n");
    return 2;
  }

  auto report = RunPipeline(spec);
  if (!report.ok()) {
    std::fprintf(stderr, "%s\n", report.status().ToString().c_str());
    return 1;
  }
  const RunReport& r = *report;
  const MethodReport& mr = r.methods.front();
  const StageClock& st = r.stages;
  const double work = st.Total() - st.WallOf("load");
  if (r.plan.planned) {
    std::printf("planner: %s + %s / %s (predicted cost %.3g, "
                "%d candidates)\n",
                MethodName(mr.method), r.order.c_str(),
                r.intersect_backend.c_str(), r.plan.predicted_cost,
                r.plan.candidates);
  }
  std::printf(
      "%s + %s on %s (n=%zu m=%zu, %d thread%s%s%s):\n  triangles %llu\n"
      "  paper-metric ops %lld\n  wall time %.3fs\n"
      "  stages: load %.3fs, order %.3fs, orient %.3fs, arcs %.3fs, "
      "list %.3fs\n",
      MethodName(mr.method), r.order.c_str(), in.c_str(),
      r.num_nodes, r.num_edges, r.threads, r.threads == 1 ? "" : "s",
      r.threads > 1 && !mr.parallel ? ", serial listing fallback" : "",
      r.cached_orientation ? ", cached orientation" : "",
      static_cast<unsigned long long>(mr.triangles),
      static_cast<long long>(mr.ops.PaperCost()), work,
      st.WallOf("load"), st.WallOf("order"), st.WallOf("orient"),
      st.WallOf("arcs"), st.WallOf("list"));
  if (r.partitioned) {
    std::printf("  io: %lld passes, %lld loaded + %lld streamed bytes, "
                "%lld evictions\n",
                static_cast<long long>(r.io.passes),
                static_cast<long long>(r.io.bytes_loaded),
                static_cast<long long>(r.io.bytes_streamed),
                static_cast<long long>(r.io_evictions));
  }
  return 0;
}

int CmdRun(const Flags& flags) {
  RunSpec spec;
  const std::string in = flags.Get("in");
  if (!in.empty()) {
    spec.source = GraphSource::FromFile(in);
  } else {
    GenerateSpec gen;
    gen.n = static_cast<size_t>(flags.GetUint("n", 100000));
    gen.alpha = flags.GetDouble("alpha", 1.7);
    gen.truncation = ParseTrunc(flags.Get("trunc", "root"));
    const std::string kind = flags.Get("gen", "residual");
    if (kind == "config") {
      gen.generator = GeneratorKind::kConfiguration;
    } else if (kind == "gnp") {
      gen.generator = GeneratorKind::kGnp;
    } else if (kind != "residual") {
      std::fprintf(stderr, "unknown generator '%s'\n", kind.c_str());
      return 2;
    }
    spec.source = GraphSource::FromGenerator(gen);
  }
  if (!ParseRunFlags("run", flags, &spec)) return 2;
  spec.repeats = static_cast<int>(flags.GetUint("repeats", 1));
  spec.degree_profile = flags.Has("degree-profile");

  const std::string trace_path = flags.Get("trace");
  if (!trace_path.empty()) {
    obs::Tracer::Clear();
    obs::Tracer::Enable();
  }

  auto report = RunPipeline(spec);

  if (!trace_path.empty()) {
    obs::Tracer::Disable();
    const Status st = obs::Tracer::WriteChromeJson(trace_path);
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
  }
  if (!report.ok()) {
    std::fprintf(stderr, "%s\n", report.status().ToString().c_str());
    return 1;
  }

  const std::string metrics_path = flags.Get("metrics");
  if (!metrics_path.empty() &&
      !WriteFileOrWarn(metrics_path, obs::RunReportToPrometheus(*report))) {
    return 1;
  }

  const std::string format = flags.Get("report", "table");
  if (format == "json") {
    std::fputs(report->ToJson().c_str(), stdout);
  } else if (format == "table") {
    std::ostringstream out;
    report->PrintTable(out);
    std::fputs(out.str().c_str(), stdout);
  } else {
    std::fprintf(stderr, "unknown report format '%s'\n", format.c_str());
    return 2;
  }
  return 0;
}

/// Parses a comma-separated --orders list ("D,RR,U") into OrientSpecs.
bool ParseOrderList(const std::string& csv, uint64_t seed,
                    std::vector<OrientSpec>* out) {
  std::istringstream stream(csv);
  std::string token;
  while (std::getline(stream, token, ',')) {
    if (token.empty()) continue;
    PermutationKind kind;
    if (!ParseOrder(token, &kind)) {
      std::fprintf(stderr, "unknown order '%s' in --orders\n",
                   token.c_str());
      return false;
    }
    out->push_back(OrientSpec{kind, seed});
  }
  return true;
}

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

int CmdConvert(const Flags& flags) {
  const std::string in = flags.Get("in");
  const std::string out = flags.Get("out");
  if (in.empty() || out.empty()) {
    std::fprintf(stderr, "convert: --in FILE and --out FILE are required\n");
    return 2;
  }
  const int threads = ResolveThreads(ParseThreadsFlag(flags));
  const uint64_t seed = flags.GetUint("seed", 1);

  // --mem-budget routes text -> .tlg conversion through the out-of-core
  // pipeline (src/ooc/convert.h): external edge sort with spill files in
  // --tmpdir, streamed container writer, peak memory held to the budget
  // regardless of graph size. Byte-identical output to the in-memory
  // path for compact inputs.
  if (flags.Has("mem-budget")) {
    const uint64_t budget = ParseSizeFlag(flags, "mem-budget", 0);
    if (budget == 0) {
      std::fprintf(stderr, "convert: bad --mem-budget '%s' (want e.g. 64M)\n",
                   flags.Get("mem-budget").c_str());
      return 2;
    }
    if (LooksLikeTlgFile(in) || !EndsWith(out, ".tlg")) {
      std::fprintf(stderr,
                   "convert: --mem-budget requires a text edge-list --in "
                   "and a .tlg --out\n");
      return 2;
    }
    ooc::OocConvertOptions oopts;
    oopts.mem_budget_bytes = budget;
    oopts.tmpdir = flags.Get("tmpdir", "/tmp");
    oopts.io_workers = static_cast<int>(flags.GetUint("io-workers", 2));
    oopts.direct_io = !flags.Has("no-direct-io");
    if (!flags.Get("orders").empty() &&
        !ParseOrderList(flags.Get("orders"), seed, &oopts.orientations)) {
      return 2;
    }
    auto report = ooc::OocConvertFile(in, out, oopts);
    if (!report.ok()) {
      std::fprintf(stderr, "%s\n", report.status().ToString().c_str());
      return 1;
    }
    if (flags.Get("report") == "json") {
      std::fputs(report->ToJson().c_str(), stdout);
      std::fputs("\n", stdout);
    } else {
      std::printf(
          "wrote %s out-of-core: %s\n"
          "  budget %llu bytes (%s), %zu cached orientation%s\n"
          "  spill: %lld runs, %lld bytes; csr temp %lld bytes; "
          "output %lld bytes\n"
          "  stages: parse %.2fs, merge %.2fs, write %.2fs, orient %.2fs "
          "(total %.2fs)\n",
          out.c_str(), report->ingest.Summary().c_str(),
          static_cast<unsigned long long>(budget),
          report->direct_io ? "O_DIRECT" : "buffered",
          oopts.orientations.size(),
          oopts.orientations.size() == 1 ? "" : "s",
          static_cast<long long>(report->spill_runs),
          static_cast<long long>(report->spill_bytes),
          static_cast<long long>(report->csr_temp_bytes),
          static_cast<long long>(report->output_bytes),
          report->parse_seconds, report->merge_seconds,
          report->write_seconds, report->orient_seconds,
          report->total_seconds);
    }
    return 0;
  }

  Timer timer;
  Graph graph;
  if (LooksLikeTlgFile(in)) {
    auto t = TlgFile::Open(in);
    if (!t.ok()) {
      std::fprintf(stderr, "%s\n", t.status().ToString().c_str());
      return 1;
    }
    graph = t->graph();
    std::printf("loaded %s: n=%zu m=%zu (%s)\n", in.c_str(),
                graph.num_nodes(), graph.num_edges(),
                t->mmap_backed() ? "mmap" : "read fallback");
  } else {
    IngestOptions opts;
    opts.threads = threads;
    auto r = IngestEdgeListFile(in, opts);
    if (!r.ok()) {
      std::fprintf(stderr, "%s\n", r.status().ToString().c_str());
      return 1;
    }
    graph = std::move(r->graph);
    std::printf("ingested %s: %s\n", in.c_str(),
                r->stats.Summary().c_str());
  }

  if (EndsWith(out, ".tlg")) {
    TlgWriteOptions opts;
    opts.threads = threads;
    if (!flags.Get("orders").empty() &&
        !ParseOrderList(flags.Get("orders"), seed, &opts.orientations)) {
      return 2;
    }
    const Status st = WriteTlgFile(graph, out, opts);
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("wrote %s: n=%zu m=%zu, %zu cached orientation%s "
                "(%.2fs)\n",
                out.c_str(), graph.num_nodes(), graph.num_edges(),
                opts.orientations.size(),
                opts.orientations.size() == 1 ? "" : "s",
                timer.ElapsedSeconds());
  } else {
    const Status st = WriteEdgeListFile(graph, out);
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("wrote %s: n=%zu m=%zu as text (%.2fs)\n", out.c_str(),
                graph.num_nodes(), graph.num_edges(),
                timer.ElapsedSeconds());
  }
  return 0;
}

int CmdInfo(const Flags& flags) {
  const std::string in = flags.Get("in");
  if (in.empty()) {
    std::fprintf(stderr, "info: --in FILE.tlg is required\n");
    return 2;
  }
  if (!LooksLikeTlgFile(in)) {
    std::fprintf(stderr, "%s is not a .tlg container\n", in.c_str());
    return 1;
  }
  auto t = TlgFile::Open(in);
  if (!t.ok()) {
    std::fprintf(stderr, "%s\n", t.status().ToString().c_str());
    return 1;
  }
  const Graph& g = t->graph();
  std::printf("%s: .tlg version %u, %zu bytes (%s, madvise %s)\n",
              in.c_str(), t->version(), t->file_size(),
              t->mmap_backed() ? "mmap" : "read fallback",
              t->backing()->applied_advice());
  std::printf("  nodes %zu, edges %zu, max degree %lld\n",
              g.num_nodes(), g.num_edges(),
              static_cast<long long>(g.MaxDegree()));
  std::printf("  %-14s %6s %12s %12s %10s\n", "section", "aux", "offset",
              "length", "crc32");
  for (const TlgFile::SectionInfo& s : t->sections()) {
    std::printf("  %-14s %6u %12llu %12llu %10u\n",
                TlgSectionTypeName(s.type), s.aux,
                static_cast<unsigned long long>(s.offset),
                static_cast<unsigned long long>(s.length), s.crc32);
  }
  if (t->orientation_specs().empty()) {
    std::printf("  cached orientations: none\n");
  } else {
    std::printf("  cached orientations:");
    for (const OrientSpec& spec : t->orientation_specs()) {
      std::printf(" %s", PermutationKindName(spec.kind));
      if (spec.kind == PermutationKind::kUniform) {
        std::printf("(seed=%llu)",
                    static_cast<unsigned long long>(spec.seed));
      }
    }
    std::printf("\n");
  }
  std::printf("  all section CRCs verified\n");
  return 0;
}

int CmdModel(const Flags& flags) {
  const double alpha = flags.GetDouble("alpha", 1.7);
  const auto n = static_cast<int64_t>(flags.GetUint("n", 1000000));
  const TruncationKind trunc = ParseTrunc(flags.Get("trunc", "root"));
  const double eps = flags.GetDouble("eps", 1e-5);
  Method method = Method::kT1;
  if (!flags.Get("method").empty() &&
      !ParseMethod(flags.Get("method"), &method)) {
    std::fprintf(stderr, "unknown method '%s'\n",
                 flags.Get("method").c_str());
    return 2;
  }
  PermutationKind order = PermutationKind::kDescending;
  if (!flags.Get("order").empty() &&
      !ParseOrder(flags.Get("order"), &order)) {
    std::fprintf(stderr, "unknown order '%s'\n", flags.Get("order").c_str());
    return 2;
  }
  if (order == PermutationKind::kDegenerate ||
      order == PermutationKind::kAot ||
      order == PermutationKind::kSplit) {
    std::fprintf(stderr, "the %s order has no distribution-level model\n",
                 PermutationKindName(order));
    return 2;
  }
  const DiscretePareto base = DiscretePareto::PaperParameterization(alpha);
  const int64_t t_n = TruncationPoint(trunc, n);
  const TruncatedDistribution fn(base, t_n);
  const XiMap xi = XiMap::FromKind(order);
  const double model = ExactDiscreteCost(fn, t_n, method, xi);
  std::printf("E[c_n(%s, %s)] at n=%lld (%s truncation): %.4f\n",
              MethodName(method), PermutationKindName(order),
              static_cast<long long>(n), TruncationKindName(trunc), model);
  if (IsFiniteAsymptoticCost(method, xi, alpha)) {
    std::printf("asymptotic limit: %.4f\n",
                AsymptoticCost(base, method, xi, WeightFn::Identity(), eps));
  } else {
    std::printf("asymptotic limit: infinite (finite iff alpha > %.4f)\n",
                FinitenessThresholdAlpha(method, xi));
  }
  return 0;
}

int CmdOrders(const Flags& /*flags*/) {
  std::printf("%-6s %-11s %-6s %s\n", "cli", "key", "flags", "description");
  for (const OrderingProvider* p : OrderingRegistry::Instance().all()) {
    std::string caps;
    if (p->positional()) caps += 'P';
    if (p->graph_dependent()) caps += 'G';
    if (p->seeded()) caps += 'S';
    std::printf("%-6s %-11s %-6s %s\n", p->cli_name(), p->key(),
                caps.c_str(), p->description());
  }
  std::printf(
      "\nflags: P = positional (priced exactly from the degree sequence),\n"
      "       G = graph-dependent (needs adjacency; priced via a proxy),\n"
      "       S = consumes --seed\n"
      "Every --order flag accepts the cli spelling or the key.\n");
  return 0;
}

int CmdAdvise(const Flags& flags) {
  const double alpha = flags.GetDouble("alpha", 1.7);
  const double speedup = flags.GetDouble("speedup", 95.0);
  const MethodAdvice advice = AdviseForPareto(alpha, speedup);
  std::printf("alpha=%.3f, scanning speedup %.0fx -> use %s with %s\n%s\n",
              alpha, speedup, MethodName(advice.method),
              PermutationKindName(advice.order), advice.rationale.c_str());
  return 0;
}

/// Drain pipe fd of the running daemon; written (one byte, async-signal-
/// safe) by the SIGTERM/SIGINT handler to trigger a graceful drain.
int g_serve_drain_fd = -1;

void HandleServeSignal(int /*signum*/) {
  if (g_serve_drain_fd >= 0) {
    const char byte = 'q';
    [[maybe_unused]] const ssize_t n = ::write(g_serve_drain_fd, &byte, 1);
  }
}

/// Parses `--graph name=path[,name=path...]` registrations.
bool ParseNamedGraphs(const std::string& csv,
                      std::map<std::string, std::string>* out) {
  std::istringstream stream(csv);
  std::string token;
  while (std::getline(stream, token, ',')) {
    if (token.empty()) continue;
    const size_t eq = token.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 == token.size()) {
      std::fprintf(stderr, "--graph expects name=path, got '%s'\n",
                   token.c_str());
      return false;
    }
    (*out)[token.substr(0, eq)] = token.substr(eq + 1);
  }
  return true;
}

int CmdServe(const Flags& flags) {
  serve::ServerOptions options;
  if (flags.Has("tcp")) {
    options.tcp = true;
    options.port = static_cast<uint16_t>(flags.GetUint("tcp", 0));
  }
  options.host = flags.Get("host", "127.0.0.1");
  options.unix_path = flags.Get("unix");
  if (!options.tcp && options.unix_path.empty()) {
    std::fprintf(stderr, "serve: --tcp PORT and/or --unix PATH required\n");
    return 2;
  }
  options.catalog.root = flags.Get("graphs");
  if (!ParseNamedGraphs(flags.Get("graph"), &options.catalog.named)) return 2;
  if (options.catalog.root.empty() && options.catalog.named.empty()) {
    std::fprintf(stderr,
                 "serve: --graphs DIR and/or --graph name=path required\n");
    return 2;
  }
  options.workers = static_cast<int>(flags.GetUint("workers", 1));
  options.max_queue = flags.GetUint("queue", 64);
  options.catalog.capacity = flags.GetUint("catalog", 8);
  options.shortest_job_first = flags.Has("sjf");
  options.max_query_threads =
      static_cast<int>(flags.GetUint("max-threads", 0));
  options.send_timeout_s = flags.GetDouble("send-timeout", 30);
  options.catalog.paged = flags.Has("paged");
  // Test hook: lets the drain shell test hold a request in flight long
  // enough to race SIGTERM against it deterministically.
  if (const char* delay = std::getenv("TRILIST_SERVE_EXEC_DELAY_S")) {
    options.debug_exec_delay_s = std::strtod(delay, nullptr);
  }

  auto server = serve::TriangleServer::Start(options);
  if (!server.ok()) {
    std::fprintf(stderr, "%s\n", server.status().ToString().c_str());
    return 1;
  }
  g_serve_drain_fd = (*server)->DrainNotifyFd();
  struct sigaction action = {};
  action.sa_handler = HandleServeSignal;
  ::sigaction(SIGTERM, &action, nullptr);
  ::sigaction(SIGINT, &action, nullptr);

  if (options.tcp) {
    std::printf("trilistd listening on %s:%u\n", options.host.c_str(),
                (*server)->tcp_port());
  }
  if (!options.unix_path.empty()) {
    std::printf("trilistd listening on unix:%s\n",
                options.unix_path.c_str());
  }
  std::fflush(stdout);  // readiness signal for scripted clients

  (*server)->Wait();
  const serve::ServerStats stats = (*server)->StatsSnapshot();
  std::printf("trilistd drained: %llu ok, %llu rejected "
              "(%llu overload, %llu draining), %llu errors\n",
              static_cast<unsigned long long>(stats.responses_ok),
              static_cast<unsigned long long>(stats.rejected_overload +
                                              stats.rejected_draining),
              static_cast<unsigned long long>(stats.rejected_overload),
              static_cast<unsigned long long>(stats.rejected_draining),
              static_cast<unsigned long long>(stats.errors));
  return 0;
}

/// Connects per the --connect/--unix flags shared by query.
Result<serve::ServeClient> ConnectFromFlags(const Flags& flags) {
  const std::string unix_path = flags.Get("unix");
  if (!unix_path.empty()) return serve::ServeClient::ConnectUnix(unix_path);
  const std::string connect = flags.Get("connect");
  const size_t colon = connect.rfind(':');
  if (connect.empty() || colon == std::string::npos) {
    return Status::InvalidArgument(
        "query: --connect HOST:PORT or --unix PATH required");
  }
  const std::string host = connect.substr(0, colon);
  const auto port = static_cast<uint16_t>(ParseUint(
      "connect", connect.substr(colon + 1),
      std::numeric_limits<uint16_t>::max()));
  return serve::ServeClient::ConnectTcp(host, port);
}

int CmdQuery(const Flags& flags) {
  auto connected = ConnectFromFlags(flags);
  if (!connected.ok()) {
    std::fprintf(stderr, "%s\n", connected.status().ToString().c_str());
    return connected.status().code() == StatusCode::kInvalidArgument ? 2 : 1;
  }
  serve::ServeClient client = std::move(connected).ValueOrDie();

  if (flags.Has("stats")) {
    auto stats = client.Stats();
    if (!stats.ok()) {
      std::fprintf(stderr, "%s\n", stats.status().ToString().c_str());
      return 1;
    }
    std::fputs(stats->c_str(), stdout);
    return 0;
  }

  serve::QueryRequest request;
  request.graph = flags.Get("graph");
  if (request.graph.empty()) {
    std::fprintf(stderr, "query: --graph NAME is required\n");
    return 2;
  }
  PermutationKind order = PermutationKind::kDescending;
  if (!flags.Get("order").empty() &&
      !ParseOrder(flags.Get("order"), &order)) {
    std::fprintf(stderr, "unknown order '%s'\n", flags.Get("order").c_str());
    return 2;
  }
  request.orient = OrientSpec{order, flags.GetUint("seed", 1)};
  request.methods.clear();
  if (!ParseMethodList(flags.Get("methods", "E1"), &request.methods)) {
    return 2;
  }
  request.threads = static_cast<int32_t>(flags.GetUint("threads", 1));
  request.repeats = static_cast<int32_t>(flags.GetUint("repeats", 1));

  auto response = client.Query(request);
  if (!response.ok()) {
    std::fprintf(stderr, "query failed: %s\n",
                 response.status().message().c_str());
    // Backpressure is an expected, retryable outcome; give scripts a
    // distinct exit code for it.
    if (client.last_failure_was_reply() &&
        (client.last_error().code == serve::ErrorCode::kOverloaded ||
         client.last_error().code == serve::ErrorCode::kDraining)) {
      return 3;
    }
    return 1;
  }

  std::printf("%s (n=%llu m=%llu): %s graph, %s orientation, "
              "predicted cost %.3g, queue wait %.3fs\n",
              request.graph.c_str(),
              static_cast<unsigned long long>(response->num_nodes),
              static_cast<unsigned long long>(response->num_edges),
              response->catalog_hit ? "warm" : "cold-loaded",
              response->orientation_cached ? "cached" : "built",
              response->predicted_cost, response->queue_wait_s);
  std::printf("  stages:");
  for (const serve::StageWall& stage : response->stages) {
    std::printf(" %s %.3fs", stage.name.c_str(), stage.wall_s);
  }
  std::printf("\n");
  for (const serve::MethodResult& m : response->methods) {
    std::printf("  %-4s triangles %llu, paper-metric ops %.0f, "
                "wall %.3fs%s\n",
                MethodName(m.method),
                static_cast<unsigned long long>(m.triangles), m.paper_ops,
                m.wall_s, m.parallel ? " (parallel)" : "");
  }
  if (flags.Has("report")) std::fputs(response->report_json.c_str(), stdout);
  return 0;
}

/// Parses "u:v[,u:v...]" into mutations with the given direction.
bool ParseEdgePairs(const std::string& text, bool insert,
                    std::vector<dyn::EdgeMutation>* ops) {
  if (text.empty()) return true;
  std::istringstream stream(text);
  std::string pair;
  while (std::getline(stream, pair, ',')) {
    const size_t colon = pair.find(':');
    if (colon == std::string::npos || colon == 0 ||
        colon + 1 >= pair.size()) {
      std::fprintf(stderr, "mutate: bad edge '%s' (want u:v)\n",
                   pair.c_str());
      return false;
    }
    const char* flag = insert ? "add" : "del";
    constexpr uint64_t kMaxId = std::numeric_limits<NodeId>::max();
    dyn::EdgeMutation m;
    m.u = static_cast<NodeId>(ParseUint(flag, pair.substr(0, colon), kMaxId));
    m.v = static_cast<NodeId>(ParseUint(flag, pair.substr(colon + 1), kMaxId));
    m.insert = insert;
    if (m.u == m.v) {
      std::fprintf(stderr, "mutate: self-loop '%s' rejected\n",
                   pair.c_str());
      return false;
    }
    ops->push_back(m);
  }
  return true;
}

/// Remote mode: ship the batch to a running trilistd and report the new
/// epoch's state.
int CmdMutateRemote(const Flags& flags,
                    std::vector<dyn::EdgeMutation> ops) {
  auto connected = ConnectFromFlags(flags);
  if (!connected.ok()) {
    std::fprintf(stderr, "%s\n", connected.status().ToString().c_str());
    return connected.status().code() == StatusCode::kInvalidArgument ? 2
                                                                     : 1;
  }
  serve::ServeClient client = std::move(connected).ValueOrDie();
  serve::MutateRequest request;
  request.graph = flags.Get("graph");
  if (request.graph.empty()) {
    std::fprintf(stderr, "mutate: --graph NAME is required\n");
    return 2;
  }
  const size_t batch =
      static_cast<size_t>(flags.GetUint("batch", 4096));
  for (size_t pos = 0; pos < ops.size();) {
    const size_t len = std::min(batch, ops.size() - pos);
    request.ops.assign(ops.begin() + static_cast<ptrdiff_t>(pos),
                       ops.begin() + static_cast<ptrdiff_t>(pos + len));
    pos += len;
    auto reply = client.Mutate(request);
    if (!reply.ok()) {
      std::fprintf(stderr, "mutate failed: %s\n",
                   reply.status().message().c_str());
      if (client.last_failure_was_reply() &&
          (client.last_error().code == serve::ErrorCode::kOverloaded ||
           client.last_error().code == serve::ErrorCode::kDraining)) {
        return 3;
      }
      return 1;
    }
    std::printf(
        "%s: epoch %llu seq %llu  +%llu -%llu (%llu noop)  "
        "triangles %llu  n=%llu m=%llu overlay=%llu%s  %.3fs\n",
        request.graph.c_str(),
        static_cast<unsigned long long>(reply->epoch),
        static_cast<unsigned long long>(reply->seq),
        static_cast<unsigned long long>(reply->applied_inserts),
        static_cast<unsigned long long>(reply->applied_deletes),
        static_cast<unsigned long long>(reply->noops),
        static_cast<unsigned long long>(reply->triangles),
        static_cast<unsigned long long>(reply->num_nodes),
        static_cast<unsigned long long>(reply->num_edges),
        static_cast<unsigned long long>(reply->overlay_arcs),
        reply->compacted ? " (compacted)" : "", reply->wall_s);
  }
  return 0;
}

/// Local mode: replay a mutation log over a graph through the
/// incremental maintenance path and (with --verify) prove the result
/// against a from-scratch recount + byte-identical compaction.
int CmdMutateLocal(const Flags& flags,
                   std::vector<dyn::EdgeMutation> ops) {
  const std::string in = flags.Get("in");
  Result<Graph> base = LooksLikeTlgFile(in)
                           ? [&]() -> Result<Graph> {
                               auto t = TlgFile::Open(in);
                               if (!t.ok()) return t.status();
                               // Owning rebuild: the mmap dies with `t`.
                               return Graph::FromEdges(
                                   t->graph().num_nodes(),
                                   t->graph().EdgeList());
                             }()
                           : ReadEdgeListFile(in);
  if (!base.ok()) {
    std::fprintf(stderr, "%s\n", base.status().ToString().c_str());
    return 1;
  }

  dyn::ReplayOptions options;
  options.batch_size = static_cast<size_t>(flags.GetUint("batch", 256));
  options.threads = static_cast<int>(flags.GetUint("threads", 1));
  options.recount_orient = OrientSpec{PermutationKind::kDescending, 0};
  options.verify_tlg = flags.Has("verify");
  const std::string out = flags.Get("out");
  if (options.verify_tlg) {
    const std::string stem =
        "/tmp/trilist-mutate-" + std::to_string(::getpid());
    options.compact_path = out.empty() ? stem + "-compact.tlg" : out;
    options.fresh_path = stem + "-fresh.tlg";
    options.orientations = {options.recount_orient};
  }

  auto report = dyn::ReplayVerify(*base, ops, options);
  const bool keep_out = !out.empty();
  if (options.verify_tlg) {
    ::unlink(options.fresh_path.c_str());
    if (!keep_out) ::unlink(options.compact_path.c_str());
  }
  if (!report.ok()) {
    std::fprintf(stderr, "%s\n", report.status().ToString().c_str());
    return 1;
  }
  std::printf(
      "replayed %llu mutations (%llu applied, %llu noop) in %llu "
      "batches, %llu compactions\n",
      static_cast<unsigned long long>(report->mutations),
      static_cast<unsigned long long>(report->applied),
      static_cast<unsigned long long>(report->noops),
      static_cast<unsigned long long>(report->batches),
      static_cast<unsigned long long>(report->compactions));
  std::printf(
      "final graph: n=%llu m=%llu, incremental triangles %llu "
      "(apply %.3fs, %lld comparisons, predicted %.0f ops)\n",
      static_cast<unsigned long long>(report->final_nodes),
      static_cast<unsigned long long>(report->final_edges),
      static_cast<unsigned long long>(report->incremental_triangles),
      report->apply_wall_s, static_cast<long long>(report->comparisons),
      report->predicted_ops);
  std::printf("recount: T1 %llu, T2 %llu (%.3fs) -> %s\n",
              static_cast<unsigned long long>(report->recount_t1),
              static_cast<unsigned long long>(report->recount_t2),
              report->recount_wall_s,
              report->counts_match ? "match" : "MISMATCH");
  if (report->tlg_checked) {
    std::printf("compaction vs fresh convert: %s\n",
                report->tlg_bitmatch ? "bit-identical" : "DIVERGED");
  }
  if (!dyn::ReplayPassed(*report)) return 1;
  return 0;
}

int CmdMutate(const Flags& flags) {
  std::vector<dyn::EdgeMutation> ops;
  const std::string ops_file = flags.Get("ops-file", flags.Get("log"));
  if (!ops_file.empty()) {
    auto log = dyn::ReadMutationLog(ops_file);
    if (!log.ok()) {
      std::fprintf(stderr, "%s\n", log.status().ToString().c_str());
      return 1;
    }
    ops = std::move(log).ValueOrDie();
  }
  if (!ParseEdgePairs(flags.Get("add"), true, &ops)) return 2;
  if (!ParseEdgePairs(flags.Get("del"), false, &ops)) return 2;
  if (ops.empty()) {
    std::fprintf(stderr,
                 "mutate: no mutations (use --add, --del or --ops-file)\n");
    return 2;
  }
  if (flags.Has("connect") || flags.Has("unix")) {
    return CmdMutateRemote(flags, std::move(ops));
  }
  if (flags.Get("in").empty()) {
    std::fprintf(stderr,
                 "mutate: --in GRAPH (local) or --connect/--unix "
                 "(remote) is required\n");
    return 2;
  }
  return CmdMutateLocal(flags, std::move(ops));
}

int CmdVersion(const Flags& /*flags*/) {
  const BuildInfo& info = GetBuildInfo();
  std::printf("%s\n", BuildInfoSummary());
  std::printf("  flags: %s\n", info.flags);
  std::printf("  simd: %s (widest level the CPU supports)\n",
              SimdLevelName(ActiveSimdLevel()));
  return 0;
}

/// A subcommand, its usage block and the --flag keys it reads; Flags
/// rejects any other key, and `<name> --help` prints the usage block and
/// this list.
struct Subcommand {
  const char* name;
  int (*run)(const Flags&);
  std::vector<std::string> flags;
  const char* usage;
};

const std::vector<Subcommand>& Subcommands() {
  static const std::vector<Subcommand> kAll = {
      {"generate", CmdGenerate, {"n", "alpha", "trunc", "seed", "out"},
       "  generate --n N --alpha A [--trunc root|linear] [--seed S] --out F\n"},
      {"count", CmdCount,
       {"in", "method", "order", "seed", "threads", "intersect",
        "mem-budget"},
       "  count    --in F [--method T1..L6|auto] [--order O|auto]\n"
       "           (orders: D|A|RR|CRR|U|degen|aot|split; see `orders`;\n"
       "            auto = pick the min-predicted-cost plan, Section 3)\n"
       "           [--seed S]   (theta_U's shuffle seed)\n"
       "           [--threads N]   (N > 1: parallel engine; 0 = hardware)\n"
       "           [--intersect merge|bitmap|auto]\n"
       "           (auto = the planner picks the backend; bitmap hubs are\n"
       "            rows of degree >= max(64, n/64))\n"
       "           [--mem-budget SIZE]   (e.g. 64M; E1/E2 run partitioned\n"
       "            under the budget; .tlg inputs demand-page + evict)\n"
       "           (--in accepts text edge lists or .tlg containers)\n"},
      {"run", CmdRun,
       {"in", "n", "alpha", "trunc", "gen", "methods", "method", "order",
        "seed", "threads", "repeats", "intersect",
        "report", "trace", "metrics", "degree-profile", "mem-budget"},
       "  run      [--in F | --n N --alpha A [--trunc root|linear]\n"
       "           [--gen residual|config|gnp]]\n"
       "           [--methods M1,M2,...|all|fundamental|auto] [--order O|auto]\n"
       "           (--method is accepted as a synonym of --methods)\n"
       "           [--seed S] [--threads N] [--repeats R]\n"
       "           [--intersect merge|bitmap|auto]\n"
       "           (auto = the planner picks the backend, alone or with\n"
       "            --methods/--order auto; the report's \"plan\" object\n"
       "            audits the choice)\n"
       "           [--report table|json] [--trace F.json] [--metrics F.prom]\n"
       "           [--degree-profile] [--mem-budget SIZE]\n"
       "           (--trace: Chrome/Perfetto span trace of the pipeline;\n"
       "            --metrics: Prometheus text exposition of the report;\n"
       "            --degree-profile: per-log2-degree-bucket measured ops\n"
       "            vs the model's g(d)h(q) with relative residuals)\n"},
      {"model", CmdModel, {"alpha", "n", "trunc", "method", "order", "eps"},
       "  model    --alpha A [--n N] [--trunc ...] [--method M] [--order O]\n"
       "           [--eps E]   (Algorithm 2 block width; default 1e-5)\n"},
      {"orders", CmdOrders, {},
       "  orders   (list registered orderings: keys, flags, descriptions)\n"},
      {"advise", CmdAdvise, {"alpha", "speedup"},
       "  advise   --alpha A [--speedup X]\n"},
      {"convert", CmdConvert,
       {"in", "out", "orders", "seed", "threads", "mem-budget", "tmpdir",
        "io-workers", "no-direct-io", "report"},
       "  convert  --in F --out F [--orders D,RR,...] [--seed S]\n"
       "           [--threads N]   (--out *.tlg = binary, else text)\n"
       "           [--mem-budget SIZE [--tmpdir DIR] [--io-workers N]\n"
       "            [--no-direct-io] [--report json]]\n"
       "           (--mem-budget: out-of-core text -> .tlg conversion;\n"
       "            external edge sort spills to --tmpdir, peak memory\n"
       "            stays under the budget for any graph size)\n"},
      {"info", CmdInfo, {"in"},
       "  info     --in F.tlg   (describes the on-disk snapshot; a served\n"
       "           graph's live epoch/overlay state is in `query --stats`)\n"},
      {"serve", CmdServe,
       {"tcp", "host", "unix", "graphs", "graph", "workers", "queue",
        "catalog", "sjf", "max-threads", "send-timeout", "paged"},
       "  serve    [--tcp PORT] [--host H] [--unix PATH] [--graphs DIR]\n"
       "           [--graph name=path[,...]] [--workers N] [--queue N]\n"
       "           [--catalog N] [--sjf] [--max-threads N] [--send-timeout SEC]\n"
       "           [--paged]   (demand-page .tlg graphs instead of eager\n"
       "            load + CRC sweep; for catalogs larger than RAM)\n"
       "           (trilistd: the triangle-query daemon; --tcp 0 binds an\n"
       "            ephemeral port; SIGTERM drains gracefully)\n"},
      {"query", CmdQuery,
       {"connect", "unix", "graph", "methods", "order", "seed", "threads",
        "repeats", "report", "stats"},
       "  query    (--connect HOST:PORT | --unix PATH) --graph NAME\n"
       "           [--methods ...] [--order O] [--seed S] [--threads N]\n"
       "           [--repeats R] [--report] [--stats]\n"},
      {"mutate", CmdMutate,
       {"connect", "unix", "graph", "add", "del", "ops-file", "log", "batch",
        "in", "verify", "out", "threads"},
       "  mutate   (--connect HOST:PORT | --unix PATH) --graph NAME\n"
       "           [--add u:v[,u:v...]] [--del u:v[,...]] [--ops-file F]\n"
       "           [--batch N]   (remote: batched edge inserts/deletes;\n"
       "            each batch publishes a new epoch, count stays exact)\n"
       "       or  --in GRAPH --log F [--verify] [--out F.tlg]\n"
       "           [--batch N] [--threads N]\n"
       "           (local: replay a mutation log incrementally; --verify\n"
       "            recounts from scratch with T1+T2 and byte-compares a\n"
       "            compaction against a fresh convert — exit 1 on any\n"
       "            divergence)\n"},
      {"version", CmdVersion, {},
       "  version  (build provenance: version, git hash, compiler, flags)\n"},
  };
  return kAll;
}

/// Every subcommand's usage block: to stdout with exit 0 when asked for
/// (`--help`), else to stderr with the usage-error exit 2.
int Usage(bool asked) {
  FILE* out = asked ? stdout : stderr;
  std::string names;
  for (const Subcommand& sub : Subcommands()) {
    names += (names.empty() ? "" : "|") + std::string(sub.name);
  }
  std::fprintf(out,
               "usage: trilist_cli <%s> [--flag value]...\n"
               "       trilist_cli <subcommand> --help\n",
               names.c_str());
  for (const Subcommand& sub : Subcommands()) std::fputs(sub.usage, out);
  return asked ? 0 : 2;
}

/// `<subcommand> --help`: its usage block and the flag keys it accepts.
int SubcommandHelp(const Subcommand& sub) {
  std::printf("usage: trilist_cli\n%s", sub.usage);
  std::printf("flags:");
  for (const std::string& key : sub.flags) std::printf(" --%s", key.c_str());
  std::printf("%s\n", sub.flags.empty() ? " (none)" : "");
  return 0;
}

bool AsksForHelp(int argc, char** argv) {
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--help") == 0) return true;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage(/*asked=*/false);
  const std::string cmd =
      std::strcmp(argv[1], "--version") == 0 ? "version" : argv[1];
  for (const Subcommand& sub : Subcommands()) {
    if (cmd != sub.name) continue;
    if (AsksForHelp(argc, argv)) return SubcommandHelp(sub);
    return sub.run(Flags(argc, argv, sub.flags));
  }
  return Usage(/*asked=*/cmd == "--help" || cmd == "help");
}
