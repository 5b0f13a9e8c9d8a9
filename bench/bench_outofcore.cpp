/// \file bench_outofcore.cpp
/// End-to-end acceptance bench of the out-of-core pipeline (src/ooc):
/// converts and E1-counts a Pareto graph at least 4x larger than the
/// memory budget through `trilist_cli` subprocesses, measuring each
/// child's peak RSS with wait4(2). The paged count runs twice, through
/// `count` and through `run --report json`, which share one budgeted
/// path. The run FAILS (exit 1) unless
///
///   * the produced `.tlg` is >= 4x the budget,
///   * the conversion, the paged `count` and the paged `run` each stayed
///     under the budget (child ru_maxrss, i.e. the whole process, not
///     just the ledger),
///   * both paged runs are bit-identical to an uncapped in-memory count.
///
/// Results (peak RSS, spill bytes, effective GB/s per stage) land in
/// BENCH_outofcore.json. The CLI binary path is injected at build time
/// (TRILIST_CLI_BIN); workdir defaults to TMPDIR or /tmp. The committed
/// record comes from the default scale:
///
///   cmake --build build --target bench_outofcore trilist_cli
///   (cd build && ./bench/bench_outofcore) && cp build/BENCH_outofcore.json .

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include "bench_common.h"
#include "src/util/json_writer.h"
#include "src/util/timer.h"

namespace {

using trilist::JsonWriter;
using trilist::Timer;

struct ChildResult {
  int exit_code = -1;
  int64_t peak_rss_bytes = 0;
  double wall_s = 0;
  std::string stdout_text;
};

/// fork/exec `argv`, capture stdout, and report the child's peak RSS
/// from wait4's rusage (ru_maxrss is in KiB on Linux).
ChildResult RunChild(const std::vector<std::string>& argv) {
  ChildResult result;
  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) return result;
  Timer timer;
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::close(pipe_fds[0]);
    ::dup2(pipe_fds[1], STDOUT_FILENO);
    ::close(pipe_fds[1]);
    std::vector<char*> cargv;
    cargv.reserve(argv.size() + 1);
    for (const std::string& a : argv) {
      cargv.push_back(const_cast<char*>(a.c_str()));
    }
    cargv.push_back(nullptr);
    ::execv(cargv[0], cargv.data());
    std::perror("execv");
    ::_exit(127);
  }
  ::close(pipe_fds[1]);
  char buf[4096];
  ssize_t got;
  while ((got = ::read(pipe_fds[0], buf, sizeof(buf))) > 0) {
    result.stdout_text.append(buf, static_cast<size_t>(got));
  }
  ::close(pipe_fds[0]);
  int status = 0;
  struct rusage usage = {};
  if (::wait4(pid, &status, 0, &usage) == pid) {
    result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    result.peak_rss_bytes = static_cast<int64_t>(usage.ru_maxrss) * 1024;
  }
  result.wall_s = timer.ElapsedSeconds();
  return result;
}

int64_t FileSize(const std::string& path) {
  struct stat st = {};
  return ::stat(path.c_str(), &st) == 0 ? st.st_size : -1;
}

/// Pulls `"key": <integer>` out of a JSON/text blob (no nesting
/// awareness needed: the keys probed are unique in their documents).
int64_t ExtractInt(const std::string& text, const std::string& key) {
  const size_t at = text.find("\"" + key + "\":");
  if (at == std::string::npos) return -1;
  return std::strtoll(text.c_str() + at + key.size() + 3, nullptr, 10);
}

/// Pulls "triangles N" out of `count` subcommand output.
int64_t ExtractTriangles(const std::string& text) {
  const size_t at = text.find("triangles ");
  if (at == std::string::npos) return -1;
  return std::strtoll(text.c_str() + at + 10, nullptr, 10);
}

double GbPerS(int64_t bytes, double seconds) {
  return seconds > 0 ? static_cast<double>(bytes) / 1e9 / seconds : 0;
}

}  // namespace

int main() {
  const std::string cli = TRILIST_CLI_BIN;
  const char* tmp = std::getenv("TMPDIR");
  const std::string workdir =
      std::string(tmp != nullptr ? tmp : "/tmp") + "/trilist_bench_ooc";
  ::mkdir(workdir.c_str(), 0755);
  const std::string text_path = workdir + "/graph.txt";
  const std::string tlg_path = workdir + "/graph.tlg";

  const size_t n = trilist_bench::ScaledN(4000000, 1000000);
  const double alpha = 1.5;
  const uint64_t seed = trilist_bench::Seed();

  std::printf("bench_outofcore: generating pareto n=%zu alpha=%.1f\n", n,
              alpha);
  const ChildResult gen = RunChild(
      {cli, "generate", "--n", std::to_string(n), "--alpha", "1.5",
       "--seed", std::to_string(seed), "--out", text_path});
  if (gen.exit_code != 0) {
    std::fprintf(stderr, "generate failed:\n%s\n",
                 gen.stdout_text.c_str());
    return 1;
  }
  const int64_t text_bytes = FileSize(text_path);

  // Budget: a quarter of the projected container, so the acceptance
  // ratio (graph >= 4x budget) holds by construction; verified against
  // the real file size below.
  const ChildResult probe = RunChild(
      {cli, "convert", "--in", text_path, "--out", tlg_path, "--orders",
       "D", "--mem-budget", "1G", "--tmpdir", workdir});
  if (probe.exit_code != 0) {
    std::fprintf(stderr, "probe convert failed:\n%s\n",
                 probe.stdout_text.c_str());
    return 1;
  }
  const int64_t tlg_bytes = FileSize(tlg_path);
  const int64_t budget = tlg_bytes / 4;
  const std::string budget_flag = std::to_string(budget);
  std::printf("  text %" PRId64 " B, tlg %" PRId64
              " B -> budget %" PRId64 " B\n",
              text_bytes, tlg_bytes, budget);

  // Measured conversion under the real budget.
  const ChildResult convert = RunChild(
      {cli, "convert", "--in", text_path, "--out", tlg_path, "--orders",
       "D", "--mem-budget", budget_flag, "--tmpdir", workdir, "--report",
       "json"});
  if (convert.exit_code != 0) {
    std::fprintf(stderr, "budgeted convert failed:\n%s\n",
                 convert.stdout_text.c_str());
    return 1;
  }
  const int64_t spill_bytes =
      ExtractInt(convert.stdout_text, "spill_bytes");
  const int64_t num_edges = ExtractInt(convert.stdout_text, "num_edges");

  // Paged count under the budget vs the uncapped in-memory reference.
  const ChildResult paged = RunChild(
      {cli, "count", "--in", tlg_path, "--method", "E1", "--order", "D",
       "--mem-budget", budget_flag});
  const ChildResult reference = RunChild(
      {cli, "count", "--in", tlg_path, "--method", "E1", "--order", "D"});
  const ChildResult run_paged = RunChild(
      {cli, "run", "--in", tlg_path, "--methods", "E1", "--order", "D",
       "--mem-budget", budget_flag, "--report", "json"});
  if (paged.exit_code != 0 || reference.exit_code != 0 ||
      run_paged.exit_code != 0) {
    std::fprintf(stderr,
                 "count failed:\npaged:\n%s\nreference:\n%s\nrun:\n%s\n",
                 paged.stdout_text.c_str(), reference.stdout_text.c_str(),
                 run_paged.stdout_text.c_str());
    return 1;
  }
  const int64_t paged_triangles = ExtractTriangles(paged.stdout_text);
  const int64_t reference_triangles =
      ExtractTriangles(reference.stdout_text);
  const int64_t run_triangles = ExtractInt(run_paged.stdout_text, "triangles");
  const int64_t run_passes = ExtractInt(run_paged.stdout_text, "passes");
  const int64_t run_evictions =
      ExtractInt(run_paged.stdout_text, "evictions");

  std::printf("  convert: peak RSS %" PRId64 " B, %.2fs (%.2f GB/s in)\n",
              convert.peak_rss_bytes, convert.wall_s,
              GbPerS(text_bytes, convert.wall_s));
  std::printf("  paged count: %" PRId64 " triangles, peak RSS %" PRId64
              " B, %.2fs (%.2f GB/s)\n",
              paged_triangles, paged.peak_rss_bytes, paged.wall_s,
              GbPerS(tlg_bytes, paged.wall_s));
  std::printf("  paged run: %" PRId64 " triangles, %" PRId64
              " passes, %" PRId64 " evictions, peak RSS %" PRId64
              " B, %.2fs\n",
              run_triangles, run_passes, run_evictions,
              run_paged.peak_rss_bytes, run_paged.wall_s);
  std::printf("  reference count: %" PRId64 " triangles, peak RSS %" PRId64
              " B\n",
              reference_triangles, reference.peak_rss_bytes);

  bool ok = true;
  if (tlg_bytes < 4 * budget) {
    std::fprintf(stderr, "FAIL: graph (%" PRId64
                         " B) is not >= 4x budget (%" PRId64 " B)\n",
                 tlg_bytes, budget);
    ok = false;
  }
  if (convert.peak_rss_bytes >= budget) {
    std::fprintf(stderr, "FAIL: convert RSS %" PRId64
                         " B >= budget %" PRId64 " B\n",
                 convert.peak_rss_bytes, budget);
    ok = false;
  }
  if (paged.peak_rss_bytes >= budget) {
    std::fprintf(stderr, "FAIL: paged count RSS %" PRId64
                         " B >= budget %" PRId64 " B\n",
                 paged.peak_rss_bytes, budget);
    ok = false;
  }
  if (run_paged.peak_rss_bytes >= budget) {
    std::fprintf(stderr, "FAIL: paged run RSS %" PRId64
                         " B >= budget %" PRId64 " B\n",
                 run_paged.peak_rss_bytes, budget);
    ok = false;
  }
  if (paged_triangles < 0 || paged_triangles != reference_triangles) {
    std::fprintf(stderr, "FAIL: paged triangles %" PRId64
                         " != reference %" PRId64 "\n",
                 paged_triangles, reference_triangles);
    ok = false;
  }
  if (run_triangles != reference_triangles) {
    std::fprintf(stderr, "FAIL: paged run triangles %" PRId64
                         " != reference %" PRId64 "\n",
                 run_triangles, reference_triangles);
    ok = false;
  }
  if (spill_bytes <= 0) {
    std::fprintf(stderr, "FAIL: conversion did not spill "
                         "(spill_bytes=%" PRId64 ")\n",
                 spill_bytes);
    ok = false;
  }

  JsonWriter w;
  w.BeginObject();
  w.Field("schema", "trilist.bench_outofcore");
  w.Field("schema_version", 1);
  w.Key("params");
  w.BeginObject();
  w.Field("n", static_cast<uint64_t>(n));
  w.FieldDouble("alpha", alpha);
  w.Field("seed", seed);
  w.Field("budget_bytes", budget);
  w.Field("text_bytes", text_bytes);
  w.Field("tlg_bytes", tlg_bytes);
  w.Field("num_edges", num_edges);
  w.EndObject();
  w.Key("convert");
  w.BeginObject();
  w.Field("peak_rss_bytes", convert.peak_rss_bytes);
  w.FieldDouble("wall_s", convert.wall_s);
  w.Field("spill_bytes", spill_bytes);
  w.FieldDouble("input_gb_per_s", GbPerS(text_bytes, convert.wall_s), 3);
  w.EndObject();
  w.Key("count_paged");
  w.BeginObject();
  w.Field("triangles", paged_triangles);
  w.Field("peak_rss_bytes", paged.peak_rss_bytes);
  w.FieldDouble("wall_s", paged.wall_s);
  w.FieldDouble("graph_gb_per_s", GbPerS(tlg_bytes, paged.wall_s), 3);
  w.EndObject();
  w.Key("run_paged");
  w.BeginObject();
  w.Field("triangles", run_triangles);
  w.Field("passes", run_passes);
  w.Field("evictions", run_evictions);
  w.Field("peak_rss_bytes", run_paged.peak_rss_bytes);
  w.FieldDouble("wall_s", run_paged.wall_s);
  w.FieldDouble("graph_gb_per_s", GbPerS(tlg_bytes, run_paged.wall_s), 3);
  w.EndObject();
  w.Key("count_reference");
  w.BeginObject();
  w.Field("triangles", reference_triangles);
  w.Field("peak_rss_bytes", reference.peak_rss_bytes);
  w.EndObject();
  w.Field("passed", ok);
  w.EndObject();
  const std::string json = std::move(w).Finish();

  const std::string out_path =
      trilist_bench::JsonPath("BENCH_outofcore.json");
  std::FILE* f = std::fopen(out_path.c_str(), "wb");
  if (f != nullptr) {
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    std::printf("wrote %s\n", out_path.c_str());
  }

  ::unlink(text_path.c_str());
  ::unlink(tlg_path.c_str());
  return ok ? 0 : 1;
}
