#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "src/util/status.h"

/// \file trace.h
/// Low-overhead span tracer for the whole pipeline, flushed as Chrome
/// trace-event JSON (loadable in Perfetto or chrome://tracing).
///
/// ## Model
/// A span is one complete event `{name, tid, t_start, dur, args}` (Chrome
/// phase "X"). Spans are recorded by the RAII TraceSpan class — or the
/// TRILIST_TRACE_SPAN macro — at every interesting boundary: Runner
/// stages, each listing method, every parallel-engine chunk (shard id,
/// vertex range, measured ops), ingest parse chunks and the orientation
/// build. Span names must be string literals (or otherwise outlive the
/// tracer session): events store the pointer, not a copy, which is what
/// keeps recording allocation-free.
///
/// ## Overhead discipline
/// Tracing is off by default. A span site on the disabled path costs one
/// relaxed atomic load and a branch — measured at well under 1% of any
/// listing workload by bench_obs_overhead, which CI smoke-runs. When
/// enabled, each thread appends into its own fixed-capacity ring buffer
/// with no locks and no allocation (single-writer; the flusher reads
/// completed prefixes via acquire loads), so enabled-path overhead stays
/// under the 5% budget. When a buffer fills, further events on that
/// thread are counted as dropped rather than blocking the worker.
///
/// Defining TRILIST_TRACING=0 at compile time removes every span site
/// entirely (TraceSpan becomes an empty shell the optimizer deletes);
/// the default build keeps them compiled in and runtime-gated.

#ifndef TRILIST_TRACING
#define TRILIST_TRACING 1
#endif

namespace trilist::obs {

/// One span argument: a static-string key with either a numeric or a
/// static-string value (str == nullptr means numeric).
struct TraceArg {
  const char* key = nullptr;
  const char* str = nullptr;
  int64_t num = 0;
};

/// One completed span. Plain data; copied into the ring buffer whole.
struct TraceEvent {
  static constexpr int kMaxArgs = 4;
  const char* name = nullptr;  ///< static string; nullptr = not recording.
  uint64_t start_ns = 0;       ///< relative to the tracer epoch.
  uint64_t dur_ns = 0;
  int num_args = 0;
  TraceArg args[kMaxArgs];
};

/// \brief Process-wide trace collector: per-thread ring buffers behind a
/// single runtime switch.
///
/// All members are static — the tracer is inherently a process singleton
/// (threads are process-wide, and the Chrome JSON artifact describes one
/// process). Enable/Clear/ToChromeJson are not safe to race with each
/// other, but recording (TraceSpan on any thread) is always safe against
/// all of them.
class Tracer {
 public:
  /// Events each thread can hold per session; further spans are dropped
  /// (and counted) instead of blocking or reallocating.
  static constexpr size_t kEventsPerThread = 1 << 14;

  /// Turns recording on. Spans opened before Enable are not recorded.
  /// The time epoch is kept (the first Enable of the process starts it),
  /// so a span open across Disable/Enable keeps an exact duration.
  static void Enable();
  /// Turns recording off; already recorded events are kept for flushing.
  static void Disable();
  /// True when spans are being recorded (relaxed; the fast-path check).
  static bool Enabled() {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Discards all recorded events and drop counts and restarts the time
  /// epoch — the only call that does. Thread buffers stay registered
  /// (worker pools keep their ids).
  static void Clear();

  /// Number of recorded (not dropped) events across all threads.
  static size_t EventCount();
  /// Number of events dropped because a thread's buffer was full.
  static uint64_t DroppedCount();

  /// The complete Chrome trace-event document: {"displayTimeUnit",
  /// "otherData" (build provenance + drop counter), "traceEvents": [...]}.
  /// Timestamps are microseconds with nanosecond resolution, relative to
  /// the epoch of the last Clear (or the first Enable). A "tid" names a
  /// buffer: threads that ran one after another may share one.
  static std::string ToChromeJson();

  /// Writes ToChromeJson() to `path`.
  static Status WriteChromeJson(const std::string& path);

  /// Appends a fully specified event to the calling thread's buffer even
  /// when disabled — lets tests build deterministic traces.
  static void AppendForTest(const TraceEvent& event);

  /// Nanoseconds since the tracer epoch (steady clock).
  static uint64_t NowNs();

 private:
  friend class TraceSpan;
  /// Copies `event` into the calling thread's ring buffer.
  static void Commit(const TraceEvent& event);

  static std::atomic<bool> enabled_;
};

#if TRILIST_TRACING

/// \brief RAII span: captures the start time at construction (when the
/// tracer is enabled) and commits the completed event at destruction.
/// Args attached between the two are emitted into the event's "args"
/// object. All strings must be static.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name) {
    if (Tracer::Enabled()) {
      event_.name = name;
      event_.start_ns = Tracer::NowNs();
    }
  }
  ~TraceSpan() {
    if (event_.name != nullptr) {
      event_.dur_ns = Tracer::NowNs() - event_.start_ns;
      Tracer::Commit(event_);
    }
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// Attaches a numeric argument (ignored when not recording or full).
  void Arg(const char* key, int64_t value) {
    if (event_.name != nullptr && event_.num_args < TraceEvent::kMaxArgs) {
      event_.args[event_.num_args++] = TraceArg{key, nullptr, value};
    }
  }
  /// Attaches a static-string argument.
  void Arg(const char* key, const char* value) {
    if (event_.name != nullptr && event_.num_args < TraceEvent::kMaxArgs) {
      event_.args[event_.num_args++] = TraceArg{key, value, 0};
    }
  }

 private:
  TraceEvent event_;
};

#else  // !TRILIST_TRACING: span sites compile to nothing.

class TraceSpan {
 public:
  explicit TraceSpan(const char*) {}
  void Arg(const char*, int64_t) {}
  void Arg(const char*, const char*) {}
};

#endif  // TRILIST_TRACING

#define TRILIST_OBS_CONCAT_INNER(a, b) a##b
#define TRILIST_OBS_CONCAT(a, b) TRILIST_OBS_CONCAT_INNER(a, b)

/// Anonymous scoped span: TRILIST_TRACE_SPAN("order"); traces the rest of
/// the enclosing scope. Use a named TraceSpan when attaching args.
#define TRILIST_TRACE_SPAN(name)                                      \
  ::trilist::obs::TraceSpan TRILIST_OBS_CONCAT(trilist_trace_span_,   \
                                               __LINE__)(name)

}  // namespace trilist::obs
