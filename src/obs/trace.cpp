#include "src/obs/trace.h"

#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <vector>

#include "src/util/build_info.h"
#include "src/util/json_writer.h"

namespace trilist::obs {

namespace {

/// Fixed-capacity single-writer event buffer. The owning thread is the
/// only writer; flushers read the prefix [0, count) with an acquire load,
/// which the release store in Push makes safe without locks.
struct ThreadBuffer {
  explicit ThreadBuffer(uint32_t tid_in) : tid(tid_in) {
    events.resize(Tracer::kEventsPerThread);
  }

  void Push(const TraceEvent& event) {
    const size_t idx = count.load(std::memory_order_relaxed);
    if (idx >= events.size()) {
      dropped.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    events[idx] = event;
    count.store(idx + 1, std::memory_order_release);
  }

  std::vector<TraceEvent> events;
  std::atomic<size_t> count{0};
  std::atomic<uint64_t> dropped{0};
  const uint32_t tid;
};

/// All thread buffers ever registered. Buffers are never destroyed while
/// the process runs (Clear resets them in place), so the thread_local
/// pointers below can never dangle, even across tracer sessions. A
/// thread that exits returns its buffer to `free`, events included; the
/// next new thread takes it before anything is allocated, so a process
/// that starts threads in a loop holds as many buffers as it has live
/// recording threads, not as many as it ever started.
struct Registry {
  std::mutex mu;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers;
  std::vector<ThreadBuffer*> free;
};

Registry& GetRegistry() {
  static Registry* registry = new Registry();
  return *registry;
}

/// Epoch of the current session, in steady-clock nanoseconds.
std::atomic<uint64_t> g_epoch_ns{0};

uint64_t SteadyNowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// The calling thread's claim on a buffer, handed back at thread exit.
/// The registry mutex orders the exiting writer before the next one.
struct LocalSlot {
  ThreadBuffer* buffer = nullptr;

  ~LocalSlot() {
    if (buffer == nullptr) return;
    Registry& registry = GetRegistry();
    const std::lock_guard<std::mutex> lock(registry.mu);
    registry.free.push_back(buffer);
    buffer = nullptr;
  }
};

ThreadBuffer* LocalBuffer() {
  thread_local LocalSlot slot;
  if (slot.buffer == nullptr) {
    Registry& registry = GetRegistry();
    const std::lock_guard<std::mutex> lock(registry.mu);
    if (!registry.free.empty()) {
      slot.buffer = registry.free.back();
      registry.free.pop_back();
    } else {
      registry.buffers.push_back(std::make_unique<ThreadBuffer>(
          static_cast<uint32_t>(registry.buffers.size())));
      slot.buffer = registry.buffers.back().get();
    }
  }
  return slot.buffer;
}

}  // namespace

std::atomic<bool> Tracer::enabled_{false};

void Tracer::Enable() {
  // Keep the running clock: a span open across Disable/Enable must close
  // on the epoch it opened on. Only the very first session starts it.
  uint64_t unset = 0;
  g_epoch_ns.compare_exchange_strong(unset, SteadyNowNs(),
                                     std::memory_order_relaxed);
  enabled_.store(true, std::memory_order_release);
}

void Tracer::Disable() { enabled_.store(false, std::memory_order_release); }

void Tracer::Clear() {
  Registry& registry = GetRegistry();
  const std::lock_guard<std::mutex> lock(registry.mu);
  for (const auto& buffer : registry.buffers) {
    buffer->count.store(0, std::memory_order_release);
    buffer->dropped.store(0, std::memory_order_relaxed);
  }
  g_epoch_ns.store(SteadyNowNs(), std::memory_order_relaxed);
}

size_t Tracer::EventCount() {
  Registry& registry = GetRegistry();
  const std::lock_guard<std::mutex> lock(registry.mu);
  size_t total = 0;
  for (const auto& buffer : registry.buffers) {
    total += buffer->count.load(std::memory_order_acquire);
  }
  return total;
}

uint64_t Tracer::DroppedCount() {
  Registry& registry = GetRegistry();
  const std::lock_guard<std::mutex> lock(registry.mu);
  uint64_t total = 0;
  for (const auto& buffer : registry.buffers) {
    total += buffer->dropped.load(std::memory_order_relaxed);
  }
  return total;
}

uint64_t Tracer::NowNs() {
  return SteadyNowNs() - g_epoch_ns.load(std::memory_order_relaxed);
}

void Tracer::Commit(const TraceEvent& event) { LocalBuffer()->Push(event); }

void Tracer::AppendForTest(const TraceEvent& event) {
  LocalBuffer()->Push(event);
}

std::string Tracer::ToChromeJson() {
  const BuildInfo& build = GetBuildInfo();
  JsonWriter w;
  w.BeginObject();
  w.Field("displayTimeUnit", "ms");

  w.Key("otherData");
  w.BeginObject();
  w.Field("tool", "trilist");
  w.Field("version", build.version);
  w.Field("git_hash", build.git_hash);
  w.Field("compiler", build.compiler);
  w.Field("build_type", build.build_type);
  w.Field("dropped_events", DroppedCount());
  w.EndObject();

  w.Key("traceEvents");
  w.BeginArray();
  Registry& registry = GetRegistry();
  const std::lock_guard<std::mutex> lock(registry.mu);
  for (const auto& buffer : registry.buffers) {
    const size_t count = buffer->count.load(std::memory_order_acquire);
    for (size_t i = 0; i < count; ++i) {
      const TraceEvent& e = buffer->events[i];
      w.BeginObject();
      w.Field("name", e.name);
      w.Field("cat", "trilist");
      w.Field("ph", "X");
      w.Field("pid", 1);
      w.Field("tid", static_cast<int64_t>(buffer->tid));
      // Chrome expects microseconds; three decimals keep ns resolution.
      w.FieldDouble("ts", static_cast<double>(e.start_ns) / 1e3, 3);
      w.FieldDouble("dur", static_cast<double>(e.dur_ns) / 1e3, 3);
      if (e.num_args > 0) {
        w.Key("args");
        w.BeginObject();
        for (int a = 0; a < e.num_args; ++a) {
          const TraceArg& arg = e.args[a];
          if (arg.str != nullptr) {
            w.Field(arg.key, arg.str);
          } else {
            w.Field(arg.key, arg.num);
          }
        }
        w.EndObject();
      }
      w.EndObject();
    }
  }
  w.EndArray();
  w.EndObject();
  return std::move(w).Finish();
}

Status Tracer::WriteChromeJson(const std::string& path) {
  const std::string json = ToChromeJson();
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Status::InvalidArgument("cannot open for writing: " + path);
  }
  const size_t written = std::fwrite(json.data(), 1, json.size(), f);
  const bool close_ok = std::fclose(f) == 0;
  if (written != json.size() || !close_ok) {
    return Status::Internal("short write: " + path);
  }
  return Status::OK();
}

}  // namespace trilist::obs
