#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/run/run_report.h"
#include "src/serve/catalog.h"
#include "src/serve/latency_histogram.h"
#include "src/serve/protocol.h"
#include "src/util/status.h"
#include "src/util/timer.h"

/// \file server.h
/// `trilistd`: the long-running triangle-query daemon behind
/// `trilist_cli serve`.
///
/// Architecture (one box per thread group):
///
///   accept loop ──> reader thread per connection ──> admission ──┐
///        │                    │                                  │
///        │            (parse frame, resolve                 bounded
///        │             catalog entry, predict                 queue
///        │             Section-3 cost)                          │
///        │                    │                                 v
///   drain pipe <── SIGTERM    └── reject kOverloaded      worker pool
///                                 when the queue is full       │
///                                                              v
///                                              catalog orientation +
///                                              ListOnOriented (the same
///                                              listing loop as
///                                              `trilist_cli run`)
///
/// Admission control happens on the reader thread: the graph is resolved
/// (and cold-loaded) there, the Section-3 formula cost of the request is
/// computed from the catalog's degree sequence, and the request either
/// enters the bounded queue or is rejected immediately with an explicit
/// kOverloaded error — the daemon never buffers unbounded work and a
/// client always learns its fate. With `shortest_job_first` the queue
/// orders by predicted cost instead of FIFO, which minimizes mean wait
/// when job sizes are heavy-tailed (exactly the regime the paper's
/// Pareto families model).
///
/// Lifecycle: BeginDrain() (idempotent, and signal-safe via
/// DrainNotifyFd) stops the accept loop, refuses new queries with
/// kDraining, lets queued + executing requests finish, then closes every
/// connection. Wait() joins all threads; after it returns the process
/// can exit 0 with no request dropped mid-flight.

namespace trilist::serve {

/// Configuration of a TriangleServer.
struct ServerOptions {
  /// TCP endpoint; enabled when `tcp` is true. Port 0 binds an
  /// ephemeral port (resolved value in TriangleServer::tcp_port()).
  bool tcp = false;
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  /// Unix-domain socket path; enabled when non-empty. Unlinked on
  /// shutdown.
  std::string unix_path;

  /// Worker pool width; <= 0 resolves to the hardware thread count.
  int workers = 1;
  /// Admission queue bound: requests beyond this many queued (not yet
  /// executing) are rejected with kOverloaded.
  size_t max_queue = 64;
  /// Order the queue by the Section-3 predicted cost (shortest first,
  /// FIFO tie-break) instead of pure FIFO.
  bool shortest_job_first = false;
  /// Cap on per-query `threads` requests (<= 0: the hardware width).
  int max_query_threads = 0;
  /// Cap on per-query `repeats` (a hostile client must not buy
  /// unbounded CPU with one cheap frame).
  int max_repeats = 1000;
  /// SO_SNDTIMEO applied to accepted sockets: a client that sends
  /// queries but never drains its responses fails the send after this
  /// long instead of wedging a worker forever (<= 0 disables).
  double send_timeout_s = 30;

  /// Graph registry: capacity, name resolution, paging and the mutation
  /// compaction trigger.
  CatalogOptions catalog;

  /// Test-only: every worker sleeps this long before executing a
  /// request, making queue states reproducible in the backpressure and
  /// drain tests. Never set in production.
  double debug_exec_delay_s = 0;
};

/// Point-in-time serving counters for /metrics and the drain summary.
struct ServerStats {
  uint64_t accepted_connections = 0;
  uint64_t requests_total = 0;   ///< query frames admitted to the queue.
  uint64_t responses_ok = 0;
  uint64_t rejected_overload = 0;
  uint64_t rejected_draining = 0;
  uint64_t errors = 0;           ///< non-backpressure error replies.
  uint64_t mutations_total = 0;  ///< mutate frames admitted to the queue.
  uint64_t mutate_ok = 0;        ///< successful mutation replies.
  size_t queue_depth = 0;
  size_t in_flight = 0;          ///< requests currently executing.
  size_t open_connections = 0;   ///< connections not yet reclaimed.
  CatalogStats catalog;
};

/// \brief The daemon. Construct via Start(); destruction drains.
class TriangleServer {
 public:
  /// Binds the requested endpoints, spawns the worker pool and the
  /// accept loop. At least one of options.tcp / options.unix_path must
  /// be enabled.
  static Result<std::unique_ptr<TriangleServer>> Start(
      const ServerOptions& options);

  ~TriangleServer();
  TriangleServer(const TriangleServer&) = delete;
  TriangleServer& operator=(const TriangleServer&) = delete;

  /// Resolved TCP port (0 when TCP is disabled).
  uint16_t tcp_port() const { return tcp_port_; }
  /// Unix-domain socket path ("" when disabled).
  const std::string& unix_path() const { return options_.unix_path; }

  /// Initiates graceful drain: stop accepting, finish queued and
  /// in-flight requests, refuse new ones with kDraining. Idempotent and
  /// callable from any thread.
  void BeginDrain();

  /// An fd a signal handler can write one byte to (async-signal-safe)
  /// to trigger BeginDrain from SIGTERM/SIGINT.
  int DrainNotifyFd() const { return drain_pipe_[1]; }

  /// Blocks until the drain completes and every thread is joined.
  void Wait();

  /// Snapshot of the serving counters.
  ServerStats StatsSnapshot() const;

  /// Prometheus text exposition of the serving counters, queue gauges,
  /// catalog stats and latency histograms.
  std::string StatsPrometheus() const;

 private:
  /// One accepted connection; readers and workers share it by
  /// shared_ptr so a response can outlive the reader.
  ///
  /// Reclamation protocol: the fd is closed by whoever observes the
  /// connection quiescent — the reader when it exits with no queries in
  /// flight, or the worker that sends the last in-flight response after
  /// the reader has exited. The close itself runs under `write_mu`, so a
  /// worker mid-SendFrame can never race a close onto a reused fd.
  struct Connection {
    uint64_t id = 0;      ///< registry key in connections_ / readers_.
    int fd = -1;          ///< -1 once reclaimed; guarded by write_mu.
    std::mutex write_mu;  ///< responses from workers may interleave.
    std::atomic<bool> dead{false};
    std::atomic<int> in_flight{0};  ///< admitted queries not yet replied.
    std::atomic<bool> reader_done{false};
  };

  /// One admitted request (query or mutation) waiting for (or holding)
  /// a worker.
  struct Pending {
    std::shared_ptr<Connection> conn;
    QueryRequest request;
    std::shared_ptr<CatalogEntry> entry;
    /// The epoch captured at admission: the query runs against exactly
    /// this graph even if mutations land while it waits or executes.
    /// Null for mutations (the writer works on live state, not a view).
    std::shared_ptr<const EpochView> view;
    bool is_mutation = false;
    MutateRequest mutate_request;  ///< valid iff is_mutation.
    bool catalog_hit = false;
    double load_wall_s = 0;
    double predicted_cost = 0;
    uint64_t seq = 0;  ///< admission order (FIFO + SJF tie-break).
    Timer admitted;    ///< running since admission (queue wait + exec).
    double queue_wait_s = 0;  ///< filled when a worker dequeues.
  };

  explicit TriangleServer(const ServerOptions& options);

  void AcceptLoop();
  void ReaderLoop(std::shared_ptr<Connection> conn);
  void WorkerLoop();
  void HandleQuery(const std::shared_ptr<Connection>& conn,
                   const std::string& body);
  void HandleMutate(const std::shared_ptr<Connection>& conn,
                    const std::string& body);
  /// Admission steps 1-3 shared by queries and mutations: acquire is
  /// done by the caller; this prices, bounds and enqueues.
  void Admit(Pending pending);
  void Execute(Pending pending);
  void ExecuteMutation(Pending pending);
  QueryResponse BuildResponse(const Pending& pending,
                              const RunReport& report) const;
  void Reply(const std::shared_ptr<Connection>& conn,
             const std::string& payload);
  void ReplyError(const std::shared_ptr<Connection>& conn, ErrorCode code,
                  const std::string& message);
  void CloseAllConnections();
  /// Closes conn->fd iff the reader has exited and no query is in
  /// flight; safe to call from any thread, any number of times.
  void MaybeCloseConnection(const std::shared_ptr<Connection>& conn);
  /// Joins reader threads that have already finished (cheap; called from
  /// the accept loop so churn never accumulates unjoined threads).
  void ReapFinishedReaders();

  ServerOptions options_;
  std::unique_ptr<GraphCatalog> catalog_;
  int resolved_workers_ = 1;
  int max_query_threads_ = 1;

  int listen_tcp_fd_ = -1;
  int listen_unix_fd_ = -1;
  uint16_t tcp_port_ = 0;
  int drain_pipe_[2] = {-1, -1};

  std::atomic<bool> draining_{false};

  mutable std::mutex mu_;
  std::condition_variable queue_cv_;
  std::condition_variable idle_cv_;
  std::deque<Pending> queue_;
  uint64_t next_seq_ = 0;
  ServerStats stats_;
  LatencyHistogram request_latency_;
  LatencyHistogram queue_wait_;
  LatencyHistogram mutation_latency_;  ///< admission-to-reply, mutations.
  std::map<Method, LatencyHistogram> method_wall_;

  std::thread accept_thread_;
  std::vector<std::thread> workers_;
  /// Live connection registry, pruned by each reader on exit so a
  /// long-running daemon under connection churn holds only live entries
  /// (all guarded by mu_).
  std::map<uint64_t, std::shared_ptr<Connection>> connections_;
  std::map<uint64_t, std::thread> readers_;
  std::vector<std::thread> finished_readers_;  ///< awaiting a join.
  uint64_t next_conn_id_ = 0;
  bool joined_ = false;
};

}  // namespace trilist::serve
