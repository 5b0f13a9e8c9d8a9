#include "src/serve/server.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <utility>

#include "src/algo/cost.h"
#include "src/algo/exec_policy.h"
#include "src/obs/prom.h"
#include "src/order/named_orders.h"
#include "src/run/runner.h"
#include "src/serve/net.h"
#include "src/util/build_info.h"
#include "src/util/metrics.h"

namespace trilist::serve {

namespace {

/// Renders a histogram in the Prometheus exposition convention:
/// cumulative `_bucket{le=...}` samples, `_sum`, `_count`.
void ExportHistogram(obs::PromWriter* w, const std::string& name,
                     const std::vector<obs::PromLabel>& labels,
                     const LatencyHistogram& h) {
  for (size_t i = 0; i < LatencyHistogram::kNumFiniteBuckets; ++i) {
    char bound[32];
    std::snprintf(bound, sizeof bound, "%g", LatencyHistogram::UpperBound(i));
    std::vector<obs::PromLabel> with_le = labels;
    with_le.emplace_back("le", bound);
    w->Sample(name + "_bucket", with_le,
              static_cast<double>(h.CumulativeCount(i)));
  }
  std::vector<obs::PromLabel> inf = labels;
  inf.emplace_back("le", "+Inf");
  w->Sample(name + "_bucket", inf, static_cast<double>(h.TotalCount()));
  w->Sample(name + "_sum", labels, h.Sum());
  w->Sample(name + "_count", labels, static_cast<double>(h.TotalCount()));
}

}  // namespace

TriangleServer::TriangleServer(const ServerOptions& options)
    : options_(options),
      catalog_(std::make_unique<GraphCatalog>(options.catalog)) {
  resolved_workers_ = ResolveThreads(options.workers);
  max_query_threads_ = ResolveThreads(options.max_query_threads);
}

Result<std::unique_ptr<TriangleServer>> TriangleServer::Start(
    const ServerOptions& options) {
  if (!options.tcp && options.unix_path.empty()) {
    return Status::InvalidArgument(
        "serve: enable TCP and/or a unix socket path");
  }
  std::unique_ptr<TriangleServer> server(new TriangleServer(options));
  if (::pipe(server->drain_pipe_) != 0) {
    return Status::Internal("pipe failed");
  }
  if (options.tcp) {
    Result<Listener> l = ListenTcp(options.host, options.port);
    if (!l.ok()) return l.status();
    server->listen_tcp_fd_ = l->fd;
    server->tcp_port_ = l->port;
  }
  if (!options.unix_path.empty()) {
    Result<Listener> l = ListenUnix(options.unix_path);
    if (!l.ok()) return l.status();
    server->listen_unix_fd_ = l->fd;
  }
  for (int i = 0; i < server->resolved_workers_; ++i) {
    server->workers_.emplace_back([s = server.get()] { s->WorkerLoop(); });
  }
  server->accept_thread_ = std::thread([s = server.get()] { s->AcceptLoop(); });
  return server;
}

TriangleServer::~TriangleServer() {
  BeginDrain();
  Wait();
  CloseFd(drain_pipe_[0]);
  CloseFd(drain_pipe_[1]);
}

void TriangleServer::BeginDrain() {
  if (!draining_.exchange(true)) {
    if (drain_pipe_[1] >= 0) {
      const char byte = 'd';
      // Best-effort wake; the accept loop also polls draining_.
      [[maybe_unused]] const ssize_t n =
          ::write(drain_pipe_[1], &byte, 1);
    }
  }
  queue_cv_.notify_all();
}

void TriangleServer::Wait() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (joined_) return;
    joined_ = true;
  }
  // Order matters: the accept loop exits on drain, then the workers
  // finish every queued + executing request, and only then are the
  // connections shut down and their readers joined — no response is
  // ever dropped by the shutdown path itself.
  if (accept_thread_.joinable()) accept_thread_.join();
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  CloseAllConnections();
  // Readers still blocked in recv were unblocked by the shutdown above;
  // extract the live set under the lock, join outside it (each reader's
  // epilogue also takes mu_ to prune itself from the registry).
  std::vector<std::thread> live;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [id, thread] : readers_) live.push_back(std::move(thread));
    readers_.clear();
  }
  for (std::thread& r : live) {
    if (r.joinable()) r.join();
  }
  ReapFinishedReaders();
  // Every reader has exited and every worker is joined, so each fd was
  // reclaimed by MaybeCloseConnection; this sweep is belt-and-braces.
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [id, conn] : connections_) {
      std::lock_guard<std::mutex> conn_lock(conn->write_mu);
      CloseFd(conn->fd);
      conn->fd = -1;
    }
    connections_.clear();
  }
  if (!options_.unix_path.empty()) {
    ::unlink(options_.unix_path.c_str());
  }
}

void TriangleServer::AcceptLoop() {
  while (!draining_.load()) {
    pollfd fds[3];
    nfds_t count = 0;
    int tcp_index = -1, unix_index = -1;
    if (listen_tcp_fd_ >= 0) {
      tcp_index = static_cast<int>(count);
      fds[count++] = {listen_tcp_fd_, POLLIN, 0};
    }
    if (listen_unix_fd_ >= 0) {
      unix_index = static_cast<int>(count);
      fds[count++] = {listen_unix_fd_, POLLIN, 0};
    }
    const int drain_index = static_cast<int>(count);
    fds[count++] = {drain_pipe_[0], POLLIN, 0};

    const int ready = ::poll(fds, count, -1);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (fds[drain_index].revents != 0) break;
    for (const int index : {tcp_index, unix_index}) {
      if (index < 0 || (fds[index].revents & POLLIN) == 0) continue;
      const int fd = ::accept(fds[index].fd, nullptr, nullptr);
      if (fd < 0) {
        if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK ||
            errno == ECONNABORTED) {
          continue;
        }
        // Persistent failures (EMFILE/ENFILE/ENOMEM) leave the listener
        // readable, so an immediate re-poll would spin at 100% CPU.
        // Back off briefly — on the drain pipe, so SIGTERM still wakes
        // us instantly.
        pollfd backoff = {drain_pipe_[0], POLLIN, 0};
        ::poll(&backoff, 1, 100);
        continue;
      }
      SetSendTimeout(fd, options_.send_timeout_s);
      auto conn = std::make_shared<Connection>();
      conn->fd = fd;
      std::lock_guard<std::mutex> lock(mu_);
      conn->id = next_conn_id_++;
      ++stats_.accepted_connections;
      connections_[conn->id] = conn;
      readers_[conn->id] = std::thread([this, conn] { ReaderLoop(conn); });
    }
    ReapFinishedReaders();
  }
  BeginDrain();  // idempotent: covers poll-error exits
  CloseFd(listen_tcp_fd_);
  CloseFd(listen_unix_fd_);
  listen_tcp_fd_ = -1;
  listen_unix_fd_ = -1;
}

void TriangleServer::ReaderLoop(std::shared_ptr<Connection> conn) {
  while (!conn->dead.load()) {
    std::string payload;
    bool eof = false;
    Status st = RecvFrame(conn->fd, &payload, &eof);
    if (!st.ok() || eof) break;
    MsgType type;
    std::string body;
    st = DecodeHeader(payload, &type, &body);
    if (!st.ok()) {
      // Tell the peer why (version mismatch, garbage) and hang up: a
      // stream that failed header parsing cannot be resynced.
      ReplyError(conn, ErrorCode::kBadRequest, st.message());
      break;
    }
    switch (type) {
      case MsgType::kPing:
        Reply(conn, EncodeEmpty(MsgType::kPong));
        break;
      case MsgType::kStats:
        Reply(conn, EncodeStatsReply({StatsPrometheus()}));
        break;
      case MsgType::kQuery:
        HandleQuery(conn, body);
        break;
      case MsgType::kMutate:
        HandleMutate(conn, body);
        break;
      default:
        ReplyError(conn, ErrorCode::kBadRequest,
                   "unexpected message type from a client");
        break;
    }
  }
  // Reclaim: close the fd unless a worker still owes this connection a
  // response (then the worker that sends the last one closes), and
  // prune the registry so churn never accumulates dead entries. The
  // thread handle moves to finished_readers_ for the accept loop (or
  // Wait) to join — a thread cannot join itself.
  conn->reader_done.store(true);
  MaybeCloseConnection(conn);
  std::lock_guard<std::mutex> lock(mu_);
  connections_.erase(conn->id);
  const auto it = readers_.find(conn->id);
  if (it != readers_.end()) {
    finished_readers_.push_back(std::move(it->second));
    readers_.erase(it);
  }
}

void TriangleServer::MaybeCloseConnection(
    const std::shared_ptr<Connection>& conn) {
  std::lock_guard<std::mutex> lock(conn->write_mu);
  if (conn->fd >= 0 && conn->reader_done.load() &&
      conn->in_flight.load() == 0) {
    CloseFd(conn->fd);
    conn->fd = -1;
  }
}

void TriangleServer::ReapFinishedReaders() {
  std::vector<std::thread> finished;
  {
    std::lock_guard<std::mutex> lock(mu_);
    finished.swap(finished_readers_);
  }
  for (std::thread& r : finished) {
    if (r.joinable()) r.join();
  }
}

void TriangleServer::HandleQuery(const std::shared_ptr<Connection>& conn,
                                 const std::string& body) {
  QueryRequest request;
  Status st = DecodeQueryRequest(body, &request);
  if (!st.ok()) {
    ReplyError(conn, ErrorCode::kBadRequest, st.message());
    return;
  }
  if (request.repeats < 1 || request.repeats > options_.max_repeats) {
    ReplyError(conn, ErrorCode::kBadRequest,
               "repeats out of range [1, " +
                   std::to_string(options_.max_repeats) + "]");
    return;
  }

  // Admission step 1: make the graph resident (cold-loads happen here on
  // the reader thread, so the catalog's degree sequence is available for
  // the cost estimate before anything is queued).
  ErrorCode code;
  Result<GraphCatalog::Acquired> acquired =
      catalog_->Acquire(request.graph, &code);
  if (!acquired.ok()) {
    ReplyError(conn, code, acquired.status().message());
    return;
  }

  Pending pending;
  pending.conn = conn;
  pending.request = request;
  pending.entry = acquired->entry;
  // Capture the current epoch on the reader thread: this query runs
  // against exactly this graph no matter what mutations land while it
  // waits in the queue.
  pending.view = pending.entry->View();
  pending.catalog_hit = acquired->hit;
  pending.load_wall_s = acquired->load_wall_s;
  // Admission step 2: the Section-3 a-priori cost of this request from
  // the entry's shared pricing layer (the same model the query planner
  // uses) — what the shortest-job-first queue orders by. Weighted at the
  // merge backend: relative order across queued requests is what matters
  // here, and the server does not know the backend until execution.
  pending.predicted_cost = pending.entry->cost_model().PredictedTotalCost(
      request.orient, request.methods, IntersectBackend::kMerge);
  Admit(std::move(pending));
}

void TriangleServer::HandleMutate(const std::shared_ptr<Connection>& conn,
                                  const std::string& body) {
  MutateRequest request;
  const Status st = DecodeMutateRequest(body, &request);
  if (!st.ok()) {
    ReplyError(conn, ErrorCode::kBadRequest, st.message());
    return;
  }
  ErrorCode code;
  Result<GraphCatalog::Acquired> acquired =
      catalog_->Acquire(request.graph, &code);
  if (!acquired.ok()) {
    ReplyError(conn, code, acquired.status().message());
    return;
  }
  Pending pending;
  pending.conn = conn;
  pending.is_mutation = true;
  pending.entry = acquired->entry;
  pending.catalog_hit = acquired->hit;
  pending.load_wall_s = acquired->load_wall_s;
  // Price the batch for the SJF queue: Σ g(d_u) + g(d_v) over the
  // current view's degrees (the merge-scan bound of each incremental
  // intersection). Out-of-range endpoints contribute 0 — a node the
  // graph has never seen has degree 0.
  const std::shared_ptr<const EpochView> view = pending.entry->View();
  const size_t n = view->graph.num_nodes();
  double ops = 0;
  for (const dyn::EdgeMutation& m : request.ops) {
    const int64_t du = m.u < n ? view->graph.Degree(m.u) : 0;
    const int64_t dv = m.v < n ? view->graph.Degree(m.v) : 0;
    ops += cost::PredictedMutationOps(du, dv);
  }
  pending.predicted_cost = ops;
  pending.mutate_request = std::move(request);
  Admit(std::move(pending));
}

void TriangleServer::Admit(Pending pending) {
  // Admission step 3: bounded enqueue with explicit backpressure. The
  // reject reply happens after the lock drops — a slow client's socket
  // must never stall the queue.
  const std::shared_ptr<Connection> conn = pending.conn;
  bool rejected = false;
  ErrorCode reject_code = ErrorCode::kInternal;
  std::string reject_message;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (draining_.load()) {
      ++stats_.rejected_draining;
      rejected = true;
      reject_code = ErrorCode::kDraining;
      reject_message = "server is draining";
    } else if (queue_.size() >= options_.max_queue) {
      ++stats_.rejected_overload;
      rejected = true;
      reject_code = ErrorCode::kOverloaded;
      reject_message = "admission queue full (" +
                       std::to_string(options_.max_queue) +
                       " requests queued)";
    } else {
      pending.seq = next_seq_++;
      pending.admitted.Start();
      if (pending.is_mutation) {
        ++stats_.mutations_total;
      } else {
        ++stats_.requests_total;
      }
      // Pin the fd open for the worker that will send this response;
      // the reader increments (it is the only thread that can), the
      // replying worker decrements.
      conn->in_flight.fetch_add(1);
      queue_.push_back(std::move(pending));
      stats_.queue_depth = queue_.size();
    }
  }
  if (rejected) {
    ReplyError(conn, reject_code, reject_message);
    return;
  }
  queue_cv_.notify_one();
}

void TriangleServer::WorkerLoop() {
  while (true) {
    Pending pending;
    {
      std::unique_lock<std::mutex> lock(mu_);
      queue_cv_.wait(lock, [this] {
        return !queue_.empty() || draining_.load();
      });
      if (queue_.empty()) {
        if (draining_.load()) return;
        continue;
      }
      auto it = queue_.begin();
      if (options_.shortest_job_first) {
        it = std::min_element(
            queue_.begin(), queue_.end(),
            [](const Pending& a, const Pending& b) {
              return a.predicted_cost != b.predicted_cost
                         ? a.predicted_cost < b.predicted_cost
                         : a.seq < b.seq;
            });
      }
      pending = std::move(*it);
      queue_.erase(it);
      stats_.queue_depth = queue_.size();
      ++stats_.in_flight;
      pending.queue_wait_s = pending.admitted.ElapsedSeconds();
    }
    const std::shared_ptr<Connection> conn = pending.conn;
    if (pending.is_mutation) {
      ExecuteMutation(std::move(pending));
    } else {
      Execute(std::move(pending));
    }
    conn->in_flight.fetch_sub(1);
    MaybeCloseConnection(conn);
    {
      std::lock_guard<std::mutex> lock(mu_);
      --stats_.in_flight;
    }
    idle_cv_.notify_all();
  }
}

void TriangleServer::Execute(Pending pending) {
  if (options_.debug_exec_delay_s > 0) {
    std::this_thread::sleep_for(std::chrono::duration<double>(
        options_.debug_exec_delay_s));
  }
  const QueryRequest& request = pending.request;
  const int threads =
      request.threads <= 0
          ? max_query_threads_
          : std::min<int>(request.threads, max_query_threads_);

  RunReport report;
  report.source = "catalog:" + pending.entry->name();
  report.order = PermutationKindName(request.orient.kind);
  report.orient_seed = request.orient.seed;
  report.threads = threads;
  report.requested_threads = request.threads;
  report.repeats = request.repeats;
  const BuildInfo& build = GetBuildInfo();
  report.build_version = build.version;
  report.build_git_hash = build.git_hash;
  report.build_compiler = build.compiler;
  report.build_type = build.build_type;
  report.num_nodes = pending.view->graph.num_nodes();
  report.num_edges = pending.view->graph.num_edges();

  // Stage walls carry the catalog's amortization story: a warm graph
  // reports load = 0, a reused (O, theta) reports order = orient = 0.
  report.stages.Add("load", pending.load_wall_s);
  const GraphCatalog::Oriented oriented =
      catalog_->Orient(pending.entry, pending.view, request.orient,
                       threads);
  report.cached_orientation = oriented.cached;
  report.stages.Add("order", oriented.order_wall_s);
  report.stages.Add("orient", oriented.orient_wall_s);

  ExecPolicy exec;
  exec.threads = threads;
  const Status listed =
      ListOnOriented(oriented.oriented, request.methods, exec,
                     request.repeats, &report);
  if (!listed.ok()) {
    ReplyError(pending.conn, ErrorCode::kInternal, listed.message());
    return;
  }
  report.peak_rss_bytes = PeakRssBytes();
  // cpu_s / utilization stay 0: process-wide CPU time cannot be
  // attributed to one request when the pool runs several.

  const QueryResponse response = BuildResponse(pending, report);
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.responses_ok;
    request_latency_.Observe(pending.admitted.ElapsedSeconds());
    queue_wait_.Observe(pending.queue_wait_s);
    for (const MethodReport& mr : report.methods) {
      method_wall_[mr.method].Observe(mr.wall_s);
    }
  }
  Reply(pending.conn, EncodeQueryResponse(response));
}

void TriangleServer::ExecuteMutation(Pending pending) {
  if (options_.debug_exec_delay_s > 0) {
    std::this_thread::sleep_for(std::chrono::duration<double>(
        options_.debug_exec_delay_s));
  }
  Timer apply_timer;
  Result<GraphCatalog::MutationOutcome> outcome =
      catalog_->Mutate(pending.entry, pending.mutate_request.ops);
  if (!outcome.ok()) {
    const ErrorCode code =
        outcome.status().code() == StatusCode::kInvalidArgument
            ? ErrorCode::kBadRequest
            : ErrorCode::kInternal;
    ReplyError(pending.conn, code, outcome.status().message());
    return;
  }
  MutateReply reply;
  reply.epoch = outcome->epoch;
  reply.seq = outcome->seq;
  reply.applied_inserts = outcome->applied_inserts;
  reply.applied_deletes = outcome->applied_deletes;
  reply.noops = outcome->noops;
  reply.triangles = outcome->triangles;
  reply.num_nodes = outcome->num_nodes;
  reply.num_edges = outcome->num_edges;
  reply.overlay_arcs = outcome->overlay_arcs;
  reply.compacted = outcome->compacted ? 1 : 0;
  reply.predicted_ops = outcome->predicted_ops;
  reply.wall_s = apply_timer.ElapsedSeconds();
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.mutate_ok;
    mutation_latency_.Observe(pending.admitted.ElapsedSeconds());
    queue_wait_.Observe(pending.queue_wait_s);
  }
  Reply(pending.conn, EncodeMutateReply(reply));
}

QueryResponse TriangleServer::BuildResponse(const Pending& pending,
                                            const RunReport& report) const {
  QueryResponse response;
  response.num_nodes = report.num_nodes;
  response.num_edges = report.num_edges;
  response.catalog_hit = pending.catalog_hit;
  response.orientation_cached = report.cached_orientation;
  response.predicted_cost = pending.predicted_cost;
  response.queue_wait_s = pending.queue_wait_s;
  for (const StageSample& s : report.stages.stages()) {
    response.stages.push_back({s.name, s.wall_s});
  }
  for (const MethodReport& mr : report.methods) {
    MethodResult m;
    m.method = mr.method;
    m.triangles = mr.triangles;
    m.paper_ops = static_cast<double>(mr.ops.PaperCost());
    m.formula_cost = mr.formula_cost;
    m.wall_s = mr.wall_s;
    m.parallel = mr.parallel;
    response.methods.push_back(m);
  }
  response.report_json = report.ToJson();
  return response;
}

void TriangleServer::Reply(const std::shared_ptr<Connection>& conn,
                           const std::string& payload) {
  std::lock_guard<std::mutex> lock(conn->write_mu);
  if (conn->dead.load() || conn->fd < 0) return;
  const Status st = SendFrame(conn->fd, payload);
  if (!st.ok()) {
    // Broken pipe or SO_SNDTIMEO expiry (peer not reading). Mark the
    // connection dead and kick its reader out of recv so the fd is
    // reclaimed instead of lingering until shutdown.
    conn->dead.store(true);
    ::shutdown(conn->fd, SHUT_RDWR);
  }
}

void TriangleServer::ReplyError(const std::shared_ptr<Connection>& conn,
                                ErrorCode code,
                                const std::string& message) {
  if (code != ErrorCode::kOverloaded && code != ErrorCode::kDraining) {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.errors;
  }
  ErrorReply error;
  error.code = code;
  error.message = message;
  Reply(conn, EncodeError(error));
}

void TriangleServer::CloseAllConnections() {
  std::vector<std::shared_ptr<Connection>> conns;
  {
    std::lock_guard<std::mutex> lock(mu_);
    conns.reserve(connections_.size());
    for (const auto& [id, conn] : connections_) conns.push_back(conn);
  }
  for (const std::shared_ptr<Connection>& conn : conns) {
    conn->dead.store(true);
    // Under write_mu: a reader may be reclaiming (closing) this fd
    // concurrently, and shutdown on a reused descriptor would hit an
    // unrelated connection.
    std::lock_guard<std::mutex> lock(conn->write_mu);
    if (conn->fd >= 0) ::shutdown(conn->fd, SHUT_RDWR);
  }
}

ServerStats TriangleServer::StatsSnapshot() const {
  ServerStats out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out = stats_;
    out.open_connections = connections_.size();
  }
  out.catalog = catalog_->StatsSnapshot();
  return out;
}

std::string TriangleServer::StatsPrometheus() const {
  const ServerStats stats = StatsSnapshot();
  obs::PromWriter w;

  w.Gauge("trilist_serve_queue_depth", "Requests queued for a worker");
  w.Sample("trilist_serve_queue_depth",
           static_cast<double>(stats.queue_depth));
  w.Gauge("trilist_serve_queue_capacity", "Admission queue bound");
  w.Sample("trilist_serve_queue_capacity",
           static_cast<double>(options_.max_queue));
  w.Gauge("trilist_serve_in_flight", "Requests currently executing");
  w.Sample("trilist_serve_in_flight", static_cast<double>(stats.in_flight));
  w.Gauge("trilist_serve_workers", "Worker pool width");
  w.Sample("trilist_serve_workers", static_cast<double>(resolved_workers_));

  w.Counter("trilist_serve_connections_total", "Accepted connections");
  w.Sample("trilist_serve_connections_total",
           static_cast<double>(stats.accepted_connections));
  w.Gauge("trilist_serve_connections_open",
          "Connections accepted and not yet reclaimed");
  w.Sample("trilist_serve_connections_open",
           static_cast<double>(stats.open_connections));
  w.Counter("trilist_serve_requests_total",
            "Query requests admitted to the queue");
  w.Sample("trilist_serve_requests_total",
           static_cast<double>(stats.requests_total));
  w.Counter("trilist_serve_responses_ok_total", "Successful responses");
  w.Sample("trilist_serve_responses_ok_total",
           static_cast<double>(stats.responses_ok));
  w.Counter("trilist_serve_rejected_total",
            "Requests rejected before execution, by reason");
  w.Sample("trilist_serve_rejected_total", {{"reason", "overload"}},
           static_cast<double>(stats.rejected_overload));
  w.Sample("trilist_serve_rejected_total", {{"reason", "draining"}},
           static_cast<double>(stats.rejected_draining));
  w.Counter("trilist_serve_errors_total", "Error responses (non-reject)");
  w.Sample("trilist_serve_errors_total", static_cast<double>(stats.errors));

  w.Gauge("trilist_serve_catalog_resident", "Graphs currently resident");
  w.Sample("trilist_serve_catalog_resident",
           static_cast<double>(stats.catalog.resident));
  w.Counter("trilist_serve_catalog_hits_total",
            "Acquire calls served from residency");
  w.Sample("trilist_serve_catalog_hits_total",
           static_cast<double>(stats.catalog.hits));
  w.Counter("trilist_serve_catalog_loads_total", "Cold graph loads");
  w.Sample("trilist_serve_catalog_loads_total",
           static_cast<double>(stats.catalog.loads));
  w.Counter("trilist_serve_catalog_load_failures_total",
            "Failed name resolutions or loads");
  w.Sample("trilist_serve_catalog_load_failures_total",
           static_cast<double>(stats.catalog.load_failures));
  w.Counter("trilist_serve_catalog_evictions_total",
            "Entries evicted by the LRU bound");
  w.Sample("trilist_serve_catalog_evictions_total",
           static_cast<double>(stats.catalog.evictions));
  w.Counter("trilist_serve_orientation_hits_total",
            "Orientations reused (embedded or previously built)");
  w.Sample("trilist_serve_orientation_hits_total",
           static_cast<double>(stats.catalog.orientation_hits));
  w.Counter("trilist_serve_orientations_built_total",
            "Orientations built at serve time");
  w.Sample("trilist_serve_orientations_built_total",
           static_cast<double>(stats.catalog.orientations_built));

  w.Counter("trilist_serve_mutations_total",
            "Mutation batches admitted to the queue");
  w.Sample("trilist_serve_mutations_total",
           static_cast<double>(stats.mutations_total));
  w.Counter("trilist_serve_mutate_ok_total",
            "Successful mutation replies");
  w.Sample("trilist_serve_mutate_ok_total",
           static_cast<double>(stats.mutate_ok));
  w.Counter("trilist_serve_mutations_applied_total",
            "Non-noop edge inserts and deletes applied");
  w.Sample("trilist_serve_mutations_applied_total",
           static_cast<double>(stats.catalog.mutations_applied));
  w.Counter("trilist_serve_mutation_noops_total",
            "Redundant inserts / deletes skipped");
  w.Sample("trilist_serve_mutation_noops_total",
           static_cast<double>(stats.catalog.mutation_noops));
  w.Counter("trilist_serve_compactions_total",
            "Overlay compactions into the base CSR");
  w.Sample("trilist_serve_compactions_total",
           static_cast<double>(stats.catalog.compactions));

  // Per-graph dynamic state: epoch/seq/overlay gauges let an operator
  // watch churn and compaction pressure per resident graph.
  const std::vector<GraphCatalog::DynRow> rows = catalog_->DynRows();
  w.Gauge("trilist_serve_graph_epoch", "Published epoch per graph");
  for (const auto& row : rows) {
    w.Sample("trilist_serve_graph_epoch", {{"graph", row.name}},
             static_cast<double>(row.epoch));
  }
  w.Gauge("trilist_serve_graph_seq", "Total mutations applied per graph");
  for (const auto& row : rows) {
    w.Sample("trilist_serve_graph_seq", {{"graph", row.name}},
             static_cast<double>(row.seq));
  }
  w.Gauge("trilist_serve_graph_overlay_arcs",
          "Delta arcs outside the base CSR per graph");
  for (const auto& row : rows) {
    w.Sample("trilist_serve_graph_overlay_arcs", {{"graph", row.name}},
             static_cast<double>(row.overlay_arcs));
  }
  w.Gauge("trilist_serve_graph_triangles",
          "Maintained exact triangle count per mutated graph");
  for (const auto& row : rows) {
    if (!row.triangles_known) continue;
    w.Sample("trilist_serve_graph_triangles", {{"graph", row.name}},
             static_cast<double>(row.triangles));
  }

  std::lock_guard<std::mutex> lock(mu_);
  w.Histogram("trilist_serve_request_latency_seconds",
              "Admission-to-response latency");
  ExportHistogram(&w, "trilist_serve_request_latency_seconds", {},
                  request_latency_);
  w.Histogram("trilist_serve_queue_wait_seconds",
              "Time spent queued before a worker");
  ExportHistogram(&w, "trilist_serve_queue_wait_seconds", {}, queue_wait_);
  w.Histogram("trilist_serve_mutation_latency_seconds",
              "Admission-to-reply latency of mutation batches");
  ExportHistogram(&w, "trilist_serve_mutation_latency_seconds", {},
                  mutation_latency_);
  w.Histogram("trilist_serve_method_wall_seconds",
              "Best listing wall per served method");
  for (const auto& [method, histogram] : method_wall_) {
    ExportHistogram(&w, "trilist_serve_method_wall_seconds",
                    {{"method", MethodName(method)}}, histogram);
  }
  return std::move(w).Finish();
}

}  // namespace trilist::serve
