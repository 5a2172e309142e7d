#include "src/serve/server.h"

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <deque>
#include <utility>
#include <vector>

#include "src/obs/log.h"
#include "src/obs/metrics.h"
#include "src/obs/slowlog.h"
#include "src/obs/telemetry.h"
#include "src/obs/trace.h"
#include "src/robust/supervisor.h"
#include "src/robust/worker_process.h"
#include "src/serve/event_loop.h"
#include "src/serve/protocol.h"
#include "src/util/durable_file.h"
#include "src/util/io_util.h"
#include "src/util/string_util.h"

namespace fairem {
namespace {

Result<MatcherKind> MatcherForName(const std::string& name) {
  for (MatcherKind kind : AllMatcherKinds()) {
    if (name == MatcherKindName(kind)) return kind;
  }
  return Status::NotFound("unknown matcher '" + name + "'");
}

struct ServeMetrics {
  Counter* requests_total;
  Counter* requests_ok;
  Counter* requests_failed;
  Counter* shed_queue_full;
  Counter* shed_draining;
  Counter* deadline_expired;
  Counter* worker_crashes;
  Counter* worker_respawns;
  Counter* cache_hits;
  Counter* cells_computed;
  Counter* responses_dropped;
  Counter* health_probes;
  Counter* shutdowns;
  Counter* progress_frames;
  Gauge* queue_depth;
  Gauge* inflight;
  Histogram* request_seconds;
  /// Finished cell compute durations — shared with ProgressReporter's ETA
  /// metric so batch runs and the daemon pool one duration model.
  Histogram* cell_seconds;

  static ServeMetrics Make() {
    MetricsRegistry& reg = MetricsRegistry::Global();
    ServeMetrics m;
    m.requests_total = reg.GetCounter("fairem.serve.requests_total");
    m.requests_ok = reg.GetCounter("fairem.serve.requests_ok");
    m.requests_failed = reg.GetCounter("fairem.serve.requests_failed");
    m.shed_queue_full = reg.GetCounter("fairem.serve.shed_queue_full");
    m.shed_draining = reg.GetCounter("fairem.serve.shed_draining");
    m.deadline_expired = reg.GetCounter("fairem.serve.deadline_expired");
    m.worker_crashes = reg.GetCounter("fairem.serve.worker_crashes");
    m.worker_respawns = reg.GetCounter("fairem.serve.worker_respawns");
    m.cache_hits = reg.GetCounter("fairem.serve.cell_cache_hits");
    m.cells_computed = reg.GetCounter("fairem.serve.cells_computed");
    m.responses_dropped = reg.GetCounter("fairem.serve.responses_dropped");
    m.health_probes = reg.GetCounter("fairem.serve.health_probes");
    m.shutdowns = reg.GetCounter("fairem.serve.shutdowns");
    m.progress_frames = reg.GetCounter("fairem.serve.progress_frames");
    m.queue_depth = reg.GetGauge("fairem.serve.queue_depth");
    m.inflight = reg.GetGauge("fairem.serve.inflight");
    m.request_seconds = reg.GetHistogram("fairem.serve.request_seconds");
    m.cell_seconds = reg.GetHistogram("fairem.progress.cell_seconds");
    return m;
  }
};

/// One client's cell query. Concurrent misses on one key are waiters of
/// the same QueryJob: each keeps its own connection, correlation id,
/// deadline and trace, and each gets the bytes of the one compute.
struct Waiter {
  uint64_t conn_id = 0;
  QueryRequest request;  // request.trace is the query's trace context
  double admitted_s = 0.0;
  double deadline_s = 0.0;  // absolute, monotonic
  // Tracing state (DESIGN.md §16). Every field below stays inert for an
  // untraced query — zero extra bytes on the wire.
  std::string trace_hex;         // cached request.trace.TraceIdHex()
  uint64_t request_span_id = 0;  // "daemon.request"; this waiter's daemon
                                 // and worker spans parent under it
  int64_t admitted_unix_us = 0;
  double last_progress_s = 0.0;  // monotonic; rate-limits PROG frames
  std::vector<WireSpan> spans;   // completed spans, shipped on the QRSP

  bool traced() const { return request.trace.valid(); }
};

/// One cell compute: queued, then running in a forked worker.
struct QueryJob {
  std::string key;
  MatcherKind matcher = MatcherKind::kDT;
  bool pairwise = false;
  const EMDataset* dataset = nullptr;
  /// The latest deadline among the waiters: the worker runs until the
  /// last of them stops listening.
  double deadline_s = 0.0;
  int attempts = 0;
  bool timed_out = false;
  WorkerProcess proc;     // valid while in flight
  pid_t worker_pid = 0;   // survives the reap (proc.pid() is -1 then)
  std::vector<Waiter> waiters;
};

/// A completed span on the daemon's own track, parented under the waiter's
/// "daemon.request" hop span. `start_unix_us` is when it began; the end is
/// now.
WireSpan DaemonSpan(const Waiter& waiter, const char* name,
                    int64_t start_unix_us) {
  WireSpan span;
  span.name = name;
  span.process = "daemon";
  span.pid = static_cast<int64_t>(::getpid());
  span.span_id = NewSpanId();
  span.parent_span_id = waiter.request_span_id;
  span.start_unix_us = start_unix_us;
  const int64_t now_us = UnixMicrosNow();
  span.duration_us = now_us > start_unix_us ? now_us - start_unix_us : 0;
  return span;
}

class ServeDaemon {
 public:
  explicit ServeDaemon(const ServeOptions& options)
      : options_(options),
        metrics_(ServeMetrics::Make()),
        slowlog_(options.slow_query_log, options.slow_query_ms),
        loop_("fairem.serve", options.io_timeout_s) {}

  ~ServeDaemon() {
    for (QueryJob& job : inflight_) job.proc.KillAndReap();
  }

  Status Run() {
    // Bind + listen FIRST: clients arriving during the (potentially long)
    // warmup queue in the kernel backlog instead of getting ECONNREFUSED.
    FAIREM_RETURN_NOT_OK(loop_.Listen(options_.socket_path));
    FAIREM_ASSIGN_OR_RETURN(warm_, WarmState::Warm(options_.warm));
    FAIREM_LOG(INFO) << "fairem serve ready"
                     << LogKv("socket", options_.socket_path)
                     << LogKv("datasets", warm_.num_datasets())
                     << LogKv("cells_preloaded", warm_.num_cached_cells());
    EventLoop::Handlers handlers;
    handlers.on_message = [this](uint64_t conn, const ServeMessage& message) {
      HandleMessage(conn, message);
    };
    handlers.tick = [this](double now, EventLoop::Pass* pass) {
      Tick(now, pass);
    };
    loop_.Run(handlers);
    FinishDrain();
    return Status::OK();
  }

 private:
  void Tick(double now, EventLoop::Pass* pass) {
    if (ShutdownGuard::requested() && !draining_) BeginDrain();
    PumpWorkers(now);
    ExpireQueuedJobs(now);
    Dispatch();
    EmitProgress(now);
    UpdateGauges();
    if (draining_ && inflight_.empty() && loop_.Flushed()) {
      pass->stop = true;
      return;
    }
    for (QueryJob& job : inflight_) {
      if (job.proc.pipe_fd() >= 0) {
        pass->watch_fds.push_back(job.proc.pipe_fd());
      }
    }
    pass->wait_s = NextTimerS(now);
  }

  /// Seconds until the next waiter deadline or PROG frame falls due.
  double NextTimerS(double now) const {
    double wait = EventLoop::kMaxWaitS;
    auto consider = [&](const QueryJob& job) {
      for (const Waiter& waiter : job.waiters) {
        if (!job.timed_out) wait = std::min(wait, waiter.deadline_s - now);
        if (waiter.traced() && options_.progress_interval_s > 0.0) {
          wait = std::min(wait, waiter.last_progress_s +
                                    options_.progress_interval_s - now);
        }
      }
    };
    for (const QueryJob& job : queue_) consider(job);
    for (const QueryJob& job : inflight_) consider(job);
    return wait;
  }

  // ------------------------------------------------------------- inbound --

  void HandleMessage(uint64_t conn_id, const ServeMessage& message) {
    if (message.type == kFrameHealth) {
      // Health probes bypass admission entirely and do not count as
      // requests: a router needs an honest liveness/load answer precisely
      // when the queue is full, and a probe must never occupy a slot a
      // query could use (nor skew the request accounting).
      HandleHealthProbe(conn_id, message);
      return;
    }
    if (message.type == kFrameProgress) {
      // PROG is advisory and flows toward clients; one arriving here is a
      // confused-but-harmless peer. Ignore it — closing would turn a
      // best-effort frame into a query failure.
      return;
    }
    metrics_.requests_total->Increment();
    if (message.type != kFrameQueryRequest) {
      // A response frame sent at a server is a confused peer; drop it.
      loop_.Close(conn_id, StreamEnd::kMalformed);
      return;
    }
    Result<QueryRequest> request = ParseQueryRequest(message.bytes);
    if (!request.ok()) {
      QueryResponse response;
      response.status = request.status();
      Respond(conn_id, response);
      return;
    }
    QueryResponse response;
    response.id = request->id;
    if (request->op == "ping") {
      response.payload = "pong";
      Respond(conn_id, response);
      return;
    }
    if (request->op == "stats") {
      UpdateGauges();
      response.payload =
          MetricsSnapshotToJson(MetricsRegistry::Global().Snapshot());
      Respond(conn_id, response);
      return;
    }
    if (request->op != "cell") {
      response.status =
          Status::InvalidArgument("unknown op '" + request->op + "'");
      Respond(conn_id, response);
      return;
    }
    AdmitCellQuery(conn_id, *request);
  }

  void HandleHealthProbe(uint64_t conn_id, const ServeMessage& message) {
    metrics_.health_probes->Increment();
    // A malformed probe body still gets a reply (id 0): the prober wants
    // liveness, and the reply itself proves that.
    Result<HealthReport> probe = ParseHealthReport(message.bytes);
    HealthReport reply;
    if (probe.ok()) reply.id = probe->id;
    reply.serving = !draining_;
    reply.queue_depth = static_cast<double>(queue_.size());
    reply.inflight = static_cast<double>(inflight_.size());
    reply.retry_after_s = CurrentRetryAfterS();
    loop_.Send(conn_id, kFrameHealth, SerializeHealthReport(reply));
  }

  double CurrentRetryAfterS() const {
    return LoadAwareRetryAfterS(
        options_.retry_after_s, static_cast<int>(queue_.size()),
        options_.max_queue, static_cast<int>(inflight_.size()),
        options_.max_inflight);
  }

  /// A one-shot daemon-side span for queries answered without a QueryJob
  /// (sheds, cache hits): even a refused query shows up in the client's
  /// merged trace with the hop that refused it.
  static void AttachAdHocSpan(const QueryRequest& request,
                              QueryResponse* response,
                              int64_t start_unix_us, const char* outcome) {
    if (!request.trace.valid()) return;
    WireSpan span;
    span.name = "daemon.request";
    span.process = "daemon";
    span.pid = static_cast<int64_t>(::getpid());
    span.span_id = NewSpanId();
    span.parent_span_id = request.trace.parent_span_id;
    span.start_unix_us = start_unix_us;
    const int64_t now_us = UnixMicrosNow();
    span.duration_us = now_us > start_unix_us ? now_us - start_unix_us : 0;
    span.annotations.emplace_back("outcome", outcome);
    response->spans.push_back(std::move(span));
  }

  void AdmitCellQuery(uint64_t conn_id, const QueryRequest& request) {
    const int64_t admit_unix_us =
        request.trace.valid() ? UnixMicrosNow() : 0;
    QueryResponse response;
    response.id = request.id;
    if (draining_) {
      metrics_.shed_draining->Increment();
      response.status = Status::Unavailable("draining; retry elsewhere");
      response.retry_after_s = options_.retry_after_s;
      AttachAdHocSpan(request, &response, admit_unix_us, "shed_draining");
      Respond(conn_id, response);
      return;
    }
    if (request.mode != "single" && request.mode != "pairwise") {
      response.status = Status::InvalidArgument("mode must be single|pairwise");
      Respond(conn_id, response);
      return;
    }
    Result<const EMDataset*> dataset = warm_.Dataset(request.dataset);
    if (!dataset.ok()) {
      response.status = dataset.status();
      Respond(conn_id, response);
      return;
    }
    Result<MatcherKind> matcher = MatcherForName(request.matcher);
    if (!matcher.ok()) {
      response.status = matcher.status();
      Respond(conn_id, response);
      return;
    }
    const bool pairwise = request.mode == "pairwise";
    const std::string key = AuditCellKey(request.dataset, *matcher, pairwise);
    if (const std::string* cached = warm_.CachedCell(key)) {
      metrics_.cache_hits->Increment();
      response.payload = *cached;
      AttachAdHocSpan(request, &response, admit_unix_us, "cache_hit");
      Respond(conn_id, response);
      return;
    }
    const double now = MonotonicSeconds();
    Waiter waiter;
    waiter.conn_id = conn_id;
    waiter.request = request;
    waiter.admitted_s = now;
    waiter.deadline_s =
        now + (request.deadline_s > 0.0
                   ? std::min(request.deadline_s, options_.max_deadline_s)
                   : options_.default_deadline_s);
    if (waiter.traced()) {
      waiter.trace_hex = request.trace.TraceIdHex();
      // Pre-mint the hop span id so children (queue wait, worker spans)
      // can parent under it before the span itself finishes.
      waiter.request_span_id = NewSpanId();
      waiter.admitted_unix_us = admit_unix_us;
      waiter.last_progress_s = now;  // first PROG after one full interval
    }
    // A miss on a key that is already queued or computing joins that job:
    // one compute answers every concurrent asker, and a join takes no
    // admission slot.
    if (QueryJob* pending = FindJob(key)) {
      pending->deadline_s = std::max(pending->deadline_s, waiter.deadline_s);
      pending->waiters.push_back(std::move(waiter));
      return;
    }
    // Overload shedding: the queue is the bounded resource, and it holds
    // work only while every worker slot is busy. Past the bound the honest
    // answer is an immediate retryable refusal, not an ever-growing
    // latency tail.
    if (static_cast<int>(inflight_.size()) >= options_.max_inflight &&
        static_cast<int>(queue_.size()) >= options_.max_queue) {
      metrics_.shed_queue_full->Increment();
      response.status = Status::Unavailable("admission queue full");
      // Load-aware hint: the fuller the daemon, the longer clients should
      // stay away, so router backpressure converges instead of retrying a
      // saturated daemon at the base period.
      response.retry_after_s = CurrentRetryAfterS();
      AttachAdHocSpan(request, &response, admit_unix_us, "shed_queue_full");
      Respond(conn_id, response);
      return;
    }
    QueryJob job;
    job.key = key;
    job.matcher = *matcher;
    job.pairwise = pairwise;
    job.dataset = *dataset;
    job.deadline_s = waiter.deadline_s;
    job.waiters.push_back(std::move(waiter));
    queue_.push_back(std::move(job));
    // Dispatch on admit: a free worker slot takes the job now, so the
    // next arrival's shed check sees the true queue.
    Dispatch();
  }

  /// The queued or computing job for `key` that a new waiter can join.
  QueryJob* FindJob(const std::string& key) {
    for (QueryJob& job : queue_) {
      if (job.key == key) return &job;
    }
    for (QueryJob& job : inflight_) {
      if (job.key == key && !job.timed_out) return &job;
    }
    return nullptr;
  }

  // ---------------------------------------------------------- scheduling --

  /// Answers every waiter of `job` whose own deadline has passed.
  void ExpireWaiters(QueryJob& job, double now, const char* message) {
    for (auto it = job.waiters.begin(); it != job.waiters.end();) {
      if (now < it->deadline_s) {
        ++it;
        continue;
      }
      metrics_.deadline_expired->Increment();
      QueryResponse response;
      response.status = Status::DeadlineExceeded(message);
      FinishWaiter(job, *it, response);
      it = job.waiters.erase(it);
    }
  }

  void ExpireQueuedJobs(double now) {
    for (auto it = queue_.begin(); it != queue_.end();) {
      ExpireWaiters(*it, now, "deadline expired while queued");
      it = it->waiters.empty() ? queue_.erase(it) : it + 1;
    }
  }

  void Dispatch() {
    while (static_cast<int>(inflight_.size()) < options_.max_inflight &&
           !queue_.empty()) {
      QueryJob job = std::move(queue_.front());
      queue_.pop_front();
      for (Waiter& waiter : job.waiters) {
        if (waiter.traced()) {
          waiter.spans.push_back(
              DaemonSpan(waiter, "daemon.queue", waiter.admitted_unix_us));
        }
      }
      Status started = StartJob(&job);
      if (!started.ok()) {
        QueryResponse response;
        response.status = started;
        FinishJob(job, response);
        continue;
      }
      inflight_.push_back(std::move(job));
    }
  }

  Status StartJob(QueryJob* job) {
    ++job->attempts;
    WorkerSpawnOptions spawn;
    spawn.task_key = job->key;
    spawn.attempt = job->attempts;
    spawn.max_rss_mb = options_.worker_max_rss_mb;
    spawn.max_cpu_s = options_.worker_max_cpu_s;
    // Pipe-only telemetry: worker metric deltas merge into the daemon
    // registry, so `stats` and the drain snapshot cover the whole fleet.
    spawn.ship_telemetry = true;
    // Every spawn draws fresh probabilistic-failpoint streams — sibling
    // workers and respawns must not replay the parent's exact draws.
    spawn.failpoint_reseed = ++spawn_sequence_;
    spawn.ship_failpoint = "serve_ship";
    loop_.AppendFds(&spawn.close_in_child);
    for (QueryJob& other : inflight_) {
      if (other.proc.pipe_fd() >= 0) {
        spawn.close_in_child.push_back(other.proc.pipe_fd());
      }
    }
    const EMDataset* dataset = job->dataset;
    const MatcherKind matcher = job->matcher;
    const bool pairwise = job->pairwise;
    const uint64_t seed = options_.warm.seed;
    const int64_t fork_start_us = UnixMicrosNow();
    FAIREM_ASSIGN_OR_RETURN(
        job->proc,
        WorkerProcess::Spawn(
            [dataset, matcher, pairwise, seed]() -> Result<std::string> {
              GridRunOptions cell_options;
              cell_options.seed = seed;
              FAIREM_ASSIGN_OR_RETURN(
                  GridCellCheckpoint cell,
                  RunAuditCell(*dataset, matcher, pairwise, cell_options));
              return GridCellToJson(cell);
            },
            spawn));
    job->worker_pid = job->proc.pid();
    for (Waiter& waiter : job->waiters) {
      if (!waiter.traced()) continue;
      WireSpan fork_span = DaemonSpan(waiter, "worker.fork", fork_start_us);
      fork_span.process = "worker";
      fork_span.pid = static_cast<int64_t>(job->worker_pid);
      fork_span.annotations.emplace_back("attempt",
                                         std::to_string(job->attempts));
      waiter.spans.push_back(std::move(fork_span));
    }
    FAIREM_LOG(DEBUG) << "query worker spawned" << LogKv("key", job->key)
                      << LogKv("pid", job->proc.pid())
                      << LogKv("attempt", job->attempts);
    return Status::OK();
  }

  void PumpWorkers(double now) {
    for (size_t i = 0; i < inflight_.size();) {
      QueryJob& job = inflight_[i];
      job.proc.Drain();
      int status = 0;
      rusage usage;
      if (job.proc.TryReap(&status, &usage)) {
        QueryJob finished = std::move(job);
        inflight_.erase(inflight_.begin() + static_cast<long>(i));
        SettleWorker(std::move(finished), status);
        continue;
      }
      if (!job.timed_out && now >= job.deadline_s) {
        // Every waiter's deadline has passed. The deadline is end-to-end:
        // however long a query waited in the queue counts against the
        // compute budget too.
        job.timed_out = true;
        metrics_.deadline_expired->Increment(job.waiters.size());
        FAIREM_LOG(WARN) << "query deadline exceeded, killing worker"
                         << LogKv("key", job.key)
                         << LogKv("pid", job.proc.pid());
        job.proc.Kill();
      } else if (!job.timed_out) {
        ExpireWaiters(job, now,
                      "query exceeded its deadline; the compute it shared "
                      "runs on for a later deadline");
      }
      ++i;
    }
  }

  void SettleWorker(QueryJob job, int status) {
    const std::string received = job.proc.TakeReceived();
    TelemetrySplit split = SplitTelemetryPayload(received);
    if (split.has_telemetry) {
      Result<WorkerTelemetry> telemetry =
          ParseWorkerTelemetry(split.telemetry_json);
      if (telemetry.ok()) AbsorbWorkerTelemetry(*telemetry);
    }
    const bool exited_ok =
        WIFEXITED(status) && WEXITSTATUS(status) == kWorkerExitOk;
    if (exited_ok && !job.timed_out) {
      // Feed the ETA model for everyone's PROG frames, traced or not.
      metrics_.cell_seconds->Observe(job.proc.AgeSeconds());
    }
    if (job.proc.spawn_unix_us() > 0) {
      const char* exit_kind = "crash";
      if (job.timed_out) {
        exit_kind = "killed_deadline";
      } else if (exited_ok) {
        exit_kind = "ok";
      } else if (WIFEXITED(status) &&
                 WEXITSTATUS(status) == kWorkerExitTaskError) {
        exit_kind = "task_error";
      }
      for (Waiter& waiter : job.waiters) {
        if (!waiter.traced()) continue;
        WireSpan compute =
            DaemonSpan(waiter, "worker.compute", job.proc.spawn_unix_us());
        compute.process = "worker";
        compute.pid = static_cast<int64_t>(job.worker_pid);
        compute.annotations.emplace_back("attempt",
                                         std::to_string(job.attempts));
        compute.annotations.emplace_back("exit", exit_kind);
        waiter.spans.push_back(std::move(compute));
      }
    }
    QueryResponse response;
    if (job.timed_out) {
      response.status = Status::DeadlineExceeded(
          "query exceeded its deadline and the worker was killed");
      FinishJob(job, response);
      return;
    }
    if (exited_ok) {
      // Defensive parse: only a well-formed cell is cached and served.
      Result<GridCellCheckpoint> cell = GridCellFromJson(split.payload);
      if (cell.ok()) {
        metrics_.cells_computed->Increment();
        warm_.StoreCell(job.key, split.payload);
        response.payload = split.payload;
        FinishJob(job, response);
        return;
      }
      response.status = Status::Internal("worker shipped unparseable cell: " +
                                         cell.status().ToString());
      FinishJob(job, response);
      return;
    }
    if (WIFEXITED(status) && WEXITSTATUS(status) == kWorkerExitTaskError) {
      Status shipped = ParseShippedStatus(split.payload);
      RespawnOrFail(std::move(job), shipped, IsRetryableStatus(shipped));
      return;
    }
    // Crash: signal death, _Exit under a failpoint, OOM under RLIMIT_AS,
    // or a protocol failure.
    metrics_.worker_crashes->Increment();
    const std::string detail =
        WIFEXITED(status)
            ? "exit code " + std::to_string(WEXITSTATUS(status))
            : "signal " + std::to_string(WIFSIGNALED(status)
                                             ? WTERMSIG(status)
                                             : 0);
    Status crash = Status::Internal("query worker crashed (" + detail +
                                    ") for '" + job.key + "'");
    RespawnOrFail(std::move(job), crash, /*retryable=*/true);
  }

  /// Respawns the job when budget and deadline allow; otherwise finishes it
  /// with `failure`.
  void RespawnOrFail(QueryJob job, const Status& failure, bool retryable) {
    if (retryable && job.attempts < options_.max_attempts &&
        MonotonicSeconds() < job.deadline_s && !draining_) {
      metrics_.worker_respawns->Increment();
      FAIREM_LOG(WARN) << "respawning query worker" << LogKv("key", job.key)
                       << LogKv("next_attempt", job.attempts + 1)
                       << LogKv("status", failure.ToString());
      Status started = StartJob(&job);
      if (started.ok()) {
        inflight_.push_back(std::move(job));
        return;
      }
    }
    QueryResponse response;
    response.status = failure;
    FinishJob(job, response);
  }

  // ------------------------------------------------------------ outbound --

  /// Answers every waiter of `job` with `response` (ids are per waiter).
  void FinishJob(const QueryJob& job, const QueryResponse& response) {
    for (const Waiter& waiter : job.waiters) {
      FinishWaiter(job, waiter, response);
    }
  }

  void FinishWaiter(const QueryJob& job, const Waiter& waiter,
                    QueryResponse response) {
    response.id = waiter.request.id;
    const double total_s = MonotonicSeconds() - waiter.admitted_s;
    metrics_.request_seconds->ObserveWithExemplar(total_s, waiter.trace_hex);
    if (waiter.traced()) {
      // The hop span last: it closes now, covering admit -> respond.
      WireSpan root;
      root.name = "daemon.request";
      root.process = "daemon";
      root.pid = static_cast<int64_t>(::getpid());
      root.span_id = waiter.request_span_id;
      root.parent_span_id = waiter.request.trace.parent_span_id;
      root.start_unix_us = waiter.admitted_unix_us;
      const int64_t now_us = UnixMicrosNow();
      root.duration_us = now_us > waiter.admitted_unix_us
                             ? now_us - waiter.admitted_unix_us
                             : 0;
      root.annotations.emplace_back("op", waiter.request.op);
      root.annotations.emplace_back("key", job.key);
      root.annotations.emplace_back(
          "status", response.status.ok()
                        ? "OK"
                        : StatusCodeToString(response.status.code()));
      root.annotations.emplace_back("attempts",
                                    std::to_string(job.attempts));
      response.spans.push_back(std::move(root));
      response.spans.insert(response.spans.end(), waiter.spans.begin(),
                            waiter.spans.end());
    }
    if (slowlog_.enabled()) {
      SlowQueryEvent event;
      event.process = "daemon";
      event.trace_id = waiter.trace_hex;
      event.id = waiter.request.id;
      event.op = waiter.request.op;
      event.key = job.key;
      event.status = response.status.ok()
                         ? "OK"
                         : StatusCodeToString(response.status.code());
      event.total_ms = total_s * 1000.0;
      event.spans = response.spans;
      slowlog_.MaybeLog(event, MonotonicSeconds());
    }
    Respond(waiter.conn_id, response);
  }

  /// Streams advisory PROG frames (progress fraction + ETA) to the clients
  /// of traced in-flight and queued queries, at most one per
  /// progress_interval_s per query. The ETA model is the mean finished
  /// cell duration; with no history yet, fraction 0 / eta -1 ("unknown").
  void EmitProgress(double now) {
    if (options_.progress_interval_s <= 0.0) return;
    const uint64_t finished = metrics_.cell_seconds->count();
    const double mean_s =
        finished > 0
            ? metrics_.cell_seconds->sum() / static_cast<double>(finished)
            : -1.0;
    auto emit = [&](Waiter& waiter, const char* stage, double fraction,
                    double eta_s) {
      if (!waiter.traced() ||
          now - waiter.last_progress_s < options_.progress_interval_s) {
        return;
      }
      waiter.last_progress_s = now;
      ProgressUpdate update;
      update.id = waiter.request.id;
      update.fraction = fraction;
      update.eta_s = eta_s;
      update.stage = stage;
      update.trace_id = waiter.trace_hex;
      if (loop_.Send(waiter.conn_id, kFrameProgress,
                     SerializeProgressUpdate(update))) {
        metrics_.progress_frames->Increment();
      }
    };
    for (QueryJob& job : inflight_) {
      double fraction = 0.0;
      double eta_s = -1.0;
      if (mean_s > 0.0) {
        const double elapsed = job.proc.AgeSeconds();
        // Cap below 1.0: the estimate is a mean, and claiming "done" while
        // the worker still runs would make the client's bar lie.
        fraction = std::min(0.95, elapsed / mean_s);
        eta_s = std::max(0.0, mean_s - elapsed);
      }
      for (Waiter& waiter : job.waiters) {
        emit(waiter, "compute", fraction, eta_s);
      }
    }
    for (QueryJob& job : queue_) {
      for (Waiter& waiter : job.waiters) {
        emit(waiter, "queued", 0.0, mean_s > 0.0 ? mean_s : -1.0);
      }
    }
  }

  void Respond(uint64_t conn_id, const QueryResponse& response) {
    if (response.status.ok()) {
      metrics_.requests_ok->Increment();
    } else {
      metrics_.requests_failed->Increment();
    }
    if (!loop_.Send(conn_id, kFrameQueryResponse,
                    SerializeQueryResponse(response))) {
      // The client hung up while its query ran. The work was not wasted —
      // a computed cell is already cached — but the bytes have nowhere
      // to go.
      metrics_.responses_dropped->Increment();
    }
  }

  // --------------------------------------------------------------- drain --

  void BeginDrain() {
    draining_ = true;
    FAIREM_LOG(WARN) << "drain requested"
                     << LogKv("signal", ShutdownGuard::signal_number())
                     << LogKv("queued", queue_.size())
                     << LogKv("inflight", inflight_.size());
    loop_.StopListening();
    // Queued-but-unstarted work is shed: retryable, the honest signal to
    // go elsewhere. In-flight work finishes or deadlines out.
    for (QueryJob& job : queue_) {
      metrics_.shed_draining->Increment(job.waiters.size());
      QueryResponse response;
      response.status = Status::Unavailable("draining; retry elsewhere");
      response.retry_after_s = options_.retry_after_s;
      FinishJob(job, response);
    }
    queue_.clear();
  }

  void FinishDrain() {
    loop_.CloseAll();
    UpdateGauges();
    metrics_.shutdowns->Increment();
    if (!options_.metrics_path.empty()) {
      Status st = WriteFileDurable(
          options_.metrics_path,
          MetricsSnapshotToJson(MetricsRegistry::Global().Snapshot()));
      if (!st.ok()) {
        FAIREM_LOG(WARN) << "drain metrics flush failed"
                         << LogKv("status", st.ToString());
      }
    }
    FAIREM_LOG(INFO) << "drain complete"
                     << LogKv("requests",
                              metrics_.requests_total->value());
  }

  void UpdateGauges() {
    metrics_.queue_depth->Set(static_cast<double>(queue_.size()));
    metrics_.inflight->Set(static_cast<double>(inflight_.size()));
  }

  ServeOptions options_;
  ServeMetrics metrics_;
  SlowQueryLogger slowlog_;
  EventLoop loop_;
  WarmState warm_;
  uint64_t spawn_sequence_ = 0;
  bool draining_ = false;
  std::deque<QueryJob> queue_;
  std::vector<QueryJob> inflight_;
};

}  // namespace

double LoadAwareRetryAfterS(double base, int queue_depth, int max_queue,
                            int inflight, int max_inflight) {
  if (base <= 0.0) return 0.0;
  double factor = 1.0;
  if (max_queue > 0 && queue_depth > 0) {
    factor += std::min(1.0, static_cast<double>(queue_depth) /
                                static_cast<double>(max_queue));
  }
  if (max_inflight > 0 && inflight > 0) {
    factor += std::min(1.0, static_cast<double>(inflight) /
                                static_cast<double>(max_inflight));
  }
  return base * factor;
}

Status RunServeDaemon(const ServeOptions& options) {
  // EPIPE handling relies on write() returning the error instead of the
  // default fatal SIGPIPE.
  IgnoreSigpipe();
  ShutdownGuard shutdown_guard;
  ServeOptions normalized = options;
  if (normalized.max_inflight < 1) normalized.max_inflight = 1;
  if (normalized.max_queue < 0) normalized.max_queue = 0;
  if (normalized.max_attempts < 1) normalized.max_attempts = 1;
  ServeDaemon daemon(normalized);
  return daemon.Run();
}

}  // namespace fairem
