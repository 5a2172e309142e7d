#include "src/route/router.h"

#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <cstring>
#include <map>
#include <utility>
#include <vector>

#include "src/obs/log.h"
#include "src/obs/metrics.h"
#include "src/obs/slowlog.h"
#include "src/obs/trace.h"
#include "src/report/grid.h"
#include "src/robust/checkpoint.h"
#include "src/robust/circuit_breaker.h"
#include "src/robust/supervisor.h"
#include "src/serve/event_loop.h"
#include "src/serve/protocol.h"
#include "src/serve/server.h"
#include "src/util/durable_file.h"
#include "src/util/io_util.h"
#include "src/util/rng.h"
#include "src/util/string_util.h"

namespace fairem {
namespace {

// SIGHUP latch for live membership reload. sig_atomic_t write is the only
// thing the handler does; the event loop consumes it between poll rounds.
volatile std::sig_atomic_t g_sighup_latch = 0;

void OnSighup(int) { g_sighup_latch = 1; }

void InstallSighupHandler() {
  struct sigaction action;
  std::memset(&action, 0, sizeof(action));
  action.sa_handler = OnSighup;
  sigemptyset(&action.sa_mask);
  ::sigaction(SIGHUP, &action, nullptr);
}

struct RouteMetrics {
  Counter* queries_total;
  Counter* queries_ok;
  Counter* failed_queries;
  Counter* degraded_answers;
  Counter* unroutable_queries;
  Counter* shed_overload;
  Counter* shed_draining;
  Counter* deadline_expired;
  Counter* failovers;
  Counter* rerouted_queries;
  Counter* hedges_started;
  Counter* hedges_won;
  Counter* hedges_lost;
  Counter* health_probes;
  Counter* health_probe_failures;
  Counter* breaker_opens;
  Counter* reloads;
  Counter* responses_dropped;
  Counter* shutdowns;
  Gauge* backends;
  Gauge* backends_usable;
  Gauge* inflight_jobs;
  Histogram* request_seconds;
  Histogram* backend_call_seconds;

  static RouteMetrics Make() {
    MetricsRegistry& reg = MetricsRegistry::Global();
    RouteMetrics m;
    m.queries_total = reg.GetCounter("fairem.route.queries_total");
    m.queries_ok = reg.GetCounter("fairem.route.queries_ok");
    // A definite non-retryable error delivered to a client. The chaos
    // drill gates on this staying 0 while a backend is killed mid-load.
    m.failed_queries = reg.GetCounter("fairem.route.failed_queries");
    m.degraded_answers = reg.GetCounter("fairem.route.degraded_answers");
    m.unroutable_queries = reg.GetCounter("fairem.route.unroutable_queries");
    m.shed_overload = reg.GetCounter("fairem.route.shed_overload");
    m.shed_draining = reg.GetCounter("fairem.route.shed_draining");
    m.deadline_expired = reg.GetCounter("fairem.route.deadline_expired");
    m.failovers = reg.GetCounter("fairem.route.failovers");
    m.rerouted_queries = reg.GetCounter("fairem.route.rerouted_queries");
    m.hedges_started = reg.GetCounter("fairem.route.hedges_started");
    m.hedges_won = reg.GetCounter("fairem.route.hedges_won");
    m.hedges_lost = reg.GetCounter("fairem.route.hedges_lost");
    m.health_probes = reg.GetCounter("fairem.route.health_probes");
    m.health_probe_failures =
        reg.GetCounter("fairem.route.health_probe_failures");
    m.breaker_opens = reg.GetCounter("fairem.route.breaker_opens");
    m.reloads = reg.GetCounter("fairem.route.reloads");
    m.responses_dropped = reg.GetCounter("fairem.route.responses_dropped");
    m.shutdowns = reg.GetCounter("fairem.route.shutdowns");
    m.backends = reg.GetGauge("fairem.route.backends");
    m.backends_usable = reg.GetGauge("fairem.route.backends_usable");
    m.inflight_jobs = reg.GetGauge("fairem.route.inflight_jobs");
    m.request_seconds = reg.GetHistogram("fairem.route.request_seconds");
    m.backend_call_seconds =
        reg.GetHistogram("fairem.route.backend_call_seconds");
    return m;
  }
};

/// One backend daemon as the router sees it: its breaker, the one
/// persistent stream that carries both its health probes and every call
/// routed to it, and the last load report it gave.
struct Backend {
  std::string path;
  CircuitBreaker breaker;
  Gauge* state_gauge = nullptr;
  uint64_t opens_seen = 0;

  uint64_t stream = 0;  // event-loop stream id; 0 while not connected
  double next_probe_s = 0.0;
  double probe_sent_s = -1.0;  // >= 0 while a probe awaits its reply
  uint64_t probe_id = 0;

  /// Last HLTH reply's serving flag. Optimistic before the first probe so
  /// a cold-started router can route immediately.
  bool serving = true;
};

/// One request of a job to one backend, sent on that backend's stream. Its
/// answer and PROG frames come back carrying the job's route_id; the
/// stream they arrive on tells a primary from its hedge.
struct RouteCall {
  std::string backend;
  uint64_t stream = 0;  // 0: no call in flight
  double started_s = 0.0;
  // "router.call" span for this backend attempt; 0 when the job is
  // untraced or the span has already been closed into job.spans.
  uint64_t span_id = 0;
  int64_t started_unix_us = 0;

  bool active() const { return stream != 0; }
};

struct RouteJob {
  uint64_t conn_id = 0;
  uint64_t route_id = 0;   // router-side correlation id, all calls share it
  QueryRequest request;    // request.id is the client's correlation id
  std::string key;
  double admitted_s = 0.0;
  double deadline_s = 0.0;  // absolute, monotonic
  std::vector<std::string> tried;
  bool rerouted = false;
  RouteCall primary;
  RouteCall hedge;
  double hedge_at_s = -1.0;  // < 0: hedging disabled for this job
  // Tracing state (DESIGN.md §16); inert when ctx is invalid.
  TraceContext ctx;
  std::string trace_hex;         // cached ctx.TraceIdHex()
  uint64_t request_span_id = 0;  // "router.request" hop span
  int64_t admitted_unix_us = 0;
  std::vector<WireSpan> spans;   // completed router-side spans
};

class RouteDaemon {
 public:
  explicit RouteDaemon(const RouteOptions& options)
      : options_(options),
        metrics_(RouteMetrics::Make()),
        slowlog_(options.slow_query_log, options.slow_query_ms),
        rng_(0x526f757465ull ^ static_cast<uint64_t>(::getpid())),
        loop_("fairem.route", options.io_timeout_s) {}

  Status Run() {
    std::vector<std::string> initial = options_.backends;
    if (!options_.backends_file.empty()) {
      Result<std::string> text = ReadFileToString(options_.backends_file);
      if (text.ok()) {
        for (std::string& path : ParseBackendsList(*text)) {
          initial.push_back(std::move(path));
        }
      } else {
        FAIREM_LOG(WARN) << "backends file unreadable at startup"
                         << LogKv("path", options_.backends_file)
                         << LogKv("status", text.status().ToString());
      }
    }
    ApplyBackendSet(initial);
    if (backends_.empty()) {
      return Status::InvalidArgument(
          "route: no backends configured (--backends or --backends_file)");
    }
    FAIREM_RETURN_NOT_OK(loop_.Listen(options_.socket_path));
    FAIREM_LOG(INFO) << "fairem route ready"
                     << LogKv("socket", options_.socket_path)
                     << LogKv("backends", backends_.size());
    EventLoop::Handlers handlers;
    handlers.on_message = [this](uint64_t stream,
                                 const ServeMessage& message) {
      if (Backend* backend = BackendOnStream(stream)) {
        OnBackendMessage(*backend, stream, message);
      } else {
        HandleMessage(stream, message);
      }
    };
    handlers.on_close = [this](uint64_t stream, StreamEnd) {
      LoseStream(stream);
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
    if (g_sighup_latch != 0) {
      g_sighup_latch = 0;
      ReloadBackends();
    }
    ProbeBackends(now);
    StartHedges(now);
    ExpireJobs(now);
    UpdateGauges(now);
    if (draining_ && jobs_.empty() && loop_.Flushed()) {
      pass->stop = true;
      return;
    }
    pass->wait_s = NextTimerS(now);
  }

  /// Seconds until the next probe, probe timeout, hedge or deadline.
  double NextTimerS(double now) const {
    double wait = EventLoop::kMaxWaitS;
    for (const auto& [path, backend] : backends_) {
      wait = std::min(wait, backend.next_probe_s - now);
      if (backend.probe_sent_s >= 0.0) {
        wait = std::min(wait, backend.probe_sent_s +
                                  options_.health_timeout_s - now);
      }
    }
    for (const auto& [id, job] : jobs_) {
      wait = std::min(wait, job.deadline_s - now);
      if (job.hedge_at_s >= 0.0 && job.primary.active() &&
          !job.hedge.active()) {
        wait = std::min(wait, job.hedge_at_s - now);
      }
    }
    return wait;
  }

  // ---------------------------------------------------------- membership --

  void ApplyBackendSet(const std::vector<std::string>& paths) {
    std::map<std::string, Backend> next;
    for (const std::string& path : paths) {
      if (path.empty() || next.count(path) != 0) continue;
      auto existing = backends_.find(path);
      if (existing != backends_.end()) {
        // A surviving backend keeps its breaker and its stream: reload
        // must not forget what we learned about it.
        next.emplace(path, std::move(existing->second));
        backends_.erase(existing);
        continue;
      }
      Backend backend;
      backend.path = path;
      CircuitBreakerOptions breaker;
      breaker.failure_threshold = options_.breaker_failure_threshold;
      breaker.open_cooldown_s = options_.breaker_cooldown_s;
      backend.breaker = CircuitBreaker(breaker);
      backend.state_gauge = MetricsRegistry::Global().GetGauge(
          "fairem.route.backend." + CheckpointStore::SanitizeKey(path) +
          ".state");
      next.emplace(path, std::move(backend));
    }
    std::swap(backends_, next);
    // Whatever is left in `next` was removed: close its stream, and the
    // calls still on it fail over to the new membership.
    for (auto& [path, backend] : next) {
      if (backend.state_gauge != nullptr) backend.state_gauge->Set(-1.0);
      FAIREM_LOG(INFO) << "backend removed" << LogKv("backend", path);
      if (backend.stream != 0) {
        loop_.Close(backend.stream);
        FailCallsOn(backend.stream);
      }
    }
  }

  void ReloadBackends() {
    if (options_.backends_file.empty()) {
      FAIREM_LOG(WARN) << "SIGHUP with no --backends_file; membership kept";
      return;
    }
    Result<std::string> text = ReadFileToString(options_.backends_file);
    if (!text.ok()) {
      // Keep serving with the old membership; an operator mid-edit must
      // not be able to empty the fleet with a torn file.
      FAIREM_LOG(WARN) << "backends reload failed"
                       << LogKv("path", options_.backends_file)
                       << LogKv("status", text.status().ToString());
      return;
    }
    std::vector<std::string> paths = ParseBackendsList(*text);
    if (paths.empty()) {
      FAIREM_LOG(WARN) << "backends reload: file lists no backends; kept "
                          "previous membership";
      return;
    }
    ApplyBackendSet(paths);
    metrics_.reloads->Increment();
    FAIREM_LOG(INFO) << "backends reloaded"
                     << LogKv("path", options_.backends_file)
                     << LogKv("backends", backends_.size());
  }

  // ------------------------------------------------------------- streams --

  Backend* BackendOnStream(uint64_t stream) {
    for (auto& [path, backend] : backends_) {
      if (backend.stream == stream) return &backend;
    }
    return nullptr;
  }

  /// Connects the backend's stream if it has none. False when the backend
  /// is not up.
  bool EnsureStream(Backend& backend) {
    if (backend.stream != 0 && loop_.Has(backend.stream)) return true;
    Result<uint64_t> stream = loop_.Dial(backend.path);
    backend.stream = stream.ok() ? *stream : 0;
    backend.probe_sent_s = -1.0;  // a probe on a lost stream is never answered
    return stream.ok();
  }

  /// A stream the loop closed (peer gone, malformed, stalled). For a
  /// backend's stream that is a failed probe, and every call on it fails
  /// over exactly as if its own connection had died.
  void LoseStream(uint64_t stream) {
    if (Backend* backend = BackendOnStream(stream)) {
      backend->stream = 0;
      ProbeFailed(*backend, MonotonicSeconds(), "backend stream closed");
    }
    FailCallsOn(stream);
  }

  void FailCallsOn(uint64_t stream) {
    const double now = MonotonicSeconds();
    std::vector<std::pair<uint64_t, bool>> lost;
    for (const auto& [id, job] : jobs_) {
      if (job.primary.stream == stream) lost.emplace_back(id, false);
      if (job.hedge.stream == stream) lost.emplace_back(id, true);
    }
    for (const auto& [id, is_hedge] : lost) {
      auto it = jobs_.find(id);
      if (it == jobs_.end()) continue;
      const RouteCall& call = is_hedge ? it->second.hedge : it->second.primary;
      if (call.stream == stream) OnCallFailed(it->second, is_hedge, now);
    }
  }

  // ------------------------------------------------------------- probing --

  void ProbeBackends(double now) {
    for (auto& [path, backend] : backends_) {
      if (backend.probe_sent_s >= 0.0 &&
          now - backend.probe_sent_s > options_.health_timeout_s) {
        ProbeFailed(backend, now, "probe timeout");
      }
      if (now < backend.next_probe_s) continue;
      ScheduleNextProbe(backend, now);
      if (backend.probe_sent_s >= 0.0) continue;  // previous still out
      metrics_.health_probes->Increment();
      // Probes ignore the breaker on purpose: they are how an open breaker
      // ever finds out the backend recovered.
      if (!EnsureStream(backend)) {
        metrics_.health_probe_failures->Increment();
        RecordBackendFailure(backend, now);
        continue;
      }
      HealthReport probe;
      probe.probe = true;
      probe.id = ++probe_sequence_;
      backend.probe_id = probe.id;
      backend.probe_sent_s = now;
      loop_.Send(backend.stream, kFrameHealth, SerializeHealthReport(probe));
    }
  }

  void ScheduleNextProbe(Backend& backend, double now) {
    backend.next_probe_s =
        now + options_.health_period_s * rng_.NextDouble(0.5, 1.5);
  }

  /// A probe went unanswered or its stream died. The stream itself is kept
  /// on a timeout: the calls on it are still owed their answers, and a late
  /// probe reply is simply ignored by id.
  void ProbeFailed(Backend& backend, double now, const char* reason) {
    FAIREM_LOG(WARN) << "health probe failed"
                     << LogKv("backend", backend.path)
                     << LogKv("reason", reason);
    metrics_.health_probe_failures->Increment();
    backend.probe_sent_s = -1.0;
    RecordBackendFailure(backend, now);
  }

  /// A frame from a backend: a probe reply, or the answer or progress of
  /// one of the calls routed to it.
  void OnBackendMessage(Backend& backend, uint64_t stream,
                        const ServeMessage& message) {
    const double now = MonotonicSeconds();
    if (message.type == kFrameHealth) {
      Result<HealthReport> report = ParseHealthReport(message.bytes);
      if (!report.ok() || backend.probe_sent_s < 0.0 ||
          report->id != backend.probe_id) {
        return;
      }
      backend.probe_sent_s = -1.0;
      backend.serving = report->serving;
      // Transport-wise the backend is alive; a draining backend is
      // excluded by the serving flag, not the breaker.
      RecordBackendSuccess(backend, now);
      return;
    }
    if (message.type == kFrameProgress) {
      Result<ProgressUpdate> update = ParseProgressUpdate(message.bytes);
      if (!update.ok()) return;
      auto it = jobs_.find(update->id);
      if (it != jobs_.end() && (it->second.primary.stream == stream ||
                                it->second.hedge.stream == stream)) {
        ForwardProgress(it->second, *update);
      }
      return;
    }
    if (message.type != kFrameQueryResponse) return;
    Result<QueryResponse> response = ParseQueryResponse(message.bytes);
    if (!response.ok()) {
      // An answer that cannot be read cannot be paired with its call:
      // the stream is no longer trustworthy, so every call on it fails
      // over.
      loop_.Close(stream);
      LoseStream(stream);
      return;
    }
    auto it = jobs_.find(response->id);
    // No job, or not this stream's call: the late answer of a hedge that
    // lost or of a query that already expired. Dropped by id.
    if (it == jobs_.end()) return;
    RouteJob& job = it->second;
    const bool is_hedge = job.hedge.stream == stream;
    if (!is_hedge && job.primary.stream != stream) return;
    // A backend shed/drain is the router's cue to fail over, exactly like
    // a dead backend — the client never sees it.
    if (!response->status.ok() && response->status.IsUnavailable()) {
      OnCallFailed(job, is_hedge, now);
      return;
    }
    OnCallAnswered(job, is_hedge, std::move(*response), now);
    jobs_.erase(it);
  }

  // ------------------------------------------------------------ breakers --

  void RecordBackendFailure(Backend& backend, double now) {
    backend.breaker.RecordFailure(now);
    const uint64_t opened = backend.breaker.times_opened();
    if (opened > backend.opens_seen) {
      metrics_.breaker_opens->Increment(opened - backend.opens_seen);
      backend.opens_seen = opened;
      FAIREM_LOG(WARN) << "circuit breaker opened"
                       << LogKv("backend", backend.path)
                       << LogKv("failures",
                                backend.breaker.consecutive_failures());
    }
  }

  void RecordBackendSuccess(Backend& backend, double now) {
    backend.breaker.RecordSuccess(now);
  }

  Backend* FindBackend(const std::string& path) {
    auto it = backends_.find(path);
    return it == backends_.end() ? nullptr : &it->second;
  }

  // ------------------------------------------------------------- inbound --

  void HandleMessage(uint64_t conn_id, const ServeMessage& message) {
    if (message.type == kFrameHealth) {
      HandleHealthProbe(conn_id, message);
      return;
    }
    if (message.type == kFrameProgress) {
      // PROG is advisory and flows toward clients; a stray one arriving on
      // the front socket is a confused-but-harmless peer. Ignore it.
      return;
    }
    metrics_.queries_total->Increment();
    if (message.type != kFrameQueryRequest) {
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
      // The router's own metrics: `fairem query <router> stats` shows
      // fairem.route.*, the same way a daemon shows fairem.serve.*.
      UpdateGauges(MonotonicSeconds());
      response.payload =
          MetricsSnapshotToJson(MetricsRegistry::Global().Snapshot());
      Respond(conn_id, response);
      return;
    }
    AdmitRoutedQuery(conn_id, *request);
  }

  void HandleHealthProbe(uint64_t conn_id, const ServeMessage& message) {
    Result<HealthReport> probe = ParseHealthReport(message.bytes);
    HealthReport reply;
    if (probe.ok()) reply.id = probe->id;
    reply.serving = !draining_ && UsableBackendCount(MonotonicSeconds()) > 0;
    reply.queue_depth = static_cast<double>(jobs_.size());
    reply.inflight = static_cast<double>(jobs_.size());
    reply.retry_after_s = CurrentRetryAfterS();
    loop_.Send(conn_id, kFrameHealth, SerializeHealthReport(reply));
  }

  double CurrentRetryAfterS() const {
    return LoadAwareRetryAfterS(options_.retry_after_s,
                                static_cast<int>(jobs_.size()),
                                options_.max_inflight_jobs, 0, 0);
  }

  int UsableBackendCount(double now) {
    int usable = 0;
    for (auto& [path, backend] : backends_) {
      if (backend.serving &&
          backend.breaker.state(now) != CircuitBreaker::State::kOpen) {
        ++usable;
      }
    }
    return usable;
  }

  // -------------------------------------------------------------- routing --

  /// A one-shot router-side span for queries refused without a RouteJob
  /// (sheds): even a refused query shows its hop in the client's trace.
  static void AttachAdHocSpan(const QueryRequest& request,
                              QueryResponse* response, const char* outcome) {
    if (!request.trace.valid()) return;
    WireSpan span;
    span.name = "router.request";
    span.process = "router";
    span.pid = static_cast<int64_t>(::getpid());
    span.span_id = NewSpanId();
    span.parent_span_id = request.trace.parent_span_id;
    span.start_unix_us = UnixMicrosNow();
    span.annotations.emplace_back("outcome", outcome);
    response->spans.push_back(std::move(span));
  }

  void AdmitRoutedQuery(uint64_t conn_id, const QueryRequest& request) {
    QueryResponse response;
    response.id = request.id;
    if (draining_) {
      metrics_.shed_draining->Increment();
      response.status = Status::Unavailable("router draining; retry later");
      response.retry_after_s = options_.retry_after_s;
      AttachAdHocSpan(request, &response, "shed_draining");
      Respond(conn_id, response);
      return;
    }
    if (static_cast<int>(jobs_.size()) >= options_.max_inflight_jobs) {
      metrics_.shed_overload->Increment();
      response.status = Status::Unavailable("router at capacity");
      response.retry_after_s = CurrentRetryAfterS();
      AttachAdHocSpan(request, &response, "shed_overload");
      Respond(conn_id, response);
      return;
    }
    const double now = MonotonicSeconds();
    double deadline_s = request.deadline_s > 0.0
                            ? std::min(request.deadline_s,
                                       options_.max_deadline_s)
                            : options_.default_deadline_s;
    RouteJob job;
    job.conn_id = conn_id;
    job.route_id = ++route_sequence_;
    job.request = request;
    job.key = request.dataset + "." + request.mode + "." + request.matcher;
    job.admitted_s = now;
    job.deadline_s = now + deadline_s;
    if (request.trace.valid()) {
      job.ctx = request.trace;
      job.trace_hex = request.trace.TraceIdHex();
      // Pre-minted so backend calls can parent under it before the hop
      // span itself closes in FinishRoutedJob.
      job.request_span_id = NewSpanId();
      job.admitted_unix_us = UnixMicrosNow();
    }
    if (options_.hedge) job.hedge_at_s = now + HedgeDelay();
    if (!Dispatch(job, &job.primary, now)) {
      FinishUnroutable(job);
      return;
    }
    jobs_.emplace(job.route_id, std::move(job));
  }

  /// Rendezvous pick: the highest-ranked backend for the job's key that is
  /// serving, not already tried, and whose breaker admits a request.
  std::string PickBackend(const RouteJob& job, double now) {
    std::vector<std::pair<uint64_t, Backend*>> ranked;
    ranked.reserve(backends_.size());
    for (auto& [path, backend] : backends_) {
      if (!backend.serving) continue;
      if (std::find(job.tried.begin(), job.tried.end(), path) !=
          job.tried.end()) {
        continue;
      }
      ranked.emplace_back(RendezvousRank(job.key, path), &backend);
    }
    std::sort(ranked.begin(), ranked.end(),
              [](const auto& a, const auto& b) { return a.first > b.first; });
    for (auto& [rank, backend] : ranked) {
      // AllowRequest claims a half-open probe slot, so only consult it for
      // the backend we would actually use.
      if (backend->breaker.AllowRequest(now)) return backend->path;
    }
    return std::string();
  }

  /// Starts `job`'s next attempt on the best untried backend, over that
  /// backend's stream. False when every candidate is exhausted (`call`
  /// left inactive).
  bool Dispatch(RouteJob& job, RouteCall* call, double now) {
    while (true) {
      std::string target = PickBackend(job, now);
      if (target.empty()) return false;
      job.tried.push_back(target);
      Backend& backend = *FindBackend(target);
      if (!EnsureStream(backend)) {
        RecordBackendFailure(backend, now);
        AppendFailoverSpan(job, target, call == &job.hedge,
                           "connect_failed");
        metrics_.failovers->Increment();
        continue;
      }
      call->backend = target;
      call->stream = backend.stream;
      call->started_s = now;
      QueryRequest forwarded = job.request;
      forwarded.id = job.route_id;
      // The backend should only work as long as the client will still be
      // listening: forward the remaining budget, not the original.
      forwarded.deadline_s = std::max(0.001, job.deadline_s - now);
      if (job.ctx.valid()) {
        // Re-parent the context so the backend's spans hang under this
        // specific call — a hedge and its primary stay distinguishable.
        call->span_id = NewSpanId();
        call->started_unix_us = UnixMicrosNow();
        forwarded.trace.parent_span_id = call->span_id;
      }
      loop_.Send(backend.stream, kFrameQueryRequest,
                 SerializeQueryRequest(forwarded));
      return true;
    }
  }

  double HedgeDelay() {
    double delay = options_.hedge_min_delay_s;
    // Until the histogram has seen enough calls the quantile estimate is
    // noise; stay on the floor.
    if (metrics_.backend_call_seconds->count() >= 20) {
      delay = std::max(delay,
                       options_.hedge_delay_factor *
                           metrics_.backend_call_seconds->Quantile(
                               options_.hedge_quantile));
    }
    return delay;
  }

  void StartHedges(double now) {
    for (auto& [id, job] : jobs_) {
      if (job.hedge_at_s < 0.0 || now < job.hedge_at_s) continue;
      if (job.hedge.active() || !job.primary.active()) continue;
      job.hedge_at_s = -1.0;  // one hedge per job
      if (Dispatch(job, &job.hedge, now)) {
        metrics_.hedges_started->Increment();
      }
    }
  }

  // ------------------------------------------------------- call lifecycle --

  /// Forwards a backend's advisory PROG frame to the job's client, with
  /// the correlation id rewritten from the router's to the client's.
  void ForwardProgress(const RouteJob& job, ProgressUpdate update) {
    update.id = job.request.id;
    if (update.trace_id.empty()) update.trace_id = job.trace_hex;
    loop_.Send(job.conn_id, kFrameProgress, SerializeProgressUpdate(update));
  }

  /// Closes `call`'s "router.call" span into job.spans with the given
  /// outcome. Safe to call on an untraced or already-closed call (no-op).
  void FinishCallSpan(RouteJob& job, RouteCall& call, bool is_hedge,
                      const char* outcome) {
    if (!job.ctx.valid() || call.span_id == 0) return;
    WireSpan span;
    span.name = "router.call";
    span.process = "router";
    span.pid = static_cast<int64_t>(::getpid());
    span.span_id = call.span_id;
    span.parent_span_id = job.request_span_id;
    span.start_unix_us = call.started_unix_us;
    const int64_t now_us = UnixMicrosNow();
    span.duration_us =
        now_us > call.started_unix_us ? now_us - call.started_unix_us : 0;
    span.annotations.emplace_back("backend", call.backend);
    span.annotations.emplace_back("hedge", is_hedge ? "true" : "false");
    span.annotations.emplace_back("outcome", outcome);
    job.spans.push_back(std::move(span));
    call.span_id = 0;
  }

  /// Finalizes a routed query: closes the "router.request" hop span onto
  /// the response (ahead of the backend's own spans, which `response` may
  /// already carry), feeds the slow-query log, and responds to the client.
  void FinishRoutedJob(RouteJob& job, QueryResponse& response, double now,
                       const char* outcome) {
    const double total_s = now - job.admitted_s;
    metrics_.request_seconds->ObserveWithExemplar(total_s, job.trace_hex);
    if (job.ctx.valid()) {
      WireSpan root;
      root.name = "router.request";
      root.process = "router";
      root.pid = static_cast<int64_t>(::getpid());
      root.span_id = job.request_span_id;
      root.parent_span_id = job.ctx.parent_span_id;
      root.start_unix_us = job.admitted_unix_us;
      const int64_t now_us = UnixMicrosNow();
      root.duration_us = now_us > job.admitted_unix_us
                             ? now_us - job.admitted_unix_us
                             : 0;
      root.annotations.emplace_back("key", job.key);
      root.annotations.emplace_back("outcome", outcome);
      root.annotations.emplace_back("backends_tried",
                                    std::to_string(job.tried.size()));
      response.spans.push_back(std::move(root));
      response.spans.insert(response.spans.end(), job.spans.begin(),
                            job.spans.end());
    }
    if (slowlog_.enabled()) {
      SlowQueryEvent event;
      event.process = "router";
      event.trace_id = job.trace_hex;
      event.id = job.request.id;
      event.op = job.request.op;
      event.key = job.key;
      event.status = response.status.ok()
                         ? "OK"
                         : StatusCodeToString(response.status.code());
      event.total_ms = total_s * 1000.0;
      event.spans = response.spans;
      slowlog_.MaybeLog(event, now);
    }
    Respond(job.conn_id, response);
  }

  void OnCallAnswered(RouteJob& job, bool is_hedge, QueryResponse response,
                      double now) {
    RouteCall& winner = is_hedge ? job.hedge : job.primary;
    RouteCall& loser = is_hedge ? job.primary : job.hedge;
    if (Backend* backend = FindBackend(winner.backend)) {
      RecordBackendSuccess(*backend, now);
    }
    metrics_.backend_call_seconds->Observe(now - winner.started_s);
    const bool hedge_won = is_hedge;
    if (is_hedge) {
      metrics_.hedges_won->Increment();
    } else if (loser.active()) {
      metrics_.hedges_lost->Increment();
    }
    FinishCallSpan(job, winner, is_hedge, "answered");
    FinishCallSpan(job, loser, !is_hedge, "cancelled");
    // The loser's answer no longer matters: when it arrives it matches no
    // job and is dropped by id. Its outcome is unknown, so its breaker is
    // left alone.
    response.id = job.request.id;
    FinishRoutedJob(job, response, now,
                    hedge_won ? "hedge_won" : "primary_won");
  }

  /// The failover decision itself, as an instant span: a connected trace
  /// shows not just the failed call but the moment the router moved on
  /// from it. `reason` distinguishes a call that died mid-flight
  /// ("call_failed") from a backend that refused the connection outright
  /// ("connect_failed", e.g. a SIGKILLed daemon's stale socket).
  void AppendFailoverSpan(RouteJob& job, const std::string& from_backend,
                          bool is_hedge, const char* reason) {
    if (!job.ctx.valid()) return;
    WireSpan failover;
    failover.name = "router.failover";
    failover.process = "router";
    failover.pid = static_cast<int64_t>(::getpid());
    failover.span_id = NewSpanId();
    failover.parent_span_id = job.request_span_id;
    failover.start_unix_us = UnixMicrosNow();
    failover.annotations.emplace_back("from_backend", from_backend);
    failover.annotations.emplace_back("reason", reason);
    failover.annotations.emplace_back("hedge", is_hedge ? "true" : "false");
    job.spans.push_back(std::move(failover));
  }

  void OnCallFailed(RouteJob& job, bool is_hedge, double now) {
    RouteCall& failed = is_hedge ? job.hedge : job.primary;
    if (Backend* backend = FindBackend(failed.backend)) {
      RecordBackendFailure(*backend, now);
    }
    FinishCallSpan(job, failed, is_hedge, "failed");
    AppendFailoverSpan(job, failed.backend, is_hedge, "call_failed");
    failed.stream = 0;
    metrics_.failovers->Increment();
    if (!job.rerouted) {
      job.rerouted = true;
      metrics_.rerouted_queries->Increment();
    }
    RouteCall& other = is_hedge ? job.primary : job.hedge;
    if (other.active()) return;  // the surviving call may still answer
    if (Dispatch(job, &job.primary, now)) return;
    const uint64_t id = job.route_id;
    FinishUnroutable(job);
    jobs_.erase(id);
  }

  /// Every candidate is down or refusing: degrade instead of hanging. A
  /// cell query gets the paper's Table 9 "-" semantics — a structured
  /// error-entry answer the report layer already knows how to render; any
  /// other op gets a retryable kUnavailable.
  void FinishUnroutable(RouteJob& job) {
    QueryResponse response;
    response.id = job.request.id;
    if (job.request.op == "cell") {
      GridCellCheckpoint cell;
      cell.matcher = job.request.matcher;
      cell.marker = MatcherMarker(job.request.matcher);
      cell.error = true;
      cell.status =
          Status::Unavailable("no backend available for cell '" + job.key +
                              "'")
              .ToString();
      response.payload = GridCellToJson(cell);
      metrics_.degraded_answers->Increment();
    } else {
      response.status =
          Status::Unavailable("no backend available for op '" +
                              job.request.op + "'");
      response.retry_after_s = CurrentRetryAfterS();
      metrics_.unroutable_queries->Increment();
    }
    FinishRoutedJob(job, response, MonotonicSeconds(), "unroutable");
  }

  void ExpireJobs(double now) {
    std::vector<uint64_t> expired;
    for (auto& [id, job] : jobs_) {
      if (now >= job.deadline_s) expired.push_back(id);
    }
    for (uint64_t id : expired) {
      auto it = jobs_.find(id);
      if (it == jobs_.end()) continue;
      RouteJob& job = it->second;
      metrics_.deadline_expired->Increment();
      if (job.hedge.active()) metrics_.hedges_lost->Increment();
      FinishCallSpan(job, job.primary, /*is_hedge=*/false, "expired");
      FinishCallSpan(job, job.hedge, /*is_hedge=*/true, "expired");
      QueryResponse response;
      response.id = job.request.id;
      response.status =
          Status::DeadlineExceeded("deadline expired in router");
      FinishRoutedJob(job, response, now, "deadline");
      jobs_.erase(it);
    }
  }

  // ------------------------------------------------------------ outbound --

  void Respond(uint64_t conn_id, const QueryResponse& response) {
    if (response.status.ok()) {
      metrics_.queries_ok->Increment();
    } else if (!response.status.IsUnavailable()) {
      // Sheds are retryable and expected under load; only a definite
      // error counts as a failed query.
      metrics_.failed_queries->Increment();
    }
    if (!loop_.Send(conn_id, kFrameQueryResponse,
                    SerializeQueryResponse(response))) {
      metrics_.responses_dropped->Increment();
    }
  }

  // --------------------------------------------------------------- drain --

  void BeginDrain() {
    draining_ = true;
    FAIREM_LOG(WARN) << "drain requested"
                     << LogKv("signal", ShutdownGuard::signal_number())
                     << LogKv("inflight", jobs_.size());
    loop_.StopListening();
    // In-flight routed queries finish, fail over, or deadline out — the
    // loop keeps pumping them; only new arrivals are shed.
  }

  void FinishDrain() {
    loop_.CloseAll();
    for (auto& [path, backend] : backends_) backend.stream = 0;
    UpdateGauges(MonotonicSeconds());
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
                     << LogKv("queries", metrics_.queries_total->value());
  }

  void UpdateGauges(double now) {
    metrics_.backends->Set(static_cast<double>(backends_.size()));
    metrics_.backends_usable->Set(
        static_cast<double>(UsableBackendCount(now)));
    metrics_.inflight_jobs->Set(static_cast<double>(jobs_.size()));
    for (auto& [path, backend] : backends_) {
      backend.state_gauge->Set(
          static_cast<double>(backend.breaker.state(now)));
    }
  }

  RouteOptions options_;
  RouteMetrics metrics_;
  SlowQueryLogger slowlog_;
  Rng rng_;
  EventLoop loop_;
  uint64_t route_sequence_ = 0;
  uint64_t probe_sequence_ = 0;
  bool draining_ = false;
  std::map<std::string, Backend> backends_;
  std::map<uint64_t, RouteJob> jobs_;
};

}  // namespace

uint64_t RendezvousRank(const std::string& cell_key,
                        const std::string& backend) {
  // FNV-1a over key, a separator byte, then backend (the separator keeps
  // ("ab","c") and ("a","bc") distinct), finished with the splitmix64
  // avalanche so rendezvous comparisons see well-mixed high bits.
  uint64_t h = 14695981039346656037ull;
  for (unsigned char c : cell_key) {
    h ^= c;
    h *= 1099511628211ull;
  }
  h ^= 0x1full;
  h *= 1099511628211ull;
  for (unsigned char c : backend) {
    h ^= c;
    h *= 1099511628211ull;
  }
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ull;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebull;
  h ^= h >> 31;
  return h;
}

std::vector<std::string> ParseBackendsList(const std::string& text) {
  std::vector<std::string> out;
  for (const std::string& line : Split(text, '\n')) {
    std::string_view trimmed = TrimAscii(line);
    if (trimmed.empty() || trimmed.front() == '#') continue;
    std::string path(trimmed);
    if (std::find(out.begin(), out.end(), path) == out.end()) {
      out.push_back(std::move(path));
    }
  }
  return out;
}

Status RunRouteDaemon(const RouteOptions& options) {
  IgnoreSigpipe();
  ShutdownGuard shutdown_guard;
  InstallSighupHandler();
  RouteOptions normalized = options;
  if (normalized.max_inflight_jobs < 1) normalized.max_inflight_jobs = 1;
  if (normalized.health_period_s <= 0.0) normalized.health_period_s = 0.5;
  if (normalized.health_timeout_s <= 0.0) normalized.health_timeout_s = 2.0;
  if (normalized.hedge_quantile <= 0.0 || normalized.hedge_quantile > 1.0) {
    normalized.hedge_quantile = 0.95;
  }
  if (normalized.hedge_delay_factor <= 0.0) {
    normalized.hedge_delay_factor = 1.0;
  }
  RouteDaemon daemon(normalized);
  return daemon.Run();
}

}  // namespace fairem
