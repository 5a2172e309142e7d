// End-to-end distributed tracing tests (DESIGN.md §16): real forked
// processes — serve daemons, a shard router — queried over the production
// wire by a traced ServeClient. The assertions are the tentpole contract:
// one query yields ONE connected trace whose spans come from every process
// it crossed (client, router, daemon, worker), with parent/child links that
// all resolve, merged into a single Chrome trace; live PROG frames stream
// mid-compute; and the slow-query log ties the same trace id to the same
// spans on disk.
//
// The chaos lane (ctest `trace_chaos`) reruns the *Chaos* test with
// FAIREM_FAILPOINTS exported: worker crashes + a backend SIGKILL, and the
// surviving timeline must still stitch together, failover spans included.

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdlib>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/obs/slowlog.h"
#include "src/obs/trace.h"
#include "src/obs/tracetop.h"
#include "src/robust/failpoint.h"
#include "src/route/router.h"
#include "src/serve/client.h"
#include "src/serve/protocol.h"
#include "src/serve/server.h"
#include "src/util/io_util.h"

namespace fairem {
namespace {

std::string FreshPath(const std::string& leaf, const std::string& suffix) {
  std::string path = "/tmp/fairem_" + leaf + "." +
                     std::to_string(::getpid()) + suffix;
  ::unlink(path.c_str());
  return path;
}

ServeOptions SmallServeOptions(const std::string& socket_path) {
  ServeOptions options;
  options.socket_path = socket_path;
  options.warm.datasets = {"Cricket"};
  options.warm.scale = 0.25;
  options.default_deadline_s = 60.0;
  options.max_deadline_s = 120.0;
  return options;
}

RouteOptions SmallRouteOptions(const std::string& socket_path,
                               std::vector<std::string> backends) {
  RouteOptions options;
  options.socket_path = socket_path;
  options.backends = std::move(backends);
  options.health_period_s = 0.1;
  options.health_timeout_s = 1.0;
  options.breaker_failure_threshold = 3;
  options.breaker_cooldown_s = 0.3;
  options.hedge_min_delay_s = 0.05;
  options.default_deadline_s = 60.0;
  options.max_deadline_s = 120.0;
  return options;
}

/// Forked daemon/router pair of handles, same shape as route_test's.
class ProcessHandle {
 public:
  ProcessHandle(const ServeOptions& options, const std::string& failpoints) {
    pid_ = ::fork();
    if (pid_ == 0) {
      if (!failpoints.empty()) {
        if (Status st = FailpointRegistry::Global().Configure(failpoints);
            !st.ok()) {
          ::_exit(2);
        }
      }
      Status st = RunServeDaemon(options);
      ::_exit(st.ok() ? 0 : 1);
    }
  }

  explicit ProcessHandle(const RouteOptions& options) {
    pid_ = ::fork();
    if (pid_ == 0) {
      Status st = RunRouteDaemon(options);
      ::_exit(st.ok() ? 0 : 1);
    }
  }

  ~ProcessHandle() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      int status = 0;
      ::waitpid(pid_, &status, 0);
    }
  }

  int Stop() {
    if (pid_ <= 0) return -1;
    ::kill(pid_, SIGTERM);
    int status = -1;
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
    return status;
  }

  void Kill() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGKILL);
    int status = 0;
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
  }

 private:
  pid_t pid_ = -1;
};

Result<ServeClient> ConnectTraced(const std::string& socket_path) {
  ServeClientOptions options;
  options.io_timeout_s = 60.0;
  options.connect_timeout_s = 60.0;
  options.trace = true;
  return ServeClient::Connect(socket_path, options);
}

QueryRequest CellRequest(const std::string& matcher,
                         double deadline_s = 60.0) {
  QueryRequest request;
  request.op = "cell";
  request.dataset = "Cricket";
  request.matcher = matcher;
  request.deadline_s = deadline_s;
  return request;
}

std::set<std::string> ProcessesOf(const std::vector<WireSpan>& spans) {
  std::set<std::string> procs;
  for (const WireSpan& span : spans) procs.insert(span.process);
  return procs;
}

std::set<std::string> NamesOf(const std::vector<WireSpan>& spans) {
  std::set<std::string> names;
  for (const WireSpan& span : spans) names.insert(span.name);
  return names;
}

/// The connectedness invariant: every span's parent is either 0 (a root)
/// or another span in the same trace. Returns the number of roots.
int AssertConnected(const std::vector<WireSpan>& spans) {
  std::set<uint64_t> ids;
  for (const WireSpan& span : spans) {
    EXPECT_NE(span.span_id, 0u) << span.name;
    ids.insert(span.span_id);
  }
  EXPECT_EQ(ids.size(), spans.size()) << "duplicate span ids";
  int roots = 0;
  for (const WireSpan& span : spans) {
    if (span.parent_span_id == 0) {
      ++roots;
      continue;
    }
    EXPECT_EQ(ids.count(span.parent_span_id), 1u)
        << span.process << "/" << span.name << " parent "
        << span.parent_span_id << " not in this trace";
  }
  return roots;
}

TEST(TraceE2eTest, TracedQueryThroughRouterMergesOneConnectedTrace) {
  IgnoreSigpipe();
  const std::string backend_a = FreshPath("trace_merge_a", ".sock");
  const std::string backend_b = FreshPath("trace_merge_b", ".sock");
  const std::string front = FreshPath("trace_merge_front", ".sock");
  ProcessHandle a(SmallServeOptions(backend_a), "");
  ProcessHandle b(SmallServeOptions(backend_b), "");
  ProcessHandle router(SmallRouteOptions(front, {backend_a, backend_b}));

  Result<ServeClient> client = ConnectTraced(front);
  ASSERT_TRUE(client.ok()) << client.status();
  RetryPolicy retry;
  retry.max_attempts = 4;
  Result<QueryResponse> r =
      client->CallWithRetry(CellRequest("DTMatcher"), retry);
  ASSERT_TRUE(r.ok()) << r.status();
  ASSERT_TRUE(r->status.ok()) << r->status;

  // One trace identity...
  ASSERT_TRUE(client->last_trace().valid());
  const std::vector<WireSpan> spans = client->last_spans();
  ASSERT_FALSE(spans.empty());

  // ...spanning at least client, router, daemon, and (first compute for
  // this key, so no cache hit) the forked worker — 4 processes, >= the
  // acceptance bar of 3.
  const std::set<std::string> procs = ProcessesOf(spans);
  EXPECT_GE(procs.size(), 3u);
  for (const char* proc : {"client", "router", "daemon", "worker"}) {
    EXPECT_EQ(procs.count(proc), 1u) << proc << " missing from trace";
  }

  // ...with the full hop taxonomy present...
  const std::set<std::string> names = NamesOf(spans);
  for (const char* name :
       {"client.query", "client.attempt", "router.request", "router.call",
        "daemon.request", "daemon.queue", "worker.fork", "worker.compute"}) {
    EXPECT_EQ(names.count(name), 1u) << name << " span missing";
  }

  // ...forming ONE tree: a single root (client.query), every other span's
  // parent resolving inside the trace.
  EXPECT_EQ(AssertConnected(spans), 1);

  // The merged Chrome trace carries every process as its own track.
  Tracer& tracer = Tracer::Global();
  tracer.Clear();
  tracer.set_enabled(true);
  tracer.RecordWireSpans(spans);
  const std::string chrome = tracer.ChromeTraceJson();
  tracer.set_enabled(false);
  tracer.Clear();
  for (const char* needle :
       {"client.query", "router.request", "daemon.request",
        "worker.compute"}) {
    EXPECT_NE(chrome.find(needle), std::string::npos) << needle;
  }

  int status = router.Stop();
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
  EXPECT_EQ(WEXITSTATUS(a.Stop()), 0);
  EXPECT_EQ(WEXITSTATUS(b.Stop()), 0);
}

TEST(TraceE2eTest, LiveProgressStreamsDuringTracedCompute) {
  IgnoreSigpipe();
  const std::string socket = FreshPath("trace_prog", ".sock");
  ServeOptions options = SmallServeOptions(socket);
  // A cell compute is only a few milliseconds even at full scale, and a
  // PROG frame needs a poll wake while the job is still in flight: the loop
  // wakes for each query's next PROG timer, so a 1ms emission interval
  // makes a ~5ms compute span several emission slots.
  options.warm.scale = 1.0;
  options.progress_interval_s = 0.001;
  ProcessHandle daemon(options, "");

  ServeClientOptions client_options;
  client_options.io_timeout_s = 60.0;
  client_options.connect_timeout_s = 60.0;
  client_options.trace = true;
  std::vector<ProgressUpdate> updates;
  client_options.on_progress = [&updates](const ProgressUpdate& update) {
    updates.push_back(update);
  };
  Result<ServeClient> client = ServeClient::Connect(socket, client_options);
  ASSERT_TRUE(client.ok()) << client.status();

  // Fresh keys so every query is a real worker compute, not a cache hit;
  // stop as soon as one of them streamed progress.
  std::set<std::string> issued_traces;
  for (const char* matcher :
       {"RFMatcher", "SVMMatcher", "LogRegMatcher", "DTMatcher"}) {
    for (const char* mode : {"pairwise", "single"}) {
      QueryRequest request = CellRequest(matcher);
      request.mode = mode;
      Result<QueryResponse> r = client->Call(request);
      ASSERT_TRUE(r.ok()) << r.status();
      ASSERT_TRUE(r->status.ok()) << r->status;
      issued_traces.insert(client->last_trace().TraceIdHex());
    }
    if (!updates.empty()) break;
  }
  ASSERT_FALSE(updates.empty()) << "no PROG frame across 8 cell computes";
  for (const ProgressUpdate& update : updates) {
    EXPECT_GE(update.fraction, 0.0);
    EXPECT_LE(update.fraction, 1.0);
    EXPECT_FALSE(update.stage.empty());
    EXPECT_EQ(issued_traces.count(update.trace_id), 1u)
        << "PROG for a trace we never issued: " << update.trace_id;
  }

  // An untraced client issuing the same query gets no PROG at all — the
  // untraced wire is byte-identical to the pre-tracing one.
  ServeClientOptions untraced = client_options;
  untraced.trace = false;
  std::vector<ProgressUpdate> untraced_updates;
  untraced.on_progress = [&untraced_updates](const ProgressUpdate& update) {
    untraced_updates.push_back(update);
  };
  Result<ServeClient> plain = ServeClient::Connect(socket, untraced);
  ASSERT_TRUE(plain.ok()) << plain.status();
  Result<QueryResponse> r2 = plain->Call(CellRequest("NBMatcher"));
  ASSERT_TRUE(r2.ok()) << r2.status();
  ASSERT_TRUE(r2->status.ok()) << r2->status;
  EXPECT_TRUE(untraced_updates.empty());
  EXPECT_TRUE(plain->last_spans().empty());

  EXPECT_EQ(WEXITSTATUS(daemon.Stop()), 0);
}

TEST(TraceE2eTest, SlowQueryLogTiesTraceIdToSpansOnDisk) {
  IgnoreSigpipe();
  const std::string socket = FreshPath("trace_slowlog", ".sock");
  const std::string log_path = FreshPath("trace_slowlog", ".jsonl");
  ServeOptions options = SmallServeOptions(socket);
  options.slow_query_ms = 0.001;  // everything qualifies
  options.slow_query_log = log_path;
  ProcessHandle daemon(options, "");

  Result<ServeClient> client = ConnectTraced(socket);
  ASSERT_TRUE(client.ok()) << client.status();
  Result<QueryResponse> r = client->Call(CellRequest("DTMatcher"));
  ASSERT_TRUE(r.ok()) << r.status();
  ASSERT_TRUE(r->status.ok()) << r->status;
  const std::string trace_hex = client->last_trace().TraceIdHex();

  // The line is written before the response is flushed, so it is durable
  // by the time the client has the answer.
  Result<std::string> text = ReadFileToString(log_path);
  ASSERT_TRUE(text.ok()) << text.status();
  TraceTopSummary summary = SummarizeSlowLog(*text);
  EXPECT_EQ(summary.skipped_lines, 0u);
  ASSERT_GE(summary.events, 1u);
  EXPECT_EQ(summary.slowest_trace_id, trace_hex);
  EXPECT_FALSE(summary.slowest_spans.empty());
  EXPECT_GE(summary.hops.count("worker.compute"), 1u);

  EXPECT_EQ(WEXITSTATUS(daemon.Stop()), 0);
  ::unlink(log_path.c_str());
}

TEST(TraceE2eChaosTest, ChaosFailoverTraceStaysConnectedWithFailoverSpans) {
  IgnoreSigpipe();
  const std::string backend_a = FreshPath("trace_chaos_a", ".sock");
  const std::string backend_b = FreshPath("trace_chaos_b", ".sock");
  const std::string front = FreshPath("trace_chaos_front", ".sock");
  // Chaos lane exports FAIREM_FAILPOINTS, which the forked backends
  // self-arm from on first use; standalone runs stay crash-free — the
  // SIGKILL below is the chaos either way.
  const std::string spec;
  ServeOptions serve_a = SmallServeOptions(backend_a);
  ServeOptions serve_b = SmallServeOptions(backend_b);
  serve_a.max_attempts = serve_b.max_attempts = 3;
  ProcessHandle a(serve_a, spec);
  ProcessHandle b(serve_b, spec);
  ProcessHandle router(SmallRouteOptions(front, {backend_a, backend_b}));

  Result<ServeClient> client = ConnectTraced(front);
  ASSERT_TRUE(client.ok()) << client.status();
  RetryPolicy retry;
  retry.max_attempts = 5;
  retry.initial_backoff_seconds = 0.02;
  Result<QueryResponse> warm =
      client->CallWithRetry(CellRequest("DTMatcher", 30.0), retry);
  ASSERT_TRUE(warm.ok()) << warm.status();
  ASSERT_TRUE(warm->status.ok()) << warm->status;

  // Kill one shard, then sweep keys until one whose primary was the corpse
  // comes back with a failover span in its trace. 16 independent keys make
  // "the dead backend owned none" vanishingly unlikely.
  a.Kill();
  const char* matchers[] = {"DTMatcher",     "NBMatcher",
                            "SVMMatcher",    "LogRegMatcher",
                            "RFMatcher",     "LinRegMatcher",
                            "BooleanRuleMatcher", "Dedupe"};
  bool failover_seen = false;
  for (const char* matcher : matchers) {
    for (const char* mode : {"single", "pairwise"}) {
      QueryRequest request = CellRequest(matcher, 30.0);
      request.mode = mode;
      Result<QueryResponse> r = client->CallWithRetry(request, retry);
      if (!client->connected()) {
        Result<ServeClient> fresh = ConnectTraced(front);
        ASSERT_TRUE(fresh.ok()) << fresh.status();
        *client = std::move(*fresh);
      }
      if (!r.ok() || !r->status.ok()) continue;  // chaos lane: retried out
      const std::vector<WireSpan> spans = client->last_spans();
      // Every successful traced answer — failover, hedge, worker respawn,
      // whatever path it took — must still be one connected timeline with
      // spans from >= 3 processes.
      AssertConnected(spans);
      const std::set<std::string> procs = ProcessesOf(spans);
      EXPECT_GE(procs.size(), 3u) << matcher;
      EXPECT_EQ(procs.count("router"), 1u) << matcher;
      EXPECT_EQ(procs.count("daemon"), 1u) << matcher;
      if (NamesOf(spans).count("router.failover") != 0) {
        failover_seen = true;
        // The failover span names the backend it abandoned.
        for (const WireSpan& span : spans) {
          if (span.name != "router.failover") continue;
          bool named = false;
          for (const auto& [key, value] : span.annotations) {
            named = named || (key == "from_backend" && !value.empty());
          }
          EXPECT_TRUE(named) << "failover span without from_backend";
        }
      }
    }
  }
  EXPECT_TRUE(failover_seen)
      << "no failover span in any trace across 16 keys after a SIGKILL";

  int status = router.Stop();
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
  EXPECT_EQ(WEXITSTATUS(b.Stop()), 0);
}

}  // namespace
}  // namespace fairem
