// The audit benchmark: three workloads against libfairem's public API.
//
//   paper_grid    DBLP-ACM at scale 1, all 13 matchers, single then
//                 pairwise grid under the supervised executor (2 workers).
//   feature_grid  DBLP-Scholar at scale 32, the 8 rule and non-neural
//                 matchers, in-process with a 4-thread intra-cell pool.
//   serve_fleet   a router in front of 2 serve daemons, all forked; 3
//                 closed-loop connections fill the cold cache with all 52
//                 cell keys, then read them back as cache hits.
//
// Usage: auditbench --workload W --seed N --seconds S --trace 0|1
//        auditbench --selftest
//
// The last line of stdout is one JSON object: correct, attempted, failed
// and the metrics (end-to-end ones with --trace 0, per-layer ones with
// --trace 1). Every run also checks the outputs against independent
// recomputation (checks.h). Spans come only from this file's calls into
// the library; the library's own tracing stays off.

#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <iostream>
#include <map>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "auditbench/checks.h"
#include "auditbench/spans.h"
#include "src/core/confusion.h"
#include "src/datagen/benchmark_suite.h"
#include "src/embed/subword_embedding.h"
#include "src/feature/feature_gen.h"
#include "src/harness/experiment.h"
#include "src/matcher/matcher.h"
#include "src/matcher/serialize.h"
#include "src/nn/gru.h"
#include "src/obs/log.h"
#include "src/obs/metrics.h"
#include "src/report/grid.h"
#include "src/robust/checkpoint.h"
#include "src/route/router.h"
#include "src/serve/client.h"
#include "src/serve/server.h"
#include "src/util/io_util.h"
#include "src/util/json.h"
#include "src/util/rng.h"
#include "src/util/thread_pool.h"

namespace auditbench {
namespace {

using fairem::AuditReport;
using fairem::DatasetKind;
using fairem::EMDataset;
using fairem::GridCellCheckpoint;
using fairem::GridRunOptions;
using fairem::MatcherKind;
using fairem::MetricsRegistry;

// F1 floors of supported matchers on the grid workloads (README: "F1
// floor"). Learned matchers reach 0.84 or more on both datasets. The
// hand-written rule matcher scores 0.03-0.06 on DBLP-Scholar, so its floor
// only rejects a matcher that finds no match at all.
constexpr double kF1Floor = 0.5;
constexpr double kRuleF1Floor = 0.02;
// Set-up is repeated at least this often and for at least this long, and
// setup_s is the median.
constexpr size_t kMinSetups = 3;
constexpr double kSetupSeconds = 1.0;
// Golden-ratio multiplier RunMatcher uses to derive a per-matcher seed.
constexpr uint64_t kSeedMix = 0x9e3779b97f4a7c15ULL;
// Grid hot phase: hits, each the single and the pairwise report answered
// entirely from the checkpoint store.
constexpr int kGridHits = 1000;
// serve_fleet shape.
constexpr int kConnections = 3;
constexpr int kHitsPerConnection = 1000;
const char* const kServeDatasets[] = {"Cricket", "FacultyMatch"};
const char* const kBackends[] = {"b0.sock", "b1.sock"};
constexpr char kRouterSocket[] = "r.sock";
// In-process RunAuditCell comparisons per serve_fleet run (seeded keys).
constexpr int kServeVerifiedKeys = 4;
// Base seed of the cold-phase request orders.
constexpr uint64_t kColdOrderSeed = 20230817;
// Set-up-only fleet cycles per serve_fleet run, besides the rounds.
constexpr int kExtraFleetSetups = 4;
// Nominal length of one fleet round (fork, cold fill, hot reads, drain);
// a serve_fleet run makes ceil(seconds / this) rounds, at least two.
constexpr double kFleetRoundSeconds = 4.0;

// ---------------------------------------------------------------------------
// Run result

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

class Outcome {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
  }
  /// Records a failed check; an empty message means the check passed.
  /// Client threads of serve_fleet call this concurrently.
  void Check(const std::string& where, const std::string& message) {
    if (message.empty()) return;
    std::lock_guard<std::mutex> lock(mu_);
    correct_ = false;
    std::cerr << "CHECK FAILED [" << where << "]: " << message << "\n";
  }
  void Attempt(int64_t n, int64_t failed) {
    attempted_ += n;
    failed_ += failed;
  }
  std::string Json() const {
    std::ostringstream out;
    out << "{\"correct\": " << (correct_ ? "true" : "false")
        << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
        << ", \"metrics\": {";
    for (size_t i = 0; i < metrics_.size(); ++i) {
      char value[64];
      std::snprintf(value, sizeof(value), "%.12g", metrics_[i].value);
      out << (i == 0 ? "" : ", ") << "\"" << metrics_[i].name
          << "\": {\"value\": " << value << ", \"unit\": \""
          << metrics_[i].unit << "\"}";
    }
    out << "}}";
    return out.str();
  }

 private:
  std::mutex mu_;
  bool correct_ = true;  // guarded by mu_ while client threads run
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  std::vector<Metric> metrics_;
};

// ---------------------------------------------------------------------------
// Small helpers

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile, q in (0, 1].
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size(), std::max<size_t>(rank, 1)) - 1];
}

struct Usage {
  double cpu_s = 0.0;      // user + system, this process and reaped children
  double peak_rss_mb = 0;  // largest resident set among them
};

/// This process's resident high-water mark in KiB. RUSAGE_SELF's
/// ru_maxrss is not used: Linux carries it across execve, so it would
/// report the launcher's footprint whenever that is larger.
long SelfPeakRssKiB() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtol(line.c_str() + 6, nullptr, 10);
  }
  rusage self{};
  getrusage(RUSAGE_SELF, &self);
  return self.ru_maxrss;
}

Usage ReadUsage() {
  rusage self{}, children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  auto secs = [](const timeval& t) { return t.tv_sec + t.tv_usec * 1e-6; };
  Usage u;
  u.cpu_s = secs(self.ru_utime) + secs(self.ru_stime) +
            secs(children.ru_utime) + secs(children.ru_stime);
  u.peak_rss_mb =
      static_cast<double>(std::max(SelfPeakRssKiB(), children.ru_maxrss)) /
      1024.0;
  return u;
}

double CounterValue(const std::string& name) {
  return static_cast<double>(
      MetricsRegistry::Global().GetCounter(name)->value());
}
double HistCount(const std::string& name) {
  return static_cast<double>(
      MetricsRegistry::Global().GetHistogram(name)->count());
}
double HistSum(const std::string& name) {
  return MetricsRegistry::Global().GetHistogram(name)->sum();
}

/// Every per-layer metric, in print order, with its unit. Workloads fill
/// the ones they exercise; the rest print as 0.
std::vector<std::pair<std::string, std::string>> PerLayerNames() {
  std::vector<std::pair<std::string, std::string>> names = {
      {"datagen.generate_s", "s"},
      {"text.prepared_builds", "count"},
      {"text.prepared_hit_ratio", "ratio"},
      {"feature.build_s", "s"},
      {"feature.values_per_s", "1/s"},
      {"feature.rebuild_ratio", "ratio"},
      {"util.pool_tasks_per_build", "count"},
      {"util.pool_queue_wait_s", "s"},
      {"util.pool_speedup", "ratio"},
  };
  for (MatcherKind kind : fairem::AllMatcherKinds()) {
    const std::string name = fairem::MatcherKindName(kind);
    names.push_back({"matcher." + name + ".fit_s", "s"});
    names.push_back({"matcher." + name + ".predict_s", "s"});
  }
  const std::vector<std::pair<std::string, std::string>> tail = {
      {"matcher.fits_per_model", "ratio"},
      {"embed.us_per_token", "us"},
      {"embed.cosine_ns", "ns"},
      {"nn.gru_step_us", "us"},
      {"core.audit_s", "s"},
      {"report.render_s", "s"},
      {"robust.workers_spawned", "count"},
      {"robust.worker_overhead_s", "s"},
      {"robust.schedule_efficiency", "ratio"},
      {"robust.replay_p50_ms", "ms"},
      {"robust.replay_p99_ms", "ms"},
      {"robust.replays_per_s", "1/s"},
      {"serve.computes_per_key", "ratio"},
      {"serve.queue_wait_p50_ms", "ms"},
      {"serve.worker_fork_ms", "ms"},
      {"serve.worker_compute_s", "s"},
      {"serve.hit_direct_p50_ms", "ms"},
      {"route.hit_p50_ms", "ms"},
      {"route.hit_p99_ms", "ms"},
      {"route.hits_per_s", "1/s"},
      {"route.hop_p50_ms", "ms"},
      {"route.backend_connects_per_query", "ratio"},
      {"route.hedges_started", "count"},
      {"route.hedges_lost", "count"},
      {"trace.overhead_s", "s"},
  };
  names.insert(names.end(), tail.begin(), tail.end());
  return names;
}

void EmitPerLayer(const std::map<std::string, double>& layer, Outcome* out) {
  for (const auto& [name, unit] : PerLayerNames()) {
    auto it = layer.find(name);
    out->Add(name, it == layer.end() ? 0.0 : it->second, unit);
  }
  for (const auto& [name, value] : layer) {
    bool known = false;
    for (const auto& [n, u] : PerLayerNames()) known = known || n == name;
    if (!known) std::cerr << "internal: unlisted per-layer metric " << name << "\n";
  }
}

/// The end-to-end metrics. Hit latency and throughput are not among them:
/// sub-millisecond hits swing by a third between runs on a shared host, so
/// they are per-layer figures of the traced run (README: "Dropped").
void EmitEndToEnd(double setup_s, double audit_s, double cpu_s,
                  double peak_rss_mb, Outcome* out) {
  out->Add("setup_s", setup_s, "s");
  out->Add("audit_s", audit_s, "s");
  out->Add("cpu_s", cpu_s, "s");
  out->Add("peak_rss_mb", peak_rss_mb, "MiB");
}

/// Hit latency percentiles and throughput under `prefix`.
void AddHitFigures(const std::string& prefix, const std::vector<double>& hit_ms,
                   double hits_per_s, std::map<std::string, double>* layer) {
  (*layer)[prefix + "_p50_ms"] = Percentile(hit_ms, 0.50);
  (*layer)[prefix + "_p99_ms"] = Percentile(hit_ms, 0.99);
  (*layer)[prefix + "s_per_s"] = hits_per_s;
}

/// Distinct tokens of the matching attributes, as the neural encoders see
/// them, capped at `cap`.
std::vector<std::string> DistinctTokens(const EMDataset& dataset, size_t cap) {
  std::set<std::string> seen;
  std::vector<std::string> tokens;
  for (const fairem::Table* table : {&dataset.table_a, &dataset.table_b}) {
    for (size_t r = 0; r < table->num_rows() && tokens.size() < cap; ++r) {
      auto per_attr = fairem::PerAttributeTokens(*table, r,
                                                 dataset.matching_attrs);
      if (!per_attr.ok()) continue;
      for (const auto& attr_tokens : *per_attr) {
        for (const std::string& tok : attr_tokens) {
          if (tokens.size() < cap && seen.insert(tok).second) {
            tokens.push_back(tok);
          }
        }
      }
    }
  }
  return tokens;
}

/// embed.us_per_token, embed.cosine_ns and nn.gru_step_us over the
/// dataset's distinct tokens with the neural matchers' default options
/// (32-d subword embedding, DeepMatcher's 24-d GRU).
void MeasureEmbedding(const EMDataset& dataset, SpanRecorder* rec,
                      std::map<std::string, double>* layer) {
  std::vector<std::string> tokens = DistinctTokens(dataset, 4000);
  if (tokens.size() < 2) return;
  fairem::SubwordEmbedding embedding;
  std::vector<std::vector<float>> vecs;
  vecs.reserve(tokens.size());
  double t0 = NowSeconds();
  {
    SpanRecorder::Scope span(rec, "embed.embed", "distinct tokens");
    for (const std::string& tok : tokens) vecs.push_back(embedding.Embed(tok));
  }
  (*layer)["embed.us_per_token"] =
      (NowSeconds() - t0) * 1e6 / static_cast<double>(tokens.size());

  double sink = 0.0;
  size_t calls = 0;
  t0 = NowSeconds();
  {
    SpanRecorder::Scope span(rec, "embed.cosine", "adjacent token pairs");
    for (int rep = 0; rep < 20; ++rep) {
      for (size_t i = 0; i + 1 < vecs.size(); ++i) {
        sink += fairem::SubwordEmbedding::Cosine(vecs[i], vecs[i + 1]);
        ++calls;
      }
    }
  }
  (*layer)["embed.cosine_ns"] =
      (NowSeconds() - t0) * 1e9 / static_cast<double>(calls);

  fairem::Rng rng(7);
  fairem::nn::GruCell gru(embedding.dim(), 24, &rng);
  fairem::nn::Vec h(24, 0.0f);
  t0 = NowSeconds();
  {
    SpanRecorder::Scope span(rec, "nn.gru_step", "one step per token");
    for (const auto& v : vecs) h = gru.Step(v, h);
  }
  (*layer)["nn.gru_step_us"] =
      (NowSeconds() - t0) * 1e6 / static_cast<double>(vecs.size());
  if (!std::isfinite(sink + h[0])) std::cerr << "auditbench: non-finite sink\n";
}

// ---------------------------------------------------------------------------
// Grid workloads

struct GridConfig {
  DatasetKind kind;
  double scale;
  bool neural;  // false skips the five neural matchers
  int jobs;
  int intra_jobs;
};

struct CellResult {
  GridCellCheckpoint single;
  GridCellCheckpoint pairwise;
  bool built_train_table = false;
  bool built_test_table = false;
};

GridCellCheckpoint CellFromReport(const std::string& name,
                                  const AuditReport& report) {
  GridCellCheckpoint cell;
  cell.matcher = name;
  cell.marker = fairem::MatcherMarker(name);
  for (const auto& entry : report.entries) {
    cell.marks.push_back({entry.group_label,
                          fairem::FairnessMeasureName(entry.measure),
                          entry.unfair});
  }
  return cell;
}

std::string RenderGrid(const std::vector<GridCellCheckpoint>& cells) {
  fairem::UnfairnessGrid grid;
  for (const GridCellCheckpoint& cell : cells) {
    for (const auto& mark : cell.marks) {
      auto measure = fairem::ParseFairnessMeasure(mark.measure);
      if (measure.ok()) grid.MarkCell(cell.marker, mark.group, *measure, mark.unfair);
    }
  }
  return grid.Render();
}

/// One sequential pass over every cell through the library's matcher,
/// core and report calls, with every correctness check. Fills `single`
/// and `pairwise` with the rendered reports and `cells` with the
/// checkpointable cells. Returns the pass's wall time.
double VerifyCells(const EMDataset& dataset, const std::vector<MatcherKind>& kinds,
                   const GridRunOptions& options, SpanRecorder* rec,
                   Outcome* out, std::string* single, std::string* pairwise,
                   std::vector<CellResult>* cells) {
  const double t0 = NowSeconds();
  GroupIndex index;
  std::string error;
  if (!GroupIndex::Build(dataset, &index, &error)) {
    out->Check("groups", error);
    return 0.0;
  }
  auto auditor = fairem::MakeAuditor(dataset);
  if (!auditor.ok()) {
    out->Check("auditor", auditor.status().ToString());
    return 0.0;
  }
  cells->clear();
  for (size_t id = 0; id < kinds.size(); ++id) {
    const MatcherKind kind = kinds[id];
    const std::string name = fairem::MatcherKindName(kind);
    SpanRecorder::Scope cell_span(rec, "harness.cell", name,
                                  static_cast<int64_t>(id));
    CellResult result;
    std::unique_ptr<fairem::Matcher> matcher = fairem::CreateMatcher(kind);
    if (!matcher->SupportsDataset(dataset)) {
      result.single.matcher = result.pairwise.matcher = name;
      result.single.marker = result.pairwise.marker = fairem::MatcherMarker(name);
      result.single.supported = result.pairwise.supported = false;
      cells->push_back(result);
      continue;
    }
    const double tables0 = HistCount("fairem.feature.build_table_seconds");
    fairem::Rng rng(options.seed ^ (static_cast<uint64_t>(kind) * kSeedMix));
    fairem::Status fit;
    {
      SpanRecorder::Scope span(rec, "matcher.fit", name, static_cast<int64_t>(id));
      fit = matcher->Fit(dataset, &rng);
    }
    const double tables1 = HistCount("fairem.feature.build_table_seconds");
    if (!fit.ok()) {
      out->Check(name + " fit", fit.ToString());
      continue;
    }
    fairem::Result<std::vector<double>> scores = std::vector<double>{};
    {
      SpanRecorder::Scope span(rec, "matcher.predict", name,
                               static_cast<int64_t>(id));
      scores = matcher->PredictScores(dataset, dataset.test);
    }
    result.built_train_table = tables1 > tables0;
    result.built_test_table =
        HistCount("fairem.feature.build_table_seconds") > tables1;
    if (!scores.ok()) {
      out->Check(name + " predict", scores.status().ToString());
      continue;
    }
    const std::string bad_scores = CheckScores(dataset, *scores);
    out->Check(name + " scores", bad_scores);
    if (!bad_scores.empty()) continue;

    fairem::MatcherRun run;
    run.matcher_name = name;
    run.kind = kind;
    run.test_scores = *scores;
    auto outcomes = fairem::MakeOutcomes(dataset.test, run.test_scores,
                                         dataset.default_threshold);
    if (!outcomes.ok()) {
      out->Check(name + " outcomes", outcomes.status().ToString());
      continue;
    }
    run.counts = fairem::OverallCounts(*outcomes);
    auto breakdown = fairem::GroupBreakdown(dataset, run);
    fairem::Result<AuditReport> single_report = AuditReport{};
    fairem::Result<AuditReport> pair_report = AuditReport{};
    {
      SpanRecorder::Scope span(rec, "core.audit", name, static_cast<int64_t>(id));
      single_report = auditor->AuditSingle(*outcomes, options.audit);
      pair_report = auditor->AuditPairwise(*outcomes, options.audit);
    }
    if (!breakdown.ok() || !single_report.ok() || !pair_report.ok()) {
      out->Check(name + " audit", "library audit call failed");
      continue;
    }
    {
      SpanRecorder::Scope span(rec, "bench.check", name, static_cast<int64_t>(id));
      out->Check(name + " counts", CheckCounts(dataset, index, *scores,
                                               run.counts, *breakdown));
      out->Check(name + " single parity",
                 CheckParity(dataset, index, *scores, *single_report, false,
                             options.audit));
      out->Check(name + " pairwise parity",
                 CheckParity(dataset, index, *scores, *pair_report, true,
                             options.audit));
      const double floor =
          fairem::FamilyOf(kind) == fairem::MatcherFamily::kRuleBased
              ? kRuleF1Floor
              : kF1Floor;
      out->Check(name + " f1", CheckF1(dataset, *scores, run.counts, floor));
    }
    result.single = CellFromReport(name, *single_report);
    result.pairwise = CellFromReport(name, *pair_report);
    cells->push_back(result);
  }
  {
    SpanRecorder::Scope span(rec, "report.render", "single+pairwise");
    std::vector<GridCellCheckpoint> s, p;
    for (const CellResult& c : *cells) {
      s.push_back(c.single);
      p.push_back(c.pairwise);
    }
    *single = RenderGrid(s);
    *pairwise = RenderGrid(p);
  }
  return NowSeconds() - t0;
}

/// Builds the train and test feature tables directly at 1 and 4 pool
/// threads: feature.build_s (at the workload's pool size),
/// feature.values_per_s, util.pool_tasks_per_build,
/// util.pool_queue_wait_s and util.pool_speedup.
void MeasureFeatureBuilds(const EMDataset& dataset, int intra_jobs,
                          SpanRecorder* rec,
                          std::map<std::string, double>* layer) {
  auto defs = fairem::GenerateFeatures(dataset.table_a, dataset.table_b,
                                       dataset.matching_attrs);
  if (!defs.ok() || defs->empty()) return;
  double values = 0.0;
  std::map<int, double> wall;
  for (int threads : {1, 4}) {
    fairem::SetIntraJobs(threads);
    const double tasks0 = CounterValue("fairem.pool.tasks");
    const double wait0 = HistSum("fairem.pool.queue_wait_seconds");
    const double t0 = NowSeconds();
    values = 0.0;
    {
      SpanRecorder::Scope span(rec, "feature.build",
                               std::to_string(threads) + " threads");
      for (const auto* pairs : {&dataset.train, &dataset.test}) {
        auto table = fairem::BuildFeatureTable(*defs, dataset.table_a,
                                               dataset.table_b, *pairs);
        if (table.ok()) {
          values += static_cast<double>(table->rows.size() * defs->size());
        }
      }
    }
    wall[threads] = NowSeconds() - t0;
    if (threads == 4) {
      (*layer)["util.pool_tasks_per_build"] =
          (CounterValue("fairem.pool.tasks") - tasks0) / 2.0;
      (*layer)["util.pool_queue_wait_s"] =
          HistSum("fairem.pool.queue_wait_seconds") - wait0;
    }
  }
  fairem::SetIntraJobs(intra_jobs);
  const double build_s = wall[intra_jobs >= 4 ? 4 : 1];
  (*layer)["feature.build_s"] = build_s;
  (*layer)["feature.values_per_s"] = build_s > 0.0 ? values / build_s : 0.0;
  (*layer)["util.pool_speedup"] = wall[4] > 0.0 ? wall[1] / wall[4] : 0.0;
}

int RunGrid(const GridConfig& config, uint64_t seed, double seconds,
            bool trace, const std::string& workdir, SpanRecorder* rec,
            Outcome* out) {
  std::map<std::string, double> layer;
  // Set-up: dataset generation, repeated for a median.
  std::vector<double> setup_times;
  fairem::Result<EMDataset> dataset = EMDataset{};
  const double setup_start = NowSeconds();
  while (setup_times.empty() ||
         (!trace && (setup_times.size() < kMinSetups ||
                     NowSeconds() - setup_start < kSetupSeconds))) {
    const double t0 = NowSeconds();
    {
      SpanRecorder::Scope span(rec, "datagen.generate",
                               fairem::DatasetKindName(config.kind));
      dataset = fairem::GenerateDataset(config.kind, config.scale, seed);
    }
    setup_times.push_back(NowSeconds() - t0);
    if (!dataset.ok()) {
      std::cerr << "dataset generation failed: " << dataset.status() << "\n";
      return 1;
    }
  }
  layer["datagen.generate_s"] = Median(setup_times);

  GridRunOptions options;
  options.audit.reference = fairem::AuditReference::kComplement;
  options.jobs = config.jobs;
  options.intra_jobs = config.intra_jobs;
  std::vector<MatcherKind> kinds;
  for (MatcherKind kind : fairem::AllMatcherKinds()) {
    if (!config.neural && fairem::FamilyOf(kind) == fairem::MatcherFamily::kNeural) {
      options.skip.push_back(kind);
    } else {
      kinds.push_back(kind);
    }
  }
  const int64_t cells_per_round = 2 * static_cast<int64_t>(kinds.size());

  // Timed section: whole rounds of the single then pairwise grid.
  std::vector<double> audit_times, cpu_times;
  std::string single, pairwise;
  const double start = NowSeconds();
  std::map<std::string, double> before, after;
  const char* kRoundCounters[] = {
      "fairem.prepared.builds", "fairem.prepared.cache_hits",
      "fairem.supervisor.workers_spawned", "fairem.robust.grid_error_cells",
      "fairem.harness.matcher_runs"};
  auto snapshot = [&](std::map<std::string, double>* m) {
    for (const char* c : kRoundCounters) (*m)[c] = CounterValue(c);
    (*m)["tables"] = HistCount("fairem.feature.build_table_seconds");
    (*m)["fits"] = HistCount("fairem.matcher.fit_seconds");
    (*m)["task_wall"] = HistSum("fairem.supervisor.task_wall_seconds");
  };
  while (audit_times.empty() || (!trace && NowSeconds() - start < seconds)) {
    snapshot(&before);
    const Usage u0 = ReadUsage();
    const double t0 = NowSeconds();
    fairem::Result<std::string> s = std::string();
    fairem::Result<std::string> p = std::string();
    {
      SpanRecorder::Scope span(rec, "harness.grid", "single+pairwise");
      s = fairem::UnfairnessGridReport(*dataset, false, options);
      p = fairem::UnfairnessGridReport(*dataset, true, options);
    }
    audit_times.push_back(NowSeconds() - t0);
    cpu_times.push_back(ReadUsage().cpu_s - u0.cpu_s);
    std::cerr << "auditbench: grid round " << audit_times.size() - 1 << " audit "
              << audit_times.back() << " s, cpu " << cpu_times.back() << " s\n";
    snapshot(&after);
    const double errors = after["fairem.robust.grid_error_cells"] -
                          before["fairem.robust.grid_error_cells"];
    out->Attempt(cells_per_round, static_cast<int64_t>(errors));
    if (!s.ok() || !p.ok()) {
      out->Check("grid", "grid report call failed");
      return 1;
    }
    if (single.empty() && pairwise.empty()) {
      single = *s;
      pairwise = *p;
    }
    out->Check("grid repeat", CheckSameBytes("single report", single, *s));
    out->Check("grid repeat", CheckSameBytes("pairwise report", pairwise, *p));
  }
  const double peak_rss_mb = ReadUsage().peak_rss_mb;
  auto delta = [&](const std::string& k) { return after[k] - before[k]; };

  // Every cell again, sequentially through the library's own calls, with
  // the independent checks; its rendering must equal the grid's bytes.
  // The traced run makes the pass twice, untraced then traced, and the
  // difference is the tracing overhead.
  std::vector<CellResult> cells;
  std::string v_single, v_pairwise;
  double untraced_wall = 0.0;
  if (trace) {
    rec->Enable(false);
    untraced_wall = VerifyCells(*dataset, kinds, options, rec, out, &v_single,
                                &v_pairwise, &cells);
    rec->Enable(true);
  }
  const double verify_wall = VerifyCells(*dataset, kinds, options, rec, out,
                                         &v_single, &v_pairwise, &cells);
  out->Check("parallel vs sequential",
             CheckSameBytes("single report", v_single, single));
  out->Check("parallel vs sequential",
             CheckSameBytes("pairwise report", v_pairwise, pairwise));

  // Hot phase: the grid reports answered from the checkpoint store.
  const std::string store_dir = workdir + "/cells";
  std::filesystem::remove_all(store_dir);
  fairem::CheckpointStore store(store_dir);
  for (size_t i = 0; i < cells.size(); ++i) {
    for (bool pw : {false, true}) {
      const GridCellCheckpoint& cell = pw ? cells[i].pairwise : cells[i].single;
      fairem::Status st = store.Save(
          fairem::AuditCellKey(dataset->name, kinds[i], pw),
          fairem::GridCellToJson(cell));
      out->Check("checkpoint save", st.ok() ? "" : st.ToString());
    }
  }
  GridRunOptions hit_options = options;
  hit_options.checkpoint_dir = store_dir;
  std::vector<double> hit_ms;
  const double fits0 = HistCount("fairem.matcher.fit_seconds");
  const double loaded0 = CounterValue("fairem.robust.checkpoint_cells_loaded");
  const double hot0 = NowSeconds();
  int64_t hit_failures = 0;
  for (int i = 0; i < kGridHits; ++i) {
    const double t0 = NowSeconds();
    auto s = fairem::UnfairnessGridReport(*dataset, false, hit_options);
    auto p = fairem::UnfairnessGridReport(*dataset, true, hit_options);
    hit_ms.push_back((NowSeconds() - t0) * 1e3);
    if (!s.ok() || !p.ok()) {
      ++hit_failures;
      continue;
    }
    out->Check("hit", CheckSameBytes("replayed single report", single, *s));
    out->Check("hit", CheckSameBytes("replayed pairwise report", pairwise, *p));
  }
  const double hot_wall = NowSeconds() - hot0;
  out->Attempt(kGridHits, hit_failures);
  out->Check("hit", HistCount("fairem.matcher.fit_seconds") == fits0
                        ? ""
                        : "a hit refitted a matcher");
  out->Check("hit", CounterValue("fairem.robust.checkpoint_cells_loaded") -
                                loaded0 ==
                            static_cast<double>(cells_per_round * kGridHits)
                        ? ""
                        : "a hit did not replay every cell from the store");

  if (!trace) {
    EmitEndToEnd(Median(setup_times), Median(audit_times), Median(cpu_times),
                 peak_rss_mb, out);
    return 0;
  }
  AddHitFigures("robust.replay", hit_ms, kGridHits / hot_wall, &layer);

  // Per-layer metrics of the traced run.
  const double builds = delta("fairem.prepared.builds");
  const double cache_hits = delta("fairem.prepared.cache_hits");
  layer["text.prepared_builds"] = builds;
  layer["text.prepared_hit_ratio"] =
      builds + cache_hits > 0 ? cache_hits / (builds + cache_hits) : 0.0;
  std::set<std::string> distinct_tables;
  size_t models = 0;
  for (const CellResult& c : cells) {
    if (c.built_train_table) distinct_tables.insert("train");
    if (c.built_test_table) distinct_tables.insert("test");
    if (c.single.supported) ++models;
  }
  layer["feature.rebuild_ratio"] =
      distinct_tables.empty() ? 0.0
                              : delta("tables") / distinct_tables.size();
  layer["matcher.fits_per_model"] =
      models > 0 ? delta("fits") / static_cast<double>(models) : 0.0;
  double cell_compute = 0.0;
  for (MatcherKind kind : kinds) {
    const std::string name = fairem::MatcherKindName(kind);
    const double fit = rec->TotalSeconds("matcher.fit", name);
    const double predict = rec->TotalSeconds("matcher.predict", name);
    layer["matcher." + name + ".fit_s"] = fit;
    layer["matcher." + name + ".predict_s"] = predict;
    // The grid audits each mode in its own cell: fit + predict + audit.
    cell_compute += 2.0 * (fit + predict) + rec->TotalSeconds("core.audit", name);
  }
  layer["core.audit_s"] = rec->TotalSeconds("core.audit");
  layer["report.render_s"] = rec->TotalSeconds("report.render");
  const double task_wall = delta("task_wall");
  layer["robust.workers_spawned"] = delta("fairem.supervisor.workers_spawned");
  layer["robust.worker_overhead_s"] = task_wall > 0 ? task_wall - cell_compute : 0.0;
  layer["robust.schedule_efficiency"] =
      task_wall > 0 ? task_wall / (config.jobs * audit_times.front()) : 0.0;
  MeasureFeatureBuilds(*dataset, config.intra_jobs, rec, &layer);
  MeasureEmbedding(*dataset, rec, &layer);
  layer["trace.overhead_s"] = verify_wall - untraced_wall;
  EmitPerLayer(layer, out);
  return 0;
}

// ---------------------------------------------------------------------------
// serve_fleet

struct CellKey {
  std::string dataset;
  std::string matcher;
  MatcherKind kind;
  bool pairwise;
  std::string key;  // the router's "<dataset>.<mode>.<matcher>"
};

std::vector<CellKey> ServeKeys() {
  std::vector<CellKey> keys;
  for (const char* dataset : kServeDatasets) {
    for (bool pw : {false, true}) {
      for (MatcherKind kind : fairem::AllMatcherKinds()) {
        CellKey k;
        k.dataset = dataset;
        k.matcher = fairem::MatcherKindName(kind);
        k.kind = kind;
        k.pairwise = pw;
        k.key = fairem::AuditCellKey(dataset, kind, pw);
        keys.push_back(k);
      }
    }
  }
  return keys;
}

fairem::QueryRequest CellRequest(const CellKey& key) {
  fairem::QueryRequest request;
  request.op = "cell";
  request.dataset = key.dataset;
  request.matcher = key.matcher;
  request.mode = key.pairwise ? "pairwise" : "single";
  request.deadline_s = 60.0;
  return request;
}

pid_t ForkDaemon(const fairem::ServeOptions& options) {
  pid_t pid = ::fork();
  if (pid == 0) {
    fairem::Status st = fairem::RunServeDaemon(options);
    ::_exit(st.ok() ? 0 : 1);
  }
  return pid;
}

pid_t ForkRouter(const fairem::RouteOptions& options) {
  pid_t pid = ::fork();
  if (pid == 0) {
    fairem::Status st = fairem::RunRouteDaemon(options);
    ::_exit(st.ok() ? 0 : 1);
  }
  return pid;
}

/// SIGTERM, then wait up to 30 s for a clean exit (SIGKILL past that).
bool Terminate(pid_t pid) {
  if (pid <= 0) return false;
  ::kill(pid, SIGTERM);
  for (int i = 0; i < 3000; ++i) {
    int status = 0;
    pid_t got = ::waitpid(pid, &status, WNOHANG);
    if (got == pid) return WIFEXITED(status) && WEXITSTATUS(status) == 0;
    ::usleep(10 * 1000);
  }
  ::kill(pid, SIGKILL);
  ::waitpid(pid, nullptr, 0);
  return false;
}

fairem::Result<fairem::ServeClient> Connect(const std::string& path,
                                            bool trace = false) {
  fairem::ServeClientOptions options;
  options.io_timeout_s = 60.0;
  options.connect_timeout_s = 60.0;
  options.trace = trace;
  return fairem::ServeClient::Connect(path, options);
}

/// One value from a "stats" snapshot ({"counters": {...}, "gauges": {...}});
/// -1 when the call or the lookup fails.
double Stat(fairem::ServeClient* client, const std::string& section,
            const std::string& name) {
  fairem::QueryRequest request;
  request.op = "stats";
  auto response = client->Call(request);
  if (!response.ok() || !response->status.ok()) return -1.0;
  auto doc = fairem::JsonParse(response->payload);
  if (!doc.ok()) return -1.0;
  const fairem::JsonValue* sec = fairem::JsonFind(*doc, section);
  const fairem::JsonValue* value = sec ? fairem::JsonFind(*sec, name) : nullptr;
  if (value == nullptr) return -1.0;
  auto d = fairem::JsonAsDouble(*value, name);
  return d.ok() ? *d : -1.0;
}

struct RoundResult {
  double setup_s = 0.0;
  double cold_s = 0.0;
  double hot_s = 0.0;
  double cpu_s = 0.0;
  int64_t hits = 0;
  std::vector<double> hit_ms;
};

class Fleet {
 public:
  Fleet(uint64_t seed, const std::vector<CellKey>& keys, SpanRecorder* rec,
        Outcome* out)
      : seed_(seed), keys_(keys), rec_(rec), out_(out) {}

  /// The routed cold answer of every key (from the first fleet round).
  const std::map<std::string, std::string>& answers() const { return answers_; }

  /// One fleet lifetime: fork, cold fill, hot reads, drain. With `traced`,
  /// also the per-layer probes of the serve and route layers.
  /// With `setup_only`, the fleet is drained right after it is ready.
  bool Round(int round, bool traced, bool setup_only, RoundResult* result,
             std::map<std::string, double>* layer) {
    for (const char* path : kBackends) ::unlink(path);
    ::unlink(kRouterSocket);
    const Usage u0 = ReadUsage();
    const double t0 = NowSeconds();
    std::vector<pid_t> pids;
    {
      SpanRecorder::Scope span(rec_, "serve.fleet_setup", "", round);
      for (const char* path : kBackends) {
        fairem::ServeOptions options;
        options.socket_path = path;
        options.warm.datasets.assign(std::begin(kServeDatasets),
                                     std::end(kServeDatasets));
        options.warm.seed = WarmSeed();
        pids.push_back(ForkDaemon(options));
      }
      fairem::RouteOptions route;
      route.socket_path = kRouterSocket;
      route.backends.assign(std::begin(kBackends), std::end(kBackends));
      pids.push_back(ForkRouter(route));
      for (pid_t pid : pids) {
        if (pid < 0) {
          out_->Check("fleet", std::string("fork failed: ") + std::strerror(errno));
          Drain(pids);
          return false;
        }
      }
      if (!WaitReady()) {
        out_->Check("fleet", "fleet did not become ready");
        Drain(pids);
        return false;
      }
    }
    result->setup_s = NowSeconds() - t0;
    if (setup_only) return Drain(pids);

    // Cold phase: each connection requests every key in its own order.
    std::vector<std::map<std::string, std::string>> got(kConnections);
    std::vector<std::vector<fairem::WireSpan>> spans(kConnections);
    std::vector<int64_t> failures(kConnections, 0);
    const double cold0 = NowSeconds();
    {
      std::vector<std::thread> threads;
      for (int c = 0; c < kConnections; ++c) {
        threads.emplace_back([&, c]() {
          auto client = Connect(kRouterSocket, traced);
          std::vector<size_t> order(keys_.size());
          for (size_t i = 0; i < order.size(); ++i) order[i] = i;
          // Orders come from the round and connection only, so every run
          // races the same order sets and the cold fill does not swing
          // with which connection happens to meet the heavy keys first.
          fairem::Rng rng(kColdOrderSeed + static_cast<uint64_t>(round) * 101 +
                          static_cast<uint64_t>(c));
          rng.Shuffle(&order);
          for (size_t i : order) {
            if (!client.ok()) {
              ++failures[c];
              continue;
            }
            SpanRecorder::Scope span(rec_, "route.cold_query", keys_[i].key,
                                     static_cast<int64_t>(i));
            auto response = client->Call(CellRequest(keys_[i]));
            if (!response.ok() || !response->status.ok()) {
              ++failures[c];
              continue;
            }
            got[c][keys_[i].key] = response->payload;
            if (traced) {
              const auto& s = client->last_spans();
              spans[c].insert(spans[c].end(), s.begin(), s.end());
            }
          }
        });
      }
      for (std::thread& t : threads) t.join();
    }
    result->cold_s = NowSeconds() - cold0;
    int64_t cold_failures = 0;
    for (int64_t f : failures) cold_failures += f;
    out_->Attempt(kConnections * static_cast<int64_t>(keys_.size()), cold_failures);
    CheckColdAnswers(got);

    // Hot phase: seeded uniform reads, all cache hits. A hedge that lost
    // may still be computing; start once both daemons are idle.
    if (!WaitIdle()) {
      out_->Check("fleet", "daemons still busy after the cold phase");
      Drain(pids);
      return false;
    }
    std::vector<std::vector<double>> lat(kConnections);
    std::vector<int64_t> hot_failures(kConnections, 0);
    const double hot0 = NowSeconds();
    {
      std::vector<std::thread> threads;
      for (int c = 0; c < kConnections; ++c) {
        threads.emplace_back([&, c]() {
          lat[c] = HitLoop(kRouterSocket, c, round, traced ? "route.hit" : "",
                           nullptr, &hot_failures[c]);
        });
      }
      for (std::thread& t : threads) t.join();
    }
    result->hot_s = NowSeconds() - hot0;
    for (int c = 0; c < kConnections; ++c) {
      out_->Attempt(kHitsPerConnection, hot_failures[c]);
      result->hit_ms.insert(result->hit_ms.end(), lat[c].begin(), lat[c].end());
    }
    result->hits = kConnections * static_cast<int64_t>(kHitsPerConnection);

    if (traced) Probe(round, spans, layer);

    bool ok = Drain(pids);
    result->cpu_s = ReadUsage().cpu_s - u0.cpu_s;
    std::cerr << "auditbench: fleet round " << round << " setup "
              << result->setup_s << " s, cold " << result->cold_s
              << " s, hot " << result->hot_s << " s, cpu " << result->cpu_s
              << " s, hit p50 " << Percentile(result->hit_ms, 0.5) << " ms\n";
    return ok;
  }

 private:
  uint64_t WarmSeed() const { return 1234 + seed_; }

  bool WaitReady() {
    for (const char* path : kBackends) {
      auto client = Connect(path);
      fairem::QueryRequest ping;
      ping.op = "ping";
      auto pong = client.ok() ? client->Call(ping)
                              : fairem::Result<fairem::QueryResponse>(client.status());
      if (!pong.ok() || !pong->status.ok()) return false;
    }
    auto router = Connect(kRouterSocket);
    if (!router.ok()) return false;
    for (int i = 0; i < 6000; ++i) {
      if (Stat(&*router, "gauges", "fairem.route.backends_usable") ==
          static_cast<double>(std::size(kBackends))) {
        return true;
      }
      ::usleep(5 * 1000);
    }
    return false;
  }

  bool WaitIdle() {
    for (const char* path : kBackends) {
      auto client = Connect(path);
      if (!client.ok()) return false;
      bool idle = false;
      for (int i = 0; i < 6000 && !idle; ++i) {
        idle = Stat(&*client, "gauges", "fairem.serve.inflight") == 0.0 &&
               Stat(&*client, "gauges", "fairem.serve.queue_depth") == 0.0;
        if (!idle) ::usleep(5 * 1000);
      }
      if (!idle) return false;
    }
    return true;
  }

  bool Drain(const std::vector<pid_t>& pids) {
    SpanRecorder::Scope span(rec_, "serve.fleet_drain");
    bool ok = true;
    // The router first: it still holds connections to the daemons.
    for (auto it = pids.rbegin(); it != pids.rend(); ++it) {
      if (*it > 0 && !Terminate(*it)) ok = false;
    }
    out_->Check("fleet drain", ok ? "" : "a fleet process did not drain cleanly");
    return ok;
  }

  void CheckColdAnswers(const std::vector<std::map<std::string, std::string>>& got) {
    for (const CellKey& key : keys_) {
      const std::string* first = nullptr;
      for (const auto& conn : got) {
        auto it = conn.find(key.key);
        if (it == conn.end()) continue;
        if (first == nullptr) {
          first = &it->second;
          auto cell = fairem::GridCellFromJson(*first);
          out_->Check("cold " + key.key,
                      !cell.ok() ? cell.status().ToString()
                      : cell->matcher != key.matcher
                          ? "answer names matcher " + cell->matcher
                          : "");
        } else {
          out_->Check("cold " + key.key,
                      CheckSameBytes("answer across connections", *first,
                                     it->second));
        }
      }
      if (first == nullptr) continue;
      auto known = answers_.find(key.key);
      if (known == answers_.end()) {
        answers_[key.key] = *first;
      } else {
        out_->Check("cold " + key.key,
                    CheckSameBytes("answer across fleets", known->second, *first));
      }
    }
  }

  /// kHitsPerConnection seeded reads of known keys over one connection to
  /// `path`; with `owner` set, each key goes to the daemon that owns it
  /// instead. Returns the latencies in ms.
  std::vector<double> HitLoop(const std::string& path, int conn, int round,
                              const std::string& span_name,
                              const std::vector<std::string>* owner,
                              int64_t* failures) {
    std::vector<double> lat;
    std::map<std::string, fairem::Result<fairem::ServeClient>> clients;
    fairem::Rng rng(seed_ * 7777777 + static_cast<uint64_t>(round) * 1009 +
                    static_cast<uint64_t>(conn) + 1);
    for (int i = 0; i < kHitsPerConnection; ++i) {
      const size_t k = static_cast<size_t>(rng.NextBounded(keys_.size()));
      const std::string& target = owner ? (*owner)[k] : path;
      auto it = clients.find(target);
      if (it == clients.end()) it = clients.emplace(target, Connect(target)).first;
      auto answer = answers_.find(keys_[k].key);
      if (!it->second.ok() || answer == answers_.end()) {
        ++*failures;
        continue;
      }
      SpanRecorder::Scope span(span_name.empty() ? nullptr : rec_, span_name,
                               keys_[k].key, static_cast<int64_t>(k));
      const double t0 = NowSeconds();
      auto response = it->second->Call(CellRequest(keys_[k]));
      lat.push_back((NowSeconds() - t0) * 1e3);
      if (!response.ok() || !response->status.ok()) {
        ++*failures;
        continue;
      }
      out_->Check("hit " + keys_[k].key,
                  CheckSameBytes("hit answer", answer->second, response->payload));
    }
    return lat;
  }

  /// Per-layer probes on a warm fleet: computes per key, queue/fork/compute
  /// spans of the cold phase, router hedges, direct vs routed hit latency
  /// and backend connections per routed query.
  void Probe(int round, const std::vector<std::vector<fairem::WireSpan>>& spans,
             std::map<std::string, double>* layer) {
    std::vector<double> queue_ms, fork_ms;
    double compute_s = 0.0;
    for (const auto& conn : spans) {
      for (const fairem::WireSpan& s : conn) {
        if (s.name == "daemon.queue") queue_ms.push_back(s.duration_us / 1e3);
        if (s.name == "worker.fork") fork_ms.push_back(s.duration_us / 1e3);
        if (s.name == "worker.compute") compute_s += s.duration_us / 1e6;
      }
    }
    (*layer)["serve.queue_wait_p50_ms"] = Median(queue_ms);
    (*layer)["serve.worker_fork_ms"] = Median(fork_ms);
    (*layer)["serve.worker_compute_s"] = compute_s;

    std::vector<fairem::Result<fairem::ServeClient>> daemons;
    double computed = 0.0;
    for (const char* path : kBackends) {
      daemons.push_back(Connect(path));
      if (daemons.back().ok()) {
        computed += Stat(&*daemons.back(), "counters", "fairem.serve.cells_computed");
      }
    }
    (*layer)["serve.computes_per_key"] = computed / static_cast<double>(keys_.size());
    auto router = Connect(kRouterSocket);
    if (router.ok()) {
      (*layer)["route.hedges_started"] =
          Stat(&*router, "counters", "fairem.route.hedges_started");
      (*layer)["route.hedges_lost"] =
          Stat(&*router, "counters", "fairem.route.hedges_lost");
    }

    // The same seeded reads over one connection: routed, then straight to
    // the daemon that owns each key.
    std::vector<std::string> owner;
    for (const CellKey& key : keys_) {
      std::string best;
      uint64_t best_rank = 0;
      for (const char* path : kBackends) {
        const uint64_t rank = fairem::RendezvousRank(key.key, path);
        if (best.empty() || rank > best_rank) {
          best = path;
          best_rank = rank;
        }
      }
      owner.push_back(best);
    }
    auto accepted = [&]() {
      double total = 0.0;
      for (auto& d : daemons) {
        if (d.ok()) total += Stat(&*d, "counters", "fairem.serve.connections_accepted");
      }
      return total;
    };
    int64_t failures = 0;
    const double accepted0 = accepted();
    std::vector<double> routed =
        HitLoop(kRouterSocket, kConnections, round, "route.hit", nullptr, &failures);
    const double accepted1 = accepted();
    const double computed0 = computed;
    std::vector<double> direct = HitLoop("", kConnections, round, "serve.direct_hit",
                                         &owner, &failures);
    out_->Attempt(2 * kHitsPerConnection, failures);
    double computed1 = 0.0;
    for (auto& d : daemons) {
      if (d.ok()) computed1 += Stat(&*d, "counters", "fairem.serve.cells_computed");
    }
    out_->Check("direct hits", computed1 == computed0
                                   ? ""
                                   : "a direct read to the owning daemon computed");
    (*layer)["serve.hit_direct_p50_ms"] = Median(direct);
    (*layer)["route.hop_p50_ms"] = Median(routed) - Median(direct);
    (*layer)["route.backend_connects_per_query"] =
        (accepted1 - accepted0) / static_cast<double>(kHitsPerConnection);
  }

  uint64_t seed_;
  const std::vector<CellKey>& keys_;
  SpanRecorder* rec_;
  Outcome* out_;
  std::map<std::string, std::string> answers_;
};

int RunServeFleet(uint64_t seed, double seconds, bool trace, SpanRecorder* rec,
                  Outcome* out) {
  fairem::IgnoreSigpipe();
  const std::vector<CellKey> keys = ServeKeys();
  Fleet fleet(seed, keys, rec, out);
  std::map<std::string, double> layer;
  // Set-up alone is repeated on top of the rounds' own, for its median.
  std::vector<double> setup;
  for (int i = 0; !trace && i < kExtraFleetSetups; ++i) {
    RoundResult r;
    if (!fleet.Round(-1 - i, false, true, &r, &layer)) return 1;
    setup.push_back(r.setup_s);
  }
  std::vector<RoundResult> rounds;
  // A fixed number of rounds, so every run takes the median over the same
  // order sets. The traced run makes one untraced and one traced round;
  // the difference of their cold fills is the tracing overhead.
  const int num_rounds =
      trace ? 2 : std::max(2, static_cast<int>(std::ceil(seconds / kFleetRoundSeconds)));
  while (static_cast<int>(rounds.size()) < num_rounds) {
    const int index = static_cast<int>(rounds.size());
    const bool traced = trace && index == num_rounds - 1;
    rec->Enable(traced);
    RoundResult r;
    if (!fleet.Round(index, traced, false, &r, &layer)) return 1;
    rounds.push_back(r);
  }
  rec->Enable(trace);
  const double peak_rss_mb = ReadUsage().peak_rss_mb;

  // Routed answers must equal in-process RunAuditCell on seeded keys.
  std::map<std::string, EMDataset> datasets;
  double generate_s = 0.0;
  for (const char* name : kServeDatasets) {
    for (DatasetKind kind : fairem::AllDatasetKinds()) {
      if (std::string(fairem::DatasetKindName(kind)) != name) continue;
      const double t0 = NowSeconds();
      SpanRecorder::Scope span(rec, "datagen.generate", name);
      auto ds = fairem::GenerateDataset(kind, 1.0, 1234 + seed);
      generate_s += NowSeconds() - t0;
      if (!ds.ok()) {
        out->Check("verify", ds.status().ToString());
        return 1;
      }
      datasets[name] = std::move(*ds);
    }
  }
  fairem::Rng pick(seed * 31 + 5);
  GridRunOptions cell_options;
  cell_options.seed = 1234 + seed;
  for (int i = 0; i < kServeVerifiedKeys; ++i) {
    const CellKey& key = keys[static_cast<size_t>(pick.NextBounded(keys.size()))];
    SpanRecorder::Scope span(rec, "harness.audit_cell", key.key, i);
    auto cell = fairem::RunAuditCell(datasets[key.dataset], key.kind,
                                     key.pairwise, cell_options);
    auto routed = fleet.answers().find(key.key);
    out->Check("in-process " + key.key,
               !cell.ok() ? cell.status().ToString()
               : routed == fleet.answers().end()
                   ? "no routed answer"
                   : CheckSameBytes("routed answer vs RunAuditCell",
                                    fairem::GridCellToJson(*cell),
                                    routed->second));
  }

  if (!trace) {
    std::vector<double> cold, cpu;
    for (const RoundResult& r : rounds) {
      setup.push_back(r.setup_s);
      cold.push_back(r.cold_s);
      cpu.push_back(r.cpu_s);
    }
    EmitEndToEnd(Median(setup), Median(cold), Median(cpu), peak_rss_mb, out);
    return 0;
  }
  const RoundResult& traced = rounds.back();
  AddHitFigures("route.hit", traced.hit_ms,
                static_cast<double>(traced.hits) / traced.hot_s, &layer);
  layer["datagen.generate_s"] = generate_s;
  MeasureEmbedding(datasets["Cricket"], rec, &layer);
  layer["trace.overhead_s"] = rounds.back().cold_s - rounds.front().cold_s;
  EmitPerLayer(layer, out);
  return 0;
}

// ---------------------------------------------------------------------------
// Self-test: every check must pass on clean inputs and reject a corrupted
// one.

int SelfTest() {
  int failures = 0;
  auto expect = [&](const char* what, bool should_pass, const std::string& msg) {
    const bool passed = msg.empty();
    std::cout << (passed == should_pass ? "ok   " : "FAIL ") << what << ": "
              << (passed ? "passes" : "rejects (" + msg + ")") << "\n";
    if (passed != should_pass) ++failures;
  };
  auto dataset = fairem::GenerateDataset(DatasetKind::kFacultyMatch, 0.5, 3);
  if (!dataset.ok()) {
    std::cout << "FAIL dataset: " << dataset.status() << "\n";
    return 1;
  }
  auto run = fairem::RunMatcher(*dataset, MatcherKind::kDT, 1234);
  GroupIndex index;
  std::string error;
  if (!run.ok() || !GroupIndex::Build(*dataset, &index, &error)) {
    std::cout << "FAIL setup: matcher run or group index\n";
    return 1;
  }
  fairem::AuditOptions options;
  options.reference = fairem::AuditReference::kComplement;
  auto breakdown = fairem::GroupBreakdown(*dataset, *run);
  auto single = fairem::AuditRunSingle(*dataset, *run, options);
  auto pairwise = fairem::AuditRunPairwise(*dataset, *run, options);
  if (!breakdown.ok() || !single.ok() || !pairwise.ok()) {
    std::cout << "FAIL setup: audit calls\n";
    return 1;
  }
  const std::vector<double>& scores = run->test_scores;

  expect("scores clean", true, CheckScores(*dataset, scores));
  std::vector<double> bad = scores;
  bad[0] = std::nan("");
  expect("scores with a NaN", false, CheckScores(*dataset, bad));
  bad = scores;
  bad[0] = 1.5;
  expect("scores with one out of [0, 1]", false, CheckScores(*dataset, bad));

  expect("counts clean", true,
         CheckCounts(*dataset, index, scores, run->counts, *breakdown));
  std::vector<double> flipped = scores;
  flipped[0] = flipped[0] >= dataset->default_threshold ? 0.0 : 1.0;
  expect("counts from a flipped score", false,
         CheckCounts(*dataset, index, flipped, run->counts, *breakdown));

  expect("single parity clean", true,
         CheckParity(*dataset, index, scores, *single, false, options));
  expect("pairwise parity clean", true,
         CheckParity(*dataset, index, scores, *pairwise, true, options));
  AuditReport tampered = *single;
  for (auto& entry : tampered.entries) {
    if (entry.defined &&
        entry.measure == fairem::FairnessMeasure::kTruePositiveRateParity) {
      entry.unfair = !entry.unfair;
      break;
    }
  }
  expect("single parity with a flipped unfair flag", false,
         CheckParity(*dataset, index, scores, tampered, false, options));
  tampered = *pairwise;
  for (auto& entry : tampered.entries) {
    if (entry.defined &&
        entry.measure == fairem::FairnessMeasure::kAccuracyParity) {
      entry.disparity += 0.01;
      break;
    }
  }
  expect("pairwise parity with an altered disparity", false,
         CheckParity(*dataset, index, scores, tampered, true, options));
  expect("parity from a flipped score", false,
         CheckParity(*dataset, index, flipped, *single, false, options));

  expect("f1 clean", true, CheckF1(*dataset, scores, run->counts, kF1Floor));
  std::vector<double> zeros(scores.size(), 0.0);
  fairem::ConfusionCounts none;
  for (const auto& p : dataset->test) none.Add(false, p.is_match);
  expect("f1 of a matcher that predicts no match", false,
         CheckF1(*dataset, zeros, none, kF1Floor));

  auto cell = fairem::RunAuditCell(*dataset, MatcherKind::kDT, false);
  if (!cell.ok()) {
    std::cout << "FAIL setup: RunAuditCell\n";
    return 1;
  }
  const std::string payload = fairem::GridCellToJson(*cell);
  expect("cell payload clean", true,
         CheckSameBytes("cell", payload, fairem::GridCellToJson(*cell)));
  GridCellCheckpoint altered = *cell;
  if (!altered.marks.empty()) altered.marks[0].unfair = !altered.marks[0].unfair;
  expect("cell payload with an altered mark", false,
         CheckSameBytes("cell", payload, fairem::GridCellToJson(altered)));
  std::string report = RenderGrid({CellFromReport("DTMatcher", *single)});
  std::string changed = report;
  if (!changed.empty()) changed[changed.size() / 2] ^= 1;
  expect("report with one changed byte", false,
         CheckSameBytes("report", report, changed));

  std::cout << (failures == 0 ? "selftest OK\n" : "selftest FAILED\n");
  return failures == 0 ? 0 : 1;
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool selftest = false;
  std::string workdir = ".";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--selftest") {
      args->selftest = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args->seconds > 0)) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (flag == "--workdir") {
      args->workdir = value;
    } else {
      return false;
    }
  }
  return args->selftest || !args->workload.empty();
}

}  // namespace
}  // namespace auditbench

int main(int argc, char** argv) {
  using namespace auditbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::cerr << "usage: auditbench --workload paper_grid|feature_grid|"
                 "serve_fleet --seed N --seconds S --trace 0|1 [--workdir D]\n"
                 "       auditbench --selftest\n";
    return 2;
  }
  fairem::SetGlobalLogLevel(fairem::LogLevel::kWarn);
  if (args.selftest) return SelfTest();

  SpanRecorder rec;
  rec.Enable(args.trace);
  Outcome out;
  int rc = 1;
  if (args.workload == "paper_grid") {
    rc = RunGrid({DatasetKind::kDblpAcm, 1.0, true, 2, 1}, args.seed,
                 args.seconds, args.trace, args.workdir, &rec, &out);
  } else if (args.workload == "feature_grid") {
    rc = RunGrid({DatasetKind::kDblpScholar, 32.0, false, 1, 4}, args.seed,
                 args.seconds, args.trace, args.workdir, &rec, &out);
  } else if (args.workload == "serve_fleet") {
    rc = RunServeFleet(args.seed, args.seconds, args.trace, &rec, &out);
  } else {
    std::cerr << "unknown workload '" << args.workload << "'\n";
    return 2;
  }
  if (rc != 0) return rc;
  if (args.trace) {
    const std::string path = args.workdir + "/" + args.workload + ".trace.json";
    if (!rec.WriteChromeTrace(path)) {
      std::cerr << "could not write " << path << "\n";
      return 1;
    }
    std::cerr << "auditbench: " << rec.num_spans() << " spans written to "
              << path << "\n"
              << rec.LayerTable();
  }
  std::cout << out.Json() << std::endl;
  return 0;
}
