#include "auditbench/spans.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace auditbench {
namespace {

// Open spans of the calling thread (indices into the recorder's list).
thread_local std::vector<int> open_stack;

int ThisThread() {
  static std::atomic<int> next{0};
  thread_local int id = next.fetch_add(1);
  return id;
}

std::string LayerOf(const std::string& name) {
  size_t dot = name.find('.');
  return dot == std::string::npos ? name : name.substr(0, dot);
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

SpanRecorder::Scope::Scope(SpanRecorder* recorder, std::string name,
                           std::string detail, int64_t id)
    : recorder_(recorder) {
  if (recorder_ != nullptr && recorder_->enabled()) {
    index_ = recorder_->Open(std::move(name), std::move(detail), id);
  }
}

SpanRecorder::Scope::~Scope() {
  if (index_ >= 0) recorder_->Close(index_);
}

int SpanRecorder::Open(std::string name, std::string detail, int64_t id) {
  SpanRecord rec;
  rec.name = std::move(name);
  rec.detail = std::move(detail);
  rec.id = id;
  rec.thread = ThisThread();
  rec.parent = open_stack.empty() ? -1 : open_stack.back();
  int index = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    index = static_cast<int>(spans_.size());
    spans_.push_back(std::move(rec));
  }
  open_stack.push_back(index);
  // Read the clock last, so the bookkeeping above is not charged to it.
  const double now = NowSeconds();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(index)].start_s = now;
  return index;
}

void SpanRecorder::Close(int index) {
  const double now = NowSeconds();
  open_stack.pop_back();
  std::lock_guard<std::mutex> lock(mu_);
  SpanRecord& rec = spans_[static_cast<size_t>(index)];
  rec.end_s = now;
  if (rec.parent >= 0) {
    spans_[static_cast<size_t>(rec.parent)].child_s += rec.end_s - rec.start_s;
  }
}

double SpanRecorder::TotalSeconds(const std::string& name,
                                  const std::string& detail) const {
  std::lock_guard<std::mutex> lock(mu_);
  double total = 0.0;
  for (const SpanRecord& rec : spans_) {
    if (rec.name == name && (detail.empty() || rec.detail == detail)) {
      total += rec.end_s - rec.start_s;
    }
  }
  return total;
}

size_t SpanRecorder::num_spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

std::string SpanRecorder::LayerTable() const {
  struct Row {
    size_t calls = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };
  std::map<std::string, Row> rows;
  double self_sum = 0.0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const SpanRecord& rec : spans_) {
      Row& row = rows[LayerOf(rec.name)];
      const double dur = rec.end_s - rec.start_s;
      ++row.calls;
      row.total_s += dur;
      row.self_s += dur - rec.child_s;
      self_sum += dur - rec.child_s;
    }
  }
  std::vector<std::pair<std::string, Row>> sorted(rows.begin(), rows.end());
  std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
    return a.second.self_s > b.second.self_s;
  });
  std::ostringstream out;
  char line[160];
  std::snprintf(line, sizeof(line), "%-10s %8s %12s %12s %7s\n", "layer",
                "calls", "total_s", "self_s", "self%");
  out << line;
  for (const auto& [layer, row] : sorted) {
    std::snprintf(line, sizeof(line), "%-10s %8zu %12.4f %12.4f %6.1f%%\n",
                  layer.c_str(), row.calls, row.total_s, row.self_s,
                  self_sum > 0.0 ? 100.0 * row.self_s / self_sum : 0.0);
    out << line;
  }
  return out.str();
}

bool SpanRecorder::WriteChromeTrace(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  std::lock_guard<std::mutex> lock(mu_);
  double origin = 0.0;
  for (const SpanRecord& rec : spans_) {
    if (origin == 0.0 || rec.start_s < origin) origin = rec.start_s;
  }
  out << "{\"traceEvents\":[";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& rec = spans_[i];
    char times[96];
    std::snprintf(times, sizeof(times), "\"ts\":%.3f,\"dur\":%.3f",
                  (rec.start_s - origin) * 1e6,
                  (rec.end_s - rec.start_s) * 1e6);
    out << (i == 0 ? "" : ",") << "\n{\"name\":\"" << JsonEscape(rec.name)
        << "\",\"cat\":\"" << JsonEscape(LayerOf(rec.name))
        << "\",\"ph\":\"X\"," << times << ",\"pid\":1,\"tid\":" << rec.thread
        << ",\"args\":{\"id\":" << rec.id << ",\"detail\":\""
        << JsonEscape(rec.detail) << "\",\"self_us\":"
        << (rec.end_s - rec.start_s - rec.child_s) * 1e6 << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace auditbench
