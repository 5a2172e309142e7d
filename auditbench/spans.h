#ifndef FAIREM_AUDITBENCH_SPANS_H_
#define FAIREM_AUDITBENCH_SPANS_H_

// The benchmark's own span recorder. Spans are opened around the
// benchmark's calls into the library (never inside it), kept in memory,
// and written once at the end as a Chrome trace. A span's layer is the
// part of its name before the first '.', so "matcher.fit" belongs to the
// matcher layer; self time is a span's duration minus the time its direct
// children cover. Spans nest per thread.

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace auditbench {

double NowSeconds();

struct SpanRecord {
  std::string name;
  std::string detail;  // e.g. the matcher name; shown as a trace arg
  int64_t id = -1;     // cell or query id; -1 when the span has none
  int thread = 0;
  int parent = -1;     // index into the recorder's span list
  double start_s = 0.0;
  double end_s = 0.0;
  double child_s = 0.0;  // time covered by direct children
};

class SpanRecorder {
 public:
  /// A disabled recorder makes every Scope a no-op.
  void Enable(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  class Scope {
   public:
    Scope(SpanRecorder* recorder, std::string name, std::string detail = "",
          int64_t id = -1);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder* recorder_;
    int index_ = -1;
  };

  /// Sum of the durations of spans named `name`, optionally only those
  /// whose detail equals `detail`.
  double TotalSeconds(const std::string& name,
                      const std::string& detail = "") const;
  size_t num_spans() const;

  /// Per-layer calls, total time and self time, widest first.
  std::string LayerTable() const;
  /// Writes {"traceEvents": [...]} with one complete event per span.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  int Open(std::string name, std::string detail, int64_t id);
  void Close(int index);

  bool enabled_ = false;
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;  // guarded by mu_
  std::map<int, int> thread_ids_;  // guarded by mu_
};

}  // namespace auditbench

#endif  // FAIREM_AUDITBENCH_SPANS_H_
