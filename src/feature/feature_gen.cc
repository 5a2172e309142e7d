#include "src/feature/feature_gen.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <map>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/text/prepared.h"
#include "src/text/tokenize.h"
#include "src/util/string_util.h"
#include "src/util/thread_pool.h"

namespace fairem {
namespace {

constexpr size_t kShortStringMaxAvgLen = 24;
constexpr double kShortStringMaxAvgTokens = 3.0;

/// A FeatureDef with its attribute resolved to column indices once, so the
/// per-pair loop never goes back through schema().Index.
struct ResolvedDef {
  size_t col_a = 0;
  size_t col_b = 0;
  SimilarityMeasure measure = SimilarityMeasure::kExactMatch;
};

Result<std::vector<ResolvedDef>> ResolveDefs(
    const std::vector<FeatureDef>& defs, const Table& a, const Table& b) {
  std::vector<ResolvedDef> resolved;
  resolved.reserve(defs.size());
  for (const auto& def : defs) {
    ResolvedDef r;
    FAIREM_ASSIGN_OR_RETURN(r.col_a, a.schema().Index(def.attr));
    FAIREM_ASSIGN_OR_RETURN(r.col_b, b.schema().Index(def.attr));
    r.measure = def.measure;
    resolved.push_back(r);
  }
  return resolved;
}

/// Sorted-unique row indices referenced on one side of a pair list.
std::vector<size_t> ReferencedRows(const std::vector<LabeledPair>& pairs,
                                   bool left_side) {
  std::vector<size_t> rows;
  rows.reserve(pairs.size());
  for (const auto& p : pairs) rows.push_back(left_side ? p.left : p.right);
  std::sort(rows.begin(), rows.end());
  rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
  return rows;
}

/// Rows per prepare task: a few µs of PrepareValue work, fine enough that
/// the longest column does not leave the other threads idle.
constexpr size_t kPrepareBlockRows = 16;

/// Both sides' prepared columns: every column pair some def touches,
/// tokenized once per referenced record with exactly the representations
/// the measures on that pair need. Built pairwise (not per side) because
/// the interned-token fast path needs one TokenInterner spanning both
/// sides of a column pair — ids from separate interners would not be
/// comparable (DESIGN.md §17).
///
/// Build opens one pool region for both phases, so a small table pays one
/// hand-off instead of one or more per column. Its tasks are fixed row
/// blocks of every (column pair, side), each running PrepareRange; the
/// task that finishes a column pair's last block then interns that pair
/// with its own interners: a-side then b-side, each in row order. Column
/// pairs that intern are scheduled first so their interning overlaps the
/// remaining prepare blocks. The interners are dropped once the ids are
/// baked into the values.
class PreparedPair {
 public:
  void Build(const Table& a, const Table& b,
             const std::vector<ResolvedDef>& defs,
             const std::vector<LabeledPair>& pairs) {
    std::map<std::pair<size_t, size_t>, size_t> column_index;
    def_column_.reserve(defs.size());
    for (const auto& def : defs) {
      auto [it, inserted] =
          column_index.try_emplace({def.col_a, def.col_b}, columns_.size());
      if (inserted) {
        columns_.emplace_back();
        columns_.back().col_a = def.col_a;
        columns_.back().col_b = def.col_b;
      }
      columns_[it->second].needs.MergeFrom(NeedsForMeasure(def.measure));
      def_column_.push_back(it->second);
    }
    const std::vector<size_t> rows_a =
        ReferencedRows(pairs, /*left_side=*/true);
    const std::vector<size_t> rows_b =
        ReferencedRows(pairs, /*left_side=*/false);

    struct Block {
      size_t column;
      bool side_a;
      size_t begin;
      size_t end;
    };
    std::vector<Block> blocks;
    std::vector<std::atomic<size_t>> blocks_left(columns_.size());
    auto add_blocks = [&](size_t column) {
      const size_t first = blocks.size();
      for (bool side_a : {true, false}) {
        const size_t n = side_a ? rows_a.size() : rows_b.size();
        for (size_t begin = 0; begin < n; begin += kPrepareBlockRows) {
          blocks.push_back(
              {column, side_a, begin, std::min(n, begin + kPrepareBlockRows)});
        }
      }
      blocks_left[column].store(blocks.size() - first,
                                std::memory_order_relaxed);
    };
    for (size_t c = 0; c < columns_.size(); ++c) {
      columns_[c].a.Reset(a.num_rows());
      columns_[c].b.Reset(b.num_rows());
      columns_[c].interned = InterningEnabled(columns_[c].needs);
      if (columns_[c].interned) add_blocks(c);
    }
    for (size_t c = 0; c < columns_.size(); ++c) {
      if (!columns_[c].interned) add_blocks(c);
    }

    GlobalThreadPool().ParallelFor(
        blocks.size(), /*grain=*/1, [&](size_t begin, size_t end) {
          for (size_t i = begin; i < end; ++i) {
            const Block& blk = blocks[i];
            ColumnPair& c = columns_[blk.column];
            if (blk.side_a) {
              c.a.PrepareRange(a, c.col_a, rows_a, blk.begin, blk.end,
                               c.needs);
            } else {
              c.b.PrepareRange(b, c.col_b, rows_b, blk.begin, blk.end,
                               c.needs);
            }
            // acq_rel: the last block's task sees every other block's
            // values before it interns them.
            if (blocks_left[blk.column].fetch_sub(
                    1, std::memory_order_acq_rel) == 1 &&
                c.interned) {
              ColumnInterners interners;
              c.a.InternRows(rows_a, c.needs, &interners);
              c.b.InternRows(rows_b, c.needs, &interners);
            }
          }
        });
  }

  /// The prepared cells def `def` (an index into the defs passed to
  /// Build) compares.
  const PreparedValue& GetA(size_t def, size_t row) const {
    return columns_[def_column_[def]].a.Get(row);
  }
  const PreparedValue& GetB(size_t def, size_t row) const {
    return columns_[def_column_[def]].b.Get(row);
  }

 private:
  struct ColumnPair {
    size_t col_a = 0;
    size_t col_b = 0;
    PreparedNeeds needs;
    bool interned = false;  // InterningEnabled(needs)
    PreparedColumn a;
    PreparedColumn b;
  };

  std::vector<ColumnPair> columns_;  // in first-def order
  std::vector<size_t> def_column_;   // def index -> columns_ index
};

}  // namespace

const char* AttrTypeName(AttrType type) {
  switch (type) {
    case AttrType::kNumeric:
      return "numeric";
    case AttrType::kShortString:
      return "short_string";
    case AttrType::kLongString:
      return "long_string";
  }
  return "unknown";
}

Result<AttrType> InferAttrType(const Table& a, const Table& b,
                               const std::string& attr) {
  FAIREM_ASSIGN_OR_RETURN(size_t col_a, a.schema().Index(attr));
  FAIREM_ASSIGN_OR_RETURN(size_t col_b, b.schema().Index(attr));
  size_t non_null = 0;
  size_t numeric = 0;
  size_t total_len = 0;
  size_t total_tokens = 0;
  auto scan = [&](const Table& t, size_t col) {
    for (size_t r = 0; r < t.num_rows(); ++r) {
      if (t.IsNull(r, col)) continue;
      std::string_view v = t.value(r, col);
      ++non_null;
      if (ParseDouble(v, nullptr)) ++numeric;
      total_len += v.size();
      total_tokens += CountWhitespaceTokens(v);
    }
  };
  scan(a, col_a);
  scan(b, col_b);
  if (non_null == 0) return AttrType::kShortString;
  if (numeric == non_null) return AttrType::kNumeric;
  double avg_len = static_cast<double>(total_len) / non_null;
  double avg_tokens = static_cast<double>(total_tokens) / non_null;
  if (avg_len <= kShortStringMaxAvgLen &&
      avg_tokens <= kShortStringMaxAvgTokens) {
    return AttrType::kShortString;
  }
  return AttrType::kLongString;
}

Result<std::vector<FeatureDef>> GenerateFeatures(
    const Table& a, const Table& b, const std::vector<std::string>& attrs) {
  Span span("fairem.feature.generate_defs");
  span.AddArg("attrs", std::to_string(attrs.size()));
  std::vector<FeatureDef> defs;
  for (const auto& attr : attrs) {
    FAIREM_ASSIGN_OR_RETURN(AttrType type, InferAttrType(a, b, attr));
    switch (type) {
      case AttrType::kNumeric:
        defs.push_back({attr, SimilarityMeasure::kExactMatch});
        defs.push_back({attr, SimilarityMeasure::kNumericAbsDiff});
        break;
      case AttrType::kShortString:
        defs.push_back({attr, SimilarityMeasure::kExactMatch});
        defs.push_back({attr, SimilarityMeasure::kLevenshtein});
        defs.push_back({attr, SimilarityMeasure::kJaro});
        defs.push_back({attr, SimilarityMeasure::kJaroWinkler});
        defs.push_back({attr, SimilarityMeasure::kJaccardQgram3});
        defs.push_back({attr, SimilarityMeasure::kNeedlemanWunsch});
        break;
      case AttrType::kLongString:
        // Word-token measures only, as in Magellan's defaults for long
        // text: character-gram measures are not generated here, which is
        // why token-formatting variance defeats the non-neural matchers on
        // the textual datasets (§5.3.3).
        defs.push_back({attr, SimilarityMeasure::kJaccardWord});
        defs.push_back({attr, SimilarityMeasure::kCosineWord});
        defs.push_back({attr, SimilarityMeasure::kDiceWord});
        defs.push_back({attr, SimilarityMeasure::kOverlapWord});
        break;
    }
  }
  static Counter* defs_counter =
      MetricsRegistry::Global().GetCounter("fairem.feature.defs_generated");
  defs_counter->Increment(defs.size());
  return defs;
}

Result<std::vector<double>> ExtractFeatures(
    const std::vector<FeatureDef>& defs, const Table& a, const Table& b,
    size_t left_row, size_t right_row) {
  FAIREM_ASSIGN_OR_RETURN(std::vector<ResolvedDef> resolved,
                          ResolveDefs(defs, a, b));
  std::vector<double> features;
  features.reserve(defs.size());
  for (const auto& def : resolved) {
    if (a.IsNull(left_row, def.col_a) || b.IsNull(right_row, def.col_b)) {
      features.push_back(0.0);
      continue;
    }
    features.push_back(ComputeSimilarity(def.measure,
                                         a.value(left_row, def.col_a),
                                         b.value(right_row, def.col_b)));
  }
  return features;
}

Result<FeatureTable> BuildFeatureTable(const std::vector<FeatureDef>& defs,
                                       const Table& a, const Table& b,
                                       const std::vector<LabeledPair>& pairs) {
  static Histogram* build_hist = MetricsRegistry::Global().GetHistogram(
      "fairem.feature.build_table_seconds");
  double seconds = 0.0;
  Result<FeatureTable> result = [&]() -> Result<FeatureTable> {
    Span span("fairem.feature.build_table", &seconds);
    // The workers wake while the defs resolve and the columns are sized.
    GlobalThreadPool().Prewake();
    span.AddArg("pairs", std::to_string(pairs.size()));
    span.AddArg("defs", std::to_string(defs.size()));
    static Counter* rows_counter =
        MetricsRegistry::Global().GetCounter("fairem.feature.rows_built");
    static Counter* values_counter =
        MetricsRegistry::Global().GetCounter("fairem.feature.values_computed");
    rows_counter->Increment(pairs.size());
    values_counter->Increment(pairs.size() * defs.size());

    // Columns resolve once per def (not once per pair), and every
    // referenced record is lowercased/tokenized/q-grammed exactly once
    // into the prepared cache the pairwise kernels read.
    FAIREM_ASSIGN_OR_RETURN(std::vector<ResolvedDef> resolved,
                            ResolveDefs(defs, a, b));
    PreparedPair prepared;
    prepared.Build(a, b, resolved, pairs);

    FeatureTable table;
    table.defs = defs;
    table.rows.assign(pairs.size(), {});
    table.labels.assign(pairs.size(), 0);
    // Row chunks write disjoint slots in pair order, so the matrix is
    // byte-identical for any --intra_jobs; the first non-finite feature by
    // pair index wins the error, again independent of the schedule.
    FAIREM_RETURN_NOT_OK(ParallelForChunks(
        pairs.size(), /*grain=*/0, [&](size_t begin, size_t end) -> Status {
          uint64_t cache_hits = 0;
          for (size_t i = begin; i < end; ++i) {
            const LabeledPair& p = pairs[i];
            std::vector<double> row;
            row.reserve(resolved.size());
            for (size_t d = 0; d < resolved.size(); ++d) {
              const PreparedValue& va = prepared.GetA(d, p.left);
              const PreparedValue& vb = prepared.GetB(d, p.right);
              if (va.is_null || vb.is_null) {
                row.push_back(0.0);
                continue;
              }
              cache_hits += 2;
              row.push_back(ComputeSimilarity(resolved[d].measure, va, vb));
            }
            for (size_t f = 0; f < row.size(); ++f) {
              if (!std::isfinite(row[f])) {
                AddPreparedCacheHits(cache_hits);
                return Status::InvalidArgument(
                    "non-finite feature value for attribute '" +
                    defs[f].attr + "'");
              }
            }
            table.rows[i] = std::move(row);
            table.labels[i] = p.is_match ? 1 : 0;
          }
          AddPreparedCacheHits(cache_hits);
          return Status::OK();
        }));
    return table;
  }();
  if (result.ok()) build_hist->Observe(seconds);
  return result;
}

}  // namespace fairem
