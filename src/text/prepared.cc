#include "src/text/prepared.h"

#include <algorithm>
#include <cmath>

#include "src/obs/metrics.h"
#include "src/text/edit_distance.h"
#include "src/text/hybrid_sim.h"
#include "src/text/simd.h"
#include "src/text/token_sim.h"
#include "src/text/tokenize.h"
#include "src/util/string_util.h"
#include "src/util/thread_pool.h"

namespace fairem {
namespace {

/// Largest id universe that still gets per-value bitsets (64 words = 512
/// bytes per set). Beyond this the sorted-u32 merge is the fast path.
constexpr size_t kBitsetMaxUniverse = 4096;

/// Below this combined id count the plain merge beats AND+popcount over
/// the whole (mostly empty) bitset.
constexpr size_t kBitsetMinIds = 16;

/// The bitset sweep costs min(|a_bits|, |b_bits|) word ops regardless of
/// how sparse the sets are; the merge costs ~(|a|+|b|) element steps. Take
/// the bitset only when the sets are dense enough in their universe that
/// the sweep is the cheaper of the two (with a small bias toward the
/// branchless popcount loop).
constexpr size_t kBitsetDensityFactor = 2;

Counter* BuildsCounter() {
  static Counter* c =
      MetricsRegistry::Global().GetCounter("fairem.prepared.builds");
  return c;
}

Counter* CacheHitsCounter() {
  static Counter* c =
      MetricsRegistry::Global().GetCounter("fairem.prepared.cache_hits");
  return c;
}

/// Sorted-unique copy of a token bag (the set the unordered_set-based
/// kernels in token_sim.cc collapse to — same elements, so the same
/// cardinalities and the same similarity doubles).
std::vector<std::string> SortedUnique(std::vector<std::string> tokens) {
  std::sort(tokens.begin(), tokens.end());
  tokens.erase(std::unique(tokens.begin(), tokens.end()), tokens.end());
  return tokens;
}

/// |A ∩ B| of two sorted-unique vectors by linear merge.
size_t SortedIntersectionSize(const std::vector<std::string>& a,
                              const std::vector<std::string>& b) {
  size_t ia = 0;
  size_t ib = 0;
  size_t inter = 0;
  while (ia < a.size() && ib < b.size()) {
    int cmp = a[ia].compare(b[ib]);
    if (cmp < 0) {
      ++ia;
    } else if (cmp > 0) {
      ++ib;
    } else {
      ++inter;
      ++ia;
      ++ib;
    }
  }
  return inter;
}

/// |A ∩ B| over interned id sets: bitsets (AND + popcount) when both sides
/// materialized them and the sets are big enough to amortize the word
/// scan, else the dispatched sorted-u32 merge. Bitsets from different
/// universe sizes intersect over min(words) — exact, because the side
/// built at the smaller universe has no ids beyond it.
size_t IdIntersectionSize(PackedRun<uint32_t> a_ids,
                          PackedRun<uint64_t> a_bits,
                          PackedRun<uint32_t> b_ids,
                          PackedRun<uint64_t> b_bits) {
  if (!a_bits.empty() && !b_bits.empty() &&
      a_ids.size() + b_ids.size() >= kBitsetMinIds) {
    const size_t words = std::min(a_bits.size(), b_bits.size());
    if (kBitsetDensityFactor * (a_ids.size() + b_ids.size()) >= words) {
      return BitsetIntersectCount(a_bits.data(), b_bits.data(), words);
    }
  }
  return IntersectSortedU32Count(a_ids.data(), a_ids.size(), b_ids.data(),
                                 b_ids.size());
}

size_t WordIntersectionSize(const PreparedValue& a, const PreparedValue& b) {
  if (a.has_ids && b.has_ids) {
    return IdIntersectionSize(a.word_ids, a.word_bits, b.word_ids,
                              b.word_bits);
  }
  return SortedIntersectionSize(a.word_set, b.word_set);
}

size_t QgramIntersectionSize(const PreparedValue& a, const PreparedValue& b) {
  if (a.has_ids && b.has_ids) {
    return IdIntersectionSize(a.qgram_ids, a.qgram_bits, b.qgram_ids,
                              b.qgram_bits);
  }
  return SortedIntersectionSize(a.qgram_set, b.qgram_set);
}

}  // namespace

PreparedNeeds NeedsForMeasure(SimilarityMeasure m) {
  PreparedNeeds needs;
  switch (m) {
    case SimilarityMeasure::kJaccardWord:
    case SimilarityMeasure::kDiceWord:
    case SimilarityMeasure::kOverlapWord:
    case SimilarityMeasure::kCosineWord:
      needs.word_set = true;
      break;
    case SimilarityMeasure::kJaccardQgram3:
    case SimilarityMeasure::kDiceQgram3:
      needs.qgram_set = true;
      break;
    case SimilarityMeasure::kMongeElkanJaro:
      needs.word_tokens = true;
      break;
    case SimilarityMeasure::kNumericAbsDiff:
      needs.numeric = true;
      break;
    case SimilarityMeasure::kTokenSortRatio:
      needs.token_sorted = true;
      break;
    default:
      break;  // character-level measures read `raw` only
  }
  return needs;
}

PreparedValue PrepareValue(std::string_view raw, bool is_null,
                           const PreparedNeeds& needs) {
  PreparedValue v;
  v.raw = raw;
  v.is_null = is_null;
  if (is_null) return v;
  if (needs.word_tokens || needs.word_set || needs.token_sorted) {
    std::vector<std::string> tokens = AlnumTokenize(raw);
    if (needs.token_sorted) {
      // TokenSortRatio sorts with duplicates before joining; mirror it.
      std::vector<std::string> sorted = tokens;
      std::sort(sorted.begin(), sorted.end());
      v.token_sorted = Join(sorted, " ");
    }
    if (needs.word_set) v.word_set = SortedUnique(tokens);
    if (needs.word_tokens) v.word_tokens = std::move(tokens);
  }
  if (needs.qgram_set) v.qgram_set = SortedUnique(QGrams(raw, 3));
  if (needs.numeric) v.is_numeric = ParseDouble(raw, &v.numeric_value);
  return v;
}

double ComputeSimilarity(SimilarityMeasure m, const PreparedValue& a,
                         const PreparedValue& b) {
  switch (m) {
    case SimilarityMeasure::kJaccardWord:
      return JaccardFromSetSizes(a.word_set.size(), b.word_set.size(),
                                 WordIntersectionSize(a, b));
    case SimilarityMeasure::kDiceWord:
      return DiceFromSetSizes(a.word_set.size(), b.word_set.size(),
                              WordIntersectionSize(a, b));
    case SimilarityMeasure::kOverlapWord:
      return OverlapFromSetSizes(a.word_set.size(), b.word_set.size(),
                                 WordIntersectionSize(a, b));
    case SimilarityMeasure::kCosineWord:
      return CosineFromSetSizes(a.word_set.size(), b.word_set.size(),
                                WordIntersectionSize(a, b));
    case SimilarityMeasure::kJaccardQgram3:
      return JaccardFromSetSizes(a.qgram_set.size(), b.qgram_set.size(),
                                 QgramIntersectionSize(a, b));
    case SimilarityMeasure::kDiceQgram3:
      return DiceFromSetSizes(a.qgram_set.size(), b.qgram_set.size(),
                              QgramIntersectionSize(a, b));
    case SimilarityMeasure::kMongeElkanJaro:
      return SymmetricMongeElkan(a.word_tokens, b.word_tokens,
                                 &JaroSimilarity);
    case SimilarityMeasure::kNumericAbsDiff: {
      if (!a.is_numeric || !b.is_numeric) return 0.0;
      double denom = std::max(
          {std::fabs(a.numeric_value), std::fabs(b.numeric_value), 1.0});
      return std::clamp(
          1.0 - std::fabs(a.numeric_value - b.numeric_value) / denom, 0.0,
          1.0);
    }
    case SimilarityMeasure::kTokenSortRatio:
      return LevenshteinSimilarity(a.token_sorted, b.token_sorted);
    default:
      return ComputeSimilarity(m, a.raw, b.raw);
  }
}

uint32_t TokenInterner::Intern(std::string_view token) {
  auto it = ids_.find(token);
  if (it != ids_.end()) return it->second;
  const uint32_t id = static_cast<uint32_t>(ids_.size());
  ids_.emplace(std::string(token), id);
  return id;
}

bool InterningEnabled(const PreparedNeeds& needs) {
  // FAIREM_SIMD=off keeps the seed's string-merge path end to end: no ids,
  // no bitsets, so the scalar tier really is the pre-vectorization code.
  return (needs.word_set || needs.qgram_set) &&
         ActiveSimdLevel() != SimdLevel::kScalar;
}

void PreparedColumn::BuildRows(const Table& table, size_t col,
                               const std::vector<size_t>& rows,
                               const PreparedNeeds& needs,
                               ColumnInterners* interners) {
  Reset(table.num_rows());
  GlobalThreadPool().ParallelFor(
      rows.size(), /*grain=*/0, [&](size_t begin, size_t end) {
        PrepareRange(table, col, rows, begin, end, needs);
      });
  InternRows(rows, needs, interners);
}

void PreparedColumn::Reset(size_t num_rows) {
  values_.assign(num_rows, PreparedValue{});
  ids_.clear();
  bits_.clear();
}

void PreparedColumn::PrepareRange(const Table& table, size_t col,
                                  const std::vector<size_t>& rows,
                                  size_t begin, size_t end,
                                  const PreparedNeeds& needs) {
  for (size_t i = begin; i < end; ++i) {
    const size_t row = rows[i];
    values_[row] =
        PrepareValue(table.value(row, col), table.IsNull(row, col), needs);
  }
  BuildsCounter()->Increment(end - begin);
}

void PreparedColumn::InternRows(const std::vector<size_t>& rows,
                                const PreparedNeeds& needs,
                                ColumnInterners* interners) {
  if (interners == nullptr || !InterningEnabled(needs)) return;
  // Sequential in row order on one thread: first-encounter id assignment
  // depends only on the rows and on what this column pair's interner saw
  // before (the a-side, when this is the b-side), never on a schedule, so
  // the bitset/merge layouts — and every double — are --intra_jobs
  // independent. Parallelism comes from running column pairs side by
  // side, each with its own interner.

  // Size both buffers up front so the runs handed out stay put.
  size_t id_count = 0;
  size_t set_rows = 0;
  for (size_t row : rows) {
    const PreparedValue& v = values_[row];
    if (v.is_null) continue;
    id_count += v.word_set.size() + v.qgram_set.size();
    ++set_rows;
  }
  ids_.resize(id_count);
  uint32_t* next_id = ids_.data();
  auto intern = [&](const std::vector<std::string>& tokens,
                    TokenInterner* interner) {
    uint32_t* begin = next_id;
    for (const auto& t : tokens) *next_id++ = interner->Intern(t);
    std::sort(begin, next_id);
    return PackedRun<uint32_t>(begin, tokens.size());
  };
  for (size_t row : rows) {
    PreparedValue& v = values_[row];
    if (v.is_null) continue;
    if (needs.word_set) v.word_ids = intern(v.word_set, &interners->words);
    if (needs.qgram_set) v.qgram_ids = intern(v.qgram_set, &interners->qgrams);
    v.has_ids = true;
  }
  // Bitsets for small universes, sized at the universe this side reached.
  // A side built later (larger universe, possibly over the cap) still
  // intersects exactly with an earlier smaller-universe side — see
  // IdIntersectionSize.
  auto bit_words = [](bool needed, size_t universe) -> size_t {
    if (!needed || universe == 0 || universe > kBitsetMaxUniverse) return 0;
    return (universe + 63) / 64;
  };
  const size_t word_words = bit_words(needs.word_set, interners->words.size());
  const size_t qgram_words =
      bit_words(needs.qgram_set, interners->qgrams.size());
  bits_.assign(set_rows * (word_words + qgram_words), 0);
  uint64_t* next_word = bits_.data();
  auto set_bits = [&](PackedRun<uint32_t> ids, size_t words) {
    uint64_t* bits = next_word;
    next_word += words;
    for (uint32_t id : ids) bits[id >> 6] |= uint64_t{1} << (id & 63);
    return PackedRun<uint64_t>(bits, words);
  };
  for (size_t row : rows) {
    PreparedValue& v = values_[row];
    if (v.is_null) continue;
    if (word_words > 0) v.word_bits = set_bits(v.word_ids, word_words);
    if (qgram_words > 0) v.qgram_bits = set_bits(v.qgram_ids, qgram_words);
  }
}

void AddPreparedCacheHits(uint64_t n) {
  if (n > 0) CacheHitsCounter()->Increment(n);
}

}  // namespace fairem
