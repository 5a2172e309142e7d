// Differential fuzz of the bit-parallel / SIMD similarity kernels against
// their scalar references (DESIGN.md §17). The vectorized tiers must be
// bit-for-bit equal to the seed kernels on every input — these tests force
// each dispatch tier the host can run and compare against naive
// full-matrix references and the retained scalar paths.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/obs/metrics.h"
#include "src/text/edit_distance.h"
#include "src/text/simd.h"
#include "src/text/tfidf.h"
#include "src/text/tokenize.h"
#include "src/util/rng.h"

namespace fairem {
namespace {

/// Every tier this host can actually execute, always including the scalar
/// seed path. The forced level is process-wide; tests restore detection in
/// a scope guard so a failing assertion cannot leak the override.
std::vector<SimdLevel> RunnableLevels() {
  std::vector<SimdLevel> levels = {SimdLevel::kScalar, SimdLevel::kPortable};
  const int detected = static_cast<int>(DetectedSimdLevel());
  for (SimdLevel v : {SimdLevel::kSse42, SimdLevel::kAvx2, SimdLevel::kNeon}) {
    if (static_cast<int>(v) <= detected) levels.push_back(v);
  }
  return levels;
}

struct LevelGuard {
  explicit LevelGuard(SimdLevel level) {
    internal::ForceSimdLevelForTest(level);
  }
  ~LevelGuard() { internal::ClearForcedSimdLevelForTest(); }
};

/// Naive full-matrix Levenshtein — deliberately the dumbest correct
/// implementation, sharing no code with any production kernel.
int NaiveLevenshtein(const std::string& a, const std::string& b) {
  const size_t n = a.size(), m = b.size();
  std::vector<std::vector<int>> d(n + 1, std::vector<int>(m + 1, 0));
  for (size_t i = 0; i <= n; ++i) d[i][0] = static_cast<int>(i);
  for (size_t j = 0; j <= m; ++j) d[0][j] = static_cast<int>(j);
  for (size_t i = 1; i <= n; ++i) {
    for (size_t j = 1; j <= m; ++j) {
      const int cost = a[i - 1] == b[j - 1] ? 0 : 1;
      d[i][j] = std::min({d[i - 1][j] + 1, d[i][j - 1] + 1,
                          d[i - 1][j - 1] + cost});
    }
  }
  return d[n][m];
}

/// Naive restricted Damerau-Levenshtein (adjacent transposition = 1 edit).
int NaiveDamerau(const std::string& a, const std::string& b) {
  const size_t n = a.size(), m = b.size();
  std::vector<std::vector<int>> d(n + 1, std::vector<int>(m + 1, 0));
  for (size_t i = 0; i <= n; ++i) d[i][0] = static_cast<int>(i);
  for (size_t j = 0; j <= m; ++j) d[0][j] = static_cast<int>(j);
  for (size_t i = 1; i <= n; ++i) {
    for (size_t j = 1; j <= m; ++j) {
      const int cost = a[i - 1] == b[j - 1] ? 0 : 1;
      d[i][j] = std::min({d[i - 1][j] + 1, d[i][j - 1] + 1,
                          d[i - 1][j - 1] + cost});
      if (i > 1 && j > 1 && a[i - 1] == b[j - 2] && a[i - 2] == b[j - 1]) {
        d[i][j] = std::min(d[i][j], d[i - 2][j - 2] + 1);
      }
    }
  }
  return d[n][m];
}

/// Random byte string. `utf8` mixes in multi-byte code points (the kernels
/// operate on bytes; UTF-8 must simply pass through unchanged).
std::string RandomString(Rng* rng, size_t len, bool utf8) {
  std::string s;
  s.reserve(len);
  while (s.size() < len) {
    if (utf8 && rng->NextBool(0.2)) {
      switch (rng->NextBounded(3)) {
        case 0:
          s += "\xC3\xA9";  // é
          break;
        case 1:
          s += "\xE4\xB8\xAD";  // 中
          break;
        default:
          s += "\xF0\x9F\x98\x80";  // 😀
          break;
      }
    } else {
      // Small alphabet, so matches (the interesting DP transitions) are
      // frequent.
      s.push_back(static_cast<char>('a' + rng->NextBounded(6)));
    }
  }
  return s;
}

/// A deliberately adversarial length mix: empties, the 63/64/65 single-word
/// boundary, the 127/128/129 two-block boundary, and long tails.
size_t FuzzLength(Rng* rng) {
  switch (rng->NextBounded(8)) {
    case 0:
      return 0;
    case 1:
      return rng->NextBounded(4);
    case 2:
      return 62 + rng->NextBounded(5);  // 62..66
    case 3:
      return 126 + rng->NextBounded(5);  // 126..130
    case 4:
      return 150 + rng->NextBounded(100);
    default:
      return 1 + rng->NextBounded(40);
  }
}

TEST(SimdKernelTest, LevenshteinMatchesNaiveAtEveryLevel) {
  Rng rng(20260809);
  const std::vector<SimdLevel> levels = RunnableLevels();
  for (int iter = 0; iter < 400; ++iter) {
    const bool utf8 = rng.NextBool(0.3);
    std::string a = RandomString(&rng, FuzzLength(&rng), utf8);
    std::string b;
    if (rng.NextBool(0.3)) {
      // Near-duplicate: mutate a few positions so common affixes survive.
      b = a;
      for (int e = 0; e < 3 && !b.empty(); ++e) {
        b[rng.NextBounded(b.size())] =
            static_cast<char>('a' + rng.NextBounded(6));
      }
    } else {
      b = RandomString(&rng, FuzzLength(&rng), utf8);
    }
    const int expected = NaiveLevenshtein(a, b);
    ASSERT_EQ(expected, internal::LevenshteinDistanceScalar(a, b))
        << "scalar reference disagrees with naive on \"" << a << "\" vs \""
        << b << "\"";
    for (SimdLevel level : levels) {
      LevelGuard guard(level);
      EXPECT_EQ(expected, LevenshteinDistance(a, b))
          << SimdLevelName(level) << " on \"" << a << "\" (" << a.size()
          << "b) vs \"" << b << "\" (" << b.size() << "b)";
    }
  }
}

/// The register-held short-pattern kernels (<= 16 bytes on SSE4.2, <= 32
/// on AVX2) at their length boundaries, with NUL bytes on both sides so
/// the zero-padded register lanes match text bytes too.
TEST(SimdKernelTest, ShortPatternLevenshteinMatchesNaiveAtBoundaries) {
  Rng rng(20261019);
  const std::vector<SimdLevel> levels = RunnableLevels();
  for (size_t len_a : {1, 2, 15, 16, 17, 31, 32, 33}) {
    for (int iter = 0; iter < 40; ++iter) {
      std::string a = RandomString(&rng, len_a, false);
      std::string b = RandomString(&rng, len_a + rng.NextBounded(20), false);
      if (rng.NextBool(0.5)) {
        a[rng.NextBounded(a.size())] = '\0';
        b[rng.NextBounded(b.size())] = '\0';
      }
      const int expected = NaiveLevenshtein(a, b);
      for (SimdLevel level : levels) {
        LevelGuard guard(level);
        EXPECT_EQ(expected, LevenshteinDistance(a, b))
            << SimdLevelName(level) << " at |a| = " << a.size()
            << ", |b| = " << b.size();
      }
    }
  }
}

TEST(SimdKernelTest, DamerauMatchesNaiveAtEveryLevel) {
  Rng rng(77001);
  for (int iter = 0; iter < 300; ++iter) {
    std::string a = RandomString(&rng, rng.NextBounded(30), false);
    std::string b = a;
    // Transposition-heavy partner: swap adjacent characters, then a few
    // substitutions.
    for (int e = 0; e + 1 < static_cast<int>(b.size()) && e < 6; e += 2) {
      std::swap(b[e], b[e + 1]);
    }
    if (!b.empty() && rng.NextBool(0.5)) {
      b[rng.NextBounded(b.size())] = 'z';
    }
    const int expected = NaiveDamerau(a, b);
    for (SimdLevel level : RunnableLevels()) {
      LevelGuard guard(level);
      EXPECT_EQ(expected, DamerauLevenshteinDistance(a, b))
          << SimdLevelName(level) << " on \"" << a << "\" vs \"" << b << "\"";
    }
  }
}

TEST(SimdKernelTest, BoundedLevenshteinClampsExactly) {
  Rng rng(424242);
  for (int iter = 0; iter < 200; ++iter) {
    std::string a = RandomString(&rng, rng.NextBounded(40), false);
    std::string b = RandomString(&rng, rng.NextBounded(40), false);
    const int exact = NaiveLevenshtein(a, b);
    for (int bound : {0, 1, 2, 5, 100}) {
      const int expected = std::min(exact, bound + 1);
      for (SimdLevel level : RunnableLevels()) {
        LevelGuard guard(level);
        EXPECT_EQ(expected, LevenshteinDistanceBounded(a, b, bound))
            << SimdLevelName(level) << " bound=" << bound << " on \"" << a
            << "\" vs \"" << b << "\"";
        EXPECT_EQ(exact <= bound, LevenshteinWithin(a, b, bound));
      }
    }
  }
  EXPECT_EQ(1, LevenshteinDistanceBounded("abc", "xbc", -3))
      << "negative bound must behave as bound 0";
}

TEST(SimdKernelTest, LevenshteinSimilarityIdentityAndEdges) {
  for (SimdLevel level : RunnableLevels()) {
    LevelGuard guard(level);
    EXPECT_EQ(1.0, LevenshteinSimilarity("", ""));
    EXPECT_EQ(1.0, LevenshteinSimilarity("same", "same"));
    EXPECT_EQ(0.0, LevenshteinSimilarity("", "abcd"));
    EXPECT_EQ(0.75, LevenshteinSimilarity("abcd", "abcx"));
  }
}

/// Sorted-unique id set with controllable density/skew.
std::vector<uint32_t> RandomIdSet(Rng* rng, size_t max_size,
                                  uint32_t universe) {
  std::vector<uint32_t> ids;
  const size_t target = rng->NextBounded(max_size + 1);
  for (size_t i = 0; i < target; ++i) {
    ids.push_back(static_cast<uint32_t>(rng->NextBounded(universe)));
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

TEST(SimdKernelTest, IntersectionMatchesScalarAtEveryLevel) {
  Rng rng(909090);
  const std::vector<SimdLevel> levels = RunnableLevels();
  for (int iter = 0; iter < 500; ++iter) {
    // Mix balanced, skewed (gallop territory), tiny, and disjoint shapes.
    const uint32_t universe = 1 + static_cast<uint32_t>(rng.NextBounded(500));
    std::vector<uint32_t> a = RandomIdSet(&rng, 40, universe);
    std::vector<uint32_t> b =
        rng.NextBool(0.3) ? RandomIdSet(&rng, 400, universe)
                          : RandomIdSet(&rng, 40, universe);
    if (rng.NextBool(0.1)) {
      // Disjoint by construction: shift b's ids past a's universe.
      for (uint32_t& id : b) id += universe;
    }
    const size_t expected = internal::IntersectSortedU32CountScalar(
        a.data(), a.size(), b.data(), b.size());
    for (SimdLevel level : levels) {
      LevelGuard guard(level);
      EXPECT_EQ(expected, IntersectSortedU32Count(a.data(), a.size(),
                                                  b.data(), b.size()))
          << SimdLevelName(level) << " |a|=" << a.size()
          << " |b|=" << b.size();
      // The dispatcher swaps sides internally; symmetry must hold too.
      EXPECT_EQ(expected, IntersectSortedU32Count(b.data(), b.size(),
                                                  a.data(), a.size()));
    }
  }
}

TEST(SimdKernelTest, BitsetIntersectMatchesPopcountLoop) {
  Rng rng(31337);
  for (int iter = 0; iter < 200; ++iter) {
    const size_t words_a = 1 + rng.NextBounded(16);
    const size_t words_b = 1 + rng.NextBounded(16);
    std::vector<uint64_t> a(words_a), b(words_b);
    for (auto& w : a) w = rng.Next();
    for (auto& w : b) w = rng.Next();
    // Callers intersect over min(words): the shorter side's universe.
    const size_t words = std::min(words_a, words_b);
    size_t expected = 0;
    for (size_t i = 0; i < words; ++i) {
      expected += static_cast<size_t>(std::popcount(a[i] & b[i]));
    }
    EXPECT_EQ(expected, BitsetIntersectCount(a.data(), b.data(), words));
  }
  EXPECT_EQ(0u, BitsetIntersectCount(nullptr, nullptr, 0));
}

/// SymmetricMongeElkan reuses one inner-similarity matrix for both
/// directions, which is only exact because the Jaro inner is symmetric.
/// This pins that assumption.
TEST(SimdKernelTest, JaroIsSymmetric) {
  Rng rng(5150);
  for (int iter = 0; iter < 300; ++iter) {
    std::string a = RandomString(&rng, rng.NextBounded(20), false);
    std::string b = RandomString(&rng, rng.NextBounded(20), false);
    EXPECT_EQ(JaroSimilarity(a, b), JaroSimilarity(b, a))
        << "\"" << a << "\" vs \"" << b << "\"";
  }
  EXPECT_EQ(JaroSimilarity("abab", "baba"), JaroSimilarity("baba", "abab"));
}

TEST(SimdKernelTest, TfIdfSortedAgreesWithLegacyTransform) {
  std::vector<std::vector<std::string>> corpus = {
      {"deep", "entity", "matching", "survey"},
      {"fairness", "entity", "matching"},
      {"query", "processing", "survey"},
      {"deep", "learning", "for", "matching"},
  };
  TfIdfVectorizer v;
  v.Fit(corpus);
  for (const auto& da : corpus) {
    SortedSparseVector sa = v.TransformSorted(da);
    ASSERT_TRUE(std::is_sorted(sa.ids.begin(), sa.ids.end()));
    for (const auto& db : corpus) {
      const double legacy = TfIdfVectorizer::Cosine(v.Transform(da),
                                                    v.Transform(db));
      const double merged =
          TfIdfVectorizer::CosineSorted(sa, v.TransformSorted(db));
      // The two layouts accumulate in different orders; equality is only
      // up to float rounding (tfidf is not a dispatch-gated grid measure).
      EXPECT_NEAR(legacy, merged, 1e-12);
      EXPECT_EQ(merged, v.Similarity(da, db));
    }
  }
  EXPECT_EQ(0.0, v.Similarity({"outofvocab"}, corpus[0]));
  EXPECT_EQ(0.0, v.Similarity({}, corpus[0]));
}

TEST(SimdKernelTest, TelemetryCountersAdvance) {
  FlushSimdTelemetry();
  Counter* kernel_calls =
      MetricsRegistry::Global().GetCounter("fairem.simd.kernel_calls");
  Counter* scratch_reuses =
      MetricsRegistry::Global().GetCounter("fairem.simd.scratch_reuses");
  const uint64_t calls_before = kernel_calls->value();
  const uint64_t reuses_before = scratch_reuses->value();
  {
    // Force a vector-capable tier so the counted paths run even when the
    // suite executes under FAIREM_SIMD=off.
    LevelGuard guard(SimdLevel::kPortable);
    std::string a(80, 'a'), b(80, 'b');
    a[40] = 'x';
    for (int i = 0; i < 200; ++i) {
      (void)LevenshteinDistance(a, b);
      (void)JaroSimilarity("jonathan smith", "johnathan smyth");
    }
  }
  FlushSimdTelemetry();
  EXPECT_GT(kernel_calls->value(), calls_before);
  EXPECT_GT(scratch_reuses->value(), reuses_before)
      << "repeated kernel calls on one thread must reuse the scratch arena";
  // The flush also pins the dispatch gauge to whatever is active now
  // (detection restored by the guard above).
  FlushSimdTelemetry();
  EXPECT_EQ(static_cast<double>(static_cast<int>(ActiveSimdLevel())),
            MetricsRegistry::Global()
                .GetGauge("fairem.simd.dispatch_level")
                ->value());
}

TEST(SimdKernelTest, LevelNamesAreStable) {
  EXPECT_STREQ("scalar", SimdLevelName(SimdLevel::kScalar));
  EXPECT_STREQ("portable", SimdLevelName(SimdLevel::kPortable));
  EXPECT_STREQ("sse4.2", SimdLevelName(SimdLevel::kSse42));
  EXPECT_STREQ("avx2", SimdLevelName(SimdLevel::kAvx2));
  EXPECT_STREQ("neon", SimdLevelName(SimdLevel::kNeon));
}

}  // namespace
}  // namespace fairem
