#include "src/text/edit_distance.h"

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <vector>

#include "src/text/kernel_scratch.h"
#include "src/text/simd.h"

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>

#include <cstring>
#define FAIREM_EDIT_X86 1
#endif

namespace fairem {
namespace {

/// Drops the common prefix and suffix — positions the optimal alignment
/// matches for free. Exact for Levenshtein (every edit script on the
/// trimmed middle extends to one on the full strings and vice versa); NOT
/// applied to Damerau, where a transposition could straddle the trim
/// boundary.
void TrimCommonAffixes(std::string_view* a, std::string_view* b) {
  size_t prefix = 0;
  const size_t limit = std::min(a->size(), b->size());
  while (prefix < limit && (*a)[prefix] == (*b)[prefix]) ++prefix;
  a->remove_prefix(prefix);
  b->remove_prefix(prefix);
  size_t suffix = 0;
  const size_t limit2 = std::min(a->size(), b->size());
  while (suffix < limit2 &&
         (*a)[a->size() - 1 - suffix] == (*b)[b->size() - 1 - suffix]) {
    ++suffix;
  }
  a->remove_suffix(suffix);
  b->remove_suffix(suffix);
}

/// Myers' bit-parallel edit distance (Myers 1999) for one pattern of
/// <= 64 characters: the DP column lives in two machine words of vertical
/// deltas (Pv = +1 positions, Mv = -1 positions) and each text character
/// costs a handful of word ops instead of |pattern| cell updates. Step()
/// consumes one text character given its pattern match mask `eq`.
class MyersWord {
 public:
  explicit MyersWord(int m) : score_(m), last_(uint64_t{1} << (m - 1)) {}

  void Step(uint64_t eq) {
    const uint64_t xv = eq | mv_;
    const uint64_t xh = (((eq & pv_) + pv_) ^ pv_) | eq;
    uint64_t ph = mv_ | ~(xh | pv_);
    uint64_t mh = pv_ & xh;
    if (ph & last_) {
      ++score_;
    } else if (mh & last_) {
      --score_;
    }
    ph = (ph << 1) | 1;  // the boundary row D[0][j] = j grows every column
    mh <<= 1;
    pv_ = mh | ~(xv | ph);
    mv_ = ph & xv;
  }

  int score() const { return score_; }

 private:
  uint64_t pv_ = ~uint64_t{0};
  uint64_t mv_ = 0;
  int score_;
  const uint64_t last_;
};

/// Single-word Myers with the match masks in a Peq table.
int MyersSingleWord(std::string_view pattern, std::string_view text) {
  const int m = static_cast<int>(pattern.size());
  PeqTable peq = KernelScratch::Get().BorrowPeq(1);
  for (int i = 0; i < m; ++i) {
    peq.Set(static_cast<unsigned char>(pattern[i]), 0, uint64_t{1} << i);
  }
  MyersWord myers(m);
  for (char tc : text) {
    myers.Step(peq.Row(static_cast<unsigned char>(tc), 0));
  }
  return myers.score();
}

#if defined(FAIREM_EDIT_X86)
/// Single-word Myers for patterns of <= 16 bytes with no Peq table: the
/// pattern sits in one register and a text byte's match mask is one
/// broadcast compare + movemask, the Peq row plus garbage bits from the
/// zero padding when the text byte is NUL. Those bits sit above the
/// pattern's last bit, so they cannot reach it: the recurrence's one
/// addition carries upward only (as in the blocked kernel's partial last
/// block). Short attribute values — names, venues — are the common case,
/// and for them building and clearing the table cost more than the
/// recurrence itself.
__attribute__((target("sse4.2"))) int MyersShortSse(std::string_view pattern,
                                                     std::string_view text) {
  alignas(16) char buf[16] = {};
  std::memcpy(buf, pattern.data(), pattern.size());
  const __m128i p = _mm_load_si128(reinterpret_cast<const __m128i*>(buf));
  MyersWord myers(static_cast<int>(pattern.size()));
  for (char tc : text) {
    const uint32_t eq = static_cast<uint32_t>(
        _mm_movemask_epi8(_mm_cmpeq_epi8(p, _mm_set1_epi8(tc))));
    myers.Step(eq);
  }
  return myers.score();
}

/// MyersShortSse for patterns of <= 32 bytes in one AVX2 register.
__attribute__((target("avx2"))) int MyersShortAvx2(std::string_view pattern,
                                                   std::string_view text) {
  alignas(32) char buf[32] = {};
  std::memcpy(buf, pattern.data(), pattern.size());
  const __m256i p = _mm256_load_si256(reinterpret_cast<const __m256i*>(buf));
  MyersWord myers(static_cast<int>(pattern.size()));
  for (char tc : text) {
    const uint32_t eq = static_cast<uint32_t>(
        _mm256_movemask_epi8(_mm256_cmpeq_epi8(p, _mm256_set1_epi8(tc))));
    myers.Step(eq);
  }
  return myers.score();
}
#endif

/// One 64-row block of the blocked Myers recurrence (Hyyrö's AdvanceBlock):
/// consumes the horizontal delta `hin` entering from the block above,
/// returns the delta leaving through `out_mask` (bit 63 for full blocks,
/// bit (m-1) % 64 for the partial last block). Bits past the pattern end in
/// the last block carry garbage, which is harmless: every operation is
/// bitwise except one addition, and carries only propagate upward.
inline int AdvanceBlock(uint64_t* pv, uint64_t* mv, uint64_t eq, int hin,
                        uint64_t out_mask) {
  const uint64_t xv = eq | *mv;
  if (hin < 0) eq |= 1;
  const uint64_t xh = (((eq & *pv) + *pv) ^ *pv) | eq;
  uint64_t ph = *mv | ~(xh | *pv);
  uint64_t mh = *pv & xh;
  int hout = 0;
  if (ph & out_mask) {
    hout = 1;
  } else if (mh & out_mask) {
    hout = -1;
  }
  ph <<= 1;
  mh <<= 1;
  if (hin > 0) {
    ph |= 1;
  } else if (hin < 0) {
    mh |= 1;
  }
  *pv = mh | ~(xv | ph);
  *mv = ph & xv;
  return hout;
}

/// Blocked Myers for patterns longer than a word: ceil(m/64) vertical-delta
/// word pairs, with the horizontal delta threaded block to block. Still
/// O(|text| * blocks) words of work vs. O(n * m) cells for the DP.
int MyersBlocked(std::string_view pattern, std::string_view text) {
  const size_t m = pattern.size();
  const size_t blocks = (m + 63) / 64;
  KernelScratch& scratch = KernelScratch::Get();
  PeqTable peq = scratch.BorrowPeq(blocks);
  for (size_t i = 0; i < m; ++i) {
    peq.Set(static_cast<unsigned char>(pattern[i]), i >> 6,
            uint64_t{1} << (i & 63));
  }
  std::vector<uint64_t>& pv = scratch.U64Buf(0, blocks);
  std::vector<uint64_t>& mv = scratch.U64Buf(1, blocks);
  std::fill_n(pv.begin(), blocks, ~uint64_t{0});
  std::fill_n(mv.begin(), blocks, uint64_t{0});
  int score = static_cast<int>(m);
  const size_t last_block = blocks - 1;
  const uint64_t last_bit = uint64_t{1} << ((m - 1) & 63);
  for (char tc : text) {
    const unsigned char c = static_cast<unsigned char>(tc);
    int carry = 1;  // boundary row D[0][j] = j: +1 into the top block
    for (size_t blk = 0; blk < blocks; ++blk) {
      const uint64_t out_mask =
          blk == last_block ? last_bit : (uint64_t{1} << 63);
      carry = AdvanceBlock(&pv[blk], &mv[blk], peq.Row(c, blk), carry,
                           out_mask);
    }
    score += carry;
  }
  return score;
}

}  // namespace

int LevenshteinDistance(std::string_view a, std::string_view b) {
  if (a == b) return 0;  // covers the both-empty case
  if (ActiveSimdLevel() == SimdLevel::kScalar) {
    return internal::LevenshteinDistanceScalar(a, b);
  }
  TrimCommonAffixes(&a, &b);
  if (a.empty()) return static_cast<int>(b.size());
  if (b.empty()) return static_cast<int>(a.size());
  if (a.size() > b.size()) std::swap(a, b);  // fewer blocks: pattern = shorter
  CountSimdKernelCalls();
#if defined(FAIREM_EDIT_X86)
  const SimdLevel level = ActiveSimdLevel();
  if (level == SimdLevel::kSse42 || level == SimdLevel::kAvx2) {
    if (a.size() <= 16) return MyersShortSse(a, b);
    if (a.size() <= 32 && level == SimdLevel::kAvx2) {
      return MyersShortAvx2(a, b);
    }
  }
#endif
  return a.size() <= 64 ? MyersSingleWord(a, b) : MyersBlocked(a, b);
}

double LevenshteinSimilarity(std::string_view a, std::string_view b) {
  size_t max_len = std::max(a.size(), b.size());
  if (max_len == 0) return 1.0;
  return 1.0 - static_cast<double>(LevenshteinDistance(a, b)) /
                   static_cast<double>(max_len);
}

int LevenshteinDistanceBounded(std::string_view a, std::string_view b,
                               int bound) {
  if (bound < 0) bound = 0;
  if (a == b) return 0;
  TrimCommonAffixes(&a, &b);
  const int n = static_cast<int>(a.size());
  const int m = static_cast<int>(b.size());
  if (std::abs(n - m) > bound) return bound + 1;  // dist >= |n - m| always
  if (n == 0) return m;
  if (m == 0) return n;
  const int inf = bound + 1;
  KernelScratch& scratch = KernelScratch::Get();
  std::vector<int>& prev = scratch.IntRow(0, static_cast<size_t>(m) + 1);
  std::vector<int>& cur = scratch.IntRow(1, static_cast<size_t>(m) + 1);
  for (int j = 0; j <= std::min(m, bound); ++j) prev[j] = j;
  for (int i = 1; i <= n; ++i) {
    const int lo = std::max(1, i - bound);
    const int hi = std::min(m, i + bound);
    cur[lo - 1] = lo == 1 ? i : inf;
    int row_best = inf;
    for (int j = lo; j <= hi; ++j) {
      const int cost = a[i - 1] == b[j - 1] ? 0 : 1;
      int best = prev[j - 1] + cost;
      best = std::min(best, cur[j - 1] + 1);
      // prev[j] sits outside row i-1's band exactly when j == i + bound.
      if (j < i + bound) best = std::min(best, prev[j] + 1);
      best = std::min(best, inf);
      cur[j] = best;
      row_best = std::min(row_best, best);
    }
    if (row_best >= inf) return inf;  // whole band over bound: give up early
    std::swap(prev, cur);
  }
  return std::min(prev[m], inf);
}

bool LevenshteinWithin(std::string_view a, std::string_view b, int bound) {
  return LevenshteinDistanceBounded(a, b, bound) <= bound;
}

int DamerauLevenshteinDistance(std::string_view a, std::string_view b) {
  const size_t n = a.size();
  const size_t m = b.size();
  if (a == b) return 0;
  if (n == 0) return static_cast<int>(m);
  if (m == 0) return static_cast<int>(n);
  // Rolling three-row buffer (cur / prev / prev-prev): the restricted
  // transposition only ever reads two rows back, so the old full O(n * m)
  // matrix was pure allocation overhead.
  KernelScratch& scratch = KernelScratch::Get();
  std::vector<int>& prev2 = scratch.IntRow(0, m + 1);
  std::vector<int>& prev = scratch.IntRow(1, m + 1);
  std::vector<int>& cur = scratch.IntRow(2, m + 1);
  for (size_t j = 0; j <= m; ++j) prev[j] = static_cast<int>(j);
  for (size_t i = 1; i <= n; ++i) {
    cur[0] = static_cast<int>(i);
    for (size_t j = 1; j <= m; ++j) {
      int cost = (a[i - 1] == b[j - 1]) ? 0 : 1;
      cur[j] =
          std::min({prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + cost});
      if (i > 1 && j > 1 && a[i - 1] == b[j - 2] && a[i - 2] == b[j - 1]) {
        cur[j] = std::min(cur[j], prev2[j - 2] + 1);
      }
    }
    std::swap(prev2, prev);  // row i-1 becomes next iteration's "two back"
    std::swap(prev, cur);    // row i becomes "one back"; cur is free scratch
  }
  return prev[m];
}

int HammingDistance(std::string_view a, std::string_view b) {
  size_t common = std::min(a.size(), b.size());
  int dist = static_cast<int>(std::max(a.size(), b.size()) - common);
  for (size_t i = 0; i < common; ++i) {
    if (a[i] != b[i]) ++dist;
  }
  return dist;
}

double HammingSimilarity(std::string_view a, std::string_view b) {
  size_t max_len = std::max(a.size(), b.size());
  if (max_len == 0) return 1.0;
  return 1.0 - static_cast<double>(HammingDistance(a, b)) /
                   static_cast<double>(max_len);
}

double JaroSimilarity(std::string_view a, std::string_view b) {
  if (a.empty() && b.empty()) return 1.0;
  if (a.empty() || b.empty()) return 0.0;
  if (a == b) return 1.0;
  const int n = static_cast<int>(a.size());
  const int m = static_cast<int>(b.size());
  const int window = std::max(0, std::max(n, m) / 2 - 1);
  KernelScratch& scratch = KernelScratch::Get();
  std::vector<uint8_t>& a_matched = scratch.ByteRow(0, a.size());
  std::vector<uint8_t>& b_matched = scratch.ByteRow(1, b.size());
  std::fill_n(a_matched.begin(), a.size(), uint8_t{0});
  std::fill_n(b_matched.begin(), b.size(), uint8_t{0});
  int matches = 0;
  for (int i = 0; i < n; ++i) {
    int lo = std::max(0, i - window);
    int hi = std::min(m - 1, i + window);
    for (int j = lo; j <= hi; ++j) {
      if (!b_matched[j] && a[i] == b[j]) {
        a_matched[i] = 1;
        b_matched[j] = 1;
        ++matches;
        break;
      }
    }
  }
  if (matches == 0) return 0.0;
  // Count transpositions between the matched subsequences.
  int transpositions = 0;
  int k = 0;
  for (int i = 0; i < n; ++i) {
    if (!a_matched[i]) continue;
    while (!b_matched[k]) ++k;
    if (a[i] != b[k]) ++transpositions;
    ++k;
  }
  double mm = matches;
  return (mm / n + mm / m + (mm - transpositions / 2.0) / mm) / 3.0;
}

double JaroWinklerSimilarity(std::string_view a, std::string_view b) {
  double jaro = JaroSimilarity(a, b);
  int prefix = 0;
  size_t limit = std::min({a.size(), b.size(), static_cast<size_t>(4)});
  for (size_t i = 0; i < limit && a[i] == b[i]; ++i) ++prefix;
  constexpr double kScaling = 0.1;
  return jaro + prefix * kScaling * (1.0 - jaro);
}

double NeedlemanWunschSimilarity(std::string_view a, std::string_view b) {
  const size_t n = a.size();
  const size_t m = b.size();
  if (n == 0 && m == 0) return 1.0;
  constexpr int kMatch = 1;
  constexpr int kMismatch = -1;
  constexpr int kGap = -1;
  KernelScratch& scratch = KernelScratch::Get();
  std::vector<int>& prev = scratch.IntRow(0, m + 1);
  std::vector<int>& cur = scratch.IntRow(1, m + 1);
  for (size_t j = 0; j <= m; ++j) prev[j] = static_cast<int>(j) * kGap;
  for (size_t i = 1; i <= n; ++i) {
    cur[0] = static_cast<int>(i) * kGap;
    for (size_t j = 1; j <= m; ++j) {
      int sub = prev[j - 1] + (a[i - 1] == b[j - 1] ? kMatch : kMismatch);
      cur[j] = std::max({sub, prev[j] + kGap, cur[j - 1] + kGap});
    }
    std::swap(prev, cur);
  }
  double max_len = static_cast<double>(std::max(n, m));
  // Score lies in [-max_len * 1, max_len * kMatch]; map to [0, 1].
  double score = static_cast<double>(prev[m]);
  return std::clamp((score / max_len + 1.0) / 2.0, 0.0, 1.0);
}

double SmithWatermanSimilarity(std::string_view a, std::string_view b) {
  const size_t n = a.size();
  const size_t m = b.size();
  if (n == 0 && m == 0) return 1.0;
  if (n == 0 || m == 0) return 0.0;
  constexpr int kMatch = 2;
  constexpr int kMismatch = -1;
  constexpr int kGap = -1;
  KernelScratch& scratch = KernelScratch::Get();
  std::vector<int>& prev = scratch.IntRow(0, m + 1);
  std::vector<int>& cur = scratch.IntRow(1, m + 1);
  std::fill_n(prev.begin(), m + 1, 0);
  int best = 0;
  for (size_t i = 1; i <= n; ++i) {
    cur[0] = 0;
    for (size_t j = 1; j <= m; ++j) {
      int sub = prev[j - 1] + (a[i - 1] == b[j - 1] ? kMatch : kMismatch);
      cur[j] = std::max({0, sub, prev[j] + kGap, cur[j - 1] + kGap});
      best = std::max(best, cur[j]);
    }
    std::swap(prev, cur);
  }
  double denom = static_cast<double>(kMatch) * std::min(n, m);
  return std::clamp(static_cast<double>(best) / denom, 0.0, 1.0);
}

double PrefixSimilarity(std::string_view a, std::string_view b) {
  size_t max_len = std::max(a.size(), b.size());
  if (max_len == 0) return 1.0;
  size_t common = std::min(a.size(), b.size());
  size_t prefix = 0;
  while (prefix < common && a[prefix] == b[prefix]) ++prefix;
  return static_cast<double>(prefix) / static_cast<double>(max_len);
}

double ExactMatchSimilarity(std::string_view a, std::string_view b) {
  return a == b ? 1.0 : 0.0;
}

namespace internal {

int LevenshteinDistanceScalar(std::string_view a, std::string_view b) {
  const size_t n = a.size();
  const size_t m = b.size();
  if (n == 0) return static_cast<int>(m);
  if (m == 0) return static_cast<int>(n);
  std::vector<int> prev(m + 1);
  std::vector<int> cur(m + 1);
  for (size_t j = 0; j <= m; ++j) prev[j] = static_cast<int>(j);
  for (size_t i = 1; i <= n; ++i) {
    cur[0] = static_cast<int>(i);
    for (size_t j = 1; j <= m; ++j) {
      int cost = (a[i - 1] == b[j - 1]) ? 0 : 1;
      cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + cost});
    }
    std::swap(prev, cur);
  }
  return prev[m];
}

}  // namespace internal

}  // namespace fairem
