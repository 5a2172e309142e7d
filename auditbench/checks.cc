#include "auditbench/checks.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <optional>
#include <set>
#include <string_view>

namespace auditbench {
namespace {

using fairem::AuditEntry;
using fairem::AuditOptions;
using fairem::AuditReference;
using fairem::AuditReport;
using fairem::EMDataset;
using fairem::FairnessMeasure;
using fairem::SensitiveAttrKind;
using fairem::Table;

struct Counts {
  int64_t tp = 0, fp = 0, tn = 0, fn = 0;
  int64_t total() const { return tp + fp + tn + fn; }
  void Add(bool predicted, bool truth) {
    if (predicted && truth) ++tp;
    if (predicted && !truth) ++fp;
    if (!predicted && truth) ++fn;
    if (!predicted && !truth) ++tn;
  }
};

std::string Describe(const Counts& c) {
  return "tp=" + std::to_string(c.tp) + " fp=" + std::to_string(c.fp) +
         " tn=" + std::to_string(c.tn) + " fn=" + std::to_string(c.fn);
}

bool Same(const Counts& a, const fairem::ConfusionCounts& b) {
  return a.tp == b.tp && a.fp == b.fp && a.tn == b.tn && a.fn == b.fn;
}

std::string_view Trim(std::string_view s) {
  const char* space = " \t\r\n\f\v";
  size_t begin = s.find_first_not_of(space);
  if (begin == std::string_view::npos) return {};
  size_t end = s.find_last_not_of(space);
  return s.substr(begin, end - begin + 1);
}

// Level-1 groups of one cell: the trimmed value, or for setwise attributes
// every non-empty trimmed part between separators.
std::vector<std::string> CellGroups(std::string_view cell, bool setwise,
                                    char separator) {
  std::vector<std::string> out;
  cell = Trim(cell);
  if (cell.empty()) return out;
  if (!setwise) {
    out.emplace_back(cell);
    return out;
  }
  size_t start = 0;
  while (start <= cell.size()) {
    size_t stop = cell.find(separator, start);
    if (stop == std::string_view::npos) stop = cell.size();
    std::string_view part = Trim(cell.substr(start, stop - start));
    if (!part.empty()) out.emplace_back(part);
    start = stop + 1;
  }
  return out;
}

bool ReadGroups(const Table& table, const EMDataset& dataset,
                std::vector<std::vector<std::string>>* rows,
                std::string* error) {
  const auto& names = table.schema().names();
  size_t col = 0;
  bool found = false;
  for (size_t c = 0; c < names.size(); ++c) {
    if (names[c] == dataset.sensitive_attr) {
      col = c;
      found = true;
    }
  }
  if (!found) {
    *error = "sensitive attribute '" + dataset.sensitive_attr +
             "' missing from table " + table.name();
    return false;
  }
  const bool setwise = dataset.sensitive_kind == SensitiveAttrKind::kSetwise;
  rows->resize(table.num_rows());
  for (size_t r = 0; r < table.num_rows(); ++r) {
    if (table.IsNull(r, col)) continue;
    (*rows)[r] = CellGroups(table.value(r, col), setwise,
                            dataset.setwise_separator);
  }
  return true;
}

bool Has(const std::vector<int>& ids, int g) {
  return std::find(ids.begin(), ids.end(), g) != ids.end();
}

bool Predicted(double score, double threshold) { return score >= threshold; }

// The four recomputed measures, with their statistic and direction.
struct Recomputed {
  FairnessMeasure measure;
  bool lower_better;
  std::optional<double> (*statistic)(const Counts&);
};

std::optional<double> Ratio(int64_t num, int64_t den) {
  if (den == 0) return std::nullopt;
  return static_cast<double>(num) / static_cast<double>(den);
}

const Recomputed kRecomputed[] = {
    {FairnessMeasure::kTruePositiveRateParity, false,
     [](const Counts& c) { return Ratio(c.tp, c.tp + c.fn); }},
    {FairnessMeasure::kFalsePositiveRateParity, true,
     [](const Counts& c) { return Ratio(c.fp, c.fp + c.tn); }},
    {FairnessMeasure::kPositivePredictiveValueParity, false,
     [](const Counts& c) { return Ratio(c.tp, c.tp + c.fp); }},
    {FairnessMeasure::kAccuracyParity, false,
     [](const Counts& c) { return Ratio(c.tp + c.tn, c.total()); }},
};

bool Close(double a, double b) { return std::fabs(a - b) <= 1e-12; }

}  // namespace

bool GroupIndex::Build(const EMDataset& dataset, GroupIndex* out,
                       std::string* error) {
  std::vector<std::vector<std::string>> left, right;
  if (!ReadGroups(dataset.table_a, dataset, &left, error) ||
      !ReadGroups(dataset.table_b, dataset, &right, error)) {
    return false;
  }
  std::set<std::string> universe;
  for (const auto* side : {&left, &right}) {
    for (const auto& row : *side) universe.insert(row.begin(), row.end());
  }
  out->groups.assign(universe.begin(), universe.end());
  auto to_ids = [&](const std::vector<std::vector<std::string>>& rows,
                    std::vector<std::vector<int>>* ids) {
    ids->assign(rows.size(), {});
    for (size_t r = 0; r < rows.size(); ++r) {
      for (const std::string& g : rows[r]) {
        auto it = std::lower_bound(out->groups.begin(), out->groups.end(), g);
        (*ids)[r].push_back(static_cast<int>(it - out->groups.begin()));
      }
    }
  };
  to_ids(left, &out->left);
  to_ids(right, &out->right);
  return true;
}

std::string CheckScores(const EMDataset& dataset,
                        const std::vector<double>& scores) {
  if (scores.size() != dataset.test.size()) {
    return "expected " + std::to_string(dataset.test.size()) +
           " scores, got " + std::to_string(scores.size());
  }
  for (size_t i = 0; i < scores.size(); ++i) {
    if (!std::isfinite(scores[i]) || scores[i] < 0.0 || scores[i] > 1.0) {
      return "score " + std::to_string(i) + " = " +
             std::to_string(scores[i]) + " is not a finite value in [0, 1]";
    }
  }
  return "";
}

std::string CheckCounts(const EMDataset& dataset, const GroupIndex& index,
                        const std::vector<double>& scores,
                        const fairem::ConfusionCounts& overall,
                        const std::vector<fairem::GroupRates>& breakdown) {
  if (scores.size() != dataset.test.size()) return "score count mismatch";
  const double threshold = dataset.default_threshold;
  Counts all;
  std::vector<Counts> per_group(index.groups.size());
  for (size_t i = 0; i < scores.size(); ++i) {
    const fairem::LabeledPair& p = dataset.test[i];
    const bool h = Predicted(scores[i], threshold);
    all.Add(h, p.is_match);
    for (size_t g = 0; g < index.groups.size(); ++g) {
      const int id = static_cast<int>(g);
      if (Has(index.left[p.left], id) || Has(index.right[p.right], id)) {
        per_group[g].Add(h, p.is_match);
      }
    }
  }
  if (!Same(all, overall)) {
    return "overall counts differ: recounted " + Describe(all);
  }
  if (breakdown.size() != index.groups.size()) {
    return "breakdown has " + std::to_string(breakdown.size()) +
           " groups, recount has " + std::to_string(index.groups.size());
  }
  for (const fairem::GroupRates& rates : breakdown) {
    auto it = std::lower_bound(index.groups.begin(), index.groups.end(),
                               rates.group);
    if (it == index.groups.end() || *it != rates.group) {
      return "breakdown names unknown group '" + rates.group + "'";
    }
    const Counts& mine = per_group[static_cast<size_t>(it - index.groups.begin())];
    if (!Same(mine, rates.counts)) {
      return "group '" + rates.group + "' counts differ: recounted " +
             Describe(mine);
    }
  }
  return "";
}

std::string CheckParity(const EMDataset& dataset, const GroupIndex& index,
                        const std::vector<double>& scores,
                        const AuditReport& report, bool pairwise,
                        const AuditOptions& options) {
  if (scores.size() != dataset.test.size()) return "score count mismatch";
  // Every audited label with its (group, reference) counts.
  struct Label {
    Counts group;
    Counts reference;
  };
  std::map<std::string, Label> labels;
  const size_t n = index.groups.size();
  Counts all;
  std::vector<Counts> cells(pairwise ? n * n : n);
  for (size_t i = 0; i < scores.size(); ++i) {
    const fairem::LabeledPair& p = dataset.test[i];
    const bool h = Predicted(scores[i], dataset.default_threshold);
    all.Add(h, p.is_match);
    const std::vector<int>& l = index.left[p.left];
    const std::vector<int>& r = index.right[p.right];
    for (size_t a = 0; a < n; ++a) {
      const int ga = static_cast<int>(a);
      if (!pairwise) {
        if (Has(l, ga) || Has(r, ga)) cells[a].Add(h, p.is_match);
        continue;
      }
      for (size_t b = a; b < n; ++b) {
        const int gb = static_cast<int>(b);
        if ((Has(l, ga) && Has(r, gb)) || (Has(l, gb) && Has(r, ga))) {
          cells[a * n + b].Add(h, p.is_match);
        }
      }
    }
  }
  auto add_label = [&](const std::string& name, const Counts& group) {
    Label label;
    label.group = group;
    if (options.reference == AuditReference::kComplement) {
      label.reference.tp = all.tp - group.tp;
      label.reference.fp = all.fp - group.fp;
      label.reference.tn = all.tn - group.tn;
      label.reference.fn = all.fn - group.fn;
    } else {
      label.reference = all;
    }
    labels[name] = label;
  };
  for (size_t a = 0; a < n; ++a) {
    if (!pairwise) {
      add_label(index.groups[a], cells[a]);
      continue;
    }
    for (size_t b = a; b < n; ++b) {
      add_label(index.groups[a] + " | " + index.groups[b], cells[a * n + b]);
    }
  }

  size_t compared = 0;
  for (const AuditEntry& entry : report.entries) {
    const Recomputed* rec = nullptr;
    for (const Recomputed& r : kRecomputed) {
      if (r.measure == entry.measure) rec = &r;
    }
    if (rec == nullptr) continue;
    auto it = labels.find(entry.group_label);
    const std::string where = "'" + entry.group_label + "' " +
                              fairem::FairnessMeasureName(entry.measure);
    if (it == labels.end()) return "report audits unknown label " + where;
    ++compared;
    const Label& label = it->second;
    std::optional<double> g = rec->statistic(label.group);
    std::optional<double> ref = rec->statistic(label.reference);
    const bool defined = g.has_value() && ref.has_value();
    if (defined != entry.defined) {
      return where + ": defined flag differs from the recount";
    }
    if (!defined) {
      if (entry.unfair) return where + ": undefined entry flagged unfair";
      continue;
    }
    const double signed_disparity = rec->lower_better ? *g - *ref : *ref - *g;
    const double disparity = std::max(0.0, signed_disparity);
    const bool unfair = label.group.total() >= options.min_group_pairs &&
                        disparity > options.fairness_threshold &&
                        std::fabs(*g - *ref) > options.min_absolute_gap;
    if (!Close(*g, entry.group_value) || !Close(*ref, entry.overall_value) ||
        !Close(disparity, entry.disparity)) {
      return where + ": statistic or disparity differs from the recount";
    }
    if (entry.group_pairs != label.group.total()) {
      return where + ": group pair count differs from the recount";
    }
    if (unfair != entry.unfair) {
      return where + ": unfair flag differs from the recount";
    }
  }
  const size_t want = labels.size() * (sizeof(kRecomputed) /
                                       sizeof(kRecomputed[0]));
  if (compared != want) {
    return "report has " + std::to_string(compared) +
           " TPRP/FPRP/PPVP/AP entries, recount expects " +
           std::to_string(want);
  }
  return "";
}

std::string CheckF1(const EMDataset& dataset,
                    const std::vector<double>& scores,
                    const fairem::ConfusionCounts& overall, double floor) {
  Counts c;
  for (size_t i = 0; i < scores.size() && i < dataset.test.size(); ++i) {
    c.Add(Predicted(scores[i], dataset.default_threshold),
          dataset.test[i].is_match);
  }
  const int64_t den = 2 * c.tp + c.fp + c.fn;
  const double f1 = den == 0 ? 0.0 : 2.0 * c.tp / static_cast<double>(den);
  fairem::Result<double> lib = fairem::F1Score(overall);
  if (!lib.ok() || !Close(*lib, f1)) {
    return "library F1 differs from the recount " + std::to_string(f1);
  }
  if (!(f1 >= floor)) {
    return "F1 " + std::to_string(f1) + " is below the floor " +
           std::to_string(floor);
  }
  return "";
}

std::string CheckSameBytes(const std::string& what, const std::string& want,
                           const std::string& got) {
  if (want == got) return "";
  size_t at = 0;
  while (at < want.size() && at < got.size() && want[at] == got[at]) ++at;
  return what + " differs at byte " + std::to_string(at) + " (" +
         std::to_string(want.size()) + " vs " + std::to_string(got.size()) +
         " bytes)";
}

}  // namespace auditbench
