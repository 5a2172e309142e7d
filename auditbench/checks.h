#ifndef FAIREM_AUDITBENCH_CHECKS_H_
#define FAIREM_AUDITBENCH_CHECKS_H_

// Correctness checks of the benchmark, computed apart from the library:
// group membership is re-read from the raw sensitive-attribute cells,
// confusion counts are recounted from the scores and the dataset's default
// threshold, and the TPR, FPR, PPV and accuracy parity entries are
// recomputed with the subtraction disparity against the audit's reference.
// Every check returns an empty string when it passes and a one-line reason
// when it fails.

#include <string>
#include <vector>

#include "src/core/audit.h"
#include "src/data/dataset.h"
#include "src/harness/experiment.h"
#include "src/ml/metrics.h"

namespace auditbench {

/// Group ids of every record of both tables, parsed from the raw cells.
struct GroupIndex {
  std::vector<std::string> groups;  // sorted universe
  std::vector<std::vector<int>> left;   // per table_a row
  std::vector<std::vector<int>> right;  // per table_b row

  /// Fails (returns false and sets `error`) when the attribute is missing.
  static bool Build(const fairem::EMDataset& dataset, GroupIndex* out,
                    std::string* error);
};

/// Every score is finite and inside [0, 1]; one score per test pair.
std::string CheckScores(const fairem::EMDataset& dataset,
                        const std::vector<double>& scores);

/// Overall counts and per-group (single fairness) counts, recounted from
/// `scores`, must equal the library's `overall` and `breakdown`.
std::string CheckCounts(const fairem::EMDataset& dataset,
                        const GroupIndex& index,
                        const std::vector<double>& scores,
                        const fairem::ConfusionCounts& overall,
                        const std::vector<fairem::GroupRates>& breakdown);

/// Recomputes TPRP, FPRP, PPVP and AP for every group (single) or group
/// pair (pairwise) and compares each with the matching report entry:
/// defined flag, group and reference statistic, disparity and unfair flag.
std::string CheckParity(const fairem::EMDataset& dataset,
                        const GroupIndex& index,
                        const std::vector<double>& scores,
                        const fairem::AuditReport& report, bool pairwise,
                        const fairem::AuditOptions& options);

/// F1 recounted from `scores` must clear `floor` and equal the library's
/// F1 of `overall`.
std::string CheckF1(const fairem::EMDataset& dataset,
                    const std::vector<double>& scores,
                    const fairem::ConfusionCounts& overall, double floor);

/// Byte equality of two answers for the same key (report, cell payload).
std::string CheckSameBytes(const std::string& what, const std::string& want,
                           const std::string& got);

}  // namespace auditbench

#endif  // FAIREM_AUDITBENCH_CHECKS_H_
