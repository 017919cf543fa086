// Output checkers of the benchmark. Each one recomputes what it checks in
// the benchmark's own code (its own CSV reader, its own denial-constraint
// evaluator over the cell strings, its own F1 and union-find), or checks a
// property the library promises; none compares against a stored copy of
// an earlier output. RunSelfTest feeds every checker a corrupted output
// and requires it to fail.

#ifndef E2EBENCH_CHECKS_H_
#define E2EBENCH_CHECKS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"
#include "holoclean/core/pipeline_context.h"
#include "holoclean/util/json.h"

namespace e2ebench {

/// Collects checker failures; a run is correct when none were recorded.
class Verdict {
 public:
  /// A quiet verdict does not log (the self-test expects failures).
  explicit Verdict(bool quiet = false) : quiet_(quiet) {}
  void Fail(const std::string& what);
  bool ok() const { return failures_ == 0; }

 private:
  bool quiet_;
  size_t failures_ = 0;
};

/// A CSV table as strings: header plus rows (the checkers' own reader).
struct TextTable {
  std::vector<std::string> header;
  std::vector<std::vector<std::string>> rows;
  int Col(const std::string& name) const;
};
bool ReadTextTable(const std::string& csv, TextTable* out);

/// A repair as strings, the way a user sees it.
struct TextRepair {
  int64_t tid = 0;
  std::string attr;
  std::string old_value;
  std::string new_value;
  double probability = 0.0;
};
std::vector<TextRepair> RepairsAsText(
    const holoclean::Table& table,
    const std::vector<holoclean::Repair>& repairs);

/// The repaired CSV equals the dirty CSV with the repairs applied (and
/// every repair's old value is the dirty value).
bool CheckRepairedTable(const std::string& dirty_csv,
                        const std::string& repaired_csv,
                        const std::vector<TextRepair>& repairs,
                        Verdict* verdict);

/// Every repair sits on a cell the detect stage flagged noisy and takes a
/// value from that cell's pruned domain.
bool CheckRepairsOnDomains(const holoclean::PipelineContext& ctx,
                           const std::vector<holoclean::Repair>& repairs,
                           Verdict* verdict);

/// A reported violation: DC index and tuple pair.
struct ViolationPair {
  int dc = 0;
  int64_t t1 = 0;
  int64_t t2 = 0;
};
std::vector<ViolationPair> ViolationPairs(
    const std::vector<holoclean::Violation>& violations);

/// Sampled reported violations really violate their DC under the
/// benchmark's own predicate evaluation, and in `block_samples` sampled
/// blocks per DC (tuples agreeing on the DC's cross-tuple equalities) the
/// violating pairs are exactly the reported ones. `block_samples` 0
/// checks every block.
bool CheckViolations(const std::string& dirty_csv, const std::string& dc_text,
                     const std::vector<ViolationPair>& reported,
                     size_t violation_samples, size_t block_samples,
                     uint64_t seed, Verdict* verdict);

/// Marginals of the query variables: each sums to 1 and its MAP index is
/// an argmax; the repair stage's posteriors use that MAP value.
bool CheckMarginals(const holoclean::FactorGraph& graph,
                    const std::vector<std::vector<double>>& probs,
                    const std::vector<int>& map_index, Verdict* verdict);
/// The marginals of a finished context in the shape CheckMarginals takes.
void ExtractMarginals(const holoclean::PipelineContext& ctx,
                      std::vector<std::vector<double>>* probs,
                      std::vector<int>* map_index);

/// Precision/recall/F1 of string repairs against the clean CSV.
struct Quality {
  double precision = 0.0;
  double recall = 0.0;
  double f1 = 0.0;
  size_t errors = 0;
  size_t repairs = 0;
  size_t correct = 0;
};
Quality ScoreRepairs(const std::string& dirty_csv, const std::string& clean_csv,
                     const std::vector<TextRepair>& repairs);

/// Connected components of the query variables under the DC factors
/// (union-find): count and size of the largest.
struct Components {
  size_t count = 0;
  size_t largest = 0;
};
Components QueryComponents(const holoclean::FactorGraph& graph);

/// Two reports (the "report" objects of serve responses or ReportToJson)
/// carry the same repairs and posterior count.
bool SameReport(const holoclean::JsonValue& got,
                const holoclean::JsonValue& want, const std::string& what,
                Verdict* verdict);

/// Runs every checker on a small real clean, then on corrupted copies of
/// its outputs (one repair value changed, one violation dropped, one
/// marginal skewed, one served response altered), requiring each
/// corruption to be caught. Returns false (and logs) on any surprise.
bool RunSelfTest(uint64_t seed);

}  // namespace e2ebench

#endif  // E2EBENCH_CHECKS_H_
