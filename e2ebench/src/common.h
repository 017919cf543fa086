// Shared plumbing of the end-to-end benchmark: command-line options,
// timing and statistics helpers, the seeded input generator (which turns
// the in-repo paper generators into CSV / DC / MD text), and the parser
// that turns that text back into library inputs, as a user of the library
// would.

#ifndef E2EBENCH_COMMON_H_
#define E2EBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "holoclean/constraints/denial_constraint.h"
#include "holoclean/core/config.h"
#include "holoclean/core/report.h"
#include "holoclean/extdata/ext_dict.h"
#include "holoclean/extdata/matching_dependency.h"
#include "holoclean/storage/dataset.h"
#include "holoclean/util/csv.h"

namespace e2ebench {

/// Worker threads and client connections: the benchmark's fixed machine
/// budget (a 4-core box), the same on every workload.
inline constexpr size_t kThreads = 4;
inline constexpr size_t kClients = 4;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where the trace (spans + per-layer metrics) is written; relative to
  /// the working directory.
  std::string out_dir = ".bench_out";
};

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Median of a sample (0 for an empty one).
double Median(std::vector<double> values);

/// Nearest-rank percentile, p in [0, 100] (0 for an empty sample).
double Percentile(std::vector<double> values, double p);

/// SplitMix64 step: decorrelated sub-seeds from the workload seed.
uint64_t Mix(uint64_t seed, uint64_t salt);

/// Small deterministic PRNG for schedules and samples (never shared
/// between threads).
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(Mix(seed, 0x9E3779B97F4A7C15ULL)) {}
  uint64_t Next() {
    state_ = Mix(state_, 1);
    return state_;
  }
  /// Uniform in [0, n); n > 0.
  size_t Below(size_t n) { return static_cast<size_t>(Next() % n); }

 private:
  uint64_t state_;
};

/// One paper dataset rendered as the bytes a user hands the program.
struct DatasetText {
  std::string name;
  std::string dirty_csv;
  std::string clean_csv;  ///< Ground truth; only the benchmark reads it.
  std::string dc_text;
  std::string dict_csv;   ///< Empty when the generator ships no dictionary.
  std::string md_text;
  /// Provenance attribute name (Flights' "Source"), empty when none: part
  /// of the dataset's description, like the DCs.
  std::string source_attr;
  double tau = 0.5;
  /// Held-back rows (dirty and clean) for the append workloads; their
  /// count is fixed by the workload, not by the seed.
  std::vector<std::vector<std::string>> tail_dirty;
  std::vector<std::vector<std::string>> tail_clean;
};

/// Generates `name` ("hospital", "flights", "food", "physicians") with
/// `rows` base rows plus `tail_rows` held-back rows, seeded from `seed`.
DatasetText GenerateDataset(const std::string& name, size_t rows,
                            size_t tail_rows, uint64_t seed);

/// Library inputs parsed from a DatasetText. Owns everything the cleaning
/// session borrows.
struct ParsedInputs {
  std::shared_ptr<holoclean::Dataset> dataset;
  std::shared_ptr<const std::vector<holoclean::DenialConstraint>> dcs;
  std::shared_ptr<const holoclean::ExtDictCollection> dicts;
  std::shared_ptr<const std::vector<holoclean::MatchingDependency>> mds;
};

/// CSV text in: parses the dirty CSV, DCs, dictionary and MDs with the
/// library's own parsers. `csv_text` overrides the dirty CSV (grown or
/// pinned tables in the serve and stream checks).
holoclean::Result<ParsedInputs> ParseInputs(const DatasetText& text,
                                            const std::string* csv_text =
                                                nullptr);

/// The paper's configuration for a dataset: its tau, DC features or both,
/// seeded from the workload seed.
holoclean::HoloCleanConfig DatasetConfig(const DatasetText& text,
                                         holoclean::DcMode mode,
                                         bool partitioning, uint64_t seed);

/// Repaired CSV out: the dirty table with the repairs applied, as text.
std::string RepairedCsv(const holoclean::Table& dirty,
                        const std::vector<holoclean::Repair>& repairs);

/// Minimal JSON number formatting with all digits.
std::string Num(double v);

/// Writes `text` to `path`, creating the parent directory.
bool WriteTextFile(const std::string& path, const std::string& text);

/// Size of a file in bytes (0 when missing).
uint64_t FileBytes(const std::string& path);

/// Process peak resident set in MiB.
double PeakRssMib();

/// Logs a progress/diagnostic line to stderr (stdout carries only the
/// result line).
void Log(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace e2ebench

#endif  // E2EBENCH_COMMON_H_
