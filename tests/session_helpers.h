#ifndef HOLOCLEAN_TESTS_SESSION_HELPERS_H_
#define HOLOCLEAN_TESTS_SESSION_HELPERS_H_

#include <string>
#include <vector>

#include "holoclean/core/engine.h"

namespace holoclean {
namespace test_helpers {

/// Thin wrappers over the standalone session entry points with the
/// borrowed-pointer calling convention the tests use throughout (fixture
/// members always outlive the session under test).

inline Result<Session> OpenSessionOver(
    const HoloCleanConfig& config, Dataset* dataset,
    const std::vector<DenialConstraint>& dcs,
    const ExtDictCollection* dicts = nullptr,
    const std::vector<MatchingDependency>* mds = nullptr,
    const DetectorSuite* extra_detectors = nullptr) {
  SessionOptions options;
  options.config = config;
  return OpenStandaloneSession(
      CleaningInputs::Borrowed(dataset, &dcs, dicts, mds, extra_detectors),
      options);
}

inline Result<Session> RestoreSessionOver(
    const HoloCleanConfig& config, const std::string& snapshot_path,
    Dataset* dataset, const std::vector<DenialConstraint>& dcs,
    const ExtDictCollection* dicts = nullptr,
    const std::vector<MatchingDependency>* mds = nullptr,
    const DetectorSuite* extra_detectors = nullptr,
    const SnapshotLoadOptions& load_options = {}) {
  SessionOptions options;
  options.config = config;
  options.snapshot_path = snapshot_path;
  options.load_options = load_options;
  return OpenStandaloneSession(
      CleaningInputs::Borrowed(dataset, &dcs, dicts, mds, extra_detectors),
      options);
}

inline Result<Report> RunOnce(
    const HoloCleanConfig& config, Dataset* dataset,
    const std::vector<DenialConstraint>& dcs,
    const ExtDictCollection* dicts = nullptr,
    const std::vector<MatchingDependency>* mds = nullptr,
    const DetectorSuite* extra_detectors = nullptr) {
  SessionOptions options;
  options.config = config;
  return CleanOnce(
      CleaningInputs::Borrowed(dataset, &dcs, dicts, mds, extra_detectors),
      options);
}

}  // namespace test_helpers
}  // namespace holoclean

#endif  // HOLOCLEAN_TESTS_SESSION_HELPERS_H_
