#include "holoclean/core/feedback.h"

#include <algorithm>

#include "holoclean/core/engine.h"

namespace holoclean {

size_t FeedbackSession::AddLabel(const FeedbackLabel& label) {
  // A newer verdict for the same cell replaces the older one.
  for (FeedbackLabel& existing : labels_) {
    if (existing.cell == label.cell) {
      existing.true_value = label.true_value;
      return labels_.size();
    }
  }
  labels_.push_back(label);
  return labels_.size();
}

Result<Report> FeedbackSession::Run() {
  if (!session_) {
    SessionOptions options;
    options.config = config_;
    auto opened = OpenStandaloneSession(
        CleaningInputs::Borrowed(dataset_, &dcs_), options);
    if (!opened.ok()) return opened.status();
    session_.emplace(std::move(opened).value());
  }

  // Pin the labels not yet applied (or re-applied with a newer verdict):
  // the labeled cells now hold ground truth, so they stop violating
  // constraints (leaving Dn) and serve as evidence for weight learning —
  // the "labeled examples to retrain the parameters" of §2.2. PinCell
  // keeps the cached detection and re-runs only compile and later.
  // Rollback record per newly applied pin: the cell's table value from just
  // before the pin, and — when the cell was already pinned with an older
  // verdict — that previous pin entry. Erasing the entry outright on
  // failure would desynchronize the bookkeeping: the restored table value
  // IS the old pin, so the pin entry must come back with it.
  struct AppliedPin {
    CellRef cell;
    ValueId previous_value = 0;
    bool had_pin = false;
    ValueId previous_pin = 0;
  };
  Table& table = dataset_->dirty();
  std::vector<AppliedPin> applied;
  for (const FeedbackLabel& label : labels_) {
    auto it = pinned_.find(label.cell);
    if (it != pinned_.end() && it->second == label.true_value) continue;
    AppliedPin pin;
    pin.cell = label.cell;
    pin.previous_value = table.Get(label.cell);
    pin.had_pin = it != pinned_.end();
    if (pin.had_pin) pin.previous_pin = it->second;
    applied.push_back(pin);
    session_->PinCell(label.cell, label.true_value);
    pinned_[label.cell] = label.true_value;
  }

  Result<Report> report = session_->Run();
  if (!report.ok()) {
    // Restore on failure so the session stays usable.
    for (const AppliedPin& pin : applied) {
      table.Set(pin.cell, pin.previous_value);
      if (pin.had_pin) {
        pinned_[pin.cell] = pin.previous_pin;
      } else {
        pinned_.erase(pin.cell);
      }
    }
    session_->Invalidate(StageId::kDetect);
    return report.status();
  }
  last_report_ = report.value();
  return std::move(report).value();
}

std::vector<Repair> FeedbackSession::ReviewQueue(size_t k) const {
  std::vector<Repair> queue = last_report_.repairs;
  std::sort(queue.begin(), queue.end(), [](const Repair& a, const Repair& b) {
    return a.probability != b.probability ? a.probability < b.probability
                                          : a.cell < b.cell;
  });
  if (queue.size() > k) queue.resize(k);
  return queue;
}

}  // namespace holoclean
