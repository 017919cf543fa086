#ifndef HOLOCLEAN_INFER_LEARNER_H_
#define HOLOCLEAN_INFER_LEARNER_H_

#include <vector>

#include "holoclean/model/compiled_graph.h"
#include "holoclean/model/factor_graph.h"

namespace holoclean {

/// SGD hyper-parameters for weight learning.
struct LearnerOptions {
  int epochs = 20;
  double learning_rate = 0.05;
  /// Multiplicative decay applied to the learning rate per epoch.
  double lr_decay = 0.95;
  /// L2 regularization strength (applied lazily to touched weights).
  double l2 = 1e-5;
  uint64_t seed = 17;
};

/// Numerically stable softmax. Empty input yields an empty result.
std::vector<double> Softmax(const std::vector<double>& scores);

/// In-place variant: replaces `scores` with its softmax, allocation-free.
/// Produces exactly the values Softmax would; the learn/infer hot loops
/// (SGD, Gibbs sweeps, marginal estimation) use this on reused scratch
/// buffers. No-op on empty input.
void SoftmaxInPlace(std::vector<double>* scores);

/// Empirical-risk minimization over the evidence variables (paper §2.2):
/// each evidence cell is a multinomial logistic example whose label is its
/// observed value; SGD maximizes the conditional log-likelihood. Because
/// the relaxed model's variables are independent, this objective is convex
/// (paper §5.2).
class SgdLearner {
 public:
  SgdLearner(const FactorGraph* graph, LearnerOptions options);

  /// Trains `weights` in place over every evidence variable on the
  /// compiled kernel: gathers the store into a dense parameter vector, runs
  /// SGD over the CSR feature arenas, and scatters back exactly the
  /// weights an update touched (so the store's entry set is what per-key
  /// updates would leave). Returns the average negative log-likelihood per
  /// epoch (for convergence monitoring/tests). `compiled` must have been
  /// built from this learner's graph.
  std::vector<double> Train(const CompiledGraph& compiled,
                            WeightStore* weights) const;

  /// Warm-start refinement over a chosen subset of evidence variables:
  /// trains `weights` in place starting from their current values (no
  /// reinitialization), same per-example update as Train. The streaming
  /// tier uses this to fold a freshly appended batch's evidence into
  /// already-learned weights without revisiting the full evidence set.
  /// Scores on the FactorGraph — append deltas are small, so the
  /// per-activation hash lookup doesn't matter.
  std::vector<double> TrainOn(const std::vector<int32_t>& evidence_vars,
                              WeightStore* weights) const;

 private:
  const FactorGraph* graph_;
  LearnerOptions options_;
};

}  // namespace holoclean

#endif  // HOLOCLEAN_INFER_LEARNER_H_
