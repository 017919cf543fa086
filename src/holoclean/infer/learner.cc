#include "holoclean/infer/learner.h"

#include <algorithm>
#include <cmath>

#include "holoclean/util/rng.h"

namespace holoclean {

void SoftmaxInPlace(std::vector<double>* scores) {
  if (scores->empty()) return;
  double max_score = *std::max_element(scores->begin(), scores->end());
  double total = 0.0;
  for (double& s : *scores) {
    s = std::exp(s - max_score);
    total += s;
  }
  for (double& s : *scores) s /= total;
}

std::vector<double> Softmax(const std::vector<double>& scores) {
  std::vector<double> probs(scores);
  SoftmaxInPlace(&probs);
  return probs;
}

SgdLearner::SgdLearner(const FactorGraph* graph, LearnerOptions options)
    : graph_(graph), options_(options) {}

std::vector<double> SgdLearner::TrainOn(
    const std::vector<int32_t>& evidence_vars, WeightStore* weights) const {
  std::vector<int32_t> order(evidence_vars);
  std::vector<double> epoch_nll;
  if (order.empty()) return epoch_nll;

  Rng rng(options_.seed);
  double lr = options_.learning_rate;
  std::vector<double> scores;

  for (int epoch = 0; epoch < options_.epochs; ++epoch) {
    rng.Shuffle(&order);
    double nll = 0.0;
    for (int32_t var_id : order) {
      const Variable& var = graph_->variable(var_id);
      size_t num_cand = var.NumCandidates();
      scores.assign(num_cand, 0.0);
      for (size_t k = 0; k < num_cand; ++k) {
        scores[k] = graph_->UnaryScore(var_id, static_cast<int>(k), *weights);
      }
      SoftmaxInPlace(&scores);  // `scores` now holds the probabilities.
      size_t label = static_cast<size_t>(var.init_index);
      nll -= std::log(std::max(scores[label], 1e-12));

      for (size_t k = 0; k < num_cand; ++k) {
        double coef = (k == label ? 1.0 : 0.0) - scores[k];
        if (coef == 0.0) continue;
        for (int32_t i = var.feat_begin[k]; i < var.feat_begin[k + 1]; ++i) {
          const FeatureInstance& f = var.features[static_cast<size_t>(i)];
          // Lazy L2: shrink the weight as we touch it.
          double w = weights->Get(f.weight_key);
          weights->Set(f.weight_key,
                       w * (1.0 - lr * options_.l2) + lr * coef * f.activation);
        }
      }
    }
    epoch_nll.push_back(nll / static_cast<double>(order.size()));
    lr *= options_.lr_decay;
  }
  return epoch_nll;
}

std::vector<double> SgdLearner::Train(const CompiledGraph& compiled,
                                      WeightStore* weights) const {
  std::vector<int32_t> order(graph_->evidence_vars());
  std::vector<double> epoch_nll;
  if (order.empty()) return epoch_nll;

  // Dense working copy of the parameters; written back at the end. Only
  // weights an update touched (coef != 0 at least once) are scattered, so
  // the sparse store's entry set matches per-key updates (TrainOn).
  std::vector<double> dense = compiled.GatherWeights(*weights);
  std::vector<uint8_t> touched(dense.size(), 0);
  const std::vector<int32_t>& feat_weight = compiled.feat_weight();
  const std::vector<float>& feat_act = compiled.feat_act();

  Rng rng(options_.seed);
  double lr = options_.learning_rate;
  std::vector<double> scores;

  for (int epoch = 0; epoch < options_.epochs; ++epoch) {
    rng.Shuffle(&order);
    double nll = 0.0;
    for (int32_t var_id : order) {
      size_t num_cand = static_cast<size_t>(compiled.NumCandidates(var_id));
      scores.resize(num_cand);
      for (size_t k = 0; k < num_cand; ++k) {
        scores[k] = compiled.UnaryScore(var_id, static_cast<int>(k), dense);
      }
      SoftmaxInPlace(&scores);
      size_t label = static_cast<size_t>(compiled.InitIndex(var_id));
      nll -= std::log(std::max(scores[label], 1e-12));

      for (size_t k = 0; k < num_cand; ++k) {
        double coef = (k == label ? 1.0 : 0.0) - scores[k];
        if (coef == 0.0) continue;
        int64_t end = compiled.FeatEnd(var_id, static_cast<int>(k));
        for (int64_t i = compiled.FeatBegin(var_id, static_cast<int>(k));
             i < end; ++i) {
          size_t wid = static_cast<size_t>(feat_weight[static_cast<size_t>(i)]);
          double w = dense[wid];
          dense[wid] = w * (1.0 - lr * options_.l2) +
                       lr * coef * feat_act[static_cast<size_t>(i)];
          touched[wid] = 1;
        }
      }
    }
    epoch_nll.push_back(nll / static_cast<double>(order.size()));
    lr *= options_.lr_decay;
  }
  compiled.ScatterWeights(dense, touched, weights);
  return epoch_nll;
}

}  // namespace holoclean
