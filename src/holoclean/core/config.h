#ifndef HOLOCLEAN_CORE_CONFIG_H_
#define HOLOCLEAN_CORE_CONFIG_H_

#include <cstdint>
#include <string>

#include "holoclean/infer/gibbs.h"
#include "holoclean/infer/learner.h"
#include "holoclean/model/grounding.h"
#include "holoclean/model/weight_initializer.h"

namespace holoclean {

/// End-to-end configuration of a HoloClean run. Defaults correspond to the
/// configuration the paper uses for its headline results (Table 3): DCs
/// relaxed to features, no partitioning, τ from {0.3,...,0.9} per dataset.
struct HoloCleanConfig {
  /// Domain-pruning threshold τ of Algorithm 2.
  double tau = 0.5;
  /// Hard cap on candidates per cell.
  size_t max_candidates = 64;

  /// How denial constraints enter the model (§6.3.1 variants).
  DcMode dc_mode = DcMode::kFeatures;
  /// Tuple partitioning (Algorithm 3) for DC factors.
  bool partitioning = false;
  /// Fixed soft weight of DC factors.
  double dc_factor_weight = 4.0;
  /// Minimality prior weight w0.
  double minimality_weight = 1.0;
  /// Similarity threshold for ≈ predicates and approximate matching.
  double sim_threshold = 0.8;
  /// Scale of the source-trust weight initialization derived from the
  /// SLiMFast-style reliability estimates (used when the dataset declares a
  /// provenance attribute; §6.2.1).
  double source_trust_scale = 2.0;

  /// Weight initializations. SGD refines all of these from the evidence
  /// cells; the priors encode the qualitative direction of each signal so
  /// the model behaves sensibly even where the evidence carries no gradient
  /// (e.g. single-candidate evidence variables).
  /// Initial weight of the shared probability-valued co-occurrence feature.
  double stats_prior_weight = 1.0;
  /// Initial weight of the per-attribute frequency feature.
  double freq_prior_weight = 0.3;
  /// Initial weight of the relaxed DC violation-count features w(σ)
  /// (negative: violations lower a candidate's score).
  double dc_violation_init = -1.0;
  /// Initial weight of the external-dictionary factors w(k).
  double ext_dict_init = 2.0;
  /// Initial weight of the FD-partner support feature when the dataset has
  /// no provenance column (with provenance, EM trust estimates are used).
  double support_prior = 0.5;

  /// Learning.
  int epochs = 20;
  double learning_rate = 0.05;
  double lr_decay = 0.95;
  double l2 = 1e-5;
  /// Evidence cells sampled for training (caps SGD cost on large inputs).
  size_t max_training_cells = 20'000;

  /// Gibbs sampling (used when DC factors are grounded).
  int gibbs_burn_in = 10;
  int gibbs_samples = 50;

  /// Master seed for every randomized component.
  uint64_t seed = 42;

  /// Worker threads for detection, grounding, and Gibbs sampling
  /// (0 = hardware concurrency, 1 = fully sequential). Results are
  /// identical for any thread count.
  size_t num_threads = 0;

  /// Translates to the weight-initializer options.
  WeightInitOptions ToWeightInitOptions() const {
    WeightInitOptions w;
    w.stats_prior_weight = stats_prior_weight;
    w.freq_prior_weight = freq_prior_weight;
    w.dc_violation_init = dc_violation_init;
    w.ext_dict_init = ext_dict_init;
    w.support_prior = support_prior;
    w.source_trust_scale = source_trust_scale;
    return w;
  }

  /// Translates to the SGD options of the learn stage.
  LearnerOptions ToLearnerOptions() const {
    LearnerOptions l;
    l.epochs = epochs;
    l.learning_rate = learning_rate;
    l.lr_decay = lr_decay;
    l.l2 = l2;
    l.seed = seed ^ 0x5851F42D4C957F2DULL;
    return l;
  }

  /// Translates to the Gibbs options of the infer stage (no pool).
  GibbsOptions ToGibbsOptions() const {
    GibbsOptions g;
    g.burn_in = gibbs_burn_in;
    g.samples = gibbs_samples;
    g.seed = seed ^ 0x2545F4914F6CDD1DULL;
    return g;
  }

  /// Translates to the grounding-engine options.
  GroundingOptions ToGroundingOptions() const {
    GroundingOptions g;
    g.dc_mode = dc_mode;
    g.use_partitioning = partitioning;
    g.dc_factor_weight = dc_factor_weight;
    g.minimality_weight = minimality_weight;
    g.sim_threshold = sim_threshold;
    return g;
  }
};

/// Human-readable name of a DcMode ("DC Factors", "DC Feats", ...).
std::string DcModeName(DcMode mode);

}  // namespace holoclean

#endif  // HOLOCLEAN_CORE_CONFIG_H_
