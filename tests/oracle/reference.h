// Reference interpreter for the learn and infer stages: the oracle the
// compiled kernel (SgdLearner::Train, ExactIndependentMarginals and
// GibbsSampler over a CompiledGraph) is pinned against, bit for bit.
//
// Rule: this is plain reference code, called only by tests and benches,
// never by src/. It reads the model the direct way — unary scores through
// FactorGraph::UnaryScore and WeightStore lookups, DC factors through a
// DcEvaluator — so it stays obviously correct rather than fast. Keep it
// that way: an optimization belongs in the compiled kernel, with a
// differential test against this file.

#ifndef HOLOCLEAN_TESTS_ORACLE_REFERENCE_H_
#define HOLOCLEAN_TESTS_ORACLE_REFERENCE_H_

#include <vector>

#include "holoclean/core/pipeline_context.h"
#include "holoclean/infer/gibbs.h"
#include "holoclean/infer/learner.h"
#include "holoclean/infer/marginals.h"
#include "holoclean/model/factor_graph.h"

namespace holoclean {
namespace oracle {

/// SGD over every evidence variable of `graph`: per epoch one shuffle of
/// the evidence order, then per example the softmax of the unary scores,
/// a multinomial-logistic gradient step on each feature weight of each
/// candidate with a non-zero coefficient, and lazy L2 on the weights it
/// touches. Trains `weights` in place and returns the average negative
/// log-likelihood per epoch.
std::vector<double> Train(const FactorGraph& graph,
                          const LearnerOptions& options, WeightStore* weights);

/// Softmax of each query variable's unary scores; evidence variables are
/// point masses on their observed value.
Marginals ExactIndependentMarginals(const FactorGraph& graph,
                                    const WeightStore& weights);

/// Sequential Gibbs chain with GibbsSampler's seeding and scan order: one
/// chain per connected component of the query variables, seeded by the
/// component's smallest variable id, each sweep resampling the
/// component's variables in a freshly shuffled order. DC factors are
/// evaluated per candidate with a DcEvaluator at `sim_threshold`.
/// `options.pool` is ignored.
Marginals Gibbs(const FactorGraph& graph, const Table& table,
                const std::vector<DenialConstraint>& dcs,
                const WeightStore& weights, const GibbsOptions& options,
                double sim_threshold);

/// The learn stage on the reference interpreter, over a context whose
/// compile stage ran (and whose graph is materialized): the stage's
/// starting weights trained with the stage's options. Per-epoch NLL goes
/// to `epoch_nll` when non-null.
WeightStore Learn(const PipelineContext& ctx,
                  std::vector<double>* epoch_nll = nullptr);

/// The infer stage on the reference interpreter: exact marginals when the
/// graph has no DC factors, the reference chain with the stage's options
/// at config.sim_threshold otherwise.
Marginals Infer(const PipelineContext& ctx, const WeightStore& weights);

}  // namespace oracle
}  // namespace holoclean

#endif  // HOLOCLEAN_TESTS_ORACLE_REFERENCE_H_
