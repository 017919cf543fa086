// Reference implementations of the pipeline's scans and kernels: the
// oracle the production code is pinned against, bit for bit.
//
//  - Detect and compile: row-at-a-time violation detection, co-occurrence
//    counting, Algorithm-2 domain pruning and the grounder's context
//    features, against ViolationDetector, CooccurrenceStats::BuildColumnar,
//    PruneDomainsColumnar and Grounder.
//  - Learn and infer: the reference interpreter, against the compiled
//    kernel (SgdLearner::Train, ExactIndependentMarginals and GibbsSampler
//    over a CompiledGraph).
//
// Rule: this is plain reference code, called only by tests and benches,
// never by src/. It reads the data and the model the direct way — cells
// through Table::Get, predicates through a DcEvaluator, unary scores
// through FactorGraph::UnaryScore and WeightStore lookups — so it stays
// obviously correct rather than fast. Keep it that way: an optimization
// belongs in src/, with a differential test against this file.

#ifndef HOLOCLEAN_TESTS_ORACLE_REFERENCE_H_
#define HOLOCLEAN_TESTS_ORACLE_REFERENCE_H_

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "holoclean/core/pipeline_context.h"
#include "holoclean/detect/violation_detector.h"
#include "holoclean/infer/gibbs.h"
#include "holoclean/infer/learner.h"
#include "holoclean/infer/marginals.h"
#include "holoclean/model/domain_pruning.h"
#include "holoclean/model/factor_graph.h"

namespace holoclean {
namespace oracle {

// --- Detect and compile -----------------------------------------------------

/// Violations of every constraint, in constraint order, each constraint's
/// list in discovery order. A single-tuple constraint checks every tuple
/// with DcEvaluator::ViolatesSingle. A two-tuple constraint buckets the
/// tuples by the values they give its cross-tuple equality predicates in
/// the t2 role (buckets in ascending tuple order), then checks each tuple
/// in the t1 role against its bucket with DcEvaluator::Violates. One
/// without an equality predicate checks the pairs (i, j), i != j, in
/// row-major order until `options.max_fallback_pairs` pairs are spent, and
/// is then reported truncated. A violating pair is reported once per
/// unordered tuple pair, oriented as first found. `options.pool` is
/// ignored.
DetectResult DetectAll(const Table& table,
                       const std::vector<DenialConstraint>& dcs,
                       const ViolationDetector::Options& options);

/// Co-occurrence statistics counted row by row. The accessors have
/// CooccurrenceStats' names and meaning, so a test reads both the same way.
class Cooccurrence {
 public:
  int Count(AttrId a, ValueId v) const;
  /// Values of `a` seen with (a_ctx = v_ctx) and their pair counts,
  /// ascending by value.
  const std::vector<std::pair<ValueId, int>>& CooccurringValues(
      AttrId a, AttrId a_ctx, ValueId v_ctx) const;
  int PairCount(AttrId a, ValueId v, AttrId a_ctx, ValueId v_ctx) const;
  double CondProb(AttrId a, ValueId v, AttrId a_ctx, ValueId v_ctx) const;
  /// Distinct non-null values of `a`, ascending.
  const std::vector<ValueId>& Domain(AttrId a) const;
  size_t num_pair_entries() const { return num_pair_entries_; }

 private:
  friend Cooccurrence BuildCooccurrence(const Table& table,
                                        const std::vector<AttrId>& attrs);

  /// (a, v) -> #tuples with a = v.
  std::unordered_map<uint64_t, int> counts_;
  /// (a, a_ctx, v_ctx) -> CooccurringValues.
  std::unordered_map<uint64_t, std::vector<std::pair<ValueId, int>>> runs_;
  std::vector<std::vector<ValueId>> domains_;
  size_t num_pair_entries_ = 0;
};

/// For every tuple, every ordered pair (a, a_ctx) of distinct attributes
/// of `attrs` whose cells are both non-NULL counts one co-occurrence;
/// every non-NULL cell counts one occurrence of its value.
Cooccurrence BuildCooccurrence(const Table& table,
                               const std::vector<AttrId>& attrs);

/// Algorithm 2 per cell: every value v of the cell's attribute with
/// #(v, v_ctx) >= tau * #v_ctx for some non-NULL context cell of the tuple
/// scores its best such pair count; with no context at all, every value of
/// the attribute scores its frequency (when `frequency_fallback`). The
/// observed value comes first, then the top `max_candidates` values by
/// (score descending, value ascending).
PrunedDomains PruneDomains(const Table& table,
                           const std::vector<CellRef>& cells,
                           const std::vector<AttrId>& attrs,
                           const Cooccurrence& cooc,
                           const DomainPruningOptions& options);

/// The features the grounder gives `candidate` of `cell` first, one pair
/// per non-NULL context cell (a_ctx = v_ctx) of the tuple, in `attrs`
/// order: the co-occurrence indicator (kCooccurrence, activation 1), then,
/// when Pr[candidate | v_ctx] > 0, the conditional probability
/// (kCondProb, activation Pr).
std::vector<FeatureInstance> ContextFeatures(const Table& table,
                                             const std::vector<AttrId>& attrs,
                                             const Cooccurrence& cooc,
                                             const CellRef& cell,
                                             ValueId candidate);

// --- Learn and infer --------------------------------------------------------

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
