#ifndef HOLOCLEAN_INFER_GIBBS_H_
#define HOLOCLEAN_INFER_GIBBS_H_

#include <vector>

#include "holoclean/constraints/evaluator.h"
#include "holoclean/infer/marginals.h"
#include "holoclean/model/compiled_graph.h"
#include "holoclean/model/factor_graph.h"
#include "holoclean/util/rng.h"
#include "holoclean/util/thread_pool.h"

namespace holoclean {

/// Gibbs sampling hyper-parameters.
struct GibbsOptions {
  /// Full sweeps discarded before collecting marginal counts.
  int burn_in = 20;
  /// Full sweeps contributing to the marginal estimates.
  int samples = 80;
  uint64_t seed = 42;
  /// Optional worker pool. The sampler partitions the query variables into
  /// connected components of the factor graph and runs one independent
  /// chain per component (the DimmWitted-style parallelism of the paper's
  /// inference engine). Each component's chain is seeded by its smallest
  /// variable id, so results are identical for any thread count.
  ThreadPool* pool = nullptr;
};

/// Single-site Gibbs sampler over the query variables (paper §2.2, §5.2).
///
/// Each sweep resamples every query variable from its conditional: the
/// candidate score is the (precomputed) unary score minus, for every
/// attached DC factor, weight × 1[the factor's constraint is violated under
/// the current assignment of its other variables]. Evidence variables stay
/// fixed at their observed values. With no DC factors the chain's stationary
/// distribution equals ExactIndependentMarginals and mixes in O(n log n)
/// sweeps (the guarantee HoloClean's relaxation buys, §5.2).
///
/// The sampler runs on the compiled kernel: unary scores come from the
/// dense weight vector and CSR feature arenas, and factor scoring is a
/// precomputed violation-table lookup, falling back to a DcEvaluator at
/// the compiled graph's similarity threshold only for factors whose
/// candidate cross-product exceeded the table cap. Sweeps are
/// allocation-free. `graph` supplies the variable domains and cells the
/// fallback evaluates; `compiled` must have been built from it.
class GibbsSampler {
 public:
  GibbsSampler(const FactorGraph* graph, const CompiledGraph& compiled,
               const Table* table, const std::vector<DenialConstraint>* dcs,
               const WeightStore* weights, GibbsOptions options);

  /// Runs burn-in + sampling sweeps, returns estimated marginals.
  Marginals Run();

 private:
  /// Per-chain scratch buffers, owned by RunComponent so concurrent
  /// component chains never share them. Reused across sweeps: after
  /// warm-up, sampling performs no allocations.
  struct ChainScratch {
    std::vector<double> scores;
    std::vector<double> factor_acc;
    std::vector<CellOverride> overrides;
  };

  /// Per-candidate factor scores for `var_id` into scratch->factor_acc in
  /// one pass over its factors (affine violation-table indexing; evaluator
  /// fallback above the table cap), accumulated per candidate in factor
  /// order.
  void FactorScores(int var_id, size_t num_cand, ChainScratch* scratch);
  void SampleVariable(int var_id, Rng* rng, ChainScratch* scratch);
  /// Runs the full chain for one connected component of query variables,
  /// accumulating marginal counts (disjoint from other components).
  void RunComponent(const std::vector<int32_t>& component,
                    std::vector<std::vector<uint32_t>>* counts);
  /// Query variables grouped into factor-graph connected components,
  /// ordered by smallest member id.
  std::vector<std::vector<int32_t>> QueryComponents() const;

  const FactorGraph* graph_;
  const CompiledGraph& compiled_;
  const std::vector<DenialConstraint>* dcs_;
  GibbsOptions options_;
  DcEvaluator evaluator_;
  std::vector<int> assignment_;
  /// Unary scores are assignment-independent; precomputed once for the
  /// query variables (evidence variables are never resampled).
  std::vector<std::vector<double>> unary_scores_;
};

}  // namespace holoclean

#endif  // HOLOCLEAN_INFER_GIBBS_H_
