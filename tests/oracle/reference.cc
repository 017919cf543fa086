#include "oracle/reference.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "holoclean/constraints/evaluator.h"
#include "holoclean/util/hash.h"
#include "holoclean/util/rng.h"
#include "holoclean/util/union_find.h"

namespace holoclean {
namespace oracle {

std::vector<double> Train(const FactorGraph& graph,
                          const LearnerOptions& options,
                          WeightStore* weights) {
  std::vector<int32_t> order(graph.evidence_vars());
  std::vector<double> epoch_nll;
  if (order.empty()) return epoch_nll;
  Rng rng(options.seed);
  double lr = options.learning_rate;
  std::vector<double> probs;
  for (int epoch = 0; epoch < options.epochs; ++epoch) {
    rng.Shuffle(&order);
    double nll = 0.0;
    for (int32_t var_id : order) {
      const Variable& var = graph.variable(var_id);
      probs.resize(var.NumCandidates());
      for (size_t k = 0; k < probs.size(); ++k) {
        probs[k] = graph.UnaryScore(var_id, static_cast<int>(k), *weights);
      }
      SoftmaxInPlace(&probs);
      size_t label = static_cast<size_t>(var.init_index);
      nll -= std::log(std::max(probs[label], 1e-12));
      for (size_t k = 0; k < probs.size(); ++k) {
        double coef = (k == label ? 1.0 : 0.0) - probs[k];
        if (coef == 0.0) continue;
        for (int32_t i = var.feat_begin[k]; i < var.feat_begin[k + 1]; ++i) {
          const FeatureInstance& f = var.features[static_cast<size_t>(i)];
          double w = weights->Get(f.weight_key);
          weights->Set(f.weight_key,
                       w * (1.0 - lr * options.l2) + lr * coef * f.activation);
        }
      }
    }
    epoch_nll.push_back(nll / static_cast<double>(order.size()));
    lr *= options.lr_decay;
  }
  return epoch_nll;
}

Marginals ExactIndependentMarginals(const FactorGraph& graph,
                                    const WeightStore& weights) {
  Marginals out(graph.num_variables());
  for (size_t v = 0; v < graph.num_variables(); ++v) {
    const Variable& var = graph.variable(static_cast<int>(v));
    auto& probs = out.probs()[v];
    if (var.is_evidence) {
      probs.assign(var.NumCandidates(), 0.0);
      probs[static_cast<size_t>(var.init_index)] = 1.0;
      continue;
    }
    std::vector<double> scores(var.NumCandidates());
    for (size_t k = 0; k < scores.size(); ++k) {
      scores[k] =
          graph.UnaryScore(static_cast<int>(v), static_cast<int>(k), weights);
    }
    probs = Softmax(scores);
  }
  return out;
}

Marginals Gibbs(const FactorGraph& graph, const Table& table,
                const std::vector<DenialConstraint>& dcs,
                const WeightStore& weights, const GibbsOptions& options,
                double sim_threshold) {
  DcEvaluator evaluator(&table, sim_threshold);
  size_t n = graph.num_variables();
  std::vector<int> assignment(n);
  for (size_t v = 0; v < n; ++v) {
    int init = graph.variable(static_cast<int>(v)).init_index;
    assignment[v] = init >= 0 ? init : 0;
  }

  // Unary scores do not depend on the assignment.
  std::vector<std::vector<double>> unary(n);
  for (int32_t v : graph.query_vars()) {
    for (size_t k = 0; k < graph.variable(v).NumCandidates(); ++k) {
      unary[static_cast<size_t>(v)].push_back(
          graph.UnaryScore(v, static_cast<int>(k), weights));
    }
  }

  // Score of candidate k of `var_id`: unary score minus the weight of
  // every attached DC factor violated under the current assignment.
  std::vector<CellOverride> overrides;
  auto score = [&](int var_id, size_t k) {
    double factors = 0.0;
    for (int32_t fid : graph.FactorsOfVar(var_id)) {
      const DcFactor& factor = graph.dc_factors()[static_cast<size_t>(fid)];
      overrides.clear();
      for (int32_t other : factor.var_ids) {
        const Variable& other_var = graph.variable(other);
        size_t index = other == var_id
                           ? k
                           : static_cast<size_t>(
                                 assignment[static_cast<size_t>(other)]);
        overrides.push_back({other_var.cell, other_var.domain[index]});
      }
      if (evaluator.ViolatesWith(dcs[static_cast<size_t>(factor.dc_index)],
                                 factor.t1, factor.t2, overrides)) {
        factors -= factor.weight;
      }
    }
    double unary_score = unary[static_cast<size_t>(var_id)][k];
    return graph.FactorsOfVar(var_id).empty() ? unary_score
                                              : unary_score + factors;
  };

  // Query variables by connected component (DC factors are the edges),
  // components ordered by their smallest member.
  UnionFind uf(n);
  for (const DcFactor& factor : graph.dc_factors()) {
    for (size_t i = 1; i < factor.var_ids.size(); ++i) {
      uf.Union(static_cast<size_t>(factor.var_ids[0]),
               static_cast<size_t>(factor.var_ids[i]));
    }
  }
  std::map<size_t, std::vector<int32_t>> by_root;
  for (int32_t v : graph.query_vars()) {
    by_root[uf.Find(static_cast<size_t>(v))].push_back(v);
  }
  std::vector<std::vector<int32_t>> components;
  for (auto& [root, members] : by_root) {
    std::sort(members.begin(), members.end());
    components.push_back(members);
  }
  std::sort(components.begin(), components.end());

  std::vector<double> probs;
  std::vector<std::vector<uint32_t>> counts(n);
  for (size_t v = 0; v < n; ++v) {
    counts[v].assign(graph.variable(static_cast<int>(v)).NumCandidates(), 0);
  }
  for (const std::vector<int32_t>& component : components) {
    Rng rng(options.seed ^ Mix64(static_cast<uint64_t>(component[0]) + 1));
    std::vector<int32_t> order(component);
    for (int sweep = 0; sweep < options.burn_in + options.samples; ++sweep) {
      rng.Shuffle(&order);
      for (int32_t var_id : order) {
        size_t num_cand = graph.variable(var_id).NumCandidates();
        if (num_cand == 1) {
          assignment[static_cast<size_t>(var_id)] = 0;
          continue;
        }
        probs.resize(num_cand);
        for (size_t k = 0; k < num_cand; ++k) probs[k] = score(var_id, k);
        SoftmaxInPlace(&probs);
        assignment[static_cast<size_t>(var_id)] =
            static_cast<int>(rng.Categorical(probs));
      }
      if (sweep < options.burn_in) continue;
      for (int32_t var_id : order) {
        ++counts[static_cast<size_t>(var_id)][static_cast<size_t>(
            assignment[static_cast<size_t>(var_id)])];
      }
    }
  }

  Marginals out(n);
  for (size_t v = 0; v < n; ++v) {
    const Variable& var = graph.variable(static_cast<int>(v));
    auto& probs = out.probs()[v];
    probs.assign(var.NumCandidates(), 0.0);
    if (var.is_evidence) {
      probs[static_cast<size_t>(var.init_index)] = 1.0;
      continue;
    }
    uint64_t total = 0;
    for (uint32_t c : counts[v]) total += c;
    if (total == 0) {
      probs[static_cast<size_t>(assignment[v])] = 1.0;
      continue;
    }
    for (size_t k = 0; k < probs.size(); ++k) {
      probs[k] = static_cast<double>(counts[v][k]) / static_cast<double>(total);
    }
  }
  return out;
}

WeightStore Learn(const PipelineContext& ctx, std::vector<double>* epoch_nll) {
  WeightStore weights = ctx.InitialWeights();
  std::vector<double> nll =
      Train(ctx.graph, ctx.config.ToLearnerOptions(), &weights);
  if (epoch_nll != nullptr) *epoch_nll = std::move(nll);
  return weights;
}

Marginals Infer(const PipelineContext& ctx, const WeightStore& weights) {
  if (ctx.graph.dc_factors().empty()) {
    return ExactIndependentMarginals(ctx.graph, weights);
  }
  return Gibbs(ctx.graph, ctx.dataset->dirty(), *ctx.dcs, weights,
               ctx.config.ToGibbsOptions(), ctx.config.sim_threshold);
}

}  // namespace oracle
}  // namespace holoclean
