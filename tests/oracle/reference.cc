#include "oracle/reference.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <unordered_set>

#include "holoclean/constraints/evaluator.h"
#include "holoclean/model/feature_registry.h"
#include "holoclean/util/hash.h"
#include "holoclean/util/rng.h"
#include "holoclean/util/union_find.h"

namespace holoclean {
namespace oracle {

namespace {

/// The cells of a violation of `dc` by (t1, t2): each predicate operand's
/// cell, deduplicated in first-seen order.
Violation MakeViolation(const DenialConstraint& dc, int dc_index, TupleId t1,
                        TupleId t2) {
  Violation v;
  v.dc_index = dc_index;
  v.t1 = t1;
  v.t2 = t2;
  std::unordered_set<CellRef, CellRefHash> seen;
  auto add = [&](TupleId t, AttrId a) {
    CellRef c{t, a};
    if (seen.insert(c).second) v.cells.push_back(c);
  };
  for (const Predicate& p : dc.preds) {
    add(p.lhs_tuple == 0 ? t1 : t2, p.lhs_attr);
    if (!p.rhs_is_constant) add(p.rhs_tuple == 0 ? t1 : t2, p.rhs_attr);
  }
  return v;
}

std::vector<Violation> DetectTwoTuple(const Table& table,
                                      const DenialConstraint& dc,
                                      int dc_index,
                                      const DcEvaluator& evaluator,
                                      size_t max_fallback_pairs,
                                      bool* truncated) {
  std::vector<Violation> out;
  std::unordered_set<uint64_t> reported;
  auto report = [&](TupleId a, TupleId b) {
    uint64_t lo = static_cast<uint32_t>(std::min(a, b));
    uint64_t hi = static_cast<uint32_t>(std::max(a, b));
    if (reported.insert((hi << 32) | lo).second) {
      out.push_back(MakeViolation(dc, dc_index, a, b));
    }
  };
  const size_t n = table.num_rows();
  auto equalities = dc.CrossEqualities();

  if (equalities.empty()) {
    size_t budget = max_fallback_pairs;
    for (size_t i = 0; i < n && budget > 0; ++i) {
      for (size_t j = 0; j < n && budget > 0; ++j) {
        if (i == j) continue;
        --budget;
        TupleId a = static_cast<TupleId>(i);
        TupleId b = static_cast<TupleId>(j);
        if (evaluator.Violates(dc, a, b)) report(a, b);
      }
    }
    *truncated = budget == 0;
    return out;
  }

  // The blocking key of a tuple in one role: the hash of the values it
  // gives the equality predicates in that role; 0 when one is NULL, which
  // never matches.
  auto key_for = [&](TupleId t, int role) -> uint64_t {
    uint64_t h = 0x9E3779B97F4A7C15ULL;
    for (const Predicate* p : equalities) {
      AttrId attr = p->lhs_tuple == role ? p->lhs_attr : p->rhs_attr;
      ValueId v = table.Get(t, attr);
      if (v == Dictionary::kNull) return 0;
      h = HashCombine(h, static_cast<uint64_t>(static_cast<uint32_t>(v)));
    }
    return h;
  };
  std::unordered_map<uint64_t, std::vector<TupleId>> t2_buckets;
  for (size_t t = 0; t < n; ++t) {
    uint64_t key = key_for(static_cast<TupleId>(t), 1);
    if (key != 0) t2_buckets[key].push_back(static_cast<TupleId>(t));
  }
  for (size_t t = 0; t < n; ++t) {
    TupleId a = static_cast<TupleId>(t);
    uint64_t key = key_for(a, 0);
    if (key == 0) continue;
    auto it = t2_buckets.find(key);
    if (it == t2_buckets.end()) continue;
    for (TupleId b : it->second) {
      if (a != b && evaluator.Violates(dc, a, b)) report(a, b);
    }
  }
  return out;
}

uint64_t AttrValueKey(AttrId a, ValueId v) {
  return (static_cast<uint64_t>(static_cast<uint32_t>(a)) << 32) |
         static_cast<uint32_t>(v);
}

uint64_t ContextKey(AttrId a, AttrId a_ctx, ValueId v_ctx) {
  return (static_cast<uint64_t>(static_cast<uint32_t>(a)) << 48) |
         (static_cast<uint64_t>(static_cast<uint32_t>(a_ctx)) << 32) |
         static_cast<uint32_t>(v_ctx);
}

}  // namespace

DetectResult DetectAll(const Table& table,
                       const std::vector<DenialConstraint>& dcs,
                       const ViolationDetector::Options& options) {
  DcEvaluator evaluator(&table, options.sim_threshold);
  DetectResult result;
  for (size_t s = 0; s < dcs.size(); ++s) {
    const DenialConstraint& dc = dcs[s];
    const int dc_index = static_cast<int>(s);
    if (dc.IsTwoTuple()) {
      bool truncated = false;
      std::vector<Violation> found =
          DetectTwoTuple(table, dc, dc_index, evaluator,
                         options.max_fallback_pairs, &truncated);
      result.violations.insert(result.violations.end(), found.begin(),
                               found.end());
      if (truncated) result.truncated_dcs.push_back(dc_index);
      continue;
    }
    for (size_t t = 0; t < table.num_rows(); ++t) {
      TupleId tid = static_cast<TupleId>(t);
      if (evaluator.ViolatesSingle(dc, tid)) {
        result.violations.push_back(MakeViolation(dc, dc_index, tid, tid));
      }
    }
  }
  return result;
}

int Cooccurrence::Count(AttrId a, ValueId v) const {
  auto it = counts_.find(AttrValueKey(a, v));
  return it == counts_.end() ? 0 : it->second;
}

const std::vector<std::pair<ValueId, int>>& Cooccurrence::CooccurringValues(
    AttrId a, AttrId a_ctx, ValueId v_ctx) const {
  static const std::vector<std::pair<ValueId, int>> kEmpty;
  auto it = runs_.find(ContextKey(a, a_ctx, v_ctx));
  return it == runs_.end() ? kEmpty : it->second;
}

int Cooccurrence::PairCount(AttrId a, ValueId v, AttrId a_ctx,
                            ValueId v_ctx) const {
  for (const auto& [value, count] : CooccurringValues(a, a_ctx, v_ctx)) {
    if (value == v) return count;
  }
  return 0;
}

double Cooccurrence::CondProb(AttrId a, ValueId v, AttrId a_ctx,
                              ValueId v_ctx) const {
  int ctx_count = Count(a_ctx, v_ctx);
  if (ctx_count == 0) return 0.0;
  return static_cast<double>(PairCount(a, v, a_ctx, v_ctx)) /
         static_cast<double>(ctx_count);
}

const std::vector<ValueId>& Cooccurrence::Domain(AttrId a) const {
  return domains_[static_cast<size_t>(a)];
}

Cooccurrence BuildCooccurrence(const Table& table,
                               const std::vector<AttrId>& attrs) {
  Cooccurrence stats;
  stats.domains_.resize(table.schema().num_attrs());
  std::unordered_map<uint64_t, std::unordered_map<ValueId, int>> pair_counts;
  for (size_t t = 0; t < table.num_rows(); ++t) {
    TupleId tid = static_cast<TupleId>(t);
    for (AttrId a : attrs) {
      ValueId v = table.Get(tid, a);
      if (v == Dictionary::kNull) continue;
      ++stats.counts_[AttrValueKey(a, v)];
      for (AttrId a_ctx : attrs) {
        if (a_ctx == a) continue;
        ValueId v_ctx = table.Get(tid, a_ctx);
        if (v_ctx == Dictionary::kNull) continue;
        ++pair_counts[ContextKey(a, a_ctx, v_ctx)][v];
      }
    }
  }
  for (const auto& [key, values] : pair_counts) {
    auto& run = stats.runs_[key];
    run.assign(values.begin(), values.end());
    std::sort(run.begin(), run.end());
    stats.num_pair_entries_ += run.size();
  }
  for (AttrId a : attrs) {
    std::vector<ValueId>& domain = stats.domains_[static_cast<size_t>(a)];
    for (size_t t = 0; t < table.num_rows(); ++t) {
      ValueId v = table.Get(static_cast<TupleId>(t), a);
      if (v != Dictionary::kNull) domain.push_back(v);
    }
    std::sort(domain.begin(), domain.end());
    domain.erase(std::unique(domain.begin(), domain.end()), domain.end());
  }
  return stats;
}

PrunedDomains PruneDomains(const Table& table,
                           const std::vector<CellRef>& cells,
                           const std::vector<AttrId>& attrs,
                           const Cooccurrence& cooc,
                           const DomainPruningOptions& options) {
  PrunedDomains out;
  for (const CellRef& cell : cells) {
    std::map<ValueId, int> scores;
    bool has_context = false;
    for (AttrId a_ctx : attrs) {
      if (a_ctx == cell.attr) continue;
      ValueId v_ctx = table.Get(cell.tid, a_ctx);
      if (v_ctx == Dictionary::kNull) continue;
      int ctx_count = cooc.Count(a_ctx, v_ctx);
      if (ctx_count == 0) continue;
      has_context = true;
      for (const auto& [v, pair_count] :
           cooc.CooccurringValues(cell.attr, a_ctx, v_ctx)) {
        if (static_cast<double>(pair_count) >=
            options.tau * static_cast<double>(ctx_count)) {
          int& best = scores[v];
          best = std::max(best, pair_count);
        }
      }
    }
    if (!has_context && options.frequency_fallback) {
      for (ValueId v : cooc.Domain(cell.attr)) {
        scores[v] = cooc.Count(cell.attr, v);
      }
    }

    std::vector<std::pair<ValueId, int>> ranked(scores.begin(), scores.end());
    std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
      return a.second != b.second ? a.second > b.second : a.first < b.first;
    });
    if (ranked.size() > options.max_candidates) {
      ranked.resize(options.max_candidates);
    }
    std::vector<ValueId> candidates;
    ValueId init = table.Get(cell);
    if (init != Dictionary::kNull) candidates.push_back(init);
    for (const auto& [v, score] : ranked) {
      if (v != init) candidates.push_back(v);
    }
    if (candidates.empty()) candidates.push_back(init);
    out.candidates.emplace(cell, std::move(candidates));
  }
  return out;
}

std::vector<FeatureInstance> ContextFeatures(const Table& table,
                                             const std::vector<AttrId>& attrs,
                                             const Cooccurrence& cooc,
                                             const CellRef& cell,
                                             ValueId candidate) {
  std::vector<FeatureInstance> out;
  const uint32_t au = static_cast<uint32_t>(cell.attr);
  for (AttrId a_ctx : attrs) {
    if (a_ctx == cell.attr) continue;
    ValueId v_ctx = table.Get(cell.tid, a_ctx);
    if (v_ctx == Dictionary::kNull) continue;
    out.push_back({WeightKeyCodec::Pack(FeatureKind::kCooccurrence, au,
                                        static_cast<uint32_t>(a_ctx),
                                        static_cast<uint32_t>(v_ctx),
                                        static_cast<uint32_t>(candidate)),
                   1.0f});
    double p = cooc.CondProb(cell.attr, candidate, a_ctx, v_ctx);
    if (p > 0.0) {
      out.push_back({WeightKeyCodec::Pack(FeatureKind::kCondProb, au,
                                          static_cast<uint32_t>(a_ctx), 0, 0),
                     static_cast<float>(p)});
    }
  }
  return out;
}

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
