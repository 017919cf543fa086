#include "holoclean/infer/gibbs.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "holoclean/infer/learner.h"
#include "holoclean/util/hash.h"
#include "holoclean/util/union_find.h"

namespace holoclean {

GibbsSampler::GibbsSampler(const FactorGraph* graph,
                           const CompiledGraph& compiled, const Table* table,
                           const std::vector<DenialConstraint>* dcs,
                           const WeightStore* weights, GibbsOptions options)
    : graph_(graph),
      compiled_(compiled),
      dcs_(dcs),
      options_(options),
      // The fallback evaluator must score ≈ predicates exactly like the
      // precomputed violation tables, so it adopts the compiled graph's
      // recorded threshold.
      evaluator_(table, compiled.sim_threshold()) {
  assignment_.resize(graph_->num_variables());
  unary_scores_.resize(graph_->num_variables());
  std::vector<double> dense = compiled_.GatherWeights(*weights);
  for (size_t v = 0; v < graph_->num_variables(); ++v) {
    const Variable& var = graph_->variable(static_cast<int>(v));
    assignment_[v] = var.init_index >= 0 ? var.init_index : 0;
    if (var.is_evidence) continue;
    auto& scores = unary_scores_[v];
    scores.resize(var.NumCandidates());
    for (size_t k = 0; k < var.NumCandidates(); ++k) {
      scores[k] = compiled_.UnaryScore(static_cast<int>(v),
                                       static_cast<int>(k), dense);
    }
  }
}

void GibbsSampler::FactorScores(int var_id, size_t num_cand,
                                ChainScratch* scratch) {
  // Accumulates every candidate's factor score into scratch->factor_acc in
  // one pass over the variable's factors. For each tabled factor the
  // lookup index is affine in the candidate (base + k * stride under the
  // row-major table layout), so the per-candidate work is a single byte
  // load. Contributions accumulate per candidate in factor order, the
  // arithmetic sequence the reference chain in tests/oracle/ pins.
  const CompiledGraph& c = compiled_;
  const std::vector<int32_t>& fov = c.fov();
  const std::vector<int32_t>& factor_vars = c.factor_vars();
  auto& acc = scratch->factor_acc;
  acc.assign(num_cand, 0.0);
  for (int32_t fi = c.FovBegin(var_id); fi < c.FovEnd(var_id); ++fi) {
    int fid = fov[static_cast<size_t>(fi)];
    double weight = c.FactorWeight(fid);
    if (c.HasViolationTable(fid)) {
      size_t base = 0;
      size_t stride = 0;
      for (int32_t i = c.FactorVarBegin(fid); i < c.FactorVarEnd(fid); ++i) {
        int32_t v = factor_vars[static_cast<size_t>(i)];
        size_t n = static_cast<size_t>(c.NumCandidates(v));
        if (v == var_id) {
          base *= n;
          stride = 1;
        } else {
          base = base * n +
                 static_cast<size_t>(assignment_[static_cast<size_t>(v)]);
          stride *= n;
        }
      }
      const uint8_t* entry = c.ViolationTableEntry(fid, base);
      for (size_t k = 0; k < num_cand; ++k) {
        if (entry[k * stride] != 0) acc[k] -= weight;
      }
    } else {
      // Fallback: the factor's candidate cross-product was above the table
      // cap, so evaluate the constraint directly (same verdict the table
      // would hold).
      const Variable& var = graph_->variable(var_id);
      const DenialConstraint& dc =
          (*dcs_)[static_cast<size_t>(c.FactorDcIndex(fid))];
      for (size_t k = 0; k < num_cand; ++k) {
        auto& overrides = scratch->overrides;
        overrides.clear();
        for (int32_t i = c.FactorVarBegin(fid); i < c.FactorVarEnd(fid);
             ++i) {
          int32_t other = factor_vars[static_cast<size_t>(i)];
          const Variable& other_var = graph_->variable(other);
          ValueId value =
              other == var_id
                  ? var.domain[k]
                  : other_var.domain[static_cast<size_t>(
                        assignment_[static_cast<size_t>(other)])];
          overrides.push_back({other_var.cell, value});
        }
        if (evaluator_.ViolatesWith(dc, c.FactorT1(fid), c.FactorT2(fid),
                                    overrides)) {
          acc[k] -= weight;
        }
      }
    }
  }
}

void GibbsSampler::SampleVariable(int var_id, Rng* rng,
                                  ChainScratch* scratch) {
  const Variable& var = graph_->variable(var_id);
  size_t num_cand = var.NumCandidates();
  if (num_cand == 1) {
    assignment_[static_cast<size_t>(var_id)] = 0;
    return;
  }
  auto& scores = scratch->scores;
  scores = unary_scores_[static_cast<size_t>(var_id)];
  if (!graph_->FactorsOfVar(var_id).empty()) {
    FactorScores(var_id, num_cand, scratch);
    const auto& acc = scratch->factor_acc;
    for (size_t k = 0; k < num_cand; ++k) scores[k] += acc[k];
  }
  SoftmaxInPlace(&scores);  // `scores` now holds the probabilities.
  assignment_[static_cast<size_t>(var_id)] =
      static_cast<int>(rng->Categorical(scores));
}

std::vector<std::vector<int32_t>> GibbsSampler::QueryComponents() const {
  const auto& query = graph_->query_vars();
  UnionFind uf(graph_->num_variables());
  for (const DcFactor& factor : graph_->dc_factors()) {
    for (size_t i = 1; i < factor.var_ids.size(); ++i) {
      uf.Union(static_cast<size_t>(factor.var_ids[0]),
               static_cast<size_t>(factor.var_ids[i]));
    }
  }
  std::unordered_map<size_t, std::vector<int32_t>> by_root;
  for (int32_t v : query) {
    by_root[uf.Find(static_cast<size_t>(v))].push_back(v);
  }
  std::vector<std::vector<int32_t>> components;
  components.reserve(by_root.size());
  for (auto& [root, members] : by_root) {
    std::sort(members.begin(), members.end());
    components.push_back(std::move(members));
  }
  std::sort(components.begin(), components.end(),
            [](const auto& a, const auto& b) { return a[0] < b[0]; });
  return components;
}

void GibbsSampler::RunComponent(
    const std::vector<int32_t>& component,
    std::vector<std::vector<uint32_t>>* counts) {
  // Seeded by the component's smallest variable id: deterministic for any
  // thread count or component ordering.
  Rng rng(options_.seed ^ Mix64(static_cast<uint64_t>(component[0]) + 1));
  std::vector<int32_t> order(component);
  ChainScratch scratch;
  int total_sweeps = options_.burn_in + options_.samples;
  for (int sweep = 0; sweep < total_sweeps; ++sweep) {
    rng.Shuffle(&order);
    for (int32_t var_id : order) {
      SampleVariable(var_id, &rng, &scratch);
    }
    if (sweep >= options_.burn_in) {
      for (int32_t var_id : order) {
        ++(*counts)[static_cast<size_t>(var_id)][static_cast<size_t>(
            assignment_[static_cast<size_t>(var_id)])];
      }
    }
  }
}

Marginals GibbsSampler::Run() {
  std::vector<std::vector<uint32_t>> counts(graph_->num_variables());
  for (size_t v = 0; v < graph_->num_variables(); ++v) {
    counts[v].assign(graph_->variable(static_cast<int>(v)).NumCandidates(),
                     0);
  }

  // Independent chains per factor-graph component; components share no
  // variables, so their chains may run concurrently.
  std::vector<std::vector<int32_t>> components = QueryComponents();
  if (options_.pool != nullptr && components.size() > 1) {
    options_.pool->ParallelFor(components.size(), [&](size_t c) {
      RunComponent(components[c], &counts);
    });
  } else {
    for (const auto& component : components) {
      RunComponent(component, &counts);
    }
  }

  Marginals out(graph_->num_variables());
  for (size_t v = 0; v < graph_->num_variables(); ++v) {
    const Variable& var = graph_->variable(static_cast<int>(v));
    auto& probs = out.probs()[v];
    probs.assign(var.NumCandidates(), 0.0);
    if (var.is_evidence) {
      probs[static_cast<size_t>(var.init_index)] = 1.0;
      continue;
    }
    uint64_t total = 0;
    for (uint32_t c : counts[v]) total += c;
    if (total == 0) {
      // Query variable never sampled (shouldn't happen); keep current state.
      probs[static_cast<size_t>(assignment_[v])] = 1.0;
      continue;
    }
    for (size_t k = 0; k < probs.size(); ++k) {
      probs[k] = static_cast<double>(counts[v][k]) /
                 static_cast<double>(total);
    }
  }
  return out;
}

}  // namespace holoclean
