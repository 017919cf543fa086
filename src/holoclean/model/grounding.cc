#include "holoclean/model/grounding.h"

#include <algorithm>
#include <atomic>
#include <unordered_set>

#include "holoclean/ddlog/program.h"
#include "holoclean/model/feature_registry.h"
#include "holoclean/util/hash.h"
#include "holoclean/util/logging.h"

namespace holoclean {

namespace {

/// Query-variable ids among the head-slot cells of a grounded tuple pair.
/// Reads the already-built variables only; safe to call concurrently.
std::vector<int32_t> VarsOfPair(const FactorGraph& graph,
                                const std::vector<DcHeadSlot>& slots,
                                TupleId t1, TupleId t2) {
  std::vector<int32_t> ids;
  for (const DcHeadSlot& slot : slots) {
    CellRef c{slot.role == 0 ? t1 : t2, slot.attr};
    int id = graph.VarOfCell(c);
    if (id >= 0 && !graph.variable(id).is_evidence) {
      ids.push_back(id);
    }
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

}  // namespace

Grounder::Grounder(GroundingInput input, GroundingOptions options)
    : in_(std::move(input)),
      opt_(options),
      evaluator_(in_.table, options.sim_threshold) {
  HOLO_CHECK(in_.table != nullptr);
  HOLO_CHECK(in_.dcs != nullptr);
  HOLO_CHECK(in_.attrs != nullptr);
  HOLO_CHECK(in_.query_cells != nullptr);
  HOLO_CHECK(in_.evidence_cells != nullptr);
  HOLO_CHECK(in_.domains != nullptr);
  if (in_.matches != nullptr) {
    for (const MatchedEntry& m : *in_.matches) {
      ValueId v = in_.table->dict().Lookup(m.value);
      if (v < 0) continue;  // Pipeline interns matched values; skip others.
      matches_by_cell_[m.cell].emplace_back(v, m.dict_id);
    }
  }
  BuildDcIndexes();
}

void Grounder::BuildDcIndexes() {
  const auto& dcs = *in_.dcs;
  dc_indexes_.resize(dcs.size());
  fd_target_attr_.assign(dcs.size(), -1);
  cross_eqs_.resize(dcs.size());
  role_attrs_[0].resize(dcs.size());
  role_attrs_[1].resize(dcs.size());
  size_t n = in_.table->num_rows();

  for (size_t i = 0; i < dcs.size(); ++i) {
    const DenialConstraint& dc = dcs[i];
    cross_eqs_[i] = dc.CrossEqualities();
    role_attrs_[0][i] = dc.AttrsOfRole(0);
    role_attrs_[1][i] = dc.AttrsOfRole(1);
    if (!dc.IsTwoTuple()) continue;
    if (cross_eqs_[i].empty()) continue;
    DcIndex& index = dc_indexes_[i];
    index.usable = true;
    for (size_t t = 0; t < n; ++t) {
      for (int role : {0, 1}) {
        uint64_t key =
            RoleKey(static_cast<int>(i), static_cast<TupleId>(t), role, {});
        if (key == 0) continue;
        index.by_role[role][key].push_back(static_cast<TupleId>(t));
      }
    }

    // FD shape: every predicate spans both tuples on the same attribute,
    // exactly one is a NEQ (the dependent attribute), the rest are EQ.
    AttrId neq_attr = -1;
    bool fd_shaped = true;
    int neq_count = 0;
    for (const Predicate& p : dc.preds) {
      if (p.rhs_is_constant || p.lhs_tuple == p.rhs_tuple ||
          p.lhs_attr != p.rhs_attr) {
        fd_shaped = false;
        break;
      }
      if (p.op == Op::kNeq) {
        ++neq_count;
        neq_attr = p.lhs_attr;
      } else if (p.op != Op::kEq) {
        fd_shaped = false;
        break;
      }
    }
    if (fd_shaped && neq_count == 1) {
      fd_target_attr_[i] = neq_attr;
    }
  }
}

uint64_t Grounder::RoleKey(int dc_index, TupleId t, int role,
                           const std::vector<CellOverride>& overrides) const {
  uint64_t h = 0x9E3779B97F4A7C15ULL;
  for (const Predicate* p : cross_eqs_[static_cast<size_t>(dc_index)]) {
    AttrId attr;
    if (role == 0) {
      attr = p->lhs_tuple == 0 ? p->lhs_attr : p->rhs_attr;
    } else {
      attr = p->lhs_tuple == 1 ? p->lhs_attr : p->rhs_attr;
    }
    ValueId v = in_.table->Get(t, attr);
    for (const CellOverride& o : overrides) {
      if (o.cell.tid == t && o.cell.attr == attr) v = o.value;
    }
    if (v == Dictionary::kNull) return 0;
    h = HashCombine(h, static_cast<uint64_t>(static_cast<uint32_t>(v)));
  }
  return h;
}

int Grounder::CountViolations(int dc_index, const CellRef& cell,
                              ValueId candidate) const {
  const DenialConstraint& dc = (*in_.dcs)[static_cast<size_t>(dc_index)];
  std::vector<CellOverride> overrides{{cell, candidate}};

  if (!dc.IsTwoTuple()) {
    const auto& attrs = role_attrs_[0][static_cast<size_t>(dc_index)];
    if (!std::binary_search(attrs.begin(), attrs.end(), cell.attr)) return 0;
    return evaluator_.ViolatesWith(dc, cell.tid, cell.tid, overrides) ? 1 : 0;
  }

  const DcIndex& index = dc_indexes_[static_cast<size_t>(dc_index)];
  if (!index.usable) return 0;

  int count = 0;
  std::unordered_set<TupleId> counted;
  for (int role : {0, 1}) {
    const auto& role_attrs = role_attrs_[role][static_cast<size_t>(dc_index)];
    if (!std::binary_search(role_attrs.begin(), role_attrs.end(), cell.attr)) {
      continue;
    }
    uint64_t key = RoleKey(dc_index, cell.tid, role, overrides);
    if (key == 0) continue;
    auto it = index.by_role[1 - role].find(key);
    if (it == index.by_role[1 - role].end()) continue;
    size_t checks = 0;
    for (TupleId partner : it->second) {
      if (partner == cell.tid) continue;
      if (++checks > opt_.max_partner_checks) break;
      if (counted.count(partner) > 0) continue;
      bool violates = role == 0
                          ? evaluator_.ViolatesWith(dc, cell.tid, partner,
                                                    overrides)
                          : evaluator_.ViolatesWith(dc, partner, cell.tid,
                                                    overrides);
      if (violates) {
        counted.insert(partner);
        if (++count >= opt_.max_violation_count) return count;
      }
    }
  }
  return count;
}

std::unordered_map<ValueId, int> Grounder::SupportBySource(
    int dc_index, const CellRef& cell, ValueId candidate) const {
  std::unordered_map<ValueId, int> support;
  const DcIndex& index = dc_indexes_[static_cast<size_t>(dc_index)];
  if (!index.usable) return support;
  uint64_t key = RoleKey(dc_index, cell.tid, 0, {});
  if (key == 0) return support;
  auto it = index.by_role[1].find(key);
  if (it == index.by_role[1].end()) return support;
  size_t checks = 0;
  for (TupleId partner : it->second) {
    if (partner == cell.tid) continue;
    if (++checks > opt_.max_partner_checks) break;
    if (in_.table->Get(partner, cell.attr) != candidate) continue;
    ValueId src = in_.source_attr >= 0
                      ? in_.table->Get(partner, in_.source_attr)
                      : Dictionary::kNull;
    ++support[src];
  }
  return support;
}

Result<Variable> Grounder::BuildVariable(const CellRef& cell,
                                         bool is_evidence) const {
  const Table& table = *in_.table;
  Variable var;
  var.cell = cell;
  var.is_evidence = is_evidence;
  var.domain = in_.domains->For(cell);
  if (var.domain.empty()) {
    return Status::Internal("cell has no candidates");
  }
  ValueId init = table.Get(cell);
  var.init_index = -1;
  for (size_t k = 0; k < var.domain.size(); ++k) {
    if (var.domain[k] == init) {
      var.init_index = static_cast<int>(k);
      break;
    }
  }
  var.prior_bias.assign(var.domain.size(), 0.0);
  if (var.init_index >= 0) {
    var.prior_bias[static_cast<size_t>(var.init_index)] =
        opt_.minimality_weight;
  }

  ValueId src = in_.source_attr >= 0 ? table.Get(cell.tid, in_.source_attr)
                                     : Dictionary::kNull;
  const auto* cell_matches = [&]() -> const std::vector<std::pair<ValueId, int>>* {
    auto it = matches_by_cell_.find(cell);
    return it == matches_by_cell_.end() ? nullptr : &it->second;
  }();

  bool relax_dcs =
      opt_.dc_mode == DcMode::kFeatures || opt_.dc_mode == DcMode::kBoth;

  // The tuple's context is resolved once per cell — the context value, its
  // count, and the co-occurrence run for this attribute pair — so the
  // per-candidate loop binary-searches an id-sorted run instead of hashing
  // into the statistics per candidate. The features are pinned against the
  // reference oracle::ContextFeatures in tests/oracle/.
  struct CtxRun {
    AttrId a_ctx;
    ValueId v_ctx;
    int ctx_count;
    const std::vector<std::pair<ValueId, int>>* run;
  };
  std::vector<CtxRun> contexts;
  contexts.reserve(in_.attrs->size());
  for (AttrId a_ctx : *in_.attrs) {
    if (a_ctx == cell.attr) continue;
    ValueId v_ctx = table.Get(cell.tid, a_ctx);
    if (v_ctx == Dictionary::kNull) continue;
    CtxRun ctx{a_ctx, v_ctx, 0, nullptr};
    if (in_.cooc != nullptr) {
      ctx.ctx_count = in_.cooc->Count(a_ctx, v_ctx);
      ctx.run = &in_.cooc->CooccurringValues(cell.attr, a_ctx, v_ctx);
    }
    contexts.push_back(ctx);
  }

  var.feat_begin.push_back(0);
  for (size_t k = 0; k < var.domain.size(); ++k) {
    ValueId d = var.domain[k];
    uint32_t du = static_cast<uint32_t>(d);
    uint32_t au = static_cast<uint32_t>(cell.attr);

    // Co-occurrence features: one per non-null context cell of the tuple.
    // Two flavours per context: the paper's per-(d,f) indicator with weight
    // w(d,f), and a probability-valued feature shared per attribute pair so
    // the statistics signal generalizes where w(d,f) lacks training data.
    for (const CtxRun& ctx : contexts) {
      var.features.push_back(
          {WeightKeyCodec::Pack(FeatureKind::kCooccurrence, au,
                                static_cast<uint32_t>(ctx.a_ctx),
                                static_cast<uint32_t>(ctx.v_ctx), du),
           1.0f});
      if (ctx.run != nullptr && ctx.ctx_count > 0) {
        auto it = std::lower_bound(ctx.run->begin(), ctx.run->end(),
                                   std::make_pair(d, 0));
        if (it != ctx.run->end() && it->first == d) {
          double p = static_cast<double>(it->second) /
                     static_cast<double>(ctx.ctx_count);
          var.features.push_back(
              {WeightKeyCodec::Pack(FeatureKind::kCondProb, au,
                                    static_cast<uint32_t>(ctx.a_ctx), 0, 0),
               static_cast<float>(p)});
        }
      }
    }
    // Marginal frequency of the candidate within its attribute.
    if (in_.cooc != nullptr && table.num_rows() > 0) {
      double p = static_cast<double>(in_.cooc->Count(cell.attr, d)) /
                 static_cast<double>(table.num_rows());
      if (p > 0.0) {
        var.features.push_back(
            {WeightKeyCodec::Pack(FeatureKind::kFrequency, au, 0, 0, 0),
             static_cast<float>(p)});
      }
    }
    // Source prior feature (provenance as a feature, paper §4.1).
    if (src != Dictionary::kNull) {
      var.features.push_back(
          {WeightKeyCodec::Pack(FeatureKind::kSourcePrior, au, 0,
                                static_cast<uint32_t>(src), du),
           1.0f});
    }
    // External-dictionary factors, weight w(k).
    if (cell_matches != nullptr) {
      for (const auto& [value, dict_id] : *cell_matches) {
        if (value == d) {
          var.features.push_back(
              {WeightKeyCodec::Pack(FeatureKind::kExtDict, 0,
                                    static_cast<uint32_t>(dict_id), 0, 0),
               1.0f});
        }
      }
    }
    // Denial-constraint signals.
    for (size_t s = 0; s < in_.dcs->size(); ++s) {
      if (relax_dcs) {
        int violations = CountViolations(static_cast<int>(s), cell, d);
        if (violations > 0) {
          var.features.push_back(
              {WeightKeyCodec::Pack(FeatureKind::kDcViolation, 0,
                                    static_cast<uint32_t>(s), 0, 0),
               static_cast<float>(violations)});
        }
      }
      // Agreement with FD partners, keyed by the partner's source: the
      // trust signal that drives Flights (§6.2.1) and the duplicate signal
      // that drives Hospital.
      if (fd_target_attr_[s] == cell.attr) {
        for (const auto& [partner_src, n] :
             SupportBySource(static_cast<int>(s), cell, d)) {
          int capped = std::min(n, static_cast<int>(opt_.max_support_count));
          var.features.push_back(
              {WeightKeyCodec::Pack(FeatureKind::kSourceSupport, au,
                                    static_cast<uint32_t>(s),
                                    static_cast<uint32_t>(partner_src), 0),
               static_cast<float>(capped)});
        }
      }
    }
    var.feat_begin.push_back(static_cast<int32_t>(var.features.size()));
  }
  return var;
}

void Grounder::GroundDcFactors(FactorGraph* graph) {
  const auto& dcs = *in_.dcs;
  const Table& table = *in_.table;
  size_t n = table.num_rows();

  TupleGroups local_groups;
  const TupleGroups* groups = in_.groups;
  if (opt_.use_partitioning && groups == nullptr) {
    static const std::vector<Violation> kNoViolations;
    const auto& violations =
        in_.violations != nullptr ? *in_.violations : kNoViolations;
    local_groups = BuildTupleGroups(n, dcs.size(), violations);
    groups = &local_groups;
  }

  for (size_t s = 0; s < dcs.size(); ++s) {
    const DenialConstraint& dc = dcs[s];
    auto slots = EnumerateHeadSlots(dc);

    auto vars_of_pair = [&](TupleId t1, TupleId t2) {
      return VarsOfPair(*graph, slots, t1, t2);
    };

    if (dc.IsTwoTuple() && opt_.use_partitioning) {
      GroundPartitionedDc(graph, static_cast<int>(s), groups->groups_per_dc[s]);
      continue;
    }

    if (!dc.IsTwoTuple()) {
      for (size_t t = 0; t < n; ++t) {
        TupleId tid = static_cast<TupleId>(t);
        auto ids = vars_of_pair(tid, tid);
        if (ids.empty()) continue;
        graph->AddDcFactor(
            {static_cast<int>(s), tid, tid, opt_.dc_factor_weight, ids});
        ++stats_.num_dc_factors;
      }
      continue;
    }

    std::unordered_set<uint64_t> seen_pairs;
    size_t pairs = 0;
    auto consider = [&](TupleId a, TupleId b) {
      if (a == b || pairs >= opt_.max_pairs_per_dc) return;
      uint64_t lo = static_cast<uint32_t>(std::min(a, b));
      uint64_t hi = static_cast<uint32_t>(std::max(a, b));
      if (!seen_pairs.insert((hi << 32) | lo).second) return;
      ++stats_.num_dc_pairs_considered;
      auto ids = vars_of_pair(a, b);
      if (ids.empty()) return;
      graph->AddDcFactor(
          {static_cast<int>(s), a, b, opt_.dc_factor_weight, ids});
      ++stats_.num_dc_factors;
      ++pairs;
    };

    // No partitioning: candidate-expanded blocking. A pair can interact
    // through the constraint only if some candidate assignment makes the
    // equality prefix match, so we expand each tuple's blocking key over
    // the candidate values of its noisy equality-attribute cells.
    auto equalities = dc.CrossEqualities();
    if (equalities.empty()) {
      HOLO_LOG(kWarning) << "DC " << dc.name
                         << " has no equality predicate; skipping factors";
      continue;
    }
    std::unordered_map<uint64_t, std::vector<TupleId>> buckets[2];
    for (int role : {0, 1}) {
      std::vector<AttrId> key_attrs;
      for (const Predicate* p : equalities) {
        key_attrs.push_back(role == 0
                                ? (p->lhs_tuple == 0 ? p->lhs_attr
                                                     : p->rhs_attr)
                                : (p->lhs_tuple == 1 ? p->lhs_attr
                                                     : p->rhs_attr));
      }
      for (size_t t = 0; t < n; ++t) {
        TupleId tid = static_cast<TupleId>(t);
        // Cartesian product of per-attribute value options, capped.
        std::vector<uint64_t> keys{0x9E3779B97F4A7C15ULL};
        bool dead = false;
        for (AttrId attr : key_attrs) {
          std::vector<ValueId> options;
          ValueId init = table.Get(tid, attr);
          if (init != Dictionary::kNull) options.push_back(init);
          const auto& cand = in_.domains->For(CellRef{tid, attr});
          for (ValueId v : cand) {
            if (v != init && v != Dictionary::kNull) options.push_back(v);
          }
          if (options.empty()) {
            dead = true;
            break;
          }
          std::vector<uint64_t> next;
          next.reserve(keys.size() * options.size());
          for (uint64_t h : keys) {
            for (ValueId v : options) {
              next.push_back(HashCombine(
                  h, static_cast<uint64_t>(static_cast<uint32_t>(v))));
              if (next.size() >= opt_.max_keys_per_tuple) break;
            }
            if (next.size() >= opt_.max_keys_per_tuple) break;
          }
          keys = std::move(next);
        }
        if (dead) continue;
        for (uint64_t key : keys) buckets[role][key].push_back(tid);
      }
    }
    for (const auto& [key, left] : buckets[0]) {
      auto it = buckets[1].find(key);
      if (it == buckets[1].end()) continue;
      for (TupleId a : left) {
        for (TupleId b : it->second) consider(a, b);
      }
    }
    if (pairs >= opt_.max_pairs_per_dc) {
      HOLO_LOG(kWarning) << "DC factor pair cap reached for " << dc.name;
    }
  }
}

void Grounder::GroundPartitionedDc(
    FactorGraph* graph, int dc_index,
    const std::vector<std::vector<TupleId>>& groups) {
  const DenialConstraint& dc = (*in_.dcs)[static_cast<size_t>(dc_index)];
  auto slots = EnumerateHeadSlots(dc);

  std::vector<std::vector<DcFactor>> per_group(groups.size());
  std::vector<size_t> considered(groups.size(), 0);
  auto build_group = [&](size_t g) {
    const std::vector<TupleId>& group = groups[g];
    std::vector<DcFactor>& out = per_group[g];
    for (size_t i = 0; i < group.size(); ++i) {
      for (size_t j = i + 1; j < group.size(); ++j) {
        if (out.size() >= opt_.max_pairs_per_dc) return;
        ++considered[g];
        auto ids = VarsOfPair(*graph, slots, group[i], group[j]);
        if (ids.empty()) continue;
        out.push_back({dc_index, group[i], group[j], opt_.dc_factor_weight,
                       std::move(ids)});
      }
    }
  };
  if (opt_.pool != nullptr) {
    opt_.pool->ParallelFor(groups.size(), build_group);
  } else {
    for (size_t g = 0; g < groups.size(); ++g) build_group(g);
  }

  // Deterministic merge: append in group order, capped per constraint.
  size_t pairs = 0;
  for (size_t g = 0; g < groups.size(); ++g) {
    stats_.num_dc_pairs_considered += considered[g];
    for (DcFactor& factor : per_group[g]) {
      if (pairs >= opt_.max_pairs_per_dc) {
        HOLO_LOG(kWarning) << "DC factor pair cap reached for " << dc.name;
        return;
      }
      graph->AddDcFactor(std::move(factor));
      ++stats_.num_dc_factors;
      ++pairs;
    }
  }
}

Result<FactorGraph> Grounder::Ground() {
  if (in_.table->dict().size() >= (1ULL << WeightKeyCodec::kValueBits)) {
    return Status::OutOfRange("dictionary too large for weight-key packing");
  }
  FactorGraph graph;
  // Variables are independent of each other: build them in parallel, then
  // register sequentially so ids are deterministic.
  std::vector<Variable> query_vars(in_.query_cells->size());
  std::atomic<bool> failed{false};
  auto build_query = [&](size_t i) {
    auto var = BuildVariable((*in_.query_cells)[i], /*is_evidence=*/false);
    if (!var.ok()) {
      failed.store(true);
      return;
    }
    query_vars[i] = std::move(var).value();
  };
  if (opt_.pool != nullptr) {
    opt_.pool->ParallelFor(query_vars.size(), build_query);
  } else {
    for (size_t i = 0; i < query_vars.size(); ++i) build_query(i);
  }
  if (failed.load()) return Status::Internal("cell has no candidates");
  for (Variable& var : query_vars) {
    stats_.num_feature_instances += var.features.size();
    graph.AddVariable(std::move(var));
    ++stats_.num_query_vars;
  }

  std::vector<Variable> evidence_vars(in_.evidence_cells->size());
  std::vector<char> keep(in_.evidence_cells->size(), 0);
  auto build_evidence = [&](size_t i) {
    const CellRef& cell = (*in_.evidence_cells)[i];
    if (in_.table->Get(cell) == Dictionary::kNull) return;
    auto var = BuildVariable(cell, /*is_evidence=*/true);
    if (!var.ok()) {
      failed.store(true);
      return;
    }
    if (var.value().init_index < 0) return;  // Label outside candidates.
    evidence_vars[i] = std::move(var).value();
    keep[i] = 1;
  };
  if (opt_.pool != nullptr) {
    opt_.pool->ParallelFor(evidence_vars.size(), build_evidence);
  } else {
    for (size_t i = 0; i < evidence_vars.size(); ++i) build_evidence(i);
  }
  if (failed.load()) return Status::Internal("cell has no candidates");
  for (size_t i = 0; i < evidence_vars.size(); ++i) {
    if (!keep[i]) continue;
    stats_.num_feature_instances += evidence_vars[i].features.size();
    graph.AddVariable(std::move(evidence_vars[i]));
    ++stats_.num_evidence_vars;
  }
  if (opt_.dc_mode == DcMode::kFactors || opt_.dc_mode == DcMode::kBoth) {
    GroundDcFactors(&graph);
  }
  return graph;
}

Status Grounder::GroundAppend(FactorGraph* graph,
                              const std::vector<CellRef>& query,
                              const std::vector<CellRef>& evidence) {
  if (in_.table->dict().size() >= (1ULL << WeightKeyCodec::kValueBits)) {
    return Status::OutOfRange("dictionary too large for weight-key packing");
  }
  std::vector<Variable> query_vars(query.size());
  std::atomic<bool> failed{false};
  auto build_query = [&](size_t i) {
    auto var = BuildVariable(query[i], /*is_evidence=*/false);
    if (!var.ok()) {
      failed.store(true);
      return;
    }
    query_vars[i] = std::move(var).value();
  };
  if (opt_.pool != nullptr) {
    opt_.pool->ParallelFor(query_vars.size(), build_query);
  } else {
    for (size_t i = 0; i < query_vars.size(); ++i) build_query(i);
  }
  if (failed.load()) return Status::Internal("cell has no candidates");
  for (Variable& var : query_vars) {
    stats_.num_feature_instances += var.features.size();
    graph->AddVariable(std::move(var));
    ++stats_.num_query_vars;
  }

  std::vector<Variable> evidence_vars(evidence.size());
  std::vector<char> keep(evidence.size(), 0);
  auto build_evidence = [&](size_t i) {
    const CellRef& cell = evidence[i];
    if (in_.table->Get(cell) == Dictionary::kNull) return;
    auto var = BuildVariable(cell, /*is_evidence=*/true);
    if (!var.ok()) {
      failed.store(true);
      return;
    }
    if (var.value().init_index < 0) return;  // Label outside candidates.
    evidence_vars[i] = std::move(var).value();
    keep[i] = 1;
  };
  if (opt_.pool != nullptr) {
    opt_.pool->ParallelFor(evidence_vars.size(), build_evidence);
  } else {
    for (size_t i = 0; i < evidence_vars.size(); ++i) build_evidence(i);
  }
  if (failed.load()) return Status::Internal("cell has no candidates");
  for (size_t i = 0; i < evidence_vars.size(); ++i) {
    if (!keep[i]) continue;
    stats_.num_feature_instances += evidence_vars[i].features.size();
    graph->AddVariable(std::move(evidence_vars[i]));
    ++stats_.num_evidence_vars;
  }
  return Status::OK();
}

}  // namespace holoclean
