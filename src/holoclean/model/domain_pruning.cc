#include "holoclean/model/domain_pruning.h"

#include <algorithm>

namespace holoclean {

PrunedDomains PruneDomainsColumnar(const Table& table,
                                   const std::vector<CellRef>& cells,
                                   const std::vector<AttrId>& attrs,
                                   const CooccurrenceStats& cooc,
                                   const DomainPruningOptions& options,
                                   ThreadPool* pool) {
  std::vector<std::vector<ValueId>> per_cell(cells.size());
  auto prune_cell = [&](size_t i) {
    const CellRef& cell = cells[i];
    // Collect every (value, pair_count) passing τ, then keep the best
    // count per value by sorting.
    std::vector<std::pair<ValueId, int>> hits;
    bool has_context = false;
    for (AttrId a_ctx : attrs) {
      if (a_ctx == cell.attr) continue;
      ValueId v_ctx = table.Get(cell.tid, a_ctx);
      if (v_ctx == Dictionary::kNull) continue;
      int ctx_count = cooc.Count(a_ctx, v_ctx);
      if (ctx_count == 0) continue;
      has_context = true;
      double bar = options.tau * static_cast<double>(ctx_count);
      for (const auto& [v, pair_count] :
           cooc.CooccurringValues(cell.attr, a_ctx, v_ctx)) {
        if (static_cast<double>(pair_count) >= bar) {
          hits.emplace_back(v, pair_count);
        }
      }
    }
    // Fall back to the attribute's most frequent values only when the tuple
    // has no usable context at all (e.g. an all-NULL row). When contexts
    // exist but nothing passes τ, Algorithm 2 legitimately yields only the
    // observed value — that monotone behaviour is the precision/recall dial.
    if (!has_context && options.frequency_fallback) {
      for (ValueId v : cooc.Domain(cell.attr)) {
        hits.emplace_back(v, cooc.Count(cell.attr, v));
      }
    }

    // Keep-max-per-value: group by value with count descending, take the
    // first of each group, then rank (count desc, value asc) and cap.
    std::sort(hits.begin(), hits.end(), [](const auto& a, const auto& b) {
      return a.first != b.first ? a.first < b.first : a.second > b.second;
    });
    hits.erase(std::unique(hits.begin(), hits.end(),
                           [](const auto& a, const auto& b) {
                             return a.first == b.first;
                           }),
               hits.end());
    std::sort(hits.begin(), hits.end(), [](const auto& a, const auto& b) {
      return a.second != b.second ? a.second > b.second : a.first < b.first;
    });
    if (hits.size() > options.max_candidates) {
      hits.resize(options.max_candidates);
    }

    std::vector<ValueId> candidates;
    candidates.reserve(hits.size() + 1);
    ValueId init = table.Get(cell);
    // The observed value is always a candidate (choosing it = "no repair").
    if (init != Dictionary::kNull) candidates.push_back(init);
    for (const auto& [v, score] : hits) {
      if (v != init) candidates.push_back(v);
    }
    if (candidates.empty()) candidates.push_back(init);
    per_cell[i] = std::move(candidates);
  };

  if (pool != nullptr && cells.size() > 1) {
    pool->ParallelFor(cells.size(), prune_cell);
  } else {
    for (size_t i = 0; i < cells.size(); ++i) prune_cell(i);
  }

  PrunedDomains out;
  out.candidates.reserve(cells.size());
  for (size_t i = 0; i < cells.size(); ++i) {
    out.candidates.emplace(cells[i], std::move(per_cell[i]));
  }
  return out;
}

}  // namespace holoclean
