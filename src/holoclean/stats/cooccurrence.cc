#include "holoclean/stats/cooccurrence.h"

#include <algorithm>

#include "holoclean/util/logging.h"

namespace holoclean {

namespace {
// Supported sizes: fewer than 256 attributes and 2^24 dictionary values.
constexpr uint64_t kValueBits = 24;
}  // namespace

CooccurrenceStats CooccurrenceStats::BuildColumnar(
    const Table& table, const std::vector<AttrId>& attrs, ThreadPool* pool) {
  CooccurrenceStats stats;
  size_t num_attrs = table.schema().num_attrs();
  stats.num_attrs_ = num_attrs;
  HOLO_CHECK(num_attrs < 256);
  HOLO_CHECK(table.dict().size() < (1ULL << kValueBits));
  stats.pair_index_.resize(num_attrs * num_attrs);
  stats.domains_.resize(num_attrs);

  const ColumnStore& store = table.store();

  for (AttrId a : attrs) {
    const ColumnStore::Column& col = store.column(static_cast<size_t>(a));
    for (size_t c = 1; c < col.num_codes(); ++c) {
      if (col.code_counts[c] > 0) {
        stats.value_counts_[KeyAV(a, col.code_to_value[c])] =
            static_cast<int>(col.code_counts[c]);
      }
    }
    stats.domains_[static_cast<size_t>(a)] = table.ActiveDomain(a);
  }

  // One task per ordered (target, context) attribute pair; each writes a
  // disjoint pair_index_ slot, so pairs parallelize without coordination.
  std::vector<std::pair<AttrId, AttrId>> tasks;
  tasks.reserve(attrs.size() * attrs.size());
  for (AttrId a : attrs) {
    for (AttrId a_ctx : attrs) {
      if (a_ctx != a) tasks.emplace_back(a, a_ctx);
    }
  }
  std::vector<size_t> task_entries(tasks.size(), 0);

  auto build_pair = [&](size_t task) {
    const AttrId a = tasks[task].first;
    const AttrId a_ctx = tasks[task].second;
    const ColumnStore::Column& tcol = store.column(static_cast<size_t>(a));
    const ColumnStore::Column& ccol =
        store.column(static_cast<size_t>(a_ctx));
    const size_t n_ctx = ccol.num_codes();
    const size_t n_tgt = tcol.num_codes();

    // Group the target codes of all rows by their context code with a
    // prefix-sum scatter (the context column's occupancy counts are the
    // bucket sizes), then count each group with a touched-list scratch.
    std::vector<uint32_t> offsets(n_ctx + 1, 0);
    for (size_t c = 1; c < n_ctx; ++c) {
      offsets[c + 1] = offsets[c] + ccol.code_counts[c];
    }
    std::vector<Code> grouped(offsets[n_ctx]);
    std::vector<uint32_t> cursor(offsets.begin(), offsets.end() - 1);
    for (size_t ch = 0; ch < ccol.codes.num_chunks(); ++ch) {
      const Code* cc_data = ccol.codes.chunk_data(ch);
      const Code* tc_data = tcol.codes.chunk_data(ch);
      const size_t m = ccol.codes.chunk_size(ch);
      for (size_t i = 0; i < m; ++i) {
        Code cc = cc_data[i];
        if (cc == 0) continue;
        grouped[cursor[static_cast<size_t>(cc)]++] = tc_data[i];
      }
    }

    std::vector<int> counts(n_tgt, 0);
    std::vector<Code> touched;
    auto& index = stats.pair_index_[static_cast<size_t>(a) * num_attrs +
                                    static_cast<size_t>(a_ctx)];
    size_t entries = 0;
    for (size_t cc = 1; cc < n_ctx; ++cc) {
      for (uint32_t u = offsets[cc]; u < offsets[cc + 1]; ++u) {
        Code tc = grouped[u];
        if (tc == 0) continue;
        if (counts[static_cast<size_t>(tc)]++ == 0) touched.push_back(tc);
      }
      if (touched.empty()) continue;
      auto& list = index.by_ctx[ccol.code_to_value[cc]];
      list.reserve(touched.size());
      for (Code tc : touched) {
        list.emplace_back(tcol.code_to_value[static_cast<size_t>(tc)],
                          counts[static_cast<size_t>(tc)]);
        counts[static_cast<size_t>(tc)] = 0;
      }
      touched.clear();
      // Ascending by value: deterministic candidate generation.
      std::sort(list.begin(), list.end());
      entries += list.size();
    }
    task_entries[task] = entries;
  };

  if (pool != nullptr && tasks.size() > 1) {
    pool->ParallelFor(tasks.size(), build_pair);
  } else {
    for (size_t i = 0; i < tasks.size(); ++i) build_pair(i);
  }
  for (size_t e : task_entries) stats.num_pair_entries_ += e;
  return stats;
}

void CooccurrenceStats::AppendRows(const Table& table,
                                   const std::vector<AttrId>& attrs,
                                   size_t first_row) {
  HOLO_CHECK(table.schema().num_attrs() == num_attrs_);
  HOLO_CHECK(table.dict().size() < (1ULL << kValueBits));
  for (size_t t = first_row; t < table.num_rows(); ++t) {
    for (AttrId a : attrs) {
      ValueId v = table.Get(static_cast<TupleId>(t), a);
      if (v == Dictionary::kNull) continue;
      ++value_counts_[KeyAV(a, v)];
      for (AttrId a_ctx : attrs) {
        if (a_ctx == a) continue;
        ValueId v_ctx = table.Get(static_cast<TupleId>(t), a_ctx);
        if (v_ctx == Dictionary::kNull) continue;
        auto& list = pair_index_[static_cast<size_t>(a) * num_attrs_ +
                                 static_cast<size_t>(a_ctx)]
                         .by_ctx[v_ctx];
        auto it =
            std::lower_bound(list.begin(), list.end(), std::make_pair(v, 0));
        if (it != list.end() && it->first == v) {
          ++it->second;
        } else {
          list.insert(it, {v, 1});
          ++num_pair_entries_;
        }
      }
    }
  }
  for (AttrId a : attrs) {
    domains_[static_cast<size_t>(a)] = table.ActiveDomain(a);
  }
}

int CooccurrenceStats::PairCount(AttrId a, ValueId v, AttrId a_ctx,
                                 ValueId v_ctx) const {
  const auto& list = CooccurringValues(a, a_ctx, v_ctx);
  auto it = std::lower_bound(list.begin(), list.end(), std::make_pair(v, 0));
  return (it != list.end() && it->first == v) ? it->second : 0;
}

int CooccurrenceStats::Count(AttrId a, ValueId v) const {
  auto it = value_counts_.find(KeyAV(a, v));
  return it == value_counts_.end() ? 0 : it->second;
}

double CooccurrenceStats::CondProb(AttrId a, ValueId v, AttrId a_ctx,
                                   ValueId v_ctx) const {
  int ctx_count = Count(a_ctx, v_ctx);
  if (ctx_count == 0) return 0.0;
  return static_cast<double>(PairCount(a, v, a_ctx, v_ctx)) /
         static_cast<double>(ctx_count);
}

const std::vector<std::pair<ValueId, int>>&
CooccurrenceStats::CooccurringValues(AttrId a, AttrId a_ctx,
                                     ValueId v_ctx) const {
  static const std::vector<std::pair<ValueId, int>> kEmpty;
  const auto& index = pair_index_[static_cast<size_t>(a) * num_attrs_ +
                                  static_cast<size_t>(a_ctx)];
  auto it = index.by_ctx.find(v_ctx);
  if (it == index.by_ctx.end()) return kEmpty;
  return it->second;
}

const std::vector<ValueId>& CooccurrenceStats::Domain(AttrId a) const {
  return domains_[static_cast<size_t>(a)];
}

}  // namespace holoclean
