#include "checks.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <map>
#include <numeric>
#include <unordered_map>

namespace e2ebench {

using holoclean::CellRef;
using holoclean::JsonValue;

void Verdict::Fail(const std::string& what) {
  ++failures_;
  // Keep the log short: the first few failures say what went wrong.
  if (!quiet_ && failures_ <= 5) Log("CHECK FAILED: %s", what.c_str());
}

int TextTable::Col(const std::string& name) const {
  for (size_t i = 0; i < header.size(); ++i) {
    if (header[i] == name) return static_cast<int>(i);
  }
  return -1;
}

bool ReadTextTable(const std::string& csv, TextTable* out) {
  std::vector<std::vector<std::string>> records;
  std::vector<std::string> record;
  std::string field;
  bool quoted = false;
  bool any = false;
  for (size_t i = 0; i < csv.size(); ++i) {
    char c = csv[i];
    if (quoted) {
      if (c == '"') {
        if (i + 1 < csv.size() && csv[i + 1] == '"') {
          field += '"';
          ++i;
        } else {
          quoted = false;
        }
      } else {
        field += c;
      }
      continue;
    }
    if (c == '"') {
      quoted = true;
      any = true;
    } else if (c == ',') {
      record.push_back(std::move(field));
      field.clear();
      any = true;
    } else if (c == '\n' || c == '\r') {
      if (c == '\r' && i + 1 < csv.size() && csv[i + 1] == '\n') ++i;
      record.push_back(std::move(field));
      field.clear();
      records.push_back(std::move(record));
      record.clear();
      any = false;
    } else {
      field += c;
      any = true;
    }
  }
  if (quoted) return false;
  if (any || !field.empty()) {
    record.push_back(std::move(field));
    records.push_back(std::move(record));
  }
  if (records.empty()) return false;
  out->header = std::move(records[0]);
  out->rows.assign(std::make_move_iterator(records.begin() + 1),
                   std::make_move_iterator(records.end()));
  for (const auto& row : out->rows) {
    if (row.size() != out->header.size()) return false;
  }
  return true;
}

std::vector<TextRepair> RepairsAsText(
    const holoclean::Table& table,
    const std::vector<holoclean::Repair>& repairs) {
  std::vector<TextRepair> out;
  out.reserve(repairs.size());
  for (const holoclean::Repair& r : repairs) {
    out.push_back({r.cell.tid, table.schema().name(r.cell.attr),
                   table.dict().GetString(r.old_value),
                   table.dict().GetString(r.new_value), r.probability});
  }
  return out;
}

bool CheckRepairedTable(const std::string& dirty_csv,
                        const std::string& repaired_csv,
                        const std::vector<TextRepair>& repairs,
                        Verdict* verdict) {
  TextTable dirty;
  TextTable repaired;
  if (!ReadTextTable(dirty_csv, &dirty) ||
      !ReadTextTable(repaired_csv, &repaired)) {
    verdict->Fail("repaired table: unreadable CSV");
    return false;
  }
  if (dirty.header != repaired.header ||
      dirty.rows.size() != repaired.rows.size()) {
    verdict->Fail("repaired table: shape differs from the dirty table");
    return false;
  }
  for (const TextRepair& r : repairs) {
    int col = dirty.Col(r.attr);
    if (col < 0 || r.tid < 0 ||
        static_cast<size_t>(r.tid) >= dirty.rows.size()) {
      verdict->Fail("repair names a cell outside the table");
      return false;
    }
    std::string& cell = dirty.rows[static_cast<size_t>(r.tid)]
                                  [static_cast<size_t>(col)];
    if (cell != r.old_value) {
      verdict->Fail("repair old value differs from the dirty cell");
      return false;
    }
    cell = r.new_value;
  }
  if (dirty.rows != repaired.rows) {
    verdict->Fail("repaired table differs from dirty table + repairs");
    return false;
  }
  return true;
}

bool CheckRepairsOnDomains(const holoclean::PipelineContext& ctx,
                           const std::vector<holoclean::Repair>& repairs,
                           Verdict* verdict) {
  for (const holoclean::Repair& r : repairs) {
    if (!ctx.noisy.Contains(r.cell)) {
      verdict->Fail("repair on a cell detect did not flag noisy");
      return false;
    }
    const std::vector<holoclean::ValueId>& domain = ctx.domains.For(r.cell);
    if (std::find(domain.begin(), domain.end(), r.new_value) ==
        domain.end()) {
      verdict->Fail("repair value outside the cell's pruned domain");
      return false;
    }
  }
  return true;
}

std::vector<ViolationPair> ViolationPairs(
    const std::vector<holoclean::Violation>& violations) {
  std::vector<ViolationPair> out;
  out.reserve(violations.size());
  for (const holoclean::Violation& v : violations) {
    out.push_back({v.dc_index, v.t1, v.t2});
  }
  return out;
}

namespace {

// --- The benchmark's own denial-constraint evaluator -----------------------

struct TextPredicate {
  std::string op;
  int lhs_role = 0;
  int lhs_col = 0;
  bool rhs_constant = false;
  int rhs_role = 0;
  int rhs_col = 0;
  std::string constant;
};

struct TextDc {
  bool two_tuple = false;
  std::vector<TextPredicate> preds;
};

/// Parses "t1&t2&EQ(t1.Zip,t2.Zip)&IQ(t1.City,t2.City)" against a header.
bool ParseTextDc(const std::string& line, const TextTable& table,
                 TextDc* out) {
  std::vector<std::string> parts;
  size_t begin = 0;
  bool in_quotes = false;
  for (size_t i = 0; i <= line.size(); ++i) {
    if (i < line.size() && line[i] == '"') in_quotes = !in_quotes;
    if (i == line.size() || (line[i] == '&' && !in_quotes)) {
      parts.push_back(line.substr(begin, i - begin));
      begin = i + 1;
    }
  }
  auto cell_ref = [&](const std::string& s, int* role, int* col) {
    if (s.size() < 4 || s[0] != 't' || s[2] != '.') return false;
    *role = s[1] == '2' ? 1 : 0;
    *col = table.Col(s.substr(3));
    return *col >= 0;
  };
  for (const std::string& part : parts) {
    if (part == "t1") continue;
    if (part == "t2") {
      out->two_tuple = true;
      continue;
    }
    size_t open = part.find('(');
    size_t comma = part.find(',');
    if (open == std::string::npos || comma == std::string::npos ||
        part.back() != ')') {
      return false;
    }
    TextPredicate p;
    p.op = part.substr(0, open);
    if (!cell_ref(part.substr(open + 1, comma - open - 1), &p.lhs_role,
                  &p.lhs_col)) {
      return false;
    }
    std::string rhs = part.substr(comma + 1, part.size() - comma - 2);
    if (!rhs.empty() && rhs.front() == '"') {
      p.rhs_constant = true;
      p.constant = rhs.substr(1, rhs.size() >= 2 ? rhs.size() - 2 : 0);
    } else if (!cell_ref(rhs, &p.rhs_role, &p.rhs_col)) {
      return false;
    }
    out->preds.push_back(std::move(p));
  }
  return !out->preds.empty();
}

bool ParseNumber(const std::string& s, double* out) {
  size_t b = s.find_first_not_of(" \t");
  size_t e = s.find_last_not_of(" \t");
  if (b == std::string::npos) return false;
  std::string trimmed = s.substr(b, e - b + 1);
  char* end = nullptr;
  *out = std::strtod(trimmed.c_str(), &end);
  return end == trimmed.c_str() + trimmed.size() && std::isfinite(*out);
}

double TextSimilarity(const std::string& a, const std::string& b) {
  size_t longest = std::max(a.size(), b.size());
  if (longest == 0) return 1.0;
  std::vector<size_t> row(b.size() + 1);
  std::iota(row.begin(), row.end(), size_t{0});
  for (size_t i = 1; i <= a.size(); ++i) {
    size_t diag = row[0];
    row[0] = i;
    for (size_t j = 1; j <= b.size(); ++j) {
      size_t up = row[j];
      row[j] = std::min({row[j] + 1, row[j - 1] + 1,
                         diag + (a[i - 1] == b[j - 1] ? 0 : 1)});
      diag = up;
    }
  }
  return 1.0 - static_cast<double>(row[b.size()]) /
                   static_cast<double>(longest);
}

/// A predicate over two cell strings; NULL (empty) never satisfies one.
bool Holds(const std::string& op, const std::string& l,
           const std::string& r) {
  if (l.empty() || r.empty()) return false;
  if (op == "EQ") return l == r;
  if (op == "IQ") return l != r;
  if (op == "SIM") return TextSimilarity(l, r) >= 0.8;
  double ld = 0;
  double rd = 0;
  int cmp;
  if (ParseNumber(l, &ld) && ParseNumber(r, &rd)) {
    cmp = ld < rd ? -1 : (ld > rd ? 1 : 0);
  } else {
    int c = l.compare(r);
    cmp = c < 0 ? -1 : (c > 0 ? 1 : 0);
  }
  if (op == "LT") return cmp < 0;
  if (op == "GT") return cmp > 0;
  if (op == "LTE") return cmp <= 0;
  if (op == "GTE") return cmp >= 0;
  return false;
}

/// Ordered-pair violation: every predicate holds with t1 = a, t2 = b.
bool ViolatesOrdered(const TextDc& dc, const TextTable& t, size_t a,
                     size_t b) {
  for (const TextPredicate& p : dc.preds) {
    const auto& lrow = t.rows[p.lhs_role == 0 ? a : b];
    const std::string& l = lrow[static_cast<size_t>(p.lhs_col)];
    const std::string& r =
        p.rhs_constant
            ? p.constant
            : t.rows[p.rhs_role == 0 ? a : b][static_cast<size_t>(p.rhs_col)];
    if (!Holds(p.op, l, r)) return false;
  }
  return true;
}

bool Violates(const TextDc& dc, const TextTable& t, size_t a, size_t b) {
  if (!dc.two_tuple) return ViolatesOrdered(dc, t, a, a);
  return ViolatesOrdered(dc, t, a, b) || ViolatesOrdered(dc, t, b, a);
}

uint64_t PairKey(int dc, int64_t a, int64_t b) {
  if (a > b) std::swap(a, b);
  return (static_cast<uint64_t>(dc) << 56) ^
         (static_cast<uint64_t>(a) << 28) ^ static_cast<uint64_t>(b);
}

}  // namespace

bool CheckViolations(const std::string& dirty_csv, const std::string& dc_text,
                     const std::vector<ViolationPair>& reported,
                     size_t violation_samples, size_t block_samples,
                     uint64_t seed, Verdict* verdict) {
  TextTable table;
  if (!ReadTextTable(dirty_csv, &table)) {
    verdict->Fail("violations: unreadable CSV");
    return false;
  }
  std::vector<TextDc> dcs;
  size_t begin = 0;
  while (begin < dc_text.size()) {
    size_t end = dc_text.find('\n', begin);
    if (end == std::string::npos) end = dc_text.size();
    std::string line = dc_text.substr(begin, end - begin);
    begin = end + 1;
    if (line.empty()) continue;
    TextDc dc;
    if (!ParseTextDc(line, table, &dc)) {
      verdict->Fail("violations: cannot read DC " + line);
      return false;
    }
    dcs.push_back(std::move(dc));
  }
  Rng rng(Mix(seed, 7));
  // Sampled reported violations must violate.
  for (size_t i = 0; i < violation_samples && !reported.empty(); ++i) {
    const ViolationPair& v = reported[rng.Below(reported.size())];
    if (v.dc < 0 || static_cast<size_t>(v.dc) >= dcs.size() || v.t1 < 0 ||
        v.t2 < 0 || static_cast<size_t>(std::max(v.t1, v.t2)) >=
                        table.rows.size()) {
      verdict->Fail("violations: reported pair out of range");
      return false;
    }
    if (!Violates(dcs[static_cast<size_t>(v.dc)], table,
                  static_cast<size_t>(v.t1), static_cast<size_t>(v.t2))) {
      verdict->Fail("violations: a reported pair does not violate DC " +
                    std::to_string(v.dc));
      return false;
    }
  }
  std::unordered_map<uint64_t, int> reported_set;
  for (const ViolationPair& v : reported) {
    reported_set[PairKey(v.dc, v.t1, v.t2)] = 1;
  }
  // Sampled blocks: within a block the violating pairs must be exactly
  // the reported ones (an unreported violating pair is a miss).
  for (size_t d = 0; d < dcs.size(); ++d) {
    const TextDc& dc = dcs[d];
    std::map<std::vector<std::string>, std::vector<size_t>> blocks;
    for (size_t t = 0; t < table.rows.size(); ++t) {
      std::vector<std::string> key;
      for (const TextPredicate& p : dc.preds) {
        if (dc.two_tuple && p.op == "EQ" && !p.rhs_constant &&
            p.lhs_role != p.rhs_role && p.lhs_col == p.rhs_col) {
          key.push_back(table.rows[t][static_cast<size_t>(p.lhs_col)]);
        }
      }
      blocks[key].push_back(t);
    }
    std::vector<const std::vector<size_t>*> list;
    for (const auto& [key, tuples] : blocks) list.push_back(&tuples);
    size_t n = block_samples == 0 ? list.size()
                                  : std::min(block_samples, list.size());
    for (size_t s = 0; s < n; ++s) {
      const std::vector<size_t>& tuples =
          *list[block_samples == 0 ? s : rng.Below(list.size())];
      if (!dc.two_tuple) {
        for (size_t a : tuples) {
          bool is = reported_set.count(PairKey(static_cast<int>(d),
                                               static_cast<int64_t>(a),
                                               static_cast<int64_t>(a))) > 0;
          if (Violates(dc, table, a, a) != is) {
            verdict->Fail("violations: single-tuple verdict differs for DC " +
                          std::to_string(d));
            return false;
          }
        }
        continue;
      }
      // Cap the pairs examined per block so a huge block stays cheap.
      size_t limit = std::min<size_t>(tuples.size(), 400);
      for (size_t i = 0; i < limit; ++i) {
        for (size_t j = i + 1; j < limit; ++j) {
          size_t a = tuples[i];
          size_t b = tuples[j];
          bool is = reported_set.count(PairKey(static_cast<int>(d),
                                               static_cast<int64_t>(a),
                                               static_cast<int64_t>(b))) > 0;
          if (Violates(dc, table, a, b) != is) {
            verdict->Fail(std::string("violations: ") +
                          (is ? "reported non-violating" : "unreported "
                                                           "violating") +
                          " pair (" + std::to_string(a) + "," +
                          std::to_string(b) + ") of DC " + std::to_string(d));
            return false;
          }
        }
      }
    }
  }
  return true;
}

void ExtractMarginals(const holoclean::PipelineContext& ctx,
                      std::vector<std::vector<double>>* probs,
                      std::vector<int>* map_index) {
  probs->clear();
  map_index->clear();
  for (int32_t v : ctx.graph.query_vars()) {
    probs->push_back(ctx.marginals.Of(v));
    map_index->push_back(ctx.marginals.MapIndex(v));
  }
}

bool CheckMarginals(const holoclean::FactorGraph& graph,
                    const std::vector<std::vector<double>>& probs,
                    const std::vector<int>& map_index, Verdict* verdict) {
  const std::vector<int32_t>& query = graph.query_vars();
  if (probs.size() != query.size() || map_index.size() != query.size()) {
    verdict->Fail("marginals: one per query variable expected");
    return false;
  }
  for (size_t i = 0; i < query.size(); ++i) {
    const std::vector<double>& p = probs[i];
    if (p.size() != graph.variable(query[i]).domain.size() || p.empty()) {
      verdict->Fail("marginals: size differs from the domain");
      return false;
    }
    double sum = 0.0;
    double best = -1.0;
    for (double x : p) {
      if (!(x >= 0.0 && x <= 1.0 + 1e-12)) {
        verdict->Fail("marginals: probability outside [0, 1]");
        return false;
      }
      sum += x;
      best = std::max(best, x);
    }
    if (std::fabs(sum - 1.0) > 1e-6) {
      verdict->Fail("marginals: a variable's marginal sums to " + Num(sum));
      return false;
    }
    int m = map_index[i];
    if (m < 0 || static_cast<size_t>(m) >= p.size() ||
        p[static_cast<size_t>(m)] < best - 1e-12) {
      verdict->Fail("marginals: MAP is not the argmax");
      return false;
    }
  }
  return true;
}

Quality ScoreRepairs(const std::string& dirty_csv, const std::string& clean_csv,
                     const std::vector<TextRepair>& repairs) {
  Quality q;
  TextTable dirty;
  TextTable clean;
  if (!ReadTextTable(dirty_csv, &dirty) || !ReadTextTable(clean_csv, &clean) ||
      dirty.rows.size() != clean.rows.size()) {
    return q;
  }
  for (size_t t = 0; t < dirty.rows.size(); ++t) {
    for (size_t a = 0; a < dirty.header.size(); ++a) {
      if (dirty.rows[t][a] != clean.rows[t][a]) ++q.errors;
    }
  }
  for (const TextRepair& r : repairs) {
    int col = clean.Col(r.attr);
    if (col < 0 || r.tid < 0 ||
        static_cast<size_t>(r.tid) >= clean.rows.size()) {
      continue;
    }
    ++q.repairs;
    if (clean.rows[static_cast<size_t>(r.tid)][static_cast<size_t>(col)] ==
        r.new_value) {
      ++q.correct;
    }
  }
  q.precision = q.repairs == 0 ? 0.0
                               : static_cast<double>(q.correct) /
                                     static_cast<double>(q.repairs);
  q.recall = q.errors == 0 ? 0.0
                           : static_cast<double>(q.correct) /
                                 static_cast<double>(q.errors);
  q.f1 = q.precision + q.recall == 0.0
             ? 0.0
             : 2.0 * q.precision * q.recall / (q.precision + q.recall);
  return q;
}

Components QueryComponents(const holoclean::FactorGraph& graph) {
  std::vector<int32_t> parent(graph.num_variables());
  std::iota(parent.begin(), parent.end(), 0);
  auto find = [&](int32_t x) {
    while (parent[static_cast<size_t>(x)] != x) {
      parent[static_cast<size_t>(x)] =
          parent[static_cast<size_t>(parent[static_cast<size_t>(x)])];
      x = parent[static_cast<size_t>(x)];
    }
    return x;
  };
  for (const holoclean::DcFactor& f : graph.dc_factors()) {
    for (size_t i = 1; i < f.var_ids.size(); ++i) {
      int32_t a = find(f.var_ids[0]);
      int32_t b = find(f.var_ids[i]);
      if (a != b) parent[static_cast<size_t>(a)] = b;
    }
  }
  std::unordered_map<int32_t, size_t> sizes;
  for (int32_t v : graph.query_vars()) ++sizes[find(v)];
  Components c;
  c.count = sizes.size();
  for (const auto& [root, size] : sizes) c.largest = std::max(c.largest, size);
  return c;
}

bool SameReport(const JsonValue& got, const JsonValue& want,
                const std::string& what, Verdict* verdict) {
  const JsonValue* got_repairs = got.Find("repairs");
  const JsonValue* want_repairs = want.Find("repairs");
  if (got_repairs == nullptr || want_repairs == nullptr) {
    verdict->Fail(what + ": report without repairs");
    return false;
  }
  if (got_repairs->Dump() != want_repairs->Dump() ||
      got.GetInt("num_posteriors", -1) != want.GetInt("num_posteriors", -2)) {
    verdict->Fail(what + ": repairs differ from the from-scratch clean (" +
                  std::to_string(got_repairs->size()) + " vs " +
                  std::to_string(want_repairs->size()) + " repairs)");
    return false;
  }
  return true;
}

}  // namespace e2ebench
