#include "fuzz/scalar_oracle.h"

#include <algorithm>
#include <bit>
#include <span>
#include <unordered_map>
#include <unordered_set>

#include "exec/cost_constants.h"
#include "obs/metrics.h"
#include "util/check.h"

namespace lqolab::fuzz {

namespace cost = exec::cost;
using query::AliasId;
using query::AliasMask;
using query::Query;
using storage::RowId;
using storage::Value;

namespace {

/// Base rows grouped by join key, each group in `rows` order.
using RowGroups = std::unordered_map<Value, std::vector<RowId>>;

RowGroups GroupRows(const Value* keys, const std::vector<RowId>& rows) {
  RowGroups groups;
  groups.reserve(rows.size());
  for (RowId r : rows) {
    const Value v = keys[r];
    if (v != storage::kNullValue) groups[v].push_back(r);
  }
  return groups;
}

}  // namespace

void ScalarOracle::Filter(catalog::TableId table_id,
                          const query::BoundPredicate* preds,
                          size_t pred_count, std::vector<RowId>* rows) {
  const storage::Table& table = ctx().table(table_id);
  const int64_t n = table.row_count();
  for (RowId r = 0; r < n; ++r) {
    bool match = true;
    for (size_t p = 0; p < pred_count; ++p) {
      if (!preds[p].Matches(table.column(preds[p].column).at(r))) {
        match = false;
        break;
      }
    }
    if (match) rows->push_back(r);
  }
}

/// Every directed edge re-runs on every pass and rebuilds its key set from
/// scratch, with no fixpoint bookkeeping and no Bloom pre-test.
std::vector<std::vector<RowId>> ScalarOracle::SemiJoinReduce(
    QueryMemo& memo, const Query& q, AliasMask mask) {
  std::vector<std::vector<RowId>> reduced(q.relations.size());
  AliasMask bits = mask;
  while (bits != 0) {
    const AliasId alias = static_cast<AliasId>(std::countr_zero(bits));
    bits &= bits - 1;
    EnsureFiltered(memo, q, alias);
    reduced[static_cast<size_t>(alias)] =
        memo.filtered[static_cast<size_t>(alias)]->rows;
  }
  const std::vector<query::JoinEdge> edges = EdgesWithin(q, mask);
  // A few reduction passes (2 suffice for tree-shaped subsets when edges
  // are swept in both directions; a 3rd catches most cycle effects).
  for (int pass = 0; pass < 3; ++pass) {
    bool changed = false;
    auto reduce_side = [&](AliasId keep, catalog::ColumnId keep_col,
                           AliasId probe, catalog::ColumnId probe_col) {
      auto& keep_rows = reduced[static_cast<size_t>(keep)];
      const auto& probe_rows = reduced[static_cast<size_t>(probe)];
      const storage::Column& keep_values =
          ctx().table(q.relations[static_cast<size_t>(keep)].table)
              .column(keep_col);
      const storage::Column& probe_values =
          ctx().table(q.relations[static_cast<size_t>(probe)].table)
              .column(probe_col);
      std::unordered_set<Value> present;
      present.reserve(probe_rows.size());
      for (RowId r : probe_rows) {
        const Value v = probe_values.at(r);
        if (v != storage::kNullValue) present.insert(v);
      }
      std::vector<RowId> kept;
      kept.reserve(keep_rows.size());
      for (RowId r : keep_rows) {
        const Value v = keep_values.at(r);
        if (v != storage::kNullValue && present.count(v) > 0) {
          kept.push_back(r);
        }
      }
      if (kept.size() != keep_rows.size()) {
        keep_rows = std::move(kept);
        changed = true;
      }
    };
    for (const auto& edge : edges) {
      reduce_side(edge.left_alias, edge.left_column, edge.right_alias,
                  edge.right_column);
      reduce_side(edge.right_alias, edge.right_column, edge.left_alias,
                  edge.left_column);
    }
    if (!changed) break;
  }
  return reduced;
}

/// Hashes every base, whole tables included, into a map of row vectors and
/// probes it one left tuple at a time, appending matches cell by cell.
ScalarOracle::Intermediate ScalarOracle::JoinWithBase(
    QueryMemo& /*memo*/, const Query& q, const Intermediate& left,
    AliasId alias, const std::vector<RowId>& base_rows) {
  const std::vector<EdgeProbe> edges = ProbeEdges(q, left, alias);
  const std::span<const EdgeProbe> residual(edges.begin() + 1, edges.end());
  obs::Count(obs::Counter::kOracleHashBuilds);
  const RowGroups hash = GroupRows(edges[0].right_col, base_rows);

  // New layout: aliases sorted ascending with `alias` inserted.
  const int32_t width = static_cast<int32_t>(left.aliases.size());
  Intermediate out;
  out.mask = left.mask | query::MaskOf(alias);
  out.aliases = left.aliases;
  out.aliases.insert(
      std::upper_bound(out.aliases.begin(), out.aliases.end(), alias), alias);
  const int32_t out_width = width + 1;
  const int32_t insert_pos = out.PositionOf(alias);

  for (int64_t row = 0; row < left.rows; ++row) {
    const RowId* tuple = left.data.data() + row * width;
    const Value probe_value = edges[0].left_col[tuple[edges[0].left_pos]];
    if (probe_value == storage::kNullValue) continue;
    auto it = hash.find(probe_value);
    if (it == hash.end()) continue;
    for (RowId base_row : it->second) {
      if (!AllMatch(residual, tuple, base_row)) continue;
      if (out.rows >= cost::kMaxIntermediateRows ||
          out.rows * out_width >= cost::kMaxIntermediateCells) {
        out.rows = -1;  // overflow
        out.data.clear();
        out.data.shrink_to_fit();
        return out;
      }
      for (int32_t i = 0; i < out_width; ++i) {
        if (i < insert_pos) {
          out.data.push_back(tuple[i]);
        } else if (i == insert_pos) {
          out.data.push_back(base_row);
        } else {
          out.data.push_back(tuple[i - 1]);
        }
      }
      ++out.rows;
    }
  }
  return out;
}

/// Sums per-key multiplicities for a single edge; with residual edges,
/// walks every (probe row, base row) pair under the kMaxCountedPairs cap.
bool ScalarOracle::CountExtension(QueryMemo& /*memo*/, const Query& q,
                                  const Intermediate& left, AliasId alias,
                                  const std::vector<RowId>& base_rows,
                                  int64_t* count) {
  const std::vector<EdgeProbe> edges = ProbeEdges(q, left, alias);
  const std::span<const EdgeProbe> residual(edges.begin() + 1, edges.end());
  const Value* base_key = edges[0].right_col;
  obs::Count(obs::Counter::kOracleHashBuilds);  // both branches hash the base
  const int32_t width = static_cast<int32_t>(left.aliases.size());
  const int32_t hash_pos = edges[0].left_pos;
  const Value* probe_col = edges[0].left_col;

  if (residual.empty()) {
    // Pure counting: sum per-key multiplicities, O(|left| + |base|).
    std::unordered_map<Value, int64_t> counts;
    counts.reserve(base_rows.size());
    for (RowId r : base_rows) {
      const Value v = base_key[r];
      if (v != storage::kNullValue) ++counts[v];
    }
    int64_t total = 0;
    for (int64_t row = 0; row < left.rows; ++row) {
      const Value v =
          probe_col[left.data[static_cast<size_t>(row * width + hash_pos)]];
      if (v == storage::kNullValue) continue;
      auto it = counts.find(v);
      if (it != counts.end()) total += it->second;
    }
    *count = total;
    return true;
  }

  // Residual edges: iterate matching pairs with a work cap.
  const RowGroups hash = GroupRows(base_key, base_rows);
  int64_t total = 0;
  int64_t pairs = 0;
  for (int64_t row = 0; row < left.rows; ++row) {
    const RowId* tuple = left.data.data() + row * width;
    const Value v = probe_col[tuple[hash_pos]];
    if (v == storage::kNullValue) continue;
    auto it = hash.find(v);
    if (it == hash.end()) continue;
    for (RowId base_row : it->second) {
      if (++pairs > kMaxCountedPairs) return false;
      if (AllMatch(residual, tuple, base_row)) ++total;
    }
  }
  *count = total;
  return true;
}

const std::vector<RowId>* ScalarOracle::MaterializedTuples(const Query& q,
                                                          AliasMask mask) {
  const QueryMemo& memo = Memo(q);
  auto it = memo.mats.find(mask);
  return it == memo.mats.end() ? nullptr : &it->second.data;
}

}  // namespace lqolab::fuzz
