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

/// Hashes every right side — a base, whole tables included, or a held
/// intermediate's full tuples — into a map of row vectors and probes it one
/// left tuple at a time, appending matches cell by cell.
ScalarOracle::Intermediate ScalarOracle::Join(QueryMemo& /*memo*/,
                                              const Query& q,
                                              const Intermediate& left,
                                              const JoinSide& right) {
  const std::vector<EdgeProbe> edges = ProbeEdges(q, left, right);
  const std::span<const EdgeProbe> residual(edges.begin() + 1, edges.end());
  // Right tuples: a base row is the one-column tuple of itself.
  const RowId* right_data =
      right.held != nullptr ? right.held->data.data() : right.rows->data();
  const size_t right_width =
      right.held != nullptr ? right.held->aliases.size() : 1;
  const int64_t right_rows = right.held != nullptr
                                 ? right.held->rows
                                 : static_cast<int64_t>(right.rows->size());
  auto right_tuple = [&](int64_t r) {
    return right_data + static_cast<size_t>(r) * right_width;
  };
  obs::Count(obs::Counter::kOracleHashBuilds);
  std::unordered_map<Value, std::vector<int64_t>> hash;
  for (int64_t r = 0; r < right_rows; ++r) {
    const Value v = edges[0].right_col[right_tuple(r)[edges[0].right_pos]];
    if (v != storage::kNullValue) hash[v].push_back(r);
  }

  // New layout: every alias of both sides, ascending.
  const int32_t width = static_cast<int32_t>(left.aliases.size());
  Intermediate out;
  out.mask = left.mask | right.mask();
  // Each output column's side and column within that side's tuple.
  std::vector<int32_t> positions;
  std::vector<bool> from_right;
  for (AliasMask bits = out.mask; bits != 0; bits &= bits - 1) {
    const AliasId a = static_cast<AliasId>(std::countr_zero(bits));
    const bool r = (right.mask() & query::MaskOf(a)) != 0;
    out.aliases.push_back(a);
    from_right.push_back(r);
    positions.push_back(!r                     ? left.PositionOf(a)
                        : right.held != nullptr ? right.held->PositionOf(a)
                                                : 0);
  }
  const int32_t out_width = static_cast<int32_t>(out.aliases.size());

  for (int64_t row = 0; row < left.rows; ++row) {
    const RowId* tuple = left.data.data() + row * width;
    const Value probe_value = edges[0].left_col[tuple[edges[0].left_pos]];
    if (probe_value == storage::kNullValue) continue;
    auto it = hash.find(probe_value);
    if (it == hash.end()) continue;
    for (int64_t r : it->second) {
      const RowId* rtuple = right_tuple(r);
      if (!AllMatch(residual, tuple, rtuple)) continue;
      if (out.rows >= cost::kMaxIntermediateRows ||
          out.rows * out_width >= cost::kMaxIntermediateCells) {
        out.rows = -1;  // overflow
        out.data.clear();
        out.data.shrink_to_fit();
        return out;
      }
      for (int32_t i = 0; i < out_width; ++i) {
        out.data.push_back(from_right[static_cast<size_t>(i)]
                               ? rtuple[positions[static_cast<size_t>(i)]]
                               : tuple[positions[static_cast<size_t>(i)]]);
      }
      ++out.rows;
    }
  }
  return out;
}

const std::vector<RowId>* ScalarOracle::MaterializedTuples(const Query& q,
                                                          AliasMask mask) {
  const QueryMemo& memo = Memo(q);
  auto it = memo.mats.find(mask);
  return it == memo.mats.end() ? nullptr : &it->second.data;
}

}  // namespace lqolab::fuzz
