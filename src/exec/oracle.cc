#include "exec/oracle.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <span>
#include <unordered_set>

#include "exec/cost_constants.h"
#include "obs/metrics.h"
#include "util/check.h"

namespace lqolab::exec {

using query::AliasId;
using query::AliasMask;
using query::Query;
using storage::RowId;
using storage::Value;

namespace {

// How many iterations ahead join-probe loops hint the next key's hash-slot
// cache line (random accesses the hardware prefetcher cannot predict).
constexpr int64_t kProbePrefetchDistance = 16;

uint64_t HashCombine(uint64_t h, uint64_t v) {
  return (h ^ (v + 0x9e3779b97f4a7c15ULL + (h << 12) + (h >> 4))) *
         0x100000001b3ULL;
}

uint64_t HashString(uint64_t h, const std::string& s) {
  for (char c : s) h = HashCombine(h, static_cast<uint64_t>(c));
  return h;
}

template <typename T>
void AppendBytes(std::string* out, T v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

/// Key of the replica-wide base cache: the table, then each bound predicate
/// as a self-delimiting byte string (column, kind, range, sorted literal
/// codes), the predicates sorted. It names no alias and no query, and a
/// conjunction's rows do not depend on its order, so every query asking
/// for the same filtered table gets the same entry. Literals are bound
/// dictionary codes of the replica's shared, frozen tables.
std::string BaseKey(catalog::TableId table, const query::BoundPredicate* preds,
                    size_t pred_count) {
  std::vector<std::string> parts(pred_count);
  for (size_t p = 0; p < pred_count; ++p) {
    const query::BoundPredicate& pred = preds[p];
    std::string& part = parts[p];
    AppendBytes(&part, pred.column);
    AppendBytes(&part, static_cast<int32_t>(pred.kind));
    AppendBytes(&part, pred.lo);
    AppendBytes(&part, pred.hi);
    AppendBytes(&part, static_cast<uint64_t>(pred.values.size()));
    part.append(reinterpret_cast<const char*>(pred.values.data()),
                pred.values.size() * sizeof(Value));
  }
  std::sort(parts.begin(), parts.end());
  std::string key;
  AppendBytes(&key, table);
  for (const std::string& part : parts) key += part;
  return key;
}

}  // namespace

uint64_t QueryFingerprint(const Query& q) {
  uint64_t h = 0xcbf29ce484222325ULL;
  h = HashString(h, q.id);
  for (const auto& rel : q.relations) {
    h = HashCombine(h, static_cast<uint64_t>(rel.table));
    h = HashString(h, rel.alias);
  }
  for (const auto& e : q.edges) {
    h = HashCombine(h, static_cast<uint64_t>(e.left_alias));
    h = HashCombine(h, static_cast<uint64_t>(e.left_column));
    h = HashCombine(h, static_cast<uint64_t>(e.right_alias));
    h = HashCombine(h, static_cast<uint64_t>(e.right_column));
  }
  for (const auto& p : q.predicates) {
    h = HashString(h, p.Signature());
  }
  return h;
}

Oracle::Oracle(const DbContext* ctx, int64_t budget_bytes)
    : ctx_(ctx), budget_bytes_(budget_bytes) {
  LQOLAB_CHECK(ctx != nullptr);
}

Oracle::QueryMemo& Oracle::Memo(const Query& q) {
  QueryMemo& memo = memos_[QueryFingerprint(q)];
  if (!memo.bound) {
    memo.bound = true;
    const size_t n = q.relations.size();
    memo.preds.resize(n);
    memo.filtered.assign(n, nullptr);
    for (size_t a = 0; a < n; ++a) {
      memo.preds[a] = query::BindAliasPredicates(
          q, static_cast<AliasId>(a), ctx_->table(q.relations[a].table));
    }
  }
  return memo;
}

void Oracle::Filter(catalog::TableId table_id,
                    const query::BoundPredicate* preds, size_t pred_count,
                    std::vector<RowId>* rows) {
  const storage::Table& table = ctx_->table(table_id);
  const int64_t n = table.row_count();
  if (ctx_->config.vectorized_exec) {
    // Batched engine: full-column selection kernel on the first predicate,
    // then in-place refinement per remaining predicate. Same conjunction,
    // same ascending output as the row loop below.
    if (pred_count == 0) {
      kernels::SelectAll(n, rows);
    } else {
      kernels::SelectPredicate(table.column(preds[0].column).data(), n,
                               preds[0], rows);
      for (size_t p = 1; p < pred_count; ++p) {
        kernels::RefinePredicate(table.column(preds[p].column).data(),
                                 preds[p], rows);
      }
    }
    return;
  }
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

Oracle::FilteredBase& Oracle::Base(catalog::TableId table,
                                   const query::BoundPredicate* preds,
                                   size_t pred_count) {
  auto [it, inserted] = bases_.try_emplace(BaseKey(table, preds, pred_count));
  if (inserted) {
    Filter(table, preds, pred_count, &it->second.rows);
  } else {
    obs::Count(obs::Counter::kOracleBaseReuses);
  }
  return it->second;
}

void Oracle::EnsureFiltered(QueryMemo& memo, const Query& q, AliasId alias) {
  FilteredBase*& base = memo.filtered[static_cast<size_t>(alias)];
  if (base != nullptr) return;
  const auto& preds = memo.preds[static_cast<size_t>(alias)];
  base = &Base(q.relations[static_cast<size_t>(alias)].table, preds.data(),
               preds.size());
}

const std::vector<RowId>& Oracle::FilteredRows(const Query& q, AliasId alias) {
  QueryMemo& memo = Memo(q);
  EnsureFiltered(memo, q, alias);
  return memo.filtered[static_cast<size_t>(alias)]->rows;
}

int64_t Oracle::TrueBaseRows(const Query& q, AliasId alias) {
  return static_cast<int64_t>(FilteredRows(q, alias).size());
}

const std::vector<RowId>& Oracle::SinglePredicateRows(const Query& q,
                                                      AliasId alias,
                                                      size_t pred_index) {
  const auto& preds = Memo(q).preds[static_cast<size_t>(alias)];
  LQOLAB_CHECK_LT(pred_index, preds.size());
  return Base(q.relations[static_cast<size_t>(alias)].table,
              &preds[pred_index], 1)
      .rows;
}

const std::vector<query::BoundPredicate>& Oracle::BoundPredicates(
    const Query& q, AliasId alias) {
  return Memo(q).preds[static_cast<size_t>(alias)];
}

Oracle::CardResult Oracle::TrueJoinRows(const Query& q, AliasMask mask) {
  LQOLAB_CHECK_MSG(q.IsConnected(mask),
                   "oracle asked for disconnected subset in " << q.id);
  obs::Count(obs::Counter::kOracleCardinalityCalls);
  QueryMemo& memo = Memo(q);
  auto it = memo.cards.find(mask);
  if (it != memo.cards.end()) return it->second;
  if (std::popcount(mask) == 1) {
    const AliasId alias = static_cast<AliasId>(std::countr_zero(mask));
    EnsureFiltered(memo, q, alias);
    const CardResult result{
        static_cast<int64_t>(
            memo.filtered[static_cast<size_t>(alias)]->rows.size()),
        false};
    memo.cards[mask] = result;
    return result;
  }
  const Intermediate* mat = Materialize(memo, q, mask);
  CardResult result;
  if (mat != nullptr) {
    result.rows = mat->rows;
    memo.cards[mask] = result;
    return result;
  }
  // Materialization exceeded the caps: the subset is huge but its exact
  // size may still be countable without storing tuples, by streaming the
  // extension of a cached submask materialization. Plans over such subsets
  // then get charged honest (large) virtual time instead of timing out.
  AliasMask bits = mask;
  while (bits != 0) {
    const AliasId alias = static_cast<AliasId>(std::countr_zero(bits));
    bits &= bits - 1;
    const AliasMask rest = mask & ~query::MaskOf(alias);
    if (!q.IsConnected(rest)) continue;
    auto rest_it = memo.mats.find(rest);
    if (rest_it == memo.mats.end()) continue;
    EnsureFiltered(memo, q, alias);
    int64_t count = 0;
    if (CountExtension(memo, q, rest_it->second, alias,
                       memo.filtered[static_cast<size_t>(alias)]->rows,
                       &count)) {
      result.rows = count;
      memo.cards[mask] = result;
      return result;
    }
  }
  int64_t tree_count = 0;
  if (TreeCount(memo, q, mask, &tree_count)) {
    result.rows = tree_count;
    memo.cards[mask] = result;
    return result;
  }
  result.overflow = true;
  memo.cards[mask] = result;
  return result;
}

bool Oracle::TreeCount(QueryMemo& memo, const Query& q, AliasMask mask,
                       int64_t* count) {
  // Collect the subset's internal edges; bail out on cycles (message
  // passing is exact only for tree-shaped join graphs).
  std::vector<query::JoinEdge> edges;
  for (const auto& edge : q.edges) {
    if ((mask & query::MaskOf(edge.left_alias)) &&
        (mask & query::MaskOf(edge.right_alias))) {
      edges.push_back(edge);
    }
  }
  const int32_t members = std::popcount(mask);
  if (static_cast<int32_t>(edges.size()) != members - 1) return false;

  // Per-row partial counts (as doubles to survive astronomically large
  // subsets; saturated on return).
  std::unordered_map<query::AliasId, std::vector<double>> row_counts;
  AliasMask bits = mask;
  while (bits != 0) {
    const AliasId alias = static_cast<AliasId>(std::countr_zero(bits));
    bits &= bits - 1;
    EnsureFiltered(memo, q, alias);
    row_counts[alias].assign(
        memo.filtered[static_cast<size_t>(alias)]->rows.size(), 1.0);
  }

  // Peel leaves: repeatedly take an alias with exactly one remaining edge,
  // aggregate its per-key count sums, and multiply them into the neighbor.
  std::vector<char> edge_done(edges.size(), 0);
  AliasMask remaining = mask;
  while (std::popcount(remaining) > 1) {
    AliasId leaf = -1;
    size_t leaf_edge = 0;
    bits = remaining;
    while (bits != 0) {
      const AliasId alias = static_cast<AliasId>(std::countr_zero(bits));
      bits &= bits - 1;
      int32_t degree = 0;
      size_t last_edge = 0;
      for (size_t e = 0; e < edges.size(); ++e) {
        if (edge_done[e]) continue;
        if (edges[e].left_alias == alias || edges[e].right_alias == alias) {
          ++degree;
          last_edge = e;
        }
      }
      if (degree == 1) {
        leaf = alias;
        leaf_edge = last_edge;
        break;
      }
    }
    if (leaf < 0) return false;  // should not happen for a tree
    const auto& edge = edges[leaf_edge];
    const AliasId parent =
        edge.left_alias == leaf ? edge.right_alias : edge.left_alias;
    const catalog::ColumnId leaf_col =
        edge.left_alias == leaf ? edge.left_column : edge.right_column;
    const catalog::ColumnId parent_col =
        edge.left_alias == leaf ? edge.right_column : edge.left_column;

    // Message: per join-key sum of the leaf's row counts.
    const storage::Column& leaf_values =
        ctx_->table(q.relations[static_cast<size_t>(leaf)].table)
            .column(leaf_col);
    const auto& leaf_rows = memo.filtered[static_cast<size_t>(leaf)]->rows;
    const auto& leaf_counts = row_counts[leaf];
    std::unordered_map<Value, double> message;
    message.reserve(leaf_rows.size());
    for (size_t i = 0; i < leaf_rows.size(); ++i) {
      const Value v = leaf_values.at(leaf_rows[i]);
      if (v != storage::kNullValue) message[v] += leaf_counts[i];
    }

    // Fold into the parent: each parent row multiplies by its key's sum
    // (zero when no partner exists).
    const storage::Column& parent_values =
        ctx_->table(q.relations[static_cast<size_t>(parent)].table)
            .column(parent_col);
    const auto& parent_rows =
        memo.filtered[static_cast<size_t>(parent)]->rows;
    auto& parent_counts = row_counts[parent];
    for (size_t i = 0; i < parent_rows.size(); ++i) {
      if (parent_counts[i] == 0.0) continue;
      const Value v = parent_values.at(parent_rows[i]);
      double factor = 0.0;
      if (v != storage::kNullValue) {
        auto it = message.find(v);
        if (it != message.end()) factor = it->second;
      }
      parent_counts[i] *= factor;
    }

    edge_done[leaf_edge] = 1;
    remaining &= ~query::MaskOf(leaf);
  }

  const AliasId root = static_cast<AliasId>(std::countr_zero(remaining));
  double total = 0.0;
  for (double c : row_counts[root]) total += c;
  constexpr double kSaturate = 4.0e18;
  *count = static_cast<int64_t>(std::min(total, kSaturate));
  return true;
}

bool Oracle::CountExtension(QueryMemo& memo, const Query& q,
                            const Intermediate& left, AliasId alias,
                            const std::vector<storage::RowId>& base_rows,
                            int64_t* count) {
  return ctx_->config.vectorized_exec
             ? CountExtensionVectorized(memo, q, left, alias, base_rows, count)
             : CountExtensionScalar(q, left, alias, base_rows, count);
}

/// Build side of a batched base-relation join: the shared storage::Index on
/// the hash-edge column when the base is the whole table, else a
/// JoinHashTable over the base rows — the base's cached table or
/// join_table_. All list a key's rows in ascending row-id order — an
/// index's counting sort (or, for a sparse column, its (value, row) sort)
/// keeps rows ascending within a key, a build groups its ascending input
/// in input order — and all skip NULL keys, so the choice changes no
/// match, no output order and no cap trip point.
struct Oracle::BaseProbe {
  const storage::Index* index;  // non-null: probe the index, no build
  const kernels::JoinHashTable* table;  // else: probe this table

  kernels::JoinHashTable::Group Probe(Value v) const {
    if (index == nullptr) return table->Probe(v);
    const std::span<const RowId> rows = index->EqualRange(v);
    return {rows.data(), static_cast<int32_t>(rows.size())};
  }

  void Prefetch(Value v) const {
    if (index == nullptr) {
      table->PrefetchProbe(v);
    } else {
      index->PrefetchEqualRange(v);
    }
  }
};

Oracle::BaseProbe Oracle::PrepareBase(QueryMemo& memo, const Query& q,
                                      AliasId alias, catalog::ColumnId column,
                                      const std::vector<RowId>& base_rows) {
  const catalog::TableId table_id =
      q.relations[static_cast<size_t>(alias)].table;
  const storage::Table& table = ctx_->table(table_id);
  // Filtered and reduced row lists are ascending and duplicate-free, so a
  // full-size list is exactly [0, row_count).
  if (static_cast<int64_t>(base_rows.size()) == table.row_count()) {
    if (const storage::Index* index = ctx_->FindIndex(table_id, column)) {
      obs::Count(obs::Counter::kOracleIndexJoins);
      return {index, nullptr};
    }
  }
  const storage::Value* keys = table.column(column).data();
  const int64_t n = static_cast<int64_t>(base_rows.size());
  // Second-touch admission: only an unreduced base — recognized by being
  // the cached list itself — has a cache key. Its first request builds
  // into scratch like any other; a request for a key seen before fills a
  // kept table if the budget has room, and later requests reuse it.
  FilteredBase* base = memo.filtered[static_cast<size_t>(alias)];
  if (base != nullptr && &base->rows == &base_rows) {
    auto build = std::find_if(
        base->builds.begin(), base->builds.end(),
        [&](const FilteredBase::Build& b) { return b.column == column; });
    if (build == base->builds.end()) {
      base->builds.push_back({column, 0, nullptr});
      build = base->builds.end() - 1;
    }
    if (build->table != nullptr) {
      obs::Count(obs::Counter::kOracleBuildReuses);
      return {nullptr, build->table.get()};
    }
    if (build->requests++ > 0 &&
        mat_bytes_ + kernels::JoinHashTable::RetainedBytes(n) <=
            budget_bytes_) {
      obs::Count(obs::Counter::kOracleHashBuilds);
      build->table = std::make_unique<kernels::JoinHashTable>();
      build->table->Build(keys, base_rows.data(), n);
      build->table->ReleaseBuildScratch();
      TrackBytes(build->table->bytes());
      return {nullptr, build->table.get()};
    }
  }
  obs::Count(obs::Counter::kOracleHashBuilds);
  join_table_.Build(keys, base_rows.data(), n);
  return {nullptr, &join_table_};
}

/// Batched engine for the streaming-count fallback. The single-edge case
/// sums grouped key multiplicities from the base's BaseProbe; the residual
/// case walks the same (probe row, base row) pairs as the scalar loop, so
/// the kMaxCountedPairs cap trips at the identical pair.
bool Oracle::CountExtensionVectorized(
    QueryMemo& memo, const Query& q, const Intermediate& left, AliasId alias,
    const std::vector<storage::RowId>& base_rows, int64_t* count) {
  AliasMask left_mask = 0;
  for (AliasId a : left.aliases) left_mask |= query::MaskOf(a);
  const auto edges = q.EdgesBetween(left_mask, query::MaskOf(alias));
  LQOLAB_CHECK(!edges.empty());
  const storage::Table& base_table =
      ctx_->table(q.relations[static_cast<size_t>(alias)].table);
  const auto& hash_edge = edges[0];
  const int32_t width = static_cast<int32_t>(left.aliases.size());
  auto position_of = [&](AliasId a) {
    for (int32_t i = 0; i < width; ++i) {
      if (left.aliases[static_cast<size_t>(i)] == a) return i;
    }
    LQOLAB_CHECK_MSG(false, "alias not in intermediate");
    return -1;
  };
  const int32_t hash_pos = position_of(hash_edge.left_alias);
  const Value* probe_col =
      ctx_->table(q.relations[static_cast<size_t>(hash_edge.left_alias)].table)
          .column(hash_edge.left_column)
          .data();

  const BaseProbe base =
      PrepareBase(memo, q, alias, hash_edge.right_column, base_rows);

  if (edges.size() == 1) {
    // Pure counting: a group's size is the per-key multiplicity.
    int64_t total = 0;
    for (int64_t row = 0; row < left.rows; ++row) {
      const int64_t ahead =
          std::min(row + kProbePrefetchDistance, left.rows - 1);
      base.Prefetch(
          probe_col[left.data[static_cast<size_t>(ahead * width + hash_pos)]]);
      const Value v =
          probe_col[left.data[static_cast<size_t>(row * width + hash_pos)]];
      if (v == storage::kNullValue) continue;
      total += base.Probe(v).count;
    }
    *count = total;
    return true;
  }

  constexpr int64_t kMaxCountedPairs = 400'000'000;
  struct EdgeProbe {
    int32_t left_pos;
    const Value* left_col;
    const Value* right_col;
  };
  std::vector<EdgeProbe> residual;
  for (size_t e = 1; e < edges.size(); ++e) {
    residual.push_back(
        {position_of(edges[e].left_alias),
         ctx_->table(
                 q.relations[static_cast<size_t>(edges[e].left_alias)].table)
             .column(edges[e].left_column)
             .data(),
         base_table.column(edges[e].right_column).data()});
  }
  int64_t total = 0;
  int64_t pairs = 0;
  for (int64_t row = 0; row < left.rows; ++row) {
    const int64_t ahead = std::min(row + kProbePrefetchDistance, left.rows - 1);
    base.Prefetch(
        probe_col[left.data[static_cast<size_t>(ahead * width + hash_pos)]]);
    const RowId* tuple = left.data.data() + row * width;
    const Value v = probe_col[tuple[hash_pos]];
    if (v == storage::kNullValue) continue;
    const kernels::JoinHashTable::Group group = base.Probe(v);
    for (int32_t g = 0; g < group.count; ++g) {
      const RowId base_row = group.rows[g];
      if (++pairs > kMaxCountedPairs) return false;
      bool ok = true;
      for (const auto& probe : residual) {
        const Value lv = probe.left_col[tuple[probe.left_pos]];
        if (lv == storage::kNullValue || lv != probe.right_col[base_row]) {
          ok = false;
          break;
        }
      }
      if (ok) ++total;
    }
  }
  *count = total;
  return true;
}

bool Oracle::CountExtensionScalar(const Query& q, const Intermediate& left,
                                  AliasId alias,
                                  const std::vector<storage::RowId>& base_rows,
                                  int64_t* count) {
  AliasMask left_mask = 0;
  for (AliasId a : left.aliases) left_mask |= query::MaskOf(a);
  const auto edges = q.EdgesBetween(left_mask, query::MaskOf(alias));
  LQOLAB_CHECK(!edges.empty());
  const storage::Table& base_table =
      ctx_->table(q.relations[static_cast<size_t>(alias)].table);
  const auto& hash_edge = edges[0];
  const storage::Column& base_key = base_table.column(hash_edge.right_column);
  obs::Count(obs::Counter::kOracleHashBuilds);  // both branches hash the base
  const int32_t width = static_cast<int32_t>(left.aliases.size());
  auto position_of = [&](AliasId a) {
    for (int32_t i = 0; i < width; ++i) {
      if (left.aliases[static_cast<size_t>(i)] == a) return i;
    }
    LQOLAB_CHECK_MSG(false, "alias not in intermediate");
    return -1;
  };
  const int32_t hash_pos = position_of(hash_edge.left_alias);
  const storage::Column& probe_col =
      ctx_->table(q.relations[static_cast<size_t>(hash_edge.left_alias)].table)
          .column(hash_edge.left_column);

  if (edges.size() == 1) {
    // Pure counting: sum per-key multiplicities, O(|left| + |base|).
    std::unordered_map<Value, int64_t> counts;
    counts.reserve(base_rows.size());
    for (RowId r : base_rows) {
      const Value v = base_key.at(r);
      if (v != storage::kNullValue) ++counts[v];
    }
    int64_t total = 0;
    for (int64_t row = 0; row < left.rows; ++row) {
      const Value v = probe_col.at(left.data[static_cast<size_t>(
          row * width + hash_pos)]);
      if (v == storage::kNullValue) continue;
      auto it = counts.find(v);
      if (it != counts.end()) total += it->second;
    }
    *count = total;
    return true;
  }

  // Residual edges: iterate matching pairs with a work cap.
  constexpr int64_t kMaxCountedPairs = 400'000'000;
  std::unordered_map<Value, std::vector<RowId>> hash;
  hash.reserve(base_rows.size());
  for (RowId r : base_rows) {
    const Value v = base_key.at(r);
    if (v != storage::kNullValue) hash[v].push_back(r);
  }
  struct EdgeProbe {
    int32_t left_pos;
    const storage::Column* left_col;
    const storage::Column* right_col;
  };
  std::vector<EdgeProbe> residual;
  for (size_t e = 1; e < edges.size(); ++e) {
    residual.push_back(
        {position_of(edges[e].left_alias),
         &ctx_->table(
                  q.relations[static_cast<size_t>(edges[e].left_alias)].table)
              .column(edges[e].left_column),
         &base_table.column(edges[e].right_column)});
  }
  int64_t total = 0;
  int64_t pairs = 0;
  for (int64_t row = 0; row < left.rows; ++row) {
    const RowId* tuple = left.data.data() + row * width;
    const Value v = probe_col.at(tuple[hash_pos]);
    if (v == storage::kNullValue) continue;
    auto it = hash.find(v);
    if (it == hash.end()) continue;
    for (RowId base_row : it->second) {
      if (++pairs > kMaxCountedPairs) return false;
      bool ok = true;
      for (const auto& probe : residual) {
        const Value lv = probe.left_col->at(tuple[probe.left_pos]);
        if (lv == storage::kNullValue || lv != probe.right_col->at(base_row)) {
          ok = false;
          break;
        }
      }
      if (ok) ++total;
    }
  }
  *count = total;
  return true;
}

const Oracle::Intermediate* Oracle::Materialize(QueryMemo& memo,
                                                const Query& q,
                                                AliasMask mask) {
  auto mat_it = memo.mats.find(mask);
  if (mat_it != memo.mats.end()) return &mat_it->second;
  auto card_it = memo.cards.find(mask);
  if (card_it != memo.cards.end() && card_it->second.overflow) return nullptr;

  if (std::popcount(mask) == 1) {
    const AliasId alias = static_cast<AliasId>(std::countr_zero(mask));
    EnsureFiltered(memo, q, alias);
    Intermediate base;
    base.aliases = {alias};
    base.data = memo.filtered[static_cast<size_t>(alias)]->rows;
    base.rows = static_cast<int64_t>(base.data.size());
    TrackBytes(base.bytes());
    auto [it, inserted] = memo.mats.emplace(mask, std::move(base));
    LQOLAB_CHECK(inserted);
    EnforceBudget(memo, mask);
    return &it->second;
  }

  // Fast path: extend a cached materialization of (mask minus one alias).
  // The extension streams and is exact, so it cannot blow up beyond the
  // subset's own result size.
  AliasMask bits = mask;
  while (bits != 0) {
    const AliasId alias = static_cast<AliasId>(std::countr_zero(bits));
    bits &= bits - 1;
    const AliasMask rest = mask & ~query::MaskOf(alias);
    if (!q.IsConnected(rest)) continue;
    auto rest_it = memo.mats.find(rest);
    if (rest_it == memo.mats.end()) continue;
    EnsureFiltered(memo, q, alias);
    Intermediate joined =
        JoinWithBase(memo, q, rest_it->second, alias,
                     memo.filtered[static_cast<size_t>(alias)]->rows, mask);
    if (joined.rows < 0) {
      memo.cards[mask] = {0, true};
      return nullptr;
    }
    memo.cards[mask] = {joined.rows, false};
    TrackBytes(joined.bytes());
    auto [it, inserted] = memo.mats.emplace(mask, std::move(joined));
    LQOLAB_CHECK(inserted);
    EnforceBudget(memo, mask);
    return &it->second;
  }

  // Fresh evaluation: semi-join-reduce every member relation, then join
  // greedily (smallest reduced base first) over the reduced row lists.
  // After reduction, every partial tuple extends to at least one full
  // tuple of the subset (exactly, for acyclic subsets), so intermediates
  // stay near the subset's result size.
  //
  // Batched engine, 2-alias subsets: reduction is pure overhead — the one
  // join discards non-matching rows itself, produces no oversized
  // intermediate (its output IS the subset's result), and emits the same
  // bytes either way: probing unreduced rows only adds probes that emit
  // nothing, and build-side rows removed by reduction sit in groups no
  // surviving probe key reaches. The reference path keeps the reduction
  // unconditionally, as documentation of the general algorithm. The
  // pair's join reads the cached filtered lists themselves, not copies, so
  // PrepareBase can serve its build side from the base cache.
  const bool unreduced =
      ctx_->config.vectorized_exec && std::popcount(mask) == 2;
  std::vector<std::vector<storage::RowId>> reduced;
  if (unreduced) {
    AliasMask pair_bits = mask;
    while (pair_bits != 0) {
      const AliasId alias = static_cast<AliasId>(std::countr_zero(pair_bits));
      pair_bits &= pair_bits - 1;
      EnsureFiltered(memo, q, alias);
    }
  } else {
    reduced = SemiJoinReduce(memo, q, mask);
  }
  auto reduced_rows = [&](AliasId a) -> const std::vector<storage::RowId>& {
    return unreduced ? memo.filtered[static_cast<size_t>(a)]->rows
                     : reduced[static_cast<size_t>(a)];
  };

  std::vector<AliasId> members;
  AliasMask bits2 = mask;
  while (bits2 != 0) {
    members.push_back(static_cast<AliasId>(std::countr_zero(bits2)));
    bits2 &= bits2 - 1;
  }
  // Greedy connected order over reduced sizes.
  AliasId start = members[0];
  for (AliasId a : members) {
    if (reduced_rows(a).size() < reduced_rows(start).size()) start = a;
  }
  Intermediate current;
  current.aliases = {start};
  current.data = reduced_rows(start);
  current.rows = static_cast<int64_t>(current.data.size());
  AliasMask covered = query::MaskOf(start);
  while (covered != mask) {
    AliasId next = -1;
    for (AliasId a : members) {
      if (covered & query::MaskOf(a)) continue;
      if ((q.AdjacencyMask(a) & covered) == 0) continue;
      if (next < 0 || reduced_rows(a).size() < reduced_rows(next).size()) {
        next = a;
      }
    }
    LQOLAB_CHECK_GE(next, 0);
    Intermediate joined =
        JoinWithBase(memo, q, current, next, reduced_rows(next), mask);
    if (joined.rows < 0) {
      memo.cards[mask] = {0, true};
      return nullptr;
    }
    current = std::move(joined);
    covered |= query::MaskOf(next);
  }
  memo.cards[mask] = {current.rows, false};
  TrackBytes(current.bytes());
  auto [it, inserted] = memo.mats.emplace(mask, std::move(current));
  LQOLAB_CHECK(inserted);
  EnforceBudget(memo, mask);
  return &it->second;
}

std::vector<std::vector<storage::RowId>> Oracle::SemiJoinReduce(
    QueryMemo& memo, const Query& q, AliasMask mask) {
  std::vector<std::vector<storage::RowId>> reduced(q.relations.size());
  AliasMask bits = mask;
  while (bits != 0) {
    const AliasId alias = static_cast<AliasId>(std::countr_zero(bits));
    bits &= bits - 1;
    EnsureFiltered(memo, q, alias);
    reduced[static_cast<size_t>(alias)] =
        memo.filtered[static_cast<size_t>(alias)]->rows;
  }
  // Edges inside the mask.
  std::vector<query::JoinEdge> edges;
  for (const auto& edge : q.edges) {
    if ((mask & query::MaskOf(edge.left_alias)) &&
        (mask & query::MaskOf(edge.right_alias))) {
      edges.push_back(edge);
    }
  }
  // Fixpoint bookkeeping for the batched engine: a directed reduction is a
  // pure membership filter, so re-running it is a no-op unless one of its
  // two sides shrank since it last ran. Versions count shrinks per alias;
  // each directed edge remembers the versions it last ran against and is
  // skipped when both are unchanged — identical rows kept, without the
  // redundant set rebuilds the reference path tolerates.
  std::vector<uint32_t> version(q.relations.size(), 0);
  std::vector<uint32_t> ran_keep(edges.size() * 2, UINT32_MAX);
  std::vector<uint32_t> ran_probe(edges.size() * 2, UINT32_MAX);
  // Batched engine: directed slots that probe the same (alias, column)
  // share one cached ValueSet from semi_set_pool_, rebuilt only when the
  // probe side has shrunk since the set was last built. The reference path
  // deliberately rebuilds its unordered_set every time.
  struct BuildKey {
    AliasId alias;
    catalog::ColumnId column;
  };
  std::vector<BuildKey> build_keys;
  std::vector<size_t> slot_key(edges.size() * 2, 0);
  std::vector<uint32_t> built_version;
  if (ctx_->config.vectorized_exec) {
    auto key_index = [&](AliasId alias, catalog::ColumnId column) {
      for (size_t i = 0; i < build_keys.size(); ++i) {
        if (build_keys[i].alias == alias && build_keys[i].column == column) {
          return i;
        }
      }
      build_keys.push_back({alias, column});
      return build_keys.size() - 1;
    };
    for (size_t e = 0; e < edges.size(); ++e) {
      slot_key[2 * e] = key_index(edges[e].right_alias, edges[e].right_column);
      slot_key[2 * e + 1] =
          key_index(edges[e].left_alias, edges[e].left_column);
    }
    if (semi_set_pool_.size() < build_keys.size()) {
      semi_set_pool_.resize(build_keys.size());
    }
    built_version.assign(build_keys.size(), UINT32_MAX);
  }
  // A few reduction passes (2 suffice for tree-shaped subsets when edges
  // are swept in both directions; a 3rd catches most cycle effects).
  for (int pass = 0; pass < 3; ++pass) {
    bool changed = false;
    // Batched engine: the probe side publishes its key set as an
    // open-addressing ValueSet (plus, when the kernel's BloomSchedule
    // fires, a Bloom filter consulted before the exact lookup — sideways
    // information passing), and the keep side is compacted in place.
    // Membership is exactly the reference path's unordered_set semantics,
    // so both engines keep the same rows.
    auto reduce_side_batched = [&](size_t slot, AliasId keep,
                                   catalog::ColumnId keep_col, AliasId probe,
                                   catalog::ColumnId probe_col) {
      if (ran_keep[slot] == version[static_cast<size_t>(keep)] &&
          ran_probe[slot] == version[static_cast<size_t>(probe)]) {
        return;
      }
      auto& keep_rows = reduced[static_cast<size_t>(keep)];
      const auto& probe_rows = reduced[static_cast<size_t>(probe)];
      const storage::Column& keep_values =
          ctx_->table(q.relations[static_cast<size_t>(keep)].table)
              .column(keep_col);
      const storage::Column& probe_values =
          ctx_->table(q.relations[static_cast<size_t>(probe)].table)
              .column(probe_col);
      const size_t key = slot_key[slot];
      kernels::ValueSet& set = semi_set_pool_[key];
      if (built_version[key] != version[static_cast<size_t>(probe)]) {
        set.Build(probe_values.data(), probe_rows.data(),
                  static_cast<int64_t>(probe_rows.size()));
        built_version[key] = version[static_cast<size_t>(probe)];
      }
      const size_t before = keep_rows.size();
      kernels::RefineBySet(keep_values.data(), set, &transfer_bloom_,
                           &keep_rows);
      if (keep_rows.size() != before) {
        changed = true;
        ++version[static_cast<size_t>(keep)];
      }
      ran_keep[slot] = version[static_cast<size_t>(keep)];
      ran_probe[slot] = version[static_cast<size_t>(probe)];
    };
    auto reduce_side = [&](size_t slot, AliasId keep,
                           catalog::ColumnId keep_col, AliasId probe,
                           catalog::ColumnId probe_col) {
      if (ctx_->config.vectorized_exec) {
        reduce_side_batched(slot, keep, keep_col, probe, probe_col);
        return;
      }
      auto& keep_rows = reduced[static_cast<size_t>(keep)];
      const auto& probe_rows = reduced[static_cast<size_t>(probe)];
      const storage::Column& keep_values =
          ctx_->table(q.relations[static_cast<size_t>(keep)].table)
              .column(keep_col);
      const storage::Column& probe_values =
          ctx_->table(q.relations[static_cast<size_t>(probe)].table)
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
    for (size_t e = 0; e < edges.size(); ++e) {
      const auto& edge = edges[e];
      reduce_side(2 * e, edge.left_alias, edge.left_column, edge.right_alias,
                  edge.right_column);
      reduce_side(2 * e + 1, edge.right_alias, edge.right_column,
                  edge.left_alias, edge.left_column);
    }
    if (!changed) break;
  }
  return reduced;
}

Oracle::Intermediate Oracle::JoinWithBase(
    QueryMemo& memo, const Query& q, const Intermediate& left, AliasId alias,
    const std::vector<storage::RowId>& base_rows, AliasMask scope) {
  return ctx_->config.vectorized_exec
             ? JoinWithBaseVectorized(memo, q, left, alias, base_rows, scope)
             : JoinWithBaseScalar(q, left, alias, base_rows, scope);
}

/// Batched engine: probe the shared index when the base is a whole table,
/// else a grouped JoinHashTable over the base rows (one flat payload array
/// instead of a vector per key; cached or freshly built), whose key set
/// the probe stream's BloomSchedule may publish as a Bloom filter; then
/// probe the left
/// intermediate in kBatchRows strides, gathering probe keys into an
/// L1-resident staging buffer. Match set, output order and the overflow
/// trip point are identical to JoinWithBaseScalar: probes run in left-row
/// order and each group replays the base rows in insertion order.
Oracle::Intermediate Oracle::JoinWithBaseVectorized(
    QueryMemo& memo, const Query& q, const Intermediate& left, AliasId alias,
    const std::vector<storage::RowId>& base_rows, AliasMask scope) {
  AliasMask left_mask = 0;
  for (AliasId a : left.aliases) left_mask |= query::MaskOf(a);
  LQOLAB_DCHECK((left_mask & ~scope) == 0);
  const auto edges = q.EdgesBetween(left_mask, query::MaskOf(alias));
  LQOLAB_CHECK(!edges.empty());

  const storage::Table& base_table =
      ctx_->table(q.relations[static_cast<size_t>(alias)].table);
  const auto& hash_edge = edges[0];
  const BaseProbe base =
      PrepareBase(memo, q, alias, hash_edge.right_column, base_rows);

  const int32_t width = static_cast<int32_t>(left.aliases.size());
  auto position_of = [&](AliasId a) {
    for (int32_t i = 0; i < width; ++i) {
      if (left.aliases[static_cast<size_t>(i)] == a) return i;
    }
    LQOLAB_CHECK_MSG(false, "alias not in intermediate");
    return -1;
  };
  struct EdgeProbe {
    int32_t left_pos;
    const Value* left_col;
    const Value* right_col;
  };
  std::vector<EdgeProbe> residual;
  const int32_t hash_pos = position_of(hash_edge.left_alias);
  const Value* hash_probe_col =
      ctx_->table(q.relations[static_cast<size_t>(hash_edge.left_alias)].table)
          .column(hash_edge.left_column)
          .data();
  for (size_t e = 1; e < edges.size(); ++e) {
    EdgeProbe probe;
    probe.left_pos = position_of(edges[e].left_alias);
    probe.left_col =
        ctx_->table(q.relations[static_cast<size_t>(edges[e].left_alias)].table)
            .column(edges[e].left_column)
            .data();
    probe.right_col = base_table.column(edges[e].right_column).data();
    residual.push_back(probe);
  }

  // An index probe runs without predicate transfer: the Bloom filter is
  // filled from the probed table's keys, and as a pure pre-test its absence
  // changes no output.
  const bool transfer_armed = base.index == nullptr;
  kernels::BloomSchedule transfer;
  const BloomFilter* bloom = nullptr;

  Intermediate out;
  out.aliases = left.aliases;
  out.aliases.insert(
      std::upper_bound(out.aliases.begin(), out.aliases.end(), alias), alias);
  const int32_t out_width = width + 1;
  const int32_t insert_pos = [&] {
    for (int32_t i = 0; i < out_width; ++i) {
      if (out.aliases[static_cast<size_t>(i)] == alias) return i;
    }
    return -1;
  }();

  // Output rows are staged in an L1-resident flush buffer and appended to
  // out.data one chunk at a time, so vector bookkeeping is paid once per
  // ~kFlushCells/out_width rows instead of per match.
  constexpr int32_t kFlushCells = 2048;
  RowId flush[kFlushCells];
  int32_t flush_used = 0;

  Value probe_keys[kernels::kBatchRows];
  for (int64_t batch = 0; batch < left.rows; batch += kernels::kBatchRows) {
    const int32_t n = static_cast<int32_t>(
        std::min<int64_t>(kernels::kBatchRows, left.rows - batch));
    const RowId* batch_tuples = left.data.data() + batch * width;
    // Gather this batch's probe keys through the row-id indirection once.
    for (int32_t i = 0; i < n; ++i) {
      probe_keys[i] = hash_probe_col[batch_tuples[i * width + hash_pos]];
    }
    for (int32_t i = 0; i < n; ++i) {
      base.Prefetch(probe_keys[std::min<int32_t>(
          i + static_cast<int32_t>(kProbePrefetchDistance), n - 1)]);
      const Value probe_value = probe_keys[i];
      if (probe_value == storage::kNullValue) continue;
      if (bloom != nullptr && !bloom->MayContain(probe_value)) continue;
      const kernels::JoinHashTable::Group group = base.Probe(probe_value);
      if (transfer_armed && transfer.sampling()) {
        transfer.Observe(/*non_null=*/true, /*hit=*/group.count != 0);
        if (transfer.Fires()) {
          base.table->FillBloom(&transfer_bloom_);
          bloom = &transfer_bloom_;
        }
      }
      if (group.count == 0) continue;
      const RowId* tuple = batch_tuples + i * width;
      for (int32_t g = 0; g < group.count; ++g) {
        const RowId base_row = group.rows[g];
        bool ok = true;
        for (const auto& probe : residual) {
          const Value lv = probe.left_col[tuple[probe.left_pos]];
          if (lv == storage::kNullValue || lv != probe.right_col[base_row]) {
            ok = false;
            break;
          }
        }
        if (!ok) continue;
        if (out.rows >= cost::kMaxIntermediateRows ||
            out.rows * out_width >= cost::kMaxIntermediateCells) {
          out.rows = -1;  // overflow
          out.data.clear();
          out.data.shrink_to_fit();
          return out;
        }
        if (flush_used + out_width > kFlushCells) {
          out.data.insert(out.data.end(), flush, flush + flush_used);
          flush_used = 0;
        }
        RowId* staged = flush + flush_used;  // out_width ≤ 32 aliases + 1
        for (int32_t c = 0; c < insert_pos; ++c) staged[c] = tuple[c];
        staged[insert_pos] = base_row;
        for (int32_t c = insert_pos + 1; c < out_width; ++c) {
          staged[c] = tuple[c - 1];
        }
        flush_used += out_width;
        ++out.rows;
      }
    }
  }
  out.data.insert(out.data.end(), flush, flush + flush_used);
  return out;
}

Oracle::Intermediate Oracle::JoinWithBaseScalar(
    const Query& q, const Intermediate& left, AliasId alias,
    const std::vector<storage::RowId>& base_rows, AliasMask scope) {
  AliasMask left_mask = 0;
  for (AliasId a : left.aliases) left_mask |= query::MaskOf(a);
  LQOLAB_DCHECK((left_mask & ~scope) == 0);
  // Edges normalized so that left_alias is inside `left`.
  const auto edges = q.EdgesBetween(left_mask, query::MaskOf(alias));
  LQOLAB_CHECK(!edges.empty());

  const storage::Table& base_table =
      ctx_->table(q.relations[static_cast<size_t>(alias)].table);

  // Hash the base relation on the first edge's column.
  const auto& hash_edge = edges[0];
  const storage::Column& base_key =
      base_table.column(hash_edge.right_column);
  obs::Count(obs::Counter::kOracleHashBuilds);
  std::unordered_map<Value, std::vector<RowId>> hash;
  hash.reserve(base_rows.size());
  for (RowId r : base_rows) {
    const Value v = base_key.at(r);
    if (v == storage::kNullValue) continue;
    hash[v].push_back(r);
  }

  // Positions of the probe-side aliases within the left tuple layout.
  const int32_t width = static_cast<int32_t>(left.aliases.size());
  auto position_of = [&](AliasId a) {
    for (int32_t i = 0; i < width; ++i) {
      if (left.aliases[static_cast<size_t>(i)] == a) return i;
    }
    LQOLAB_CHECK_MSG(false, "alias not in intermediate");
    return -1;
  };
  struct EdgeProbe {
    int32_t left_pos;
    const storage::Column* left_col;
    const storage::Column* right_col;
  };
  std::vector<EdgeProbe> residual;
  const int32_t hash_pos = position_of(hash_edge.left_alias);
  const storage::Column& hash_probe_col =
      ctx_->table(q.relations[static_cast<size_t>(hash_edge.left_alias)].table)
          .column(hash_edge.left_column);
  for (size_t e = 1; e < edges.size(); ++e) {
    EdgeProbe probe;
    probe.left_pos = position_of(edges[e].left_alias);
    probe.left_col =
        &ctx_->table(q.relations[static_cast<size_t>(edges[e].left_alias)].table)
             .column(edges[e].left_column);
    probe.right_col = &base_table.column(edges[e].right_column);
    residual.push_back(probe);
  }

  // New layout: aliases sorted ascending with `alias` inserted.
  Intermediate out;
  out.aliases = left.aliases;
  out.aliases.insert(
      std::upper_bound(out.aliases.begin(), out.aliases.end(), alias), alias);
  const int32_t out_width = width + 1;
  const int32_t insert_pos = [&] {
    for (int32_t i = 0; i < out_width; ++i) {
      if (out.aliases[static_cast<size_t>(i)] == alias) return i;
    }
    return -1;
  }();

  for (int64_t row = 0; row < left.rows; ++row) {
    const RowId* tuple = left.data.data() + row * width;
    const Value probe_value =
        hash_probe_col.at(tuple[hash_pos]);
    if (probe_value == storage::kNullValue) continue;
    auto it = hash.find(probe_value);
    if (it == hash.end()) continue;
    for (RowId base_row : it->second) {
      bool ok = true;
      for (const auto& probe : residual) {
        const Value lv = probe.left_col->at(tuple[probe.left_pos]);
        if (lv == storage::kNullValue ||
            lv != probe.right_col->at(base_row)) {
          ok = false;
          break;
        }
      }
      if (!ok) continue;
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

void Oracle::TrackBytes(int64_t delta) { mat_bytes_ += delta; }

void Oracle::DropBuildTables() {
  for (auto& [key, base] : bases_) {
    for (FilteredBase::Build& build : base.builds) {
      if (build.table == nullptr) continue;
      mat_bytes_ -= build.table->bytes();
      build.table.reset();
    }
  }
}

void Oracle::EnforceBudget(QueryMemo& keep, AliasMask keep_mask) {
  if (mat_bytes_ <= budget_bytes_) return;
  // Cached build tables go first: they only save rebuilds, and with them
  // gone the materializations below are evicted exactly when, and exactly
  // as, they would be without the cache.
  DropBuildTables();
  if (mat_bytes_ <= budget_bytes_) return;
  // Drop materializations of all other queries first, then (if still over)
  // the current query's larger intermediates. Cardinalities are retained.
  for (auto& [fp, memo] : memos_) {
    if (&memo == &keep) continue;
    for (auto& [mask, mat] : memo.mats) mat_bytes_ -= mat.bytes();
    memo.mats.clear();
  }
  if (mat_bytes_ <= budget_bytes_) return;
  std::vector<std::pair<int64_t, AliasMask>> sized;
  for (auto& [mask, mat] : keep.mats) sized.emplace_back(mat.bytes(), mask);
  std::sort(sized.begin(), sized.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  for (const auto& [bytes, mask] : sized) {
    if (mat_bytes_ <= budget_bytes_ / 2) break;
    if (mask == keep_mask) continue;
    mat_bytes_ -= bytes;
    keep.mats.erase(mask);
  }
}

void Oracle::ReleaseMaterializations() {
  for (auto& [fp, memo] : memos_) {
    memo.mats.clear();
  }
  DropBuildTables();
  mat_bytes_ = 0;
}

}  // namespace lqolab::exec
