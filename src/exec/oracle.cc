#include "exec/oracle.h"

#include <algorithm>
#include <bit>
#include <span>

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

/// The aliases of `mask` with an edge to an alias outside it: the only
/// columns a later extension of `mask` reads.
AliasMask Frontier(const Query& q, AliasMask mask) {
  AliasMask frontier = 0;
  for (AliasMask bits = mask; bits != 0; bits &= bits - 1) {
    const AliasId alias = static_cast<AliasId>(std::countr_zero(bits));
    if ((q.AdjacencyMask(alias) & ~mask) != 0) {
      frontier |= query::MaskOf(alias);
    }
  }
  return frontier;
}

/// The aliases of `mask` whose row, in any tuple of the join over `mask`,
/// follows from the rows of `kept` through edges onto primary keys: an
/// edge x.c = y.id pins y's row to x's, as column 0 is every table's
/// primary key (catalog::TableDef). A left column that leaves the frontier
/// needs no merge when the kept columns determine it: the rows stay
/// distinct. Merging never changes a count, so a key that is not unique in
/// the data would cost only rows.
AliasMask KeyDetermined(const Query& q, AliasMask mask, AliasMask kept) {
  AliasMask closure = kept;
  for (bool grew = true; grew;) {
    grew = false;
    for (const query::JoinEdge& edge : q.edges) {
      const AliasMask l = query::MaskOf(edge.left_alias);
      const AliasMask r = query::MaskOf(edge.right_alias);
      if ((mask & l) == 0 || (mask & r) == 0) continue;
      if ((closure & l) && !(closure & r) && edge.right_column == 0) {
        closure |= r;
        grew = true;
      } else if ((closure & r) && !(closure & l) && edge.left_column == 0) {
        closure |= l;
        grew = true;
      }
    }
  }
  return closure;
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

int32_t Oracle::Intermediate::PositionOf(AliasId alias) const {
  for (size_t i = 0; i < aliases.size(); ++i) {
    if (aliases[i] == alias) return static_cast<int32_t>(i);
  }
  LQOLAB_CHECK_MSG(false, "alias not in intermediate");
  return -1;
}

std::vector<query::JoinEdge> Oracle::EdgesWithin(const Query& q,
                                                 AliasMask mask) {
  std::vector<query::JoinEdge> edges;
  for (const auto& edge : q.edges) {
    if ((mask & query::MaskOf(edge.left_alias)) &&
        (mask & query::MaskOf(edge.right_alias))) {
      edges.push_back(edge);
    }
  }
  return edges;
}

std::vector<Oracle::EdgeProbe> Oracle::ProbeEdges(
    const Query& q, const Intermediate& left, const JoinSide& right) const {
  // Normalized so that left_alias is inside `left`; every alias at either
  // end has an edge leaving its side's mask, so it is one of that side's
  // kept columns.
  const auto edges = q.EdgesBetween(left.mask, right.mask());
  LQOLAB_CHECK(!edges.empty());
  auto column = [&](AliasId alias, catalog::ColumnId c) {
    return ctx_->table(q.relations[static_cast<size_t>(alias)].table)
        .column(c)
        .data();
  };
  std::vector<EdgeProbe> probes;
  probes.reserve(edges.size());
  for (const query::JoinEdge& edge : edges) {
    probes.push_back(
        {left.PositionOf(edge.left_alias),
         right.held != nullptr ? right.held->PositionOf(edge.right_alias) : 0,
         edge.right_column, column(edge.left_alias, edge.left_column),
         column(edge.right_alias, edge.right_column)});
  }
  return probes;
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
  // Full-column selection kernel on the first predicate, then in-place
  // refinement per remaining predicate.
  const storage::Table& table = ctx_->table(table_id);
  const int64_t n = table.row_count();
  if (pred_count == 0) {
    kernels::SelectAll(n, rows);
    return;
  }
  kernels::SelectPredicate(table.column(preds[0].column).data(), n, preds[0],
                           rows);
  for (size_t p = 1; p < pred_count; ++p) {
    kernels::RefinePredicate(table.column(preds[p].column).data(), preds[p],
                             rows);
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
  CardResult result;
  if (std::popcount(mask) == 1) {
    const AliasId alias = static_cast<AliasId>(std::countr_zero(mask));
    EnsureFiltered(memo, q, alias);
    result.rows = static_cast<int64_t>(
        memo.filtered[static_cast<size_t>(alias)]->rows.size());
  } else {
    result = Materialize(memo, q, mask);
  }
  memo.cards[mask] = result;
  return result;
}

/// Build side of a join: for a base relation, the shared storage::Index on
/// the hash-edge column when the base is the whole table, else a
/// JoinHashTable over the base rows — the base's cached table or
/// join_table_; for a held intermediate, join_table_ over its row indices.
/// All list a key's rows in ascending row-id order — an
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
  // Second-touch admission: only an unreduced base — recognized by being
  // the cached list itself — has a cache key. Its first request builds
  // into scratch like any other; a request for a key seen before fills a
  // kept table if the budget has room for the exact layout the build will
  // choose, and later requests reuse it.
  FilteredBase* base = memo.filtered[static_cast<size_t>(alias)];
  FilteredBase::Build* build = nullptr;
  if (base != nullptr && &base->rows == &base_rows) {
    auto it = std::find_if(
        base->builds.begin(), base->builds.end(),
        [&](const FilteredBase::Build& b) { return b.column == column; });
    if (it == base->builds.end()) {
      base->builds.push_back({column, 0, nullptr});
      it = base->builds.end() - 1;
    }
    build = &*it;
    if (build->table != nullptr) {
      obs::Count(obs::Counter::kOracleBuildReuses);
      return {nullptr, build->table.get()};
    }
  }
  obs::Count(obs::Counter::kOracleHashBuilds);
  const kernels::KeyRange range = kernels::KeyRange::Of(
      keys, base_rows.data(), static_cast<int64_t>(base_rows.size()));
  if (build != nullptr && build->requests++ > 0 &&
      mat_bytes_ + kernels::JoinHashTable::RetainedBytes(range) <=
          budget_bytes_) {
    build->table = std::make_unique<kernels::JoinHashTable>();
    build->table->Build(keys, base_rows.data(), range);
    build->table->ReleaseBuildScratch();
    LQOLAB_DCHECK(build->table->bytes() ==
                  kernels::JoinHashTable::RetainedBytes(range));
    TrackBytes(build->table->bytes());
    return {nullptr, build->table.get()};
  }
  join_table_.Build(keys, base_rows.data(), range);
  return {nullptr, &join_table_};
}

Oracle::BaseProbe Oracle::PrepareHeld(const Intermediate& held,
                                      const EdgeProbe& edge) {
  const int64_t n = held.stored_rows();
  const size_t width = held.aliases.size();
  held_keys_.resize(static_cast<size_t>(n));
  for (int64_t r = 0; r < n; ++r) {
    held_keys_[static_cast<size_t>(r)] =
        edge.right_col[held.data[static_cast<size_t>(r) * width +
                                 static_cast<size_t>(edge.right_pos)]];
  }
  // held_rows_ is always 0, 1, ...; it only grows.
  for (int64_t r = static_cast<int64_t>(held_rows_.size()); r < n; ++r) {
    held_rows_.push_back(static_cast<RowId>(r));
  }
  obs::Count(obs::Counter::kOracleHashBuilds);
  join_table_.Build(held_keys_.data(), held_rows_.data(), n);
  return {nullptr, &join_table_};
}

Oracle::CardResult Oracle::Materialize(QueryMemo& memo, const Query& q,
                                       AliasMask mask) {
  // Single aliases never get here: TrueJoinRows answers them from the
  // filtered rows.
  LQOLAB_DCHECK(std::popcount(mask) >= 2);

  // Counts what each join writes, then keeps the finished subset unless it
  // alone would pass the budget.
  auto count_written = [](const Intermediate& joined) {
    obs::Count(obs::Counter::kOracleIntermediateRows, joined.stored_rows());
    obs::Count(obs::Counter::kOracleIntermediateCells,
               static_cast<int64_t>(joined.data.size()));
  };
  auto keep = [&](Intermediate joined) {
    const CardResult result{joined.rows, false};
    if (joined.bytes() > budget_bytes_) return result;
    TrackBytes(joined.bytes());
    const bool inserted = memo.mats.emplace(mask, std::move(joined)).second;
    LQOLAB_CHECK(inserted);
    EnforceBudget(memo, mask);
    return result;
  };
  // A held path's join is the subset's answer: its overflow, or its result.
  auto keep_joined = [&](Intermediate joined) -> CardResult {
    if (joined.rows < 0) return {0, true};
    count_written(joined);
    return keep(std::move(joined));
  };

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
    return keep_joined(Join(
        memo, q, rest_it->second,
        JoinSide::Base(alias,
                       memo.filtered[static_cast<size_t>(alias)]->rows)));
  }

  // Next: join two held intermediates that split `mask`, as a bushy plan
  // node's children are. Of the held splits, the one storing the fewest
  // rows together, ties to the lower L: found by scanning what is held, not
  // every submask, and independent of the map's order. The side storing
  // fewer rows is the build side, ties to the higher mask. Exact like an
  // extension, and bounded by the two sides and the subset's result.
  const Intermediate* split_left = nullptr;
  const Intermediate* split_right = nullptr;
  int64_t split_rows = 0;
  for (const auto& [left_mask, left] : memo.mats) {
    const AliasMask right_mask = mask & ~left_mask;
    // Each split once, as (lower mask, higher mask).
    if ((left_mask & ~mask) != 0 || right_mask <= left_mask) continue;
    auto right_it = memo.mats.find(right_mask);
    if (right_it == memo.mats.end()) continue;
    const int64_t rows = left.stored_rows() + right_it->second.stored_rows();
    if (split_left == nullptr || rows < split_rows ||
        (rows == split_rows && left_mask < split_left->mask)) {
      split_left = &left;
      split_right = &right_it->second;
      split_rows = rows;
    }
  }
  if (split_left != nullptr) {
    if (split_left->stored_rows() < split_right->stored_rows()) {
      std::swap(split_left, split_right);
    }
    obs::Count(obs::Counter::kOracleHeldJoins);
    return keep_joined(
        Join(memo, q, *split_left, JoinSide::Held(*split_right)));
  }

  // Fresh evaluation: semi-join-reduce every member relation, then join
  // greedily (smallest reduced base first) over the reduced row lists.
  // After reduction, every partial tuple extends to at least one full
  // tuple of the subset (exactly, for acyclic subsets), so intermediates
  // stay near the subset's result size.
  //
  // 2-alias subsets skip reduction, which is pure overhead for them: the
  // one join discards non-matching rows itself, produces no oversized
  // intermediate (its output IS the subset's result), and finds the same
  // tuples either way — probing unreduced rows only adds probes that emit
  // nothing, and build-side rows removed by reduction sit in groups no
  // surviving probe key reaches. The pair's join reads the cached filtered
  // lists themselves, not copies, so PrepareBase can serve its build side
  // from the base cache.
  const bool unreduced = std::popcount(mask) == 2;
  std::vector<std::vector<storage::RowId>> reduced;
  if (unreduced) {
    AliasMask pair_bits = mask;
    while (pair_bits != 0) {
      const AliasId alias = static_cast<AliasId>(std::countr_zero(pair_bits));
      pair_bits &= pair_bits - 1;
      EnsureFiltered(memo, q, alias);
    }
  } else {
    obs::Count(obs::Counter::kOracleFreshEvaluations);
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
  // Greedy connected order over reduced sizes. The first relation enters
  // as itself: every row at weight 1 (it has an edge to the next).
  AliasId start = members[0];
  for (AliasId a : members) {
    if (reduced_rows(a).size() < reduced_rows(start).size()) start = a;
  }
  Intermediate current;
  current.mask = query::MaskOf(start);
  current.aliases = {start};
  current.data = reduced_rows(start);
  current.rows = static_cast<int64_t>(current.data.size());
  while (current.mask != mask) {
    AliasId next = -1;
    for (AliasId a : members) {
      if (current.mask & query::MaskOf(a)) continue;
      if ((q.AdjacencyMask(a) & current.mask) == 0) continue;
      if (next < 0 || reduced_rows(a).size() < reduced_rows(next).size()) {
        next = a;
      }
    }
    LQOLAB_CHECK_GE(next, 0);
    Intermediate joined =
        Join(memo, q, current, JoinSide::Base(next, reduced_rows(next)));
    if (joined.rows < 0) return {0, true};
    count_written(joined);
    current = std::move(joined);
  }
  return keep(std::move(current));
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
  const std::vector<query::JoinEdge> edges = EdgesWithin(q, mask);
  // Fixpoint bookkeeping: a directed reduction is a pure membership
  // filter, so re-running it is a no-op unless one of its two sides shrank
  // since it last ran. Versions count shrinks per alias; each directed edge
  // remembers the versions it last ran against and is skipped when both
  // are unchanged — identical rows kept, without the redundant set
  // rebuilds the reference (fuzz::ScalarOracle) tolerates.
  std::vector<uint32_t> version(q.relations.size(), 0);
  std::vector<uint32_t> ran_keep(edges.size() * 2, UINT32_MAX);
  std::vector<uint32_t> ran_probe(edges.size() * 2, UINT32_MAX);
  // Directed slots that probe the same (alias, column) share one cached
  // ValueSet from semi_set_pool_, rebuilt only when the probe side has
  // shrunk since the set was last built. The reference deliberately
  // rebuilds its unordered_set every time.
  struct BuildKey {
    AliasId alias;
    catalog::ColumnId column;
  };
  std::vector<BuildKey> build_keys;
  std::vector<size_t> slot_key(edges.size() * 2, 0);
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
    slot_key[2 * e + 1] = key_index(edges[e].left_alias, edges[e].left_column);
  }
  if (semi_set_pool_.size() < build_keys.size()) {
    semi_set_pool_.resize(build_keys.size());
  }
  std::vector<uint32_t> built_version(build_keys.size(), UINT32_MAX);
  // A few reduction passes (2 suffice for tree-shaped subsets when edges
  // are swept in both directions; a 3rd catches most cycle effects).
  for (int pass = 0; pass < 3; ++pass) {
    bool changed = false;
    // The probe side publishes its key set as a ValueSet (plus, when the
    // kernel's BloomSchedule fires, a Bloom filter consulted before the
    // exact lookup — sideways information passing), and the keep side is
    // compacted in place. Membership is exactly the reference's
    // unordered_set semantics, so both keep the same rows.
    auto reduce_side = [&](size_t slot, AliasId keep,
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

/// Probes the shared index when the right side is a whole table, else a
/// grouped JoinHashTable over its rows (one flat payload array instead of
/// a vector per key; a base's cached or freshly built table, or one built
/// over a held intermediate's row indices), whose key set the probe
/// stream's BloomSchedule may publish as a Bloom filter; the left
/// intermediate is probed in kBatchRows strides, gathering probe keys into
/// an L1-resident staging buffer. Match set, probe order and so the
/// transfer schedule are the reference's (fuzz::ScalarOracle) over the
/// weighted rows: probes run in left-row order and each group replays the
/// right rows in insertion order.
///
/// The result keeps the frontier of left.mask | right.mask() (Frontier),
/// and a row weighs the product of its left and right rows' weights. When
/// no right column stays on the frontier, a left row's matches are summed
/// into its weight instead of rows; with no frontier at all the result is
/// one running count. Rows are merged only when a column leaves the
/// frontier, since distinct tuples otherwise stay distinct, and only when
/// the kept columns do not determine it through primary keys
/// (KeyDetermined): into a direct-addressed array by row id when one column
/// is kept, else into open-addressing slots. Weights are stored from the
/// first row that weighs more than 1. The caps are checked on what is
/// stored — rows, and cells counting a weight as two — as it grows;
/// weights are summed and multiplied with overflow checks, and the right
/// rows walked per matching group count against cost::kMaxVisitedPairs.
Oracle::Intermediate Oracle::Join(QueryMemo& memo, const Query& q,
                                  const Intermediate& left,
                                  const JoinSide& right) {
  const std::vector<EdgeProbe> edges = ProbeEdges(q, left, right);
  const std::span<const EdgeProbe> residual(edges.begin() + 1, edges.end());
  const Intermediate* held = right.held;
  const BaseProbe base =
      held != nullptr ? PrepareHeld(*held, edges[0])
                      : PrepareBase(memo, q, right.alias,
                                    edges[0].right_column, *right.rows);
  const int32_t width = static_cast<int32_t>(left.aliases.size());
  const int32_t hash_pos = edges[0].left_pos;
  const Value* hash_probe_col = edges[0].left_col;
  const int64_t left_rows = left.stored_rows();
  const int64_t* left_weights =
      left.weights.empty() ? nullptr : left.weights.data();
  // A base's group lists its row ids, each its own one-column tuple; a held
  // side's lists row indices into its tuples.
  const size_t right_width = held != nullptr ? held->aliases.size() : 1;
  const int64_t* right_weights =
      held != nullptr && !held->weights.empty() ? held->weights.data()
                                                : nullptr;
  auto right_tuple = [&](const RowId* entry) {
    return held != nullptr
               ? held->data.data() + static_cast<size_t>(*entry) * right_width
               : entry;
  };

  // An index probe runs without predicate transfer: the Bloom filter is
  // filled from the probed table's keys, and as a pure pre-test its absence
  // changes no output.
  const bool transfer_armed = base.index == nullptr;
  kernels::BloomSchedule transfer;
  const BloomFilter* bloom = nullptr;

  Intermediate out;
  const AliasMask right_mask = right.mask();
  out.mask = left.mask | right_mask;
  const AliasMask frontier = Frontier(q, out.mask);
  // Each kept column's side (0: left tuple, 1: right tuple) and column
  // within that side's tuple.
  uint8_t side[32];
  int32_t source[32];
  for (AliasMask bits = frontier; bits != 0; bits &= bits - 1) {
    const AliasId a = static_cast<AliasId>(std::countr_zero(bits));
    const int32_t c = static_cast<int32_t>(out.aliases.size());
    const bool from_right = (right_mask & query::MaskOf(a)) != 0;
    side[c] = from_right ? 1 : 0;
    source[c] = !from_right      ? left.PositionOf(a)
                : held != nullptr ? held->PositionOf(a)
                                  : 0;
    out.aliases.push_back(a);
  }
  const int32_t out_width = static_cast<int32_t>(out.aliases.size());
  const bool keep_right = (frontier & right_mask) != 0;
  // The stored columns a distinct output row could lose. A right side none
  // of whose columns stays is summed per left row, so it loses none.
  AliasMask droppable = 0;
  for (AliasId a : left.aliases) droppable |= query::MaskOf(a);
  if (keep_right && held != nullptr) {
    for (AliasId a : held->aliases) droppable |= query::MaskOf(a);
  }
  const bool merge =
      out_width > 0 &&
      (droppable & ~KeyDetermined(q, out.mask, frontier)) != 0;
  // Most rows the result may store: kMaxIntermediateRows, and fewer than
  // kMaxIntermediateCells cells at out_width per row, two more once weights
  // are stored (unused without kept columns).
  auto stored_cap = [&](bool with_weights) {
    const int64_t cells_per_row =
        std::max<int64_t>(1, out_width + (with_weights ? 2 : 0));
    return std::min(cost::kMaxIntermediateRows,
                    (cost::kMaxIntermediateCells - 1) / cells_per_row);
  };
  int64_t row_cap = stored_cap(false);
  int64_t visited = 0;  // right rows walked in matching groups

  int32_t* by_row = nullptr;  // one kept column: output row per row id
  int32_t slot_mask = 0;      // several: merge_slots_.size() - 1
  if (merge && out_width == 1) {
    const int64_t table_rows =
        ctx_->table(q.relations[static_cast<size_t>(out.aliases[0])].table)
            .row_count();
    if (static_cast<int64_t>(merge_by_row_.size()) < table_rows) {
      merge_by_row_.resize(static_cast<size_t>(table_rows), -1);
    }
    by_row = merge_by_row_.data();
  } else if (merge) {
    merge_slots_.assign(1024, -1);
    slot_mask = 1023;
  }
  // Rows are staged in an L1-resident flush buffer and appended to
  // out.data one chunk at a time, so vector bookkeeping is paid once per
  // ~kFlushCells/out_width rows instead of per row. Row r lives in
  // out.data below `flushed` rows, in the buffer from there on.
  constexpr int32_t kFlushCells = 2048;
  RowId flush[kFlushCells];
  int32_t flush_used = 0;
  int64_t flushed = 0;
  int64_t stored = 0;  // rows kept, flushed or staged
  bool weighted = false;  // out.weights is filled (some row weighs > 1)
  auto row_at = [&](int64_t r) -> const RowId* {
    return r < flushed ? out.data.data() + r * out_width
                       : flush + (r - flushed) * out_width;
  };
  auto slot_of = [&](const RowId* row) -> int32_t* {
    uint64_t h = 0;
    for (int32_t c = 0; c < out_width; ++c) {
      h = (h ^ static_cast<uint64_t>(row[c])) * 0x9e3779b97f4a7c15ULL;
    }
    for (uint32_t s = static_cast<uint32_t>(h >> 32);; ++s) {
      int32_t& slot = merge_slots_[s & static_cast<uint32_t>(slot_mask)];
      if (slot < 0 || std::equal(row, row + out_width, row_at(slot))) {
        return &slot;
      }
    }
  };

  // Adds `weight` result rows whose kept tuple is the kept columns of the
  // left `tuple` and the right `rtuple` (unread when no right column is
  // kept); false once the weight sum passes INT64_MAX or what is stored
  // passes a cap. The candidate row is staged and kept only when it is new.
  auto emit = [&](const RowId* tuple, const RowId* rtuple,
                  int64_t weight) __attribute__((always_inline)) {
    if (__builtin_add_overflow(out.rows, weight, &out.rows)) return false;
    if (out_width == 0) return true;
    if (flush_used + out_width > kFlushCells) {
      out.data.insert(out.data.end(), flush, flush + flush_used);
      flushed = stored;
      flush_used = 0;
    }
    RowId* row = flush + flush_used;  // out_width ≤ 32 aliases
    const RowId* sides[2] = {tuple, rtuple};
    for (int32_t c = 0; c < out_width; ++c) row[c] = sides[side[c]][source[c]];
    if (merge) {
      int32_t* slot = by_row != nullptr ? &by_row[row[0]] : slot_of(row);
      if (*slot >= 0) {
        if (!weighted) {
          out.weights.assign(stored, 1);
          weighted = true;
          row_cap = stored_cap(true);
          if (stored > row_cap) return false;
        }
        // No row's weight exceeds the checked sum out.rows.
        out.weights[static_cast<size_t>(*slot)] += weight;
        return true;
      }
      *slot = static_cast<int32_t>(stored);
    }
    flush_used += out_width;
    ++stored;
    if (weighted) {
      out.weights.push_back(weight);
    } else if (weight != 1) {
      out.weights.assign(stored - 1, 1);
      out.weights.push_back(weight);
      weighted = true;
      row_cap = stored_cap(true);
    }
    if (stored > row_cap) return false;
    if (merge && by_row == nullptr && 2 * stored > slot_mask) {
      // Keep the slots at most half full: double and re-insert.
      merge_slots_.assign(2 * merge_slots_.size(), -1);
      slot_mask = static_cast<int32_t>(merge_slots_.size()) - 1;
      for (int64_t r = 0; r < stored; ++r) {
        *slot_of(row_at(r)) = static_cast<int32_t>(r);
      }
    }
    return true;
  };
  auto finish = [&](bool overflow) {
    out.data.insert(out.data.end(), flush, flush + flush_used);
    if (by_row != nullptr) {
      for (const RowId r : out.data) by_row[r] = -1;
    }
    if (overflow) {
      out.rows = -1;
      out.data = {};
      out.weights = {};
    }
    return std::move(out);
  };

  Value probe_keys[kernels::kBatchRows];
  for (int64_t batch = 0; batch < left_rows; batch += kernels::kBatchRows) {
    const int32_t n = static_cast<int32_t>(
        std::min<int64_t>(kernels::kBatchRows, left_rows - batch));
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
      const int64_t weight =
          left_weights != nullptr ? left_weights[batch + i] : 1;
      if (!keep_right) {
        // The matching right rows' weight sum: the group's size unless a
        // residual edge or a right weight has to be read per row.
        int64_t matches = group.count;
        if (!residual.empty() || right_weights != nullptr) {
          visited += group.count;
          if (visited > cost::kMaxVisitedPairs) return finish(true);
          matches = 0;
          for (int32_t g = 0; g < group.count; ++g) {
            if (!AllMatch(residual, tuple, right_tuple(group.rows + g))) {
              continue;
            }
            const int64_t w =
                right_weights != nullptr ? right_weights[group.rows[g]] : 1;
            if (__builtin_add_overflow(matches, w, &matches)) {
              return finish(true);
            }
          }
          if (matches == 0) continue;
        }
        int64_t rows = 0;
        if (__builtin_mul_overflow(weight, matches, &rows) ||
            !emit(tuple, nullptr, rows)) {
          return finish(true);
        }
        continue;
      }
      visited += group.count;
      if (visited > cost::kMaxVisitedPairs) return finish(true);
      for (int32_t g = 0; g < group.count; ++g) {
        const RowId* rtuple = right_tuple(group.rows + g);
        if (!AllMatch(residual, tuple, rtuple)) continue;
        int64_t rows = weight;
        if (right_weights != nullptr &&
            __builtin_mul_overflow(weight, right_weights[group.rows[g]],
                                   &rows)) {
          return finish(true);
        }
        if (!emit(tuple, rtuple, rows)) return finish(true);
      }
    }
  }
  return finish(false);
}

bool Oracle::HoldsIntermediate(const Query& q, AliasMask mask) {
  return Memo(q).mats.count(mask) != 0;
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

void Oracle::ReleaseIntermediates() {
  for (auto& [fp, memo] : memos_) {
    for (auto& [mask, mat] : memo.mats) mat_bytes_ -= mat.bytes();
    memo.mats.clear();
  }
}

void Oracle::ReleaseMaterializations() {
  ReleaseIntermediates();
  DropBuildTables();
  LQOLAB_DCHECK(mat_bytes_ == 0);
}

}  // namespace lqolab::exec
