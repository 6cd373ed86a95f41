#include "fuzz/query_generator.h"

#include <algorithm>
#include <string>

#include "catalog/imdb_schema.h"
#include "util/check.h"

namespace lqolab::fuzz {

using catalog::ColumnId;
using catalog::TableId;
using query::AliasId;
using query::JoinEdge;
using query::Predicate;
using query::Query;
using stats::ColumnStats;
using storage::Value;

namespace {

constexpr int32_t kMinRelations = 2;
/// Cliques get quadratically many edges; cap their size separately so a
/// 12-relation draw doesn't produce a 66-edge join graph.
constexpr int32_t kMaxCliqueRelations = 6;
/// Probability that a relation receives at least one filter predicate.
constexpr double kPredicateRate = 0.6;
constexpr int32_t kMaxPredicatesPerRelation = 2;
/// Rate of deliberately adversarial literals: out-of-domain constants and
/// empty (inverted) ranges, which must flow through the estimator and
/// executor without tripping anything.
constexpr double kAdversarialRate = 0.05;

}  // namespace

QueryGenerator::QueryGenerator(const exec::DbContext* ctx,
                               const GeneratorOptions& options, uint64_t seed)
    : ctx_(ctx), options_(options), rng_(seed) {
  LQOLAB_CHECK(ctx != nullptr);
  LQOLAB_CHECK_LE(kMinRelations, options.max_relations);
  LQOLAB_CHECK_LE(options.max_relations, 12);

  const catalog::Schema& schema = *ctx_->schema;
  refs_to_.resize(static_cast<size_t>(schema.table_count()));
  for (TableId t = 0; t < schema.table_count(); ++t) {
    for (const catalog::ForeignKey& fk : schema.table(t).foreign_keys) {
      refs_to_[static_cast<size_t>(fk.referenced_table)].push_back(
          {t, fk.column});
    }
  }
  for (TableId t = 0; t < schema.table_count(); ++t) {
    if (!NeighborsOf(t).empty()) seed_tables_.push_back(t);
    if (refs_to_[static_cast<size_t>(t)].size() >= 2) {
      clique_anchors_.push_back(t);
    }
  }
  LQOLAB_CHECK(!seed_tables_.empty());
  LQOLAB_CHECK(!clique_anchors_.empty());
}

std::vector<QueryGenerator::Neighbor> QueryGenerator::NeighborsOf(
    TableId table) const {
  const catalog::Schema& schema = *ctx_->schema;
  std::vector<Neighbor> neighbors;
  // Forward: my fk column = partner's primary key.
  for (const catalog::ForeignKey& fk : schema.table(table).foreign_keys) {
    neighbors.push_back({fk.referenced_table, fk.column, 0});
  }
  // Backward: my primary key = partner's fk column.
  for (const FkSide& ref : refs_to_[static_cast<size_t>(table)]) {
    neighbors.push_back({ref.table, 0, ref.column});
  }
  // Sibling: my fk column = partner's fk column into the same table
  // (mk.movie_id = mc.movie_id without going through title).
  for (const catalog::ForeignKey& fk : schema.table(table).foreign_keys) {
    for (const FkSide& ref :
         refs_to_[static_cast<size_t>(fk.referenced_table)]) {
      if (ref.table == table && ref.column == fk.column) continue;
      neighbors.push_back({ref.table, fk.column, ref.column});
    }
  }
  return neighbors;
}

void QueryGenerator::AddRelation(Query* q, TableId table) const {
  std::string alias = catalog::ImdbShortAlias(table);
  int suffix = 1;
  auto taken = [&](const std::string& a) {
    for (const auto& rel : q->relations) {
      if (rel.alias == a) return true;
    }
    return false;
  };
  while (taken(alias)) {
    ++suffix;
    alias = std::string(catalog::ImdbShortAlias(table)) +
            std::to_string(suffix);
  }
  q->relations.push_back({table, alias});
}

void QueryGenerator::BuildChain(Query* q, int32_t n) {
  const TableId start = seed_tables_[static_cast<size_t>(
      rng_.UniformInt(0, static_cast<int64_t>(seed_tables_.size()) - 1))];
  AddRelation(q, start);
  while (q->relation_count() < n) {
    const AliasId last = q->relation_count() - 1;
    const std::vector<Neighbor> neighbors =
        NeighborsOf(q->relations[static_cast<size_t>(last)].table);
    if (neighbors.empty()) break;
    const Neighbor& pick = neighbors[static_cast<size_t>(
        rng_.UniformInt(0, static_cast<int64_t>(neighbors.size()) - 1))];
    AddRelation(q, pick.table);
    q->edges.push_back(
        {last, pick.my_column, q->relation_count() - 1, pick.their_column});
  }
}

void QueryGenerator::BuildStar(Query* q, int32_t n) {
  const TableId hub = seed_tables_[static_cast<size_t>(
      rng_.UniformInt(0, static_cast<int64_t>(seed_tables_.size()) - 1))];
  AddRelation(q, hub);
  const std::vector<Neighbor> neighbors = NeighborsOf(hub);
  while (q->relation_count() < n) {
    const Neighbor& pick = neighbors[static_cast<size_t>(
        rng_.UniformInt(0, static_cast<int64_t>(neighbors.size()) - 1))];
    AddRelation(q, pick.table);
    q->edges.push_back(
        {0, pick.my_column, q->relation_count() - 1, pick.their_column});
  }
}

void QueryGenerator::BuildClique(Query* q, int32_t n) {
  // Members all reference the anchor table's primary key with their fk
  // columns, so each pair shares a key domain: every pair gets an edge.
  // Half the time the anchor itself joins as the first relation.
  const TableId anchor = clique_anchors_[static_cast<size_t>(rng_.UniformInt(
      0, static_cast<int64_t>(clique_anchors_.size()) - 1))];
  const std::vector<FkSide>& refs = refs_to_[static_cast<size_t>(anchor)];
  std::vector<ColumnId> key_columns;  // parallel to q->relations
  if (rng_.Bernoulli(0.5)) {
    AddRelation(q, anchor);
    key_columns.push_back(0);
  }
  while (q->relation_count() < n) {
    const FkSide& pick = refs[static_cast<size_t>(
        rng_.UniformInt(0, static_cast<int64_t>(refs.size()) - 1))];
    AddRelation(q, pick.table);
    key_columns.push_back(pick.column);
  }
  for (AliasId a = 0; a < q->relation_count(); ++a) {
    for (AliasId b = a + 1; b < q->relation_count(); ++b) {
      q->edges.push_back({a, key_columns[static_cast<size_t>(a)], b,
                          key_columns[static_cast<size_t>(b)]});
    }
  }
}

Value QueryGenerator::SampleValue(const ColumnStats& cs) {
  if (rng_.Bernoulli(kAdversarialRate)) {
    // Out-of-domain constant: must estimate to ~0 and match nothing.
    return rng_.Bernoulli(0.5) ? cs.max_value + 1000 : cs.min_value - 1000;
  }
  if (!cs.mcv_values.empty() && rng_.Bernoulli(0.5)) {
    return cs.mcv_values[static_cast<size_t>(rng_.UniformInt(
        0, static_cast<int64_t>(cs.mcv_values.size()) - 1))];
  }
  if (!cs.histogram_bounds.empty() && rng_.Bernoulli(0.5)) {
    return cs.histogram_bounds[static_cast<size_t>(rng_.UniformInt(
        0, static_cast<int64_t>(cs.histogram_bounds.size()) - 1))];
  }
  return static_cast<Value>(rng_.UniformInt(cs.min_value, cs.max_value));
}

void QueryGenerator::AddPredicate(Query* q, AliasId alias) {
  const TableId table_id = q->relations[static_cast<size_t>(alias)].table;
  const catalog::TableDef& def = ctx_->schema->table(table_id);
  const ColumnId column = static_cast<ColumnId>(
      rng_.UniformInt(0, static_cast<int64_t>(def.columns.size()) - 1));
  const ColumnStats& cs = ctx_->column_stats(table_id, column);
  if (cs.row_count == 0) return;
  const bool is_int = def.columns[static_cast<size_t>(column)].type ==
                      catalog::ColumnType::kInt;
  const bool all_null = cs.row_count == cs.null_count;

  Predicate pred;
  pred.alias = alias;
  pred.column = column;

  const double roll = rng_.Uniform();
  if (all_null || roll < 0.12) {
    pred.kind = cs.null_count > 0 && rng_.Bernoulli(0.5)
                    ? Predicate::Kind::kIsNull
                    : Predicate::Kind::kNotNull;
    q->predicates.push_back(pred);
    return;
  }
  if (is_int && roll < 0.45) {
    pred.kind = Predicate::Kind::kRange;
    Value lo = SampleValue(cs);
    Value hi = SampleValue(cs);
    if (lo > hi && !rng_.Bernoulli(kAdversarialRate)) {
      std::swap(lo, hi);  // keep the occasional empty range as-is
    }
    pred.int_values = {lo, hi};
    q->predicates.push_back(pred);
    return;
  }
  const bool in_list = roll > 0.8;
  pred.kind = in_list ? Predicate::Kind::kIn : Predicate::Kind::kEq;
  const int64_t count = in_list ? rng_.UniformInt(2, 5) : 1;
  for (int64_t i = 0; i < count; ++i) {
    const Value v = SampleValue(cs);
    if (is_int) {
      pred.int_values.push_back(v);
    } else if (v >= 0 &&
               v < ctx_->table(table_id)
                       .column(column)
                       .dictionary_size()) {
      // String literals go through the dictionary so replays rebind them;
      // sampled codes outside it (adversarial draws) are dropped.
      pred.str_values.push_back(
          ctx_->table(table_id).column(column).StringAt(v));
    }
  }
  if (pred.int_values.empty() && pred.str_values.empty()) return;
  q->predicates.push_back(pred);
}

void QueryGenerator::AddPredicates(Query* q) {
  for (AliasId a = 0; a < q->relation_count(); ++a) {
    if (!rng_.Bernoulli(kPredicateRate)) continue;
    const int64_t count = rng_.UniformInt(1, kMaxPredicatesPerRelation);
    for (int64_t i = 0; i < count; ++i) AddPredicate(q, a);
  }
}

Query QueryGenerator::Next() {
  Query q;
  q.id = "fz" + std::to_string(generated_);
  q.template_id = static_cast<int32_t>(generated_);
  ++generated_;

  const double roll = rng_.Uniform();
  const JoinShape shape = roll < 0.4   ? JoinShape::kChain
                          : roll < 0.8 ? JoinShape::kStar
                                       : JoinShape::kClique;
  int32_t n = static_cast<int32_t>(
      rng_.UniformInt(kMinRelations, options_.max_relations));
  switch (shape) {
    case JoinShape::kChain:
      BuildChain(&q, n);
      break;
    case JoinShape::kStar:
      BuildStar(&q, n);
      break;
    case JoinShape::kClique:
      n = std::min(n, kMaxCliqueRelations);
      BuildClique(&q, std::max(n, 2));
      break;
  }
  AddPredicates(&q);
  LQOLAB_CHECK_GE(q.relation_count(), 1);
  LQOLAB_CHECK(q.relation_count() < 2 || q.IsConnected(q.FullMask()));
  return q;
}

}  // namespace lqolab::fuzz
