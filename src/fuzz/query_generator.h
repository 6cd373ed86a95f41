#ifndef LQOLAB_FUZZ_QUERY_GENERATOR_H_
#define LQOLAB_FUZZ_QUERY_GENERATOR_H_

#include <cstdint>
#include <vector>

#include "exec/db_context.h"
#include "query/query.h"
#include "util/rng.h"

namespace lqolab::fuzz {

/// Join-graph shapes the generator draws from. Chains and stars mirror the
/// JOB templates; cliques (every pair of relations sharing a key column)
/// exercise the cyclic-subset paths of the oracle and estimator that the
/// curated workload never reaches.
enum class JoinShape { kChain, kStar, kClique };

struct GeneratorOptions {
  /// Queries draw 2..max_relations relations (cliques at most 6).
  int32_t max_relations = 12;
};

/// Seeded random query generator over the IMDB-like catalog. Join graphs
/// are derived from the schema's foreign keys — forward (fk -> pk),
/// backward (pk <- fk) and sibling (two fks referencing the same table)
/// joins — so every generated edge is a plausible equi-join over real key
/// columns. Filter literals are drawn from the database's own column
/// statistics (MCVs, histogram bounds, min/max), so predicates hit real
/// data distributions. The sequence of queries is a pure function of
/// (schema, stats, options, seed).
class QueryGenerator {
 public:
  QueryGenerator(const exec::DbContext* ctx, const GeneratorOptions& options,
                 uint64_t seed);

  /// Generates the next query; ids are "fz<n>" in generation order.
  query::Query Next();

  int64_t generated() const { return generated_; }

 private:
  /// One (table, column) pair holding a foreign key.
  struct FkSide {
    catalog::TableId table = catalog::kInvalidTable;
    catalog::ColumnId column = catalog::kInvalidColumn;
  };

  /// A joinable neighbor of a relation: adding `table` connected through
  /// `my_column` = `table`.`their_column`.
  struct Neighbor {
    catalog::TableId table = catalog::kInvalidTable;
    catalog::ColumnId my_column = catalog::kInvalidColumn;
    catalog::ColumnId their_column = catalog::kInvalidColumn;
  };

  std::vector<Neighbor> NeighborsOf(catalog::TableId table) const;
  void AddRelation(query::Query* q, catalog::TableId table) const;
  void BuildChain(query::Query* q, int32_t n);
  void BuildStar(query::Query* q, int32_t n);
  void BuildClique(query::Query* q, int32_t n);
  void AddPredicates(query::Query* q);
  void AddPredicate(query::Query* q, query::AliasId alias);
  storage::Value SampleValue(const stats::ColumnStats& cs);

  const exec::DbContext* ctx_;
  GeneratorOptions options_;
  util::Rng rng_;
  int64_t generated_ = 0;
  /// refs_to_[t]: every (table, column) with a foreign key into t.
  std::vector<std::vector<FkSide>> refs_to_;
  /// Tables usable as chain/star seeds (at least one join partner).
  std::vector<catalog::TableId> seed_tables_;
  /// Tables with enough referencing fks to anchor a clique.
  std::vector<catalog::TableId> clique_anchors_;
};

}  // namespace lqolab::fuzz

#endif  // LQOLAB_FUZZ_QUERY_GENERATOR_H_
