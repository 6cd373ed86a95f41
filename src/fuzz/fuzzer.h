#ifndef LQOLAB_FUZZ_FUZZER_H_
#define LQOLAB_FUZZ_FUZZER_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "engine/database.h"
#include "fuzz/differential.h"
#include "fuzz/query_generator.h"
#include "lqo/interface.h"
#include "query/query.h"

namespace lqolab::fuzz {

struct FuzzOptions {
  uint64_t seed = 42;
  /// Stop after this many generated queries.
  int64_t num_queries = 500;
  /// Also stop once this much wall-clock time has passed (0 = no limit).
  /// Checked between queries, so the overshoot is one query's worth.
  int64_t time_budget_ms = 0;
  GeneratorOptions generator;
  /// Where reproducers for failing queries, shrunk to a minimal form, are
  /// written ("" disables).
  std::string corpus_dir;
};

/// Aggregate outcome of a fuzzing run (the numbers behind BENCH_fuzz.json).
struct FuzzStats {
  int64_t queries = 0;
  CheckCounts checks;
  std::vector<Discrepancy> discrepancies;
  int64_t plans_executed = 0;
  int64_t timeouts = 0;
  int64_t elapsed_ms = 0;
  /// Reproducer files written this run (one per failing query).
  std::vector<std::string> reproducers;

  bool failed() const { return !discrepancies.empty(); }
};

/// Drives QueryGenerator through DifferentialOracle: generates queries,
/// checks each, and on failure shrinks the query to a minimal form that
/// still trips the same oracle and writes a replayable reproducer under
/// `corpus_dir`. Fully deterministic for a fixed (options, database,
/// registered arms) triple.
class Fuzzer {
 public:
  Fuzzer(engine::Database* db, const FuzzOptions& options);

  /// Registers an LQO arm for the oracle's execution cross-check.
  void AddLqoArm(lqo::LearnedOptimizer* arm);

  FuzzStats Run();

  /// Re-checks one reproducer file (fuzz/corpus.h). Returns the oracle's
  /// report; a file that fails to load is a failing report too, with one
  /// reproducer_load discrepancy carrying the loader's diagnostic.
  CheckReport Replay(const std::string& path);

  /// Greedily removes predicates, then relations (keeping the join graph
  /// connected), while `q` still fails the oracle. Run() applies this to
  /// every failing query before writing its reproducer.
  query::Query Shrink(const query::Query& q);

  /// Shrink against an arbitrary failure predicate (the oracle overload
  /// passes `Check(q).failed()`). `still_fails(q)` must be true on entry.
  static query::Query Shrink(
      const query::Query& q,
      const std::function<bool(const query::Query&)>& still_fails);

 private:
  engine::Database* db_;
  FuzzOptions options_;
  DifferentialOracle oracle_;
};

}  // namespace lqolab::fuzz

#endif  // LQOLAB_FUZZ_FUZZER_H_
