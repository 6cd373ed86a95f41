#ifndef LQOLAB_ENGINE_EXEC_BATCH_H_
#define LQOLAB_ENGINE_EXEC_BATCH_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "engine/database.h"
#include "optimizer/physical_plan.h"
#include "query/query.h"
#include "util/thread_pool.h"

namespace lqolab::engine {

/// One forced-plan execution in a batch.
struct PlanExec {
  const query::Query* query = nullptr;
  const optimizer::PhysicalPlan* plan = nullptr;
  /// Statement timeout override; 0 uses the configured timeout.
  util::VirtualNanos timeout_ns = 0;
};

/// Executes batches of independent forced plans: the one way an LQO runs
/// its training episodes, in one of two modes.
///
/// In place (parallelism 0): serially on `db` itself, in batch order,
/// exactly as a loop of db->ExecutePlan calls — executions share the
/// database's cache, warm-up and noise state. No replica, no thread. The
/// executor's destructor releases the oracle's materialized intermediates
/// (Oracle::ReleaseMaterializations), which only re-executions would read.
///
/// Replay (parallelism >= 1): across isolated worker replicas of `db` (the
/// training-episode counterpart of benchkit::ParallelRunner). Every
/// execution replays from the canonical per-query state: caches dropped,
/// warm-up stage set to the number of prior executions of that query
/// through this executor (assigned serially in batch order), noise stream
/// derived from MixSeed(global_seed, QueryFingerprint(q), run_index).
/// Results are therefore a pure function of (storage, config, batch
/// history, seed) — independent of worker count and scheduling — while
/// still reproducing the serial warm-up trajectory of repeated executions.
class BatchExecutor {
 public:
  /// `db` must outlive the executor. In replay mode it is only cloned, never
  /// touched by Execute.
  BatchExecutor(Database* db, uint64_t global_seed, int32_t parallelism);
  ~BatchExecutor();

  BatchExecutor(const BatchExecutor&) = delete;
  BatchExecutor& operator=(const BatchExecutor&) = delete;

  int32_t parallelism() const { return pool_ ? pool_->size() : 0; }

  /// Executes every entry of `batch` and returns the runs in batch order.
  std::vector<QueryRun> Execute(const std::vector<PlanExec>& batch);
  /// Executes plans[i] for queries[i] under the configured timeout.
  std::vector<QueryRun> Execute(
      const std::vector<query::Query>& queries,
      const std::vector<optimizer::PhysicalPlan>& plans);

 private:
  Database* db_;
  uint64_t seed_;
  std::vector<std::unique_ptr<Database>> replicas_;
  /// Null in place.
  std::unique_ptr<util::ThreadPool> pool_;
  /// Executions seen per query fingerprint (drives warm-up replay).
  std::unordered_map<uint64_t, int64_t> exec_counts_;
};

}  // namespace lqolab::engine

#endif  // LQOLAB_ENGINE_EXEC_BATCH_H_
