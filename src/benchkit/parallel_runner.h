#ifndef LQOLAB_BENCHKIT_PARALLEL_RUNNER_H_
#define LQOLAB_BENCHKIT_PARALLEL_RUNNER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "benchkit/measurement.h"
#include "engine/database.h"
#include "engine/exec_batch.h"
#include "lqo/interface.h"
#include "query/query.h"
#include "util/thread_pool.h"

namespace lqolab::benchkit {

/// Knobs of the parallel measurement path.
struct RunnerOptions {
  /// Worker count; 0 means util::ThreadPool::DefaultParallelism()
  /// (hardware_concurrency).
  int32_t parallelism = 0;
  /// Global replay seed. Every query's noise stream derives from
  /// MixSeed(seed, QueryFingerprint(q)), so results depend on this value
  /// and the query alone — never on worker count or scheduling.
  uint64_t seed = 42;
};

/// Fans queries of a workload across a fixed-size worker pool with
/// work-stealing scheduling (util::ThreadPool): each worker starts on a
/// static block of the query range and idle workers steal from the back of
/// still-loaded blocks, so a few expensive straggler queries cannot idle the
/// rest of the pool. Each worker owns an isolated replica of the execution
/// substrate — an O(1) copy-on-write DbContext view (shared immutable
/// engine::SharedContext, private buffer cache), oracle, planner, executor
/// and noise stream — so a query's measurement is a pure function of
/// (storage, config, query, seed). That makes results bit-identical to the
/// serial path regardless of thread count or scheduling; see
/// docs/parallelism.md for the full determinism contract.
class ParallelRunner {
 public:
  /// Builds `parallelism` worker replicas of `db` (which must outlive the
  /// runner and is not touched by ForEachQuery).
  ParallelRunner(engine::Database* db, const RunnerOptions& options);
  ~ParallelRunner();

  ParallelRunner(const ParallelRunner&) = delete;
  ParallelRunner& operator=(const ParallelRunner&) = delete;

  int32_t parallelism() const { return replicas_.size(); }
  uint64_t seed() const { return seed_; }
  engine::Database* parent() const { return parent_; }
  /// Queries executed by a worker other than the one whose static block
  /// they started in, over this runner's lifetime (util::ThreadPool's
  /// work-stealing counter). Observability only — results do not depend on
  /// which worker ran a query.
  int64_t steals() const { return replicas_.steals(); }

  /// Runs fn(worker_replica, item) exactly once for every item in [0, n)
  /// and blocks until all completed. At most one item runs on a given
  /// replica at a time. `fn` must only touch the replica it is handed (plus
  /// item-private state) and must put the replica into its canonical state
  /// itself (Database::BeginQueryReplay) — replicas carry cache state from
  /// whatever item they ran last.
  void ForEachQuery(int64_t n,
                    const std::function<void(engine::Database*, int64_t)>& fn);

 private:
  engine::Database* parent_;
  uint64_t seed_;
  engine::ReplicaPool replicas_;
};

/// Unified workload measurement with deterministic replay. Plans every
/// query (serially through `lqo` when given — learned optimizers mutate
/// model state during inference — or on the worker replicas for the native
/// path) and executes the protocol's runs on worker replicas, each query
/// starting from the canonical replay state (cold caches, derived noise
/// stream). Results are bit-identical for any `options.parallelism`,
/// including 1; they intentionally differ from the order-dependent
/// shared-cache numbers of MeasureWorkloadNative/Lqo.
WorkloadMeasurement MeasureWorkload(engine::Database* db,
                                    lqo::LearnedOptimizer* lqo,
                                    const std::vector<query::Query>& qs,
                                    const Protocol& protocol,
                                    const RunnerOptions& options = {});

/// Same, reusing an existing runner (and its worker replicas) across
/// multiple workloads; `lqo` may be nullptr for the native optimizer.
WorkloadMeasurement MeasureWorkload(ParallelRunner* runner,
                                    lqo::LearnedOptimizer* lqo,
                                    const std::vector<query::Query>& qs,
                                    const Protocol& protocol);

}  // namespace lqolab::benchkit

#endif  // LQOLAB_BENCHKIT_PARALLEL_RUNNER_H_
