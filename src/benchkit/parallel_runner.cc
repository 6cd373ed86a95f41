#include "benchkit/parallel_runner.h"

#include <utility>
#include <vector>

#include "util/check.h"

namespace lqolab::benchkit {

using engine::Database;
using query::Query;
using util::VirtualNanos;

ParallelRunner::ParallelRunner(Database* db, const RunnerOptions& options)
    : parent_(db),
      seed_(options.seed),
      replicas_(*db, options.parallelism > 0
                         ? options.parallelism
                         : util::ThreadPool::DefaultParallelism()) {}

ParallelRunner::~ParallelRunner() = default;

void ParallelRunner::ForEachQuery(
    int64_t n, const std::function<void(Database*, int64_t)>& fn) {
  replicas_.ForEach(n, fn);
}

WorkloadMeasurement MeasureWorkload(Database* db, lqo::LearnedOptimizer* lqo,
                                    const std::vector<Query>& qs,
                                    const Protocol& protocol,
                                    const RunnerOptions& options) {
  ParallelRunner runner(db, options);
  return MeasureWorkload(&runner, lqo, qs, protocol);
}

WorkloadMeasurement MeasureWorkload(ParallelRunner* runner,
                                    lqo::LearnedOptimizer* lqo,
                                    const std::vector<Query>& qs,
                                    const Protocol& protocol) {
  LQOLAB_CHECK_GT(protocol.runs, 0);
  LQOLAB_CHECK_GE(protocol.take, 0);
  LQOLAB_CHECK_LT(protocol.take, protocol.runs);

  WorkloadMeasurement workload;
  workload.method = lqo != nullptr ? lqo->name() : "pglite";
  workload.queries.resize(qs.size());

  // Phase A (serial, parent instance): learned-optimizer inference. LQO
  // nets and their autodiff tape are mutable shared state, and inference
  // may re-plan through the parent's configuration — both are kept off the
  // workers so the prediction sequence matches a fully serial run.
  std::vector<lqo::Prediction> predictions;
  if (lqo != nullptr) {
    predictions.reserve(qs.size());
    for (const Query& q : qs) {
      predictions.push_back(lqo->Plan(q, runner->parent()));
    }
  }

  // Phase B (parallel): per-query replay on worker replicas. Each slot of
  // workload.queries is written by exactly one item, so no locking.
  const uint64_t seed = runner->seed();
  runner->ForEachQuery(
      static_cast<int64_t>(qs.size()),
      [&](Database* worker_db, int64_t i) {
        const Query& q = qs[static_cast<size_t>(i)];
        worker_db->BeginQueryReplay(seed, q);
        QueryMeasurement measurement;
        optimizer::PhysicalPlan plan;
        VirtualNanos planning_ns = 0;
        if (lqo != nullptr) {
          const lqo::Prediction& prediction =
              predictions[static_cast<size_t>(i)];
          measurement.inference_ns = prediction.inference_ns;
          plan = prediction.plan;
          planning_ns = lqo::ChargedPlanningNs(prediction, q);
        } else {
          // Native planning is const over (storage, stats, config), all of
          // which the replica shares with the parent: same plan, same
          // modeled planning time on every worker.
          const Database::Planned planned = worker_db->PlanQuery(q);
          plan = planned.plan;
          planning_ns = planned.planning_ns;
        }
        workload.queries[static_cast<size_t>(i)] = internal::MeasureRuns(
            worker_db, q, plan, planning_ns, protocol, std::move(measurement));
      });
  return workload;
}

}  // namespace lqolab::benchkit
