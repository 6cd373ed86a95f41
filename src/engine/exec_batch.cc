#include "engine/exec_batch.h"

#include "exec/oracle.h"
#include "obs/metrics.h"
#include "util/check.h"

namespace lqolab::engine {

BatchExecutor::BatchExecutor(Database* db, uint64_t global_seed,
                             int32_t parallelism)
    : db_(db), seed_(global_seed) {
  LQOLAB_CHECK(db != nullptr);
  LQOLAB_CHECK_GE(parallelism, 0);
  if (parallelism == 0) return;
  pool_ = std::make_unique<util::ThreadPool>(parallelism);
  for (int32_t w = 0; w < pool_->size(); ++w) {
    replicas_.push_back(db->CloneContextForWorker());
  }
}

BatchExecutor::~BatchExecutor() = default;

std::vector<QueryRun> BatchExecutor::Execute(
    const std::vector<PlanExec>& batch) {
  std::vector<QueryRun> runs(batch.size());
  for (const PlanExec& task : batch) {
    LQOLAB_CHECK(task.query != nullptr);
    LQOLAB_CHECK(task.plan != nullptr);
  }
  if (pool_ == nullptr) {
    for (size_t i = 0; i < batch.size(); ++i) {
      runs[i] = db_->ExecutePlan(*batch[i].query, *batch[i].plan, 0,
                                 batch[i].timeout_ns);
    }
    return runs;
  }
  // Assign warm-up stages serially in batch order, so the replayed history
  // matches a serial execution of the same batches.
  std::vector<int64_t> run_index(batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    run_index[i] = exec_counts_[exec::QueryFingerprint(*batch[i].query)]++;
  }
  // Same per-worker-registry merge as ParallelRunner::ForEachQuery: worker
  // threads collect into private registries, summed into the caller's
  // afterwards so totals match a serial execution of the batch.
  obs::MetricsRegistry* parent_metrics = obs::MetricsRegistry::Current();
  std::vector<obs::MetricsRegistry> worker_metrics(
      parent_metrics != nullptr ? static_cast<size_t>(pool_->size()) : 0);
  pool_->ParallelFor(
      static_cast<int64_t>(batch.size()), [&](int32_t worker, int64_t i) {
        obs::MetricsScope scope(
            worker_metrics.empty()
                ? nullptr
                : &worker_metrics[static_cast<size_t>(worker)]);
        Database* db = replicas_[static_cast<size_t>(worker)].get();
        const PlanExec& task = batch[static_cast<size_t>(i)];
        const int64_t stage = run_index[static_cast<size_t>(i)];
        db->BeginQueryReplay(seed_, *task.query,
                             static_cast<uint64_t>(stage));
        db->SetWarmupStage(*task.query, stage);
        runs[static_cast<size_t>(i)] =
            db->ExecutePlan(*task.query, *task.plan, 0, task.timeout_ns);
      });
  for (const obs::MetricsRegistry& m : worker_metrics) {
    parent_metrics->MergeFrom(m);
  }
  return runs;
}

std::vector<QueryRun> BatchExecutor::Execute(
    const std::vector<query::Query>& queries,
    const std::vector<optimizer::PhysicalPlan>& plans) {
  LQOLAB_CHECK_EQ(queries.size(), plans.size());
  std::vector<PlanExec> batch;
  batch.reserve(plans.size());
  for (size_t i = 0; i < plans.size(); ++i) {
    batch.push_back({&queries[i], &plans[i], 0});
  }
  return Execute(batch);
}

}  // namespace lqolab::engine
