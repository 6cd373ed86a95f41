#include "engine/exec_batch.h"

#include "exec/oracle.h"
#include "obs/metrics.h"
#include "util/check.h"

namespace lqolab::engine {

ReplicaPool::ReplicaPool(const Database& db, int32_t workers)
    : pool_(workers) {
  replicas_.reserve(static_cast<size_t>(pool_.size()));
  for (int32_t w = 0; w < pool_.size(); ++w) {
    replicas_.push_back(db.CloneContextForWorker());
  }
}

void ReplicaPool::ForEach(int64_t n,
                          const std::function<void(Database*, int64_t)>& fn) {
  obs::MetricsRegistry* parent_metrics = obs::MetricsRegistry::Current();
  std::vector<obs::MetricsRegistry> worker_metrics(
      parent_metrics != nullptr ? static_cast<size_t>(pool_.size()) : 0);
  pool_.ParallelFor(n, [&](int32_t worker, int64_t item) {
    obs::MetricsScope scope(
        worker_metrics.empty()
            ? nullptr
            : &worker_metrics[static_cast<size_t>(worker)]);
    fn(replicas_[static_cast<size_t>(worker)].get(), item);
  });
  for (const obs::MetricsRegistry& m : worker_metrics) {
    parent_metrics->MergeFrom(m);
  }
}

BatchExecutor::BatchExecutor(Database* db, uint64_t global_seed,
                             int32_t parallelism)
    : db_(db), seed_(global_seed) {
  LQOLAB_CHECK(db != nullptr);
  LQOLAB_CHECK_GE(parallelism, 0);
  if (parallelism > 0) {
    replicas_ = std::make_unique<ReplicaPool>(*db, parallelism);
  }
}

BatchExecutor::~BatchExecutor() {
  // In place, the episodes' materialized intermediates stay in db's oracle
  // memo, and a trainer's episodes are over once its executor goes. Drop
  // them (cardinalities and filtered bases stay cached) so they do not
  // outlive training.
  if (replicas_ == nullptr) db_->oracle().ReleaseMaterializations();
}

std::vector<QueryRun> BatchExecutor::Execute(
    const std::vector<PlanExec>& batch) {
  std::vector<QueryRun> runs(batch.size());
  for (const PlanExec& task : batch) {
    LQOLAB_CHECK(task.query != nullptr);
    LQOLAB_CHECK(task.plan != nullptr);
  }
  if (replicas_ == nullptr) {
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
  replicas_->ForEach(
      static_cast<int64_t>(batch.size()), [&](Database* db, int64_t i) {
        const PlanExec& task = batch[static_cast<size_t>(i)];
        const int64_t stage = run_index[static_cast<size_t>(i)];
        db->BeginQueryReplay(seed_, *task.query,
                             static_cast<uint64_t>(stage));
        db->SetWarmupStage(*task.query, stage);
        runs[static_cast<size_t>(i)] =
            db->ExecutePlan(*task.query, *task.plan, 0, task.timeout_ns);
      });
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
