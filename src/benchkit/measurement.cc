#include "benchkit/measurement.h"

#include <algorithm>

#include "util/check.h"
#include "util/statistics.h"

namespace lqolab::benchkit {

using engine::Database;
using engine::QueryRun;
using query::Query;
using util::VirtualNanos;

namespace internal {

QueryMeasurement MeasureRuns(Database* db, const Query& q,
                             const optimizer::PhysicalPlan& plan,
                             VirtualNanos planning_ns, const Protocol& protocol,
                             QueryMeasurement measurement) {
  LQOLAB_CHECK_GT(protocol.runs, 0);
  LQOLAB_CHECK_GE(protocol.take, 0);
  LQOLAB_CHECK_LT(protocol.take, protocol.runs);
  measurement.query_id = q.id;
  measurement.joins = q.join_count();
  measurement.planning_ns = planning_ns;
  for (int32_t r = 0; r < protocol.runs; ++r) {
    QueryRun run = db->ExecutePlan(q, plan, planning_ns);
    measurement.run_execution_ns.push_back(run.execution_ns);
    if (r == protocol.take) {
      measurement.execution_ns = run.execution_ns;
      measurement.timed_out = run.timed_out;
      measurement.result_rows = run.result_rows;
      for (const exec::PlanNodeStats& stats : run.node_stats) {
        measurement.node_rows.push_back(stats.actual_rows);
      }
    }
  }
  return measurement;
}

}  // namespace internal

using internal::MeasureRuns;

QueryMeasurement MeasureNative(Database* db, const Query& q,
                               const Protocol& protocol) {
  const Database::Planned planned = db->PlanQuery(q);
  QueryMeasurement measurement;
  return MeasureRuns(db, q, planned.plan, planned.planning_ns, protocol,
                     std::move(measurement));
}

QueryMeasurement MeasureLqo(Database* db, lqo::LearnedOptimizer* lqo,
                            const Query& q, const Protocol& protocol) {
  const lqo::Prediction prediction = lqo->Plan(q, db);
  QueryMeasurement measurement;
  measurement.inference_ns = prediction.inference_ns;
  return MeasureRuns(db, q, prediction.plan,
                     lqo::ChargedPlanningNs(prediction, q), protocol,
                     std::move(measurement));
}

WorkloadMeasurement MeasureWorkloadNative(Database* db,
                                          const std::vector<Query>& qs,
                                          const Protocol& protocol) {
  WorkloadMeasurement workload;
  workload.method = "pglite";
  for (const Query& q : qs) {
    workload.queries.push_back(MeasureNative(db, q, protocol));
  }
  return workload;
}

WorkloadMeasurement MeasureWorkloadLqo(Database* db,
                                       lqo::LearnedOptimizer* lqo,
                                       const std::vector<Query>& qs,
                                       const Protocol& protocol) {
  WorkloadMeasurement workload;
  workload.method = lqo->name();
  for (const Query& q : qs) {
    workload.queries.push_back(MeasureLqo(db, lqo, q, protocol));
  }
  return workload;
}

VirtualNanos WorkloadMeasurement::total_inference_ns() const {
  VirtualNanos total = 0;
  for (const auto& q : queries) total += q.inference_ns;
  return total;
}

VirtualNanos WorkloadMeasurement::total_planning_ns() const {
  VirtualNanos total = 0;
  for (const auto& q : queries) total += q.planning_ns;
  return total;
}

VirtualNanos WorkloadMeasurement::total_execution_ns() const {
  VirtualNanos total = 0;
  for (const auto& q : queries) total += q.execution_ns;
  return total;
}

VirtualNanos WorkloadMeasurement::total_end_to_end_ns() const {
  return total_inference_ns() + total_planning_ns() + total_execution_ns();
}

int32_t WorkloadMeasurement::timeout_count() const {
  int32_t count = 0;
  for (const auto& q : queries) count += q.timed_out ? 1 : 0;
  return count;
}

void WriteWorkloadTrace(const WorkloadMeasurement& workload,
                        obs::TraceWriter* trace) {
  {
    obs::JsonObject record;
    record.Set("type", "workload");
    record.Set("method", workload.method);
    record.Set("split", workload.split);
    record.Set("queries", static_cast<int64_t>(workload.queries.size()));
    record.Set("total_inference_ns", workload.total_inference_ns());
    record.Set("total_planning_ns", workload.total_planning_ns());
    record.Set("total_execution_ns", workload.total_execution_ns());
    record.Set("total_end_to_end_ns", workload.total_end_to_end_ns());
    record.Set("timeouts", static_cast<int64_t>(workload.timeout_count()));
    trace->Write(record);
  }
  for (const QueryMeasurement& q : workload.queries) {
    obs::JsonObject record;
    record.Set("type", "query");
    record.Set("method", workload.method);
    record.Set("query", q.query_id);
    record.Set("joins", q.joins);
    record.Set("inference_ns", q.inference_ns);
    record.Set("planning_ns", q.planning_ns);
    record.Set("execution_ns", q.execution_ns);
    record.Set("end_to_end_ns", q.end_to_end_ns());
    record.Set("timed_out", q.timed_out);
    record.Set("result_rows", q.result_rows);
    std::string runs = "[";
    for (size_t r = 0; r < q.run_execution_ns.size(); ++r) {
      if (r > 0) runs += ",";
      runs += std::to_string(q.run_execution_ns[r]);
    }
    runs += "]";
    record.SetRaw("run_execution_ns", runs);
    trace->Write(record);
  }
  const lqo::TrainReport& train = workload.train_report;
  for (const lqo::EpisodeStats& e : train.episodes) {
    obs::JsonObject record;
    record.Set("type", "episode");
    record.Set("method", workload.method);
    record.Set("episode", e.episode);
    record.Set("loss", e.loss);
    record.Set("plans_executed", e.plans_executed);
    record.Set("execution_ns", e.execution_ns);
    record.Set("nn_updates", e.nn_updates);
    record.Set("nn_evals", e.nn_evals);
    record.Set("training_time_ns", e.training_time_ns);
    trace->Write(record);
  }
  if (train.training_time_ns > 0 || train.plans_executed > 0 ||
      train.nn_updates > 0) {
    obs::JsonObject record;
    record.Set("type", "train");
    record.Set("method", workload.method);
    record.Set("training_time_ns", train.training_time_ns);
    record.Set("plans_executed", train.plans_executed);
    record.Set("nn_updates", train.nn_updates);
    record.Set("nn_evals", train.nn_evals);
    record.Set("planner_calls", train.planner_calls);
    record.Set("execution_ns", train.execution_ns);
    record.Set("episodes", static_cast<int64_t>(train.episodes.size()));
    trace->Write(record);
  }
}

double WorkloadMeasurement::execution_ci95_ns() const {
  if (queries.empty()) return 0.0;
  // Totals per run index, over post-warm-up runs (>= take index).
  const size_t runs = queries.front().run_execution_ns.size();
  std::vector<double> totals;
  for (size_t r = 2; r < runs; ++r) {
    double total = 0.0;
    for (const auto& q : queries) {
      if (r < q.run_execution_ns.size()) {
        total += static_cast<double>(q.run_execution_ns[r]);
      }
    }
    totals.push_back(total);
  }
  if (totals.size() < 2) {
    // Fall back to per-query variance across the last two runs.
    std::vector<double> diffs;
    for (const auto& q : queries) {
      if (q.run_execution_ns.size() >= 2) {
        diffs.push_back(static_cast<double>(
            q.run_execution_ns.back() -
            q.run_execution_ns[q.run_execution_ns.size() - 2]));
      }
    }
    return util::StdDev(diffs) * 1.96;
  }
  return util::ConfidenceInterval95(totals);
}

}  // namespace lqolab::benchkit
