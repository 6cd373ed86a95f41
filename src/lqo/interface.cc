#include "lqo/interface.h"

#include "exec/cost_constants.h"
#include "lqo/balsa.h"
#include "lqo/bao.h"
#include "lqo/leon.h"
#include "lqo/hybridqo.h"
#include "lqo/lero.h"
#include "lqo/loger.h"
#include "lqo/neo.h"
#include "lqo/rtos.h"
#include "obs/metrics.h"

namespace lqolab::lqo {

util::VirtualNanos ChargedPlanningNs(const Prediction& prediction,
                                     const query::Query& q) {
  if (prediction.planning_ns > 0) return prediction.planning_ns;
  return static_cast<util::VirtualNanos>(q.relation_count()) *
         exec::cost::kPlanPerRelationNs;
}

void TrainReport::AddRuns(const std::vector<engine::QueryRun>& runs) {
  for (const engine::QueryRun& run : runs) {
    ++plans_executed;
    execution_ns += run.execution_ns;
  }
}

util::VirtualNanos TrainReport::TrainingTimeNs(
    util::VirtualNanos planner_call_ns,
    util::VirtualNanos plan_overhead_ns) const {
  return execution_ns + plans_executed * plan_overhead_ns +
         planner_calls * planner_call_ns + nn_updates * timing::kNnUpdateNs +
         nn_evals * timing::kNnEvalNs;
}

void TrainReport::RecordEpisode(const TrainReport& before, int32_t episode,
                                double loss_sum,
                                util::VirtualNanos planner_call_ns) {
  TrainReport delta;
  delta.plans_executed = plans_executed - before.plans_executed;
  delta.execution_ns = execution_ns - before.execution_ns;
  delta.nn_updates = nn_updates - before.nn_updates;
  delta.nn_evals = nn_evals - before.nn_evals;
  delta.planner_calls = planner_calls - before.planner_calls;
  const double loss =
      delta.nn_updates > 0
          ? loss_sum / static_cast<double>(delta.nn_updates)
          : 0.0;
  episodes.push_back({episode, loss, delta.plans_executed, delta.execution_ns,
                      delta.nn_updates, delta.nn_evals,
                      delta.TrainingTimeNs(planner_call_ns)});
  obs::Count(obs::Counter::kTrainEpisodes);
}

std::vector<EncodingSpec> Table1EncodingSpecs() {
  std::vector<EncodingSpec> rows;
  rows.push_back(NeoOptimizer().encoding_spec());
  rows.push_back(RtosOptimizer().encoding_spec());
  rows.push_back(BaoOptimizer().encoding_spec());
  rows.push_back(BalsaOptimizer().encoding_spec());
  rows.push_back(LeroOptimizer().encoding_spec());
  rows.push_back(LeonOptimizer().encoding_spec());
  rows.push_back(LogerOptimizer().encoding_spec());
  rows.push_back(HybridQoOptimizer().encoding_spec());
  return rows;
}

}  // namespace lqolab::lqo
