#ifndef LQOLAB_LQO_INTERFACE_H_
#define LQOLAB_LQO_INTERFACE_H_

#include <memory>
#include <string>
#include <vector>

#include "engine/database.h"
#include "optimizer/physical_plan.h"
#include "query/query.h"
#include "util/virtual_clock.h"

namespace lqolab::lqo {

/// Modeled per-event latencies used for the paper's inference- and
/// training-time accounting (Figs. 5-6). These stand in for the Python /
/// IPC / GPU overheads of the original implementations; see DESIGN.md §1.
namespace timing {
/// One forward pass of a plan value network.
inline constexpr util::VirtualNanos kNnEvalNs = 1'500'000;  // 1.5 ms
/// One NN parameter update (backward + step).
inline constexpr util::VirtualNanos kNnUpdateNs = 3'000'000;  // 3 ms
/// Per executed training plan: encoding, IPC, bookkeeping.
inline constexpr util::VirtualNanos kTrainPlanOverheadNs =
    150'000'000;  // 150 ms
/// One LEON subplan candidate: a DBMS cost-estimate round trip plus
/// ensemble scoring (the paper measures ~6.5 h for query 29's tens of
/// thousands of subplans).
inline constexpr util::VirtualNanos kLeonSubplanCallNs =
    100'000'000;  // 100 ms
}  // namespace timing

/// One training episode's telemetry (an epoch for Bao, Lero and HybridQO,
/// an iteration for Neo, Balsa, LOGER and RTOS, one query's pairwise step
/// for LEON). Deltas, not running totals: summing a field over episodes
/// gives the TrainReport total. Exported as JSONL "episode" records by
/// benchkit::WriteWorkloadTrace.
struct EpisodeStats {
  int32_t episode = 0;
  /// Mean training loss of the episode's model updates (0 when the episode
  /// performed none).
  double loss = 0.0;
  int64_t plans_executed = 0;
  util::VirtualNanos execution_ns = 0;
  int64_t nn_updates = 0;
  int64_t nn_evals = 0;
  /// Episode's share of modeled training time.
  util::VirtualNanos training_time_ns = 0;
};

/// End-to-end training accounting (paper §8.2.2: data collection + model
/// updates + ongoing evaluation + pre/postprocessing).
struct TrainReport {
  /// Modeled end-to-end training time.
  util::VirtualNanos training_time_ns = 0;
  int64_t plans_executed = 0;
  int64_t nn_updates = 0;
  int64_t nn_evals = 0;
  /// DBMS cost/plan calls made during training.
  int64_t planner_calls = 0;
  /// Sum of virtual execution time spent collecting training data.
  util::VirtualNanos execution_ns = 0;
  /// Per-episode telemetry in training order (see EpisodeStats).
  std::vector<EpisodeStats> episodes;

  /// Counts executed training plans and their execution time.
  void AddRuns(const std::vector<engine::QueryRun>& runs);

  /// Modeled training time of this report's counters: execution time,
  /// `plan_overhead_ns` per executed plan, NN updates and evaluations, plus
  /// `planner_call_ns` per planner call (LEON's subplan cost calls; free
  /// for the others).
  util::VirtualNanos TrainingTimeNs(
      util::VirtualNanos planner_call_ns = 0,
      util::VirtualNanos plan_overhead_ns = timing::kTrainPlanOverheadNs) const;

  /// Books one training episode: appends the counter deltas since `before`
  /// (a copy of this report taken when the episode began) with their
  /// TrainingTimeNs(planner_call_ns), and counts obs kTrainEpisodes.
  /// `loss_sum` is the summed loss of the episode's NN updates; the
  /// episode's loss is its mean over them.
  void RecordEpisode(const TrainReport& before, int32_t episode,
                     double loss_sum, util::VirtualNanos planner_call_ns = 0);
};

/// A plan prediction with its modeled inference time (encoding + candidate
/// enumeration + NN evaluations; paper §8.2.1's "Inference Time").
struct Prediction {
  optimizer::PhysicalPlan plan;
  util::VirtualNanos inference_ns = 0;
  int64_t nn_evals = 0;
  /// Planning time already spent inside the engine for hint-based methods
  /// (reported separately, like Bao's in-extension planning).
  util::VirtualNanos planning_ns = 0;
};

/// Modeled planning time charged for executing `prediction.plan` for `q`:
/// Prediction::planning_ns when the method reported one (hint-based
/// methods such as Bao), else the engine's per-relation baseline — forced
/// plans skip join-order search.
util::VirtualNanos ChargedPlanningNs(const Prediction& prediction,
                                     const query::Query& q);

/// Row of Table 1 (encoding components of an LQO).
struct EncodingSpec {
  std::string name;
  std::string adjacency_matrix;
  std::string numerical_attributes;
  std::string text_attributes;
  std::string encoding_aggregation;
  std::string join_type;
  std::string scan_type;
  std::string table_identifier;
  std::string extra_data;
  std::string ml_model;
  std::string plan_processing;
  std::string model_output;
  std::string testing;
  std::string dbms_integration;
};

/// All rows of Table 1 (the four reimplemented methods plus the literature
/// rows for RTOS, Lero, LOGER and HybridQO).
std::vector<EncodingSpec> Table1EncodingSpecs();

/// Common interface of learned query optimizers: train on a set of queries
/// against a database, then predict plans for (unseen) queries. The
/// returned plans are executed through Database::ExecutePlan — the
/// pg_hint_plan-style forced-plan path.
class LearnedOptimizer {
 public:
  virtual ~LearnedOptimizer() = default;

  virtual std::string name() const = 0;

  /// Trains from scratch on `train_set`.
  virtual TrainReport Train(const std::vector<query::Query>& train_set,
                            engine::Database* db) = 0;

  /// Predicts a plan for one query.
  virtual Prediction Plan(const query::Query& q, engine::Database* db) = 0;

  /// The method's Table 1 row.
  virtual EncodingSpec encoding_spec() const = 0;

  /// Training-execution workers for later Train() calls. 0 (the default)
  /// executes each episode's plans in place on the training database,
  /// sharing its cache state; >= 1 executes them on that many isolated
  /// worker replicas with deterministic replay, so the trained model does
  /// not depend on the worker count (engine::BatchExecutor).
  void set_training_parallelism(int32_t workers) {
    training_parallelism_ = workers;
  }
  int32_t training_parallelism() const { return training_parallelism_; }

 private:
  int32_t training_parallelism_ = 0;
};

}  // namespace lqolab::lqo

#endif  // LQOLAB_LQO_INTERFACE_H_
