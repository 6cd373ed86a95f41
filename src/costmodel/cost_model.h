#ifndef LQOLAB_COSTMODEL_COST_MODEL_H_
#define LQOLAB_COSTMODEL_COST_MODEL_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "optimizer/physical_plan.h"
#include "optimizer/planner.h"
#include "query/query.h"
#include "util/virtual_clock.h"

namespace lqolab::costmodel {

/// One harvested (plan, actual latency) observation: the training unit of
/// the learned cost model and the payload of the serve-path replay buffer.
/// Only the featurized plan is retained — the buffer must stay bounded and
/// scheduling-independent — plus the analytic estimate captured at harvest
/// time so the analytic incumbent can be scored over a feature-only holdout
/// slice without replaying the original plans.
struct CostSample {
  /// Admission ticket id (serve) or corpus line (offline): a deterministic,
  /// scheduling-independent ordering key. Replay-buffer retention and
  /// training order both follow it, so retraining from the same corpus is
  /// bit-identical at any worker count.
  uint64_t sequence = 0;
  std::string query_id;
  std::vector<float> features;
  /// Observed virtual execution time of the plan.
  util::VirtualNanos actual_ns = 0;
  /// Raw optimizer::Planner::EstimatePlanCost units (not ns) at harvest.
  double analytic_cost = 0.0;
};

/// Q-error of a prediction: max(pred/actual, actual/pred), the standard
/// scale-free cost-estimator accuracy metric ("How Good are Learned Cost
/// Models, Really?"). Non-positive or non-finite inputs yield +infinity —
/// a diverged model must look maximally wrong, not silently fine.
double QError(double predicted, double actual);

/// Median q-error of a model's predictions over `samples` via
/// PredictSampleNs. Empty input yields +infinity.
class PlanCostModel;
double MedianSampleQError(const PlanCostModel& model,
                          const std::vector<CostSample>& samples);

/// Interface of plan-level cost models: given a query and a full candidate
/// physical plan, predict its execution time in virtual nanoseconds. This
/// is deliberately narrower than optimizer::CostModel (which prices
/// operators *during* DP search): these backends rank finished candidate
/// plans at the serving layer. Implementations must be safe for
/// concurrent Predict* calls — serve workers share one instance.
class PlanCostModel {
 public:
  virtual ~PlanCostModel() = default;

  virtual std::string name() const = 0;

  /// Predicted execution time (virtual ns) of `plan` for `q`.
  virtual double PredictNs(const query::Query& q,
                           const optimizer::PhysicalPlan& plan) const = 0;

  /// Prediction from a harvested sample (features + recorded analytic
  /// estimate), without the original query/plan. This is what the promotion
  /// gate scores over the replay buffer's holdout slice.
  virtual double PredictSampleNs(const CostSample& sample) const = 0;

  /// Modeled NN forward passes per PredictNs call (0 for analytic models);
  /// drives the serving layer's inference-time accounting.
  virtual int64_t nn_evals_per_prediction() const { return 0; }
};

/// The existing analytic cost model, adapted to the plan-level interface:
/// optimizer::Planner::EstimatePlanCost scaled by a calibrated ns-per-cost-
/// unit factor. The planner's unit is abstract cost, so q-error against
/// observed nanoseconds is only meaningful after Calibrate() — the bake-off
/// and the online-refresh gate both calibrate on the training split, which
/// is exactly the linear post-hoc fit the learned-cost-model literature
/// grants classical models.
class AnalyticCostModel : public PlanCostModel {
 public:
  /// `planner` must outlive the model (it is the parent database's).
  explicit AnalyticCostModel(const optimizer::Planner* planner);

  std::string name() const override { return "analytic"; }
  double PredictNs(const query::Query& q,
                   const optimizer::PhysicalPlan& plan) const override;
  double PredictSampleNs(const CostSample& sample) const override;

  /// Fits ns_per_unit as the median actual_ns/analytic_cost ratio over
  /// `samples` (median, not OLS: robust to the heavy latency tail).
  /// Samples with non-positive cost are ignored; an empty/degenerate fit
  /// leaves the current scale.
  void Calibrate(const std::vector<CostSample>& samples);

  double ns_per_unit() const { return ns_per_unit_.load(); }
  /// Manual override (tests use it to fabricate a weak incumbent).
  void set_ns_per_unit(double v) { ns_per_unit_.store(v); }
  bool calibrated() const { return calibrated_.load(); }

 private:
  const optimizer::Planner* planner_;
  std::atomic<double> ns_per_unit_{1.0};
  std::atomic<bool> calibrated_{false};
};

}  // namespace lqolab::costmodel

#endif  // LQOLAB_COSTMODEL_COST_MODEL_H_
