#include "costmodel/cost_model.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/check.h"

namespace lqolab::costmodel {

double QError(double predicted, double actual) {
  if (!std::isfinite(predicted) || !std::isfinite(actual) ||
      predicted <= 0.0 || actual <= 0.0) {
    return std::numeric_limits<double>::infinity();
  }
  return std::max(predicted / actual, actual / predicted);
}

double MedianSampleQError(const PlanCostModel& model,
                          const std::vector<CostSample>& samples) {
  if (samples.empty()) return std::numeric_limits<double>::infinity();
  std::vector<double> errors;
  errors.reserve(samples.size());
  for (const CostSample& s : samples) {
    errors.push_back(QError(model.PredictSampleNs(s),
                            static_cast<double>(s.actual_ns)));
  }
  std::sort(errors.begin(), errors.end());
  const size_t n = errors.size();
  // Lower median: deterministic and never averages with an infinity.
  return errors[(n - 1) / 2];
}

AnalyticCostModel::AnalyticCostModel(const optimizer::Planner* planner)
    : planner_(planner) {
  LQOLAB_CHECK(planner != nullptr);
}

double AnalyticCostModel::PredictNs(const query::Query& q,
                                    const optimizer::PhysicalPlan& plan) const {
  return planner_->EstimatePlanCost(q, plan) * ns_per_unit_.load();
}

double AnalyticCostModel::PredictSampleNs(const CostSample& sample) const {
  return sample.analytic_cost * ns_per_unit_.load();
}

void AnalyticCostModel::Calibrate(const std::vector<CostSample>& samples) {
  std::vector<double> ratios;
  ratios.reserve(samples.size());
  for (const CostSample& s : samples) {
    if (s.analytic_cost > 0.0 && s.actual_ns > 0) {
      ratios.push_back(static_cast<double>(s.actual_ns) / s.analytic_cost);
    }
  }
  if (ratios.empty()) return;
  std::sort(ratios.begin(), ratios.end());
  ns_per_unit_.store(ratios[(ratios.size() - 1) / 2]);
  calibrated_.store(true);
}

}  // namespace lqolab::costmodel
