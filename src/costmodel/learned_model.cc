#include "costmodel/learned_model.h"

#include <bit>
#include <cmath>
#include <limits>

#include "lqo/value_net.h"
#include "ml/autodiff.h"
#include "util/check.h"
#include "util/rng.h"

namespace lqolab::costmodel {

namespace {

/// Hidden width of both MLP layers ({dim, kHidden, kHidden, 1}).
constexpr int32_t kHidden = 32;
constexpr double kLearningRate = 3e-3;

ml::Mlp MakeMlp(int32_t in_dim, const LearnedModelOptions& options) {
  util::Rng rng(options.seed);
  return ml::Mlp({in_dim, kHidden, kHidden, 1}, &rng);
}

}  // namespace

LearnedCostModel::LearnedCostModel(const PlanFeaturizer* featurizer,
                                   const LearnedModelOptions& options)
    : featurizer_(featurizer),
      options_(options),
      mlp_(MakeMlp(featurizer->dim(), options)),
      adam_(mlp_.Params(), kLearningRate) {
  LQOLAB_CHECK(featurizer != nullptr);
  LQOLAB_CHECK_GT(options.epochs, 0);
}

double LearnedCostModel::ForwardLocked(
    const std::vector<float>& features) const {
  ml::Graph g;
  const ml::NodeId out =
      mlp_.Apply(&g, g.Input(ml::Matrix::RowVector(features)));
  const double ns =
      static_cast<double>(lqo::TargetToLatency(g.scalar(out)));
  // The log1p target cannot encode sub-ns latencies; clamp so q-error and
  // ranking never divide by zero.
  return std::max(1.0, ns);
}

double LearnedCostModel::PredictNs(const query::Query& q,
                                   const optimizer::PhysicalPlan& plan) const {
  const std::vector<float> features = featurizer_->Featurize(q, plan);
  std::lock_guard<std::mutex> lock(mu_);
  return ForwardLocked(features);
}

double LearnedCostModel::PredictSampleNs(const CostSample& sample) const {
  return PredictFeaturesNs(sample.features);
}

double LearnedCostModel::PredictFeaturesNs(
    const std::vector<float>& features) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (static_cast<int32_t>(features.size()) != mlp_.in_features()) {
    return std::numeric_limits<double>::infinity();
  }
  return ForwardLocked(features);
}

double LearnedCostModel::Train(const std::vector<CostSample>& samples) {
  std::lock_guard<std::mutex> lock(mu_);
  double last_epoch_loss = 0.0;
  for (int32_t epoch = 0; epoch < options_.epochs; ++epoch) {
    double loss_sum = 0.0;
    int64_t steps = 0;
    for (const CostSample& s : samples) {
      if (static_cast<int32_t>(s.features.size()) != mlp_.in_features() ||
          s.actual_ns <= 0) {
        continue;
      }
      ml::Graph g;
      const ml::NodeId pred =
          mlp_.Apply(&g, g.Input(ml::Matrix::RowVector(s.features)));
      ml::Matrix target(1, 1);
      target.at(0, 0) = lqo::LatencyToTarget(s.actual_ns);
      const ml::NodeId loss = ml::MseLoss(&g, pred, g.Input(target));
      g.Backward(loss);
      adam_.Step();
      loss_sum += static_cast<double>(g.scalar(loss));
      ++steps;
      ++train_steps_;
    }
    last_epoch_loss = steps > 0 ? loss_sum / static_cast<double>(steps) : 0.0;
  }
  return last_epoch_loss;
}

uint64_t LearnedCostModel::WeightsDigest() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a offset basis
  for (ml::Param* p : mlp_.Params()) {
    for (const float x : p->value.data()) {
      h ^= static_cast<uint64_t>(std::bit_cast<uint32_t>(x));
      h *= 0x100000001b3ull;
    }
  }
  return h;
}

int64_t LearnedCostModel::train_steps() const {
  std::lock_guard<std::mutex> lock(mu_);
  return train_steps_;
}

}  // namespace lqolab::costmodel
