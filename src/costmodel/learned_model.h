#ifndef LQOLAB_COSTMODEL_LEARNED_MODEL_H_
#define LQOLAB_COSTMODEL_LEARNED_MODEL_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "costmodel/cost_model.h"
#include "costmodel/features.h"
#include "ml/nn.h"

namespace lqolab::costmodel {

struct LearnedModelOptions {
  /// Full passes over the training slice (per-sample Adam, sample order).
  int32_t epochs = 60;
  /// Seeds the Kaiming initialization; everything else is data-ordered, so
  /// (seed, sample corpus) fully determines the trained weights.
  uint64_t seed = 7;
};

/// The plan-featurized MLP cost model: PlanFeaturizer features in, log-ms
/// latency target out (the same lqo::LatencyToTarget scale the value
/// networks regress on), trained with per-sample Adam on the ml/ autodiff
/// graph. Training is bit-deterministic: same options, same samples in the
/// same order, same weights — the property the serve-path refresh loop
/// leans on to stay reproducible across worker counts (locked by
/// `ctest -L costmodel`).
///
/// Thread-safe: Predict*/Train serialize on an internal mutex (forward
/// passes build a Graph over the shared parameter matrices).
class LearnedCostModel : public PlanCostModel {
 public:
  /// `featurizer` must outlive the model.
  LearnedCostModel(const PlanFeaturizer* featurizer,
                   const LearnedModelOptions& options);

  std::string name() const override { return "learned_mlp"; }
  double PredictNs(const query::Query& q,
                   const optimizer::PhysicalPlan& plan) const override;
  double PredictSampleNs(const CostSample& sample) const override;
  int64_t nn_evals_per_prediction() const override { return 1; }

  /// Trains for options.epochs passes over `samples` in the given order
  /// (callers pass replay-buffer snapshots, already sequence-sorted).
  /// Samples whose feature width mismatches or whose actual_ns is
  /// non-positive are skipped. Returns the mean MSE loss of the final
  /// epoch (0 when nothing trained).
  double Train(const std::vector<CostSample>& samples);

  /// Prediction from a raw feature vector (no locking caveats for callers;
  /// used by tests and the bake-off).
  double PredictFeaturesNs(const std::vector<float>& features) const;

  /// FNV-1a over every parameter's float bits, in registration order: two
  /// identically-trained models have equal digests, and any weight-bit
  /// divergence changes it. The determinism tests' fingerprint.
  uint64_t WeightsDigest() const;

  int64_t train_steps() const;
  const LearnedModelOptions& options() const { return options_; }

 private:
  double ForwardLocked(const std::vector<float>& features) const;

  const PlanFeaturizer* featurizer_;
  const LearnedModelOptions options_;
  mutable std::mutex mu_;
  mutable ml::Mlp mlp_;
  ml::Adam adam_;
  int64_t train_steps_ = 0;
};

}  // namespace lqolab::costmodel

#endif  // LQOLAB_COSTMODEL_LEARNED_MODEL_H_
