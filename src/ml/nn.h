#ifndef LQOLAB_ML_NN_H_
#define LQOLAB_ML_NN_H_

#include <cstdint>
#include <vector>

#include "ml/autodiff.h"
#include "ml/matrix.h"
#include "util/rng.h"

namespace lqolab::ml {

/// A trainable parameter: value, gradient accumulator, Adam moments.
struct Param {
  Matrix value;
  Matrix grad;
  Matrix m;
  Matrix v;

  explicit Param(Matrix initial)
      : value(std::move(initial)),
        grad(value.rows(), value.cols()),
        m(value.rows(), value.cols()),
        v(value.rows(), value.cols()) {}

  /// Registers the parameter in a graph.
  NodeId Node(Graph* g) { return g->Parameter(&value, &grad); }
};

/// Fully-connected layer y = x W + b.
struct Linear {
  Param weight;
  Param bias;

  Linear(int32_t in_features, int32_t out_features, util::Rng* rng)
      : weight(Matrix::KaimingUniform(in_features, out_features, in_features,
                                      rng)),
        bias(Matrix(1, out_features)) {}

  NodeId Apply(Graph* g, NodeId x) {
    return g->Add(g->MatMul(x, weight.Node(g)), bias.Node(g));
  }

  void CollectParams(std::vector<Param*>* out) {
    out->push_back(&weight);
    out->push_back(&bias);
  }
};

/// Multi-layer perceptron with ReLU activations between layers (none after
/// the final layer).
class Mlp {
 public:
  /// `sizes` = {in, hidden..., out}.
  Mlp(const std::vector<int32_t>& sizes, util::Rng* rng);

  NodeId Apply(Graph* g, NodeId x);

  std::vector<Param*> Params();

  int32_t in_features() const { return in_features_; }
  int32_t out_features() const { return out_features_; }

 private:
  std::vector<Linear> layers_;
  int32_t in_features_ = 0;
  int32_t out_features_ = 0;
};

/// Adam optimizer over a fixed parameter set.
class Adam {
 public:
  explicit Adam(std::vector<Param*> params, double lr = 1e-3,
                double beta1 = 0.9, double beta2 = 0.999, double eps = 1e-8);

  /// Applies one update from the accumulated gradients, then zeroes them.
  void Step();

  int64_t step_count() const { return step_; }

 private:
  std::vector<Param*> params_;
  double lr_;
  double beta1_;
  double beta2_;
  double eps_;
  int64_t step_ = 0;
};

/// Mean-squared-error loss between a prediction node and a target input.
NodeId MseLoss(Graph* g, NodeId prediction, NodeId target);

/// Pairwise logistic ranking loss: softplus(worse_score - better_score).
/// Minimized when the model scores `better` below `worse` (scores are
/// predicted latencies: smaller = better).
NodeId PairwiseRankLoss(Graph* g, NodeId better_score, NodeId worse_score);

}  // namespace lqolab::ml

#endif  // LQOLAB_ML_NN_H_
