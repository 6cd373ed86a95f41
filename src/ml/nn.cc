#include "ml/nn.h"

#include <cmath>

#include "util/check.h"

namespace lqolab::ml {

Mlp::Mlp(const std::vector<int32_t>& sizes, util::Rng* rng) {
  LQOLAB_CHECK_GE(sizes.size(), 2u);
  in_features_ = sizes.front();
  out_features_ = sizes.back();
  for (size_t i = 0; i + 1 < sizes.size(); ++i) {
    layers_.emplace_back(sizes[i], sizes[i + 1], rng);
  }
}

NodeId Mlp::Apply(Graph* g, NodeId x) {
  NodeId h = x;
  for (size_t i = 0; i < layers_.size(); ++i) {
    h = layers_[i].Apply(g, h);
    if (i + 1 < layers_.size()) h = g->Relu(h);
  }
  return h;
}

std::vector<Param*> Mlp::Params() {
  std::vector<Param*> params;
  for (auto& layer : layers_) layer.CollectParams(&params);
  return params;
}

Adam::Adam(std::vector<Param*> params, double lr, double beta1, double beta2,
           double eps)
    : params_(std::move(params)), lr_(lr), beta1_(beta1), beta2_(beta2),
      eps_(eps) {}

void Adam::Step() {
  ++step_;
  const double bias1 = 1.0 - std::pow(beta1_, static_cast<double>(step_));
  const double bias2 = 1.0 - std::pow(beta2_, static_cast<double>(step_));
  for (Param* p : params_) {
    for (int64_t i = 0; i < p->value.size(); ++i) {
      const size_t idx = static_cast<size_t>(i);
      const double g = p->grad.data()[idx];
      const double m = beta1_ * p->m.data()[idx] + (1.0 - beta1_) * g;
      const double v = beta2_ * p->v.data()[idx] + (1.0 - beta2_) * g * g;
      p->m.data()[idx] = static_cast<float>(m);
      p->v.data()[idx] = static_cast<float>(v);
      const double m_hat = m / bias1;
      const double v_hat = v / bias2;
      p->value.data()[idx] -=
          static_cast<float>(lr_ * m_hat / (std::sqrt(v_hat) + eps_));
      p->grad.data()[idx] = 0.0f;
    }
  }
}

NodeId MseLoss(Graph* g, NodeId prediction, NodeId target) {
  const NodeId diff = g->Sub(prediction, target);
  return g->Mean(g->Mul(diff, diff));
}

NodeId PairwiseRankLoss(Graph* g, NodeId better_score, NodeId worse_score) {
  return g->Mean(g->Softplus(g->Sub(better_score, worse_score)));
}

}  // namespace lqolab::ml
