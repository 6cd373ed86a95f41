#include "lqo/value_net.h"

#include <cmath>
#include <utility>

#include "util/check.h"
#include "util/rng.h"

namespace lqolab::lqo {

using ml::Graph;
using ml::Matrix;
using ml::NodeId;
using optimizer::PhysicalPlan;
using optimizer::PlanNode;
using query::Query;

namespace {

/// Adam step size of every LQO's value network.
constexpr double kLearningRate = 1e-3;

}  // namespace

float LatencyToTarget(util::VirtualNanos latency) {
  const double ms =
      static_cast<double>(latency) / static_cast<double>(util::kNanosPerMilli);
  return static_cast<float>(std::log1p(std::max(0.0, ms)) / 10.0);
}

util::VirtualNanos TargetToLatency(float target) {
  const double ms = std::expm1(static_cast<double>(target) * 10.0);
  return static_cast<util::VirtualNanos>(
      std::max(0.0, ms) * static_cast<double>(util::kNanosPerMilli));
}

TreeValueNet::TreeValueNet(int32_t node_dim, int32_t query_dim, int32_t hidden,
                           uint64_t seed)
    : node_dim_(node_dim),
      query_dim_(query_dim),
      leaf_([&] {
        util::Rng rng(seed);
        return ml::Linear(node_dim, hidden, &rng);
      }()),
      join_([&] {
        util::Rng rng(seed ^ 0x9e3779b9ULL);
        return ml::Linear(node_dim + 2 * hidden, hidden, &rng);
      }()),
      head_([&] {
        util::Rng rng(seed ^ 0x85ebca6bULL);
        return ml::Mlp({query_dim + hidden, 64, 32, 1}, &rng);
      }()) {}

NodeId TreeValueNet::EmbedNode(Graph* g, const Query& q,
                               const PhysicalPlan& plan, int32_t node_index,
                               const PlanEncoder& encoder) {
  const PlanNode& node = plan.node(node_index);
  const NodeId features =
      g->Input(Matrix::RowVector(encoder.EncodeNode(q, plan, node_index)));
  if (node.type == PlanNode::Type::kScan) {
    return g->Relu(leaf_.Apply(g, features));
  }
  const NodeId left = EmbedNode(g, q, plan, node.left, encoder);
  const NodeId right = EmbedNode(g, q, plan, node.right, encoder);
  const NodeId concat =
      g->ConcatCols(g->ConcatCols(features, left), right);
  return g->Relu(join_.Apply(g, concat));
}

NodeId TreeValueNet::BuildScore(Graph* g, const std::vector<float>& query_enc,
                                const Query& q, const PhysicalPlan& plan,
                                const PlanEncoder& encoder) {
  LQOLAB_CHECK(!plan.empty());
  NodeId embedding = EmbedNode(g, q, plan, plan.root, encoder);
  if (query_dim_ > 0) {
    LQOLAB_CHECK_EQ(static_cast<int32_t>(query_enc.size()), query_dim_);
    embedding =
        g->ConcatCols(g->Input(Matrix::RowVector(query_enc)), embedding);
  }
  return head_.Apply(g, embedding);
}

double TreeValueNet::Score(const std::vector<float>& query_enc, const Query& q,
                           const PhysicalPlan& plan,
                           const PlanEncoder& encoder) {
  Graph g;
  return g.scalar(BuildScore(&g, query_enc, q, plan, encoder));
}

double TreeValueNet::TrainRegression(const std::vector<float>& query_enc,
                                     const Query& q, const PhysicalPlan& plan,
                                     const PlanEncoder& encoder, float target,
                                     ml::Adam* optimizer) {
  Graph g;
  const NodeId score = BuildScore(&g, query_enc, q, plan, encoder);
  const NodeId loss =
      ml::MseLoss(&g, score, g.Input(Matrix::RowVector({target})));
  const double loss_value = g.scalar(loss);
  g.Backward(loss);
  optimizer->Step();
  return loss_value;
}

double TreeValueNet::TrainPairwise(const std::vector<float>& query_enc,
                                   const Query& q, const PhysicalPlan& better,
                                   const PhysicalPlan& worse,
                                   const PlanEncoder& encoder,
                                   ml::Adam* optimizer) {
  Graph g;
  const NodeId score_better = BuildScore(&g, query_enc, q, better, encoder);
  const NodeId score_worse = BuildScore(&g, query_enc, q, worse, encoder);
  const NodeId loss = ml::PairwiseRankLoss(&g, score_better, score_worse);
  const double loss_value = g.scalar(loss);
  g.Backward(loss);
  optimizer->Step();
  return loss_value;
}

std::vector<ml::Param*> TreeValueNet::Params() {
  std::vector<ml::Param*> params;
  leaf_.CollectParams(&params);
  join_.CollectParams(&params);
  for (ml::Param* p : head_.Params()) params.push_back(p);
  return params;
}

ValueModel::ValueModel(const Spec& spec)
    : spec_(spec), stream_(spec.seed ^ spec.stream_salt) {}

void ValueModel::Bind(engine::Database* db) {
  if (net_ != nullptr) return;
  const exec::DbContext* ctx = &db->context();
  const stats::CardinalityEstimator* estimator = &db->planner().estimator();
  if (spec_.encode_query) {
    query_encoder_ = std::make_unique<QueryEncoder>(ctx, estimator);
  }
  plan_encoder_ = std::make_unique<PlanEncoder>(ctx, estimator, spec_.style);
  net_ = std::make_unique<TreeValueNet>(
      plan_encoder_->node_dim(),
      query_encoder_ != nullptr ? query_encoder_->dim() : 0, spec_.hidden,
      spec_.seed);
  adam_ = std::make_unique<ml::Adam>(net_->Params(), kLearningRate);
}

std::vector<float> ValueModel::EncodeQuery(const Query& q) const {
  if (query_encoder_ == nullptr) return {};
  return query_encoder_->Encode(q);
}

double ValueModel::Score(const std::vector<float>& query_enc, const Query& q,
                         const PhysicalPlan& plan) {
  return net_->Score(query_enc, q, plan, *plan_encoder_);
}

double ValueModel::Step(const std::vector<float>& query_enc,
                        const Sample& sample) {
  if (spec_.output == Output::kPairwise) {
    return net_->TrainPairwise(query_enc, sample.query, sample.plan,
                               sample.worse, *plan_encoder_, adam_.get());
  }
  return net_->TrainRegression(query_enc, sample.query, sample.plan,
                               *plan_encoder_, sample.target, adam_.get());
}

double ValueModel::Fit(const std::vector<Sample>& samples, int32_t epochs,
                       TrainReport* report) {
  std::vector<size_t> order(samples.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  double loss_sum = 0.0;
  for (int32_t epoch = 0; epoch < epochs; ++epoch) {
    for (size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[stream_.Below(i)]);
    }
    for (size_t idx : order) {
      const Sample& sample = samples[idx];
      loss_sum += Step(EncodeQuery(sample.query), sample);
      ++report->nn_updates;
    }
  }
  return loss_sum;
}

void ValueModel::AppendRuns(const std::vector<Query>& queries,
                            std::vector<PhysicalPlan> plans,
                            const std::vector<engine::QueryRun>& runs,
                            std::vector<Sample>* samples) {
  for (size_t i = 0; i < runs.size(); ++i) {
    samples->push_back({.query = queries[i],
                        .plan = std::move(plans[i]),
                        .target = LatencyToTarget(runs[i].execution_ns)});
  }
}

}  // namespace lqolab::lqo
