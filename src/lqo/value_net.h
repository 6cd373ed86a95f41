#ifndef LQOLAB_LQO_VALUE_NET_H_
#define LQOLAB_LQO_VALUE_NET_H_

#include <memory>
#include <vector>

#include "engine/database.h"
#include "lqo/encoding.h"
#include "lqo/interface.h"
#include "ml/nn.h"
#include "util/virtual_clock.h"

namespace lqolab::lqo {

/// Converts a latency into the network's regression target
/// (log-milliseconds, scaled to ~[0, 2]).
float LatencyToTarget(util::VirtualNanos latency);
/// Inverse of LatencyToTarget.
util::VirtualNanos TargetToLatency(float target);

/// Tree-structured value network: a recursive embedding over plan nodes
/// (leaf = ReLU(W_l x), internal = ReLU(W_j [x; emb_left; emb_right])) — the
/// simplified stand-in for Tree-CNN / Tree-LSTM plan processing (Table 1) —
/// followed by an MLP head over [query encoding; root embedding].
/// A query_dim of 0 drops the query encoding (Bao-style plan-only models,
/// §4.2's "missing the query encoding part").
class TreeValueNet {
 public:
  TreeValueNet(int32_t node_dim, int32_t query_dim, int32_t hidden,
               uint64_t seed);

  /// Builds the score subgraph for a plan; callers compose losses on top.
  ml::NodeId BuildScore(ml::Graph* g, const std::vector<float>& query_enc,
                        const query::Query& q,
                        const optimizer::PhysicalPlan& plan,
                        const PlanEncoder& encoder);

  /// Predicted target (LatencyToTarget scale) for one plan.
  double Score(const std::vector<float>& query_enc, const query::Query& q,
               const optimizer::PhysicalPlan& plan,
               const PlanEncoder& encoder);

  /// One regression step (MSE against `target`); returns the loss.
  double TrainRegression(const std::vector<float>& query_enc,
                         const query::Query& q,
                         const optimizer::PhysicalPlan& plan,
                         const PlanEncoder& encoder, float target,
                         ml::Adam* optimizer);

  /// One pairwise step: pushes score(better) below score(worse).
  double TrainPairwise(const std::vector<float>& query_enc,
                       const query::Query& q,
                       const optimizer::PhysicalPlan& better,
                       const optimizer::PhysicalPlan& worse,
                       const PlanEncoder& encoder, ml::Adam* optimizer);

  std::vector<ml::Param*> Params();

  int32_t query_dim() const { return query_dim_; }

 private:
  ml::NodeId EmbedNode(ml::Graph* g, const query::Query& q,
                       const optimizer::PhysicalPlan& plan, int32_t node_index,
                       const PlanEncoder& encoder);

  int32_t node_dim_;
  int32_t query_dim_;
  ml::Linear leaf_;
  ml::Linear join_;
  ml::Mlp head_;
};

/// A seeded 64-bit LCG: the one random stream an LQO's training draws from
/// (fit shuffles, exploration noise, random plans, MCTS tie-breaks).
class TrainingStream {
 public:
  explicit TrainingStream(uint64_t state) : state_(state) {}

  /// Advances one step and returns the new state (the raw draw).
  uint64_t Next() {
    state_ = state_ * 6364136223846793005ULL + 1442695040888963407ULL;
    return state_;
  }
  /// A draw as an index in [0, n) (its high bits modulo n).
  static size_t IndexOf(uint64_t draw, size_t n) { return (draw >> 33) % n; }
  /// A draw as a uniform double in [0, 1) (its top 53 bits).
  static double UnitOf(uint64_t draw) {
    return static_cast<double>(draw >> 11) * 0x1.0p-53;
  }
  size_t Below(size_t n) { return IndexOf(Next(), n); }
  double Uniform() { return UnitOf(Next()); }

 private:
  uint64_t state_;
};

/// The learned half of an LQO, in Table 1's terms: a plan encoding, an
/// optional query encoding, a tree model and a regression or pairwise
/// output. Owns the encoders, the TreeValueNet with its Adam optimizer and
/// the LQO's TrainingStream. Every LQO's model scores pass through Score.
class ValueModel {
 public:
  enum class Output {
    /// Fits each sample's plan score to its target (log latency).
    kRegression,
    /// Learning to rank: pushes each sample's plan below its `worse`.
    kPairwise,
  };
  struct Spec {
    PlanEncodingStyle style = PlanEncodingStyle::kWithTableIdentity;
    /// False for plan-only models (Bao, Lero): no query encoding, query
    /// dimension 0 (§4.2's "missing the query encoding part").
    bool encode_query = true;
    Output output = Output::kRegression;
    int32_t hidden = 64;
    /// Seeds the network weights.
    uint64_t seed = 0;
    /// The training stream starts at seed ^ stream_salt.
    uint64_t stream_salt = 0;
  };
  /// One training example: a plan of `query` with its regression target,
  /// or (kPairwise) the faster `plan` and the slower `worse` of two
  /// executed plans.
  struct Sample {
    query::Query query;
    optimizer::PhysicalPlan plan;
    float target = 0.0f;
    optimizer::PhysicalPlan worse = {};
  };

  explicit ValueModel(const Spec& spec);

  /// Builds the encoders and the network over `db`'s schema and estimator
  /// on the first call; later calls, on any database, keep them.
  void Bind(engine::Database* db);

  /// The query encoding the network takes (empty without one).
  std::vector<float> EncodeQuery(const query::Query& q) const;

  /// Predicted target (LatencyToTarget scale; lower is better) of `plan`.
  double Score(const std::vector<float>& query_enc, const query::Query& q,
               const optimizer::PhysicalPlan& plan);

  /// One update on `sample` (query encoded as `query_enc`); returns its
  /// loss.
  double Step(const std::vector<float>& query_enc, const Sample& sample);

  /// `epochs` passes over `samples`, one Step per sample, counted in
  /// report->nn_updates. Before each pass the visiting order (kept across
  /// passes) is Fisher-Yates shuffled with draws from the training stream.
  /// Returns the summed loss.
  double Fit(const std::vector<Sample>& samples, int32_t epochs,
             TrainReport* report);

  TrainingStream& stream() { return stream_; }

  /// Appends one regression sample per run: queries[i] and plans[i] with
  /// runs[i]'s latency as the target.
  static void AppendRuns(const std::vector<query::Query>& queries,
                         std::vector<optimizer::PhysicalPlan> plans,
                         const std::vector<engine::QueryRun>& runs,
                         std::vector<Sample>* samples);

 private:
  Spec spec_;
  std::unique_ptr<QueryEncoder> query_encoder_;
  std::unique_ptr<PlanEncoder> plan_encoder_;
  std::unique_ptr<TreeValueNet> net_;
  std::unique_ptr<ml::Adam> adam_;
  TrainingStream stream_;
};

}  // namespace lqolab::lqo

#endif  // LQOLAB_LQO_VALUE_NET_H_
