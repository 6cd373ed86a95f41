#ifndef LQOLAB_LQO_HYBRIDQO_H_
#define LQOLAB_LQO_HYBRIDQO_H_

#include <vector>

#include "lqo/interface.h"
#include "lqo/value_net.h"

namespace lqolab::lqo {

/// Simplified HybridQO (Yu et al., VLDB 2022): a COST/LATENCY hybrid with
/// chained models. A Monte-Carlo tree search with UCB explores the top
/// levels of the join-order space against the COST model and emits a few
/// prefix hints; the engine completes each hinted prefix into a full plan;
/// a separate LATENCY network then picks among the candidates (its
/// "multi-head performance estimator"). Chaining models over different
/// targets avoids the on-the-fly target swap the paper criticizes in §5.2.
class HybridQoOptimizer : public LearnedOptimizer {
 public:
  struct Options {
    int32_t mcts_iterations = 60;
    int32_t train_epochs = 10;
    int32_t epochs = 2;
    uint64_t seed = 8;
  };

  HybridQoOptimizer();
  explicit HybridQoOptimizer(Options options);
  ~HybridQoOptimizer() override;

  std::string name() const override { return "hybridqo"; }
  TrainReport Train(const std::vector<query::Query>& train_set,
                    engine::Database* db) override;
  Prediction Plan(const query::Query& q, engine::Database* db) override;
  EncodingSpec encoding_spec() const override;

 private:
  /// MCTS-with-UCB over join-order prefixes against the cost model;
  /// returns the engine-completed candidate plans of the best prefixes.
  std::vector<optimizer::PhysicalPlan> CandidatesFromMcts(
      const query::Query& q, engine::Database* db, int64_t* cost_calls);

  Options options_;
  /// The latency model (the cost side is the engine's own cost model).
  ValueModel latency_model_;
  std::vector<ValueModel::Sample> replay_;
};

}  // namespace lqolab::lqo

#endif  // LQOLAB_LQO_HYBRIDQO_H_
