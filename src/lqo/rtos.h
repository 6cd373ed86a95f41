#ifndef LQOLAB_LQO_RTOS_H_
#define LQOLAB_LQO_RTOS_H_

#include <vector>

#include "lqo/interface.h"
#include "lqo/value_net.h"

namespace lqolab::lqo {

/// Simplified RTOS (Yu et al., ICDE 2020): a join-ORDER-only learned
/// optimizer. The RL agent picks the sequence of joins; it recommends
/// neither join algorithms nor scan types (Table 1: no join type, no scan
/// type in the encoding) — the native engine fills in the physical
/// operators for the chosen order. Value estimates come from a tree network
/// (the Tree-LSTM stand-in); training follows Neo's latency-regression
/// skeleton and, uniquely among the methods (Table 1), reports a
/// CROSS-VALIDATION metric over the training set.
class RtosOptimizer : public LearnedOptimizer {
 public:
  struct Options {
    int32_t iterations = 2;
    int32_t train_epochs = 12;
    uint64_t seed = 5;
  };

  RtosOptimizer();
  explicit RtosOptimizer(Options options);
  ~RtosOptimizer() override;

  std::string name() const override { return "rtos"; }
  TrainReport Train(const std::vector<query::Query>& train_set,
                    engine::Database* db) override;
  Prediction Plan(const query::Query& q, engine::Database* db) override;
  EncodingSpec encoding_spec() const override;

  /// Mean cross-validated holdout loss of the last Train() call (Table 1's
  /// "CV" testing column made concrete).
  double last_cv_loss() const { return last_cv_loss_; }

 private:
  /// Builds the physical plan the engine picks for a join order.
  optimizer::PhysicalPlan PlanForOrder(
      const query::Query& q, engine::Database* db,
      const std::vector<query::AliasId>& order) const;
  /// Greedy order construction guided by the value net; counts NN evals.
  std::vector<query::AliasId> SearchOrder(const query::Query& q,
                                          engine::Database* db,
                                          int64_t* evals);

  Options options_;
  ValueModel model_;
  /// Executed orders, each as the plan the engine built for it.
  std::vector<ValueModel::Sample> replay_;
  double last_cv_loss_ = 0.0;
};

}  // namespace lqolab::lqo

#endif  // LQOLAB_LQO_RTOS_H_
