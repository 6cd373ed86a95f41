#ifndef LQOLAB_LQO_NEO_H_
#define LQOLAB_LQO_NEO_H_

#include <vector>

#include "lqo/interface.h"
#include "lqo/plan_search.h"
#include "lqo/value_net.h"

namespace lqolab::lqo {

/// Simplified Neo (Marcus et al., VLDB 2019): a tree value network trained
/// on executed-plan latencies, bootstrapped from the native optimizer's
/// plans ("expert demonstrations"), refined over on-policy iterations with
/// a replay buffer; plans are predicted by greedy bottom-up search guided
/// by the network. Encoding: query one-hots + table identities (Table 1).
class NeoOptimizer : public LearnedOptimizer {
 public:
  struct Options {
    int32_t iterations = 3;
    int32_t train_epochs = 30;
    /// When > 0, this fraction of the training queries is held out as a
    /// FIXED validation set (the paper's §5.1 recommendation: fixed
    /// holdout, not CV, not "time series") and training stops early when
    /// the holdout loss worsens for `patience` consecutive iterations.
    double holdout_fraction = 0.0;
    int32_t patience = 2;
    uint64_t seed = 1;
  };

  NeoOptimizer();
  explicit NeoOptimizer(Options options);
  ~NeoOptimizer() override;

  std::string name() const override { return "neo"; }
  TrainReport Train(const std::vector<query::Query>& train_set,
                    engine::Database* db) override;
  Prediction Plan(const query::Query& q, engine::Database* db) override;
  EncodingSpec encoding_spec() const override;

  /// Holdout loss trajectory of the last Train() (empty without holdout).
  const std::vector<double>& holdout_losses() const {
    return holdout_losses_;
  }

  /// Iterations actually run by the last Train() (early stopping may cut
  /// options.iterations short).
  int32_t iterations_run() const { return iterations_run_; }

 private:
  SearchResult SearchPlan(const query::Query& q, engine::Database* db);

  double HoldoutLoss(const std::vector<ValueModel::Sample>& holdout);

  Options options_;
  std::vector<double> holdout_losses_;
  int32_t iterations_run_ = 0;
  ValueModel model_;
  std::vector<ValueModel::Sample> replay_;
};

}  // namespace lqolab::lqo

#endif  // LQOLAB_LQO_NEO_H_
