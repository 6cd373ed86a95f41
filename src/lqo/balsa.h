#ifndef LQOLAB_LQO_BALSA_H_
#define LQOLAB_LQO_BALSA_H_

#include <unordered_map>
#include <vector>

#include "lqo/interface.h"
#include "lqo/plan_search.h"
#include "lqo/value_net.h"

namespace lqolab::lqo {

/// Simplified Balsa (Yang et al., SIGMOD 2022): Neo's architecture but
/// bootstrapped WITHOUT expert demonstrations — the value network pretrains
/// on the DBMS cost model over sampled random plans, then fine-tunes
/// on-policy, executing plans under safe timeouts (2x the best known
/// latency per query) and training mostly on the most recent data. Balsa
/// executes considerably more plans than Neo (paper §8.2.2).
class BalsaOptimizer : public LearnedOptimizer {
 public:
  struct Options {
    int32_t pretrain_samples_per_query = 15;
    int32_t pretrain_epochs = 3;
    int32_t iterations = 5;
    int32_t train_epochs = 20;
    uint64_t seed = 2;
  };

  BalsaOptimizer();
  explicit BalsaOptimizer(Options options);
  ~BalsaOptimizer() override;

  std::string name() const override { return "balsa"; }
  TrainReport Train(const std::vector<query::Query>& train_set,
                    engine::Database* db) override;
  Prediction Plan(const query::Query& q, engine::Database* db) override;
  EncodingSpec encoding_spec() const override;

 private:
  SearchResult SearchPlan(const query::Query& q, engine::Database* db,
                          double epsilon);

  Options options_;
  ValueModel model_;
  /// Best observed latency per query fingerprint (drives safe timeouts).
  std::unordered_map<uint64_t, util::VirtualNanos> best_latency_;
};

}  // namespace lqolab::lqo

#endif  // LQOLAB_LQO_BALSA_H_
