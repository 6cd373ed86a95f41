#ifndef LQOLAB_LQO_LOGER_H_
#define LQOLAB_LQO_LOGER_H_

#include <vector>

#include "lqo/interface.h"
#include "lqo/plan_search.h"
#include "lqo/value_net.h"

namespace lqolab::lqo {

/// Simplified LOGER (Chen et al., VLDB 2023): RTOS's conceptual pipeline
/// with the action space extended by the JOIN TYPE — each search step picks
/// both the next relation and which join operator to use (its "hint" is a
/// join-type restriction rather than a full physical plan; scans stay with
/// the engine). Plan construction uses an epsilon-beam search over
/// (relation, algorithm) actions guided by the value network.
class LogerOptimizer : public LearnedOptimizer {
 public:
  struct Options {
    int32_t iterations = 2;
    int32_t train_epochs = 10;
    uint64_t seed = 7;
  };

  LogerOptimizer();
  explicit LogerOptimizer(Options options);
  ~LogerOptimizer() override;

  std::string name() const override { return "loger"; }
  TrainReport Train(const std::vector<query::Query>& train_set,
                    engine::Database* db) override;
  Prediction Plan(const query::Query& q, engine::Database* db) override;
  EncodingSpec encoding_spec() const override;

 private:
  /// Epsilon-beam search over (next relation, join algorithm) actions.
  SearchResult BeamSearch(const query::Query& q, engine::Database* db,
                          double epsilon);

  Options options_;
  ValueModel model_;
  std::vector<ValueModel::Sample> replay_;
};

}  // namespace lqolab::lqo

#endif  // LQOLAB_LQO_LOGER_H_
