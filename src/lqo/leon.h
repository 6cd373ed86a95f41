#ifndef LQOLAB_LQO_LEON_H_
#define LQOLAB_LQO_LEON_H_

#include <vector>

#include "lqo/interface.h"
#include "lqo/value_net.h"

namespace lqolab::lqo {

/// Simplified LEON (Chen et al., VLDB 2023): a learning-to-rank method that
/// enumerates physical subplans dynamic-programming style (here: beamed
/// left-deep enumeration with top-k plans per subset), ranks candidates by
/// DBMS cost estimates corrected by a pairwise-trained network ensemble,
/// and uses ensemble disagreement as the uncertainty that picks which plans
/// to execute for training. Its inference cost is dominated by the
/// tens of thousands of per-subplan cost-estimate calls (paper §8.2.2:
/// ~6.5 h to plan query 29a), modeled via timing::kLeonSubplanCallNs.
class LeonOptimizer : public LearnedOptimizer {
 public:
  struct Options {
    int32_t beam_masks = 20;    ///< subsets kept per enumeration level
    int32_t topk_per_mask = 3;  ///< plans kept per subset
    int32_t exec_per_query = 3;
    int32_t pair_epochs = 8;
    /// Modeled end-to-end training budget; training stops when exceeded
    /// (the paper capped LEON at 120 hours).
    util::VirtualNanos train_budget_ns = 120ll * 3600 * 1'000'000'000;
    uint64_t seed = 4;
  };

  LeonOptimizer();
  explicit LeonOptimizer(Options options);
  ~LeonOptimizer() override;

  std::string name() const override { return "leon"; }
  TrainReport Train(const std::vector<query::Query>& train_set,
                    engine::Database* db) override;
  Prediction Plan(const query::Query& q, engine::Database* db) override;
  EncodingSpec encoding_spec() const override;

 private:
  struct Candidate {
    optimizer::PhysicalPlan plan;
    double score = 0.0;        ///< cost target + learned correction
    double uncertainty = 0.0;  ///< ensemble disagreement
  };

  /// Beamed left-deep enumeration; returns full-plan candidates sorted by
  /// score and counts cost-estimate calls / NN evaluations.
  std::vector<Candidate> Enumerate(const query::Query& q,
                                   engine::Database* db, int64_t* cost_calls,
                                   int64_t* nn_evals);

  Options options_;
  /// The two-network ensemble; their disagreement is the uncertainty.
  ValueModel model_a_;
  ValueModel model_b_;
};

}  // namespace lqolab::lqo

#endif  // LQOLAB_LQO_LEON_H_
