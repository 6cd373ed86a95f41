#ifndef LQOLAB_LQO_LERO_H_
#define LQOLAB_LQO_LERO_H_

#include <array>
#include <vector>

#include "lqo/interface.h"
#include "lqo/value_net.h"

namespace lqolab::lqo {

/// Simplified Lero (Zhu et al., VLDB 2023): a learning-to-rank optimizer
/// that generates candidate plans from the NATIVE optimizer by sweeping the
/// engine's internal cardinality estimates (join_selectivity_scale — Lero's
/// row-count scaling factors), then lets a pairwise plan comparator pick
/// the best candidate. Like Bao it has no query encoding (Table 1), but it
/// keeps table identities and outputs full plans. DBMS-integrated: its
/// candidate generation runs inside the engine.
class LeroOptimizer : public LearnedOptimizer {
 public:
  /// Selectivity scaling sweep used to diversify candidates.
  static constexpr std::array<double, 5> kScaleFactors = {0.01, 0.1, 1.0,
                                                          10.0, 100.0};

  struct Options {
    int32_t epochs = 3;
    int32_t pair_epochs = 10;
    uint64_t seed = 6;
  };

  LeroOptimizer();
  explicit LeroOptimizer(Options options);
  ~LeroOptimizer() override;

  std::string name() const override { return "lero"; }
  TrainReport Train(const std::vector<query::Query>& train_set,
                    engine::Database* db) override;
  Prediction Plan(const query::Query& q, engine::Database* db) override;
  EncodingSpec encoding_spec() const override;

 private:
  struct Candidate {
    optimizer::PhysicalPlan plan;
    util::VirtualNanos planning_ns = 0;
  };
  /// Plans the query under every scaling factor; deduplicates plans.
  std::vector<Candidate> GenerateCandidates(const query::Query& q,
                                            engine::Database* db,
                                            TrainReport* report);
  /// Comparator: true when `a` is predicted faster than `b`.
  bool Prefer(const query::Query& q, const optimizer::PhysicalPlan& a,
              const optimizer::PhysicalPlan& b);

  Options options_;
  ValueModel model_;
  /// Comparator pairs: `plan` measured faster than `worse`.
  std::vector<ValueModel::Sample> pairs_;
};

}  // namespace lqolab::lqo

#endif  // LQOLAB_LQO_LERO_H_
