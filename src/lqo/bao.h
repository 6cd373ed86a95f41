#ifndef LQOLAB_LQO_BAO_H_
#define LQOLAB_LQO_BAO_H_

#include <string>
#include <vector>

#include "lqo/interface.h"
#include "lqo/value_net.h"

namespace lqolab::lqo {

/// A Bao hint set: a named subset of operators the native optimizer may not
/// use. Applied as enable_* overlays on the session configuration.
struct HintSet {
  std::string name;
  bool enable_nestloop = true;
  bool enable_hashjoin = true;
  bool enable_mergejoin = true;
  bool enable_indexscan = true;
  bool enable_bitmapscan = true;
  bool enable_seqscan = true;
};

/// The hint sets used by this Bao reimplementation (the original ships 48
/// and uses ~5 in practice).
std::vector<HintSet> DefaultHintSets();

/// `config` with its six enable_* settings replaced by `hints`'s.
engine::DbConfig ApplyHintSet(engine::DbConfig config, const HintSet& hints);

/// Simplified Bao (Marcus et al., SIGMOD 2021): sits ON TOP of the native
/// optimizer, choosing per query which hint set (disabled-operator subset)
/// the optimizer plans under. The value model is a tree network over a
/// cardinality/cost-only encoding with NO table identities (Table 1) — the
/// property stressed by the covariate-shift experiment (Fig. 7). Runs as an
/// "extension": its inference time is reported inside planning time.
class BaoOptimizer : public LearnedOptimizer {
 public:
  struct Options {
    int32_t epochs = 4;
    int32_t train_epochs = 25;
    uint64_t seed = 3;
  };

  BaoOptimizer();
  explicit BaoOptimizer(Options options);
  ~BaoOptimizer() override;

  std::string name() const override { return "bao"; }
  TrainReport Train(const std::vector<query::Query>& train_set,
                    engine::Database* db) override;
  Prediction Plan(const query::Query& q, engine::Database* db) override;
  EncodingSpec encoding_spec() const override;

 private:
  struct ArmCandidate {
    optimizer::PhysicalPlan plan;
    util::VirtualNanos planning_ns = 0;
    double score = 0.0;
  };

  std::vector<ArmCandidate> PlanArms(const query::Query& q,
                                     engine::Database* db,
                                     TrainReport* report);

  Options options_;
  std::vector<HintSet> hint_sets_;
  ValueModel model_;
  std::vector<ValueModel::Sample> experience_;
};

}  // namespace lqolab::lqo

#endif  // LQOLAB_LQO_BAO_H_
