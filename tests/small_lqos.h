// All eight learned optimizers with small training options, shared by the
// tests that must cover every trainer (training digests, episode
// telemetry, worker-count determinism).

#ifndef LQOLAB_TESTS_SMALL_LQOS_H_
#define LQOLAB_TESTS_SMALL_LQOS_H_

#include <memory>
#include <string>
#include <vector>

#include "lqo/balsa.h"
#include "lqo/bao.h"
#include "lqo/hybridqo.h"
#include "lqo/leon.h"
#include "lqo/lero.h"
#include "lqo/loger.h"
#include "lqo/neo.h"
#include "lqo/rtos.h"
#include "util/check.h"

namespace lqolab::testutil {

/// LearnedOptimizer::name() of every LQO.
inline const std::vector<std::string>& LqoNames() {
  static const std::vector<std::string> names = {
      "bao", "neo", "balsa", "leon", "lero", "loger", "rtos", "hybridqo"};
  return names;
}

/// The LQO called `name`, with options small enough to train in well
/// under a second on the small IMDB profile.
inline std::unique_ptr<lqo::LearnedOptimizer> SmallLqo(
    const std::string& name) {
  if (name == "bao") {
    lqo::BaoOptimizer::Options options;
    options.epochs = 2;
    options.train_epochs = 3;
    return std::make_unique<lqo::BaoOptimizer>(options);
  }
  if (name == "neo") {
    lqo::NeoOptimizer::Options options;
    options.iterations = 2;
    options.train_epochs = 3;
    options.holdout_fraction = 0.25;
    return std::make_unique<lqo::NeoOptimizer>(options);
  }
  if (name == "balsa") {
    lqo::BalsaOptimizer::Options options;
    options.pretrain_samples_per_query = 3;
    options.pretrain_epochs = 1;
    options.iterations = 2;
    options.train_epochs = 2;
    return std::make_unique<lqo::BalsaOptimizer>(options);
  }
  if (name == "leon") {
    lqo::LeonOptimizer::Options options;
    options.beam_masks = 6;
    options.topk_per_mask = 2;
    options.exec_per_query = 2;
    options.pair_epochs = 2;
    return std::make_unique<lqo::LeonOptimizer>(options);
  }
  if (name == "lero") {
    lqo::LeroOptimizer::Options options;
    options.epochs = 2;
    options.pair_epochs = 3;
    return std::make_unique<lqo::LeroOptimizer>(options);
  }
  if (name == "loger") {
    lqo::LogerOptimizer::Options options;
    options.iterations = 2;
    options.train_epochs = 3;
    return std::make_unique<lqo::LogerOptimizer>(options);
  }
  if (name == "rtos") {
    lqo::RtosOptimizer::Options options;
    options.iterations = 2;
    options.train_epochs = 3;
    return std::make_unique<lqo::RtosOptimizer>(options);
  }
  LQOLAB_CHECK(name == "hybridqo");
  lqo::HybridQoOptimizer::Options options;
  options.epochs = 2;
  options.train_epochs = 3;
  options.mcts_iterations = 20;
  return std::make_unique<lqo::HybridQoOptimizer>(options);
}

}  // namespace lqolab::testutil

#endif  // LQOLAB_TESTS_SMALL_LQOS_H_
