// Concurrency stress tests for the costmodel/ subsystem, built to run
// under ThreadSanitizer (-DLQOLAB_SANITIZE=thread, ctest -L stress):
// serve workers harvesting into the replay buffer while the background
// refresh thread trains/gates/promotes, plus raw concurrent Add/Snapshot
// churn on the buffer and concurrent Predict/Train on the learned model.

#include <algorithm>
#include <future>
#include <limits>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "costmodel/features.h"
#include "costmodel/learned_model.h"
#include "costmodel/online_refresh.h"
#include "costmodel/replay_buffer.h"
#include "engine/database.h"
#include "query/sql_workload.h"
#include "serve/query_server.h"

namespace lqolab::costmodel {
namespace {

engine::Database* SharedDb() {
  static std::unique_ptr<engine::Database> db = [] {
    engine::Database::Options options;
    options.profile = datagen::ScaleProfile::Small();
    options.seed = 42;
    return engine::Database::CreateImdb(options);
  }();
  return db.get();
}

const std::vector<query::Query>& Workload() {
  static const std::vector<query::Query> workload =
      query::LoadWorkload("job", SharedDb()->schema());
  return workload;
}

TEST(CostmodelStress, ReplayBufferConcurrentAddAndSnapshot) {
  ReplayBufferOptions options;
  options.capacity = 64;
  ReplayBuffer buffer(options);

  constexpr int kThreads = 6;
  constexpr uint64_t kPerThread = 2000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads + 1);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        CostSample s;
        s.sequence = static_cast<uint64_t>(t) * kPerThread + i;
        s.features = {static_cast<float>(t), static_cast<float>(i)};
        s.actual_ns = 1 + static_cast<util::VirtualNanos>(i);
        s.analytic_cost = 1.0;
        buffer.Add(std::move(s));
      }
    });
  }
  // A reader snapshots concurrently; every snapshot must be sorted and
  // within capacity.
  threads.emplace_back([&] {
    for (int i = 0; i < 200; ++i) {
      const std::vector<CostSample> snapshot = buffer.SnapshotSorted();
      EXPECT_LE(snapshot.size(), 64u);
      for (size_t j = 1; j < snapshot.size(); ++j) {
        EXPECT_LT(snapshot[j - 1].sequence, snapshot[j].sequence);
      }
    }
  });
  for (auto& t : threads) t.join();
  EXPECT_EQ(buffer.size(), 64);
  EXPECT_EQ(buffer.added(), kThreads * static_cast<int64_t>(kPerThread));
}

TEST(CostmodelStress, BackgroundRefreshUnderLiveServingLoad) {
  RefreshOptions refresh_options;
  refresh_options.buffer.capacity = 1024;
  refresh_options.min_samples = 24;
  // One background cycle roughly every half epoch of traffic.
  refresh_options.refresh_every = 64;
  // Let candidates promote freely: more hot-swap churn for TSAN to chew on.
  refresh_options.gate_ratio = 8.0;
  refresh_options.max_median_qerror = 1e9;
  refresh_options.drift_window = 1 << 20;  // drift out of the picture
  OnlineRefresher refresher(SharedDb(), refresh_options);

  serve::ServerOptions options;
  options.workers = 4;
  options.route = serve::RouteMode::kLqo;
  options.observer = &refresher;
  options.breaker.failure_threshold = std::numeric_limits<int32_t>::max();
  serve::QueryServer server(SharedDb(), options);
  refresher.AttachServer(&server);
  refresher.StartBackground();

  // Three epochs of the (subsampled) workload from concurrent submitters
  // while the background thread refreshes every 64 harvested samples.
  constexpr int kSubmitters = 3;
  std::vector<std::thread> submitters;
  submitters.reserve(kSubmitters);
  for (int t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&] {
      std::vector<std::future<serve::ServedQuery>> futures;
      for (size_t i = 0; i < Workload().size(); i += 6) {
        futures.push_back(server.Submit(Workload()[i]));
      }
      for (auto& f : futures) {
        const serve::ServedQuery served = f.get();
        EXPECT_TRUE(served.status.ok());
      }
    });
  }
  for (auto& t : submitters) t.join();
  server.Drain();
  refresher.StopBackground();
  // One more synchronous cycle after the dust settles: the machinery must
  // still be coherent (and with the permissive gate, it promotes).
  const RefreshOutcome out = refresher.Refresh();
  EXPECT_TRUE(out.attempted);
  EXPECT_GT(refresher.buffer().added(), 0);
  EXPECT_GE(refresher.refreshes(), 1);
  EXPECT_EQ(refresher.promotions() + refresher.rejections(),
            refresher.refreshes());
  EXPECT_EQ(server.model_version(), refresher.promotions());
}

TEST(CostmodelStress, ConcurrentPredictDuringTrain) {
  static const PlanFeaturizer featurizer(&SharedDb()->context(),
                                         &SharedDb()->planner().estimator());
  LearnedModelOptions options;
  options.epochs = 8;
  LearnedCostModel model(&featurizer, options);

  std::vector<CostSample> corpus;
  for (size_t i = 0; i < 24; ++i) {
    const query::Query& q = Workload()[(i * 5) % Workload().size()];
    const auto planned = SharedDb()->PlanQuery(q);
    CostSample s;
    s.sequence = i;
    s.query_id = q.id;
    s.features = featurizer.Featurize(q, planned.plan);
    s.analytic_cost =
        SharedDb()->planner().EstimatePlanCost(q, planned.plan);
    s.actual_ns =
        static_cast<util::VirtualNanos>(std::max(1.0, 20.0 * s.analytic_cost));
    corpus.push_back(std::move(s));
  }

  std::thread trainer([&] { model.Train(corpus); });
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      for (int i = 0; i < 50; ++i) {
        const double prediction = model.PredictSampleNs(corpus[0]);
        EXPECT_GT(prediction, 0.0);
      }
    });
  }
  trainer.join();
  for (auto& t : readers) t.join();
  EXPECT_GT(model.train_steps(), 0);
}

}  // namespace
}  // namespace lqolab::costmodel
