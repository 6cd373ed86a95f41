// Concurrency stress for mid-query adaptive re-optimization under a
// poisoned estimator (run under ThreadSanitizer via ctest -L stress):
// closed-loop and open-loop submitters hammer one QueryServer with
// DbConfig::adaptive_replan on, every answer must still be the oracle
// answer, and shutdown racing live replans must resolve every future.

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <thread>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "engine/database.h"
#include "faultlib/faultlib.h"
#include "obs/metrics.h"
#include "query/sql_workload.h"
#include "serve/query_server.h"
#include "util/rng.h"

namespace lqolab {
namespace {

using serve::OpenLoopArrival;
using serve::QueryServer;
using serve::RouteMode;
using serve::ServedQuery;
using serve::ServerOptions;

constexpr uint64_t kSeed = 42;

/// Same poison schedule as bench/overload_soak.cpp and test_replan.cc:
/// keyed, so every thread interleaving sees identical estimates.
faultlib::FaultPlan PoisonPlan() {
  faultlib::FaultPlan plan;
  plan.name = "estimate_poison";
  plan.seed = util::MixSeed(kSeed, 0x9e150'7150ull);
  faultlib::FaultRule rule;
  rule.point = "stats.estimate";
  rule.kind = faultlib::FaultKind::kPoison;
  rule.probability = 0.25;
  rule.poison_scale = 1e-4;
  plan.Add(rule);
  return plan;
}

std::unique_ptr<engine::Database> MakeAdaptiveDb() {
  engine::Database::Options options;
  options.profile = datagen::ScaleProfile::Small();
  options.seed = kSeed;
  auto db = engine::Database::CreateImdb(options);
  engine::DbConfig config = db->config();
  config.adaptive_replan = true;
  config.replan_qerror_threshold = 4.0;
  config.replan_min_rows = 1;
  db->SetConfig(config);
  return db;
}

TEST(ReplanStress, ConcurrentMixedSubmittersGetOracleAnswers) {
  const auto db = MakeAdaptiveDb();
  const auto workload = query::LoadWorkload("job", db->schema());

  // Oracle answers from an isolated clean replica (rows are independent of
  // plans, noise, poison and replans — the invariant under test).
  std::unordered_map<std::string, int64_t> expected_rows;
  {
    const auto replica = db->CloneContextForWorker();
    for (size_t i = 0; i < workload.size(); i += 4) {
      const query::Query& q = workload[i];
      const auto planned = replica->PlanQuery(q);
      replica->BeginQueryReplay(db->seed(), q);
      expected_rows[q.id] = replica->ExecutePlan(q, planned.plan).result_rows;
    }
  }

  faultlib::FaultInjector poison(PoisonPlan());
  faultlib::ScopedFaultInjection inject(&poison);

  ServerOptions options;
  options.workers = 4;
  options.route = RouteMode::kPglite;
  options.seed = kSeed;
  options.virtual_workers = 4;
  QueryServer server(db.get(), options);

  // Two closed-loop submitters and two open-loop submitters, interleaved.
  constexpr int kEpochs = 2;
  std::vector<std::vector<std::pair<std::string, std::future<ServedQuery>>>>
      futures(4);
  std::vector<std::thread> submitters;
  submitters.reserve(4);
  for (int t = 0; t < 4; ++t) {
    submitters.emplace_back([&, t] {
      auto& mine = futures[static_cast<size_t>(t)];
      util::VirtualNanos arrival = 0;
      for (int epoch = 0; epoch < kEpochs; ++epoch) {
        for (size_t i = static_cast<size_t>(t); i < workload.size(); i += 8) {
          const query::Query& q = workload[i - (i % 4)];
          if (t < 2) {
            mine.emplace_back(q.id, server.Submit(q));
          } else {
            OpenLoopArrival admission;
            admission.arrival_vt = arrival;
            admission.estimated_service_ns = util::kNanosPerMilli;
            admission.tenant = t;
            arrival += util::kNanosPerMilli;
            mine.emplace_back(q.id, server.SubmitAt(q, admission));
          }
        }
      }
    });
  }
  for (auto& thread : submitters) thread.join();

  int64_t served_count = 0;
  int64_t replanned = 0;
  for (auto& lane : futures) {
    for (auto& [id, future] : lane) {
      const ServedQuery served = future.get();
      ASSERT_TRUE(served.status.ok()) << id << ": "
                                      << served.status.ToString();
      EXPECT_EQ(served.result_rows, expected_rows.at(id)) << id;
      ++served_count;
      if (served.replans > 0) ++replanned;
    }
  }
  EXPECT_GT(served_count, 0);
  // The poison schedule must actually force replans through the server.
  EXPECT_GT(replanned, 0);
  server.Shutdown();

  const obs::MetricsRegistry metrics = server.SnapshotMetrics();
  EXPECT_EQ(metrics.Get(obs::Counter::kServeQueries), served_count);
  EXPECT_GT(metrics.Get(obs::Counter::kServeReplannedQueries), 0);
}

TEST(ReplanStress, ShutdownRacingAdaptiveSubmittersResolvesEveryFuture) {
  const auto db = MakeAdaptiveDb();
  const auto workload = query::LoadWorkload("job", db->schema());

  faultlib::FaultInjector poison(PoisonPlan());
  faultlib::ScopedFaultInjection inject(&poison);

  ServerOptions options;
  options.workers = 4;
  options.queue_capacity = 16;  // Small queue: submitters block mid-race.
  options.route = RouteMode::kPglite;
  options.seed = kSeed;
  QueryServer server(db.get(), options);

  constexpr int kSubmitters = 4;
  constexpr int kPerSubmitter = 30;
  std::vector<std::vector<std::future<ServedQuery>>> futures(kSubmitters);
  std::vector<std::thread> submitters;
  submitters.reserve(kSubmitters);
  for (int t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&, t] {
      auto& mine = futures[static_cast<size_t>(t)];
      mine.reserve(kPerSubmitter);
      for (int i = 0; i < kPerSubmitter; ++i) {
        const query::Query& q =
            workload[static_cast<size_t>(t * kPerSubmitter + i) %
                     workload.size()];
        if (t % 2 == 0) {
          mine.push_back(server.Submit(q));
        } else {
          OpenLoopArrival admission;
          admission.arrival_vt =
              static_cast<util::VirtualNanos>(i) * util::kNanosPerMilli;
          admission.estimated_service_ns = util::kNanosPerMilli;
          mine.push_back(server.SubmitAt(q, admission));
        }
      }
    });
  }
  // Shut down while submitters are still pushing and workers are mid-replan:
  // every future must resolve, with a real answer or an explicit kShutdown.
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  server.Shutdown();
  for (auto& thread : submitters) thread.join();

  int64_t completed = 0;
  int64_t refused = 0;
  int64_t queue_full = 0;
  for (auto& lane : futures) {
    for (auto& future : lane) {
      const ServedQuery served = future.get();
      if (served.status.ok()) {
        ++completed;
        EXPECT_GE(served.result_rows, 0);
      } else if (served.status.code() == util::StatusCode::kShutdown) {
        ++refused;
      } else {
        // SubmitAt never blocks: a full queue resolves immediately instead
        // of backpressuring the arrival process (open-loop semantics).
        ASSERT_EQ(served.status.code(), util::StatusCode::kResourceExhausted)
            << served.status.ToString();
        ++queue_full;
      }
    }
  }
  EXPECT_EQ(completed + refused + queue_full, kSubmitters * kPerSubmitter);

  const obs::MetricsRegistry metrics = server.SnapshotMetrics();
  EXPECT_EQ(metrics.Get(obs::Counter::kServeQueries) +
                metrics.Get(obs::Counter::kServeShutdownDropped),
            completed + refused);
}

}  // namespace
}  // namespace lqolab
