// Concurrency stress tests for the serve/ subsystem, built to run under
// ThreadSanitizer (-DLQOLAB_SANITIZE=thread, ctest -L stress): hammer the
// sharded plan cache from many threads, check the hot-swap slot never
// serves a torn snapshot, and swap models under live serving load.

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <thread>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "engine/database.h"
#include "lqo/native_passthrough.h"
#include "obs/metrics.h"
#include "query/sql_workload.h"
#include "serve/hot_swap.h"
#include "serve/plan_cache.h"
#include "serve/query_server.h"
#include "util/rng.h"

namespace lqolab {
namespace {

using serve::CachedPlan;
using serve::PlanCache;
using serve::PlanCacheOptions;
using serve::QueryServer;
using serve::RouteMode;
using serve::ServedQuery;
using serve::ServerOptions;

TEST(ServeStress, PlanCacheConcurrentInsertLookup) {
  PlanCacheOptions options;
  options.shards = 4;
  options.capacity_per_shard = 8;
  PlanCache cache(options);

  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 4000;
  constexpr uint64_t kKeySpace = 96;  // 3x capacity: constant eviction churn

  std::vector<obs::MetricsRegistry> registries(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      obs::MetricsScope scope(&registries[static_cast<size_t>(t)]);
      util::Rng rng(util::MixSeed(42, static_cast<uint64_t>(t)));
      for (int op = 0; op < kOpsPerThread; ++op) {
        const uint64_t key = rng.Next() % kKeySpace;
        if (const auto hit = cache.Lookup(key)) {
          // Payload integrity: a plan fetched under churn still carries the
          // marker its inserter wrote for this key.
          EXPECT_EQ(hit->estimated_cost, static_cast<double>(key));
        } else {
          CachedPlan marked;
          marked.estimated_cost = static_cast<double>(key);
          cache.Insert(key,
                       std::make_shared<const CachedPlan>(std::move(marked)));
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_LE(cache.size(), 4 * 8);
  obs::MetricsRegistry merged;
  for (const auto& registry : registries) merged.MergeFrom(registry);
  // Every lookup was either a hit or a miss, and every miss inserted.
  EXPECT_EQ(merged.Get(obs::Counter::kPlanCacheHits) +
                merged.Get(obs::Counter::kPlanCacheMisses),
            kThreads * kOpsPerThread);
  EXPECT_GT(merged.Get(obs::Counter::kPlanCacheEvictions), 0);
}

TEST(ServeStress, HotSwapSnapshotsAreNeverTorn) {
  // The payload encodes its own version; a torn read (pointer from one
  // publish, version from another) would break the equality.
  struct Payload {
    uint64_t a;
    uint64_t b;
  };
  serve::HotSwapSlot<const Payload> slot;

  constexpr int kReaders = 4;
  constexpr uint64_t kPublishes = 20000;
  std::atomic<bool> done{false};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      uint64_t last_version = 0;
      while (!done.load(std::memory_order_acquire)) {
        const auto snapshot = slot.Acquire();
        if (snapshot.value == nullptr) continue;
        EXPECT_EQ(snapshot.value->a, snapshot.value->b);
        EXPECT_EQ(snapshot.value->a, snapshot.version);
        // Versions only move forward for any single reader.
        EXPECT_GE(snapshot.version, last_version);
        last_version = snapshot.version;
      }
    });
  }
  for (uint64_t i = 1; i <= kPublishes; ++i) {
    const uint64_t version =
        slot.Publish(std::make_shared<const Payload>(Payload{i, i}));
    EXPECT_EQ(version, i);
  }
  done.store(true, std::memory_order_release);
  for (auto& reader : readers) reader.join();
  EXPECT_EQ(slot.version(), kPublishes);
}

TEST(ServeStress, ModelSwapUnderServingLoad) {
  engine::Database::Options db_options;
  db_options.profile = datagen::ScaleProfile::Small();
  db_options.seed = 42;
  const auto db = engine::Database::CreateImdb(db_options);
  const auto workload = query::LoadWorkload("job", db->schema());

  // Per-query oracle answers, computed on an isolated replica with the same
  // replay protocol the server uses.
  std::unordered_map<std::string, int64_t> expected_rows;
  {
    const auto replica = db->CloneContextForWorker();
    for (size_t i = 0; i < workload.size(); i += 4) {
      const query::Query& q = workload[i];
      const auto planned = replica->PlanQuery(q);
      replica->BeginQueryReplay(db->seed(), q, /*salt=*/0);
      expected_rows[q.id] =
          replica->ExecutePlan(q, planned.plan, planned.planning_ns)
              .result_rows;
    }
  }

  ServerOptions options;
  options.workers = 4;
  options.route = RouteMode::kLqo;
  QueryServer server(db.get(), options);
  server.PublishModel(std::make_shared<lqo::NativePassthroughOptimizer>());

  // Swap models continuously while queries stream through the server.
  std::atomic<bool> stop_swapping{false};
  std::thread swapper([&] {
    while (!stop_swapping.load(std::memory_order_acquire)) {
      server.PublishModel(std::make_shared<lqo::NativePassthroughOptimizer>());
      std::this_thread::yield();
    }
  });

  std::vector<std::pair<std::string, std::future<ServedQuery>>> futures;
  for (int epoch = 0; epoch < 3; ++epoch) {
    for (size_t i = 0; i < workload.size(); i += 4) {
      futures.emplace_back(workload[i].id, server.Submit(workload[i]));
    }
  }
  for (auto& [id, future] : futures) {
    const ServedQuery served = future.get();
    // Every query must return the oracle answer no matter which model
    // snapshot planned it (the passthrough always plans natively, and
    // result rows are noise-independent).
    EXPECT_EQ(served.result_rows, expected_rows.at(id)) << id;
    EXPECT_FALSE(served.fell_back);
  }
  stop_swapping.store(true, std::memory_order_release);
  swapper.join();
  server.Drain();

  const obs::MetricsRegistry metrics = server.SnapshotMetrics();
  EXPECT_EQ(metrics.Get(obs::Counter::kServeQueries),
            static_cast<int64_t>(futures.size()));
  EXPECT_GT(server.model_version(), 1u);
}

TEST(ServeStress, ShutdownRacingSubmittersResolvesEveryFuture) {
  engine::Database::Options db_options;
  db_options.profile = datagen::ScaleProfile::Small();
  db_options.seed = 42;
  const auto db = engine::Database::CreateImdb(db_options);
  const auto workload = query::LoadWorkload("job", db->schema());

  ServerOptions options;
  options.workers = 4;
  options.queue_capacity = 16;  // Small queue: submitters block mid-race.
  QueryServer server(db.get(), options);

  constexpr int kSubmitters = 6;
  constexpr int kPerSubmitter = 40;
  std::vector<std::vector<std::future<ServedQuery>>> futures(kSubmitters);
  std::vector<std::thread> submitters;
  submitters.reserve(kSubmitters);
  for (int t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&, t] {
      auto& mine = futures[static_cast<size_t>(t)];
      mine.reserve(kPerSubmitter);
      for (int i = 0; i < kPerSubmitter; ++i) {
        mine.push_back(server.Submit(
            workload[static_cast<size_t>(t * kPerSubmitter + i) %
                     workload.size()]));
      }
    });
  }
  // Shut down while submitters are still pushing: some queries complete,
  // some drain, some are refused at admission — but every future must
  // resolve, with either a real answer or an explicit kShutdown.
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  server.Shutdown();
  for (auto& thread : submitters) thread.join();

  int64_t completed = 0;
  int64_t refused = 0;
  for (auto& lane : futures) {
    for (auto& future : lane) {
      const ServedQuery served = future.get();
      if (served.status.ok()) {
        ++completed;
        EXPECT_GE(served.result_rows, 0);
      } else {
        ASSERT_EQ(served.status.code(), util::StatusCode::kShutdown)
            << served.status.ToString();
        ++refused;
        EXPECT_EQ(served.result_rows, 0);
      }
    }
  }
  EXPECT_EQ(completed + refused, kSubmitters * kPerSubmitter);

  // Ticket accounting: every admitted query was either processed once or
  // surfaced as an explicit shutdown drop — none vanished.
  const obs::MetricsRegistry metrics = server.SnapshotMetrics();
  EXPECT_EQ(metrics.Get(obs::Counter::kServeQueries) +
                metrics.Get(obs::Counter::kServeShutdownDropped),
            kSubmitters * kPerSubmitter);

  // Shutdown is idempotent, and late admissions still resolve.
  server.Shutdown();
  EXPECT_EQ(server.Submit(workload[0]).get().status.code(),
            util::StatusCode::kShutdown);
}

}  // namespace
}  // namespace lqolab
