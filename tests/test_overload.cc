// Tests for the open-loop overload harness (docs/overload.md): the seeded
// arrival generator (rate shapes, tenant mixes, Zipf skew, determinism),
// the SLO accountant's outcome taxonomy, the deterministic G/G/k virtual
// dispatcher, QueryServer::SubmitAt admission (rejection, shedding,
// deadline stamping at arrival), deterministic half-open breaker probes,
// and the end-to-end OpenLoopRunner reproducibility guarantee.

#include <algorithm>
#include <cmath>
#include <future>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/database.h"
#include "loadgen/arrival.h"
#include "loadgen/open_loop.h"
#include "loadgen/slo.h"
#include "obs/metrics.h"
#include "query/sql_workload.h"
#include "serve/circuit_breaker.h"
#include "serve/dispatcher.h"
#include "serve/query_server.h"
#include "util/virtual_clock.h"

namespace lqolab {
namespace {

using loadgen::Arrival;
using loadgen::ArrivalGenerator;
using loadgen::RateProfile;
using loadgen::SloAccountant;
using loadgen::SloReport;
using loadgen::TenantSpec;
using serve::CircuitBreaker;
using serve::CircuitBreakerOptions;
using serve::OpenLoopArrival;
using serve::OpenLoopCompletion;
using serve::QueryServer;
using serve::ServedQuery;
using serve::ServerOptions;
using serve::VirtualDispatcher;
using util::kNanosPerSecond;
using util::VirtualNanos;

std::vector<TenantSpec> TwoTenants() {
  return {
      {"hot", /*weight=*/3.0, /*zipf_s=*/1.5, /*deadline=*/0},
      {"flat", /*weight=*/1.0, /*zipf_s=*/0.0, /*deadline=*/0},
  };
}

TEST(RateProfile, ShapesAndEnvelope) {
  const RateProfile constant = RateProfile::Constant(50.0);
  EXPECT_DOUBLE_EQ(constant.QpsAt(0), 50.0);
  EXPECT_DOUBLE_EQ(constant.QpsAt(kNanosPerSecond), 50.0);
  EXPECT_DOUBLE_EQ(constant.MaxQps(), 50.0);

  const RateProfile diurnal =
      RateProfile::Diurnal(100.0, 0.5, 60 * kNanosPerSecond);
  // Peak at a quarter period (sin = 1), trough at three quarters.
  EXPECT_NEAR(diurnal.QpsAt(15 * kNanosPerSecond), 150.0, 1e-6);
  EXPECT_NEAR(diurnal.QpsAt(45 * kNanosPerSecond), 50.0, 1e-6);
  EXPECT_NEAR(diurnal.MaxQps(), 150.0, 1e-6);

  const RateProfile burst = RateProfile::Burst(
      10.0, 5.0, 10 * kNanosPerSecond, kNanosPerSecond);
  EXPECT_DOUBLE_EQ(burst.QpsAt(0), 50.0);  // Inside the window.
  EXPECT_DOUBLE_EQ(burst.QpsAt(5 * kNanosPerSecond), 10.0);
  EXPECT_DOUBLE_EQ(burst.MaxQps(), 50.0);
}

TEST(ArrivalGenerator, DeterministicAndSorted) {
  ArrivalGenerator gen_a(RateProfile::Constant(200.0), TwoTenants(),
                         /*workload_size=*/50, /*seed=*/7);
  ArrivalGenerator gen_b(RateProfile::Constant(200.0), TwoTenants(),
                         /*workload_size=*/50, /*seed=*/7);
  const auto a = gen_a.Generate(5 * kNanosPerSecond);
  const auto b = gen_b.Generate(5 * kNanosPerSecond);
  ASSERT_EQ(a.size(), b.size());
  ASSERT_FALSE(a.empty());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].at, b[i].at);
    EXPECT_EQ(a[i].tenant, b[i].tenant);
    EXPECT_EQ(a[i].query_index, b[i].query_index);
    if (i > 0) {
      EXPECT_GE(a[i].at, a[i - 1].at);
    }
    EXPECT_GE(a[i].at, 0);
    EXPECT_LT(a[i].at, 5 * kNanosPerSecond);
  }

  // A different seed reshuffles the stream.
  ArrivalGenerator gen_c(RateProfile::Constant(200.0), TwoTenants(),
                         /*workload_size=*/50, /*seed=*/8);
  const auto c = gen_c.Generate(5 * kNanosPerSecond);
  bool any_different = c.size() != a.size();
  for (size_t i = 0; !any_different && i < a.size(); ++i) {
    any_different = a[i].at != c[i].at;
  }
  EXPECT_TRUE(any_different);
}

TEST(ArrivalGenerator, RateMatchesProfile) {
  // 200 qps over 20 virtual seconds: expect ~4000 arrivals; Poisson sd is
  // ~63, so +-5 sd is a safe deterministic band for one fixed seed.
  ArrivalGenerator gen(RateProfile::Constant(200.0), TwoTenants(),
                       /*workload_size=*/50, /*seed=*/42);
  const auto arrivals = gen.Generate(20 * kNanosPerSecond);
  EXPECT_GT(arrivals.size(), 3650u);
  EXPECT_LT(arrivals.size(), 4350u);
}

TEST(ArrivalGenerator, BurstWindowsConcentrateArrivals) {
  // 10 qps baseline, 8x inside a 1s window every 10s: the window holds
  // ~44% of all arrivals despite covering 10% of the horizon.
  ArrivalGenerator gen(
      RateProfile::Burst(10.0, 8.0, 10 * kNanosPerSecond, kNanosPerSecond),
      TwoTenants(), /*workload_size=*/50, /*seed=*/42);
  const auto arrivals = gen.Generate(40 * kNanosPerSecond);
  ASSERT_FALSE(arrivals.empty());
  int64_t inside = 0;
  for (const Arrival& a : arrivals) {
    if (a.at % (10 * kNanosPerSecond) < kNanosPerSecond) ++inside;
  }
  const double inside_share =
      static_cast<double>(inside) / static_cast<double>(arrivals.size());
  EXPECT_GT(inside_share, 0.3);
}

TEST(ArrivalGenerator, TenantMixAndSkew) {
  ArrivalGenerator gen(RateProfile::Constant(500.0), TwoTenants(),
                       /*workload_size=*/40, /*seed=*/42);
  EXPECT_NEAR(gen.TenantShare(0), 0.75, 1e-9);
  EXPECT_NEAR(gen.TenantShare(1), 0.25, 1e-9);

  const auto arrivals = gen.Generate(20 * kNanosPerSecond);
  ASSERT_GT(arrivals.size(), 1000u);
  int64_t hot = 0;
  std::vector<int64_t> hot_counts(40, 0);
  for (const Arrival& a : arrivals) {
    ASSERT_GE(a.query_index, 0);
    ASSERT_LT(a.query_index, 40);
    if (a.tenant == 0) {
      ++hot;
      ++hot_counts[static_cast<size_t>(a.query_index)];
    }
  }
  const double hot_share =
      static_cast<double>(hot) / static_cast<double>(arrivals.size());
  EXPECT_NEAR(hot_share, 0.75, 0.05);

  // Zipf s=1.5: the hot tenant's most popular query carries far more mass
  // than uniform (1/40), and the generator's stated probabilities match.
  const int64_t top =
      *std::max_element(hot_counts.begin(), hot_counts.end());
  EXPECT_GT(static_cast<double>(top) / static_cast<double>(hot), 0.2);
  double mass = 0.0;
  for (int32_t i = 0; i < 40; ++i) mass += gen.QueryProbability(0, i);
  EXPECT_NEAR(mass, 1.0, 1e-9);
  // The flat tenant is uniform.
  EXPECT_NEAR(gen.QueryProbability(1, 0), 1.0 / 40.0, 1e-9);
  EXPECT_NEAR(gen.QueryProbability(1, 39), 1.0 / 40.0, 1e-9);
}

TEST(ArrivalGenerator, TenantHotSetsAreDisjointPermutations) {
  // Two equally-skewed tenants favour different queries: the per-tenant
  // seeded permutation decorrelates their hot sets.
  std::vector<TenantSpec> tenants = {
      {"a", 1.0, 1.5, 0},
      {"b", 1.0, 1.5, 0},
  };
  ArrivalGenerator gen(RateProfile::Constant(100.0), tenants,
                       /*workload_size=*/100, /*seed=*/42);
  int32_t top_a = 0, top_b = 0;
  double best_a = -1.0, best_b = -1.0;
  for (int32_t i = 0; i < 100; ++i) {
    if (gen.QueryProbability(0, i) > best_a) {
      best_a = gen.QueryProbability(0, i);
      top_a = i;
    }
    if (gen.QueryProbability(1, i) > best_b) {
      best_b = gen.QueryProbability(1, i);
      top_b = i;
    }
  }
  EXPECT_NE(top_a, top_b);
}

ServedQuery MakeServed(int32_t tenant, VirtualNanos queue_wait,
                       VirtualNanos exec) {
  ServedQuery served;
  served.status = util::Status::Ok();
  served.tenant = tenant;
  served.queue_wait_ns = queue_wait;
  served.execution_ns = exec;
  return served;
}

TEST(SloAccountant, OutcomeTaxonomyAndRates) {
  SloAccountant acct({"alpha", "beta"});

  // Tenant 0: two ok (one missed deadline), one shed.
  ServedQuery ok1 = MakeServed(0, 1'000'000, 9'000'000);
  ok1.completion_vt = 10'000'000;
  acct.Record(ok1);
  ServedQuery ok2 = MakeServed(0, 2'000'000, 18'000'000);
  ok2.completion_vt = 20'000'000;
  ok2.deadline_missed = true;
  ok2.replans = 1;
  acct.Record(ok2);
  ServedQuery shed = MakeServed(0, 0, 0);
  shed.status = util::Status(util::StatusCode::kUnavailable, "shed");
  shed.shed = true;
  acct.Record(shed);

  // Tenant 1: one rejected, one timed out, one failed.
  ServedQuery rejected = MakeServed(1, 0, 0);
  rejected.status =
      util::Status(util::StatusCode::kResourceExhausted, "queue full");
  rejected.rejected = true;
  acct.Record(rejected);
  ServedQuery timed_out = MakeServed(1, 0, 50'000'000);
  timed_out.status =
      util::Status(util::StatusCode::kDeadlineExceeded, "statement timeout");
  timed_out.timed_out = true;
  acct.Record(timed_out);
  ServedQuery failed = MakeServed(1, 0, 0);
  failed.status = util::Status(util::StatusCode::kInternal, "boom");
  acct.Record(failed);

  EXPECT_EQ(acct.recorded(), 6);
  const SloReport report = acct.Report(/*horizon_ns=*/2 * kNanosPerSecond);

  ASSERT_EQ(report.tenants.size(), 2u);
  const loadgen::TenantSlo& alpha = report.tenants[0];
  EXPECT_EQ(alpha.name, "alpha");
  EXPECT_EQ(alpha.offered, 3);
  EXPECT_EQ(alpha.ok, 2);
  EXPECT_EQ(alpha.shed, 1);
  EXPECT_EQ(alpha.deadline_missed, 1);
  EXPECT_EQ(alpha.replans, 1);
  // Goodput only credits on-time completions: (2 ok - 1 missed) / 2s.
  EXPECT_NEAR(alpha.goodput_qps, 0.5, 1e-9);
  EXPECT_NEAR(alpha.miss_rate, 0.5, 1e-9);
  // Latencies: 10ms and 20ms totals; p50 interpolates the midpoint.
  EXPECT_NEAR(alpha.p99_total_ms, 20.0, 0.5);

  const loadgen::TenantSlo& beta = report.tenants[1];
  EXPECT_EQ(beta.offered, 3);
  EXPECT_EQ(beta.ok, 0);
  EXPECT_EQ(beta.rejected, 1);
  EXPECT_EQ(beta.timed_out, 1);
  EXPECT_EQ(beta.failed, 1);
  EXPECT_NEAR(beta.goodput_qps, 0.0, 1e-9);

  const loadgen::TenantSlo& all = report.aggregate;
  EXPECT_EQ(all.offered, 6);
  EXPECT_EQ(all.ok, 2);
  EXPECT_EQ(all.shed + all.rejected + all.timed_out + all.failed, 4);
}

OpenLoopCompletion MakeCompletion(VirtualNanos arrival, VirtualNanos service,
                                  VirtualNanos deadline_vt = 0) {
  OpenLoopCompletion completion;
  completion.arrival_vt = arrival;
  completion.service_ns = service;
  completion.deadline_vt = deadline_vt;
  completion.served.status = util::Status::Ok();
  return completion;
}

TEST(VirtualDispatcher, HandComputedGG1PlacementOutOfOrder) {
  // k=1, three admissions. Arrivals at 0, 10, 100; services 30, 20, 5.
  //   seq 0: start 0,  done 30 (wait 0)
  //   seq 1: start 30, done 50 (wait 20)
  //   seq 2: start 100, done 105 (wait 0)
  VirtualDispatcher dispatcher(/*virtual_workers=*/1);
  std::future<ServedQuery> f0, f1, f2;
  {
    OpenLoopCompletion c0 = MakeCompletion(0, 30);
    OpenLoopCompletion c1 = MakeCompletion(10, 20, /*deadline_vt=*/45);
    OpenLoopCompletion c2 = MakeCompletion(100, 5);
    f0 = c0.promise.get_future();
    f1 = c1.promise.get_future();
    f2 = c2.promise.get_future();
    // Report completions out of admission order: the dispatcher must
    // buffer seq 1 and 2 until seq 0 lands, then place all three FIFO.
    dispatcher.Complete(2, std::move(c2));
    dispatcher.Complete(1, std::move(c1));
    EXPECT_EQ(dispatcher.finalized(), 0);
    dispatcher.Complete(0, std::move(c0));
  }
  const ServedQuery s0 = f0.get();
  const ServedQuery s1 = f1.get();
  const ServedQuery s2 = f2.get();
  EXPECT_EQ(s0.queue_wait_ns, 0);
  EXPECT_EQ(s0.completion_vt, 30);
  EXPECT_FALSE(s0.deadline_missed);
  EXPECT_EQ(s1.queue_wait_ns, 20);
  EXPECT_EQ(s1.completion_vt, 50);
  EXPECT_TRUE(s1.deadline_missed);  // 50 > deadline 45.
  EXPECT_EQ(s2.queue_wait_ns, 0);
  EXPECT_EQ(s2.completion_vt, 105);
  EXPECT_EQ(dispatcher.finalized(), 3);
  EXPECT_EQ(dispatcher.deadline_missed(), 1);
  EXPECT_EQ(dispatcher.horizon(), 105);
}

TEST(VirtualDispatcher, ParallelWorkersOverlap) {
  // k=2: both arrivals at t=0 start immediately on distinct workers.
  VirtualDispatcher dispatcher(/*virtual_workers=*/2);
  OpenLoopCompletion c0 = MakeCompletion(0, 40);
  OpenLoopCompletion c1 = MakeCompletion(0, 10);
  auto f0 = c0.promise.get_future();
  auto f1 = c1.promise.get_future();
  dispatcher.Complete(0, std::move(c0));
  dispatcher.Complete(1, std::move(c1));
  EXPECT_EQ(f0.get().completion_vt, 40);
  const ServedQuery s1 = f1.get();
  EXPECT_EQ(s1.queue_wait_ns, 0);
  EXPECT_EQ(s1.completion_vt, 10);
}

TEST(CircuitBreaker, ProbeSpacingSelectsDeterministically) {
  // probe_spacing=3: in half-open, requests 0, 3, 6, ... are probes no
  // matter how long earlier probes stay unreported — selection is a pure
  // function of the request index, not of outcome timing.
  CircuitBreakerOptions options;
  options.failure_threshold = 1;
  options.open_requests = 2;
  options.probe_successes = 100;  // Stay half-open for the whole test.
  options.probe_spacing = 3;
  CircuitBreaker breaker(options);

  ASSERT_TRUE(breaker.AllowRequest());
  breaker.RecordFailure();  // Trip.
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_FALSE(breaker.AllowRequest());
  // open_requests elapsed: this request transitions to half-open and is
  // itself admitted as the window's index-0 probe.
  EXPECT_TRUE(breaker.AllowRequest());
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);

  std::vector<bool> admitted;
  for (int i = 0; i < 9; ++i) {
    admitted.push_back(breaker.AllowRequest());
    EXPECT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);
  }
  // Window indices 1..9: probes at 3, 6, 9 — with NO outcome reported in
  // between, which under the classic one-at-a-time policy would have
  // admitted none (the index-0 probe is still in flight).
  const std::vector<bool> expected = {false, false, true,  false, false,
                                      true,  false, false, true};
  EXPECT_EQ(admitted, expected);
  // Resolve the probes (protocol: every true must be paired).
  breaker.RecordSuccess();
  breaker.RecordSuccess();
  breaker.RecordSuccess();
  breaker.RecordSuccess();
}

/// One small database shared by the server-level tests.
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

TEST(SubmitAt, QueueFullRejectsInsteadOfBlocking) {
  ServerOptions options;
  options.workers = 1;
  options.queue_capacity = 1;
  options.virtual_workers = 1;
  QueryServer server(SharedDb(), options);

  // Flood far beyond the queue: open-loop admission must never block the
  // arrival process, so overflow resolves as explicit rejections.
  std::vector<std::future<ServedQuery>> futures;
  for (int i = 0; i < 64; ++i) {
    OpenLoopArrival arrival;
    arrival.arrival_vt = static_cast<VirtualNanos>(i);
    futures.push_back(server.SubmitAt(Workload()[0], arrival));
  }
  int64_t ok = 0, rejected = 0;
  for (auto& future : futures) {
    const ServedQuery served = future.get();
    if (served.rejected) {
      EXPECT_EQ(served.status.code(), util::StatusCode::kResourceExhausted);
      EXPECT_TRUE(served.status.retryable());
      ++rejected;
    } else if (served.status.ok()) {
      ++ok;
    }
  }
  EXPECT_EQ(ok + rejected, 64);
  EXPECT_GT(ok, 0);
  EXPECT_GT(rejected, 0);
  // Every refusal is counted once, on the server's own registry.
  EXPECT_EQ(server.SnapshotMetrics().Get(obs::Counter::kServeRejected),
            rejected);
}

TEST(SubmitAt, ShedsPredictedDeadlineMisses) {
  ServerOptions options;
  options.workers = 2;
  options.queue_capacity = 256;
  options.virtual_workers = 1;
  options.shed_on_predicted_miss = true;
  QueryServer server(SharedDb(), options);

  // All arrivals at t=0 with a budget of 3 service times: the predictor
  // (fed estimated_service_ns = 1ms each) can fit ~3 in the budget on one
  // virtual worker and must shed the rest at admission.
  std::vector<std::future<ServedQuery>> futures;
  for (int i = 0; i < 16; ++i) {
    OpenLoopArrival arrival;
    arrival.arrival_vt = 0;
    arrival.deadline_budget_ns = 3'000'000;
    arrival.estimated_service_ns = 1'000'000;
    futures.push_back(server.SubmitAt(Workload()[0], arrival));
  }
  int64_t shed = 0, admitted = 0;
  for (auto& future : futures) {
    const ServedQuery served = future.get();
    if (served.shed) {
      EXPECT_EQ(served.status.code(), util::StatusCode::kUnavailable);
      EXPECT_EQ(served.result_rows, 0);
      ++shed;
    } else {
      ++admitted;
    }
  }
  EXPECT_EQ(shed + admitted, 16);
  EXPECT_GE(shed, 10);  // Budget fits ~3 estimated services.
  EXPECT_GT(admitted, 0);
}

TEST(SubmitAt, DeadlineStampedAtArrivalCountsQueueWait) {
  ServerOptions options;
  options.workers = 2;
  options.queue_capacity = 256;
  options.virtual_workers = 1;  // Serialize: later admissions queue.
  QueryServer server(SharedDb(), options);

  // Same arrival instant, tight budget, no shedding: the first admission
  // meets its deadline, the ones behind it in the virtual queue miss
  // theirs purely from queue wait.
  std::vector<std::future<ServedQuery>> futures;
  for (int i = 0; i < 8; ++i) {
    OpenLoopArrival arrival;
    arrival.arrival_vt = 0;
    arrival.deadline_budget_ns = 1;  // Nothing but the first can make it.
    arrival.tenant = i % 3;
    futures.push_back(server.SubmitAt(Workload()[0], arrival));
  }
  int64_t missed = 0;
  VirtualNanos last_completion = 0;
  for (auto& future : futures) {
    const ServedQuery served = future.get();
    ASSERT_TRUE(served.status.ok()) << served.status.ToString();
    EXPECT_EQ(served.completion_vt,
              served.arrival_vt + served.total_latency_ns());
    EXPECT_GE(served.completion_vt, last_completion);  // FIFO on k=1.
    last_completion = served.completion_vt;
    if (served.deadline_missed) ++missed;
  }
  EXPECT_GE(missed, 7);
}

TEST(OpenLoopRunner, EndToEndDeterministicFingerprint) {
  loadgen::OpenLoopRunner runner(SharedDb(), Workload());
  loadgen::OpenLoopOptions options;
  options.offered_multiple = 1.2;
  options.tenants = TwoTenants();
  options.target_arrivals = 60;
  options.deadline_service_multiple = 4.0;
  options.virtual_workers = 2;
  options.real_workers = 2;
  options.shed_on_predicted_miss = true;
  options.seed = 42;

  const loadgen::OpenLoopResult first = runner.Run(options);
  EXPECT_GT(first.arrivals, 0);
  EXPECT_GT(first.capacity_qps, 0.0);
  EXPECT_EQ(first.report.aggregate.offered, first.arrivals);

  // Same options, different real worker count: every virtual metric and
  // the completion fingerprint must be bit-identical (the dispatcher
  // decouples virtual placement from thread scheduling).
  loadgen::OpenLoopOptions wider = options;
  wider.real_workers = 4;
  const loadgen::OpenLoopResult second = runner.Run(wider);
  EXPECT_EQ(first.fingerprint, second.fingerprint);
  EXPECT_EQ(first.arrivals, second.arrivals);
  EXPECT_EQ(first.report.aggregate.ok, second.report.aggregate.ok);
  EXPECT_EQ(first.report.aggregate.shed, second.report.aggregate.shed);
  EXPECT_EQ(first.report.aggregate.deadline_missed,
            second.report.aggregate.deadline_missed);
  EXPECT_DOUBLE_EQ(first.report.aggregate.p99_total_ms,
                   second.report.aggregate.p99_total_ms);
}

}  // namespace
}  // namespace lqolab
