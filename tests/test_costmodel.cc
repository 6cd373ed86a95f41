// Unit tests for the costmodel/ subsystem: q-error semantics, the plan
// featurizer, the deterministic replay buffer, analytic calibration,
// bit-deterministic MLP training, trace round-trip with corrupt-line
// hardening, the promotion gate (including refusing a poisoned candidate),
// drift detection tripping the serving breaker, and the end-to-end
// harvest->refresh determinism contract across serve worker counts.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <random>
#include <string>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "costmodel/cost_model.h"
#include "costmodel/features.h"
#include "costmodel/guided_optimizer.h"
#include "costmodel/learned_model.h"
#include "costmodel/online_refresh.h"
#include "costmodel/replay_buffer.h"
#include "costmodel/trace_ingest.h"
#include "engine/database.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "optimizer/plan_hint.h"
#include "query/sql_workload.h"
#include "serve/query_server.h"

namespace lqolab::costmodel {
namespace {

/// One small database shared by every test in this binary (read-only from
/// the tests' perspective; servers execute on worker replicas).
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

PlanFeaturizer MakeFeaturizer() {
  return PlanFeaturizer(&SharedDb()->context(),
                        &SharedDb()->planner().estimator());
}

/// Native plan + analytic cost for a workload query.
struct PlannedSample {
  query::Query q;
  optimizer::PhysicalPlan plan;
  double analytic_cost = 0.0;
};

PlannedSample PlanOf(size_t index) {
  PlannedSample out;
  out.q = Workload()[index];
  out.plan = SharedDb()->PlanQuery(out.q).plan;
  out.analytic_cost = SharedDb()->planner().EstimatePlanCost(out.q, out.plan);
  return out;
}

// ---------------------------------------------------------------------------
// QError

TEST(QError, SymmetricAndScaleFree) {
  EXPECT_DOUBLE_EQ(QError(10.0, 10.0), 1.0);
  EXPECT_DOUBLE_EQ(QError(20.0, 10.0), 2.0);
  EXPECT_DOUBLE_EQ(QError(10.0, 20.0), 2.0);
  EXPECT_DOUBLE_EQ(QError(1.0, 1000.0), 1000.0);
}

TEST(QError, DegenerateInputsAreMaximallyWrong) {
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(QError(0.0, 10.0), inf);
  EXPECT_EQ(QError(-5.0, 10.0), inf);
  EXPECT_EQ(QError(10.0, 0.0), inf);
  EXPECT_EQ(QError(std::nan(""), 10.0), inf);
  EXPECT_EQ(QError(inf, 10.0), inf);
}

TEST(QError, MedianOverEmptySamplesIsInfinite) {
  AnalyticCostModel model(&SharedDb()->planner());
  EXPECT_EQ(MedianSampleQError(model, {}),
            std::numeric_limits<double>::infinity());
}

// ---------------------------------------------------------------------------
// PlanFeaturizer

TEST(PlanFeaturizerTest, FixedWidthDeterministicAndFinite) {
  const PlanFeaturizer featurizer = MakeFeaturizer();
  EXPECT_GT(featurizer.dim(), PlanFeaturizer::kShapeFeatures);

  const PlannedSample a = PlanOf(0);
  const std::vector<float> fa = featurizer.Featurize(a.q, a.plan);
  ASSERT_EQ(static_cast<int32_t>(fa.size()), featurizer.dim());
  for (const float v : fa) EXPECT_TRUE(std::isfinite(v));
  EXPECT_EQ(featurizer.Featurize(a.q, a.plan), fa);

  // A structurally different query maps to a different point.
  const PlannedSample b = PlanOf(40);
  EXPECT_NE(featurizer.Featurize(b.q, b.plan), fa);
}

// ---------------------------------------------------------------------------
// ReplayBuffer

CostSample SeqSample(uint64_t sequence, double actual = 100.0) {
  CostSample s;
  s.sequence = sequence;
  s.query_id = std::string("q").append(std::to_string(sequence));
  s.features = {1.0f, 2.0f};
  s.actual_ns = static_cast<util::VirtualNanos>(actual);
  s.analytic_cost = actual / 2.0;
  return s;
}

TEST(ReplayBufferTest, BoundedKeepsLargestSequences) {
  ReplayBufferOptions options;
  options.capacity = 4;
  ReplayBuffer buffer(options);
  for (uint64_t seq = 1; seq <= 10; ++seq) buffer.Add(SeqSample(seq));
  EXPECT_EQ(buffer.size(), 4);
  EXPECT_EQ(buffer.added(), 10);
  EXPECT_EQ(buffer.dropped(), 6);
  const std::vector<CostSample> snapshot = buffer.SnapshotSorted();
  ASSERT_EQ(snapshot.size(), 4u);
  for (size_t i = 0; i < snapshot.size(); ++i) {
    EXPECT_EQ(snapshot[i].sequence, 7 + i);
  }
}

TEST(ReplayBufferTest, RetainedSetIsInsertionOrderIndependent) {
  // The worker-count-determinism keystone: the retained set and its
  // snapshot order depend only on WHICH sequences were admitted, never on
  // the completion order they arrived in.
  ReplayBufferOptions options;
  options.capacity = 8;
  std::vector<uint64_t> sequences;
  for (uint64_t seq = 1; seq <= 20; ++seq) sequences.push_back(seq);

  ReplayBuffer forward(options);
  for (const uint64_t seq : sequences) forward.Add(SeqSample(seq));

  std::mt19937_64 rng(7);
  std::shuffle(sequences.begin(), sequences.end(), rng);
  ReplayBuffer shuffled(options);
  for (const uint64_t seq : sequences) shuffled.Add(SeqSample(seq));

  const auto a = forward.SnapshotSorted();
  const auto b = shuffled.SnapshotSorted();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].sequence, b[i].sequence);
  }
}

TEST(ReplayBufferTest, RepeatedSequenceReplacesInPlace) {
  ReplayBufferOptions options;
  options.capacity = 4;
  ReplayBuffer buffer(options);
  buffer.Add(SeqSample(5, 100.0));
  buffer.Add(SeqSample(5, 999.0));
  EXPECT_EQ(buffer.size(), 1);
  EXPECT_EQ(buffer.dropped(), 0);
  EXPECT_EQ(buffer.SnapshotSorted()[0].actual_ns, 999);
}

// ---------------------------------------------------------------------------
// AnalyticCostModel

TEST(AnalyticCostModelTest, CalibrationFitsMedianNsPerUnit) {
  AnalyticCostModel model(&SharedDb()->planner());
  EXPECT_FALSE(model.calibrated());

  // actual = 3 * cost for every sample: the median ratio is exactly 3.
  std::vector<CostSample> samples;
  for (uint64_t seq = 1; seq <= 9; ++seq) {
    CostSample s = SeqSample(seq);
    s.analytic_cost = 100.0 * static_cast<double>(seq);
    s.actual_ns = static_cast<util::VirtualNanos>(300.0 * seq);
    samples.push_back(s);
  }
  model.Calibrate(samples);
  EXPECT_TRUE(model.calibrated());
  EXPECT_DOUBLE_EQ(model.ns_per_unit(), 3.0);
  EXPECT_DOUBLE_EQ(model.PredictSampleNs(samples[0]), 300.0);
  EXPECT_DOUBLE_EQ(MedianSampleQError(model, samples), 1.0);
}

TEST(AnalyticCostModelTest, PredictNsMatchesPlannerEstimate) {
  AnalyticCostModel model(&SharedDb()->planner());
  model.set_ns_per_unit(2.0);
  const PlannedSample p = PlanOf(10);
  EXPECT_DOUBLE_EQ(model.PredictNs(p.q, p.plan), 2.0 * p.analytic_cost);
}

// ---------------------------------------------------------------------------
// LearnedCostModel training determinism

/// Featurized samples from real plans with synthetic (deterministic)
/// latency labels.
std::vector<CostSample> TrainingCorpus(const PlanFeaturizer& featurizer,
                                       size_t count) {
  std::vector<CostSample> samples;
  for (size_t i = 0; i < count; ++i) {
    const PlannedSample p = PlanOf((i * 3) % Workload().size());
    CostSample s;
    s.sequence = i;
    s.query_id = p.q.id;
    s.features = featurizer.Featurize(p.q, p.plan);
    s.analytic_cost = p.analytic_cost;
    s.actual_ns = static_cast<util::VirtualNanos>(50.0 * p.analytic_cost);
    samples.push_back(std::move(s));
  }
  return samples;
}

TEST(LearnedCostModelTest, TrainingIsBitDeterministic) {
  const PlanFeaturizer featurizer = MakeFeaturizer();
  const std::vector<CostSample> corpus = TrainingCorpus(featurizer, 24);

  LearnedModelOptions options;
  options.epochs = 10;
  LearnedCostModel a(&featurizer, options);
  LearnedCostModel b(&featurizer, options);
  EXPECT_EQ(a.WeightsDigest(), b.WeightsDigest());

  const double loss_a = a.Train(corpus);
  const double loss_b = b.Train(corpus);
  EXPECT_EQ(loss_a, loss_b);
  EXPECT_EQ(a.WeightsDigest(), b.WeightsDigest());
  EXPECT_EQ(a.train_steps(), b.train_steps());
  EXPECT_EQ(a.PredictSampleNs(corpus[0]), b.PredictSampleNs(corpus[0]));

  // A different init seed must land on different weights.
  LearnedModelOptions reseeded = options;
  reseeded.seed = options.seed + 1;
  LearnedCostModel c(&featurizer, reseeded);
  c.Train(corpus);
  EXPECT_NE(c.WeightsDigest(), a.WeightsDigest());
}

TEST(LearnedCostModelTest, SkipsDegenerateSamples) {
  const PlanFeaturizer featurizer = MakeFeaturizer();
  LearnedCostModel model(&featurizer, LearnedModelOptions());
  CostSample bad_width = SeqSample(1);
  bad_width.features = {1.0f};  // wrong dimension
  CostSample bad_actual = SeqSample(2);
  bad_actual.features = std::vector<float>(featurizer.dim(), 0.5f);
  bad_actual.actual_ns = 0;
  EXPECT_EQ(model.Train({bad_width, bad_actual}), 0.0);
  EXPECT_EQ(model.train_steps(), 0);
}

// ---------------------------------------------------------------------------
// Trace round trip

TEST(TraceIngestTest, RoundTripsSamplesAndSkipsCorruptLines) {
  obs::MetricsRegistry metrics;
  obs::MetricsScope scope(&metrics);
  const PlanFeaturizer featurizer = MakeFeaturizer();
  const std::string path =
      ::testing::TempDir() + "lqolab_costmodel_trace_test.jsonl";

  std::unordered_map<std::string, query::Query> by_id;
  std::vector<ServeSampleRecord> written;
  {
    obs::TraceWriter trace(path);
    ASSERT_TRUE(trace.ok());
    for (size_t i = 0; i < 6; ++i) {
      const PlannedSample p = PlanOf(i * 11);
      by_id.emplace(p.q.id, p.q);
      ServeSampleRecord record;
      record.sequence = 100 + i;
      record.query_id = p.q.id;
      record.plan_hint = optimizer::RenderPlanHint(p.plan, p.q);
      record.actual_ns = 1000 + static_cast<int64_t>(i);
      record.analytic_cost = p.analytic_cost;
      // The first record mimics a pre-calibration harvest: NaN prediction,
      // which the trace layer must render as null (and ingest must accept).
      record.predicted_ns =
          i == 0 ? std::numeric_limits<double>::quiet_NaN() : 42.0;
      WriteServeSample(record, &trace);
      written.push_back(record);
    }
  }
  {
    // Three corrupt lines: a pre-fix bare-nan record (invalid JSON), a
    // truncated record, and a well-formed record with an unparsable hint.
    std::ofstream out(path, std::ios::app);
    out << "{\"type\":\"serve_sample\",\"seq\":900,\"query\":\""
        << written[0].query_id << "\",\"plan\":\"" << written[0].plan_hint
        << "\",\"execution_ns\":nan,\"analytic_cost\":1.0}\n";
    out << "{\"type\":\"serve_sample\",\"seq\":901\n";
    out << "{\"type\":\"serve_sample\",\"seq\":902,\"query\":\""
        << written[0].query_id
        << "\",\"plan\":\"Leading(bogus)\",\"execution_ns\":5,"
        << "\"analytic_cost\":1.0,\"predicted_ns\":1.0}\n";
  }

  ReplayBufferOptions buffer_options;
  buffer_options.capacity = 64;
  ReplayBuffer buffer(buffer_options);
  const IngestStats stats = IngestServeTrace(path, by_id, featurizer, &buffer);
  EXPECT_EQ(stats.lines, 9);
  EXPECT_EQ(stats.ingested, 6);
  EXPECT_EQ(stats.skipped_malformed, 2);
  EXPECT_EQ(stats.skipped_bad_plan, 1);
  EXPECT_EQ(stats.skipped(), 3);
  EXPECT_EQ(metrics.Get(obs::Counter::kCostmodelTraceSkipped), 3);

  // The ingested samples reproduce sequence, label, and features (the hint
  // re-parses to the same plan, so the featurization is identical).
  const std::vector<CostSample> snapshot = buffer.SnapshotSorted();
  ASSERT_EQ(snapshot.size(), written.size());
  for (size_t i = 0; i < snapshot.size(); ++i) {
    EXPECT_EQ(snapshot[i].sequence, written[i].sequence);
    EXPECT_EQ(snapshot[i].query_id, written[i].query_id);
    EXPECT_EQ(snapshot[i].actual_ns, written[i].actual_ns);
    const query::Query& q = by_id.at(written[i].query_id);
    const PlannedSample p = PlanOf(i * 11);
    EXPECT_EQ(snapshot[i].features, featurizer.Featurize(q, p.plan));
  }

  EXPECT_EQ(std::remove(path.c_str()), 0);
}

TEST(TraceIngestTest, UnknownQueryIsSkippedNotFatal) {
  const PlanFeaturizer featurizer = MakeFeaturizer();
  const std::string path =
      ::testing::TempDir() + "lqolab_costmodel_unknown_query.jsonl";
  {
    obs::TraceWriter trace(path);
    const PlannedSample p = PlanOf(0);
    ServeSampleRecord record;
    record.sequence = 1;
    record.query_id = p.q.id;
    record.plan_hint = optimizer::RenderPlanHint(p.plan, p.q);
    record.actual_ns = 10;
    WriteServeSample(record, &trace);
  }
  ReplayBufferOptions buffer_options;
  ReplayBuffer buffer(buffer_options);
  const IngestStats stats =
      IngestServeTrace(path, /*queries_by_id=*/{}, featurizer, &buffer);
  EXPECT_EQ(stats.ingested, 0);
  EXPECT_EQ(stats.skipped_unknown_query, 1);
  EXPECT_EQ(buffer.size(), 0);
  EXPECT_EQ(std::remove(path.c_str()), 0);
}

// ---------------------------------------------------------------------------
// OnlineRefresher: gate, promotion, drift, determinism

RefreshOptions TestRefreshOptions() {
  RefreshOptions options;
  options.buffer.capacity = 4096;
  options.min_samples = 32;
  options.refresh_every = 1 << 30;  // manual Refresh() only
  options.drift_window = 8;
  return options;
}

serve::ServerOptions ObserverServerOptions(int32_t workers,
                                           serve::ServedPlanObserver* obs) {
  serve::ServerOptions options;
  options.workers = workers;
  options.route = serve::RouteMode::kLqo;
  options.observer = obs;
  options.breaker.failure_threshold = std::numeric_limits<int32_t>::max();
  return options;
}

/// Feeds `count` real (query, plan) pairs with synthetic linear latencies
/// straight into the refresher (no server needed).
void FeedLinearSamples(OnlineRefresher* refresher, size_t count,
                       double ns_per_cost = 10.0) {
  for (size_t i = 0; i < count; ++i) {
    const PlannedSample p = PlanOf((i * 5) % Workload().size());
    const auto actual = static_cast<util::VirtualNanos>(
        std::max(1.0, ns_per_cost * p.analytic_cost));
    refresher->OnPlanExecuted(p.q, p.plan, actual, /*sequence=*/i);
  }
}

TEST(OnlineRefresherTest, RefreshRequiresMinimumSamples) {
  OnlineRefresher refresher(SharedDb(), TestRefreshOptions());
  FeedLinearSamples(&refresher, 8);
  const RefreshOutcome out = refresher.Refresh();
  EXPECT_FALSE(out.attempted);
  EXPECT_EQ(out.reason, "insufficient_samples");
  EXPECT_EQ(refresher.refreshes(), 0);
}

TEST(OnlineRefresherTest, GateRefusesPoisonedCandidate) {
  obs::MetricsRegistry metrics;
  obs::MetricsScope scope(&metrics);
  OnlineRefresher refresher(SharedDb(), TestRefreshOptions());
  FeedLinearSamples(&refresher, 48);

  serve::QueryServer server(SharedDb(), ObserverServerOptions(1, &refresher));
  refresher.AttachServer(&server);
  const uint64_t version_before = server.model_version();

  // A poisoned candidate: trained on labels inverted against reality, its
  // predictions are maximally wrong and its holdout median blows the
  // absolute ceiling no matter how the incumbent scores.
  std::vector<CostSample> poisoned = refresher.buffer().SnapshotSorted();
  for (CostSample& s : poisoned) {
    s.actual_ns = static_cast<util::VirtualNanos>(
        1e15 / std::max<double>(1.0, static_cast<double>(s.actual_ns)));
  }
  auto candidate = std::make_shared<LearnedCostModel>(
      &refresher.featurizer(), LearnedModelOptions{});
  candidate->Train(poisoned);

  const auto incumbent_before = refresher.incumbent();
  const RefreshOutcome out = refresher.ScoreAndMaybePromote(candidate);
  EXPECT_TRUE(out.attempted);
  EXPECT_FALSE(out.promoted);
  EXPECT_EQ(out.reason, "gate_absolute");
  EXPECT_GT(out.candidate_median_qerror,
            TestRefreshOptions().max_median_qerror);
  EXPECT_EQ(refresher.incumbent().get(), incumbent_before.get());
  EXPECT_EQ(server.model_version(), version_before);
  EXPECT_EQ(refresher.promotions(), 0);
  EXPECT_EQ(refresher.rejections(), 1);
  EXPECT_EQ(metrics.Get(obs::Counter::kCostmodelRejections), 1);
  EXPECT_EQ(metrics.Get(obs::Counter::kCostmodelPromotions), 0);
}

TEST(OnlineRefresherTest, GatePromotesPastWeakIncumbentAndPublishes) {
  obs::MetricsRegistry metrics;
  obs::MetricsScope scope(&metrics);
  OnlineRefresher refresher(SharedDb(), TestRefreshOptions());
  FeedLinearSamples(&refresher, 48);

  serve::QueryServer server(SharedDb(), ObserverServerOptions(1, &refresher));
  refresher.AttachServer(&server);
  EXPECT_EQ(server.model_version(), 0u);

  // Fabricate a badly mis-calibrated incumbent, then gate a candidate
  // trained on the real labels: it must clear both gate legs and publish a
  // CostGuidedOptimizer through the server's hot-swap slot.
  refresher.analytic_model()->set_ns_per_unit(1e7);
  auto candidate = std::make_shared<LearnedCostModel>(
      &refresher.featurizer(), LearnedModelOptions{});
  candidate->Train(refresher.buffer().SnapshotSorted());

  const RefreshOutcome out = refresher.ScoreAndMaybePromote(candidate);
  EXPECT_TRUE(out.promoted);
  EXPECT_EQ(out.reason, "promoted");
  EXPECT_LT(out.candidate_median_qerror, out.incumbent_median_qerror);
  EXPECT_EQ(out.published_version, 1u);
  EXPECT_EQ(server.model_version(), 1u);
  EXPECT_EQ(refresher.incumbent().get(), candidate.get());
  EXPECT_EQ(refresher.promotions(), 1);
  EXPECT_EQ(metrics.Get(obs::Counter::kCostmodelPromotions), 1);

  // The published optimizer serves valid plans.
  const serve::ServedQuery served = server.Submit(Workload()[2]).get();
  EXPECT_TRUE(served.status.ok());
  EXPECT_FALSE(served.plan.empty());
}

TEST(OnlineRefresherTest, DriftAlarmTripsServerBreaker) {
  obs::MetricsRegistry metrics;
  obs::MetricsScope scope(&metrics);
  const RefreshOptions options = TestRefreshOptions();
  OnlineRefresher refresher(SharedDb(), options);
  serve::QueryServer server(SharedDb(), ObserverServerOptions(1, &refresher));
  refresher.AttachServer(&server);

  // Calibrate the incumbent on consistent traffic...
  FeedLinearSamples(&refresher, 32);
  EXPECT_EQ(refresher.drift_alarms(), 0);
  EXPECT_EQ(server.breaker().state(), serve::CircuitBreaker::State::kClosed);

  // ...then shift the regime: actuals collapse to ~nothing, so the rolling
  // median q-error explodes past the threshold within one window.
  const PlannedSample p = PlanOf(0);
  for (int64_t i = 0; i < options.drift_window; ++i) {
    refresher.OnPlanExecuted(p.q, p.plan, /*execution_ns=*/1,
                             /*sequence=*/1000 + i);
  }
  EXPECT_EQ(refresher.drift_alarms(), 1);
  EXPECT_EQ(metrics.Get(obs::Counter::kCostmodelDriftAlarms), 1);
  EXPECT_EQ(server.breaker().state(), serve::CircuitBreaker::State::kOpen);
}

/// One harvest+refresh cycle at the given worker count; the determinism
/// probe of the serve-path loop.
RefreshOutcome HarvestAndRefresh(int32_t workers, int64_t* harvested) {
  OnlineRefresher refresher(SharedDb(), TestRefreshOptions());
  serve::QueryServer server(SharedDb(),
                            ObserverServerOptions(workers, &refresher));
  refresher.AttachServer(&server);
  std::vector<std::future<serve::ServedQuery>> futures;
  for (int epoch = 0; epoch < 2; ++epoch) {
    // Struct-route Submit: per-query cache keys keep the executed plans
    // scheduling-independent (the SQL route's template-shared entries are
    // first-planner-wins by design).
    for (size_t i = 0; i < Workload().size(); i += 4) {
      futures.push_back(server.Submit(Workload()[i]));
    }
  }
  for (auto& f : futures) f.get();
  server.Drain();
  *harvested = refresher.buffer().added();
  return refresher.Refresh();
}

TEST(OnlineRefresherTest, RefreshIsIdenticalAcrossWorkerCounts) {
  int64_t harvested_serial = 0;
  int64_t harvested_parallel = 0;
  const RefreshOutcome serial = HarvestAndRefresh(1, &harvested_serial);
  const RefreshOutcome parallel = HarvestAndRefresh(3, &harvested_parallel);

  EXPECT_EQ(harvested_serial, harvested_parallel);
  ASSERT_TRUE(serial.attempted);
  ASSERT_TRUE(parallel.attempted);
  EXPECT_EQ(serial.train_samples, parallel.train_samples);
  EXPECT_EQ(serial.holdout_samples, parallel.holdout_samples);
  // Bit-identical retrained weights and the same verdict: the whole point
  // of sequence-keyed harvesting.
  EXPECT_EQ(serial.weights_digest, parallel.weights_digest);
  EXPECT_EQ(serial.train_loss, parallel.train_loss);
  EXPECT_EQ(serial.promoted, parallel.promoted);
  EXPECT_EQ(serial.candidate_median_qerror, parallel.candidate_median_qerror);
  EXPECT_EQ(serial.incumbent_median_qerror, parallel.incumbent_median_qerror);
}

// ---------------------------------------------------------------------------
// Candidate generation / CostGuidedOptimizer

TEST(GenerateCandidatePlansTest, DeterministicDedupedAndExecutable) {
  const query::Query& q = Workload()[8];
  const std::vector<PlanCandidate> candidates =
      GenerateCandidatePlans(SharedDb(), q);
  ASSERT_FALSE(candidates.empty());

  // Deduplicated by structural equality.
  for (size_t i = 0; i < candidates.size(); ++i) {
    for (size_t j = i + 1; j < candidates.size(); ++j) {
      EXPECT_NE(candidates[i].plan, candidates[j].plan);
    }
  }
  // Deterministic for a fixed (db, q).
  const std::vector<PlanCandidate> again = GenerateCandidatePlans(SharedDb(), q);
  ASSERT_EQ(candidates.size(), again.size());
  for (size_t i = 0; i < candidates.size(); ++i) {
    EXPECT_EQ(candidates[i].plan, again[i].plan);
    EXPECT_EQ(candidates[i].source, again[i].source);
  }

  // Every candidate is a valid plan: executing it yields the same answer
  // as the native plan (plans change latency, never results).
  const auto replica = SharedDb()->CloneContextForWorker();
  const auto native = replica->PlanQuery(q);
  replica->BeginQueryReplay(SharedDb()->seed(), q, /*salt=*/0);
  const engine::QueryRun baseline =
      replica->ExecutePlan(q, native.plan, native.planning_ns);
  ASSERT_TRUE(baseline.status.ok());
  for (const PlanCandidate& candidate : candidates) {
    replica->BeginQueryReplay(SharedDb()->seed(), q, /*salt=*/0);
    const engine::QueryRun run =
        replica->ExecutePlan(q, candidate.plan, candidate.planning_ns);
    ASSERT_TRUE(run.status.ok()) << candidate.source;
    EXPECT_EQ(run.result_rows, baseline.result_rows) << candidate.source;
  }
}

TEST(CostGuidedOptimizerTest, PicksCheapestPredictedCandidate) {
  auto model = std::make_shared<AnalyticCostModel>(&SharedDb()->planner());
  model->set_ns_per_unit(1.0);
  CostGuidedOptimizer optimizer(model);
  const query::Query& q = Workload()[8];

  const lqo::Prediction prediction = optimizer.Plan(q, SharedDb());
  ASSERT_FALSE(prediction.plan.nodes.empty());

  // Under the analytic model the pick must be the analytically-cheapest
  // candidate of the sweep.
  const std::vector<PlanCandidate> candidates =
      GenerateCandidatePlans(SharedDb(), q);
  double best = std::numeric_limits<double>::infinity();
  const optimizer::PhysicalPlan* best_plan = nullptr;
  for (const PlanCandidate& candidate : candidates) {
    const double cost =
        SharedDb()->planner().EstimatePlanCost(q, candidate.plan);
    if (cost < best) {
      best = cost;
      best_plan = &candidate.plan;
    }
  }
  ASSERT_NE(best_plan, nullptr);
  EXPECT_EQ(prediction.plan, *best_plan);
}

}  // namespace
}  // namespace lqolab::costmodel
