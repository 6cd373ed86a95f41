// Cost-model bake-off + serve-path refresh demo (docs/cost_models.md).
//
// Arm 1 — offline bake-off, per workload (job, job_complex, tpch): generate
// the candidate-plan sweep for every query (costmodel::GenerateCandidatePlans,
// Bao hint sets + Lero selectivity perturbations), execute every candidate
// under deterministic replay to get ground-truth latencies, then score the
// analytic cost model (calibrated on the training split) against the
// plan-featurized MLP (trained on the same split) on held-out queries:
// median/p95 q-error, plus the downstream metric that actually matters —
// plan-quality regret when each model ranks the candidate sweep.
//
// Arm 2 — the production loop, end to end: a kLqo QueryServer with an
// attached costmodel::OnlineRefresher harvests per-plan actuals from live
// traffic into the replay buffer (mirrored to a JSONL trace), retrains a
// candidate, shadow-scores it against the analytic incumbent and promotes it
// through the HotSwapSlot; then the gate is shown refusing a deliberately
// poisoned candidate, the trace mirror is round-tripped through the hardened
// ingester (3 corrupt lines injected, skipped and counted), refresh
// determinism is checked 1-worker-vs-N (bit-identical weight digests), and
// a drift storm is fed to the detector until it trips the serving breaker.
//
// Emits one JSON document (stdout, or the file given as argv[1]); the
// committed artifact is BENCH_costmodel.json at the repo root, floored by
// tests/check_bench_gates.sh. --quick restricts to the job workload (the
// `bench` ctest label runs that mode).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench_common.h"
#include "costmodel/cost_model.h"
#include "costmodel/features.h"
#include "costmodel/guided_optimizer.h"
#include "costmodel/learned_model.h"
#include "costmodel/online_refresh.h"
#include "costmodel/trace_ingest.h"
#include "serve/query_server.h"
#include "util/statistics.h"

namespace {

using namespace lqolab;
using costmodel::CostSample;
using costmodel::LearnedCostModel;
using costmodel::OnlineRefresher;
using costmodel::PlanCandidate;
using costmodel::PlanCostModel;
using costmodel::PlanFeaturizer;
using costmodel::QError;
using costmodel::RefreshOutcome;

/// Ground truth for one query's candidate sweep.
struct QuerySweep {
  const query::Query* query = nullptr;
  std::vector<CostSample> samples;  // one per candidate, same order
  size_t best = 0;                  // argmin actual_ns
};

struct ModelScore {
  double median_qerror = 0.0;
  double p95_qerror = 0.0;
  double mean_regret = 0.0;
  double p95_regret = 0.0;
  int64_t picked_best = 0;
};

struct WorkloadResult {
  std::string workload;
  int64_t queries = 0;
  int64_t samples = 0;
  int64_t train_samples = 0;
  int64_t test_samples = 0;
  double train_loss = 0.0;
  uint64_t weights_digest = 0;
  ModelScore analytic;
  ModelScore learned;
  bool learned_beats_analytic = false;
};

/// Q-error over every test-sweep sample + regret over every test sweep.
ModelScore Score(const PlanCostModel& model,
                 const std::vector<const QuerySweep*>& test) {
  ModelScore score;
  std::vector<double> qerrors;
  std::vector<double> regrets;
  for (const QuerySweep* sweep : test) {
    size_t pick = 0;
    double pick_ns = 0.0;
    for (size_t i = 0; i < sweep->samples.size(); ++i) {
      const CostSample& s = sweep->samples[i];
      const double predicted = model.PredictSampleNs(s);
      qerrors.push_back(QError(predicted, static_cast<double>(s.actual_ns)));
      if (i == 0 || predicted < pick_ns) {
        pick = i;
        pick_ns = predicted;
      }
    }
    const double best_ns =
        static_cast<double>(sweep->samples[sweep->best].actual_ns);
    const double picked_ns =
        static_cast<double>(sweep->samples[pick].actual_ns);
    const double regret = best_ns > 0.0 ? picked_ns / best_ns : 1.0;
    regrets.push_back(regret);
    if (picked_ns <= best_ns) ++score.picked_best;
  }
  score.median_qerror = util::Percentile(qerrors, 50.0);
  score.p95_qerror = util::Percentile(qerrors, 95.0);
  score.mean_regret = util::Mean(regrets);
  score.p95_regret = util::Percentile(regrets, 95.0);
  return score;
}

WorkloadResult RunBakeoff(const std::string& workload) {
  WorkloadResult result;
  result.workload = workload;
  auto db = bench::MakeWorkloadDatabase(workload, 0.25);
  const std::vector<query::Query> queries =
      query::LoadWorkload(workload, db->schema());
  result.queries = static_cast<int64_t>(queries.size());
  const PlanFeaturizer featurizer(&db->context(), &db->planner().estimator());

  // Ground truth: execute every candidate of every query under replay
  // (salted by candidate index — each candidate gets the same cold start).
  std::vector<QuerySweep> sweeps;
  sweeps.reserve(queries.size());
  uint64_t sequence = 0;
  for (const query::Query& q : queries) {
    const std::vector<PlanCandidate> candidates =
        costmodel::GenerateCandidatePlans(db.get(), q);
    QuerySweep sweep;
    sweep.query = &q;
    for (size_t ci = 0; ci < candidates.size(); ++ci) {
      db->BeginQueryReplay(bench::kSeed, q, /*salt=*/ci);
      const engine::QueryRun run = db->ExecutePlan(q, candidates[ci].plan);
      CostSample sample;
      sample.sequence = sequence++;
      sample.query_id = q.id;
      sample.features = featurizer.Featurize(q, candidates[ci].plan);
      sample.actual_ns = run.execution_ns;
      sample.analytic_cost = db->planner().EstimatePlanCost(q, candidates[ci].plan);
      sweep.samples.push_back(std::move(sample));
      if (sweep.samples.back().actual_ns <
          sweep.samples[sweep.best].actual_ns) {
        sweep.best = sweep.samples.size() - 1;
      }
    }
    result.samples += static_cast<int64_t>(sweep.samples.size());
    sweeps.push_back(std::move(sweep));
  }

  // Even-index queries train, odd-index queries test: the held-out queries
  // are unseen, so q-error and regret measure generalization, not memory.
  std::vector<CostSample> train;
  std::vector<const QuerySweep*> test;
  for (size_t i = 0; i < sweeps.size(); ++i) {
    if (i % 2 == 0) {
      for (const CostSample& s : sweeps[i].samples) train.push_back(s);
    } else {
      test.push_back(&sweeps[i]);
    }
  }
  result.train_samples = static_cast<int64_t>(train.size());
  for (const QuerySweep* sweep : test) {
    result.test_samples += static_cast<int64_t>(sweep->samples.size());
  }

  costmodel::AnalyticCostModel analytic(&db->planner());
  analytic.Calibrate(train);
  LearnedCostModel learned(&featurizer, costmodel::LearnedModelOptions{});
  result.train_loss = learned.Train(train);
  result.weights_digest = learned.WeightsDigest();

  result.analytic = Score(analytic, test);
  result.learned = Score(learned, test);
  result.learned_beats_analytic =
      result.learned.median_qerror < result.analytic.median_qerror;
  return result;
}

// ---------------------------------------------------------------------------
// Arm 2: the serve-path production loop.

struct ServeResult {
  int64_t harvested = 0;
  bool first_refresh_promoted = false;
  double candidate_median_qerror = 0.0;
  double incumbent_median_qerror = 0.0;
  double train_loss = 0.0;
  uint64_t published_version = 0;
  uint64_t weights_digest = 0;
  int64_t post_promotion_queries = 0;
  bool post_promotion_ok = false;
  bool poisoned_candidate_rejected = false;
  int64_t trace_lines = 0;
  int64_t trace_ingested = 0;
  int64_t trace_skipped = 0;
  bool trace_round_trip = false;
  bool refresh_deterministic = false;
  int64_t drift_alarms = 0;
  bool drift_tripped_breaker = false;
};

costmodel::RefreshOptions MakeRefreshOptions(obs::TraceWriter* trace) {
  costmodel::RefreshOptions options;
  options.buffer.capacity = 4096;
  options.min_samples = 32;
  options.refresh_every = 1 << 30;  // manual Refresh() only
  options.drift_window = 32;
  options.trace = trace;
  return options;
}

serve::ServerOptions MakeServerOptions(int32_t workers,
                                       serve::ServedPlanObserver* observer) {
  serve::ServerOptions options;
  options.workers = workers;
  options.route = serve::RouteMode::kLqo;
  options.observer = observer;
  // The arm measures the refresh loop, not breaker dynamics; failures here
  // would make which queries short-circuit scheduling-dependent.
  options.breaker.failure_threshold = std::numeric_limits<int32_t>::max();
  return options;
}

/// Drives `epochs` of the workload through a kLqo server with `refresher`
/// observing; returns the served rows in future order. Struct-route Submit
/// on purpose: per-query plan-cache keys make the executed plan (and so the
/// harvested features) independent of worker scheduling, which the
/// 1-vs-N-worker determinism probe relies on. (The SQL route's
/// template-shared plans are scheduling-dependent by design — see
/// bench/serve_throughput.cpp.)
std::vector<int64_t> Harvest(engine::Database* db,
                             const std::vector<query::Query>& workload,
                             serve::QueryServer* server, int epochs) {
  (void)db;
  std::vector<std::future<serve::ServedQuery>> futures;
  for (int epoch = 0; epoch < epochs; ++epoch) {
    for (const query::Query& q : workload) {
      futures.push_back(server->Submit(q));
    }
  }
  std::vector<int64_t> rows;
  rows.reserve(futures.size());
  for (auto& f : futures) {
    const serve::ServedQuery served = f.get();
    rows.push_back(served.status.ok() ? served.result_rows : -1);
  }
  return rows;
}

/// One full harvest+refresh cycle at the given worker count (no trace);
/// the determinism probe.
RefreshOutcome HarvestAndRefresh(engine::Database* db,
                                 const std::vector<query::Query>& workload,
                                 int32_t workers) {
  OnlineRefresher refresher(db, MakeRefreshOptions(nullptr));
  serve::QueryServer server(db, MakeServerOptions(workers, &refresher));
  refresher.AttachServer(&server);
  Harvest(db, workload, &server, /*epochs=*/2);
  server.Drain();
  return refresher.Refresh();
}

ServeResult RunServeLoop(engine::Database* db,
                         const std::vector<query::Query>& workload,
                         const std::string& trace_path) {
  ServeResult result;

  // Determinism probe first (fresh refresher per worker count; same
  // admitted workload -> same buffer -> bit-identical retrained weights).
  const RefreshOutcome serial = HarvestAndRefresh(db, workload, /*workers=*/1);
  const RefreshOutcome parallel =
      HarvestAndRefresh(db, workload, /*workers=*/4);
  result.refresh_deterministic =
      serial.attempted && parallel.attempted &&
      serial.weights_digest == parallel.weights_digest &&
      serial.promoted == parallel.promoted;

  int64_t harvested_total = 0;
  {
    obs::TraceWriter trace(trace_path);
    OnlineRefresher refresher(db, MakeRefreshOptions(&trace));
    serve::QueryServer server(db, MakeServerOptions(4, &refresher));
    refresher.AttachServer(&server);

    // Phase 1: harvest live traffic (no model published yet -> native
    // plans; the observer sees every successful execution).
    const std::vector<int64_t> before =
        Harvest(db, workload, &server, /*epochs=*/2);
    server.Drain();
    result.harvested = refresher.buffer().size();

    // Phase 2: retrain + shadow-score + gated promotion through the
    // HotSwapSlot.
    const RefreshOutcome outcome = refresher.Refresh();
    result.first_refresh_promoted = outcome.promoted;
    result.candidate_median_qerror = outcome.candidate_median_qerror;
    result.incumbent_median_qerror = outcome.incumbent_median_qerror;
    result.train_loss = outcome.train_loss;
    result.published_version = outcome.published_version;
    result.weights_digest = outcome.weights_digest;

    // Phase 3: serve on the promoted model; answers must match the native
    // phase query-for-query (same queries, same database).
    const std::vector<int64_t> after =
        Harvest(db, workload, &server, /*epochs=*/1);
    server.Drain();
    result.post_promotion_queries = static_cast<int64_t>(after.size());
    result.post_promotion_ok = !after.empty();
    for (size_t i = 0; i < after.size(); ++i) {
      result.post_promotion_ok &= after[i] >= 0 && after[i] == before[i];
    }

    // Phase 4: the gate must refuse a poisoned candidate — same
    // architecture, trained on garbage targets.
    std::vector<CostSample> poisoned = refresher.buffer().SnapshotSorted();
    for (CostSample& s : poisoned) {
      s.actual_ns = static_cast<util::VirtualNanos>(
          1e15 / static_cast<double>(std::max<int64_t>(1, s.actual_ns)));
    }
    auto bad = std::make_shared<LearnedCostModel>(
        &refresher.featurizer(), costmodel::LearnedModelOptions{});
    bad->Train(poisoned);
    const uint64_t version_before = server.model_version();
    const RefreshOutcome refusal = refresher.ScoreAndMaybePromote(bad);
    result.poisoned_candidate_rejected =
        refusal.attempted && !refusal.promoted &&
        server.model_version() == version_before;

    // Phase 5: drift storm — feed the detector observations the incumbent
    // is wildly wrong about until the alarm trips the serving breaker.
    const engine::Database::Planned planned =
        db->PlanQuery(workload.front());
    for (int i = 0; i < 64 && refresher.drift_alarms() == 0; ++i) {
      refresher.OnPlanExecuted(workload.front(), planned.plan,
                               /*execution_ns=*/1, (1ull << 40) + i);
    }
    result.drift_alarms = refresher.drift_alarms();
    result.drift_tripped_breaker =
        server.breaker().state() == serve::CircuitBreaker::State::kOpen;
    harvested_total = refresher.buffer().added();
    result.trace_lines = trace.records_written();
  }

  // Phase 6: round-trip the trace mirror through the hardened ingester,
  // with 3 corrupt lines injected (a pre-fix bare-nan line, truncated
  // JSON, and a bad plan hint) — skipped and counted, never fatal.
  {
    std::FILE* f = std::fopen(trace_path.c_str(), "a");
    if (f != nullptr) {
      std::fputs(
          "{\"type\":\"serve_sample\",\"seq\":1,\"query\":\"1a\","
          "\"plan\":\"x\",\"execution_ns\":nan,\"analytic_cost\":nan}\n",
          f);
      std::fputs("{\"type\":\"serve_sample\",\"seq\":2,\"que\n", f);
      std::fputs(
          "{\"type\":\"serve_sample\",\"seq\":3,\"query\":\"1a\","
          "\"plan\":\"Leading(bogus)\",\"execution_ns\":5,"
          "\"analytic_cost\":1.0}\n",
          f);
      std::fclose(f);
    }
    std::unordered_map<std::string, query::Query> by_id;
    for (const query::Query& q : workload) by_id.emplace(q.id, q);
    const PlanFeaturizer featurizer(&db->context(),
                                    &db->planner().estimator());
    costmodel::ReplayBufferOptions buffer_options;
    buffer_options.capacity = 1 << 20;
    costmodel::ReplayBuffer replay(buffer_options);
    const costmodel::IngestStats stats = costmodel::IngestServeTrace(
        trace_path, by_id, featurizer, &replay);
    result.trace_ingested = stats.ingested;
    result.trace_skipped = stats.skipped();
    result.trace_round_trip =
        stats.ingested == harvested_total && stats.skipped() == 3;
  }
  std::remove(trace_path.c_str());
  return result;
}

std::string ModelScoreJson(const ModelScore& score) {
  char buffer[256];
  std::snprintf(buffer, sizeof(buffer),
                "{\"median_qerror\": %.4f, \"p95_qerror\": %.4f, "
                "\"mean_regret\": %.4f, \"p95_regret\": %.4f, "
                "\"picked_best\": %lld}",
                score.median_qerror, score.p95_qerror, score.mean_regret,
                score.p95_regret, static_cast<long long>(score.picked_best));
  return buffer;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace lqolab;

  bool quick = false;
  const char* out_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--quick") {
      quick = true;
    } else {
      out_path = argv[i];
    }
  }

  std::vector<std::string> workloads = {"job"};
  if (!quick) {
    workloads.push_back("job_complex");
    workloads.push_back("tpch");
  }

  std::vector<WorkloadResult> results;
  int64_t wins = 0;
  for (const std::string& workload : workloads) {
    std::fprintf(stderr, "bake-off: %s...\n", workload.c_str());
    results.push_back(RunBakeoff(workload));
    const WorkloadResult& r = results.back();
    wins += r.learned_beats_analytic ? 1 : 0;
    std::fprintf(stderr,
                 "  %-12s analytic med-q=%.2f learned med-q=%.2f "
                 "regret %.3f vs %.3f  %s\n",
                 r.workload.c_str(), r.analytic.median_qerror,
                 r.learned.median_qerror, r.analytic.mean_regret,
                 r.learned.mean_regret,
                 r.learned_beats_analytic ? "[learned wins]" : "");
  }

  std::fprintf(stderr, "serve loop (harvest -> refresh -> promote)...\n");
  auto db = bench::MakeDatabase(0.25);
  const auto workload = query::LoadWorkload("job", db->schema());
  const ServeResult serve =
      RunServeLoop(db.get(), workload, "BENCH_costmodel_trace.jsonl");
  std::fprintf(stderr,
               "  harvested=%lld promoted=%s cand-q=%.2f inc-q=%.2f "
               "poisoned_rejected=%s deterministic=%s drift_trip=%s\n",
               static_cast<long long>(serve.harvested),
               serve.first_refresh_promoted ? "yes" : "NO",
               serve.candidate_median_qerror, serve.incumbent_median_qerror,
               serve.poisoned_candidate_rejected ? "yes" : "NO",
               serve.refresh_deterministic ? "yes" : "NO",
               serve.drift_tripped_breaker ? "yes" : "NO");

  std::string json = "{\n";
  json += "  \"bench\": \"cost_model_bakeoff\",\n";
  json += std::string("  \"quick\": ") + (quick ? "true" : "false") + ",\n";
  json += "  \"workloads\": [\n";
  for (size_t i = 0; i < results.size(); ++i) {
    const WorkloadResult& r = results[i];
    char buffer[1024];
    std::snprintf(
        buffer, sizeof(buffer),
        "    {\"workload\": \"%s\", \"queries\": %lld, \"samples\": %lld, "
        "\"train_samples\": %lld, \"test_samples\": %lld, "
        "\"train_loss\": %.6f, \"weights_digest\": \"%016llx\", "
        "\"analytic\": %s, \"learned\": %s, "
        "\"learned_beats_analytic\": %s}%s\n",
        r.workload.c_str(), static_cast<long long>(r.queries),
        static_cast<long long>(r.samples),
        static_cast<long long>(r.train_samples),
        static_cast<long long>(r.test_samples), r.train_loss,
        static_cast<unsigned long long>(r.weights_digest),
        ModelScoreJson(r.analytic).c_str(), ModelScoreJson(r.learned).c_str(),
        r.learned_beats_analytic ? "true" : "false",
        i + 1 < results.size() ? "," : "");
    json += buffer;
  }
  json += "  ],\n";
  json += "  \"learned_beats_analytic_workloads\": " + std::to_string(wins) +
          ",\n";
  {
    char buffer[1024];
    std::snprintf(
        buffer, sizeof(buffer),
        "  \"serve\": {\"harvested\": %lld, "
        "\"candidate_median_qerror\": %.4f, "
        "\"incumbent_median_qerror\": %.4f, \"train_loss\": %.6f, "
        "\"published_version\": %llu, \"weights_digest\": \"%016llx\", "
        "\"post_promotion_queries\": %lld, \"post_promotion_ok\": %s, "
        "\"trace_lines\": %lld, \"trace_ingested\": %lld, "
        "\"trace_skipped\": %lld, \"trace_round_trip\": %s, "
        "\"drift_alarms\": %lld, \"drift_tripped_breaker\": %s},\n",
        static_cast<long long>(serve.harvested),
        serve.candidate_median_qerror, serve.incumbent_median_qerror,
        serve.train_loss,
        static_cast<unsigned long long>(serve.published_version),
        static_cast<unsigned long long>(serve.weights_digest),
        static_cast<long long>(serve.post_promotion_queries),
        serve.post_promotion_ok ? "true" : "false",
        static_cast<long long>(serve.trace_lines),
        static_cast<long long>(serve.trace_ingested),
        static_cast<long long>(serve.trace_skipped),
        serve.trace_round_trip ? "true" : "false",
        static_cast<long long>(serve.drift_alarms),
        serve.drift_tripped_breaker ? "true" : "false");
    json += buffer;
  }
  json += std::string("  \"first_refresh_promoted\": ") +
          (serve.first_refresh_promoted ? "true" : "false") + ",\n";
  json += std::string("  \"poisoned_candidate_rejected\": ") +
          (serve.poisoned_candidate_rejected ? "true" : "false") + ",\n";
  json += std::string("  \"refresh_deterministic\": ") +
          (serve.refresh_deterministic ? "true" : "false") + "\n";
  json += "}\n";

  if (!bench::WriteDocument(out_path, json)) return 1;

  bool ok = wins >= 1;
  ok &= serve.first_refresh_promoted;
  ok &= serve.post_promotion_ok;
  ok &= serve.poisoned_candidate_rejected;
  ok &= serve.trace_round_trip;
  ok &= serve.refresh_deterministic;
  ok &= serve.drift_tripped_breaker;
  return ok ? 0 : 1;
}
