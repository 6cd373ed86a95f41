#include "costmodel/online_refresh.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "costmodel/guided_optimizer.h"
#include "costmodel/trace_ingest.h"
#include "obs/metrics.h"
#include "optimizer/plan_hint.h"
#include "util/check.h"

namespace lqolab::costmodel {

namespace {

/// Buffered samples before the analytic incumbent is lazily calibrated (and
/// drift tracking turns on). Small on purpose: until calibration the
/// analytic model's unit is wrong by construction, and scoring it would
/// read as (false) drift.
constexpr int64_t kCalibrationSamples = 16;
/// Tail fraction of the sequence-sorted buffer held out for gating (the
/// newest observations — the split closest to "does it generalize to the
/// traffic arriving now").
constexpr double kHoldoutFraction = 0.25;
/// Median q-error over a full drift window that raises a drift alarm (and
/// trips the serving breaker).
constexpr double kDriftMedianThreshold = 16.0;

double MedianOf(std::vector<double> values) {
  LQOLAB_CHECK(!values.empty());
  const size_t mid = (values.size() - 1) / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  return values[mid];
}

}  // namespace

OnlineRefresher::OnlineRefresher(engine::Database* db,
                                 const RefreshOptions& options)
    : db_(db),
      options_(options),
      featurizer_(&db->context(), &db->planner().estimator()),
      buffer_(options.buffer),
      analytic_(std::make_shared<AnalyticCostModel>(&db->planner())) {
  LQOLAB_CHECK_GT(options.min_samples, 0);
  LQOLAB_CHECK_GT(options.refresh_every, 0);
  LQOLAB_CHECK_GT(options.drift_window, 0);
  incumbent_ = analytic_;
}

OnlineRefresher::~OnlineRefresher() { StopBackground(); }

void OnlineRefresher::AttachServer(serve::QueryServer* server) {
  std::lock_guard<std::mutex> lock(mu_);
  server_ = server;
}

std::shared_ptr<const PlanCostModel> OnlineRefresher::incumbent() const {
  std::lock_guard<std::mutex> lock(mu_);
  return incumbent_;
}

void OnlineRefresher::OnPlanExecuted(const query::Query& q,
                                     const optimizer::PhysicalPlan& plan,
                                     util::VirtualNanos execution_ns,
                                     uint64_t sequence) {
  CostSample sample;
  sample.sequence = sequence;
  sample.query_id = q.id;
  sample.features = featurizer_.Featurize(q, plan);
  sample.actual_ns = execution_ns;
  sample.analytic_cost = db_->planner().EstimatePlanCost(q, plan);

  // Score the serving incumbent on the observation (drift signal + trace
  // diagnostic) before the sample enters the buffer.
  bool ready = false;
  std::shared_ptr<const PlanCostModel> incumbent;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ready = incumbent_ready_;
    incumbent = incumbent_;
  }
  double predicted = std::numeric_limits<double>::quiet_NaN();
  if (ready) predicted = incumbent->PredictSampleNs(sample);

  if (options_.trace != nullptr) {
    ServeSampleRecord record;
    record.sequence = sequence;
    record.query_id = q.id;
    record.plan_hint = optimizer::RenderPlanHint(plan, q);
    record.actual_ns = execution_ns;
    record.analytic_cost = sample.analytic_cost;
    record.predicted_ns = predicted;
    std::lock_guard<std::mutex> lock(trace_mu_);
    WriteServeSample(record, options_.trace);
  }

  buffer_.Add(std::move(sample));
  obs::Count(obs::Counter::kCostmodelSamples);

  if (!ready && buffer_.size() >= kCalibrationSamples) {
    std::lock_guard<std::mutex> lock(mu_);
    if (!incumbent_ready_) {
      analytic_->Calibrate(buffer_.SnapshotSorted());
      if (analytic_->calibrated()) incumbent_ready_ = true;
    }
  }

  if (ready) {
    bool alarm = false;
    serve::QueryServer* server = nullptr;
    {
      std::lock_guard<std::mutex> lock(mu_);
      drift_qerrors_.push_back(
          QError(predicted, static_cast<double>(execution_ns)));
      if (static_cast<int64_t>(drift_qerrors_.size()) >=
          options_.drift_window) {
        const double median = MedianOf(
            {drift_qerrors_.begin(), drift_qerrors_.end()});
        if (median > kDriftMedianThreshold) {
          // The incumbent is consistently wrong on live traffic: raise the
          // alarm and restart the window so one bad stretch fires once.
          alarm = true;
          drift_qerrors_.clear();
        } else {
          drift_qerrors_.pop_front();
        }
      }
      server = server_;
    }
    if (alarm) {
      ++drift_alarms_;
      obs::Count(obs::Counter::kCostmodelDriftAlarms);
      if (server != nullptr) server->TripLqoBreaker();
    }
  }

  {
    std::lock_guard<std::mutex> lock(bg_mu_);
    if (++since_refresh_ >= options_.refresh_every) bg_cv_.notify_one();
  }
}

void OnlineRefresher::Split(const std::vector<CostSample>& samples,
                            std::vector<CostSample>* train,
                            std::vector<CostSample>* holdout) const {
  const int64_t n = static_cast<int64_t>(samples.size());
  const int64_t holdout_n = std::max<int64_t>(
      1, static_cast<int64_t>(static_cast<double>(n) * kHoldoutFraction));
  const int64_t train_n = std::max<int64_t>(0, n - holdout_n);
  train->assign(samples.begin(), samples.begin() + train_n);
  holdout->assign(samples.begin() + train_n, samples.end());
}

RefreshOutcome OnlineRefresher::Refresh() {
  std::lock_guard<std::mutex> refresh_lock(refresh_mu_);
  RefreshOutcome out;
  const std::vector<CostSample> samples = buffer_.SnapshotSorted();
  if (static_cast<int64_t>(samples.size()) < options_.min_samples) {
    out.reason = "insufficient_samples";
    return out;
  }
  out.attempted = true;
  std::vector<CostSample> train;
  std::vector<CostSample> holdout;
  Split(samples, &train, &holdout);
  out.train_samples = static_cast<int64_t>(train.size());
  out.holdout_samples = static_cast<int64_t>(holdout.size());

  // The analytic incumbent gets the same fresh look at the data the
  // candidate does — the gate compares models, not staleness.
  analytic_->Calibrate(train);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (analytic_->calibrated()) incumbent_ready_ = true;
  }

  auto candidate =
      std::make_shared<LearnedCostModel>(&featurizer_, LearnedModelOptions{});
  out.train_loss = candidate->Train(train);
  ++refreshes_;
  obs::Count(obs::Counter::kCostmodelRefreshes);

  GateLocked(std::move(candidate), holdout, &out);
  return out;
}

RefreshOutcome OnlineRefresher::ScoreAndMaybePromote(
    std::shared_ptr<LearnedCostModel> candidate) {
  std::lock_guard<std::mutex> refresh_lock(refresh_mu_);
  RefreshOutcome out;
  const std::vector<CostSample> samples = buffer_.SnapshotSorted();
  if (samples.empty()) {
    out.reason = "insufficient_samples";
    return out;
  }
  out.attempted = true;
  std::vector<CostSample> train;
  std::vector<CostSample> holdout;
  Split(samples, &train, &holdout);
  out.train_samples = static_cast<int64_t>(train.size());
  out.holdout_samples = static_cast<int64_t>(holdout.size());
  GateLocked(std::move(candidate), holdout, &out);
  return out;
}

void OnlineRefresher::GateLocked(std::shared_ptr<LearnedCostModel> candidate,
                                 const std::vector<CostSample>& holdout,
                                 RefreshOutcome* out) {
  out->weights_digest = candidate->WeightsDigest();
  std::shared_ptr<const PlanCostModel> incumbent;
  {
    std::lock_guard<std::mutex> lock(mu_);
    incumbent = incumbent_;
  }
  out->candidate_median_qerror = MedianSampleQError(*candidate, holdout);
  out->incumbent_median_qerror = MedianSampleQError(*incumbent, holdout);

  // Shadow-scoring verdict: no regression against the incumbent AND
  // absolutely sane. The absolute ceiling is what refuses a poisoned
  // candidate even when the incumbent itself is broken (both infinite
  // medians would pass a pure ratio test).
  const bool no_regression =
      out->candidate_median_qerror <=
      options_.gate_ratio * out->incumbent_median_qerror;
  const bool sane =
      out->candidate_median_qerror <= options_.max_median_qerror;
  if (!holdout.empty() && no_regression && sane) {
    out->promoted = true;
    out->reason = "promoted";
    serve::QueryServer* server = nullptr;
    {
      std::lock_guard<std::mutex> lock(mu_);
      incumbent_ = candidate;
      incumbent_ready_ = true;
      server = server_;
    }
    if (server != nullptr) {
      out->published_version = server->PublishModel(
          std::make_shared<CostGuidedOptimizer>(std::move(candidate)));
    }
    ++promotions_;
    obs::Count(obs::Counter::kCostmodelPromotions);
  } else {
    out->reason = !sane ? "gate_absolute" : "gate_regression";
    ++rejections_;
    obs::Count(obs::Counter::kCostmodelRejections);
  }
}

void OnlineRefresher::StartBackground() {
  std::lock_guard<std::mutex> lock(bg_mu_);
  if (bg_thread_.joinable()) return;
  bg_stop_ = false;
  bg_thread_ = std::thread([this] { BackgroundLoop(); });
}

void OnlineRefresher::StopBackground() {
  {
    std::lock_guard<std::mutex> lock(bg_mu_);
    if (!bg_thread_.joinable()) return;
    bg_stop_ = true;
  }
  bg_cv_.notify_all();
  bg_thread_.join();
  std::lock_guard<std::mutex> lock(bg_mu_);
  bg_stop_ = false;
}

void OnlineRefresher::BackgroundLoop() {
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(bg_mu_);
      bg_cv_.wait(lock, [this] {
        return bg_stop_ || since_refresh_ >= options_.refresh_every;
      });
      if (bg_stop_) return;
      since_refresh_ = 0;
    }
    Refresh();
  }
}

}  // namespace lqolab::costmodel
