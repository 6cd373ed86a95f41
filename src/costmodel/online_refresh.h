#ifndef LQOLAB_COSTMODEL_ONLINE_REFRESH_H_
#define LQOLAB_COSTMODEL_ONLINE_REFRESH_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "costmodel/cost_model.h"
#include "costmodel/features.h"
#include "costmodel/learned_model.h"
#include "costmodel/replay_buffer.h"
#include "engine/database.h"
#include "obs/trace.h"
#include "serve/query_server.h"

namespace lqolab::costmodel {

/// Tuning of one OnlineRefresher (see docs/cost_models.md for the protocol).
struct RefreshOptions {
  ReplayBufferOptions buffer;
  /// Buffered samples required before a refresh trains a candidate.
  int64_t min_samples = 48;
  /// Promotion gate: candidate holdout median q-error must be <=
  /// gate_ratio * incumbent's. 1.0 = strictly no regression.
  double gate_ratio = 1.0;
  /// Absolute ceiling on the candidate's holdout median q-error; a
  /// poisoned/diverged candidate fails this even against a terrible
  /// incumbent.
  double max_median_qerror = 50.0;
  /// Background mode: harvested samples between refresh cycles.
  int64_t refresh_every = 256;
  /// Rolling q-error observations per drift check.
  int64_t drift_window = 64;
  /// Optional durable mirror: every harvested sample is appended as a
  /// {"type":"serve_sample"} line (costmodel/trace_ingest.h reads it back).
  /// Must outlive the refresher; nullptr disables.
  obs::TraceWriter* trace = nullptr;
};

/// Outcome of one refresh (or gate) cycle.
struct RefreshOutcome {
  /// A candidate was trained and scored (false: not enough samples).
  bool attempted = false;
  bool promoted = false;
  /// Human-readable gate verdict ("promoted", "insufficient_samples",
  /// "gate_regression", "gate_absolute").
  std::string reason;
  int64_t train_samples = 0;
  int64_t holdout_samples = 0;
  double candidate_median_qerror = 0.0;
  double incumbent_median_qerror = 0.0;
  /// Final-epoch mean MSE of the candidate's training run.
  double train_loss = 0.0;
  /// HotSwapSlot version the promotion published (0 when not promoted or
  /// no server is attached).
  uint64_t published_version = 0;
  /// LearnedCostModel::WeightsDigest of the candidate (determinism probe).
  uint64_t weights_digest = 0;
};

/// The serve-path production loop of the learned cost model: harvests
/// per-plan actuals from a QueryServer (as its ServedPlanObserver) into a
/// bounded deterministic ReplayBuffer, periodically retrains a fresh
/// LearnedCostModel candidate, shadow-scores it against the incumbent on a
/// held-out slice, and promotes it through the server's HotSwapSlot only
/// when it passes the regression gate. A rolling-q-error drift detector
/// watches the incumbent's live predictions and trips the server's LQO
/// circuit breaker when the model goes stale. Full protocol:
/// docs/cost_models.md.
///
/// Determinism: the buffer keys on admission sequence and training order is
/// sequence-sorted, so for a fixed admitted workload the retrained weights
/// (LearnedCostModel::WeightsDigest) and the promotion decision are
/// identical at any serve worker count (locked by `ctest -L costmodel`).
///
/// Thread-safe: OnPlanExecuted is called concurrently by serve workers;
/// Refresh cycles serialize on an internal mutex.
class OnlineRefresher : public serve::ServedPlanObserver {
 public:
  /// `db` must outlive the refresher; it provides the featurizer's context
  /// and statistics plus the analytic incumbent's cost function. The
  /// refresher never executes on it.
  OnlineRefresher(engine::Database* db, const RefreshOptions& options);
  ~OnlineRefresher() override;

  /// Attaches the server whose breaker drift alarms trip and whose
  /// HotSwapSlot promotions publish to (start observing by putting `this`
  /// into ServerOptions::observer). Call before serving; nullptr detaches.
  void AttachServer(serve::QueryServer* server);

  /// ServedPlanObserver: harvest one successful execution.
  void OnPlanExecuted(const query::Query& q,
                      const optimizer::PhysicalPlan& plan,
                      util::VirtualNanos execution_ns,
                      uint64_t sequence) override;

  /// One synchronous refresh cycle: snapshot the buffer, recalibrate the
  /// analytic model and train a candidate on the older slice, gate on the
  /// newest slice, promote on pass.
  RefreshOutcome Refresh();

  /// Gates an externally-built candidate against the incumbent over the
  /// current buffer's holdout slice (no training). This is the promotion
  /// gate in isolation — tests feed it a poisoned candidate and assert the
  /// refusal.
  RefreshOutcome ScoreAndMaybePromote(std::shared_ptr<LearnedCostModel> candidate);

  /// Spawns/joins the background refresh thread (one cycle per
  /// RefreshOptions::refresh_every harvested samples). Idempotent.
  void StartBackground();
  void StopBackground();

  const ReplayBuffer& buffer() const { return buffer_; }
  const PlanFeaturizer& featurizer() const { return featurizer_; }
  /// The analytic model that seeds the incumbent slot (mutable so tests can
  /// fabricate a mis-calibrated incumbent via set_ns_per_unit).
  AnalyticCostModel* analytic_model() { return analytic_.get(); }
  /// The model currently serving as the gate's baseline.
  std::shared_ptr<const PlanCostModel> incumbent() const;

  int64_t refreshes() const { return refreshes_.load(); }
  int64_t promotions() const { return promotions_.load(); }
  int64_t rejections() const { return rejections_.load(); }
  int64_t drift_alarms() const { return drift_alarms_.load(); }

 private:
  /// Scores `candidate` vs the incumbent on `holdout` and promotes/refuses;
  /// fills the gate fields of `out`. Caller holds refresh_mu_.
  void GateLocked(std::shared_ptr<LearnedCostModel> candidate,
                  const std::vector<CostSample>& holdout, RefreshOutcome* out);

  /// Splits `samples` (already sequence-sorted) into train head / holdout
  /// tail (the newest quarter, at least one sample).
  void Split(const std::vector<CostSample>& samples,
             std::vector<CostSample>* train,
             std::vector<CostSample>* holdout) const;

  void BackgroundLoop();

  engine::Database* db_;
  const RefreshOptions options_;
  PlanFeaturizer featurizer_;
  ReplayBuffer buffer_;
  std::shared_ptr<AnalyticCostModel> analytic_;

  /// Guards incumbent_/incumbent_ready_/drift window/server_.
  mutable std::mutex mu_;
  std::shared_ptr<const PlanCostModel> incumbent_;
  /// Drift tracking and trace prediction start only once the incumbent is
  /// meaningful (analytic calibrated, or a learned model promoted) — an
  /// uncalibrated incumbent would alarm on unit mismatch, not drift.
  bool incumbent_ready_ = false;
  std::deque<double> drift_qerrors_;
  serve::QueryServer* server_ = nullptr;

  /// Serializes refresh cycles (snapshot -> train -> gate -> publish).
  std::mutex refresh_mu_;

  /// Guards the trace mirror (workers harvest concurrently).
  std::mutex trace_mu_;

  std::atomic<int64_t> refreshes_{0};
  std::atomic<int64_t> promotions_{0};
  std::atomic<int64_t> rejections_{0};
  std::atomic<int64_t> drift_alarms_{0};

  // Background thread.
  std::mutex bg_mu_;
  std::condition_variable bg_cv_;
  int64_t since_refresh_ = 0;  // guarded by bg_mu_
  bool bg_stop_ = false;       // guarded by bg_mu_
  std::thread bg_thread_;
};

}  // namespace lqolab::costmodel

#endif  // LQOLAB_COSTMODEL_ONLINE_REFRESH_H_
