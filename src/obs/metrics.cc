#include "obs/metrics.h"

#include <algorithm>
#include <bit>
#include <sstream>

namespace lqolab::obs {

namespace internal {
thread_local MetricsRegistry* g_current_registry = nullptr;
}  // namespace internal

namespace {

struct CounterInfo {
  const char* name;
  const char* layer;
};

constexpr CounterInfo kCounterInfo[] = {
    {"buffer_shared_hits", "storage"},
    {"buffer_os_hits", "storage"},
    {"buffer_disk_reads", "storage"},
    {"buffer_evictions", "storage"},
    {"exec_pages_accessed", "exec"},
    {"exec_plans_executed", "exec"},
    {"exec_timeouts", "exec"},
    {"exec_cancelled", "exec"},
    {"oracle_cardinality_calls", "exec"},
    {"oracle_index_joins", "exec"},
    {"oracle_hash_builds", "exec"},
    {"oracle_bloom_builds", "exec"},
    {"exec_replans", "exec"},
    {"exec_replan_no_change", "exec"},
    {"exec_replan_capped", "exec"},
    {"planner_invocations", "optimizer"},
    {"planner_dp_subproblems", "optimizer"},
    {"planner_geqo_generations", "optimizer"},
    {"planner_geqo_plans_costed", "optimizer"},
    {"hint_sets_planned", "lqo"},
    {"hint_failures", "lqo"},
    {"train_episodes", "lqo"},
    {"plan_cache_hits", "serve"},
    {"plan_cache_misses", "serve"},
    {"plan_cache_evictions", "serve"},
    {"serve_queries", "serve"},
    {"serve_rejected", "serve"},
    {"serve_fallbacks", "serve"},
    {"serve_lqo_planned", "serve"},
    {"serve_model_swaps", "serve"},
    {"serve_retries", "serve"},
    {"serve_shutdown_dropped", "serve"},
    {"serve_infer_faults", "serve"},
    {"serve_breaker_trips", "serve"},
    {"serve_breaker_short_circuits", "serve"},
    {"serve_breaker_probes", "serve"},
    {"serve_breaker_recoveries", "serve"},
    {"serve_sql_queries", "serve"},
    {"serve_sql_rejected", "serve"},
    {"serve_open_loop_queries", "serve"},
    {"serve_shed", "serve"},
    {"serve_deadline_missed", "serve"},
    {"serve_replanned_queries", "serve"},
    {"serve_plan_feedback", "serve"},
    {"costmodel_samples", "costmodel"},
    {"costmodel_trace_skipped", "costmodel"},
    {"costmodel_refreshes", "costmodel"},
    {"costmodel_promotions", "costmodel"},
    {"costmodel_rejections", "costmodel"},
    {"costmodel_drift_alarms", "costmodel"},
    {"fault_injected_errors", "fault"},
    {"fault_injected_latency", "fault"},
    {"fault_injected_poison", "fault"},
};
static_assert(sizeof(kCounterInfo) / sizeof(kCounterInfo[0]) ==
                  static_cast<size_t>(Counter::kCounterCount),
              "kCounterInfo must cover every Counter");

constexpr const char* kHistogramNames[] = {
    "execution_latency_ns",
    "planning_latency_ns",
};
static_assert(sizeof(kHistogramNames) / sizeof(kHistogramNames[0]) ==
                  static_cast<size_t>(Histogram::kHistogramCount),
              "kHistogramNames must cover every Histogram");

}  // namespace

const char* CounterName(Counter c) {
  return kCounterInfo[static_cast<size_t>(c)].name;
}

const char* CounterLayer(Counter c) {
  return kCounterInfo[static_cast<size_t>(c)].layer;
}

const char* HistogramName(Histogram h) {
  return kHistogramNames[static_cast<size_t>(h)];
}

void LogHistogram::Observe(int64_t value) {
  if (value < 0) value = 0;
  const int32_t b = std::bit_width(static_cast<uint64_t>(value));
  ++buckets_[static_cast<size_t>(b)];
  ++count_;
  sum_ += value;
  if (count_ == 1 || value < min_) min_ = value;
  if (value > max_) max_ = value;
}

void LogHistogram::MergeFrom(const LogHistogram& other) {
  if (other.count_ == 0) return;
  for (size_t i = 0; i < buckets_.size(); ++i) buckets_[i] += other.buckets_[i];
  if (count_ == 0 || other.min_ < min_) min_ = other.min_;
  max_ = std::max(max_, other.max_);
  count_ += other.count_;
  sum_ += other.sum_;
}

void MetricsRegistry::MergeFrom(const MetricsRegistry& other) {
  for (size_t i = 0; i < counters_.size(); ++i) {
    counters_[i] += other.counters_[i];
  }
  for (size_t i = 0; i < histograms_.size(); ++i) {
    histograms_[i].MergeFrom(other.histograms_[i]);
  }
}

void MetricsRegistry::Reset() {
  counters_.fill(0);
  for (auto& h : histograms_) h = LogHistogram();
}

std::string MetricsRegistry::ToJson() const {
  // Counter names are fixed identifiers, so no string escaping is needed.
  std::ostringstream os;
  os << "{\"counters\":{";
  for (size_t i = 0; i < counters_.size(); ++i) {
    if (i > 0) os << ",";
    os << "\"" << kCounterInfo[i].name << "\":" << counters_[i];
  }
  os << "},\"histograms\":{";
  for (size_t i = 0; i < histograms_.size(); ++i) {
    const LogHistogram& h = histograms_[i];
    if (i > 0) os << ",";
    os << "\"" << kHistogramNames[i] << "\":{\"count\":" << h.count()
       << ",\"sum\":" << h.sum() << ",\"min\":" << h.min()
       << ",\"max\":" << h.max() << ",\"buckets\":[";
    bool first = true;
    for (int32_t b = 0; b < LogHistogram::kBuckets; ++b) {
      if (h.bucket(b) == 0) continue;
      if (!first) os << ",";
      first = false;
      os << "[" << b << "," << h.bucket(b) << "]";
    }
    os << "]}";
  }
  os << "}}";
  return os.str();
}

std::string MetricsRegistry::ToText() const {
  std::ostringstream os;
  for (size_t i = 0; i < counters_.size(); ++i) {
    if (counters_[i] == 0) continue;
    os << kCounterInfo[i].layer << " " << kCounterInfo[i].name << " "
       << counters_[i] << "\n";
  }
  for (size_t i = 0; i < histograms_.size(); ++i) {
    const LogHistogram& h = histograms_[i];
    if (h.count() == 0) continue;
    os << kHistogramNames[i] << " count=" << h.count() << " sum=" << h.sum()
       << " min=" << h.min() << " max=" << h.max() << "\n";
  }
  return os.str();
}

}  // namespace lqolab::obs
