#include "spans.h"

#include <algorithm>
#include <chrono>
#include <tuple>

namespace layer_profile {

int64_t NowNs() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch)
      .count();
}

SpanLog::SpanLog(int32_t thread, int64_t root_parent)
    : thread_(thread), root_parent_(root_parent) {}

SpanLog::Scope::Scope(SpanLog* log, const char* name, RequestId request)
    : log_(log) {
  if (log_ == nullptr) return;
  index_ = log_->spans_.size();
  Span span;
  span.name = name;
  span.id = (static_cast<int64_t>(log_->thread_) << 32) |
            static_cast<int64_t>(index_);
  span.parent = log_->open_.empty() ? log_->root_parent_
                                    : log_->spans_[log_->open_.back()].id;
  span.thread = log_->thread_;
  span.request = request;
  log_->spans_.push_back(span);
  log_->open_.push_back(index_);
  // Read the clock last, so the bookkeeping above is not inside the span.
  log_->spans_[index_].start_ns = NowNs();
}

SpanLog::Scope::~Scope() {
  if (log_ == nullptr) return;
  log_->spans_[index_].end_ns = NowNs();
  log_->open_.pop_back();
}

int64_t SpanLog::Scope::id() const {
  return log_ == nullptr ? -1 : log_->spans_[index_].id;
}

std::map<std::string, double> AttributeWallTime(
    const std::vector<const SpanLog*>& logs, int64_t begin_ns,
    int64_t end_ns) {
  // Per thread, spans nest and are stored in opening order, so replaying
  // them against a stack of open spans yields that thread's open/close
  // events in time order.
  struct Event {
    int64_t time;
    size_t thread;
    size_t seq;
    const char* name;  // null for a close
  };
  std::vector<Event> events;
  for (size_t t = 0; t < logs.size(); ++t) {
    const std::vector<Span>& spans = logs[t]->spans();
    std::vector<const Span*> open;
    size_t seq = 0;
    for (const Span& span : spans) {
      while (!open.empty() && open.back()->id != span.parent) {
        events.push_back({open.back()->end_ns, t, seq++, nullptr});
        open.pop_back();
      }
      events.push_back({span.start_ns, t, seq++, span.name});
      open.push_back(&span);
    }
    while (!open.empty()) {
      events.push_back({open.back()->end_ns, t, seq++, nullptr});
      open.pop_back();
    }
  }
  std::sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
    return std::tie(a.time, a.thread, a.seq) < std::tie(b.time, b.thread, b.seq);
  });

  std::map<std::string, double> ms;
  std::vector<std::vector<const char*>> stacks(logs.size());
  int64_t now = begin_ns;
  auto advance = [&](int64_t to) {
    to = std::clamp(to, begin_ns, end_ns);
    if (to <= now) return;
    const double dt_ms = static_cast<double>(to - now) / 1e6;
    size_t active = 0;
    for (const auto& stack : stacks) active += stack.empty() ? 0 : 1;
    if (active == 0) {
      ms[""] += dt_ms;
    } else {
      for (const auto& stack : stacks) {
        if (!stack.empty()) {
          ms[stack.back()] += dt_ms / static_cast<double>(active);
        }
      }
    }
    now = to;
  };
  for (const Event& e : events) {
    advance(e.time);
    if (e.name != nullptr) {
      stacks[e.thread].push_back(e.name);
    } else {
      stacks[e.thread].pop_back();
    }
  }
  advance(end_ns);
  return ms;
}

}  // namespace layer_profile
