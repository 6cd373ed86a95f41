#ifndef LQOLAB_SERVE_HOT_SWAP_H_
#define LQOLAB_SERVE_HOT_SWAP_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>

#include "obs/metrics.h"

namespace lqolab::serve {

/// Publication slot for a shared model (hot swap). A trainer thread
/// publishes fully built, immutable-from-the-reader's-view snapshots with
/// Publish(); serving threads read the current snapshot with Acquire().
/// Both sides copy one shared_ptr under a mutex held only for that copy,
/// so:
///  - a publish never waits for a query to finish with the old model, and
///    a reader never waits for a model to be built;
///  - a reader sees either the old snapshot or the new one, never a torn
///    mix — the pointer and its version travel together inside one
///    heap-allocated Versioned block;
///  - the old model stays alive until the last in-flight query holding its
///    shared_ptr finishes, then frees (safe memory reclamation for free).
///
/// The slot does NOT make the payload's methods thread-safe. Callers whose
/// payload mutates on use (e.g. lqo::LearnedOptimizer::Plan) must add their
/// own serialization around the call — see serve::QueryServer, which keeps
/// one inference mutex per server, mirroring the single model-server
/// process of the original Bao/Neo deployments.
template <typename T>
class HotSwapSlot {
 public:
  struct Snapshot {
    std::shared_ptr<T> value;
    /// Publication sequence number, starting at 1; 0 means "nothing
    /// published yet" (value is null).
    uint64_t version = 0;
  };

  HotSwapSlot() = default;
  HotSwapSlot(const HotSwapSlot&) = delete;
  HotSwapSlot& operator=(const HotSwapSlot&) = delete;

  /// Returns the current snapshot ({nullptr, 0} before the first Publish).
  Snapshot Acquire() const {
    std::shared_ptr<const Versioned> current;
    {
      std::lock_guard<std::mutex> lock(mu_);
      current = cell_;
    }
    if (current == nullptr) return Snapshot{};
    return Snapshot{current->value, current->version};
  }

  /// Atomically replaces the published value; returns the new version.
  /// Counts obs::Counter::kServeModelSwaps on the calling thread.
  uint64_t Publish(std::shared_ptr<T> value) {
    auto next = std::make_shared<const Versioned>(
        Versioned{std::move(value), versions_.fetch_add(1) + 1});
    const uint64_t version = next->version;
    {
      std::lock_guard<std::mutex> lock(mu_);
      cell_.swap(next);
    }
    obs::Count(obs::Counter::kServeModelSwaps);
    return version;
  }

  /// Version of the current snapshot (0 before the first Publish).
  uint64_t version() const { return Acquire().version; }

 private:
  struct Versioned {
    std::shared_ptr<T> value;
    uint64_t version;
  };

  mutable std::mutex mu_;
  std::shared_ptr<const Versioned> cell_;  // guarded by mu_
  std::atomic<uint64_t> versions_{0};
};

}  // namespace lqolab::serve

#endif  // LQOLAB_SERVE_HOT_SWAP_H_
