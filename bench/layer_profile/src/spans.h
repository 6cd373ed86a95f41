#ifndef LAYER_PROFILE_SPANS_H_
#define LAYER_PROFILE_SPANS_H_

// In-memory wall-clock spans recorded around the benchmark's calls into the
// engine's layers. Nothing here touches the engine: spans are kept in
// memory while a round runs and are written out once the run ends.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace layer_profile {

/// Identifies one request: query index x round x epoch (-1 = not set).
struct RequestId {
  int32_t query = -1;
  int32_t round = -1;
  int32_t epoch = -1;
};

struct Span {
  /// "<layer>.<call>" for a call into a layer ("sql.prepare"); a name
  /// without a dot ("round", "request", "client") is the benchmark's own.
  const char* name = "";
  /// (thread << 32) | index in the thread's log.
  int64_t id = 0;
  /// Enclosing span, possibly on another thread; -1 for a root.
  int64_t parent = -1;
  int32_t thread = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  RequestId request;
};

/// Nanoseconds on the steady clock since the first call in the process.
int64_t NowNs();

/// The spans of one thread. Not thread-safe: each thread records into its
/// own log, and the logs are read only after the threads are joined.
class SpanLog {
 public:
  /// `root_parent` becomes the parent of this thread's outermost spans, so
  /// a helper thread's spans hang under the span that started it.
  explicit SpanLog(int32_t thread, int64_t root_parent = -1);

  /// Records one span from construction to destruction. A null log records
  /// nothing, which is how untraced rounds run.
  class Scope {
   public:
    Scope(SpanLog* log, const char* name, RequestId request = {});
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    /// Id of the recorded span (-1 when not recording).
    int64_t id() const;

   private:
    SpanLog* log_;
    size_t index_ = 0;
  };

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<size_t> open_;
  int32_t thread_;
  int64_t root_parent_;
};

/// Splits the wall time of [begin_ns, end_ns) among the spans of `logs`:
/// at each instant, every thread with an open span gets an equal share,
/// charged to the name of its innermost open span; instants where no thread
/// has a span open are charged to "". The shares add up to the interval, so
/// a breakdown built from them sums to wall time even when threads overlap.
/// With one thread this is each span's self time: its duration minus the
/// part its child spans cover. Milliseconds per name.
std::map<std::string, double> AttributeWallTime(
    const std::vector<const SpanLog*>& logs, int64_t begin_ns, int64_t end_ns);

}  // namespace layer_profile

#endif  // LAYER_PROFILE_SPANS_H_
