#ifndef LAYER_PROFILE_ENGINE_API_H_
#define LAYER_PROFILE_ENGINE_API_H_

// The benchmark's only contact with the engine. Every call into a layer's
// public API goes through this file, and each one that a round makes is
// wrapped in a span named after the layer, so an API change breaks this
// file only and the layer breakdown stays measured at the same boundaries.

#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "engine/database.h"
#include "lqo/bao.h"
#include "obs/metrics.h"
#include "query/query.h"
#include "serve/query_server.h"
#include "spans.h"

namespace layer_profile::api {

using lqolab::engine::Database;
using lqolab::query::Query;

/// Engine counters, and the scope that collects the calling thread's
/// counters into them while it lives.
using Counters = lqolab::obs::MetricsRegistry;
using CounterScope = lqolab::obs::MetricsScope;

enum class Dataset { kImdb, kTpch };

/// IMDB at scale factor 1, or TPC-H-lite at 4x its medium profile.
/// Span "engine.build".
std::unique_ptr<Database> BuildDatabase(Dataset dataset, uint64_t seed,
                                        SpanLog* log);

/// Rows and heap pages over all tables.
struct DataSize {
  int64_t rows = 0;
  int64_t pages = 0;
};
DataSize Size(Database* db);

/// Loads a `-- <id>` / statement workload file through the SQL frontend.
/// Exits with the loader's diagnostic on failure. Span "sql.load".
std::vector<Query> LoadWorkload(const std::string& path, const Database& db,
                                SpanLog* log);

/// SQL text of `q` against `db`'s schema.
std::string RenderSql(const Query& q, const Database& db);

/// `q` with every closed range bound nudged by `epoch`, so the literal text
/// changes while the normalized template and the join graph stay the same.
/// Epoch 0 returns `q` unchanged.
Query VaryLiterals(Query q, int32_t epoch);

/// An isolated copy-on-write replica. Span "engine.clone".
std::unique_ptr<Database> CloneReplica(const Database& db, SpanLog* log,
                                       RequestId request);

/// Parses and binds `sql`; false (with the diagnostic in `error`) on
/// malformed text. Span "sql.prepare".
bool PrepareSql(const Database& db, const std::string& sql,
                const std::string& id, Query* out, std::string* error,
                SpanLog* log, RequestId request);

/// Span "optimizer.plan".
Database::Planned PlanQuery(Database* db, const Query& q, SpanLog* log,
                            RequestId request);

/// Executes a plan. `span` is "exec.cold" for the first execution on a
/// fresh replica and "exec.warm" for the repeats.
lqolab::engine::QueryRun ExecutePlan(Database* db, const Query& q,
                                     const Database::Planned& planned,
                                     const char* span, SpanLog* log,
                                     RequestId request);

/// Bao with 2 epochs of 5 training passes each, trained serially on `db`.
/// Span "lqo.train".
std::unique_ptr<lqolab::lqo::BaoOptimizer> TrainBao(
    const std::vector<Query>& train_set, Database* db, uint64_t seed,
    SpanLog* log);

/// One Bao inference: a plan per hint set, scored by the value network.
/// Span "lqo.plan".
lqolab::lqo::Prediction BaoPlan(lqolab::lqo::BaoOptimizer* bao,
                                const Query& q, Database* db, SpanLog* log,
                                RequestId request);

/// One-line rendering of a plan (answers of the inference workload).
std::string PlanText(const lqolab::optimizer::PhysicalPlan& plan,
                     const Query& q);

/// A native-route server with the plan cache on. Span "serve.start".
std::unique_ptr<lqolab::serve::QueryServer> StartServer(Database* db,
                                                        int32_t workers,
                                                        SpanLog* log);

/// Client-side admission: parse/bind, enqueue, backpressure. Span
/// "serve.submit".
std::future<lqolab::serve::ServedQuery> SubmitSql(
    lqolab::serve::QueryServer* server, const std::string& sql,
    const std::string& id, SpanLog* log, RequestId request);

/// Blocks until the server answers. Span "serve.wait".
lqolab::serve::ServedQuery Wait(std::future<lqolab::serve::ServedQuery>* f,
                                SpanLog* log, RequestId request);

/// Drains and shuts the server down, adding its workers' counters to
/// `counters` when non-null. Span "serve.stop".
void StopServer(std::unique_ptr<lqolab::serve::QueryServer> server,
                Counters* counters, SpanLog* log);

/// Engine counters of a traced round, by the per-layer metric they feed.
struct LayerCounts {
  int64_t plan_calls = 0;
  int64_t dp_subproblems = 0;
  int64_t geqo_plans_costed = 0;
  int64_t oracle_calls = 0;
  int64_t pages_accessed = 0;
  int64_t timeouts = 0;
  int64_t buffer_hits = 0;
  int64_t disk_reads = 0;
  int64_t hint_sets_planned = 0;
  int64_t plan_cache_hits = 0;
  int64_t plan_cache_misses = 0;
};
LayerCounts ReadCounts(const Counters& counters);

/// Writes `spans` plus one record of `counters` as JSONL. False when the
/// file cannot be written.
bool WriteTrace(const std::string& path, const std::vector<Span>& spans,
                const Counters& counters);

}  // namespace layer_profile::api

#endif  // LAYER_PROFILE_ENGINE_API_H_
