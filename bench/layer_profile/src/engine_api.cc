#include "engine_api.h"

#include <cstdio>
#include <cstdlib>
#include <limits>

#include "datagen/imdb_generator.h"
#include "datagen/tpch_generator.h"
#include "obs/trace.h"
#include "query/sql_workload.h"

namespace layer_profile::api {

namespace serve = lqolab::serve;
using lqolab::obs::Counter;

std::unique_ptr<Database> BuildDatabase(Dataset dataset, uint64_t seed,
                                        SpanLog* log) {
  SpanLog::Scope span(log, "engine.build");
  Database::Options options;
  options.seed = seed;
  if (dataset == Dataset::kImdb) {
    options.profile = lqolab::datagen::ScaleProfile::Medium();
    return Database::CreateImdb(options);
  }
  return Database::CreateTpch(
      options, lqolab::datagen::TpchScaleProfile::Medium().Scaled(4.0));
}

DataSize Size(Database* db) {
  DataSize size;
  size.pages = db->TotalPages();
  for (const auto& table : db->context().tables()) {
    size.rows += table->row_count();
  }
  return size;
}

std::vector<Query> LoadWorkload(const std::string& path, const Database& db,
                                SpanLog* log) {
  SpanLog::Scope span(log, "sql.load");
  std::vector<Query> queries;
  const lqolab::util::Status status =
      lqolab::query::LoadSqlWorkloadFile(path, db.schema(), &queries);
  if (!status.ok()) {
    std::fprintf(stderr, "cannot load %s: %s\n", path.c_str(),
                 status.ToString().c_str());
    std::exit(1);
  }
  return queries;
}

std::string RenderSql(const Query& q, const Database& db) {
  return q.ToSql(db.schema());
}

Query VaryLiterals(Query q, int32_t epoch) {
  if (epoch == 0) return q;
  // Open-range sentinels (|v| >= 2e9) stay put, so the text stays in the
  // grammar the SQL frontend round-trips.
  constexpr int32_t kSentinel = 1'900'000'000;
  for (lqolab::query::Predicate& p : q.predicates) {
    if (p.kind != lqolab::query::Predicate::Kind::kRange) continue;
    if (p.int_values.size() != 2) continue;
    if (p.int_values[1] < kSentinel &&
        p.int_values[1] < std::numeric_limits<int32_t>::max() - epoch) {
      p.int_values[1] += epoch;  // widen: never inverts the range
    } else if (p.int_values[0] > -kSentinel &&
               p.int_values[0] >
                   std::numeric_limits<int32_t>::min() + epoch + 1) {
      p.int_values[0] -= epoch;
    }
  }
  return q;
}

std::unique_ptr<Database> CloneReplica(const Database& db, SpanLog* log,
                                       RequestId request) {
  SpanLog::Scope span(log, "engine.clone", request);
  return db.CloneContextForWorker();
}

bool PrepareSql(const Database& db, const std::string& sql,
                const std::string& id, Query* out, std::string* error,
                SpanLog* log, RequestId request) {
  SpanLog::Scope span(log, "sql.prepare", request);
  Database::PreparedSql prepared;
  const lqolab::util::Status status = db.PrepareSql(sql, &prepared, id);
  if (!status.ok()) {
    *error = status.ToString();
    return false;
  }
  *out = std::move(prepared.query);
  return true;
}

Database::Planned PlanQuery(Database* db, const Query& q, SpanLog* log,
                            RequestId request) {
  SpanLog::Scope span(log, "optimizer.plan", request);
  return db->PlanQuery(q);
}

lqolab::engine::QueryRun ExecutePlan(Database* db, const Query& q,
                                     const Database::Planned& planned,
                                     const char* span_name, SpanLog* log,
                                     RequestId request) {
  SpanLog::Scope span(log, span_name, request);
  return db->ExecutePlan(q, planned.plan, planned.planning_ns);
}

std::unique_ptr<lqolab::lqo::BaoOptimizer> TrainBao(
    const std::vector<Query>& train_set, Database* db, uint64_t seed,
    SpanLog* log) {
  SpanLog::Scope span(log, "lqo.train");
  lqolab::lqo::BaoOptimizer::Options options;
  options.epochs = 2;
  options.train_epochs = 5;
  options.seed = seed;
  auto bao = std::make_unique<lqolab::lqo::BaoOptimizer>(options);
  bao->Train(train_set, db);
  return bao;
}

lqolab::lqo::Prediction BaoPlan(lqolab::lqo::BaoOptimizer* bao,
                                const Query& q, Database* db, SpanLog* log,
                                RequestId request) {
  SpanLog::Scope span(log, "lqo.plan", request);
  return bao->Plan(q, db);
}

std::string PlanText(const lqolab::optimizer::PhysicalPlan& plan,
                     const Query& q) {
  return plan.ToString(q);
}

std::unique_ptr<serve::QueryServer> StartServer(Database* db, int32_t workers,
                                                SpanLog* log) {
  SpanLog::Scope span(log, "serve.start");
  serve::ServerOptions options;
  options.workers = workers;
  options.route = serve::RouteMode::kPglite;
  return std::make_unique<serve::QueryServer>(db, options);
}

std::future<serve::ServedQuery> SubmitSql(serve::QueryServer* server,
                                          const std::string& sql,
                                          const std::string& id, SpanLog* log,
                                          RequestId request) {
  SpanLog::Scope span(log, "serve.submit", request);
  return server->SubmitSql(sql, id);
}

serve::ServedQuery Wait(std::future<serve::ServedQuery>* f, SpanLog* log,
                        RequestId request) {
  SpanLog::Scope span(log, "serve.wait", request);
  return f->get();
}

void StopServer(std::unique_ptr<serve::QueryServer> server,
                Counters* counters, SpanLog* log) {
  SpanLog::Scope span(log, "serve.stop");
  server->Drain();
  if (counters != nullptr) counters->MergeFrom(server->SnapshotMetrics());
  server.reset();
}

LayerCounts ReadCounts(const Counters& counters) {
  LayerCounts c;
  c.plan_calls = counters.Get(Counter::kPlannerInvocations);
  c.dp_subproblems = counters.Get(Counter::kPlannerDpSubproblems);
  c.geqo_plans_costed = counters.Get(Counter::kPlannerGeqoPlansCosted);
  c.oracle_calls = counters.Get(Counter::kOracleCardinalityCalls);
  c.pages_accessed = counters.Get(Counter::kExecPagesAccessed);
  c.timeouts = counters.Get(Counter::kExecTimeouts);
  c.buffer_hits = counters.Get(Counter::kBufferSharedHits) +
                  counters.Get(Counter::kBufferOsHits);
  c.disk_reads = counters.Get(Counter::kBufferDiskReads);
  c.hint_sets_planned = counters.Get(Counter::kHintSetsPlanned);
  c.plan_cache_hits = counters.Get(Counter::kPlanCacheHits);
  c.plan_cache_misses = counters.Get(Counter::kPlanCacheMisses);
  return c;
}

bool WriteTrace(const std::string& path, const std::vector<Span>& spans,
                const Counters& counters) {
  lqolab::obs::TraceWriter writer(path);
  for (const Span& s : spans) {
    lqolab::obs::JsonObject record;
    record.Set("type", "span");
    record.Set("name", s.name);
    record.Set("id", s.id);
    record.Set("parent", s.parent);
    record.Set("thread", s.thread);
    record.Set("start_ns", s.start_ns);
    record.Set("end_ns", s.end_ns);
    record.Set("query", s.request.query);
    record.Set("round", s.request.round);
    record.Set("epoch", s.request.epoch);
    writer.Write(record);
  }
  lqolab::obs::WriteMetricsTrace(counters, &writer);
  return writer.ok();
}

}  // namespace layer_profile::api
