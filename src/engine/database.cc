#include "engine/database.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <set>
#include <sstream>
#include <unordered_map>

#include "catalog/imdb_schema.h"
#include "catalog/tpch_schema.h"
#include "exec/cost_constants.h"
#include "obs/explain.h"
#include "obs/metrics.h"
#include "sql/binder.h"
#include "sql/template.h"
#include "util/check.h"
#include "util/table_printer.h"

namespace lqolab::engine {

namespace cost = exec::cost;
using catalog::imdb::Table;
using util::VirtualNanos;

int64_t ScaledPages(int64_t mb) {
  return std::max<int64_t>(16, ScaledBytes(mb) / storage::kPageSizeBytes);
}

Database::Database(const Options& options)
    : seed_(options.seed), noise_rng_(options.seed ^ 0xabcdefULL) {
  ctx_.config = options.config;
}

std::unique_ptr<Database> Database::CreateImdb(const Options& options) {
  std::unique_ptr<Database> db(new Database(options));
  auto shared = std::make_shared<SharedContext>();
  shared->schema = catalog::BuildImdbSchema();
  for (auto& table :
       datagen::GenerateImdb(shared->schema, options.profile, options.seed)) {
    shared->tables.push_back(std::move(table));
  }
  db->FinishBuild(std::move(shared));
  return db;
}

std::unique_ptr<Database> Database::CreateTpch(
    const Options& options, const datagen::TpchScaleProfile& profile) {
  std::unique_ptr<Database> db(new Database(options));
  auto shared = std::make_shared<SharedContext>();
  shared->schema = catalog::BuildTpchSchema();
  for (auto& table :
       datagen::GenerateTpch(shared->schema, profile, options.seed)) {
    shared->tables.push_back(std::move(table));
  }
  db->FinishBuild(std::move(shared));
  return db;
}

std::unique_ptr<Database> Database::FromTables(
    const Options& options, catalog::Schema schema,
    std::vector<std::shared_ptr<storage::Table>> tables) {
  std::unique_ptr<Database> db(new Database(options));
  auto shared = std::make_shared<SharedContext>();
  shared->schema = std::move(schema);
  LQOLAB_CHECK_EQ(static_cast<int32_t>(tables.size()),
                  shared->schema.table_count());
  shared->tables = std::move(tables);
  db->FinishBuild(std::move(shared));
  return db;
}

std::unique_ptr<Database> Database::FromTables(
    const Options& options,
    std::vector<std::shared_ptr<storage::Table>> tables) {
  return FromTables(options, catalog::BuildImdbSchema(), std::move(tables));
}

void Database::FinishBuild(std::shared_ptr<SharedContext> shared) {
  BuildIndexes(*shared);
  Analyze(*shared);
  BuildHeapProbePages(*shared);
  // Freeze: from here on the shared context is only ever read.
  ctx_.shared = std::move(shared);
  ctx_.schema = &ctx_.shared->schema;
  InitRuntime();
}

std::unique_ptr<Database> Database::CloneContextForWorker() const {
  Options options;
  options.seed = seed_;
  options.config = ctx_.config;
  std::unique_ptr<Database> db(new Database(options));
  // The whole post-build state transfers as one refcount bump; only the
  // per-replica runtime (buffer pool, oracle, planner, executor) is built.
  db->ctx_.shared = ctx_.shared;
  db->ctx_.schema = ctx_.schema;
  db->InitRuntime();
  return db;
}

void Database::BuildIndexes(SharedContext& shared) {
  // Primary keys and every foreign key (the JOB index set of Leis et al.,
  // which already includes Balsa's two complete_cast additions), plus the
  // filter-column indexes listed in DESIGN.md.
  const catalog::Schema& schema = shared.schema;
  std::set<std::pair<catalog::TableId, catalog::ColumnId>> wanted;
  for (catalog::TableId t = 0; t < schema.table_count(); ++t) {
    wanted.insert({t, 0});  // id
    for (const auto& fk : schema.table(t).foreign_keys) {
      wanted.insert({t, fk.column});
    }
  }
  // Resolved by name so the one list serves every schema this engine
  // builds; pairs whose table doesn't exist in the current schema are
  // skipped (the IMDB entries resolve exactly as before, keeping the IMDB
  // index set — and thus every golden plan — unchanged).
  const std::vector<std::pair<const char*, const char*>> filter_indexes = {
      // IMDB (the JOB filter columns of DESIGN.md).
      {"title", "production_year"}, {"title", "episode_nr"},
      {"keyword", "keyword"},       {"company_name", "country_code"},
      {"name", "name_pcode_cf"},    {"name", "gender"},
      {"movie_info", "info"},       {"movie_info_idx", "info"},
      {"cast_info", "note"},        {"kind_type", "kind"},
      {"info_type", "info"},        {"company_type", "kind"},
      {"role_type", "role"},        {"link_type", "link"},
      {"comp_cast_type", "kind"},
      // TPC-H-lite filter columns.
      {"orders", "orderdate"},      {"lineitem", "shipdate"},
      {"customer", "mktsegment"},   {"part", "brand"}};
  for (const auto& [table_name, column_name] : filter_indexes) {
    const catalog::TableId table = schema.FindTable(table_name);
    if (table == catalog::kInvalidTable) continue;
    const catalog::ColumnId col = schema.table(table).FindColumn(column_name);
    LQOLAB_CHECK_NE(col, catalog::kInvalidColumn);
    wanted.insert({table, col});
  }
  for (const auto& [table, column] : wanted) {
    shared.indexes[{table, column}] = std::make_shared<storage::Index>(
        *shared.tables[static_cast<size_t>(table)], column);
  }
}

void Database::Analyze(SharedContext& shared) {
  shared.table_stats.clear();
  shared.table_stats.reserve(shared.tables.size());
  for (const auto& table : shared.tables) {
    shared.table_stats.push_back(stats::Analyze(*table));
  }
}

namespace {

template <typename Page>
std::vector<Page> DrawHeapProbePages(uint64_t table, uint64_t pages) {
  std::vector<Page> sequence(static_cast<size_t>(exec::kMaxPageLoop));
  uint64_t state = 0x9e3779b97f4a7c15ULL ^ table;
  for (Page& page : sequence) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    page = static_cast<Page>((state >> 33) % pages);
  }
  return sequence;
}

/// next[i] of HeapProbePages: the position of the next draw of the same
/// page, kMaxPageLoop when there is none. One backward scan keeps the
/// latest position seen of each page in an open-addressing table, so it is
/// linear in the draws whatever the table's page count.
template <typename Page>
std::vector<uint16_t> NextDrawOfPage(const std::vector<Page>& sequence) {
  constexpr auto kNone = static_cast<uint16_t>(exec::kMaxPageLoop);
  constexpr int kSlotBits = 15;
  constexpr size_t kMask = (size_t{1} << kSlotBits) - 1;
  static_assert(3 * exec::kMaxPageLoop <= 2 * (int64_t{1} << kSlotBits),
                "the table stays at most 2/3 full");
  std::vector<uint16_t> latest(kMask + 1, kNone);  // a position, or kNone
  std::vector<uint16_t> next(sequence.size());
  for (size_t i = sequence.size(); i-- > 0;) {
    const Page page = sequence[i];
    size_t slot = (static_cast<uint32_t>(page) * 0x9e3779b1u) >>
                  (32 - kSlotBits);
    while (latest[slot] != kNone && sequence[latest[slot]] != page) {
      slot = (slot + 1) & kMask;
    }
    next[i] = latest[slot];
    latest[slot] = static_cast<uint16_t>(i);
  }
  return next;
}

}  // namespace

void Database::BuildHeapProbePages(SharedContext& shared) {
  static_assert(exec::kMaxPageLoop <= UINT16_MAX,
                "HeapProbePages::next holds draw positions and the "
                "kMaxPageLoop sentinel in 16 bits");
  shared.heap_probe_pages.assign(shared.tables.size(), HeapProbePages{});
  for (size_t t = 0; t < shared.tables.size(); ++t) {
    const auto pages = static_cast<uint64_t>(
        std::max<int64_t>(1, shared.tables[t]->page_count()));
    HeapProbePages& sequence = shared.heap_probe_pages[t];
    if (pages <= uint64_t{1} << 16) {
      sequence.narrow = DrawHeapProbePages<uint16_t>(t, pages);
      sequence.next = NextDrawOfPage(sequence.narrow);
    } else {
      sequence.wide = DrawHeapProbePages<uint32_t>(t, pages);
      sequence.next = NextDrawOfPage(sequence.wide);
    }
  }
}

void Database::InitRuntime() {
  ctx_.buffer_pool = std::make_unique<storage::BufferPool>(
      ScaledPages(ctx_.config.shared_buffers_mb),
      ScaledPages(ctx_.config.ram_mb));
  oracle_ = std::make_unique<exec::Oracle>(&ctx_);
  planner_ = std::make_unique<optimizer::Planner>(&ctx_);
  executor_ = std::make_unique<exec::Executor>(&ctx_, oracle_.get());
}

void Database::SetConfig(const DbConfig& config) {
  LQOLAB_CHECK(TrySetConfig(config).ok());
}

util::Status Database::TrySetConfig(const DbConfig& config) {
  const bool memory_changed =
      config.shared_buffers_mb != ctx_.config.shared_buffers_mb ||
      config.ram_mb != ctx_.config.ram_mb;
  if (memory_changed) {
    if (config.shared_buffers_mb <= 0 || config.ram_mb <= 0) {
      return util::Status(util::StatusCode::kResourceExhausted,
                          "non-positive buffer sizing");
    }
    const util::Status status =
        ctx_.buffer_pool->TryResize(ScaledPages(config.shared_buffers_mb),
                                    ScaledPages(config.ram_mb));
    if (!status.ok()) return status;  // Old config and caches intact.
    run_counts_.clear();
  }
  ctx_.config = config;
  return util::Status::Ok();
}

int64_t Database::TotalPages() const {
  int64_t pages = 0;
  for (const auto& table : ctx_.tables()) pages += table->page_count();
  return pages;
}

util::Status Database::PrepareSql(const std::string& sql, PreparedSql* out,
                                  const std::string& id) const {
  query::Query q;
  const util::Status bound = sql::ParseAndBindSql(sql, schema(), &q);
  if (!bound.ok()) return bound;
  sql::AssignQueryId(id, &q);
  out->query = std::move(q);
  out->normalized_template = sql::NormalizeSqlTemplate(sql);
  out->template_fingerprint = sql::SqlTemplateFingerprint(sql);
  return util::Status::Ok();
}

Database::Planned Database::PlanQuery(const query::Query& q) {
  const optimizer::PlanningResult result = planner_->Plan(q);
  Planned planned;
  planned.plan = result.plan;
  planned.estimated_cost = result.estimated_cost;
  planned.used_geqo = result.used_geqo;
  planned.planner_steps = result.planner_steps;

  // Modeled planning time: a per-relation baseline plus a per-step cost;
  // when effective_cache_size is small relative to the database, planning
  // pays extra per-step probe costs (the Table 2 planning-time effect).
  double planning =
      static_cast<double>(q.relation_count()) * cost::kPlanPerRelationNs +
      static_cast<double>(result.planner_steps) * cost::kPlanStepNs;
  const double cached = planner_->cost_model().CachedFraction();
  planning += (1.0 - cached) * static_cast<double>(result.planner_steps) *
              cost::kPlanColdProbeNs;
  planned.planning_ns = static_cast<VirtualNanos>(planning);
  obs::Observe(obs::Histogram::kPlanningLatencyNs, planned.planning_ns);
  return planned;
}

double Database::WarmupMultiplier(const query::Query& q) {
  const uint64_t fp = exec::QueryFingerprint(q);
  const int64_t runs = run_counts_[fp]++;
  if (runs == 0) return 1.0 + cost::kFirstRunPenalty;
  if (runs == 1) return 1.0 + cost::kSecondRunPenalty;
  return 1.0;
}

QueryRun Database::ExecutePlan(const query::Query& q,
                               const optimizer::PhysicalPlan& plan,
                               VirtualNanos planning_ns,
                               VirtualNanos timeout_ns,
                               const exec::QueryDeadline* deadline,
                               const exec::CardinalityPins* seed_pins) {
  // One warm-up step and one noise draw per query run, shared by every
  // attempt: a replan continues the same query run, it does not start a new
  // one.
  const double warm = WarmupMultiplier(q);
  const double noise =
      std::exp(noise_rng_.Gaussian(0.0, cost::kNoiseSigma));
  const VirtualNanos timeout =
      timeout_ns > 0 ? timeout_ns
                     : ctx_.config.statement_timeout_ms * util::kNanosPerMilli;
  QueryRun run;
  run.planning_ns = planning_ns;
  exec::ExecutionResult result =
      ctx_.config.adaptive_replan
          ? ExecuteReplanning(q, plan, timeout, warm * noise, deadline,
                              seed_pins, &run)
          : executor_->Execute(q, plan, timeout, warm * noise, deadline);
  run.status = std::move(result.status);
  // Abandoned prefixes and replan planning are spent mid-execution.
  run.execution_ns =
      run.replan_wasted_ns + run.replan_planning_ns + result.execution_ns;
  run.timed_out = result.timed_out;
  run.result_rows = result.result_rows;
  run.pages_accessed = result.pages_accessed;
  run.node_stats = std::move(result.node_stats);
  obs::Count(obs::Counter::kExecPlansExecuted);
  if (run.timed_out) obs::Count(obs::Counter::kExecTimeouts);
  obs::Observe(obs::Histogram::kExecutionLatencyNs, run.execution_ns);
  return run;
}

exec::ExecutionResult Database::ExecuteReplanning(
    const query::Query& q, const optimizer::PhysicalPlan& plan,
    VirtualNanos timeout, double time_multiplier,
    const exec::QueryDeadline* deadline,
    const exec::CardinalityPins* seed_pins, QueryRun* run) {
  // Pins and the spooled-intermediate set live on the context for the
  // duration of the loop so the estimator and cost model (re-planning) and
  // the monitor (re-execution) all see them.
  exec::CardinalityPins pins;
  if (seed_pins != nullptr) pins = *seed_pins;
  // Intermediates fully materialized (and paid for) by abandoned attempts,
  // keyed by alias mask; the re-planner prices them at spool re-read cost
  // and later attempts read them back instead of recomputing their
  // subtrees (exec::ReplanMonitor::materialized).
  std::unordered_map<uint32_t, int64_t> materialized;
  struct PinGuard {
    exec::DbContext* ctx;
    ~PinGuard() {
      ctx->card_pins = nullptr;
      ctx->spooled = nullptr;
    }
  } guard{&ctx_};
  ctx_.card_pins = &pins;
  ctx_.spooled = &materialized;

  optimizer::PhysicalPlan current = plan;
  exec::ExecutionResult result;
  VirtualNanos spent = 0;  // Abandoned prefixes + replan planning time.
  for (;;) {
    const bool monitor_armed =
        run->replans < ctx_.config.replan_max_per_query;
    if (!monitor_armed && run->replans > 0) {
      obs::Count(obs::Counter::kExecReplanCapped);
    }
    exec::ReplanMonitor monitor;
    // A null estimator disables the divergence trigger, so a capped attempt
    // still reuses the spooled intermediates without ever replanning again.
    monitor.estimator = monitor_armed ? &planner_->estimator() : nullptr;
    monitor.pins = &pins;
    monitor.qerror_threshold = ctx_.config.replan_qerror_threshold;
    monitor.min_rows = ctx_.config.replan_min_rows;
    monitor.materialized = materialized;
    const bool pass_monitor = monitor_armed || !materialized.empty();
    result = executor_->Execute(q, current, timeout - spent, time_multiplier,
                                deadline, pass_monitor ? &monitor : nullptr);
    if (!result.replan_requested) break;
    // Divergence: keep the prefix latency, pin every observed truth, then
    // re-plan the remainder with the estimator grounded on those pins.
    obs::Count(obs::Counter::kExecReplans);
    spent += result.execution_ns;
    run->replan_wasted_ns += result.execution_ns;
    ++run->replans;
    for (const auto& [mask, rows] : monitor.observed) {
      pins.Pin(mask, static_cast<double>(rows));
    }
    for (const auto& [mask, rows] : result.completed) {
      materialized[mask] = rows;
    }
    const Planned replanned = PlanQuery(q);
    spent += replanned.planning_ns;
    run->replan_planning_ns += replanned.planning_ns;
    if (replanned.plan == current) {
      obs::Count(obs::Counter::kExecReplanNoChange);
    }
    current = replanned.plan;
    if (spent >= timeout) {
      // The wasted attempts alone exhausted the statement timeout.
      result = exec::ExecutionResult();
      result.status = util::Status(util::StatusCode::kDeadlineExceeded,
                                   "statement timeout");
      result.execution_ns = timeout - spent;
      result.timed_out = true;
      break;
    }
  }
  if (run->replans > 0) {
    run->replanned_plan =
        std::make_shared<const optimizer::PhysicalPlan>(std::move(current));
    run->replan_pins = std::make_shared<const exec::CardinalityPins>(pins);
  }
  return result;
}

QueryRun Database::Run(const query::Query& q) {
  const Planned planned = PlanQuery(q);
  QueryRun run = ExecutePlan(q, planned.plan, planned.planning_ns);
  run.used_geqo = planned.used_geqo;
  run.estimated_cost = planned.estimated_cost;
  return run;
}

int64_t Database::RunCount(const query::Query& q) const {
  auto it = run_counts_.find(exec::QueryFingerprint(q));
  return it == run_counts_.end() ? 0 : it->second;
}

void Database::DropCaches() {
  ctx_.buffer_pool->DropCaches();
  run_counts_.clear();
}

void Database::BeginQueryReplay(uint64_t global_seed, const query::Query& q,
                                uint64_t salt) {
  DropCaches();
  noise_rng_ =
      util::Rng(util::MixSeed(global_seed, exec::QueryFingerprint(q), salt));
}

void Database::SetWarmupStage(const query::Query& q, int64_t run_index) {
  LQOLAB_CHECK_GE(run_index, 0);
  run_counts_[exec::QueryFingerprint(q)] = run_index;
}

namespace {

obs::ExplainInput BuildExplainInput(const query::Query& q,
                                    const catalog::Schema& schema,
                                    const optimizer::Planner& planner,
                                    const Database::Planned& planned,
                                    const QueryRun& run) {
  obs::ExplainInput in;
  in.query = &q;
  in.schema = &schema;
  in.plan = &planned.plan;
  in.estimated_rows.reserve(planned.plan.nodes.size());
  for (const optimizer::PlanNode& node : planned.plan.nodes) {
    in.estimated_rows.push_back(
        planner.estimator().EstimateJoinRows(q, node.mask));
  }
  in.node_stats = run.node_stats;
  in.planning_ns = run.planning_ns;
  in.execution_ns = run.execution_ns;
  in.timed_out = run.timed_out;
  return in;
}

}  // namespace

std::string Database::ExplainAnalyze(const query::Query& q) {
  const Planned planned = PlanQuery(q);
  const QueryRun run = ExecutePlan(q, planned.plan, planned.planning_ns);
  return obs::ExplainAnalyzeText(
      BuildExplainInput(q, schema(), *planner_, planned, run));
}

std::string Database::ExplainAnalyzeJson(const query::Query& q) {
  const Planned planned = PlanQuery(q);
  const QueryRun run = ExecutePlan(q, planned.plan, planned.planning_ns);
  return obs::ExplainAnalyzeJson(
      BuildExplainInput(q, schema(), *planner_, planned, run));
}

}  // namespace lqolab::engine
