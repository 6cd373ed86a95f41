// Table-sharding suite (ctest label: shard): storage::ShardedTableSet
// partition invariants, the k-way shard merge, byte-identity of sharded
// execution against the unsharded layout, copy-on-write isolation of worker
// replicas over the shared sharded state (run under -DLQOLAB_SANITIZE=thread
// for the race check), per-shard buffer-pool routing, and chaos-style fault
// injection through the per-shard pools.

#include <memory>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "benchkit/parallel_runner.h"
#include "engine/database.h"
#include "exec/kernels.h"
#include "faultlib/faultlib.h"
#include "query/sql_workload.h"
#include "storage/sharded_table.h"
#include "util/status.h"

namespace lqolab {
namespace {

using engine::Database;
using storage::RowId;
using storage::ShardedTableSet;

/// Unsharded database shared by the suite; sharded twins adopt its tables.
Database* BaseDb() {
  static std::unique_ptr<Database> db = [] {
    Database::Options options;
    options.profile = datagen::ScaleProfile::Small();
    options.seed = 42;
    return Database::CreateImdb(options);
  }();
  return db.get();
}

std::unique_ptr<Database> ShardedTwin(int32_t shards) {
  Database::Options options;
  options.config = BaseDb()->config();
  options.config.table_shards = shards;
  return Database::FromTables(options, BaseDb()->context().tables());
}

const std::vector<query::Query>& Workload() {
  static const std::vector<query::Query> workload =
      query::LoadWorkload("job", BaseDb()->schema());
  return workload;
}

TEST(ShardedTableSet, EveryRowInExactlyOneShardWithConsistentMaps) {
  const auto& tables = BaseDb()->context().tables();
  const ShardedTableSet set(tables, 4);
  ASSERT_EQ(set.num_shards(), 4);
  for (size_t t = 0; t < tables.size(); ++t) {
    const auto table_id = static_cast<catalog::TableId>(t);
    const storage::Table& table = *tables[t];
    std::set<RowId> seen;
    int64_t total_rows = 0;
    for (int32_t s = 0; s < set.num_shards(); ++s) {
      const ShardedTableSet::Shard& shard = set.shard(table_id, s);
      total_rows += shard.row_count();
      RowId prev = -1;
      for (size_t i = 0; i < shard.row_ids.size(); ++i) {
        const RowId row = shard.row_ids[i];
        EXPECT_GT(row, prev) << "row_ids must ascend";
        prev = row;
        EXPECT_TRUE(seen.insert(row).second) << "row owned twice";
        EXPECT_EQ(set.shard_of_row(table_id, row), s);
        EXPECT_EQ(ShardedTableSet::ShardOfRow(table_id, row, 4), s);
        EXPECT_EQ(set.local_page(table_id, row),
                  static_cast<int64_t>(i) / storage::kRowsPerPage);
      }
    }
    EXPECT_EQ(total_rows, table.row_count());
    EXPECT_GE(set.total_pages(table_id), table.page_count());
    EXPECT_LE(set.total_pages(table_id),
              table.page_count() + set.num_shards() - 1);
  }
}

TEST(ShardedTableSet, SegmentsMirrorTheSourceColumns) {
  const auto& tables = BaseDb()->context().tables();
  const ShardedTableSet set(tables, 3);
  const auto table_id = static_cast<catalog::TableId>(0);
  const storage::Table& table = *tables[0];
  for (int32_t s = 0; s < set.num_shards(); ++s) {
    const ShardedTableSet::Shard& shard = set.shard(table_id, s);
    ASSERT_EQ(shard.columns.size(),
              static_cast<size_t>(table.column_count()));
    for (catalog::ColumnId c = 0; c < table.column_count(); ++c) {
      const storage::Value* segment = shard.column_data(c);
      for (size_t i = 0; i < shard.row_ids.size(); ++i) {
        ASSERT_EQ(segment[i], table.column(c).at(shard.row_ids[i]))
            << "shard " << s << " column " << c << " local row " << i;
      }
    }
  }
}

TEST(ShardedTableSet, AssignmentIsDeterministicAndSpreadsRows) {
  // Same inputs, same partition — across instances.
  const auto& tables = BaseDb()->context().tables();
  const ShardedTableSet a(tables, 8);
  const ShardedTableSet b(tables, 8);
  // Spread is only meaningful on a big table; pick the largest.
  catalog::TableId table_id = 0;
  for (size_t t = 1; t < tables.size(); ++t) {
    if (tables[t]->row_count() >
        tables[static_cast<size_t>(table_id)]->row_count()) {
      table_id = static_cast<catalog::TableId>(t);
    }
  }
  for (int32_t s = 0; s < 8; ++s) {
    EXPECT_EQ(a.shard(table_id, s).row_ids, b.shard(table_id, s).row_ids);
  }
  // The hash spreads rows: no shard of a reasonably sized table owns more
  // than twice its fair share.
  const storage::Table& table = *tables[static_cast<size_t>(table_id)];
  ASSERT_GT(table.row_count(), 500);
  for (int32_t s = 0; s < 8; ++s) {
    EXPECT_LT(a.shard(table_id, s).row_count(), table.row_count() / 4)
        << "shard " << s << " is pathologically overloaded";
  }
}

TEST(ShardKernels, MergeShardRowsReassemblesTheUnshardedList) {
  // Disjoint ascending lists in interleaved order.
  const std::vector<std::vector<RowId>> lists = {
      {0, 3, 9, 12}, {1, 4, 5}, {}, {2, 6, 7, 8, 10, 11}};
  std::vector<RowId> merged = {999};  // must be cleared by the kernel
  exec::kernels::MergeShardRows(lists, &merged);
  const std::vector<RowId> expected = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12};
  EXPECT_EQ(merged, expected);

  exec::kernels::MergeShardRows({}, &merged);
  EXPECT_TRUE(merged.empty());
}

TEST(ShardKernels, ShardedSelectionIsByteIdenticalToUnsharded) {
  // Run SelectPredicate over the full column and shard-at-a-time over the
  // partition; the merged shard result must be byte-identical.
  const auto& tables = BaseDb()->context().tables();
  const ShardedTableSet set(tables, 5);
  const auto table_id = static_cast<catalog::TableId>(5);
  const storage::Table& table = *tables[static_cast<size_t>(table_id)];
  query::BoundPredicate pred;
  pred.column = 0;
  pred.kind = query::Predicate::Kind::kNotNull;

  std::vector<RowId> unsharded;
  exec::kernels::SelectPredicate(table.column(0).data(), table.row_count(),
                                 pred, &unsharded);

  std::vector<std::vector<RowId>> per_shard(
      static_cast<size_t>(set.num_shards()));
  std::vector<RowId> local;
  for (int32_t s = 0; s < set.num_shards(); ++s) {
    const ShardedTableSet::Shard& shard = set.shard(table_id, s);
    local.clear();
    exec::kernels::SelectPredicate(shard.column_data(0), shard.row_count(),
                                   pred, &local);
    for (const RowId lr : local) {
      per_shard[static_cast<size_t>(s)].push_back(
          shard.row_ids[static_cast<size_t>(lr)]);
    }
  }
  std::vector<RowId> merged;
  exec::kernels::MergeShardRows(per_shard, &merged);
  EXPECT_EQ(merged, unsharded);
}

TEST(ShardedExecution, PlansAndResultsMatchTheUnshardedDatabase) {
  // Sharding is invisible above storage: identical plans, costs, result
  // rows and true per-node cardinalities on every query. (Virtual latencies
  // may differ — per-shard pools partition the LRU space — and are
  // deliberately not compared.)
  const auto sharded = ShardedTwin(4);
  ASSERT_NE(sharded->context().shards(), nullptr);
  ASSERT_EQ(BaseDb()->context().shards(), nullptr);
  for (size_t i = 0; i < Workload().size(); i += 7) {
    const query::Query& q = Workload()[i];
    const auto base_planned = BaseDb()->PlanQuery(q);
    const auto shard_planned = sharded->PlanQuery(q);
    EXPECT_EQ(base_planned.plan.ToString(q), shard_planned.plan.ToString(q));
    EXPECT_DOUBLE_EQ(base_planned.estimated_cost,
                     shard_planned.estimated_cost);
    EXPECT_EQ(base_planned.planning_ns, shard_planned.planning_ns);

    const auto base_replica = BaseDb()->CloneContextForWorker();
    base_replica->BeginQueryReplay(42, q);
    const engine::QueryRun base_run =
        base_replica->ExecutePlan(q, base_planned.plan, 0);
    const auto shard_replica = sharded->CloneContextForWorker();
    shard_replica->BeginQueryReplay(42, q);
    const engine::QueryRun shard_run =
        shard_replica->ExecutePlan(q, shard_planned.plan, 0);
    ASSERT_TRUE(base_run.status.ok()) << q.id;
    ASSERT_TRUE(shard_run.status.ok()) << q.id;
    EXPECT_EQ(base_run.result_rows, shard_run.result_rows) << q.id;
    EXPECT_EQ(base_run.node_rows, shard_run.node_rows) << q.id;
  }
}

TEST(ShardedExecution, ShardCountDoesNotChangeResults) {
  const auto two = ShardedTwin(2);
  const auto nine = ShardedTwin(9);
  for (size_t i = 0; i < Workload().size(); i += 19) {
    const query::Query& q = Workload()[i];
    const auto planned = two->PlanQuery(q);
    const auto a = two->CloneContextForWorker();
    a->BeginQueryReplay(7, q);
    const auto b = nine->CloneContextForWorker();
    b->BeginQueryReplay(7, q);
    const engine::QueryRun run_a = a->ExecutePlan(q, planned.plan, 0);
    const engine::QueryRun run_b = b->ExecutePlan(q, planned.plan, 0);
    EXPECT_EQ(run_a.result_rows, run_b.result_rows) << q.id;
    EXPECT_EQ(run_a.node_rows, run_b.node_rows) << q.id;
  }
}

TEST(ShardedConfig, TableShardsIsPinnedAfterBuild) {
  const auto sharded = ShardedTwin(4);
  const storage::ShardedTableSet* before = sharded->context().shards();
  ASSERT_NE(before, nullptr);
  // Presets carry table_shards = 1; applying one to a live database must
  // not tear down the physical layout (TrySetConfig pins the built value).
  engine::DbConfig config = engine::DbConfig::Bao();
  ASSERT_TRUE(sharded->TrySetConfig(config).ok());
  EXPECT_EQ(sharded->config().table_shards, 4);
  EXPECT_EQ(sharded->context().shards(), before);
  // And the planner switch took effect regardless.
  EXPECT_EQ(sharded->config().enable_bushy, config.enable_bushy);
}

TEST(ShardedConfig, MemoryResizeKeepsPerShardPools) {
  const auto sharded = ShardedTwin(4);
  engine::DbConfig config = sharded->config();
  config.shared_buffers_mb /= 2;
  ASSERT_TRUE(sharded->TrySetConfig(config).ok());
  EXPECT_EQ(sharded->config().table_shards, 4);
  // The sharded scan path still runs after the resize.
  const query::Query& q = Workload()[0];
  const auto planned = sharded->PlanQuery(q);
  const auto replica = sharded->CloneContextForWorker();
  replica->BeginQueryReplay(42, q);
  const engine::QueryRun run = replica->ExecutePlan(q, planned.plan, 0);
  EXPECT_TRUE(run.status.ok());
  EXPECT_GT(run.pages_accessed, 0);
}

TEST(ShardedCow, WorkerMutationNeverLeaksToParentOrSiblings) {
  const auto sharded = ShardedTwin(4);
  // Replicas adopt the parent's SharedContext by pointer: same tables, same
  // shard set — no per-worker copies of immutable state.
  const auto a = sharded->CloneContextForWorker();
  const auto b = sharded->CloneContextForWorker();
  EXPECT_EQ(&a->context().table(0), &sharded->context().table(0));
  EXPECT_EQ(a->context().shards(), sharded->context().shards());
  EXPECT_EQ(a->context().shards(), b->context().shards());

  // Parent and sibling buffer counters are invisible to a worker's runs.
  const int64_t parent_hits = sharded->context().buffer_shared_hits();
  const int64_t parent_reads = sharded->context().buffer_disk_reads();
  const query::Query& q = Workload()[3];
  const auto planned = sharded->PlanQuery(q);
  b->BeginQueryReplay(42, q);
  const engine::QueryRun first = b->ExecutePlan(q, planned.plan, 0);
  ASSERT_TRUE(first.status.ok());
  EXPECT_EQ(sharded->context().buffer_shared_hits(), parent_hits);
  EXPECT_EQ(sharded->context().buffer_disk_reads(), parent_reads);

  // Heavy churn on sibling `a` must not perturb `b`'s replay determinism.
  for (int i = 0; i < 3; ++i) {
    a->BeginQueryReplay(99, Workload()[i]);
    const auto other = a->PlanQuery(Workload()[i]);
    a->ExecutePlan(Workload()[i], other.plan, 0);
  }
  b->BeginQueryReplay(42, q);
  const engine::QueryRun second = b->ExecutePlan(q, planned.plan, 0);
  EXPECT_EQ(first.result_rows, second.result_rows);
  EXPECT_EQ(first.execution_ns, second.execution_ns);
  EXPECT_EQ(first.pages_accessed, second.pages_accessed);
}

// Concurrent replicas over one shared sharded context; run under
// -DLQOLAB_SANITIZE=thread this is the data-race check for SharedContext
// and ShardedTableSet. Results must match the serial path bit for bit.
TEST(ShardedCow, ParallelMeasurementOverSharedShardsIsDeterministic) {
  const auto sharded = ShardedTwin(4);
  std::vector<query::Query> queries(Workload().begin(),
                                    Workload().begin() + 24);
  benchkit::Protocol protocol;
  protocol.runs = 2;
  protocol.take = 1;
  benchkit::RunnerOptions serial;
  serial.parallelism = 1;
  benchkit::RunnerOptions wide;
  wide.parallelism = 4;
  const auto expected = benchkit::MeasureWorkload(sharded.get(), nullptr,
                                                  queries, protocol, serial);
  const auto actual = benchkit::MeasureWorkload(sharded.get(), nullptr,
                                                queries, protocol, wide);
  ASSERT_EQ(expected.queries.size(), actual.queries.size());
  for (size_t i = 0; i < expected.queries.size(); ++i) {
    EXPECT_EQ(expected.queries[i].execution_ns, actual.queries[i].execution_ns);
    EXPECT_EQ(expected.queries[i].result_rows, actual.queries[i].result_rows);
    EXPECT_EQ(expected.queries[i].run_execution_ns,
              actual.queries[i].run_execution_ns);
    EXPECT_EQ(expected.queries[i].node_rows, actual.queries[i].node_rows);
  }
}

// Chaos arm: a read fault injected through the per-shard buffer pools is
// contained as a typed status, and the clean replay afterwards reproduces
// the canonical run — shard pools degrade exactly like the main pool.
TEST(ShardedChaos, FaultThroughShardPoolsIsContainedAndRecoverable) {
  const auto sharded = ShardedTwin(4);
  const query::Query& q = Workload()[0];
  const auto planned = sharded->PlanQuery(q);
  const auto replica = sharded->CloneContextForWorker();
  replica->BeginQueryReplay(42, q);
  const engine::QueryRun clean = replica->ExecutePlan(q, planned.plan, 0);
  ASSERT_TRUE(clean.status.ok());

  faultlib::FaultPlan plan;
  faultlib::FaultRule rule;
  rule.point = "buffer.read_page";
  rule.kind = faultlib::FaultKind::kError;
  rule.every_nth = 1;
  plan.Add(rule);
  faultlib::FaultInjector injector(plan);
  replica->BeginQueryReplay(42, q);
  engine::QueryRun faulted;
  {
    faultlib::ScopedFaultInjection inject(&injector);
    faulted = replica->ExecutePlan(q, planned.plan, 0);
  }
  EXPECT_EQ(faulted.status.code(), util::StatusCode::kUnavailable);
  EXPECT_GT(injector.fires("buffer.read_page"), 0);

  replica->BeginQueryReplay(42, q);
  const engine::QueryRun after = replica->ExecutePlan(q, planned.plan, 0);
  EXPECT_TRUE(after.status.ok());
  EXPECT_EQ(after.result_rows, clean.result_rows);
  EXPECT_EQ(after.execution_ns, clean.execution_ns);
}

// Latency chaos through the shard pools degrades, never corrupts.
TEST(ShardedChaos, LatencySpikesOnShardPoolsPreserveResults) {
  const auto sharded = ShardedTwin(8);
  const query::Query& q = Workload()[5];
  const auto planned = sharded->PlanQuery(q);
  const auto replica = sharded->CloneContextForWorker();
  replica->BeginQueryReplay(42, q);
  const engine::QueryRun clean = replica->ExecutePlan(q, planned.plan, 0);
  ASSERT_TRUE(clean.status.ok());

  faultlib::FaultPlan plan;
  faultlib::FaultRule rule;
  rule.point = "buffer.read_page";
  rule.kind = faultlib::FaultKind::kLatency;
  rule.latency_ns = 25'000;
  rule.every_nth = 50;
  plan.Add(rule);
  faultlib::FaultInjector injector(plan);
  replica->BeginQueryReplay(42, q);
  engine::QueryRun slow;
  {
    faultlib::ScopedFaultInjection inject(&injector);
    slow = replica->ExecutePlan(q, planned.plan, 0);
  }
  EXPECT_TRUE(slow.status.ok());
  EXPECT_EQ(slow.result_rows, clean.result_rows);
  EXPECT_GT(slow.execution_ns, clean.execution_ns);
}

}  // namespace
}  // namespace lqolab
