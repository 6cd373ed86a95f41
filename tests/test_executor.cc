// Tests for the virtual-time executor: cache dynamics, operator cost
// ordering, timeouts, configuration effects.

#include <gtest/gtest.h>

#include "datagen/tpch_generator.h"
#include "digest.h"
#include "engine/database.h"
#include "lqo/plan_search.h"
#include "optimizer/physical_plan.h"
#include "query/sql_workload.h"

namespace lqolab::exec {
namespace {

using engine::Database;
using engine::DbConfig;
using optimizer::JoinAlgo;
using optimizer::PhysicalPlan;
using optimizer::ScanType;
using query::Query;

std::unique_ptr<Database> MakeDb(DbConfig config = DbConfig::OurFramework(),
                                 uint64_t seed = 42) {
  Database::Options options;
  options.profile = datagen::ScaleProfile::Small();
  options.seed = seed;
  options.config = config;
  return Database::CreateImdb(options);
}

TEST(Executor, ColdThenHotCache) {
  auto db = MakeDb();
  const Query q = query::LoadWorkloadQuery("job", "2a", db->schema());
  const auto planned = db->PlanQuery(q);
  const auto cold = db->ExecutePlan(q, planned.plan);
  const auto warm = db->ExecutePlan(q, planned.plan);
  const auto hot = db->ExecutePlan(q, planned.plan);
  EXPECT_GT(cold.execution_ns, warm.execution_ns);
  EXPECT_GT(static_cast<double>(warm.execution_ns),
            0.90 * static_cast<double>(hot.execution_ns));
}

TEST(Executor, DropCachesRestoresColdState) {
  auto db = MakeDb();
  const Query q = query::LoadWorkloadQuery("job", "3a", db->schema());
  const auto planned = db->PlanQuery(q);
  const auto cold1 = db->ExecutePlan(q, planned.plan);
  db->ExecutePlan(q, planned.plan);
  db->DropCaches();
  const auto cold2 = db->ExecutePlan(q, planned.plan);
  // Cold-again run is much slower than a hot run and in the ballpark of
  // the first cold run.
  EXPECT_GT(static_cast<double>(cold2.execution_ns),
            0.5 * static_cast<double>(cold1.execution_ns));
}

TEST(Executor, ResultRowsMatchOracle) {
  auto db = MakeDb();
  const Query q = query::LoadWorkloadQuery("job", "1a", db->schema());
  const auto run = db->Run(q);
  const auto truth = db->oracle().TrueJoinRows(q, q.FullMask());
  ASSERT_FALSE(truth.overflow);
  EXPECT_EQ(run.result_rows, truth.rows);
}

TEST(Executor, NestLoopWorseThanHashOnLargeInputs) {
  auto db = MakeDb();
  // t JOIN ci on movie_id: both sides large.
  Query q;
  q.id = "exec_nl_test";
  q.relations = {{catalog::imdb::kTitle, "t"},
                 {catalog::imdb::kCastInfo, "ci"}};
  q.edges = {{0, 0, 1, 2}};
  PhysicalPlan hash;
  {
    const int32_t l = hash.AddScan(0, ScanType::kSeq);
    const int32_t r = hash.AddScan(1, ScanType::kSeq);
    hash.AddJoin(JoinAlgo::kHash, l, r);
  }
  PhysicalPlan nl;
  {
    const int32_t l = nl.AddScan(0, ScanType::kSeq);
    const int32_t r = nl.AddScan(1, ScanType::kSeq);
    nl.AddJoin(JoinAlgo::kNestLoop, l, r);
  }
  const auto hash_run = db->ExecutePlan(q, hash);
  const auto nl_run = db->ExecutePlan(q, nl);
  EXPECT_GT(nl_run.execution_ns, 10 * hash_run.execution_ns);
}

TEST(Executor, TimeoutEnforced) {
  DbConfig config = DbConfig::OurFramework();
  config.statement_timeout_ms = 1;  // 1 ms: everything times out
  auto db = MakeDb(config);
  const Query q = query::LoadWorkloadQuery("job", "2a", db->schema());
  const auto planned = db->PlanQuery(q);
  const auto run = db->ExecutePlan(q, planned.plan);
  EXPECT_TRUE(run.timed_out);
  EXPECT_EQ(run.execution_ns, 1 * util::kNanosPerMilli);
}

TEST(Executor, PerQueryTimeoutOverride) {
  auto db = MakeDb();
  const Query q = query::LoadWorkloadQuery("job", "2a", db->schema());
  const auto planned = db->PlanQuery(q);
  const auto run = db->ExecutePlan(q, planned.plan, 0, /*timeout_ns=*/1000);
  EXPECT_TRUE(run.timed_out);
  EXPECT_EQ(run.execution_ns, 1000);
}

TEST(Executor, NoiseMakesRunsDifferButClose) {
  auto db = MakeDb();
  const Query q = query::LoadWorkloadQuery("job", "4a", db->schema());
  const auto planned = db->PlanQuery(q);
  db->ExecutePlan(q, planned.plan);  // warm up
  db->ExecutePlan(q, planned.plan);
  const auto a = db->ExecutePlan(q, planned.plan);
  const auto b = db->ExecutePlan(q, planned.plan);
  EXPECT_NE(a.execution_ns, b.execution_ns);
  const double ratio = static_cast<double>(a.execution_ns) /
                       static_cast<double>(b.execution_ns);
  EXPECT_GT(ratio, 0.85);
  EXPECT_LT(ratio, 1.15);
}

TEST(Executor, DeterministicAcrossDatabases) {
  // Two identical databases produce identical measurements.
  auto db1 = MakeDb();
  auto db2 = MakeDb();
  const Query q = query::LoadWorkloadQuery("job", "5a", db1->schema());
  for (int i = 0; i < 3; ++i) {
    const auto r1 = db1->Run(q);
    const auto r2 = db2->Run(q);
    EXPECT_EQ(r1.execution_ns, r2.execution_ns);
    EXPECT_EQ(r1.planning_ns, r2.planning_ns);
    EXPECT_EQ(r1.result_rows, r2.result_rows);
  }
}

TEST(Executor, WorkMemAffectsBigHashJoins) {
  DbConfig small_mem = DbConfig::OurFramework();
  small_mem.work_mem_mb = 1;  // scaled: tiny -> spills
  DbConfig big_mem = DbConfig::OurFramework();
  big_mem.work_mem_mb = 16 * 1024;
  auto db_small = MakeDb(small_mem);
  auto db_big = MakeDb(big_mem);
  Query q;
  q.id = "exec_workmem_test";
  q.relations = {{catalog::imdb::kTitle, "t"},
                 {catalog::imdb::kCastInfo, "ci"}};
  q.edges = {{0, 0, 1, 2}};
  PhysicalPlan plan;
  const int32_t l = plan.AddScan(0, ScanType::kSeq);
  const int32_t r = plan.AddScan(1, ScanType::kSeq);
  plan.AddJoin(JoinAlgo::kHash, l, r);
  // Compare hot-cache runs.
  db_small->ExecutePlan(q, plan);
  db_big->ExecutePlan(q, plan);
  const auto spill = db_small->ExecutePlan(q, plan);
  const auto in_memory = db_big->ExecutePlan(q, plan);
  EXPECT_GT(spill.execution_ns, in_memory.execution_ns);
}

TEST(Executor, ParallelWorkersSpeedUpScans) {
  DbConfig serial = DbConfig::OurFramework();
  serial.max_parallel_workers = 0;
  serial.max_parallel_workers_per_gather = 0;
  auto db_serial = MakeDb(serial);
  auto db_parallel = MakeDb(DbConfig::OurFramework());
  Query q;
  q.id = "exec_parallel_test";
  q.relations = {{catalog::imdb::kCastInfo, "ci"},
                 {catalog::imdb::kName, "n"}};
  q.edges = {{0, 1, 1, 0}};
  PhysicalPlan plan;
  const int32_t l = plan.AddScan(0, ScanType::kSeq);
  const int32_t r = plan.AddScan(1, ScanType::kSeq);
  plan.AddJoin(JoinAlgo::kHash, l, r);
  db_serial->ExecutePlan(q, plan);
  db_parallel->ExecutePlan(q, plan);
  const auto s = db_serial->ExecutePlan(q, plan);
  const auto p = db_parallel->ExecutePlan(q, plan);
  EXPECT_GE(s.execution_ns, p.execution_ns);
}

TEST(Executor, WarmupMultiplierDecays) {
  // The first run of a query signature pays the warm-up penalty; by the
  // third run only noise remains (Fig. 4's mechanism).
  auto db = MakeDb();
  const Query q = query::LoadWorkloadQuery("job", "6a", db->schema());
  EXPECT_EQ(db->RunCount(q), 0);
  db->Run(q);
  EXPECT_EQ(db->RunCount(q), 1);
  db->Run(q);
  db->Run(q);
  EXPECT_EQ(db->RunCount(q), 3);
}

TEST(Executor, IndexNljInnerScanNotCharged) {
  // An index-NLJ with a tiny outer must be far cheaper than a full inner
  // scan would imply.
  auto db = MakeDb();
  Query q;
  q.id = "exec_inlj_test";
  q.relations = {{catalog::imdb::kKindType, "kt"},
                 {catalog::imdb::kTitle, "t"}};
  q.edges = {{0, 0, 1, 2}};  // kt.id = t.kind_id
  query::Predicate p;
  p.alias = 0;
  p.column = 1;
  p.kind = query::Predicate::Kind::kEq;
  p.str_values = {"video game"};  // rare kind
  q.predicates.push_back(p);

  PhysicalPlan inlj;
  {
    const int32_t l = inlj.AddScan(0, ScanType::kSeq);
    const int32_t r = inlj.AddScan(1, ScanType::kIndex, 2);
    inlj.AddJoin(JoinAlgo::kIndexNlj, l, r);
  }
  PhysicalPlan hash;
  {
    const int32_t l = hash.AddScan(0, ScanType::kSeq);
    const int32_t r = hash.AddScan(1, ScanType::kSeq);
    hash.AddJoin(JoinAlgo::kHash, l, r);
  }
  db->ExecutePlan(q, inlj);
  db->ExecutePlan(q, hash);
  const auto inlj_run = db->ExecutePlan(q, inlj);
  const auto hash_run = db->ExecutePlan(q, hash);
  EXPECT_EQ(inlj_run.result_rows, hash_run.result_rows);
}

/// Property sweep: for every query, any two executions of the same plan
/// report the same result rows, and pages_accessed is positive.
class ExecutorWorkloadProperty : public ::testing::TestWithParam<int> {};

TEST_P(ExecutorWorkloadProperty, StableResults) {
  static Database* db = MakeDb().release();
  static auto workload = query::LoadWorkload("job", db->schema());
  const Query& q = workload[static_cast<size_t>(GetParam())];
  const auto planned = db->PlanQuery(q);
  const auto a = db->ExecutePlan(q, planned.plan);
  const auto b = db->ExecutePlan(q, planned.plan);
  EXPECT_EQ(a.result_rows, b.result_rows) << q.id;
  EXPECT_GT(a.pages_accessed, 0) << q.id;
  EXPECT_GT(a.execution_ns, 0) << q.id;
}

INSTANTIATE_TEST_SUITE_P(AllQueries, ExecutorWorkloadProperty,
                         ::testing::Range(0, 113, 5));

/// The buffer-pool sizings the digests sweep: nothing evicts
/// (OurFramework), a 512-page shared tier in front of a large OS tier
/// (Default), and shared buffers larger than the OS cache so both tiers
/// evict and the shared tier holds pages the OS tier has dropped.
std::vector<DbConfig> BufferDigestConfigs() {
  DbConfig inverted = DbConfig::Default();
  inverted.shared_buffers_mb = 96;  // 384 pages
  inverted.ram_mb = 32;             // 128 pages
  return {DbConfig::OurFramework(), DbConfig::Default(), inverted};
}

struct BufferDigests {
  uint64_t runs = 0;
  int64_t evictions = 0;
};

/// Runs every query of `workload` three times under each
/// BufferDigestConfigs sizing, dropping shared buffers after the first
/// pass and both tiers after the second, and digests each run's
/// execution_ns, pages_accessed and per-node tier counts. `evictions` sums
/// the pools' lifetime evictions after every sizing.
BufferDigests DigestBufferRuns(Database* db, const std::string& workload) {
  const std::vector<Query> queries = query::LoadWorkload(workload,
                                                         db->schema());
  storage::BufferPool& pool = *db->context().buffer_pool;
  BufferDigests out;
  testutil::Digest digest;
  for (const DbConfig& config : BufferDigestConfigs()) {
    db->SetConfig(config);
    db->DropCaches();
    std::vector<PhysicalPlan> plans;
    for (const Query& q : queries) plans.push_back(db->PlanQuery(q).plan);
    for (int pass = 0; pass < 3; ++pass) {
      for (size_t i = 0; i < queries.size(); ++i) {
        const auto run = db->ExecutePlan(queries[i], plans[i]);
        digest.Add(queries[i].id);
        digest.AddInt(run.execution_ns);
        digest.AddInt(run.pages_accessed);
        for (const PlanNodeStats& node : run.node_stats) {
          digest.AddInt(node.shared_hits);
          digest.AddInt(node.os_hits);
          digest.AddInt(node.disk_reads);
        }
      }
      if (pass == 0) {
        pool.DropSharedBuffers();
      } else if (pass == 1) {
        db->DropCaches();
      }
    }
    out.evictions += pool.evictions();
  }
  out.runs = digest.value();
  return out;
}

std::unique_ptr<Database> MakeTpchDb() {
  Database::Options options;
  options.seed = 42;
  return Database::CreateTpch(options,
                              datagen::TpchScaleProfile::Small().Scaled(0.5));
}

// Bit-for-bit pins of the buffer-cache model as the executor sees it. The
// constants were computed with the pool built from two LruCaches; any
// change to which tier serves a single page access, or to how many pages
// either tier evicts, fails one of them.
TEST(ExecutorBufferDigest, Job) {
  const BufferDigests d = DigestBufferRuns(MakeDb().get(), "job");
  EXPECT_EQ(d.runs, 10428271227144689753ull);
  EXPECT_EQ(d.evictions, 331118);
}

TEST(ExecutorBufferDigest, Tpch) {
  const BufferDigests d = DigestBufferRuns(MakeTpchDb().get(), "tpch");
  EXPECT_EQ(d.runs, 15293372500270488133ull);
  EXPECT_EQ(d.evictions, 24665);
}

}  // namespace
}  // namespace lqolab::exec
