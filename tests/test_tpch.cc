// Tests for the TPC-H-lite corner: the 8-table schema, the deterministic
// generator, the workloads/tpch_lite.sql templates (load, round-trip,
// execute), the benchkit split samplers over the workload, and the
// orders-rooted cascade subsample used by the fig7 covariate-shift bench.

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "benchkit/splits.h"
#include "catalog/tpch_schema.h"
#include "datagen/imdb_generator.h"
#include "datagen/tpch_generator.h"
#include "engine/database.h"
#include "exec/oracle.h"
#include "gtest/gtest.h"
#include "query/sql_workload.h"
#include "sql/binder.h"

namespace lqolab {
namespace {

std::unique_ptr<engine::Database> MakeTpch(uint64_t seed = 42) {
  engine::Database::Options options;
  options.seed = seed;
  return engine::Database::CreateTpch(
      options, datagen::TpchScaleProfile::Small().Scaled(0.5));
}

TEST(TpchSchema, EightTablesWithSnowflakeForeignKeys) {
  const catalog::Schema schema = catalog::BuildTpchSchema();
  ASSERT_EQ(schema.table_count(), catalog::tpch::kTableCount);
  EXPECT_EQ(schema.table(catalog::tpch::kLineitem).name, "lineitem");
  EXPECT_EQ(schema.table(catalog::tpch::kOrders).name, "orders");
  // The fact-table fan-out the workload joins across: lineitem -> orders,
  // orders -> customer, customer -> nation -> region.
  auto has_fk = [&](catalog::TableId from, catalog::TableId to) {
    for (const auto& fk : schema.table(from).foreign_keys) {
      if (fk.referenced_table == to) return true;
    }
    return false;
  };
  EXPECT_TRUE(has_fk(catalog::tpch::kLineitem, catalog::tpch::kOrders));
  EXPECT_TRUE(has_fk(catalog::tpch::kLineitem, catalog::tpch::kPart));
  EXPECT_TRUE(has_fk(catalog::tpch::kLineitem, catalog::tpch::kSupplier));
  EXPECT_TRUE(has_fk(catalog::tpch::kOrders, catalog::tpch::kCustomer));
  EXPECT_TRUE(has_fk(catalog::tpch::kCustomer, catalog::tpch::kNation));
  EXPECT_TRUE(has_fk(catalog::tpch::kNation, catalog::tpch::kRegion));
}

TEST(TpchDatagen, GenerationIsDeterministicInSeed) {
  auto a = MakeTpch(7);
  auto b = MakeTpch(7);
  const auto& tables_a = a->context().tables();
  const auto& tables_b = b->context().tables();
  // Sizes come from the profile; content from the seed. Same seed must
  // reproduce identical data, which the workload results witness below.
  for (size_t t = 0; t < tables_a.size(); ++t) {
    EXPECT_GT(tables_a[t]->row_count(), 0) << t;
    EXPECT_EQ(tables_a[t]->row_count(), tables_b[t]->row_count()) << t;
  }
  const auto workload = query::LoadWorkload("tpch", a->schema());
  ASSERT_FALSE(workload.empty());
  const engine::QueryRun run_a = a->Run(workload[0]);
  const engine::QueryRun run_b = b->Run(workload[0]);
  ASSERT_TRUE(run_a.status.ok()) << run_a.status.message();
  EXPECT_EQ(run_a.result_rows, run_b.result_rows);
}

TEST(TpchWorkload, LoadsRoundTripsAndExecutes) {
  auto db = MakeTpch();
  const auto workload = query::LoadWorkload("tpch", db->schema());
  std::set<int32_t> families;
  for (const query::Query& q : workload) {
    families.insert(q.template_id);
    // Byte-identical render -> parse+bind -> render round trip.
    const std::string sql = q.ToSql(db->schema());
    query::Query rebound;
    const util::Status status =
        sql::ParseAndBindSql(sql, db->schema(), &rebound);
    ASSERT_TRUE(status.ok()) << q.id << ": " << status.message();
    sql::AssignQueryId(q.id, &rebound);
    EXPECT_EQ(exec::QueryFingerprint(q), exec::QueryFingerprint(rebound))
        << q.id;
    EXPECT_EQ(sql, rebound.ToSql(db->schema())) << q.id;
    // And the bound query executes on the TPC-H-lite database.
    const engine::QueryRun run = db->Run(q);
    ASSERT_TRUE(run.status.ok()) << q.id << ": " << run.status.message();
    EXPECT_GE(run.result_rows, 0) << q.id;
  }
  EXPECT_GE(workload.size(), 30u);
  EXPECT_GE(families.size(), 15u);
}

TEST(TpchWorkload, ExecutionIsDeterministicAcrossReplicas) {
  auto db = MakeTpch();
  auto replica = db->CloneContextForWorker();
  const auto workload = query::LoadWorkload("tpch", db->schema());
  for (size_t i = 0; i < workload.size(); i += 5) {
    const engine::QueryRun a = db->Run(workload[i]);
    const engine::QueryRun b = replica->Run(workload[i]);
    ASSERT_TRUE(a.status.ok()) << workload[i].id;
    EXPECT_EQ(a.result_rows, b.result_rows) << workload[i].id;
  }
}

// The fig3/fig5 split protocol applies unchanged: families group by
// template_id, and base-query sampling holds out whole families.
TEST(TpchWorkload, PaperSplitsGroupFamilies) {
  const catalog::Schema schema = catalog::BuildTpchSchema();
  const auto workload = query::LoadWorkload("tpch", schema);
  const auto splits = benchkit::PaperSplits(workload);
  ASSERT_EQ(splits.size(), 9u);
  for (const auto& split : splits) {
    EXPECT_FALSE(split.train_indices.empty()) << split.name;
    EXPECT_FALSE(split.test_indices.empty()) << split.name;
  }
  // Base-query splits: a family is entirely train or entirely test.
  for (size_t s = 6; s < 9; ++s) {
    std::set<int32_t> test_families;
    for (int32_t i : splits[s].test_indices) {
      test_families.insert(workload[static_cast<size_t>(i)].template_id);
    }
    for (int32_t i : splits[s].train_indices) {
      EXPECT_EQ(test_families.count(
                    workload[static_cast<size_t>(i)].template_id),
                0u)
          << splits[s].name;
    }
  }
}

// The fig7 covariate-shift path: cascade-subsampling from orders keeps
// referential integrity and the workload executable.
TEST(TpchDatagen, OrdersCascadeSubsampleStaysConsistent) {
  auto full = MakeTpch();
  auto half_tables = datagen::SubsampleCascade(
      full->schema(), full->context().tables(), catalog::tpch::kOrders, 0.5,
      43);
  engine::Database::Options options;
  options.seed = 42;
  auto half = engine::Database::FromTables(options, full->schema(),
                                           std::move(half_tables));
  const auto& full_tables = full->context().tables();
  const auto& sub_tables = half->context().tables();
  const int64_t full_orders =
      full_tables[catalog::tpch::kOrders]->row_count();
  const int64_t half_orders = sub_tables[catalog::tpch::kOrders]->row_count();
  EXPECT_LT(half_orders, full_orders);
  EXPECT_GT(half_orders, full_orders / 4);
  // Lineitem cascades with its orders; dimension tables are untouched.
  EXPECT_LT(sub_tables[catalog::tpch::kLineitem]->row_count(),
            full_tables[catalog::tpch::kLineitem]->row_count());
  EXPECT_EQ(sub_tables[catalog::tpch::kCustomer]->row_count(),
            full_tables[catalog::tpch::kCustomer]->row_count());
  EXPECT_EQ(sub_tables[catalog::tpch::kRegion]->row_count(),
            full_tables[catalog::tpch::kRegion]->row_count());
  // The workload still runs on the subsample.
  const auto workload = query::LoadWorkload("tpch", full->schema());
  for (size_t i = 0; i < workload.size(); i += 7) {
    const engine::QueryRun run = half->Run(workload[i]);
    ASSERT_TRUE(run.status.ok()) << workload[i].id;
  }
}

}  // namespace
}  // namespace lqolab
