// Committed answers (ctest label `answers`): every query of the four
// workloads, evaluated at its full mask on the seed-42 test databases (IMDB
// ScaleProfile::Small(), TPC-H TpchScaleProfile::Small().Scaled(0.5)),
// must give the answer recorded in workloads/<file>.answers, and every
// shape of tests/answers/fallbacks.sql the one in
// tests/answers/fallbacks.answers (on the test_kernels database, IMDB
// Medium().Scaled(0.01); each shape's pair of aliases 0 and 1 is asked
// first, so the full mask can extend it).
//
// Each line is "<query id> <rows|overflow> <digest|->". The digest is
// order-independent: the sum over result tuples of Σ_a h(a, row_a) mod
// 2^64, read from the reference's materialized full mask, and "-" where
// the reference overflowed or the product overflowed. The product
// exec::Oracle keeps only frontier row ids, and a full mask has none, so
// it must match "<query id> <rows|overflow>". The tuple-at-a-time
// reference, fuzz::ScalarOracle, must match the whole line — except on the
// fallback shapes, where its caps on logical rows trip before the
// product's caps on stored rows, so it may report "<query id> overflow -"
// instead (tests/test_kernels.cc checks those counts against a closed
// form).
//
// Regenerate after an INTENDED change (refuses to write when the two
// oracles disagree where the reference counts):
//   ./build/tests/test_answers --update-answers

#include <bit>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/database.h"
#include "exec/oracle.h"
#include "fuzz/scalar_oracle.h"
#include "query/sql_workload.h"
#include "util/rng.h"

namespace lqolab {
namespace {

bool update_answers = false;

enum class Data { kImdbSmall, kTpchSmall, kImdbKernels };

struct AnswerFile {
  const char* workload;  // query::LoadWorkload name; null: tests/answers
  const char* file;      // <dir>/<file>.answers (and .sql under tests)
  Data data;
  bool reference_may_overflow = false;  // where the product counts
};

// Names the parameter in test listings (gtest would print its bytes).
void PrintTo(const AnswerFile& f, std::ostream* os) { *os << f.file; }

constexpr AnswerFile kAnswerFiles[] = {
    {"job", "job_lite", Data::kImdbSmall},
    {"ext_job", "ext_job", Data::kImdbSmall},
    {"job_complex", "job_complex_lite", Data::kImdbSmall},
    {"tpch", "tpch_lite", Data::kTpchSmall},
    {nullptr, "fallbacks", Data::kImdbKernels, true},
};

std::string FilePath(const AnswerFile& f, const char* extension) {
  return std::string(f.workload != nullptr ? LQOLAB_WORKLOADS_DIR
                                           : LQOLAB_TEST_ANSWERS_DIR) +
         "/" + f.file + extension;
}

std::string AnswerPath(const AnswerFile& f) {
  return FilePath(f, ".answers");
}

enum class Engine { kProduct, kScalar };

const char* EngineName(Engine e) {
  return e == Engine::kProduct ? "product" : "scalar";
}

engine::Database& Db(Data data) {
  static engine::Database* dbs[3] = {};
  engine::Database*& db = dbs[static_cast<int>(data)];
  if (db != nullptr) return *db;
  engine::Database::Options options;
  options.seed = 42;
  switch (data) {
    case Data::kTpchSmall:
      db = engine::Database::CreateTpch(
               options, datagen::TpchScaleProfile::Small().Scaled(0.5))
               .release();
      break;
    case Data::kImdbSmall:
      options.profile = datagen::ScaleProfile::Small();
      db = engine::Database::CreateImdb(options).release();
      break;
    case Data::kImdbKernels:
      options.profile = datagen::ScaleProfile::Medium().Scaled(0.01);
      db = engine::Database::CreateImdb(options).release();
      break;
  }
  return *db;
}

std::unique_ptr<exec::Oracle> MakeOracle(Engine e, const exec::DbContext* ctx) {
  if (e == Engine::kProduct) return std::make_unique<exec::Oracle>(ctx);
  return std::make_unique<fuzz::ScalarOracle>(ctx);
}

/// Σ over tuples of Σ_a h(a, row_a) mod 2^64; `tuples` is row-major with
/// one row id per alias of `mask`, aliases ascending.
uint64_t TupleDigest(query::AliasMask mask,
                     const std::vector<storage::RowId>& tuples) {
  std::vector<uint64_t> aliases;
  for (query::AliasMask bits = mask; bits != 0; bits &= bits - 1) {
    aliases.push_back(static_cast<uint64_t>(std::countr_zero(bits)));
  }
  uint64_t digest = 0;
  for (size_t i = 0; i < tuples.size(); ++i) {
    digest += util::MixSeed(aliases[i % aliases.size()],
                            static_cast<uint64_t>(tuples[i]));
  }
  return digest;
}

/// The answer line of `q` at its full mask. The reference writes the whole
/// line; the product, whose intermediates keep only frontier row ids (a
/// full mask has none), writes "<query id> <rows|overflow>".
std::string AnswerLine(exec::Oracle& oracle, Engine engine,
                       const query::Query& q) {
  const query::AliasMask full = q.FullMask();
  const exec::Oracle::CardResult card = oracle.TrueJoinRows(q, full);
  const std::string head =
      q.id + " " + (card.overflow ? "overflow" : std::to_string(card.rows));
  if (engine == Engine::kProduct) return head;
  const std::vector<storage::RowId>* tuples =
      static_cast<fuzz::ScalarOracle&>(oracle).MaterializedTuples(q, full);
  if (card.overflow || tuples == nullptr) return head + " -";
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016" PRIx64, TupleDigest(full, *tuples));
  return head + " " + hex;
}

/// The "<query id> <rows|overflow>" head of a whole answer line.
std::string Head(const std::string& line) {
  return line.substr(0, line.rfind(' '));
}

bool Overflowed(const std::string& line) {
  return Head(line).ends_with(" overflow");
}

/// One answer line per query of `f`, from a fresh oracle of `engine`.
std::vector<std::string> Answers(const AnswerFile& f, Engine engine) {
  engine::Database& db = Db(f.data);
  const std::unique_ptr<exec::Oracle> oracle =
      MakeOracle(engine, &db.context());
  std::vector<query::Query> queries;
  if (f.workload != nullptr) {
    queries = query::LoadWorkload(f.workload, db.schema());
  } else {
    const util::Status status =
        query::LoadSqlWorkloadFile(FilePath(f, ".sql"), db.schema(), &queries);
    EXPECT_TRUE(status.ok()) << status.ToString();
  }
  std::vector<std::string> lines;
  for (const query::Query& q : queries) {
    if (f.workload == nullptr) {
      oracle->TrueJoinRows(q, query::MaskOf(0) | query::MaskOf(1));
    }
    lines.push_back(AnswerLine(*oracle, engine, q));
  }
  return lines;
}

class CommittedAnswers : public ::testing::TestWithParam<AnswerFile> {};

TEST_P(CommittedAnswers, MatchUnderBothOracles) {
  const AnswerFile& f = GetParam();
  if (update_answers) {
    const std::vector<std::string> product = Answers(f, Engine::kProduct);
    const std::vector<std::string> scalar = Answers(f, Engine::kScalar);
    ASSERT_EQ(product.size(), scalar.size());
    bool agree = true;
    std::vector<std::string> lines;
    for (size_t i = 0; i < product.size(); ++i) {
      if (f.reference_may_overflow && Overflowed(scalar[i])) {
        lines.push_back(product[i] + " -");
        continue;
      }
      EXPECT_EQ(product[i], Head(scalar[i])) << "oracles disagree";
      agree = agree && product[i] == Head(scalar[i]);
      lines.push_back(scalar[i]);
    }
    ASSERT_TRUE(agree) << "not writing " << AnswerPath(f);
    std::ofstream out(AnswerPath(f));
    ASSERT_TRUE(out.is_open()) << AnswerPath(f);
    if (f.workload != nullptr) {
      out << "# Full-mask answers of workload '" << f.workload
          << "' on the seed-42 test database: <query> <rows|overflow> "
             "<digest|->\n";
    } else {
      out << "# Full-mask answers of " << f.file
          << ".sql on the seed-42 test_kernels database, each after its "
             "pair of aliases 0 and 1: <query> <rows|overflow> <digest|->\n";
    }
    out << "# Regenerate: ./build/tests/test_answers --update-answers\n";
    for (const std::string& line : lines) out << line << "\n";
    std::printf("updated %s (%zu queries)\n", AnswerPath(f).c_str(),
                product.size());
    return;
  }

  std::ifstream in(AnswerPath(f));
  ASSERT_TRUE(in.is_open())
      << "missing " << AnswerPath(f)
      << " — run ./build/tests/test_answers --update-answers";
  std::vector<std::string> committed;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line[0] != '#') committed.push_back(line);
  }
  for (const Engine engine : {Engine::kProduct, Engine::kScalar}) {
    const std::vector<std::string> lines = Answers(f, engine);
    ASSERT_EQ(lines.size(), committed.size())
        << EngineName(engine) << ": query count differs from "
        << AnswerPath(f);
    for (size_t i = 0; i < lines.size(); ++i) {
      if (engine == Engine::kScalar && f.reference_may_overflow &&
          Overflowed(lines[i])) {
        continue;
      }
      EXPECT_EQ(lines[i], engine == Engine::kProduct ? Head(committed[i])
                                                     : committed[i])
          << EngineName(engine) << " oracle, " << AnswerPath(f) << " line "
          << i << " — if intended, regenerate with --update-answers";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, CommittedAnswers, ::testing::ValuesIn(kAnswerFiles),
    [](const ::testing::TestParamInfo<AnswerFile>& info) {
      return std::string(info.param.file);
    });

}  // namespace
}  // namespace lqolab

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--update-answers") {
      lqolab::update_answers = true;
    }
  }
  return RUN_ALL_TESTS();
}
