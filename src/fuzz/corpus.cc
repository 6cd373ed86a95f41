#include "fuzz/corpus.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "query/sql_workload.h"

namespace lqolab::fuzz {

std::string WriteReproducer(const std::string& dir, const query::Query& q,
                            const catalog::Schema& schema,
                            const std::string& note) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  const std::string path = dir + "/" + q.id + ".sql";
  std::ofstream out(path);
  if (!out.is_open()) return "";
  out << "-- lqolab fuzz reproducer; replay with:\n";
  out << "--   ./build/tests/test_fuzz --replay " << path << "\n";
  std::istringstream note_lines(note);
  std::string note_line;
  while (std::getline(note_lines, note_line)) {
    // A blank line would leave "note:" as the only token: a header.
    if (note_line.find_first_not_of(" \t\r") == std::string::npos) continue;
    out << "-- note: " << note_line << "\n";
  }
  out << "-- " << q.id << "\n" << q.ToSql(schema) << ";\n";
  return out.good() ? path : "";
}

util::Status LoadReproducer(const std::string& path,
                            const catalog::Schema& schema, query::Query* out) {
  std::vector<query::Query> queries;
  const util::Status status =
      query::LoadSqlWorkloadFile(path, schema, &queries);
  if (!status.ok()) return status;
  if (queries.size() != 1) {
    return util::Status(util::StatusCode::kInvalidArgument,
                        path + ": a reproducer holds exactly one query, " +
                            "found " + std::to_string(queries.size()));
  }
  *out = std::move(queries.front());
  return util::Status::Ok();
}

std::vector<std::string> ListCorpus(const std::string& dir) {
  std::vector<std::string> paths;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.path().extension() == ".sql") {
      paths.push_back(entry.path().string());
    }
  }
  std::sort(paths.begin(), paths.end());
  return paths;
}

}  // namespace lqolab::fuzz
