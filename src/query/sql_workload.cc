#include "query/sql_workload.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "sql/binder.h"

namespace lqolab::query {

using util::Status;
using util::StatusCode;

namespace {

/// Returns the id when `line` is a `-- <id>` header (exactly one token
/// after the dashes), empty otherwise. Ordinary comments with several words
/// stay comments.
std::string HeaderId(const std::string& line) {
  size_t i = 0;
  while (i < line.size() &&
         std::isspace(static_cast<unsigned char>(line[i]))) {
    ++i;
  }
  if (line.compare(i, 2, "--") != 0) return "";
  i += 2;
  while (i < line.size() &&
         std::isspace(static_cast<unsigned char>(line[i]))) {
    ++i;
  }
  size_t end = i;
  while (end < line.size() &&
         !std::isspace(static_cast<unsigned char>(line[end]))) {
    ++end;
  }
  if (end == i) return "";
  size_t rest = end;
  while (rest < line.size() &&
         std::isspace(static_cast<unsigned char>(line[rest]))) {
    ++rest;
  }
  if (rest != line.size()) return "";
  return line.substr(i, end - i);
}

bool IsBlankOrComment(const std::string& line) {
  size_t i = 0;
  while (i < line.size() &&
         std::isspace(static_cast<unsigned char>(line[i]))) {
    ++i;
  }
  return i == line.size() || line.compare(i, 2, "--") == 0;
}

Status Flush(const std::string& id, const std::string& statement,
             const std::string& source_name, const catalog::Schema& schema,
             std::vector<Query>* out) {
  Query q;
  const Status bound = sql::ParseAndBindSql(statement, schema, &q);
  if (!bound.ok()) {
    return Status(bound.code(), source_name + ":" + id + ": " +
                                    bound.message());
  }
  sql::AssignQueryId(id, &q);
  out->push_back(std::move(q));
  return Status::Ok();
}

}  // namespace

Status LoadSqlWorkloadText(std::string_view text,
                           const std::string& source_name,
                           const catalog::Schema& schema,
                           std::vector<Query>* out) {
  out->clear();
  std::istringstream in{std::string(text)};
  std::string line;
  std::string id;
  std::string statement;
  while (std::getline(in, line)) {
    const std::string header = HeaderId(line);
    if (!header.empty()) {
      if (!id.empty()) {
        const Status status =
            Flush(id, statement, source_name, schema, out);
        if (!status.ok()) return status;
      }
      id = header;
      statement.clear();
      continue;
    }
    if (id.empty()) {
      if (IsBlankOrComment(line)) continue;
      return Status(StatusCode::kInvalidArgument,
                    source_name + ": statement before the first '-- <id>' "
                                  "header");
    }
    statement += line;
    statement += '\n';
  }
  if (!id.empty()) {
    const Status status = Flush(id, statement, source_name, schema, out);
    if (!status.ok()) return status;
  }
  for (size_t i = 0; i < out->size(); ++i) {
    for (size_t j = i + 1; j < out->size(); ++j) {
      if ((*out)[i].id == (*out)[j].id) {
        return Status(StatusCode::kInvalidArgument,
                      source_name + ": duplicate query id '" + (*out)[i].id +
                          "'");
      }
    }
  }
  return Status::Ok();
}

Status LoadSqlWorkloadFile(const std::string& path,
                           const catalog::Schema& schema,
                           std::vector<Query>* out) {
  std::ifstream in(path);
  if (!in) {
    return Status(StatusCode::kInvalidArgument,
                  "cannot open workload file " + path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  // The diagnostic source name is the basename; full paths differ between
  // build and install trees.
  const size_t slash = path.find_last_of('/');
  const std::string name =
      slash == std::string::npos ? path : path.substr(slash + 1);
  return LoadSqlWorkloadText(buffer.str(), name, schema, out);
}

std::vector<Query> LoadWorkload(const std::string& name,
                                const catalog::Schema& schema) {
  std::string file;
  if (name == "job") {
    file = "job_lite.sql";
  } else if (name == "ext_job") {
    file = "ext_job.sql";
  } else if (name == "job_complex") {
    file = "job_complex_lite.sql";
  } else if (name == "tpch") {
    file = "tpch_lite.sql";
  } else {
    std::fprintf(stderr,
                 "unknown workload '%s' (expected job, ext_job, job_complex "
                 "or tpch)\n",
                 name.c_str());
    std::exit(1);
  }
  const std::string path = std::string(LQOLAB_WORKLOADS_DIR) + "/" + file;
  std::vector<Query> queries;
  const Status status = LoadSqlWorkloadFile(path, schema, &queries);
  if (!status.ok()) {
    std::fprintf(stderr, "cannot load %s: %s\n", path.c_str(),
                 status.ToString().c_str());
    std::exit(1);
  }
  return queries;
}

Query LoadWorkloadQuery(const std::string& name, const std::string& id,
                        const catalog::Schema& schema) {
  for (Query& q : LoadWorkload(name, schema)) {
    if (q.id == id) return std::move(q);
  }
  std::fprintf(stderr, "workload '%s' has no query '%s'\n", name.c_str(),
               id.c_str());
  std::exit(1);
}

}  // namespace lqolab::query
