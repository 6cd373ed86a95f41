#ifndef LQOLAB_FUZZ_CORPUS_H_
#define LQOLAB_FUZZ_CORPUS_H_

#include <string>
#include <vector>

#include "catalog/schema.h"
#include "query/query.h"
#include "util/status.h"

namespace lqolab::fuzz {

/// A reproducer is a one-entry SQL workload file (query/sql_workload.h):
///
///   -- lqolab fuzz reproducer; replay with:
///   --   ./build/tests/test_fuzz --replay <dir>/<id>.sql
///   -- note: <one line of the note>
///   -- <id>
///   SELECT COUNT(*) FROM ...;
///
/// The statement is the query's ToSql rendering, so tables, columns and
/// string literals are spelled by name (they rebind against whatever
/// database replays it) and the statement pastes straight into
/// QueryServer::SubmitSql. Note lines carry a "note:" prefix, so no note
/// can be mistaken for the one-token `-- <id>` header.
///
/// Writes `q` (with `note`, possibly multi-line) to `<dir>/<id>.sql`,
/// creating `dir` if needed. Returns the path, or "" on I/O failure.
std::string WriteReproducer(const std::string& dir, const query::Query& q,
                            const catalog::Schema& schema,
                            const std::string& note);

/// Loads one reproducer file through query::LoadSqlWorkloadFile; a file
/// holding other than exactly one query is kInvalidArgument.
util::Status LoadReproducer(const std::string& path,
                            const catalog::Schema& schema, query::Query* out);

/// All *.sql files under `dir`, sorted by name; empty when the directory
/// does not exist.
std::vector<std::string> ListCorpus(const std::string& dir);

}  // namespace lqolab::fuzz

#endif  // LQOLAB_FUZZ_CORPUS_H_
