#ifndef LQOLAB_QUERY_SQL_WORKLOAD_H_
#define LQOLAB_QUERY_SQL_WORKLOAD_H_

#include <string>
#include <string_view>
#include <vector>

#include "catalog/schema.h"
#include "query/query.h"
#include "util/status.h"

namespace lqolab::query {

/// Loads a workload from SQL text. The format is a sequence of entries
///
///   -- <id>
///   SELECT COUNT(*) FROM ... WHERE ...;
///
/// where the header comment names the query ("c3a", "h12b", ...) and
/// everything up to the next header is one statement (newlines and extra
/// `--` comments allowed). Each statement is parsed and bound against
/// `schema` via sql::ParseAndBindSql; ids map to template/variant through
/// sql::AssignQueryId, so variants of one family share a template_id and
/// the benchkit splits group them correctly. The first malformed entry
/// aborts the load with a diagnostic prefixed "<source>:<id>".
util::Status LoadSqlWorkloadText(std::string_view text,
                                 const std::string& source_name,
                                 const catalog::Schema& schema,
                                 std::vector<Query>* out);

/// LoadSqlWorkloadText over the contents of `path`.
util::Status LoadSqlWorkloadFile(const std::string& path,
                                 const catalog::Schema& schema,
                                 std::vector<Query>* out);

/// Loads a named workload from its file under workloads/ (the
/// LQOLAB_WORKLOADS_DIR compile definition):
///
///   job          job_lite.sql          JOB-lite: 113 queries, 33 templates
///   ext_job      ext_job.sql           Ext-JOB-lite: 20 queries over 10
///                                      templates unseen in JOB-lite
///   job_complex  job_complex_lite.sql  JOB-Complex-lite
///   tpch         tpch_lite.sql         TPC-H-lite (TPC-H-lite schema)
///
/// `schema` must be the one the workload binds against. These files ship
/// with the source tree, so a failure is fatal: an unknown name or a
/// malformed file prints the loader's diagnostic and exits with status 1.
std::vector<Query> LoadWorkload(const std::string& name,
                                const catalog::Schema& schema);

/// The query with `id` ("3a") of the named workload; exits like
/// LoadWorkload when the id is missing.
Query LoadWorkloadQuery(const std::string& name, const std::string& id,
                        const catalog::Schema& schema);

}  // namespace lqolab::query

#endif  // LQOLAB_QUERY_SQL_WORKLOAD_H_
