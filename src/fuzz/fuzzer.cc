#include "fuzz/fuzzer.h"

#include <chrono>
#include <utility>

#include "fuzz/corpus.h"
#include "util/check.h"

namespace lqolab::fuzz {

using query::AliasId;
using query::Query;

namespace {

/// `q` without relation `victim`: drops its edges and predicates and
/// renumbers the aliases above it. The caller checks connectivity.
Query WithoutRelation(const Query& q, AliasId victim) {
  Query out;
  out.id = q.id;
  out.template_id = q.template_id;
  out.variant = q.variant;
  for (size_t i = 0; i < q.relations.size(); ++i) {
    if (static_cast<AliasId>(i) != victim) {
      out.relations.push_back(q.relations[i]);
    }
  }
  auto renumber = [victim](AliasId a) {
    return a > victim ? static_cast<AliasId>(a - 1) : a;
  };
  for (const query::JoinEdge& edge : q.edges) {
    if (edge.left_alias == victim || edge.right_alias == victim) continue;
    query::JoinEdge copy = edge;
    copy.left_alias = renumber(copy.left_alias);
    copy.right_alias = renumber(copy.right_alias);
    out.edges.push_back(copy);
  }
  for (const query::Predicate& pred : q.predicates) {
    if (pred.alias == victim) continue;
    query::Predicate copy = pred;
    copy.alias = renumber(copy.alias);
    out.predicates.push_back(copy);
  }
  return out;
}

}  // namespace

Fuzzer::Fuzzer(engine::Database* db, const FuzzOptions& options)
    : db_(db), options_(options), oracle_(db) {}

void Fuzzer::AddLqoArm(lqo::LearnedOptimizer* arm) { oracle_.AddLqoArm(arm); }

Query Fuzzer::Shrink(const Query& q) {
  return Shrink(q, [this](const Query& candidate) {
    return oracle_.Check(candidate).failed();
  });
}

Query Fuzzer::Shrink(
    const Query& q,
    const std::function<bool(const Query&)>& still_fails) {
  Query current = q;
  bool progressed = true;
  while (progressed) {
    progressed = false;
    for (size_t i = 0; i < current.predicates.size(); ++i) {
      Query candidate = current;
      candidate.predicates.erase(candidate.predicates.begin() +
                                 static_cast<long>(i));
      if (still_fails(candidate)) {
        current = std::move(candidate);
        progressed = true;
        break;
      }
    }
    if (progressed) continue;
    for (AliasId a = 0; a < current.relation_count(); ++a) {
      if (current.relation_count() <= 1) break;
      Query candidate = WithoutRelation(current, a);
      if (candidate.relation_count() >= 2 &&
          !candidate.IsConnected(candidate.FullMask())) {
        continue;
      }
      if (still_fails(candidate)) {
        current = std::move(candidate);
        progressed = true;
        break;
      }
    }
  }
  return current;
}

FuzzStats Fuzzer::Run() {
  const auto start = std::chrono::steady_clock::now();
  auto elapsed_ms = [&] {
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::steady_clock::now() - start)
        .count();
  };

  QueryGenerator generator(&db_->context(), options_.generator,
                           options_.seed);
  FuzzStats stats;
  while (stats.queries < options_.num_queries) {
    if (options_.time_budget_ms > 0 &&
        elapsed_ms() >= options_.time_budget_ms) {
      break;
    }
    const Query q = generator.Next();
    const CheckReport report = oracle_.Check(q);
    ++stats.queries;
    stats.checks += report.checks;
    stats.plans_executed += report.plans_executed;
    stats.timeouts += report.timeouts;
    if (!report.failed()) continue;

    for (const Discrepancy& d : report.discrepancies) {
      stats.discrepancies.push_back(d);
    }
    if (options_.corpus_dir.empty()) continue;
    const Query minimal = Shrink(q);
    // Note the (possibly re-derived) failure on the minimal form.
    const CheckReport minimal_report = oracle_.Check(minimal);
    std::string note = "seed " + std::to_string(options_.seed) + ", query " +
                       std::to_string(stats.queries - 1) + "\n";
    const std::vector<Discrepancy>& details =
        minimal_report.failed() ? minimal_report.discrepancies
                                : report.discrepancies;
    for (const Discrepancy& d : details) {
      note += d.check + ": " + d.detail + "\n";
    }
    const std::string path =
        WriteReproducer(options_.corpus_dir, minimal, db_->schema(), note);
    if (!path.empty()) stats.reproducers.push_back(path);
  }
  stats.elapsed_ms = elapsed_ms();
  return stats;
}

CheckReport Fuzzer::Replay(const std::string& path) {
  Query q;
  const util::Status loaded = LoadReproducer(path, db_->schema(), &q);
  if (!loaded.ok()) {
    CheckReport report;
    report.discrepancies.push_back({"reproducer_load", loaded.ToString()});
    return report;
  }
  return oracle_.Check(q);
}

}  // namespace lqolab::fuzz
