#include "sql/binder.h"

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <limits>
#include <vector>

#include "sql/parser.h"
#include "storage/column.h"

namespace lqolab::sql {

using catalog::ColumnId;
using catalog::ColumnType;
using catalog::Schema;
using catalog::TableId;
using query::AliasId;
using query::JoinEdge;
using query::Predicate;
using query::Query;
using query::QueryRelation;
using util::Status;
using util::StatusCode;

namespace {

/// Open range endpoints for one-sided comparisons, matching the convention
/// the hand-built JOB workload uses so `t.production_year > 2000` binds to
/// the same predicate as QB::Gt and round-trips byte-identically.
constexpr storage::Value kOpenLo = -2000000000;
constexpr storage::Value kOpenHi = 2000000000;

std::string Lower(std::string_view text) {
  std::string out(text);
  for (char& c : out) c = static_cast<char>(std::tolower(
      static_cast<unsigned char>(c)));
  return out;
}

/// Plain Levenshtein distance; names are short, so the O(n*m) table is
/// nothing.
size_t EditDistance(const std::string& a, const std::string& b) {
  std::vector<size_t> row(b.size() + 1);
  for (size_t j = 0; j <= b.size(); ++j) row[j] = j;
  for (size_t i = 1; i <= a.size(); ++i) {
    size_t diag = row[0];
    row[0] = i;
    for (size_t j = 1; j <= b.size(); ++j) {
      const size_t up = row[j];
      const size_t cost = a[i - 1] == b[j - 1] ? 0 : 1;
      row[j] = std::min({row[j] + 1, row[j - 1] + 1, diag + cost});
      diag = up;
    }
  }
  return row[b.size()];
}

/// Closest candidate within an edit-distance budget of a third of the name
/// (at least 2), or empty when nothing is plausibly a typo.
std::string Suggest(const std::string& name,
                    const std::vector<std::string>& candidates) {
  const size_t budget = std::max<size_t>(2, name.size() / 3);
  size_t best_distance = budget + 1;
  std::string best;
  for (const auto& candidate : candidates) {
    const size_t d = EditDistance(name, candidate);
    if (d < best_distance) {
      best_distance = d;
      best = candidate;
    }
  }
  return best;
}

class Binder {
 public:
  Binder(const SelectStatement& stmt, const Schema& schema, Query* out)
      : stmt_(stmt), schema_(schema), out_(out) {}

  Status Bind() {
    Status status = BindSelectList();
    if (status.ok()) status = BindFrom();
    if (status.ok()) status = BindWhere();
    if (status.ok()) status = CheckConnected();
    return status;
  }

 private:
  Status Fail(const SourceLoc& loc, const std::string& message) const {
    return Status(StatusCode::kInvalidArgument,
                  LocString(loc) + ": " + message);
  }

  Status BindSelectList() {
    const auto& items = stmt_.select;
    if (items.size() != 1 ||
        items[0].agg != AstSelectItem::Agg::kCountStar) {
      const auto& at = items.empty() ? SourceLoc() : items[0].loc;
      return Fail(at, "the select list must be exactly COUNT(*)");
    }
    return Status::Ok();
  }

  Status BindFrom() {
    if (stmt_.from.size() > 32) {
      return Fail(stmt_.from[32].loc,
                  "queries are limited to 32 relations");
    }
    for (const auto& ref : stmt_.from) {
      const std::string table_name = Lower(ref.table);
      const TableId table = schema_.FindTable(table_name);
      if (table == catalog::kInvalidTable) {
        std::vector<std::string> names;
        for (const auto& def : schema_.tables()) names.push_back(def.name);
        return Fail(ref.loc, "unknown table '" + table_name + "'" +
                                 DidYouMean(Suggest(table_name, names)));
      }
      QueryRelation rel;
      rel.table = table;
      rel.alias = ref.alias.empty() ? table_name : Lower(ref.alias);
      for (const auto& existing : out_->relations) {
        if (existing.alias == rel.alias) {
          return Fail(ref.loc, "duplicate alias '" + rel.alias + "'");
        }
      }
      out_->relations.push_back(std::move(rel));
    }
    return Status::Ok();
  }

  static std::string DidYouMean(const std::string& suggestion) {
    if (suggestion.empty()) return "";
    return ", did you mean '" + suggestion + "'?";
  }

  /// Resolves a column reference to (alias, column). Unqualified names are
  /// searched across every FROM item and must be unambiguous.
  Status ResolveColumn(const AstColumnRef& ref, AliasId* alias_out,
                       ColumnId* column_out) const {
    const std::string column_name = Lower(ref.column);
    if (!ref.qualifier.empty()) {
      const std::string qualifier = Lower(ref.qualifier);
      AliasId alias = -1;
      for (size_t i = 0; i < out_->relations.size(); ++i) {
        if (out_->relations[i].alias == qualifier) {
          alias = static_cast<AliasId>(i);
          break;
        }
      }
      if (alias < 0) {
        std::vector<std::string> aliases;
        for (const auto& rel : out_->relations) aliases.push_back(rel.alias);
        return Fail(ref.loc, "unknown alias '" + qualifier + "'" +
                                 DidYouMean(Suggest(qualifier, aliases)));
      }
      const auto& def = schema_.table(out_->relations
                                          [static_cast<size_t>(alias)].table);
      const ColumnId column = def.FindColumn(column_name);
      if (column == catalog::kInvalidColumn) {
        std::vector<std::string> names;
        for (const auto& col : def.columns) names.push_back(col.name);
        return Fail(ref.loc,
                    "unknown column '" + qualifier + "." + column_name +
                        "'" + DidYouMean(Suggest(column_name, names)));
      }
      *alias_out = alias;
      *column_out = column;
      return Status::Ok();
    }

    AliasId found_alias = -1;
    ColumnId found_column = catalog::kInvalidColumn;
    std::string matches;  // for the ambiguity diagnostic
    for (size_t i = 0; i < out_->relations.size(); ++i) {
      const auto& rel = out_->relations[i];
      const ColumnId column =
          schema_.table(rel.table).FindColumn(column_name);
      if (column == catalog::kInvalidColumn) continue;
      if (found_alias >= 0) {
        if (!matches.empty()) matches += ", ";
        matches += rel.alias + "." + column_name;
        continue;
      }
      found_alias = static_cast<AliasId>(i);
      found_column = column;
      matches = rel.alias + "." + column_name;
    }
    if (found_alias < 0) {
      std::vector<std::string> names;
      for (const auto& rel : out_->relations) {
        for (const auto& col : schema_.table(rel.table).columns) {
          names.push_back(col.name);
        }
      }
      return Fail(ref.loc, "unknown column '" + column_name + "'" +
                               DidYouMean(Suggest(column_name, names)));
    }
    if (matches.find(',') != std::string::npos) {
      return Fail(ref.loc, "ambiguous column '" + column_name +
                               "' (matches " + matches + ")");
    }
    *alias_out = found_alias;
    *column_out = found_column;
    return Status::Ok();
  }

  ColumnType TypeOf(AliasId alias, ColumnId column) const {
    const auto& rel = out_->relations[static_cast<size_t>(alias)];
    return schema_.table(rel.table)
        .columns[static_cast<size_t>(column)]
        .type;
  }

  std::string NameOf(AliasId alias, ColumnId column) const {
    const auto& rel = out_->relations[static_cast<size_t>(alias)];
    return rel.alias + "." +
           schema_.table(rel.table).columns[static_cast<size_t>(column)].name;
  }

  /// Range-checks an int64 literal (or a derived range endpoint) into
  /// storage::Value; kNullValue is reserved as the null sentinel.
  Status CheckedValue(int64_t value, const SourceLoc& loc,
                      storage::Value* out) const {
    if (value <= storage::kNullValue ||
        value > std::numeric_limits<storage::Value>::max()) {
      return Fail(loc, "integer literal out of range");
    }
    *out = static_cast<storage::Value>(value);
    return Status::Ok();
  }

  Status RequireInt(const AstLiteral& literal, ColumnType type,
                    AliasId alias, ColumnId column,
                    storage::Value* out) const {
    if (literal.kind != AstLiteral::Kind::kInt) {
      return Fail(literal.loc, "string literal compared against integer "
                               "column " + NameOf(alias, column));
    }
    if (type != ColumnType::kInt) {
      return Fail(literal.loc, "integer literal compared against string "
                               "column " + NameOf(alias, column));
    }
    return CheckedValue(literal.int_value, literal.loc, out);
  }

  Status BindWhere() {
    for (const auto& pred : stmt_.where) {
      Status status = BindPredicate(pred);
      if (!status.ok()) return status;
    }
    return Status::Ok();
  }

  Status BindPredicate(const AstPredicate& pred) {
    AliasId alias = -1;
    ColumnId column = catalog::kInvalidColumn;
    Status status = ResolveColumn(pred.lhs, &alias, &column);
    if (!status.ok()) return status;
    const ColumnType type = TypeOf(alias, column);

    if (pred.rhs_is_column) return BindJoin(pred, alias, column, type);

    Predicate bound;
    bound.alias = alias;
    bound.column = column;

    switch (pred.op) {
      case AstPredicate::Op::kEq:
      case AstPredicate::Op::kIn: {
        bound.kind = pred.op == AstPredicate::Op::kEq
                         ? Predicate::Kind::kEq
                         : Predicate::Kind::kIn;
        for (const auto& literal : pred.literals) {
          if (literal.kind == AstLiteral::Kind::kString) {
            if (type != ColumnType::kString) {
              return Fail(literal.loc,
                          "string literal compared against integer column " +
                              NameOf(alias, column));
            }
            bound.str_values.push_back(literal.str_value);
          } else {
            storage::Value value = 0;
            status = RequireInt(literal, type, alias, column, &value);
            if (!status.ok()) return status;
            bound.int_values.push_back(value);
          }
        }
        break;
      }
      case AstPredicate::Op::kBetween: {
        bound.kind = Predicate::Kind::kRange;
        storage::Value lo = 0;
        storage::Value hi = 0;
        status = RequireInt(pred.literals[0], type, alias, column, &lo);
        if (status.ok()) {
          status = RequireInt(pred.literals[1], type, alias, column, &hi);
        }
        if (!status.ok()) return status;
        // An inverted range (lo > hi) is legal SQL that matches nothing;
        // the fuzzer emits these deliberately, so bind it as written.
        bound.int_values = {lo, hi};
        break;
      }
      case AstPredicate::Op::kLt:
      case AstPredicate::Op::kLe:
      case AstPredicate::Op::kGt:
      case AstPredicate::Op::kGe: {
        bound.kind = Predicate::Kind::kRange;
        if (pred.literals[0].kind != AstLiteral::Kind::kInt ||
            type != ColumnType::kInt) {
          storage::Value ignored = 0;
          return RequireInt(pred.literals[0], type, alias, column, &ignored);
        }
        // One-sided ranges share the workload's open-endpoint convention,
        // with the strict forms tightened by one (values are integers).
        int64_t lo = kOpenLo;
        int64_t hi = kOpenHi;
        const int64_t x = pred.literals[0].int_value;
        switch (pred.op) {
          case AstPredicate::Op::kLt: hi = x - 1; break;
          case AstPredicate::Op::kLe: hi = x; break;
          case AstPredicate::Op::kGt: lo = x + 1; break;
          default: lo = x; break;  // kGe
        }
        storage::Value lo32 = 0;
        storage::Value hi32 = 0;
        status = CheckedValue(lo, pred.literals[0].loc, &lo32);
        if (status.ok()) {
          status = CheckedValue(hi, pred.literals[0].loc, &hi32);
        }
        if (!status.ok()) return status;
        bound.int_values = {lo32, hi32};
        break;
      }
      case AstPredicate::Op::kIsNull:
        bound.kind = Predicate::Kind::kIsNull;
        break;
      case AstPredicate::Op::kIsNotNull:
        bound.kind = Predicate::Kind::kNotNull;
        break;
      case AstPredicate::Op::kLike: {
        if (type != ColumnType::kString) {
          return Fail(pred.literals[0].loc,
                      "LIKE requires a string column, but " +
                          NameOf(alias, column) + " is an integer column");
        }
        // The engine's kLikePrefix expands the prefix against the column
        // dictionary by literal comparison, so `_` is an ordinary character
        // here (no single-char wildcard; docs/sql.md documents the subset).
        const std::string& pattern = pred.literals[0].str_value;
        const bool prefix_only =
            !pattern.empty() && pattern.back() == '%' &&
            pattern.find('%') == pattern.size() - 1;
        if (!prefix_only) {
          return Fail(pred.literals[0].loc,
                      "only prefix LIKE patterns ('prefix%') are supported");
        }
        bound.kind = Predicate::Kind::kLikePrefix;
        bound.str_values = {pattern.substr(0, pattern.size() - 1)};
        break;
      }
    }
    out_->predicates.push_back(std::move(bound));
    return Status::Ok();
  }

  Status BindJoin(const AstPredicate& pred, AliasId left_alias,
                  ColumnId left_column, ColumnType left_type) {
    AliasId right_alias = -1;
    ColumnId right_column = catalog::kInvalidColumn;
    Status status =
        ResolveColumn(pred.rhs_column, &right_alias, &right_column);
    if (!status.ok()) return status;
    if (left_type != ColumnType::kInt ||
        TypeOf(right_alias, right_column) != ColumnType::kInt) {
      // Dictionary codes are per-column, so string equality across tables
      // has no meaningful storage-level interpretation here.
      return Fail(pred.loc, "join conditions must connect integer columns");
    }
    if (left_alias == right_alias) {
      return Fail(pred.loc, "join condition references a single relation");
    }
    JoinEdge edge;
    edge.left_alias = left_alias;
    edge.left_column = left_column;
    edge.right_alias = right_alias;
    edge.right_column = right_column;
    out_->edges.push_back(edge);
    return Status::Ok();
  }

  Status CheckConnected() const {
    if (out_->relations.empty()) {
      return Fail(SourceLoc(), "FROM clause is empty");
    }
    if (!out_->IsConnected(out_->FullMask())) {
      return Fail(stmt_.from[0].loc,
                  "the join graph does not connect every FROM relation");
    }
    return Status::Ok();
  }

  const SelectStatement& stmt_;
  const Schema& schema_;
  Query* out_;
};

}  // namespace

Status BindSelect(const SelectStatement& stmt, const Schema& schema,
                  Query* out) {
  *out = Query();
  return Binder(stmt, schema, out).Bind();
}

Status ParseAndBindSql(std::string_view sql, const Schema& schema,
                       Query* out) {
  SelectStatement stmt;
  const Status parsed = ParseSelect(sql, &stmt);
  if (!parsed.ok()) return parsed;
  return BindSelect(stmt, schema, out);
}

void AssignQueryId(const std::string& id, Query* q) {
  q->id = id;
  q->template_id = 0;
  q->variant = 'a';
  // `[letter]<digits><letter>`: "13a" -> family 13 / 'a'; a letter prefix
  // marks an extension namespace offset by 100 ("e1a" -> 101 / 'a', as in
  // workloads/ext_job.sql).
  size_t start = 0;
  if (!id.empty() && std::isalpha(static_cast<unsigned char>(id[0]))) {
    start = 1;
  }
  size_t i = start;
  while (i < id.size() &&
         std::isdigit(static_cast<unsigned char>(id[i]))) {
    ++i;
  }
  if (i == start || i - start > 6) return;  // no digits (or absurdly many)
  if (i == id.size() ||
      !std::isalpha(static_cast<unsigned char>(id[i]))) {
    return;
  }
  q->template_id = std::stoi(id.substr(start, i - start)) +
                   (start > 0 ? 100 : 0);
  q->variant = id[i];
}

}  // namespace lqolab::sql
