#ifndef LQOLAB_OPTIMIZER_PHYSICAL_PLAN_H_
#define LQOLAB_OPTIMIZER_PHYSICAL_PLAN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "catalog/schema.h"
#include "query/query.h"

namespace lqolab::optimizer {

/// Access path of a base relation.
enum class ScanType {
  kSeq,     ///< Sequential heap scan.
  kIndex,   ///< B-tree index scan with heap fetches in index order.
  kBitmap,  ///< Bitmap index scan + page-ordered bitmap heap scan.
  kTid,     ///< Direct fetch by tuple id (only for `id = const` predicates).
};

/// Physical join algorithm.
enum class JoinAlgo {
  kHash,     ///< Hash join, build on the inner (right) input.
  kNestLoop, ///< Nested loop with materialized inner.
  kIndexNlj, ///< Nested loop probing an index on the inner base relation.
  kMerge,    ///< Sort-merge join.
};

const char* ScanTypeName(ScanType type);
const char* JoinAlgoName(JoinAlgo algo);

/// Node of a physical plan tree (stored in a flat vector; children by
/// index). `mask` caches the alias set covered by the subtree.
struct PlanNode {
  enum class Type { kScan, kJoin };
  Type type = Type::kScan;
  query::AliasMask mask = 0;

  // --- Scan fields ---
  query::AliasId alias = -1;
  ScanType scan_type = ScanType::kSeq;
  /// Column whose index drives a kIndex/kBitmap scan (kInvalidColumn when
  /// not applicable).
  catalog::ColumnId index_column = catalog::kInvalidColumn;

  // --- Join fields ---
  JoinAlgo algo = JoinAlgo::kHash;
  int32_t left = -1;
  int32_t right = -1;

  bool operator==(const PlanNode&) const = default;
};

/// A physical plan: a binary tree of joins over base-relation scans.
/// Learned optimizers hand these to the engine directly (the pg_hint_plan
/// path of the paper); the native planner produces them itself.
struct PhysicalPlan {
  std::vector<PlanNode> nodes;
  int32_t root = -1;

  /// Structural equality: identical node arrays (including child indices
  /// and index columns) and the same root. Every planner builds trees in
  /// post order, so equal trees compare equal node-for-node.
  bool operator==(const PhysicalPlan&) const = default;

  /// Appends a scan leaf and returns its node index.
  int32_t AddScan(query::AliasId alias, ScanType type,
                  catalog::ColumnId index_column = catalog::kInvalidColumn);

  /// Appends a join over two existing nodes and returns its node index.
  int32_t AddJoin(JoinAlgo algo, int32_t left, int32_t right);

  const PlanNode& node(int32_t i) const {
    return nodes[static_cast<size_t>(i)];
  }

  bool empty() const { return nodes.empty() || root < 0; }

  /// Number of join nodes.
  int32_t join_count() const;

  /// True when the tree is left-deep (every right child is a scan).
  bool IsLeftDeep() const;

  /// Validates tree structure against the query (each alias scanned exactly
  /// once, every join connected). Aborts on violation.
  void Validate(const query::Query& q) const;

  /// One-line rendering, e.g. "HashJoin(Seq(t), IndexNlj(Seq(mc), Idx(cn)))".
  std::string ToString(const query::Query& q) const;
};

}  // namespace lqolab::optimizer

#endif  // LQOLAB_OPTIMIZER_PHYSICAL_PLAN_H_
