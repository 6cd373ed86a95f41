#include "optimizer/physical_plan.h"

#include <functional>
#include <sstream>

#include "util/check.h"

namespace lqolab::optimizer {

const char* ScanTypeName(ScanType type) {
  switch (type) {
    case ScanType::kSeq: return "SeqScan";
    case ScanType::kIndex: return "IndexScan";
    case ScanType::kBitmap: return "BitmapScan";
    case ScanType::kTid: return "TidScan";
  }
  return "?";
}

const char* JoinAlgoName(JoinAlgo algo) {
  switch (algo) {
    case JoinAlgo::kHash: return "HashJoin";
    case JoinAlgo::kNestLoop: return "NestLoop";
    case JoinAlgo::kIndexNlj: return "IndexNlj";
    case JoinAlgo::kMerge: return "MergeJoin";
  }
  return "?";
}

int32_t PhysicalPlan::AddScan(query::AliasId alias, ScanType type,
                              catalog::ColumnId index_column) {
  PlanNode node;
  node.type = PlanNode::Type::kScan;
  node.alias = alias;
  node.scan_type = type;
  node.index_column = index_column;
  node.mask = query::MaskOf(alias);
  nodes.push_back(node);
  root = static_cast<int32_t>(nodes.size()) - 1;
  return root;
}

int32_t PhysicalPlan::AddJoin(JoinAlgo algo, int32_t left, int32_t right) {
  LQOLAB_CHECK_GE(left, 0);
  LQOLAB_CHECK_GE(right, 0);
  PlanNode node;
  node.type = PlanNode::Type::kJoin;
  node.algo = algo;
  node.left = left;
  node.right = right;
  node.mask = nodes[static_cast<size_t>(left)].mask |
              nodes[static_cast<size_t>(right)].mask;
  LQOLAB_CHECK_EQ(nodes[static_cast<size_t>(left)].mask &
                      nodes[static_cast<size_t>(right)].mask,
                  0u);
  nodes.push_back(node);
  root = static_cast<int32_t>(nodes.size()) - 1;
  return root;
}

int32_t PhysicalPlan::join_count() const {
  int32_t count = 0;
  for (const auto& node : nodes) {
    if (node.type == PlanNode::Type::kJoin) ++count;
  }
  return count;
}

bool PhysicalPlan::IsLeftDeep() const {
  for (const auto& node : nodes) {
    if (node.type == PlanNode::Type::kJoin &&
        nodes[static_cast<size_t>(node.right)].type != PlanNode::Type::kScan) {
      return false;
    }
  }
  return true;
}

void PhysicalPlan::Validate(const query::Query& q) const {
  LQOLAB_CHECK(!empty());
  const PlanNode& top = node(root);
  LQOLAB_CHECK_EQ(top.mask, q.FullMask());
  std::function<void(int32_t)> visit = [&](int32_t i) {
    const PlanNode& n = node(i);
    if (n.type == PlanNode::Type::kScan) {
      LQOLAB_CHECK_GE(n.alias, 0);
      LQOLAB_CHECK_LT(n.alias, q.relation_count());
      return;
    }
    const PlanNode& l = node(n.left);
    const PlanNode& r = node(n.right);
    LQOLAB_CHECK_EQ(n.mask, l.mask | r.mask);
    LQOLAB_CHECK_MSG(q.HasEdgeBetween(l.mask, r.mask),
                     "cross product in plan for " << q.id);
    visit(n.left);
    visit(n.right);
  };
  visit(root);
}

std::string PhysicalPlan::ToString(const query::Query& q) const {
  std::ostringstream os;
  std::function<void(int32_t)> render = [&](int32_t i) {
    const PlanNode& n = node(i);
    if (n.type == PlanNode::Type::kScan) {
      os << ScanTypeName(n.scan_type) << "("
         << q.relations[static_cast<size_t>(n.alias)].alias << ")";
      return;
    }
    os << JoinAlgoName(n.algo) << "(";
    render(n.left);
    os << ", ";
    render(n.right);
    os << ")";
  };
  if (empty()) return "<empty>";
  render(root);
  return os.str();
}

}  // namespace lqolab::optimizer
