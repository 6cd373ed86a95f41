#include "obs/explain.h"

#include <functional>
#include <sstream>
#include <utility>

#include "obs/trace.h"
#include "util/check.h"
#include "util/table_printer.h"

namespace lqolab::obs {

using optimizer::PhysicalPlan;
using optimizer::PlanNode;
using util::VirtualNanos;

namespace {

/// Inclusive time of the subtree rooted at `i` (self times summed; probed
/// index-NLJ inner scans charge to the join, so their self time is 0).
VirtualNanos SubtreeTime(const ExplainInput& in, int32_t i) {
  const PlanNode& node = in.plan->node(i);
  VirtualNanos total = in.node_stats[static_cast<size_t>(i)].self_time_ns;
  if (node.type == PlanNode::Type::kJoin) {
    total += SubtreeTime(in, node.left);
    total += SubtreeTime(in, node.right);
  }
  return total;
}

std::string NodeLabel(const ExplainInput& in, const PlanNode& node) {
  std::ostringstream os;
  if (node.type == PlanNode::Type::kScan) {
    const auto& rel = in.query->relations[static_cast<size_t>(node.alias)];
    os << optimizer::ScanTypeName(node.scan_type) << " on "
       << in.schema->table(rel.table).name << " " << rel.alias;
  } else {
    os << optimizer::JoinAlgoName(node.algo);
  }
  return os.str();
}

void RenderNodeText(const ExplainInput& in, int32_t i, int depth,
                    std::ostringstream& os) {
  const PlanNode& node = in.plan->node(i);
  const exec::PlanNodeStats& stats = in.node_stats[static_cast<size_t>(i)];
  const std::string indent(static_cast<size_t>(depth) * 2, ' ');
  os << indent << "-> " << NodeLabel(in, node) << "  (est rows="
     << static_cast<int64_t>(in.estimated_rows[static_cast<size_t>(i)])
     << ") (actual rows=" << stats.actual_rows << " loops=" << stats.loops
     << " time=" << util::FormatDuration(SubtreeTime(in, i))
     << " self=" << util::FormatDuration(stats.self_time_ns) << ")\n";
  os << indent << "   Buffers: shared hit=" << stats.shared_hits
     << " os hit=" << stats.os_hits << " read=" << stats.disk_reads << "\n";
  if (node.type == PlanNode::Type::kJoin) {
    RenderNodeText(in, node.left, depth + 1, os);
    RenderNodeText(in, node.right, depth + 1, os);
  }
}

std::string RenderNodeJson(const ExplainInput& in, int32_t i) {
  const PlanNode& node = in.plan->node(i);
  const exec::PlanNodeStats& stats = in.node_stats[static_cast<size_t>(i)];
  JsonObject o;
  if (node.type == PlanNode::Type::kScan) {
    const auto& rel = in.query->relations[static_cast<size_t>(node.alias)];
    o.Set("node", optimizer::ScanTypeName(node.scan_type));
    o.Set("relation", in.schema->table(rel.table).name);
    o.Set("alias", rel.alias);
  } else {
    o.Set("node", optimizer::JoinAlgoName(node.algo));
  }
  o.Set("est_rows", in.estimated_rows[static_cast<size_t>(i)]);
  o.Set("actual_rows", stats.actual_rows);
  o.Set("loops", stats.loops);
  o.Set("total_time_ns", SubtreeTime(in, i));
  o.Set("self_time_ns", stats.self_time_ns);
  o.Set("shared_hits", stats.shared_hits);
  o.Set("os_hits", stats.os_hits);
  o.Set("disk_reads", stats.disk_reads);
  if (node.type == PlanNode::Type::kJoin) {
    // Appended, not `"[" + ...`: GCC 12 misreports -Wrestrict on
    // `const char* + std::string&&`.
    std::string children = "[";
    children += RenderNodeJson(in, node.left);
    children += ",";
    children += RenderNodeJson(in, node.right);
    children += "]";
    o.SetRaw("children", std::move(children));
  }
  return o.ToString();
}

void CheckInput(const ExplainInput& in) {
  LQOLAB_CHECK(in.query != nullptr);
  LQOLAB_CHECK(in.schema != nullptr);
  LQOLAB_CHECK(in.plan != nullptr && !in.plan->empty());
  LQOLAB_CHECK_EQ(in.estimated_rows.size(), in.plan->nodes.size());
  LQOLAB_CHECK_EQ(in.node_stats.size(), in.plan->nodes.size());
}

}  // namespace

std::string ExplainAnalyzeText(const ExplainInput& in) {
  CheckInput(in);
  std::ostringstream os;
  os << "EXPLAIN ANALYZE " << in.query->id << "\n";
  RenderNodeText(in, in.plan->root, 0, os);
  int64_t shared = 0, os_hits = 0, disk = 0;
  for (const auto& stats : in.node_stats) {
    shared += stats.shared_hits;
    os_hits += stats.os_hits;
    disk += stats.disk_reads;
  }
  os << "Buffers: shared hit=" << shared << " os hit=" << os_hits
     << " read=" << disk << "\n";
  os << "Planning Time: " << util::FormatDuration(in.planning_ns) << "\n";
  os << "Execution Time: " << util::FormatDuration(in.execution_ns);
  if (in.timed_out) os << " (TIMED OUT)";
  os << "\n";
  return os.str();
}

std::string ExplainAnalyzeJson(const ExplainInput& in) {
  CheckInput(in);
  JsonObject o;
  o.Set("query", in.query->id);
  o.Set("planning_ns", in.planning_ns);
  o.Set("execution_ns", in.execution_ns);
  o.Set("timed_out", in.timed_out);
  o.SetRaw("plan", RenderNodeJson(in, in.plan->root));
  return o.ToString();
}

}  // namespace lqolab::obs
