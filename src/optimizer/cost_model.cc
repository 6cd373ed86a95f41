#include "optimizer/cost_model.h"

#include <algorithm>
#include <cmath>

#include "exec/cost_constants.h"
#include "util/check.h"

namespace lqolab::optimizer {

// The planner's cost model deliberately uses the tuple-at-a-time per-tuple
// constants (cost::kScanTupleNs etc.), not the batched executor's
// cost::kVectorizedTupleCosts. Planner costs are unit-free rankings compared
// only against each other, and pglite's real planner would not re-cost
// plans per executor implementation either; pinning them keeps plan
// choices, golden fixtures (tests/golden/plans.txt) and cached estimates
// byte-stable when the executor's calibration moves. Only the executor's
// virtual-time charges use kVectorizedTupleCosts (exec/executor.cc).
namespace cost = exec::cost;
using query::AliasId;
using query::AliasMask;
using query::JoinEdge;
using query::Predicate;
using query::Query;

namespace {

double SafeLog2(double x) { return x < 2.0 ? 1.0 : std::log2(x); }

/// Whether `edge` touches `inner`, and if so the column an index-NLJ probes
/// on the inner's side and the alias on the other side. A right-side inner
/// wins, so a self-edge probes its right column, as
/// Query::EdgesBetween(outer, MaskOf(inner)) normalizes it.
bool ProbeSide(const JoinEdge& edge, AliasId inner, AliasId* neighbour,
               catalog::ColumnId* column) {
  if (edge.right_alias == inner) {
    *neighbour = edge.left_alias;
    *column = edge.right_column;
    return true;
  }
  if (edge.left_alias == inner) {
    *neighbour = edge.right_alias;
    *column = edge.left_column;
    return true;
  }
  return false;
}

}  // namespace

CostModel::CostModel(const exec::DbContext* ctx,
                     const stats::CardinalityEstimator* estimator)
    : ctx_(ctx), estimator_(estimator) {
  LQOLAB_CHECK(ctx != nullptr);
  LQOLAB_CHECK(estimator != nullptr);
}

double CostModel::CachedFraction() const {
  int64_t db_pages = 0;
  for (const auto& table : ctx_->tables()) db_pages += table->page_count();
  if (db_pages == 0) return 1.0;
  const int64_t cache_pages =
      engine::ScaledBytes(ctx_->config.effective_cache_size_mb) /
      storage::kPageSizeBytes;
  return std::min(1.0, static_cast<double>(cache_pages) /
                           static_cast<double>(db_pages));
}

CostConstants CostModel::JoinConstants() const {
  const auto& cfg = ctx_->config;
  CostConstants k;
  k.work_mem_bytes = static_cast<double>(engine::ScaledBytes(cfg.work_mem_mb));
  k.enable_hashjoin = cfg.enable_hashjoin;
  k.enable_nestloop = cfg.enable_nestloop;
  k.enable_mergejoin = cfg.enable_mergejoin;
  return k;
}

CostConstants CostModel::Constants() const {
  CostConstants k = JoinConstants();
  const double cached = CachedFraction();
  const double hit_cost = static_cast<double>(cost::kSharedHitNs);
  k.seq_page_cost = cached * hit_cost +
                    (1.0 - cached) * static_cast<double>(cost::kDiskSeqReadNs);
  k.random_page_cost = cached * hit_cost +
                       (1.0 - cached) * static_cast<double>(cost::kDiskReadNs);
  return k;
}

ScanChoice CostModel::ScanCost(const Query& q, AliasId alias,
                               ScanType type) const {
  const catalog::TableId table_id =
      q.relations[static_cast<size_t>(alias)].table;
  const storage::Table& table = ctx_->table(table_id);
  const auto preds = q.PredicatesFor(alias);
  const double total_rows = static_cast<double>(table.row_count());
  const double pages = static_cast<double>(table.page_count());
  const auto& cfg = ctx_->config;
  const CostConstants k = Constants();

  ScanChoice choice;
  choice.type = type;

  switch (type) {
    case ScanType::kSeq: {
      choice.cost = pages * k.seq_page_cost +
                    total_rows * static_cast<double>(
                                     cost::kScanTupleNs +
                                     static_cast<int64_t>(preds.size()) *
                                         cost::kPredEvalNs);
      if (!cfg.enable_seqscan) choice.cost += kDisabledPathCost;
      return choice;
    }
    case ScanType::kIndex:
    case ScanType::kBitmap: {
      // Pick the most selective indexed predicate as the driver.
      double best_driver_cost = kImpossibleCost;
      for (const Predicate* pred : preds) {
        if (pred->kind == Predicate::Kind::kIsNull ||
            pred->kind == Predicate::Kind::kNotNull) {
          continue;
        }
        const storage::Index* index = ctx_->FindIndex(table_id, pred->column);
        if (index == nullptr) continue;
        const double sel = estimator_->PredicateSelectivity(q, *pred);
        const double matches = std::max(1.0, sel * total_rows);
        double c = static_cast<double>(index->height() *
                                       cost::kIndexDescentNs);
        c += std::max(1.0, matches / 256.0) *
             k.seq_page_cost;  // leaf pages
        if (type == ScanType::kIndex) {
          // Random heap fetch per match.
          c += matches * (static_cast<double>(cost::kIndexRowFetchNs) +
                          k.random_page_cost);
        } else {
          // Bitmap: page-ordered heap access over distinct pages.
          const double heap_pages = std::min(pages, matches);
          c += matches * static_cast<double>(cost::kBitmapBuildNs +
                                             cost::kBitmapRowFetchNs);
          c += heap_pages * k.seq_page_cost;
        }
        c += matches * static_cast<double>(preds.size() - 1) *
             static_cast<double>(cost::kPredEvalNs);
        if (c < best_driver_cost) {
          best_driver_cost = c;
          choice.index_column = pred->column;
        }
      }
      if (best_driver_cost >= kImpossibleCost) return choice;  // impossible
      choice.cost = best_driver_cost;
      const bool enabled = type == ScanType::kIndex ? cfg.enable_indexscan
                                                    : cfg.enable_bitmapscan;
      if (!enabled) choice.cost += kDisabledPathCost;
      return choice;
    }
    case ScanType::kTid: {
      for (const Predicate* pred : preds) {
        if (pred->column == 0 && (pred->kind == Predicate::Kind::kEq ||
                                  pred->kind == Predicate::Kind::kIn)) {
          const double matches = std::max(
              1.0, static_cast<double>(pred->int_values.size() +
                                       pred->str_values.size()));
          choice.cost = matches * (static_cast<double>(cost::kTidFetchNs) +
                                   k.random_page_cost);
          if (!cfg.enable_tidscan) choice.cost += kDisabledPathCost;
          return choice;
        }
      }
      return choice;  // impossible
    }
  }
  return choice;
}

ScanChoice CostModel::BestScan(const Query& q, AliasId alias) const {
  ScanChoice best;
  for (ScanType type : {ScanType::kSeq, ScanType::kIndex, ScanType::kBitmap,
                        ScanType::kTid}) {
    const ScanChoice candidate = ScanCost(q, alias, type);
    if (candidate.cost < best.cost) best = candidate;
  }
  LQOLAB_CHECK_LT(best.cost, kImpossibleCost);
  return best;
}

bool CostModel::CanIndexNlj(const Query& q, AliasMask outer_mask,
                            AliasId inner,
                            catalog::ColumnId* probe_column) const {
  // The first edge between the two sides whose inner column is indexed.
  const catalog::TableId inner_table =
      q.relations[static_cast<size_t>(inner)].table;
  for (const JoinEdge& edge : q.edges) {
    AliasId neighbour = -1;
    catalog::ColumnId column = catalog::kInvalidColumn;
    if (!ProbeSide(edge, inner, &neighbour, &column) ||
        (query::MaskOf(neighbour) & outer_mask) == 0) {
      continue;
    }
    if (ctx_->FindIndex(inner_table, column) != nullptr) {
      if (probe_column != nullptr) *probe_column = column;
      return true;
    }
  }
  return false;
}

IndexProbe CostModel::ProbeFacts(catalog::TableId table,
                                 catalog::ColumnId column,
                                 const storage::Index& index) const {
  const auto& cs = ctx_->column_stats(table, column);
  IndexProbe probe;
  probe.probe_column = column;
  probe.height = index.height();
  probe.avg_matches = cs.n_distinct > 0
                          ? static_cast<double>(index.entry_count()) /
                                static_cast<double>(cs.n_distinct)
                          : 1.0;
  return probe;
}

std::vector<IndexProbe> CostModel::IndexProbes(const Query& q,
                                               AliasId inner) const {
  const catalog::TableId inner_table =
      q.relations[static_cast<size_t>(inner)].table;
  std::vector<IndexProbe> probes;
  for (const JoinEdge& edge : q.edges) {
    AliasId neighbour = -1;
    catalog::ColumnId column = catalog::kInvalidColumn;
    if (!ProbeSide(edge, inner, &neighbour, &column)) continue;
    const storage::Index* index = ctx_->FindIndex(inner_table, column);
    if (index == nullptr) continue;
    probes.push_back(ProbeFacts(inner_table, column, *index));
    probes.back().neighbour = query::MaskOf(neighbour);
  }
  return probes;
}

const IndexProbe* CostModel::FirstProbe(const std::vector<IndexProbe>& probes,
                                        AliasMask outer_mask) {
  for (const IndexProbe& probe : probes) {
    if (probe.neighbour & outer_mask) return &probe;
  }
  return nullptr;
}

double CostModel::JoinCost(const Query& q, JoinAlgo algo, double rows_left,
                           double rows_right, double rows_out,
                           AliasId inner_alias,
                           catalog::ColumnId probe_column) const {
  if (algo != JoinAlgo::kIndexNlj) {
    return JoinCost(JoinConstants(), algo, rows_left, rows_right, rows_out);
  }
  LQOLAB_CHECK_GE(inner_alias, 0);
  if (probe_column == catalog::kInvalidColumn) return kImpossibleCost;
  const catalog::TableId inner_table =
      q.relations[static_cast<size_t>(inner_alias)].table;
  const storage::Index* index = ctx_->FindIndex(inner_table, probe_column);
  LQOLAB_CHECK(index != nullptr);
  const IndexProbe probe = ProbeFacts(inner_table, probe_column, *index);
  return JoinCost(Constants(), algo, rows_left, rows_right, rows_out, &probe);
}

double CostModel::JoinCost(const CostConstants& k, JoinAlgo algo,
                           double rows_left, double rows_right,
                           double rows_out, const IndexProbe* probe) {
  double c = rows_out * static_cast<double>(cost::kJoinOutputNs);
  switch (algo) {
    case JoinAlgo::kHash: {
      c += rows_right * static_cast<double>(cost::kHashBuildNs) +
           rows_left * static_cast<double>(cost::kHashProbeNs);
      const double batches = std::max(
          1.0, rows_right * cost::kBytesPerTupleSlot / k.work_mem_bytes);
      if (batches > 1.0) {
        c *= 1.0 + cost::kSpillPassPenalty * SafeLog2(batches);
        c += 2.0 * (rows_left + rows_right) / storage::kRowsPerPage *
             static_cast<double>(cost::kDiskSeqReadNs);
      }
      if (!k.enable_hashjoin) c += kDisabledPathCost;
      return c;
    }
    case JoinAlgo::kNestLoop: {
      c += rows_left * rows_right * static_cast<double>(cost::kNlCompareNs);
      if (!k.enable_nestloop) c += kDisabledPathCost;
      return c;
    }
    case JoinAlgo::kIndexNlj: {
      if (probe == nullptr) return kImpossibleCost;
      const double fetched =
          std::max(rows_out, rows_left * probe->avg_matches);
      c += rows_left * static_cast<double>(probe->height *
                                           cost::kIndexDescentNs);
      c += fetched * (static_cast<double>(cost::kIndexRowFetchNs) +
                      k.random_page_cost);
      if (!k.enable_nestloop) c += kDisabledPathCost;
      return c;
    }
    case JoinAlgo::kMerge: {
      auto sort_cost = [&](double rows) {
        double s = rows * SafeLog2(rows) * cost::kSortItemNs;
        if (rows * cost::kBytesPerTupleSlot > k.work_mem_bytes) {
          s *= 1.0 + cost::kSpillPassPenalty;
          s += 2.0 * rows / storage::kRowsPerPage *
               static_cast<double>(cost::kDiskSeqReadNs);
        }
        return s;
      };
      c += sort_cost(rows_left) + sort_cost(rows_right);
      c += (rows_left + rows_right) * static_cast<double>(cost::kMergeStepNs);
      if (!k.enable_mergejoin) c += kDisabledPathCost;
      return c;
    }
  }
  return kImpossibleCost;
}

}  // namespace lqolab::optimizer
