#include "exec/kernels.h"

#include <algorithm>

#include "obs/metrics.h"
#include "util/check.h"

namespace lqolab::exec::kernels {

using query::Predicate;
using storage::kNullValue;
using storage::RowId;
using storage::Value;

namespace {

/// Branch-free batched selection: stage candidate row-ids in an L1-resident
/// buffer and advance the write cursor by the match bit, so the compiler
/// can vectorize the compare and the loop carries no mispredicted branch.
template <typename MatchFn>
void SelectImpl(const Value* data, int64_t num_rows,
                std::vector<RowId>* out, MatchFn match) {
  RowId staged[kBatchRows];
  for (int64_t base = 0; base < num_rows; base += kBatchRows) {
    const int32_t n =
        static_cast<int32_t>(std::min<int64_t>(kBatchRows, num_rows - base));
    const Value* batch = data + base;
    int32_t count = 0;
    for (int32_t i = 0; i < n; ++i) {
      staged[count] = static_cast<RowId>(base + i);
      count += match(batch[i]) ? 1 : 0;
    }
    out->insert(out->end(), staged, staged + count);
  }
}

/// In-place selection-vector compaction with gathered loads.
template <typename MatchFn>
void RefineImpl(const Value* data, std::vector<RowId>* rows, MatchFn match) {
  RowId* d = rows->data();
  const size_t n = rows->size();
  size_t count = 0;
  for (size_t j = 0; j < n; ++j) {
    const RowId r = d[j];
    d[count] = r;
    count += match(data[r]) ? 1 : 0;
  }
  rows->resize(count);
}

/// Calls `sink` with a match functor equivalent to pred.Matches(). The null
/// sentinel (INT32_MIN) lets most kinds fold the null test away: a range
/// lower bound of max(lo, kNullValue + 1) excludes null for free, and an
/// eq/in list never legitimately contains the sentinel (Matches() rejects
/// null before the membership test), so sentinel entries are dropped here.
template <typename Sink>
void DispatchPredicate(const query::BoundPredicate& pred, Sink&& sink) {
  switch (pred.kind) {
    case Predicate::Kind::kIsNull:
      sink([](Value v) { return v == kNullValue; });
      return;
    case Predicate::Kind::kNotNull:
      sink([](Value v) { return v != kNullValue; });
      return;
    case Predicate::Kind::kRange: {
      const Value lo = std::max(pred.lo, kNullValue + 1);
      const Value hi = pred.hi;
      sink([lo, hi](Value v) { return v >= lo && v <= hi; });
      return;
    }
    case Predicate::Kind::kEq:
    case Predicate::Kind::kIn:
    case Predicate::Kind::kLikePrefix: {
      const Value* begin = pred.values.data();
      const Value* end = begin + pred.values.size();
      if (begin != end && *begin == kNullValue) ++begin;  // sorted first
      const size_t m = static_cast<size_t>(end - begin);
      if (m == 0) {
        sink([](Value) { return false; });
      } else if (m == 1) {
        const Value target = *begin;
        sink([target](Value v) { return v == target; });
      } else if (m <= 8) {
        sink([begin, m](Value v) {
          bool hit = false;
          for (size_t i = 0; i < m; ++i) hit |= (v == begin[i]);
          return hit;
        });
      } else {
        sink([begin, end](Value v) {
          return v != kNullValue && std::binary_search(begin, end, v);
        });
      }
      return;
    }
  }
  LQOLAB_CHECK_MSG(false, "unknown predicate kind");
}

}  // namespace

void SelectPredicate(const Value* data, int64_t num_rows,
                     const query::BoundPredicate& pred,
                     std::vector<RowId>* out) {
  DispatchPredicate(pred, [&](auto match) {
    SelectImpl(data, num_rows, out, match);
  });
}

void SelectAll(int64_t num_rows, std::vector<RowId>* out) {
  const size_t old = out->size();
  out->resize(old + static_cast<size_t>(num_rows));
  RowId* d = out->data() + old;
  for (int64_t i = 0; i < num_rows; ++i) d[i] = static_cast<RowId>(i);
}

void RefinePredicate(const Value* data, const query::BoundPredicate& pred,
                     std::vector<RowId>* rows) {
  DispatchPredicate(pred, [&](auto match) { RefineImpl(data, rows, match); });
}

namespace {

/// Smallest power of two ≥ 2n (load factor ≤ 0.5), floored at 16 slots.
size_t SlotCapacity(int64_t n) {
  size_t cap = 16;
  while (cap < static_cast<size_t>(n) * 2) cap <<= 1;
  return cap;
}

/// How many iterations ahead probe loops hint their next hash-slot cache
/// line (a random access the hardware prefetcher cannot predict).
constexpr size_t kPrefetchDistance = 16;

/// Rebuilds `*bloom` over the non-null keys of an open-addressing slot
/// array. Only the active prefix [0, mask] holds the current build's keys;
/// the tail may carry stale values from an earlier, larger build. Target
/// FPR and seed are fixed so runs are deterministic.
void FillBloomFromSlots(const std::vector<Value>& slots, size_t mask,
                        int64_t distinct, BloomFilter* bloom) {
  obs::Count(obs::Counter::kOracleBloomBuilds);
  bloom->Reset(std::max<int64_t>(distinct, 1), /*target_fpr=*/0.01,
               /*seed=*/0x51de7a55c0ffeeULL);
  for (size_t i = 0; i <= mask; ++i) {
    if (slots[i] != kNullValue) bloom->Add(slots[i]);
  }
}

}  // namespace

void ValueSet::Build(const Value* column, const RowId* rows, int64_t n) {
  // Only the first SlotCapacity(n) slots are active for this build (mask_
  // covers exactly them): a set that once held a large key set must not
  // keep clearing and probing its historical capacity for every small
  // rebuild, and a right-sized active region keeps probes cache-resident.
  const size_t needed = SlotCapacity(n);
  if (slots_.size() < needed) slots_.resize(needed);
  std::fill(slots_.begin(),
            slots_.begin() + static_cast<ptrdiff_t>(needed), kNullValue);
  mask_ = needed - 1;
  distinct_ = 0;
  for (int64_t j = 0; j < n; ++j) {
    if (j + static_cast<int64_t>(kPrefetchDistance) < n) {
      PrefetchContains(
          column[rows[j + static_cast<int64_t>(kPrefetchDistance)]]);
    }
    const Value v = column[rows[j]];
    if (v == kNullValue) continue;
    size_t i = ValueSet::HashValue(v) & mask_;
    while (slots_[i] != kNullValue && slots_[i] != v) i = (i + 1) & mask_;
    if (slots_[i] == kNullValue) {
      slots_[i] = v;
      ++distinct_;
    }
  }
}

void ValueSet::FillBloom(BloomFilter* bloom) const {
  FillBloomFromSlots(slots_, mask_, distinct_, bloom);
}

void RefineBySet(const Value* column, const ValueSet& set, BloomFilter* bloom,
                 std::vector<RowId>* rows) {
  RowId* d = rows->data();
  const size_t n = rows->size();
  size_t count = 0;
  size_t j = 0;
  BloomSchedule schedule;
  // Exact-only prefix while the schedule samples its non-null keys.
  for (; j < n && schedule.sampling(); ++j) {
    const size_t ahead = std::min(j + kPrefetchDistance, n - 1);
    set.PrefetchContains(column[d[ahead]]);
    const RowId r = d[j];
    const Value v = column[r];
    d[count] = r;
    const bool non_null = v != kNullValue;
    const bool hit = non_null && set.Contains(v);
    count += hit ? 1 : 0;
    schedule.Observe(non_null, hit);
  }
  if (schedule.Fires()) {
    set.FillBloom(bloom);
    for (; j < n; ++j) {
      const RowId r = d[j];
      const Value v = column[r];
      d[count] = r;
      count +=
          (v != kNullValue && bloom->MayContain(v) && set.Contains(v)) ? 1 : 0;
    }
  } else {
    for (; j < n; ++j) {
      const size_t ahead = std::min(j + kPrefetchDistance, n - 1);
      set.PrefetchContains(column[d[ahead]]);
      const RowId r = d[j];
      const Value v = column[r];
      d[count] = r;
      count += (v != kNullValue && set.Contains(v)) ? 1 : 0;
    }
  }
  rows->resize(count);
}

void JoinHashTable::Build(const Value* column, const RowId* rows, int64_t n) {
  // Active-prefix sizing, as in ValueSet::Build: clear and address only
  // the SlotCapacity(n) slots this build needs, not the historical
  // capacity, so small rebuilds stay cheap and cache-resident. Only
  // slot_keys_ is cleared — slot_count_ is initialized lazily when a key
  // first claims its slot, so empty slots never touch it.
  const size_t needed = SlotCapacity(n);
  if (slot_keys_.size() < needed) {
    slot_keys_.resize(needed);
    slot_count_.resize(needed);
    slot_offset_.resize(needed);
    slot_cursor_.resize(needed);
  }
  std::fill(slot_keys_.begin(),
            slot_keys_.begin() + static_cast<ptrdiff_t>(needed), kNullValue);
  mask_ = needed - 1;
  distinct_ = 0;
  if (row_slot_.size() < static_cast<size_t>(n)) {
    row_slot_.resize(static_cast<size_t>(n));
  }

  // Pass 1: find-or-insert each key's slot and count its rows, remembering
  // each row's slot so pass 2 is a direct store instead of a second probe.
  for (int64_t j = 0; j < n; ++j) {
    if (j + static_cast<int64_t>(kPrefetchDistance) < n) {
      const Value pv =
          column[rows[j + static_cast<int64_t>(kPrefetchDistance)]];
      __builtin_prefetch(slot_keys_.data() +
                         (ValueSet::HashValue(pv) & mask_));
    }
    const Value v = column[rows[j]];
    if (v == kNullValue) {
      row_slot_[static_cast<size_t>(j)] = -1;
      continue;
    }
    size_t i = ValueSet::HashValue(v) & mask_;
    while (slot_keys_[i] != kNullValue && slot_keys_[i] != v) {
      i = (i + 1) & mask_;
    }
    if (slot_keys_[i] == kNullValue) {
      slot_keys_[i] = v;
      slot_count_[i] = 0;
      ++distinct_;
    }
    ++slot_count_[i];
    row_slot_[static_cast<size_t>(j)] = static_cast<int32_t>(i);
  }

  // Prefix-sum the counts into grouped payload offsets (occupied slots
  // only — empty slots carry stale counts by design).
  int32_t offset = 0;
  for (size_t i = 0; i <= mask_; ++i) {
    if (slot_keys_[i] == kNullValue) continue;
    slot_offset_[i] = offset;
    slot_cursor_[i] = offset;
    offset += slot_count_[i];
  }
  payload_size_ = static_cast<size_t>(offset);
  if (payload_.size() < payload_size_) payload_.resize(payload_size_);

  // Pass 2: fill each group in input order — this is what makes Probe()
  // byte-compatible with the reference path's per-key vectors.
  for (int64_t j = 0; j < n; ++j) {
    const int32_t i = row_slot_[static_cast<size_t>(j)];
    if (i < 0) continue;
    payload_[static_cast<size_t>(slot_cursor_[i]++)] = rows[j];
  }
}

void JoinHashTable::FillBloom(BloomFilter* bloom) const {
  FillBloomFromSlots(slot_keys_, mask_, distinct_, bloom);
}

void JoinHashTable::ReleaseBuildScratch() {
  std::vector<int32_t>().swap(slot_cursor_);
  std::vector<int32_t>().swap(row_slot_);
}

int64_t JoinHashTable::bytes() const {
  auto held = [](const auto& v) {
    return static_cast<int64_t>(v.capacity() * sizeof(v[0]));
  };
  return held(slot_keys_) + held(slot_count_) + held(slot_offset_) +
         held(slot_cursor_) + held(row_slot_) + held(payload_);
}

int64_t JoinHashTable::RetainedBytes(int64_t rows) {
  return static_cast<int64_t>(SlotCapacity(rows)) *
             static_cast<int64_t>(sizeof(Value) + 2 * sizeof(int32_t)) +
         rows * static_cast<int64_t>(sizeof(RowId));
}

}  // namespace lqolab::exec::kernels
