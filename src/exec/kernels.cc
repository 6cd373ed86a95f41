#include "exec/kernels.h"

#include <algorithm>
#include <bit>
#include <limits>

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

/// Layout rules: the direct layout is chosen when it takes no more bytes
/// than the open-addressing one would for the same input. A ValueSet slot
/// is one 4-byte value, a bitmap 1 bit per key value; a retained
/// JoinHashTable slot is a key, a count and an offset (12 bytes), an offset
/// table 4 bytes per key value plus one closing bound.
bool DirectSet(const KeyRange& range) {
  return range.span() <=
         32 * static_cast<int64_t>(SlotCapacity(range.rows));
}

bool DirectTable(const KeyRange& range) {
  return range.span() + 1 <=
         3 * static_cast<int64_t>(SlotCapacity(range.rows));
}

/// How many iterations ahead probe loops hint their next hash-slot cache
/// line (a random access the hardware prefetcher cannot predict).
constexpr size_t kPrefetchDistance = 16;

/// Resizes `*bloom` for `distinct` keys and counts the build. Target FPR
/// and seed are fixed so runs are deterministic; the caller adds the keys.
void ResetBloom(int64_t distinct, BloomFilter* bloom) {
  obs::Count(obs::Counter::kOracleBloomBuilds);
  bloom->Reset(std::max<int64_t>(distinct, 1), /*target_fpr=*/0.01,
               /*seed=*/0x51de7a55c0ffeeULL);
}

/// Adds the non-null keys of an open-addressing slot array to `*bloom`.
/// Only the active prefix [0, mask] holds the current build's keys; the
/// tail may carry stale values from an earlier, larger build.
void AddSlots(const std::vector<Value>& slots, size_t mask,
              BloomFilter* bloom) {
  for (size_t i = 0; i <= mask; ++i) {
    if (slots[i] != kNullValue) bloom->Add(slots[i]);
  }
}

}  // namespace

KeyRange KeyRange::Of(const Value* column, const RowId* rows, int64_t n) {
  KeyRange range;
  range.rows = n;
  Value min = std::numeric_limits<Value>::max();
  Value max = std::numeric_limits<Value>::min();
  for (int64_t j = 0; j < n; ++j) {
    const Value v = column[rows[j]];
    if (v == kNullValue) continue;
    ++range.keys;
    min = std::min(min, v);
    max = std::max(max, v);
  }
  if (range.keys > 0) {
    range.min = min;
    range.max = max;
  }
  return range;
}

void ValueSet::Build(const Value* column, const RowId* rows, int64_t n) {
  const KeyRange range = KeyRange::Of(column, rows, n);
  direct_ = DirectSet(range);
  if (direct_) {
    min_ = range.min;
    span_ = static_cast<uint64_t>(range.span());
    bits_.assign((span_ + 63) / 64, 0);
    for (int64_t j = 0; j < n; ++j) {
      const Value v = column[rows[j]];
      if (v == kNullValue) continue;
      const uint64_t s = Slot(v);
      bits_[s >> 6] |= uint64_t{1} << (s & 63);
    }
    distinct_ = 0;
    for (const uint64_t word : bits_) distinct_ += std::popcount(word);
    return;
  }
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
  ResetBloom(distinct_, bloom);
  if (!direct_) {
    AddSlots(slots_, mask_, bloom);
    return;
  }
  for (size_t w = 0; w < bits_.size(); ++w) {
    for (uint64_t word = bits_[w]; word != 0; word &= word - 1) {
      const int64_t s = static_cast<int64_t>(w * 64) + std::countr_zero(word);
      bloom->Add(static_cast<Value>(static_cast<int64_t>(min_) + s));
    }
  }
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

void JoinHashTable::Build(const Value* column, const RowId* rows,
                          const KeyRange& range) {
  const int64_t n = range.rows;
  payload_size_ = static_cast<size_t>(range.keys);
  if (payload_.size() < payload_size_) payload_.resize(payload_size_);
  direct_ = DirectTable(range);
  if (direct_) {
    // Counting sort, as storage::Index's dense layout: count each key into
    // the slot after its own, prefix-sum so offsets_[s] is slot s's start,
    // then scatter rows in input order, advancing each start to its end —
    // which leaves slot s's end, the start of s + 1, in offsets_[s];
    // shifting by one restores starts.
    min_ = range.min;
    span_ = static_cast<uint64_t>(range.span());
    offsets_.assign(span_ + 1, 0);
    for (int64_t j = 0; j < n; ++j) {
      const Value v = column[rows[j]];
      if (v == kNullValue) continue;
      ++offsets_[Slot(v) + 1];
    }
    distinct_ = 0;
    for (size_t s = 1; s <= span_; ++s) {
      distinct_ += offsets_[s] != 0 ? 1 : 0;
      offsets_[s] += offsets_[s - 1];
    }
    for (int64_t j = 0; j < n; ++j) {
      const Value v = column[rows[j]];
      if (v == kNullValue) continue;
      payload_[static_cast<size_t>(offsets_[Slot(v)]++)] = rows[j];
    }
    std::copy_backward(offsets_.begin(), offsets_.end() - 1, offsets_.end());
    offsets_[0] = 0;
    return;
  }

  // Active-prefix sizing, as in ValueSet::Build: clear and address only
  // the SlotCapacity(n) slots this build needs, not the historical
  // capacity, so small rebuilds stay cheap and cache-resident. Only
  // slot_keys_ is cleared — slot_count_ is initialized lazily when a key
  // first claims its slot, so empty slots never touch it.
  const size_t needed = SlotCapacity(n);
  if (slot_keys_.size() < needed) {
    slot_keys_.resize(needed);
    slot_count_.resize(needed);
    slot_cursor_.resize(needed);
  }
  if (offsets_.size() < needed) offsets_.resize(needed);
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
    offsets_[i] = offset;
    slot_cursor_[i] = offset;
    offset += slot_count_[i];
  }

  // Pass 2: fill each group in input order — this is what makes Probe()
  // byte-compatible with the reference's per-key vectors.
  for (int64_t j = 0; j < n; ++j) {
    const int32_t i = row_slot_[static_cast<size_t>(j)];
    if (i < 0) continue;
    payload_[static_cast<size_t>(slot_cursor_[i]++)] = rows[j];
  }
}

void JoinHashTable::FillBloom(BloomFilter* bloom) const {
  ResetBloom(distinct_, bloom);
  if (!direct_) {
    AddSlots(slot_keys_, mask_, bloom);
    return;
  }
  for (uint64_t s = 0; s < span_; ++s) {
    if (offsets_[s + 1] != offsets_[s]) {
      bloom->Add(static_cast<Value>(static_cast<int64_t>(min_) +
                                    static_cast<int64_t>(s)));
    }
  }
}

void JoinHashTable::ReleaseBuildScratch() {
  std::vector<int32_t>().swap(slot_cursor_);
  std::vector<int32_t>().swap(row_slot_);
}

int64_t JoinHashTable::bytes() const {
  auto held = [](const auto& v) {
    return static_cast<int64_t>(v.capacity() * sizeof(v[0]));
  };
  return held(offsets_) + held(slot_keys_) + held(slot_count_) +
         held(slot_cursor_) + held(row_slot_) + held(payload_);
}

int64_t JoinHashTable::RetainedBytes(const KeyRange& range) {
  const int64_t payload = range.keys * static_cast<int64_t>(sizeof(RowId));
  if (DirectTable(range)) {
    return (range.span() + 1) * static_cast<int64_t>(sizeof(int32_t)) +
           payload;
  }
  return static_cast<int64_t>(SlotCapacity(range.rows)) *
             static_cast<int64_t>(sizeof(Value) + 2 * sizeof(int32_t)) +
         payload;
}

}  // namespace lqolab::exec::kernels
