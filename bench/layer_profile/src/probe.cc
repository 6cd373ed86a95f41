#include "probe.h"

#include <algorithm>
#include <unordered_map>

#include "spans.h"

namespace layer_profile {

namespace {
constexpr size_t kKeys = size_t{1} << 19;      // 4 MiB of uint64
constexpr size_t kHashed = size_t{1} << 17;
}  // namespace

MachineProbe::MachineProbe() : keys_(kKeys) {
  uint64_t x = 1;
  for (uint64_t& key : keys_) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    key = x >> 20;
  }
}

double MachineProbe::PassMs() {
  const int64_t start = NowNs();
  std::vector<uint64_t> sorted = keys_;
  std::sort(sorted.begin(), sorted.end());
  std::unordered_map<uint64_t, uint32_t> table;
  table.reserve(kHashed);
  for (size_t i = 0; i < kHashed; ++i) {
    table[keys_[i]] = static_cast<uint32_t>(i);
  }
  uint64_t hits = 0;
  for (const uint64_t key : keys_) hits += table.count(key);
  // Keep the work observable so it cannot be optimized away.
  sink_ += hits + sorted[kKeys / 2];
  return static_cast<double>(NowNs() - start) / 1e6;
}

double MachineProbe::MeasureMs() {
  double ms[5];
  for (double& pass : ms) pass = PassMs();
  std::sort(ms, ms + 5);
  return ms[2];
}

}  // namespace layer_profile
