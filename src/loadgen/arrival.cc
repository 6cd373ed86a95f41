#include "loadgen/arrival.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/check.h"

namespace lqolab::loadgen {

using util::VirtualNanos;

double RateProfile::QpsAt(VirtualNanos t) const {
  switch (kind) {
    case Kind::kConstant:
      return base_qps;
    case Kind::kDiurnal: {
      const double phase = 2.0 * M_PI * static_cast<double>(t) /
                           static_cast<double>(diurnal_period_ns);
      return base_qps * (1.0 + diurnal_amplitude * std::sin(phase));
    }
    case Kind::kBurst: {
      const VirtualNanos into = t % burst_every_ns;
      return into < burst_duration_ns ? base_qps * burst_multiplier : base_qps;
    }
  }
  return base_qps;
}

double RateProfile::MaxQps() const {
  switch (kind) {
    case Kind::kConstant:
      return base_qps;
    case Kind::kDiurnal:
      return base_qps * (1.0 + diurnal_amplitude);
    case Kind::kBurst:
      return base_qps * std::max(1.0, burst_multiplier);
  }
  return base_qps;
}

RateProfile RateProfile::Constant(double qps) {
  RateProfile p;
  p.kind = Kind::kConstant;
  p.base_qps = qps;
  return p;
}

RateProfile RateProfile::Diurnal(double qps, double amplitude,
                                 VirtualNanos period_ns) {
  LQOLAB_CHECK_GE(amplitude, 0.0);
  LQOLAB_CHECK_LE(amplitude, 1.0);
  LQOLAB_CHECK_GT(period_ns, 0);
  RateProfile p;
  p.kind = Kind::kDiurnal;
  p.base_qps = qps;
  p.diurnal_amplitude = amplitude;
  p.diurnal_period_ns = period_ns;
  return p;
}

RateProfile RateProfile::Burst(double qps, double multiplier,
                               VirtualNanos every_ns,
                               VirtualNanos duration_ns) {
  LQOLAB_CHECK_GE(multiplier, 1.0);
  LQOLAB_CHECK_GT(every_ns, 0);
  LQOLAB_CHECK_GT(duration_ns, 0);
  LQOLAB_CHECK_LE(duration_ns, every_ns);
  RateProfile p;
  p.kind = Kind::kBurst;
  p.base_qps = qps;
  p.burst_multiplier = multiplier;
  p.burst_every_ns = every_ns;
  p.burst_duration_ns = duration_ns;
  return p;
}

ArrivalGenerator::ArrivalGenerator(const RateProfile& profile,
                                   std::vector<TenantSpec> tenants,
                                   int32_t workload_size, uint64_t seed)
    : profile_(profile),
      tenants_(std::move(tenants)),
      workload_size_(workload_size),
      seed_(seed) {
  LQOLAB_CHECK_GT(profile_.base_qps, 0.0);
  LQOLAB_CHECK_GT(workload_size_, 0);
  LQOLAB_CHECK(!tenants_.empty());

  double total_weight = 0.0;
  for (const TenantSpec& t : tenants_) {
    LQOLAB_CHECK_GT(t.weight, 0.0);
    LQOLAB_CHECK_GE(t.zipf_s, 0.0);
    total_weight += t.weight;
  }
  double acc = 0.0;
  tenant_cdf_.reserve(tenants_.size());
  for (const TenantSpec& t : tenants_) {
    acc += t.weight / total_weight;
    tenant_cdf_.push_back(acc);
  }
  tenant_cdf_.back() = 1.0;

  // Per-tenant popularity: a seeded permutation of the workload (so tenants
  // disagree about which queries are hot) with Zipf mass over ranks.
  rank_to_query_.resize(tenants_.size());
  rank_mass_.resize(tenants_.size());
  for (size_t t = 0; t < tenants_.size(); ++t) {
    std::vector<int32_t>& perm = rank_to_query_[t];
    perm.resize(static_cast<size_t>(workload_size_));
    std::iota(perm.begin(), perm.end(), 0);
    util::Rng perm_rng(util::MixSeed(seed_, 0x7e4a17u, static_cast<uint64_t>(t)));
    perm_rng.Shuffle(&perm);

    std::vector<double>& mass = rank_mass_[t];
    mass.resize(static_cast<size_t>(workload_size_));
    double norm = 0.0;
    for (int32_t r = 0; r < workload_size_; ++r) {
      mass[static_cast<size_t>(r)] =
          1.0 / std::pow(static_cast<double>(r + 1), tenants_[t].zipf_s);
      norm += mass[static_cast<size_t>(r)];
    }
    for (double& m : mass) m /= norm;
  }
}

std::vector<Arrival> ArrivalGenerator::Generate(VirtualNanos horizon_ns) {
  LQOLAB_CHECK_GT(horizon_ns, 0);
  // Independent streams so the arrival-time process is unchanged when the
  // tenant mix or workload changes, and vice versa.
  util::Rng time_rng(util::MixSeed(seed_, 0x41a5u));
  util::Rng mix_rng(util::MixSeed(seed_, 0x9b1du));

  const double max_qps = profile_.MaxQps();
  std::vector<util::ZipfTable> zipf;
  zipf.reserve(tenants_.size());
  for (const TenantSpec& t : tenants_) {
    zipf.emplace_back(static_cast<int64_t>(workload_size_), t.zipf_s);
  }

  std::vector<Arrival> arrivals;
  double t_ns = 0.0;
  while (true) {
    // Homogeneous Poisson at the envelope rate, thinned down to QpsAt(t).
    const double u = std::max(1e-12, 1.0 - time_rng.Uniform());
    t_ns += -std::log(u) / max_qps * static_cast<double>(util::kNanosPerSecond);
    if (t_ns >= static_cast<double>(horizon_ns)) break;
    const VirtualNanos at = static_cast<VirtualNanos>(t_ns);
    if (time_rng.Uniform() >= profile_.QpsAt(at) / max_qps) continue;

    Arrival a;
    a.at = at;
    const double pick = mix_rng.Uniform();
    size_t tenant = 0;
    while (tenant + 1 < tenant_cdf_.size() && pick >= tenant_cdf_[tenant]) {
      ++tenant;
    }
    a.tenant = static_cast<int32_t>(tenant);
    const int64_t rank = zipf[tenant].Sample(&mix_rng);
    a.query_index = rank_to_query_[tenant][static_cast<size_t>(rank)];
    arrivals.push_back(a);
  }
  return arrivals;
}

double ArrivalGenerator::QueryProbability(int32_t tenant,
                                          int32_t query_index) const {
  LQOLAB_CHECK_GE(tenant, 0);
  LQOLAB_CHECK_LT(static_cast<size_t>(tenant), tenants_.size());
  LQOLAB_CHECK_GE(query_index, 0);
  LQOLAB_CHECK_LT(query_index, workload_size_);
  const std::vector<int32_t>& perm = rank_to_query_[static_cast<size_t>(tenant)];
  for (size_t r = 0; r < perm.size(); ++r) {
    if (perm[r] == query_index) {
      return rank_mass_[static_cast<size_t>(tenant)][r];
    }
  }
  return 0.0;
}

double ArrivalGenerator::TenantShare(int32_t tenant) const {
  LQOLAB_CHECK_GE(tenant, 0);
  LQOLAB_CHECK_LT(static_cast<size_t>(tenant), tenants_.size());
  const size_t t = static_cast<size_t>(tenant);
  return t == 0 ? tenant_cdf_[0] : tenant_cdf_[t] - tenant_cdf_[t - 1];
}

}  // namespace lqolab::loadgen
