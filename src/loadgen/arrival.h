#ifndef LQOLAB_LOADGEN_ARRIVAL_H_
#define LQOLAB_LOADGEN_ARRIVAL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/rng.h"
#include "util/virtual_clock.h"

namespace lqolab::loadgen {

/// Offered-load rate as a function of virtual time. Three shapes:
///   kConstant — flat base_qps.
///   kDiurnal  — base_qps * (1 + amplitude * sin(2*pi * t / period)):
///               the day/night swing of a user-facing service.
///   kBurst    — base_qps, multiplied by burst_multiplier inside periodic
///               burst windows (flash crowds, retry storms).
struct RateProfile {
  enum class Kind : int32_t { kConstant = 0, kDiurnal, kBurst };

  Kind kind = Kind::kConstant;
  /// Baseline arrival rate in queries per virtual second.
  double base_qps = 100.0;
  /// kDiurnal: relative swing in [0, 1] and the full cycle length.
  double diurnal_amplitude = 0.5;
  util::VirtualNanos diurnal_period_ns = 60 * util::kNanosPerSecond;
  /// kBurst: rate multiplier inside a window, window spacing and width.
  double burst_multiplier = 4.0;
  util::VirtualNanos burst_every_ns = 10 * util::kNanosPerSecond;
  util::VirtualNanos burst_duration_ns = util::kNanosPerSecond;

  /// Instantaneous rate at virtual time `t` (>= 0).
  double QpsAt(util::VirtualNanos t) const;
  /// Upper bound of QpsAt over all t — the thinning envelope.
  double MaxQps() const;

  static RateProfile Constant(double qps);
  static RateProfile Diurnal(double qps, double amplitude,
                             util::VirtualNanos period_ns);
  static RateProfile Burst(double qps, double multiplier,
                           util::VirtualNanos every_ns,
                           util::VirtualNanos duration_ns);
};

/// One tenant class in a multi-tenant mix: a share of the arrival stream,
/// its own Zipf skew over the workload (each tenant favours a *different*
/// seeded permutation of the queries — millions-of-users style hot sets
/// that do not overlap), and an SLO deadline budget.
struct TenantSpec {
  std::string name = "default";
  /// Relative share of arrivals (normalized across tenants).
  double weight = 1.0;
  /// Zipf exponent over the workload's queries; 0 = uniform.
  double zipf_s = 1.0;
  /// Deadline budget from arrival (0 = no deadline / best effort).
  util::VirtualNanos deadline_budget_ns = 0;
};

/// One generated arrival: when, who, and which workload query.
struct Arrival {
  util::VirtualNanos at = 0;
  int32_t tenant = 0;
  int32_t query_index = 0;
};

/// Seeded open-loop arrival process: a (possibly non-homogeneous) Poisson
/// stream shaped by a RateProfile, with each arrival assigned a tenant by
/// weight and a workload query by that tenant's Zipf-permuted popularity.
/// Deterministic: the same (profile, tenants, workload_size, seed) always
/// generates the same arrival sequence. Time-varying rates are realized by
/// thinning a homogeneous MaxQps() stream, so changing the profile shape
/// does not reshuffle the underlying randomness wholesale.
class ArrivalGenerator {
 public:
  ArrivalGenerator(const RateProfile& profile, std::vector<TenantSpec> tenants,
                   int32_t workload_size, uint64_t seed);

  /// All arrivals in [0, horizon_ns), in nondecreasing time order.
  std::vector<Arrival> Generate(util::VirtualNanos horizon_ns);

  const std::vector<TenantSpec>& tenants() const { return tenants_; }

  /// Probability that one arrival of tenant `t` is workload query `i`
  /// (the tenant's Zipf mass on its permuted rank of `i`).
  double QueryProbability(int32_t tenant, int32_t query_index) const;
  /// Normalized arrival share of tenant `t`.
  double TenantShare(int32_t tenant) const;

 private:
  RateProfile profile_;
  std::vector<TenantSpec> tenants_;
  int32_t workload_size_;
  uint64_t seed_;
  /// Cumulative tenant weights (normalized).
  std::vector<double> tenant_cdf_;
  /// Per tenant: rank -> query index (seeded permutation) and the Zipf
  /// mass per rank.
  std::vector<std::vector<int32_t>> rank_to_query_;
  std::vector<std::vector<double>> rank_mass_;
};

}  // namespace lqolab::loadgen

#endif  // LQOLAB_LOADGEN_ARRIVAL_H_
