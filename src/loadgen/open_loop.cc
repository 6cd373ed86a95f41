#include "loadgen/open_loop.h"

#include <future>
#include <utility>

#include "serve/query_server.h"
#include "util/check.h"
#include "util/rng.h"

namespace lqolab::loadgen {

using util::VirtualNanos;

namespace {

/// Arrival window when OpenLoopOptions::target_arrivals is 0.
constexpr VirtualNanos kHorizonNs = 10 * util::kNanosPerSecond;

}  // namespace

OpenLoopRunner::OpenLoopRunner(engine::Database* db,
                               std::vector<query::Query> workload)
    : db_(db), workload_(std::move(workload)) {
  LQOLAB_CHECK(db_ != nullptr);
  LQOLAB_CHECK(!workload_.empty());
}

OpenLoopResult OpenLoopRunner::Run(const OpenLoopOptions& options) {
  LQOLAB_CHECK_GT(options.virtual_workers, 0);
  std::vector<TenantSpec> tenants = options.tenants;
  if (tenants.empty()) tenants.push_back(TenantSpec{});

  serve::ServerOptions sopts;
  sopts.workers = options.real_workers;
  sopts.queue_capacity = options.queue_capacity;
  sopts.route = serve::RouteMode::kPglite;
  sopts.seed = options.seed;
  sopts.virtual_workers = options.virtual_workers;
  sopts.shed_on_predicted_miss = options.shed_on_predicted_miss;
  serve::QueryServer server(db_, sopts);

  OpenLoopResult result;
  // Warmup pass 1 warms the plan cache; pass 2 measures warm virtual
  // service times — the estimates SubmitAt's shedding predictor runs on.
  result.service_estimate_ns.assign(workload_.size(), 0);
  for (int pass = 0; pass < 2; ++pass) {
    for (size_t i = 0; i < workload_.size(); ++i) {
      serve::ServedQuery served = server.Submit(workload_[i]).get();
      LQOLAB_CHECK_MSG(served.status.ok(),
                       "warmup failed for " << served.query_id << ": "
                                            << served.status.ToString());
      if (pass == 1) result.service_estimate_ns[i] = served.latency_ns();
    }
  }

  // Capacity: k virtual workers over the mix-weighted mean service time.
  ArrivalGenerator mix_probe(options.profile, tenants,
                             static_cast<int32_t>(workload_.size()),
                             options.seed);
  double mean_service_ns = 0.0;
  for (size_t t = 0; t < tenants.size(); ++t) {
    double tenant_mean = 0.0;
    for (size_t i = 0; i < workload_.size(); ++i) {
      tenant_mean += mix_probe.QueryProbability(static_cast<int32_t>(t),
                                               static_cast<int32_t>(i)) *
                     static_cast<double>(result.service_estimate_ns[i]);
    }
    mean_service_ns +=
        mix_probe.TenantShare(static_cast<int32_t>(t)) * tenant_mean;
  }
  LQOLAB_CHECK_GT(mean_service_ns, 0.0);
  result.capacity_qps = static_cast<double>(options.virtual_workers) *
                        static_cast<double>(util::kNanosPerSecond) /
                        mean_service_ns;

  RateProfile profile = options.profile;
  if (options.offered_multiple > 0.0) {
    profile.base_qps = options.offered_multiple * result.capacity_qps;
  }
  result.offered_qps = profile.base_qps;

  VirtualNanos horizon_ns = kHorizonNs;
  if (options.target_arrivals > 0) {
    horizon_ns = static_cast<VirtualNanos>(
        static_cast<double>(options.target_arrivals) / profile.base_qps *
        static_cast<double>(util::kNanosPerSecond));
    LQOLAB_CHECK_GT(horizon_ns, 0);
  }
  if (options.deadline_service_multiple > 0.0) {
    const auto budget = static_cast<VirtualNanos>(
        options.deadline_service_multiple * mean_service_ns);
    for (TenantSpec& t : tenants) {
      if (t.deadline_budget_ns == 0) t.deadline_budget_ns = budget;
    }
  }

  ArrivalGenerator generator(profile, tenants,
                             static_cast<int32_t>(workload_.size()),
                             options.seed);
  const std::vector<Arrival> arrivals = generator.Generate(horizon_ns);
  result.arrivals = static_cast<int64_t>(arrivals.size());

  std::vector<std::future<serve::ServedQuery>> futures;
  futures.reserve(arrivals.size());
  for (const Arrival& a : arrivals) {
    serve::OpenLoopArrival admission;
    admission.arrival_vt = a.at;
    admission.deadline_budget_ns =
        tenants[static_cast<size_t>(a.tenant)].deadline_budget_ns;
    admission.estimated_service_ns =
        result.service_estimate_ns[static_cast<size_t>(a.query_index)];
    admission.tenant = a.tenant;
    futures.push_back(
        server.SubmitAt(workload_[static_cast<size_t>(a.query_index)],
                        admission));
  }

  std::vector<std::string> tenant_names;
  tenant_names.reserve(tenants.size());
  for (const TenantSpec& t : tenants) tenant_names.push_back(t.name);
  SloAccountant accountant(std::move(tenant_names));

  // Futures resolve in admission order (the dispatcher finalizes strictly
  // by sequence), so collecting in order never deadlocks.
  uint64_t fingerprint = 0;
  for (std::future<serve::ServedQuery>& f : futures) {
    const serve::ServedQuery served = f.get();
    accountant.Record(served);
    fingerprint = util::MixSeed(
        fingerprint,
        util::MixSeed(static_cast<uint64_t>(served.result_rows),
                      static_cast<uint64_t>(served.completion_vt),
                      static_cast<uint64_t>(served.status.code())));
  }
  result.fingerprint = fingerprint;
  result.report = accountant.Report(horizon_ns);
  server.Shutdown();
  return result;
}

}  // namespace lqolab::loadgen
