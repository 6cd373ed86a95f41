// layer_profile: wall-clock benchmark of the engine, one workload per
// process. Untraced runs report the end-to-end metrics; a run with
// --trace <path> times every call the benchmark makes into a layer, writes
// those spans as JSONL to <path>, and reports the per-layer metrics.
//
//   layer_profile --workload <job|job_complex|tpch|serve_sql|bao_infer>
//                 [--seed N] [--seconds S] [--trace PATH] [--answers PATH]
//
// The last line of stdout is one JSON object with the metrics. Exit code 1
// means a wrong or failed answer, 2 a usage error.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "engine_api.h"
#include "probe.h"
#include "spans.h"

namespace layer_profile {
namespace {

using api::Database;
using api::Query;

/// Seed of the generated databases and of Bao's training. It is fixed, so
/// the work per run does not depend on --seed and every run checks its
/// answers against the committed file.
constexpr uint64_t kDataSeed = 42;
/// The paper's protocol: three executions per plan.
constexpr int32_t kExecutions = 3;
constexpr int32_t kServeWorkers = 2;
constexpr int32_t kServeEpochs = 3;

/// One request of a round and its answer.
struct Request {
  const std::string* query_id = nullptr;
  int32_t epoch = 0;
  /// Result rows, or a digest of the chosen plan on the inference workload.
  int64_t answer = 0;
  /// Completed with status OK and without a timeout.
  bool ok = true;
  double latency_ms = 0.0;
};

struct Round {
  std::vector<Request> requests;
  /// The paper's inference + planning + execution, in virtual time.
  int64_t virtual_ns = 0;
  int64_t nn_evals = 0;
};

/// Tracing state of one traced round.
struct RoundTrace {
  RoundTrace() {
    // Open scopes point into logs[0]; the reserve keeps it in place when
    // serve_sql adds its helper thread's log.
    logs.reserve(2);
    logs.emplace_back(0);
  }
  /// One span log per thread; logs[0] is the main thread's.
  std::vector<SpanLog> logs;
  int64_t round_span = -1;
  api::Counters counters;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds the database and loads the queries, replacing earlier state.
  /// `seed` fixes the order the queries are sent in.
  virtual void Setup(uint64_t seed, SpanLog* log) = 0;
  /// One timed round; `trace` is null on an untraced round.
  virtual Round Run(int32_t round, RoundTrace* trace) = 0;
  virtual api::DataSize Size() = 0;
  /// Answers are result rows (checked against the committed file).
  virtual bool answers_are_rows() const { return true; }
  /// Virtual time is the same on every round.
  virtual bool virtual_time_repeats() const { return true; }
  virtual int32_t setups() const { return 3; }
};

std::string WorkloadPath(const char* file) {
  return std::string(LAYER_PROFILE_WORKLOADS_DIR) + "/" + file;
}

/// File order, starting at position `seed` mod n. Not a shuffle: variants
/// of one template sit next to each other in the files and share cached
/// work, and a shuffle changes how much by up to a quarter of the wall time.
std::vector<size_t> SendOrder(size_t n, uint64_t seed) {
  std::vector<size_t> order(n);
  const size_t first = static_cast<size_t>(seed % n);
  for (size_t i = 0; i < n; ++i) order[i] = (first + i) % n;
  return order;
}

/// One query as sent: its id, SQL text and position in the workload file.
struct Statement {
  std::string id;
  std::string sql;
  int32_t query = 0;
  int32_t epoch = 0;
};

/// job, job_complex, tpch: one caller sends each query as SQL text through
/// PrepareSql, PlanQuery and three ExecutePlan calls, on a fresh replica
/// each round.
class QueryLoop : public Workload {
 public:
  QueryLoop(api::Dataset dataset, const char* file)
      : dataset_(dataset), file_(file) {}

  void Setup(uint64_t seed, SpanLog* log) override {
    db_.reset();
    db_ = api::BuildDatabase(dataset_, kDataSeed, log);
    const std::vector<Query> queries =
        api::LoadWorkload(WorkloadPath(file_), *db_, log);
    statements_.clear();
    for (const size_t i : SendOrder(queries.size(), seed)) {
      statements_.push_back({queries[i].id, api::RenderSql(queries[i], *db_),
                             static_cast<int32_t>(i), 0});
    }
  }

  Round Run(int32_t round, RoundTrace* trace) override {
    SpanLog* log = trace == nullptr ? nullptr : &trace->logs[0];
    Round out;
    const std::unique_ptr<Database> replica =
        api::CloneReplica(*db_, log, {-1, round, 0});
    for (const Statement& statement : statements_) {
      const RequestId id{statement.query, round, 0};
      Request request;
      request.query_id = &statement.id;
      const int64_t start = NowNs();
      {
        SpanLog::Scope span(log, "request", id);
        Query q;
        std::string error;
        if (!api::PrepareSql(*replica, statement.sql, statement.id, &q, &error,
                             log, id)) {
          std::fprintf(stderr, "%s: %s\n", statement.id.c_str(),
                       error.c_str());
          request.ok = false;
        } else {
          const Database::Planned planned =
              api::PlanQuery(replica.get(), q, log, id);
          for (int32_t run = 0; run < kExecutions; ++run) {
            const lqolab::engine::QueryRun result = api::ExecutePlan(
                replica.get(), q, planned, run == 0 ? "exec.cold" : "exec.warm",
                log, id);
            request.ok &= result.status.ok() && !result.timed_out;
            if (run > 0 && result.result_rows != request.answer) {
              request.ok = false;
            }
            request.answer = result.result_rows;
            if (run == kExecutions - 1) {
              out.virtual_ns += planned.planning_ns + result.execution_ns;
            }
          }
        }
      }
      request.latency_ms = static_cast<double>(NowNs() - start) / 1e6;
      out.requests.push_back(request);
    }
    return out;
  }

  api::DataSize Size() override { return api::Size(db_.get()); }

 private:
  api::Dataset dataset_;
  const char* file_;
  std::unique_ptr<Database> db_;
  std::vector<Statement> statements_;
};

/// serve_sql: a 2-worker QueryServer with the plan cache on, fed through
/// SubmitSql by two closed-loop clients (the main thread and one helper).
/// Each epoch resends JOB-lite with fresh literals, so epoch 0 fills the
/// plan cache and later epochs hit it through the template key while the
/// executions recompute. A new server is started each round.
class ServeSql : public Workload {
 public:
  void Setup(uint64_t seed, SpanLog* log) override {
    db_.reset();
    db_ = api::BuildDatabase(api::Dataset::kImdb, kDataSeed, log);
    const std::vector<Query> queries =
        api::LoadWorkload(WorkloadPath("job_lite.sql"), *db_, log);
    statements_.clear();
    for (int32_t epoch = 0; epoch < kServeEpochs; ++epoch) {
      for (const size_t i : SendOrder(queries.size(), seed)) {
        statements_.push_back(
            {queries[i].id,
             api::RenderSql(api::VaryLiterals(queries[i], epoch), *db_),
             static_cast<int32_t>(i), epoch});
      }
    }
  }

  Round Run(int32_t round, RoundTrace* trace) override {
    SpanLog* log = trace == nullptr ? nullptr : &trace->logs[0];
    std::unique_ptr<lqolab::serve::QueryServer> server =
        api::StartServer(db_.get(), kServeWorkers, log);
    std::vector<Request> requests(statements_.size());
    std::vector<int64_t> virtual_ns(statements_.size(), 0);
    std::atomic<size_t> next{0};
    auto client = [&](SpanLog* client_log) {
      for (size_t i = next++; i < statements_.size(); i = next++) {
        const Statement& statement = statements_[i];
        const RequestId id{statement.query, round, statement.epoch};
        Request& request = requests[i];
        request.query_id = &statement.id;
        request.epoch = statement.epoch;
        const int64_t start = NowNs();
        lqolab::serve::ServedQuery served;
        {
          SpanLog::Scope span(client_log, "request", id);
          std::future<lqolab::serve::ServedQuery> future = api::SubmitSql(
              server.get(), statement.sql, statement.id, client_log, id);
          served = api::Wait(&future, client_log, id);
        }
        request.latency_ms = static_cast<double>(NowNs() - start) / 1e6;
        request.ok = served.status.ok() && !served.timed_out;
        request.answer = served.result_rows;
        virtual_ns[i] = served.latency_ns();
      }
    };
    SpanLog* helper_log = nullptr;
    if (trace != nullptr) {
      helper_log = &trace->logs.emplace_back(1, trace->round_span);
    }
    {
      std::jthread helper(client, helper_log);
      client(log);
    }
    api::StopServer(std::move(server),
                    trace == nullptr ? nullptr : &trace->counters, log);
    Round out;
    out.requests = std::move(requests);
    for (const int64_t ns : virtual_ns) out.virtual_ns += ns;
    return out;
  }

  api::DataSize Size() override { return api::Size(db_.get()); }
  /// Which template variant plans first, and so which cached plan later
  /// variants reuse, depends on thread timing.
  bool virtual_time_repeats() const override { return false; }

 private:
  std::unique_ptr<Database> db_;
  /// Epoch-major, each epoch in the same seeded order.
  std::vector<Statement> statements_;
};

/// bao_infer: Bao trained in setup on the even-indexed JOB-lite queries;
/// each round asks it for a plan for every odd-indexed query. Nothing is
/// executed.
class BaoInfer : public Workload {
 public:
  void Setup(uint64_t seed, SpanLog* log) override {
    bao_.reset();
    db_.reset();
    db_ = api::BuildDatabase(api::Dataset::kImdb, kDataSeed, log);
    std::vector<Query> queries =
        api::LoadWorkload(WorkloadPath("job_lite.sql"), *db_, log);
    std::vector<Query> train;
    std::vector<Query> test;
    for (size_t i = 0; i < queries.size(); ++i) {
      (i % 2 == 0 ? train : test).push_back(std::move(queries[i]));
    }
    test_.clear();
    for (const size_t i : SendOrder(test.size(), seed)) {
      test_.push_back(std::move(test[i]));
    }
    bao_ = api::TrainBao(train, db_.get(), kDataSeed, log);
  }

  Round Run(int32_t round, RoundTrace* trace) override {
    SpanLog* log = trace == nullptr ? nullptr : &trace->logs[0];
    Round out;
    for (size_t i = 0; i < test_.size(); ++i) {
      const RequestId id{static_cast<int32_t>(i), round, 0};
      Request request;
      request.query_id = &test_[i].id;
      const int64_t start = NowNs();
      lqolab::lqo::Prediction prediction;
      {
        SpanLog::Scope span(log, "request", id);
        prediction = api::BaoPlan(bao_.get(), test_[i], db_.get(), log, id);
      }
      request.latency_ms = static_cast<double>(NowNs() - start) / 1e6;
      request.answer = static_cast<int64_t>(std::hash<std::string>{}(
          api::PlanText(prediction.plan, test_[i])));
      out.virtual_ns += prediction.inference_ns + prediction.planning_ns;
      out.nn_evals += prediction.nn_evals;
      out.requests.push_back(request);
    }
    return out;
  }

  api::DataSize Size() override { return api::Size(db_.get()); }
  bool answers_are_rows() const override { return false; }
  int32_t setups() const override { return 2; }

 private:
  std::unique_ptr<Database> db_;
  std::unique_ptr<lqolab::lqo::BaoOptimizer> bao_;
  /// The odd-indexed queries, in seeded order.
  std::vector<Query> test_;
};

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "job") {
    return std::make_unique<QueryLoop>(api::Dataset::kImdb, "job_lite.sql");
  }
  if (name == "job_complex") {
    return std::make_unique<QueryLoop>(api::Dataset::kImdb,
                                       "job_complex_lite.sql");
  }
  if (name == "tpch") {
    return std::make_unique<QueryLoop>(api::Dataset::kTpch, "tpch_lite.sql");
  }
  if (name == "serve_sql") return std::make_unique<ServeSql>();
  if (name == "bao_infer") return std::make_unique<BaoInfer>();
  return nullptr;
}

struct Args {
  std::string workload;
  uint64_t seed = 42;
  double seconds = 12.0;
  std::string trace_path;
  std::string answers_path;
};

[[noreturn]] void Usage(const char* message) {
  std::fprintf(stderr,
               "%s\nusage: layer_profile --workload "
               "<job|job_complex|tpch|serve_sql|bao_infer> [--seed N] "
               "[--seconds S] [--trace PATH] [--answers PATH]\n",
               message);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') {
        Usage("--seed takes a whole number");
      }
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args.seconds > 0.0 && args.seconds <= 600.0)) {
        Usage("--seconds takes a number in (0, 600]");
      }
    } else if (flag == "--trace") {
      args.trace_path = value;
    } else if (flag == "--answers") {
      args.answers_path = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.workload.empty()) Usage("--workload is required");
  return args;
}

/// "<query id>@<epoch>" -> result rows, for one workload.
using Answers = std::map<std::string, int64_t>;

std::string AnswerKey(const Request& r) {
  return *r.query_id + "@" + std::to_string(r.epoch);
}

/// Reads the committed answers: lines "<workload> <query> <epoch> <rows>".
Answers LoadExpected(const std::string& workload) {
  const std::string path = WorkloadPath("expected_rows.tsv");
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot read %s\n", path.c_str());
    std::exit(1);
  }
  Answers answers;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string name, query;
    int32_t epoch = 0;
    int64_t rows = 0;
    if (!(fields >> name >> query >> epoch >> rows)) {
      std::fprintf(stderr, "%s: malformed line '%s'\n", path.c_str(),
                   line.c_str());
      std::exit(1);
    }
    if (name == workload) {
      answers[query + "@" + std::to_string(epoch)] = rows;
    }
  }
  return answers;
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (rank - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double Median(std::vector<double> values) { return Percentile(values, 50.0); }

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Metrics in the order they are printed, with their units.
class MetricList {
 public:
  void Add(const std::string& name, double value, const char* unit) {
    entries_.push_back({name, value, unit});
  }
  void PrintText() const {
    for (const Entry& e : entries_) {
      std::printf("%-34s %14.4f %s\n", e.name.c_str(), e.value, e.unit);
    }
  }
  std::string Json() const {
    std::string json;
    char buffer[256];
    for (const Entry& e : entries_) {
      std::snprintf(buffer, sizeof(buffer),
                    "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    json.empty() ? "" : ", ", e.name.c_str(), e.value, e.unit);
      json += buffer;
    }
    return "{" + json + "}";
  }

 private:
  struct Entry {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<Entry> entries_;
};

/// Span names of the calls a round makes, one per-layer metric each.
constexpr const char* kRoundLayers[] = {
    "engine.clone", "sql.prepare", "optimizer.plan", "exec.cold",
    "exec.warm",    "lqo.plan",    "serve.start",    "serve.submit",
    "serve.wait",   "serve.stop"};

/// Median duration of the setup spans called `name` (0 when none).
double MedianSetupMs(const SpanLog& log, const std::string& name) {
  std::vector<double> ms;
  for (const Span& s : log.spans()) {
    if (name == s.name) {
      ms.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e6);
    }
  }
  return Median(ms);
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const std::unique_ptr<Workload> workload = MakeWorkload(args.workload);
  if (workload == nullptr) Usage(("unknown workload " + args.workload).c_str());
  const bool traced = !args.trace_path.empty();

  // Every timed phase sits between two probes; its wall time is scaled by
  // kNominalMs over their mean (see probe.h).
  MachineProbe probe;
  std::vector<double> probe_ms = {probe.MeasureMs()};
  auto scale_since_last_probe = [&] {
    probe_ms.push_back(probe.MeasureMs());
    const double mean = (probe_ms.back() + probe_ms[probe_ms.size() - 2]) / 2;
    return MachineProbe::kNominalMs / mean;
  };

  SpanLog setup_log(0);
  std::vector<double> setup_s;
  for (int32_t i = 0; i < workload->setups(); ++i) {
    const int64_t start = NowNs();
    workload->Setup(args.seed, traced ? &setup_log : nullptr);
    const double raw_s = static_cast<double>(NowNs() - start) / 1e9;
    setup_s.push_back(raw_s * scale_since_last_probe());
  }
  const api::DataSize size = workload->Size();
  // Recording answers (--answers) compares rounds with each other instead.
  const bool check_expected =
      workload->answers_are_rows() && args.answers_path.empty();
  const Answers expected =
      check_expected ? LoadExpected(args.workload) : Answers{};

  // Timed rounds. A traced run alternates untraced and traced rounds, so
  // the two can be compared for answers, virtual time and speed.
  struct RoundStats {
    bool traced = false;
    double wall_ms = 0.0;
    double scale = 1.0;
    size_t requests = 0;
  };
  std::vector<RoundStats> rounds;
  // Peak memory through set-up and the first round. Later rounds add only
  // allocator retention, which depends on thread timing on serve_sql.
  double peak_rss_mb = 0.0;
  std::vector<double> latencies_ms;  // scaled
  std::vector<double> raw_latencies_ms;
  Answers seen;
  int64_t attempted = 0;
  int64_t failed = 0;
  bool correct = true;
  std::vector<int64_t> virtual_ns;
  std::map<std::string, double> layer_ms;
  api::Counters counters;
  std::vector<Span> spans = setup_log.spans();
  int64_t nn_evals = 0;
  int32_t traced_rounds = 0;
  const int64_t run_start = NowNs();
  for (int32_t round = 0;; ++round) {
    const double elapsed_s = static_cast<double>(NowNs() - run_start) / 1e9;
    const bool enough = rounds.size() >= (traced ? 2u : 1u);
    if (enough && elapsed_s >= args.seconds) break;

    const bool traced_round = traced && round % 2 == 1;
    std::optional<RoundTrace> trace;
    if (traced_round) trace.emplace();
    const int64_t start = NowNs();
    Round result;
    {
      api::CounterScope scope(traced_round ? &trace->counters : nullptr);
      SpanLog::Scope span(traced_round ? &trace->logs[0] : nullptr, "round",
                          {-1, round, -1});
      if (traced_round) trace->round_span = span.id();
      result = workload->Run(round, traced_round ? &*trace : nullptr);
    }
    const int64_t end = NowNs();
    const RoundStats& stats = rounds.emplace_back(
        RoundStats{traced_round, static_cast<double>(end - start) / 1e6,
                   scale_since_last_probe(), result.requests.size()});
    if (round == 0) peak_rss_mb = PeakRssMb();
    std::printf("round %d%s: %zu requests, %.1f ms wall, probe %.2f ms\n",
                round, traced_round ? " (traced)" : "", stats.requests,
                stats.wall_ms, probe_ms.back());
    for (const Request& r : result.requests) {
      latencies_ms.push_back(r.latency_ms * stats.scale);
      raw_latencies_ms.push_back(r.latency_ms);
      ++attempted;
      bool good = r.ok;
      const std::string key = AnswerKey(r);
      if (check_expected) {
        const auto it = expected.find(key);
        good &= it != expected.end() && it->second == r.answer;
      } else {
        const auto [it, inserted] = seen.emplace(key, r.answer);
        good &= inserted || it->second == r.answer;
      }
      if (!good) {
        ++failed;
        std::fprintf(stderr, "wrong or failed answer: %s round %d\n",
                     key.c_str(), round);
      }
    }
    virtual_ns.push_back(result.virtual_ns);
    if (workload->virtual_time_repeats() &&
        result.virtual_ns != virtual_ns.front()) {
      std::fprintf(stderr, "virtual time changed in round %d: %lld vs %lld\n",
                   round, static_cast<long long>(result.virtual_ns),
                   static_cast<long long>(virtual_ns.front()));
      correct = false;
    }
    if (round == 0 && !args.answers_path.empty()) {
      std::ofstream out(args.answers_path);
      for (const Request& r : result.requests) {
        out << args.workload << '\t' << *r.query_id << '\t' << r.epoch << '\t'
            << r.answer << '\n';
      }
    }
    if (traced_round) {
      ++traced_rounds;
      std::vector<const SpanLog*> logs;
      for (const SpanLog& log : trace->logs) {
        logs.push_back(&log);
        spans.insert(spans.end(), log.spans().begin(), log.spans().end());
      }
      for (const auto& [name, ms] : AttributeWallTime(logs, start, end)) {
        layer_ms[name] += ms;
      }
      layer_ms["round"] += static_cast<double>(end - start) / 1e6;
      counters.MergeFrom(trace->counters);
      nn_evals += result.nn_evals;
    }
  }
  correct &= failed == 0;

  // qps of the best round: interference only ever slows a round down.
  auto best_qps = [&](bool traced_rounds_only, bool scaled) {
    double best = 0.0;
    for (const RoundStats& r : rounds) {
      if (r.traced != traced_rounds_only) continue;
      const double ms = r.wall_ms * (scaled ? r.scale : 1.0);
      best = std::max(best, static_cast<double>(r.requests) * 1e3 / ms);
    }
    return best;
  };

  std::printf("workload %s seed %llu: %lld rows, %lld pages; %zu rounds, "
              "%zu latency samples\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              static_cast<long long>(size.rows),
              static_cast<long long>(size.pages), rounds.size(),
              latencies_ms.size());
  std::printf("virtual_e2e_s per round:");
  for (const int64_t ns : virtual_ns) {
    std::printf(" %.6f", static_cast<double>(ns) / 1e9);
  }
  std::printf("\nerror_rate %.6f (%lld of %lld)\n",
              attempted == 0 ? 0.0
                             : static_cast<double>(failed) /
                                   static_cast<double>(attempted),
              static_cast<long long>(failed), static_cast<long long>(attempted));
  std::printf("unscaled: queries_per_s %.4f, latency_p50_ms %.4f, "
              "latency_p90_ms %.4f; median probe %.2f ms (nominal %.0f)\n",
              best_qps(false, false), Percentile(raw_latencies_ms, 50.0),
              Percentile(raw_latencies_ms, 90.0), Median(probe_ms),
              MachineProbe::kNominalMs);

  MetricList metrics;
  if (!traced) {
    metrics.Add("setup_s", Median(setup_s), "s");
    metrics.Add("queries_per_s", best_qps(false, true), "1/s");
    metrics.Add("latency_p50_ms", Percentile(latencies_ms, 50.0), "ms");
    metrics.Add("latency_p90_ms", Percentile(latencies_ms, 90.0), "ms");
    metrics.Add("peak_rss_mb", peak_rss_mb, "MB");
  } else {
    const double n = static_cast<double>(traced_rounds);
    const double round_ms = layer_ms["round"] / n;
    double layers_ms = 0.0;
    metrics.Add("engine.build_ms", MedianSetupMs(setup_log, "engine.build"),
                "ms");
    metrics.Add("sql.load_ms", MedianSetupMs(setup_log, "sql.load"), "ms");
    metrics.Add("lqo.train_ms", MedianSetupMs(setup_log, "lqo.train"), "ms");
    for (const char* layer : kRoundLayers) {
      const double ms = layer_ms[layer] / n;
      layers_ms += ms;
      metrics.Add(std::string(layer) + "_ms", ms, "ms");
    }
    const api::LayerCounts c = api::ReadCounts(counters);
    int64_t prepares = 0;
    int64_t lqo_plans = 0;
    for (const Span& s : spans) {
      prepares += std::string_view(s.name) == "sql.prepare";
      lqo_plans += std::string_view(s.name) == "lqo.plan";
    }
    auto per_round = [&](int64_t count) {
      return static_cast<double>(count) / n;
    };
    metrics.Add("sql.prepare_calls", per_round(prepares), "count");
    metrics.Add("sql.us_per_prepare",
                prepares == 0 ? 0.0
                              : layer_ms["sql.prepare"] * 1e3 /
                                    static_cast<double>(prepares),
                "us");
    metrics.Add("optimizer.plan_calls", per_round(c.plan_calls), "count");
    metrics.Add("optimizer.dp_subproblems", per_round(c.dp_subproblems),
                "count");
    metrics.Add("optimizer.geqo_plans_costed", per_round(c.geqo_plans_costed),
                "count");
    metrics.Add("optimizer.ns_per_dp_subproblem",
                c.dp_subproblems == 0 ? 0.0
                                      : layer_ms["optimizer.plan"] * 1e6 /
                                            static_cast<double>(c.dp_subproblems),
                "ns");
    metrics.Add("exec.oracle_calls", per_round(c.oracle_calls), "count");
    metrics.Add("exec.pages_accessed", per_round(c.pages_accessed), "count");
    metrics.Add("exec.timeouts", per_round(c.timeouts), "count");
    metrics.Add("storage.buffer_hits", per_round(c.buffer_hits), "count");
    metrics.Add("storage.disk_reads", per_round(c.disk_reads), "count");
    metrics.Add("lqo.plan_calls", per_round(lqo_plans), "count");
    metrics.Add("lqo.nn_evals", per_round(nn_evals), "count");
    metrics.Add("lqo.hint_sets_planned", per_round(c.hint_sets_planned),
                "count");
    const int64_t lookups = c.plan_cache_hits + c.plan_cache_misses;
    metrics.Add("serve.cache_hit_rate",
                lookups == 0 ? 0.0
                             : static_cast<double>(c.plan_cache_hits) /
                                   static_cast<double>(lookups),
                "ratio");
    metrics.Add("serve.plan_cache_misses", per_round(c.plan_cache_misses),
                "count");
    metrics.Add("round_ms", round_ms, "ms");
    metrics.Add("other_ms", round_ms - layers_ms, "ms");
    const double untraced_qps = best_qps(false, true);
    metrics.Add("trace_overhead_pct",
                (untraced_qps - best_qps(true, true)) / untraced_qps * 100.0,
                "%");
    metrics.Add("machine.probe_ms", Median(probe_ms), "ms");

    std::printf("layer shares of round wall time:");
    for (const char* layer : kRoundLayers) {
      if (layer_ms[layer] > 0.0) {
        std::printf(" %s %.1f%%", layer, 100.0 * layer_ms[layer] / n / round_ms);
      }
    }
    std::printf(" other %.1f%%\n", 100.0 * (round_ms - layers_ms) / round_ms);
    if (!api::WriteTrace(args.trace_path, spans, counters)) {
      std::fprintf(stderr, "cannot write trace %s\n", args.trace_path.c_str());
      return 1;
    }
    std::printf("trace: %zu spans -> %s\n", spans.size(),
                args.trace_path.c_str());
  }
  metrics.PrintText();
  std::printf(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"metrics\": %s}\n",
      correct ? "true" : "false", static_cast<long long>(attempted),
      static_cast<long long>(failed), metrics.Json().c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace layer_profile

int main(int argc, char** argv) { return layer_profile::Main(argc, argv); }
