// The repository benchmark: four workloads driven through the public API,
// each measured end to end (wall clock and simulated 2PC cost, never mixed)
// and, with --trace 1, layer by layer from spans the benchmark records
// around its own calls into each module.
//
//   incbench --workload q1-timer-reads|q2-ant-sharded|fleet-zipf|ingest-storm
//            --seed N --seconds S --trace 0|1
//            [--spans PATH] [--shard-threads N] [--inject-fault KIND]
//
// Inputs are a pure function of --seed. Every workload is a closed loop of
// fixed-size episodes on fresh deployments, so an episode's outputs are
// deterministic for a seed and every repeat must reproduce the first
// episode's fingerprint. The last stdout line is one JSON object holding
// every metric this run measured, the correctness counters and the check
// results; perfbench/run.py turns it into the benchmark's result line.
// Exit status is 1 when any correctness check fails, 2 on bad usage.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/trace.h"
#include "src/common/thread_pool.h"
#include "src/core/engine.h"
#include "src/core/fleet.h"
#include "src/core/owner_client.h"
#include "src/core/socket_deployment.h"
#include "src/net/socket_transport.h"
#include "src/net/upload_channel.h"
#include "src/oblivious/formats.h"
#include "src/oblivious/sort.h"
#include "src/storage/serialization.h"
#include "src/workload/generators.h"

namespace incbench {
namespace {

using incshrink::CircuitStats;
using incshrink::Engine;
using incshrink::LogicalRecord;
using incshrink::Result;
using incshrink::Status;

// ---------------------------------------------------------------------------
// Small utilities
// ---------------------------------------------------------------------------

uint64_t SplitMix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// Input seed of one generator or deployment, derived from the run seed.
uint64_t DeriveSeed(uint64_t run_seed, uint64_t salt) {
  return SplitMix(run_seed * 0x100000001B3ull + salt);
}

struct Fnv {
  uint64_t hash = 0xcbf29ce484222325ull;
  void Mix(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash ^= (v >> (8 * i)) & 0xFF;
      hash *= 0x100000001b3ull;
    }
  }
  void MixDouble(double d) {
    uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof(bits));
    Mix(bits);
  }
  void MixBytes(const std::vector<uint8_t>& bytes) {
    Mix(bytes.size());
    for (const uint8_t b : bytes) {
      hash ^= b;
      hash *= 0x100000001b3ull;
    }
  }
};

double Seconds(int64_t ns) { return static_cast<double>(ns) * 1e-9; }

/// Nearest-rank percentile (0 for an empty sample set).
double Percentile(std::vector<double> v, double pct) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(pct / 100.0 * v.size()));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

double Median(const std::vector<double>& v) { return Percentile(v, 50); }

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// getrusage deltas around a timed phase.
struct ProcUsage {
  double user_s = 0;
  double sys_s = 0;
  double vcsw = 0;

  static ProcUsage Now() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    ProcUsage u;
    u.user_s = ru.ru_utime.tv_sec + ru.ru_utime.tv_usec * 1e-6;
    u.sys_s = ru.ru_stime.tv_sec + ru.ru_stime.tv_usec * 1e-6;
    u.vcsw = static_cast<double>(ru.ru_nvcsw);
    return u;
  }
  ProcUsage Since(const ProcUsage& before) const {
    return {user_s - before.user_s, sys_s - before.sys_s, vcsw - before.vcsw};
  }
};

/// Circuit counters of every protocol instance an engine charges: the root
/// protocol plus, when the cache is sharded, each shard's own instance.
/// Engine exposes them only through non-const accessors; this reads the
/// counters and changes nothing.
CircuitStats EngineStats(const Engine& engine) {
  Engine& e = const_cast<Engine&>(engine);
  CircuitStats s = e.proto()->stats();
  auto& cache = const_cast<incshrink::ShardedSecureCache&>(e.sharded_cache());
  if (cache.num_shards() > 1) {
    for (size_t k = 0; k < cache.num_shards(); ++k) {
      s.Add(cache.shard_proto(k)->stats());
    }
  }
  return s;
}

double SimSeconds(const Engine& e, const CircuitStats& delta) {
  return delta.SimulatedSeconds(e.config().cost_model);
}

void MixEngine(const Engine& e, Fnv* fp) {
  const incshrink::RunSummary s = e.Summary();
  fp->Mix(s.steps);
  fp->Mix(s.updates);
  fp->Mix(s.flushes);
  fp->Mix(s.final_view_rows);
  fp->Mix(s.final_cache_rows);
  fp->Mix(s.final_true_count);
  fp->Mix(s.total_real_entries_cached);
  fp->MixDouble(s.total_mpc_seconds);
  fp->MixDouble(s.total_query_seconds);
  fp->MixDouble(s.l1_error.mean());
  for (const incshrink::TranscriptEvent& ev : e.transcript()) {
    fp->Mix(static_cast<uint64_t>(ev.kind));
    fp->Mix(ev.t);
    fp->Mix(ev.rows);
  }
  for (const incshrink::LeakageRelease& r : e.releases()) {
    fp->Mix(r.t);
    fp->Mix(r.size);
    fp->Mix(r.fired ? 1 : 0);
  }
}

// ---------------------------------------------------------------------------
// Run bookkeeping
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string spans_path;
  int shard_threads = 4;
  std::string fault = "none";
};

/// Operations attempted and failed, plus the named correctness checks.
struct Checks {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, bool> results;

  void Attempt(uint64_t n = 1) { attempted += n; }
  void Fail(uint64_t n = 1) { failed += n; }
  /// Records a named check; a failing check also counts as a failed op.
  void Check(const std::string& name, bool ok) {
    auto it = results.find(name);
    if (it == results.end()) {
      results[name] = ok;
    } else {
      it->second = it->second && ok;
    }
    ++attempted;
    if (!ok) {
      ++failed;
      std::fprintf(stderr, "check failed: %s\n", name.c_str());
    }
  }
  bool all_ok() const {
    for (const auto& [name, ok] : results) {
      if (!ok) return false;
    }
    return failed == 0;
  }
};

/// Measurements accumulated over one phase (untraced or traced).
struct Acc {
  std::map<std::string, std::vector<double>> samples;
  std::map<std::string, double> sums;
  void Add(const std::string& k, double v) { samples[k].push_back(v); }
  void Sum(const std::string& k, double v) { sums[k] += v; }
  const std::vector<double>& S(const std::string& k) const {
    static const std::vector<double> kEmpty;
    auto it = samples.find(k);
    return it == samples.end() ? kEmpty : it->second;
  }
  double Get(const std::string& k) const {
    auto it = sums.find(k);
    return it == sums.end() ? 0.0 : it->second;
  }
};

/// A run's summary of its per-episode throughputs and of its per-window
/// latency percentiles: the faster quartile. Other tenants of the machine
/// slow some episodes down and never speed one up, so the faster quartile
/// moves least with them while still tracking the program's own speed.
double RunThroughput(const std::vector<double>& v) { return Percentile(v, 75); }
double RunLatency(const std::vector<double>& v) { return Percentile(v, 25); }

/// A p99 needs this many samples to have ten beyond it.
constexpr size_t kMinLatencySamples = 1000;

/// Replaces each raw latency sample set "lat.X" that holds at least
/// kMinLatencySamples samples by one "X.p50" and one "X.p99" sample; runs
/// report the median over these windows, which a short burst of machine
/// noise moves much less than a pooled percentile. `final` closes the
/// phase: a short remainder is dropped unless it is all the phase has.
void CloseLatencies(Acc* acc, bool final) {
  for (auto it = acc->samples.begin(); it != acc->samples.end();) {
    if (it->first.rfind("lat.", 0) != 0) {
      ++it;
      continue;
    }
    const std::string name = it->first.substr(4);
    if (it->second.size() < kMinLatencySamples &&
        !(final && acc->S(name + ".p50").empty())) {
      it = final ? acc->samples.erase(it) : std::next(it);
      continue;
    }
    const std::vector<double> v = std::move(it->second);
    it = acc->samples.erase(it);
    if (v.empty()) continue;
    acc->Add(name + ".p50", Percentile(v, 50));
    acc->Add(name + ".p99", Percentile(v, 99));
  }
}

struct MetricValue {
  double value;
  std::string unit;
};
using Metrics = std::map<std::string, MetricValue>;

/// Times `fn` and returns its duration in nanoseconds.
template <typename Fn>
int64_t Timed(Fn&& fn) {
  const int64_t t0 = NowNs();
  fn();
  return NowNs() - t0;
}

// ---------------------------------------------------------------------------
// Workload interface
// ---------------------------------------------------------------------------

/// One benchmark workload. Setup builds everything a run needs from the
/// seed; Episode runs one fixed-size closed-loop episode on a fresh
/// deployment and returns its output fingerprint. With a tracer, Episode
/// drives the phase-split public API and records spans; without, it drives
/// the plain API. Both must produce the same fingerprint.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual Status Setup(const Args& args) = 0;
  virtual Result<uint64_t> Episode(Tracer* tracer, Acc* acc,
                                   Checks* checks) = 0;
  /// Share of the run spent in an open-loop phase after the closed loop.
  virtual double open_loop_share() const { return 0.0; }
  virtual Status OpenLoop(double /*seconds*/, Tracer* /*tracer*/,
                          Acc* /*acc*/, Checks* /*checks*/) {
    return Status::OK();
  }
  /// Workload-specific end-to-end metrics from the untraced phase.
  virtual void Report(const Acc& acc, Metrics* out) const = 0;
  /// Workload-specific per-layer metrics from the traced phase.
  virtual void ReportLayers(const Acc& acc, Metrics* out) const = 0;

  /// Fault injected into the timed phase (--inject-fault); set after setup
  /// so the fault trips the run's checks rather than its set-up.
  std::string fault = "none";
};

/// Per-step phase timings shared by the engine workloads' traced path.
void AddPhase(Acc* acc, const std::string& name, int64_t ns, double sim_s) {
  acc->Add(name + ".us", Seconds(ns) * 1e6);
  acc->Sum("ep." + name + ".sim_s", sim_s);
}

/// Compare-exchange sites of the n-row sorting network, memoized: counting
/// walks the network, which would otherwise show up as benchmark time.
double SortSites(size_t n) {
  static std::map<size_t, double> memo;
  auto it = memo.find(n);
  if (it == memo.end()) {
    it = memo.emplace(n, static_cast<double>(
                             incshrink::SortNetworkCompareExchanges(n)))
             .first;
  }
  return it->second;
}

/// Runs the fired shards' sorts the way a caller of the phase-split API
/// does, and records the sort-layer counts.
void RunSortJobs(Engine* engine, const incshrink::BatchExec& exec,
                 Tracer* tracer, Acc* acc) {
  std::vector<incshrink::SortJob> jobs = engine->TakePendingSortJobs();
  std::vector<CircuitStats> before(jobs.size());
  for (size_t j = 0; j < jobs.size(); ++j) before[j] = jobs[j].proto->stats();
  int64_t ns = 0;
  {
    SpanScope span(tracer, Layer::kSort);
    ns = Timed([&] {
      if (!jobs.empty()) {
        incshrink::ObliviousSortBatch(jobs.data(), jobs.size(), exec);
      }
    });
  }
  double sites = 0;
  for (size_t j = 0; j < jobs.size(); ++j) {
    const size_t rows = jobs[j].rows->size();
    sites += SortSites(rows);
    acc->Add("ep.sort.rows", static_cast<double>(rows));
    acc->Sum("ep.sort.and_gates",
             static_cast<double>(jobs[j].proto->StatsSince(before[j])
                                     .and_gates));
  }
  acc->Sum("sort.ns", static_cast<double>(ns));
  acc->Sum("sort.sites", sites);
  acc->Sum("ep.sort.jobs", static_cast<double>(jobs.size()));
}

/// BeginStep → sort jobs → FinishStep with per-phase spans, timings and
/// simulated-cost deltas.
Status TracedEngineStep(Engine* engine, const incshrink::BatchExec& exec,
                        Tracer* tracer, Acc* acc) {
  CircuitStats s0 = EngineStats(*engine);
  Status st;
  int64_t ns = 0;
  {
    SpanScope span(tracer, Layer::kBegin);
    ns = Timed([&] { st = engine->BeginStep(); });
  }
  if (!st.ok()) return st;
  CircuitStats s1 = EngineStats(*engine);
  AddPhase(acc, "begin", ns, SimSeconds(*engine, s1.Diff(s0)));
  RunSortJobs(engine, exec, tracer, acc);
  s1 = EngineStats(*engine);
  {
    SpanScope span(tracer, Layer::kFinish);
    ns = Timed([&] { st = engine->FinishStep(); });
  }
  AddPhase(acc, "finish", ns,
           SimSeconds(*engine, EngineStats(*engine).Diff(s1)));
  return st;
}

/// Episode-level accounting shared by the engine workloads: simulated cost,
/// quality and shrink-efficiency numbers, and the privacy check.
void RecordEngineEpisode(const Engine& e, const CircuitStats& delta,
                         Acc* acc, Checks* checks) {
  const incshrink::RunSummary s = e.Summary();
  acc->Sum("ep.steps", static_cast<double>(s.steps));
  acc->Sum("ep.sim_mpc_s", s.total_mpc_seconds);
  acc->Sum("ep.sim_qet_s", s.total_query_seconds);
  acc->Sum("ep.rel_error", s.OverallRelativeError());
  acc->Sum("ep.view_mb", s.final_view_mb);
  acc->Sum("ep.syncs", static_cast<double>(s.updates));
  acc->Sum("ep.flushes", static_cast<double>(s.flushes));
  acc->Sum("ep.real_rows", static_cast<double>(s.total_real_entries_cached));
  acc->Sum("ep.view_rows", static_cast<double>(s.final_view_rows));
  acc->Sum("ep.mpc.and_gates", static_cast<double>(delta.and_gates));
  acc->Sum("ep.mpc.bytes", static_cast<double>(delta.bytes));
  acc->Sum("ep.mpc.rounds", static_cast<double>(delta.rounds));
  acc->Sum("ep.engines", 1);
  const incshrink::IncShrinkConfig& c = e.config();
  const double configured =
      c.eps + std::max(incshrink::UploadPolicyEpsilon(c.upload_policy1),
                       incshrink::UploadPolicyEpsilon(c.upload_policy2));
  checks->Check("composed_eps_within_config",
                e.ComposedEpsilon() <= configured * (1 + 1e-12));
}

/// Turns one episode's deterministic totals (the "ep." sums) into
/// per-episode samples, so identical episodes report identical values
/// however many episodes a run fits.
void CloseEngineEpisode(Acc* acc) {
  const double steps = acc->Get("ep.steps");
  const auto per_step = [&](const char* key) {
    return Ratio(acc->Get(key), steps);
  };
  acc->Add("sim_mpc_s_per_step", per_step("ep.sim_mpc_s"));
  acc->Add("sim_qet_ms", per_step("ep.sim_qet_s") * 1e3);
  acc->Add("rel_error",
           Ratio(acc->Get("ep.rel_error"), acc->Get("ep.engines")));
  acc->Add("view_mb", acc->Get("ep.view_mb"));
  acc->Add("syncs_per_step", per_step("ep.syncs"));
  acc->Add("flushes_per_step", per_step("ep.flushes"));
  acc->Add("real_frac",
           Ratio(acc->Get("ep.real_rows"), acc->Get("ep.view_rows")));
  acc->Add("and_gates_per_step", per_step("ep.mpc.and_gates"));
  acc->Add("bytes_per_step", per_step("ep.mpc.bytes"));
  acc->Add("rounds_per_step", per_step("ep.mpc.rounds"));
  acc->Add("begin_sim_s", per_step("ep.begin.sim_s"));
  acc->Add("finish_sim_s", per_step("ep.finish.sim_s"));
  acc->Add("sort_jobs_per_step", per_step("ep.sort.jobs"));
  acc->Add("sort_and_gates_per_step", per_step("ep.sort.and_gates"));
  acc->Add("sort_rows_p50", Median(acc->S("ep.sort.rows")));
  acc->Add("query_sim_ms",
           Ratio(acc->Get("ep.query.sim_s"), acc->Get("ep.queries")) * 1e3);
  std::erase_if(acc->sums,
                [](const auto& kv) { return kv.first.rfind("ep.", 0) == 0; });
  std::erase_if(acc->samples,
                [](const auto& kv) { return kv.first.rfind("ep.", 0) == 0; });
}

void ReportEngineCost(const Acc& acc, Metrics* out) {
  (*out)["sim_mpc_s_per_step"] = {Median(acc.S("sim_mpc_s_per_step")), "s"};
  (*out)["sim_qet_ms"] = {Median(acc.S("sim_qet_ms")), "ms"};
  (*out)["rel_error"] = {Median(acc.S("rel_error")), "ratio"};
  (*out)["view_mb"] = {Median(acc.S("view_mb")), "MB"};
}

void ReportEngineLayers(const Acc& acc, Metrics* out) {
  const double steps = acc.Get("ops");
  (*out)["core.owner.us_per_step"] = {Ratio(acc.Get("owner.ns"), steps) * 1e-3,
                                      "us"};
  (*out)["core.owner.refused"] = {Ratio(acc.Get("owner.refused"), steps),
                                  "1/step"};
  (*out)["core.begin.us_p50"] = {Median(acc.S("begin.us")), "us"};
  (*out)["core.begin.us_p99"] = {Percentile(acc.S("begin.us"), 99), "us"};
  (*out)["core.begin.sim_s"] = {Median(acc.S("begin_sim_s")), "s"};
  (*out)["oblivious.sort.us_per_step"] = {
      Ratio(acc.Get("sort.ns"), steps) * 1e-3, "us"};
  (*out)["oblivious.sort.ns_per_site"] = {
      Ratio(acc.Get("sort.ns"), acc.Get("sort.sites")), "ns"};
  (*out)["oblivious.sort.jobs"] = {Median(acc.S("sort_jobs_per_step")),
                                   "1/step"};
  (*out)["oblivious.sort.rows_p50"] = {Median(acc.S("sort_rows_p50")), "rows"};
  (*out)["oblivious.sort.and_gates"] = {
      Median(acc.S("sort_and_gates_per_step")), "1/step"};
  (*out)["core.finish.us_p50"] = {Median(acc.S("finish.us")), "us"};
  (*out)["core.finish.us_p99"] = {Percentile(acc.S("finish.us"), 99), "us"};
  (*out)["core.finish.sim_s"] = {Median(acc.S("finish_sim_s")), "s"};
  (*out)["core.finish.syncs"] = {Median(acc.S("syncs_per_step")), "1/step"};
  (*out)["core.finish.flushes"] = {Median(acc.S("flushes_per_step")),
                                   "1/step"};
  (*out)["core.shrink.real_frac"] = {Median(acc.S("real_frac")), "ratio"};
  (*out)["mpc.and_gates_per_step"] = {Median(acc.S("and_gates_per_step")),
                                      "1/step"};
  (*out)["mpc.bytes_per_step"] = {Median(acc.S("bytes_per_step")), "B/step"};
  (*out)["mpc.rounds_per_step"] = {Median(acc.S("rounds_per_step")),
                                   "1/step"};
}

/// One SocketListener::Poll sweep, timed and counted.
void PollListener(incshrink::SocketListener* listener, Tracer* tracer,
                  Acc* acc) {
  size_t frames = 0;
  const int64_t ns = Timed([&] {
    SpanScope span(tracer, Layer::kNetPoll);
    frames = listener->Poll();
  });
  acc->Sum("poll.calls", 1);
  acc->Sum("poll.ns", static_cast<double>(ns));
  acc->Sum("poll.frames", static_cast<double>(frames));
}

void ReportPoll(const Acc& acc, Metrics* out) {
  (*out)["net.poll.us_per_call"] = {
      Ratio(acc.Get("poll.ns"), acc.Get("poll.calls")) * 1e-3, "us"};
  (*out)["net.poll.frames_per_call"] = {
      Ratio(acc.Get("poll.frames"), acc.Get("poll.calls")), "frames"};
}

// ---------------------------------------------------------------------------
// q1-timer-reads: TPC-ds Q1, sDPTimer, one cache shard, in-process owners,
// ad-hoc analyst queries after every step.
// ---------------------------------------------------------------------------

constexpr uint64_t kQ1Steps = 1000;

class Q1TimerReads : public Workload {
 public:
  Status Setup(const Args& args) override {
    incshrink::TpcDsParams p;
    p.steps = kQ1Steps;
    p.seed = DeriveSeed(args.seed, 1);
    stream_ = incshrink::GenerateTpcDs(p);
    config_ = incshrink::DefaultTpcDsConfig();
    config_.strategy = incshrink::Strategy::kDpTimer;
    // The paper's Section-7 flush cadence (f = 2000, s = 15): over one
    // episode the cache only grows, so sync sorts carry most of the work.
    config_.flush_interval = 2000;
    config_.flush_size = 15;
    config_.seed = DeriveSeed(args.seed, 2);
    INCSHRINK_RETURN_NOT_OK(config_.Validate());
    // The analyst's fixed mix after step t: everything, the last 30 days,
    // and the key of one of the last 64 products sold.
    incshrink::Rng rng(DeriveSeed(args.seed, 3));
    std::vector<incshrink::Word> recent;
    queries_.assign(kQ1Steps, {});
    for (uint64_t t = 0; t < kQ1Steps; ++t) {
      for (const LogicalRecord& r : stream_.t1[t]) recent.push_back(r.key);
      if (recent.size() > 64) recent.erase(recent.begin(), recent.end() - 64);
      const incshrink::Word day = static_cast<incshrink::Word>(t + 1);
      queries_[t].push_back(incshrink::AnalystQuery::CountAll());
      queries_[t].push_back(incshrink::AnalystQuery::CountDateRange(
          day > 29 ? day - 29 : 1, day));
      queries_[t].push_back(incshrink::AnalystQuery::CountKeyEquals(
          recent.empty() ? 1 : recent[rng.Uniform(recent.size())]));
    }
    return Status::OK();
  }

  Result<uint64_t> Episode(Tracer* tracer, Acc* acc,
                           Checks* checks) override {
    incshrink::SynchronousDeployment d(config_);
    Engine& e = d.engine();
    Fnv fp;
    const CircuitStats before = EngineStats(e);
    const int64_t loop0 = NowNs();
    for (uint64_t t = 0; t < kQ1Steps; ++t) {
      if (tracer != nullptr) tracer->NewGroup();
      SpanScope root(tracer, Layer::kBench);
      checks->Attempt();
      Status st;
      const int64_t step0 = NowNs();
      if (tracer == nullptr) {
        st = d.Step(stream_.t1[t], stream_.t2[t]);
      } else {
        // SynchronousDeployment::Step, phase by phase: lockstep owners
        // never meet a full channel.
        bool took = false;
        const int64_t owner_ns = Timed([&] {
          SpanScope span(tracer, Layer::kOwner);
          took = d.owner1().TryStep(stream_.t1[t]) &&
                 d.owner2().TryStep(stream_.t2[t]);
        });
        acc->Sum("owner.ns", static_cast<double>(owner_ns));
        st = took ? TracedEngineStep(&e, incshrink::BatchExec{}, tracer, acc)
                  : Status::Internal("lockstep owner push refused");
      }
      acc->Add("lat.op", Seconds(NowNs() - step0) * 1e3);
      if (!st.ok()) {
        checks->Fail();
        return st;
      }
      for (const incshrink::AnalystQuery& q : queries_[t]) {
        checks->Attempt();
        Engine::AdHocResult r;
        const size_t view_rows = e.view().size();
        const int64_t ns = Timed([&] {
          SpanScope span(tracer, Layer::kQuery);
          r = e.AnswerAdHocQuery(q);
        });
        acc->Add("lat.query", Seconds(ns) * 1e6);
        acc->Sum("query.ns", static_cast<double>(ns));
        acc->Sum("query.view_rows", static_cast<double>(view_rows));
        acc->Sum("ep.query.sim_s", r.query_seconds);
        acc->Sum("ep.queries", 1);
        fp.Mix(r.answer);
      }
    }
    acc->Sum("loop_s", Seconds(NowNs() - loop0));
    acc->Sum("ops", static_cast<double>(kQ1Steps));
    RecordEngineEpisode(e, EngineStats(e).Diff(before), acc, checks);
    CloseEngineEpisode(acc);
    MixEngine(e, &fp);
    return fp.hash;
  }

  void Report(const Acc& acc, Metrics* out) const override {
    (*out)["steps_per_s"] = {RunThroughput(acc.S("ops_per_s")), "1/s"};
    (*out)["step_p50_ms"] = {RunLatency(acc.S("op.p50")), "ms"};
    (*out)["step_p99_ms"] = {RunLatency(acc.S("op.p99")), "ms"};
    (*out)["query_p50_us"] = {RunLatency(acc.S("query.p50")), "us"};
    (*out)["query_p99_us"] = {RunLatency(acc.S("query.p99")), "us"};
    ReportEngineCost(acc, out);
  }

  void ReportLayers(const Acc& acc, Metrics* out) const override {
    ReportEngineLayers(acc, out);
    (*out)["relational.query.us_p50"] = {RunLatency(acc.S("query.p50")), "us"};
    (*out)["relational.query.ns_per_view_row"] = {
        Ratio(acc.Get("query.ns"), acc.Get("query.view_rows")), "ns"};
    (*out)["relational.query.sim_ms"] = {Median(acc.S("query_sim_ms")), "ms"};
  }

 private:
  incshrink::GeneratedWorkload stream_;
  incshrink::IncShrinkConfig config_;
  std::vector<std::vector<incshrink::AnalystQuery>> queries_;
};

// ---------------------------------------------------------------------------
// q2-ant-sharded: CPDB Q2 at Fig. 9 scale 2, sDPANT, 4 cache shards on the
// deployment's shard pool, owners over loopback TCP, and a failover drill:
// every kQ2DrillEvery steps the primary snapshots and a standby restores.
// ---------------------------------------------------------------------------

constexpr uint64_t kQ2Steps = 400;
constexpr uint64_t kQ2DrillEvery = 50;
constexpr double kQ2Scale = 2.0;

class Q2AntSharded : public Workload {
 public:
  Status Setup(const Args& args) override {
    incshrink::CpdbParams p;
    p.steps = kQ2Steps;
    p.scale = kQ2Scale;
    p.seed = DeriveSeed(args.seed, 11);
    stream_ = incshrink::GenerateCpdb(p);
    config_ = incshrink::DefaultCpdbConfig();
    incshrink::ScaleConfigBatches(&config_, kQ2Scale);
    config_.strategy = incshrink::Strategy::kDpAnt;
    config_.num_cache_shards = 4;
    config_.cache_shard_threads = args.shard_threads;
    config_.seed = DeriveSeed(args.seed, 12);
    INCSHRINK_RETURN_NOT_OK(config_.Validate());
    standby_ = std::make_unique<Engine>(config_);
    pool_ = std::make_unique<incshrink::ThreadPool>(args.shard_threads);
    return Status::OK();
  }

  Result<uint64_t> Episode(Tracer* tracer, Acc* acc,
                           Checks* checks) override {
    incshrink::SocketDeployment d(config_);
    INCSHRINK_RETURN_NOT_OK(d.Start());
    Engine& e = d.engine();
    const incshrink::BatchExec exec{pool_.get(),
                                    config_.oblivious_batch_min_layer};
    const CircuitStats before = EngineStats(e);
    const int64_t loop0 = NowNs();
    for (uint64_t t = 0; t < kQ2Steps; ++t) {
      if (tracer != nullptr) tracer->NewGroup();
      SpanScope root(tracer, Layer::kBench);
      checks->Attempt();
      Status st;
      const int64_t step0 = NowNs();
      if (tracer == nullptr) {
        st = d.Step(stream_.t1[t], stream_.t2[t]);
      } else {
        st = TracedSocketStep(&d, stream_.t1[t], stream_.t2[t], exec, tracer,
                              acc);
      }
      acc->Add("lat.op", Seconds(NowNs() - step0) * 1e3);
      if (!st.ok()) {
        checks->Fail();
        return st;
      }
      if ((t + 1) % kQ2DrillEvery == 0) {
        FailoverDrill(&e, tracer, acc, checks);
      }
    }
    acc->Sum("loop_s", Seconds(NowNs() - loop0));
    acc->Sum("ops", static_cast<double>(kQ2Steps));
    acc->Sum("frames.rejected",
             static_cast<double>(d.listener().frames_rejected()));
    checks->Check("listener_rejects_no_honest_frame",
                  d.listener().frames_rejected() == 0);
    RecordEngineEpisode(e, EngineStats(e).Diff(before), acc, checks);
    CloseEngineEpisode(acc);
    Fnv fp;
    MixEngine(e, &fp);
    return fp.hash;
  }

  void Report(const Acc& acc, Metrics* out) const override {
    (*out)["steps_per_s"] = {RunThroughput(acc.S("ops_per_s")), "1/s"};
    (*out)["step_p50_ms"] = {RunLatency(acc.S("op.p50")), "ms"};
    (*out)["step_p99_ms"] = {RunLatency(acc.S("op.p99")), "ms"};
    (*out)["failover_ms"] = {RunLatency(acc.S("restore_ms")), "ms"};
    ReportEngineCost(acc, out);
  }

  void ReportLayers(const Acc& acc, Metrics* out) const override {
    ReportEngineLayers(acc, out);
    const double mb = acc.Get("ckpt.mb");
    (*out)["storage.ckpt.save_mb_per_s"] = {Ratio(mb, acc.Get("ckpt.save_s")),
                                            "MB/s"};
    (*out)["storage.ckpt.restore_mb_per_s"] = {
        Ratio(mb, acc.Get("ckpt.restore_s")), "MB/s"};
    (*out)["storage.ckpt.blob_mb"] = {Median(acc.S("blob_mb")), "MB"};
    (*out)["storage.ckpt.save_ms_p50"] = {Median(acc.S("save_ms")), "ms"};
    ReportPoll(acc, out);
    (*out)["net.poll.rejected"] = {acc.Get("frames.rejected"), "count"};
  }

 private:
  /// SocketDeployment::Step, driven through the phase-split API: owners
  /// push over the wire, the listener polls until the frame pair is queued,
  /// then BeginStep / sort jobs / FinishStep.
  Status TracedSocketStep(incshrink::SocketDeployment* d,
                          const std::vector<LogicalRecord>& new1,
                          const std::vector<LogicalRecord>& new2,
                          const incshrink::BatchExec& exec, Tracer* tracer,
                          Acc* acc) {
    const uint32_t max_polls =
        incshrink::SocketDeployment::DefaultOptions().max_wait_polls;
    bool took1 = false;
    bool took2 = false;
    for (uint32_t i = 0; i <= max_polls && !(took1 && took2); ++i) {
      const int64_t owner0 = NowNs();
      {
        SpanScope span(tracer, Layer::kOwner);
        if (!took1) {
          INCSHRINK_ASSIGN_OR_RETURN(took1, d->owner1().TryStep(new1));
        }
        if (!took2) {
          INCSHRINK_ASSIGN_OR_RETURN(took2, d->owner2().TryStep(new2));
        }
      }
      acc->Sum("owner.ns", static_cast<double>(NowNs() - owner0));
      if (took1 && took2) break;
      acc->Sum("owner.refused", 1);
      PollListener(&d->listener(), tracer, acc);
    }
    if (!took1 || !took2) return Status::Internal("owner step never accepted");
    for (uint32_t i = 0;; ++i) {
      const int64_t owner0 = NowNs();
      {
        SpanScope span(tracer, Layer::kOwner);
        INCSHRINK_RETURN_NOT_OK(d->owner1().Pump().status());
        INCSHRINK_RETURN_NOT_OK(d->owner2().Pump().status());
      }
      acc->Sum("owner.ns", static_cast<double>(NowNs() - owner0));
      PollListener(&d->listener(), tracer, acc);
      if (!d->engine().channel1()->empty() &&
          !d->engine().channel2()->empty()) {
        break;
      }
      if (i >= max_polls) return Status::Internal("upload frames never arrived");
    }
    return TracedEngineStep(&d->engine(), exec, tracer, acc);
  }

  /// Primary snapshot → standby restore → standby re-save, which must equal
  /// the primary snapshot byte for byte.
  void FailoverDrill(Engine* primary, Tracer* tracer, Acc* acc,
                     Checks* checks) {
    SpanScope span(tracer, Layer::kCkpt);
    checks->Attempt(2);
    Result<std::vector<uint8_t>> blob = Status::Internal("unset");
    const int64_t save_ns = Timed([&] { blob = primary->SaveCheckpoint(); });
    if (!blob.ok()) {
      checks->Check("checkpoint_save_ok", false);
      return;
    }
    std::vector<uint8_t> shipped = blob.value();
    if (fault == "snapshot-byte") shipped[shipped.size() / 2] ^= 0x01;
    Status st;
    const int64_t restore_ns =
        Timed([&] { st = standby_->RestoreCheckpoint(shipped); });
    checks->Check("standby_restore_ok", st.ok());
    if (!st.ok()) return;
    Result<std::vector<uint8_t>> again = standby_->SaveCheckpoint();
    checks->Check("standby_resave_equals_primary",
                  again.ok() && again.value() == blob.value());
    const double mb = static_cast<double>(blob.value().size()) / (1 << 20);
    acc->Add("save_ms", Seconds(save_ns) * 1e3);
    acc->Add("restore_ms", Seconds(restore_ns) * 1e3);
    acc->Add("blob_mb", mb);
    acc->Sum("ckpt.mb", mb);
    acc->Sum("ckpt.save_s", Seconds(save_ns));
    acc->Sum("ckpt.restore_s", Seconds(restore_ns));
  }

  incshrink::GeneratedWorkload stream_;
  incshrink::IncShrinkConfig config_;
  std::unique_ptr<Engine> standby_;
  std::unique_ptr<incshrink::ThreadPool> pool_;
};

// ---------------------------------------------------------------------------
// fleet-zipf: 8 tenants with Zipf(1.1) volumes mixing TPC-ds/CPDB and
// Timer/ANT/EP, priority scheduler with B = 4 < 8, owner lead 2, fused
// cross-tenant sorts, 4 workers.
// ---------------------------------------------------------------------------

constexpr size_t kFleetTenants = 8;
constexpr double kFleetZipf = 1.1;
constexpr uint64_t kFleetSteps = 160;

class FleetZipf : public Workload {
 public:
  Status Setup(const Args& args) override {
    const std::vector<double> weights =
        incshrink::ZipfWeights(kFleetTenants, kFleetZipf);
    const incshrink::Strategy kMix[] = {incshrink::Strategy::kDpTimer,
                                        incshrink::Strategy::kDpAnt,
                                        incshrink::Strategy::kEp};
    streams_.clear();
    streams_.reserve(kFleetTenants);
    specs_.clear();
    for (size_t i = 0; i < kFleetTenants; ++i) {
      incshrink::IncShrinkConfig cfg;
      if (i % 2 == 0) {
        incshrink::TpcDsParams p;
        p.steps = kFleetSteps;
        p.scale = weights[i];
        p.seed = DeriveSeed(args.seed, 100 + i);
        streams_.push_back(incshrink::GenerateTpcDs(p));
        cfg = incshrink::DefaultTpcDsConfig();
      } else {
        incshrink::CpdbParams p;
        p.steps = kFleetSteps;
        p.scale = weights[i];
        p.seed = DeriveSeed(args.seed, 100 + i);
        streams_.push_back(incshrink::GenerateCpdb(p));
        cfg = incshrink::DefaultCpdbConfig();
      }
      incshrink::ScaleConfigBatches(&cfg, weights[i]);
      cfg.strategy = kMix[i % 3];
      cfg.max_batches_per_step = 2;
      INCSHRINK_RETURN_NOT_OK(cfg.Validate());
      incshrink::DeploymentFleet::TenantSpec spec;
      spec.name = "tenant" + std::to_string(i);
      spec.config = cfg;
      specs_.push_back(spec);
    }
    for (size_t i = 0; i < kFleetTenants; ++i) {
      specs_[i].workload = &streams_[i];
    }
    options_.root_seed = DeriveSeed(args.seed, 99);
    options_.num_threads = 4;
    options_.owner_lead = 2;
    options_.coalesce_sorts = true;
    options_.scheduler.enabled = true;
    options_.scheduler.services_per_round = 4;
    options_.scheduler.aging_weight = 4;
    return Status::OK();
  }

  Result<uint64_t> Episode(Tracer* tracer, Acc* acc,
                           Checks* checks) override {
    incshrink::DeploymentFleet fleet(specs_, options_);
    std::vector<CircuitStats> before(kFleetTenants);
    for (size_t i = 0; i < kFleetTenants; ++i) {
      before[i] = EngineStats(fleet.engine(i));
    }
    const int64_t loop0 = NowNs();
    double rounds = 0;
    while (!fleet.done()) {
      if (tracer != nullptr) tracer->NewGroup();
      SpanScope root(tracer, Layer::kBench);
      const int64_t ns = Timed([&] {
        SpanScope span(tracer, Layer::kFleet);
        fleet.StepAll();
      });
      acc->Add("lat.op", Seconds(ns) * 1e3);
      ++rounds;
    }
    acc->Sum("loop_s", Seconds(NowNs() - loop0));
    const incshrink::DeploymentFleet::FleetStats fs = fleet.AggregateStats();
    checks->Attempt(fs.engine_steps + fs.upload_frames);
    acc->Sum("ops", static_cast<double>(fs.engine_steps));
    acc->Add("served_per_round",
             Ratio(static_cast<double>(fs.engine_steps), rounds));
    acc->Add("fused_jobs_per_submission",
             Ratio(static_cast<double>(fs.fused_sort_jobs),
                   static_cast<double>(fs.fused_sort_submissions)));
    acc->Add("backpressure_per_round",
             Ratio(static_cast<double>(fs.upload_backpressure), rounds));
    uint64_t gap_p99 = 0;
    for (const auto& ts : fs.tenant_service) {
      gap_p99 = std::max(gap_p99, ts.gap_p99);
    }
    acc->Add("gap_p99", static_cast<double>(gap_p99));
    acc->Add("jain", fs.jain_fairness);
    Fnv fp;
    for (size_t i = 0; i < kFleetTenants; ++i) {
      const Engine& e = fleet.engine(i);
      checks->Check("tenant_stream_fully_drained",
                    e.current_step() > 0 && fleet.QueueDepth(i) == 0);
      RecordEngineEpisode(e, EngineStats(e).Diff(before[i]), acc, checks);
      MixEngine(e, &fp);
    }
    CloseEngineEpisode(acc);
    return fp.hash;
  }

  void Report(const Acc& acc, Metrics* out) const override {
    (*out)["steps_per_s"] = {RunThroughput(acc.S("ops_per_s")), "1/s"};
    (*out)["step_p50_ms"] = {RunLatency(acc.S("op.p50")), "ms"};
    (*out)["step_p99_ms"] = {RunLatency(acc.S("op.p99")), "ms"};
    ReportEngineCost(acc, out);
  }

  void ReportLayers(const Acc& acc, Metrics* out) const override {
    // Fleet tenants step inside StepAll, so the engine phase split is not
    // visible from outside; the fleet reports its own counters instead.
    ReportEngineLayers(acc, out);
    (*out)["core.fleet.round_us_p50"] = {RunLatency(acc.S("op.p50")) * 1e3, "us"};
    (*out)["core.fleet.served_per_round"] = {Median(acc.S("served_per_round")),
                                             "1/round"};
    (*out)["core.fleet.fused_jobs_per_submission"] = {
        Median(acc.S("fused_jobs_per_submission")), "ratio"};
    (*out)["core.fleet.service_gap_p99_rounds"] = {Median(acc.S("gap_p99")),
                                                   "rounds"};
    (*out)["core.fleet.jain"] = {Median(acc.S("jain")), "ratio"};
    (*out)["core.fleet.backpressure"] = {
        Median(acc.S("backpressure_per_round")), "1/round"};
  }

 private:
  std::vector<incshrink::GeneratedWorkload> streams_;
  std::vector<incshrink::DeploymentFleet::TenantSpec> specs_;
  incshrink::DeploymentFleet::Options options_;
};

// ---------------------------------------------------------------------------
// ingest-storm: 10k simulated owners with Zipf(1.1) arrivals, pre-encoded
// IUF frames over 4 SocketSender connections into one validating
// SocketListener feeding bounded UploadChannels. Closed-loop saturation
// passes, then an open loop at a fixed offered rate.
// ---------------------------------------------------------------------------

constexpr size_t kStormOwners = 10000;
constexpr size_t kStormConns = 4;
constexpr size_t kStormFrames = 60000;
constexpr size_t kStormChannelCapacity = 64;
constexpr size_t kStormBurst = 32;  // frames a sender stages per round
constexpr double kStormOpenRate = 100000;  // offered frames per second
constexpr double kStormDrainGraceS = 2.0;
// Open-loop latencies are summarized per window of this length; the run
// reports the median window.
constexpr int64_t kStormWindowNs = 500'000'000;

class IngestStorm : public Workload {
 public:
  Status Setup(const Args& args) override {
    GenerateFrames(args.seed);
    reference_ = ReplayInProcess(&inproc_s_);
    channels_.clear();
    channels_.reserve(kStormConns);
    std::vector<incshrink::UploadChannel*> ptrs;
    for (size_t c = 0; c < kStormConns; ++c) {
      channels_.push_back(
          std::make_unique<incshrink::UploadChannel>(kStormChannelCapacity));
      ptrs.push_back(channels_.back().get());
    }
    incshrink::SocketListenerOptions lopt;
    lopt.validate_frames = true;
    lopt.max_connections = kStormConns;
    senders_.clear();
    listener_ = std::make_unique<incshrink::SocketListener>(ptrs, lopt);
    INCSHRINK_RETURN_NOT_OK(listener_->Bind(0));
    senders_.resize(kStormConns);
    for (size_t c = 0; c < kStormConns; ++c) {
      INCSHRINK_RETURN_NOT_OK(senders_[c].Connect(
          "127.0.0.1", listener_->port(), static_cast<uint32_t>(c)));
    }
    return Status::OK();
  }

  /// One closed-loop pass of the whole storm through the sockets.
  Result<uint64_t> Episode(Tracer* tracer, Acc* acc,
                           Checks* checks) override {
    std::vector<std::deque<size_t>> pending(kStormConns);
    for (size_t e = 0; e < frames_.size(); ++e) {
      if (fault == "drop-frame" && e == frames_.size() / 2) continue;
      pending[conn_[e]].push_back(e);
    }
    std::vector<Fnv> fp(kStormConns);
    size_t drained = 0;
    const size_t expected = frames_.size();
    const uint64_t rejected0 = listener_->frames_rejected();
    const int64_t t0 = NowNs();
    uint64_t stall_rounds = 0;
    uint64_t rounds = 0;
    while (drained < expected) {
      if (tracer != nullptr) tracer->NewGroup();
      SpanScope root(tracer, Layer::kBench);
      const size_t before = drained;
      INCSHRINK_RETURN_NOT_OK(SendRound(&pending, tracer, acc));
      PollListener(listener_.get(), tracer, acc);
      drained += DrainRound(tracer, acc, [&](size_t c, const auto& frame) {
        fp[c].MixBytes(frame);
      });
      ++rounds;
      // A lost frame leaves the pass short forever; stop after a long run
      // of rounds that moved nothing.
      stall_rounds = drained == before ? stall_rounds + 1 : 0;
      if (stall_rounds > 20000) break;
    }
    const double wall = Seconds(NowNs() - t0);
    acc->Sum("loop_s", wall);
    acc->Sum("ops", static_cast<double>(drained));
    acc->Sum("rounds", static_cast<double>(rounds));
    checks->Attempt(expected);
    checks->Fail(expected - drained);
    const uint64_t rejected = listener_->frames_rejected() - rejected0;
    checks->Check("listener_rejects_no_honest_frame", rejected == 0);
    Fnv combined;
    for (const Fnv& f : fp) combined.Mix(f.hash);
    checks->Check("socket_fingerprint_equals_inprocess",
                  combined.hash == reference_);
    return combined.hash;
  }

  double open_loop_share() const override { return 0.5; }

  /// Open loop: frame i is due at t0 + i / rate whatever the system does;
  /// its latency runs from its due time to its drain.
  Status OpenLoop(double seconds, Tracer* tracer, Acc* acc,
                  Checks* checks) override {
    std::vector<std::deque<std::pair<size_t, int64_t>>> in_flight(
        kStormConns);
    const double ns_per_frame = 1e9 / kStormOpenRate;
    const int64_t t0 = NowNs();
    // (window, microseconds) per frame, summarized after the loop so no
    // sorting stalls the generator.
    std::vector<std::pair<int64_t, double>> latency;
    std::vector<std::pair<int64_t, double>> late;
    latency.reserve(static_cast<size_t>(seconds * kStormOpenRate * 1.1));
    late.reserve(latency.capacity());
    const int64_t gen_end = t0 + static_cast<int64_t>(seconds * 1e9);
    uint64_t sent = 0;
    uint64_t drained = 0;
    uint64_t mismatched = 0;
    const uint64_t rejected0 = listener_->frames_rejected();
    for (;;) {
      const int64_t now = NowNs();
      const bool generating = now < gen_end;
      if (!generating && drained == sent) break;
      if (!generating && now > gen_end + kStormDrainGraceS * 1e9) break;
      if (tracer != nullptr) tracer->NewGroup();
      SpanScope root(tracer, Layer::kBench);
      {
        SpanScope span(tracer, Layer::kNetSend);
        const int64_t send0 = NowNs();
        while (generating) {
          const int64_t due =
              t0 + static_cast<int64_t>(static_cast<double>(sent) *
                                        ns_per_frame);
          if (due > now || due >= gen_end) break;
          const size_t e = sent % frames_.size();
          const size_t c = conn_[e];
          INCSHRINK_RETURN_NOT_OK(senders_[c].QueueFrame(frames_[e]));
          in_flight[c].emplace_back(e, due);
          late.emplace_back((due - t0) / kStormWindowNs,
                            Seconds(now - due) * 1e6);
          ++sent;
        }
        for (auto& s : senders_) {
          INCSHRINK_RETURN_NOT_OK(s.Flush().status());
          if (!s.fully_flushed()) acc->Sum("send.would_block", 1);
        }
        acc->Sum("send.ns", static_cast<double>(NowNs() - send0));
      }
      PollListener(listener_.get(), tracer, acc);
      drained += DrainRound(tracer, acc, [&](size_t c, const auto& frame) {
        const auto [e, due] = in_flight[c].front();
        in_flight[c].pop_front();
        if (frame != frames_[e]) ++mismatched;
        latency.emplace_back((due - t0) / kStormWindowNs,
                             Seconds(NowNs() - due) * 1e6);
      });
      acc->Sum("rounds", 1);
    }
    for (const auto& [samples, name] :
         {std::pair{&latency, "lat.frame"}, std::pair{&late, "lat.late"}}) {
      std::stable_sort(samples->begin(), samples->end(),
                       [](const auto& a, const auto& b) {
                         return a.first < b.first;
                       });
      int64_t window = 0;
      for (const auto& [w, us] : *samples) {
        if (w != window) CloseLatencies(acc, false);
        window = w;
        acc->Add(name, us);
      }
      CloseLatencies(acc, true);
    }
    acc->Sum("send.frames", static_cast<double>(sent));
    checks->Attempt(sent);
    checks->Fail(sent - drained);
    checks->Check("open_loop_frames_intact", mismatched == 0);
    checks->Check("listener_rejects_no_honest_frame",
                  listener_->frames_rejected() == rejected0);
    return Status::OK();
  }

  void Report(const Acc& acc, Metrics* out) const override {
    (*out)["frames_per_s"] = {RunThroughput(acc.S("ops_per_s")), "1/s"};
    (*out)["frame_p50_us"] = {RunLatency(acc.S("frame.p50")), "us"};
    (*out)["frame_p99_us"] = {RunLatency(acc.S("frame.p99")), "us"};
    (*out)["inproc_frames_per_s"] = {
        static_cast<double>(frames_.size()) / inproc_s_, "1/s"};
  }

  void ReportLayers(const Acc& acc, Metrics* out) const override {
    (*out)["net.send.ns_per_frame"] = {
        Ratio(acc.Get("send.ns"), acc.Get("send.frames")), "ns"};
    (*out)["net.send.would_block"] = {
        Ratio(acc.Get("send.would_block"), acc.Get("rounds")), "1/round"};
    uint64_t reconnects = 0;
    for (const auto& s : senders_) reconnects += s.reconnect_attempts();
    (*out)["net.send.reconnects"] = {static_cast<double>(reconnects), "count"};
    ReportPoll(acc, out);
    (*out)["net.poll.rejected"] = {
        static_cast<double>(listener_->frames_rejected()), "count"};
    size_t depth_max = 0;
    for (const auto& ch : channels_) {
      depth_max = std::max(depth_max, ch->max_depth());
    }
    (*out)["net.channel.depth_max"] = {static_cast<double>(depth_max),
                                       "frames"};
    (*out)["net.channel.drained"] = {
        Ratio(acc.Get("drained"), acc.Get("rounds")), "1/round"};
    (*out)["bench.gen.late_p99_us"] = {Median(acc.S("late.p99")), "us"};
  }

 private:
  void GenerateFrames(uint64_t seed) {
    incshrink::Rng rng(DeriveSeed(seed, 200));
    incshrink::ZipfSampler sampler(kStormOwners, kFleetZipf);
    std::vector<uint64_t> owner_step(kStormOwners, 0);
    frames_.clear();
    conn_.clear();
    frames_.reserve(kStormFrames);
    conn_.reserve(kStormFrames);
    for (size_t e = 0; e < kStormFrames; ++e) {
      const size_t owner = sampler.Sample(&rng);
      incshrink::UploadFrame frame;
      frame.owner_step = ++owner_step[owner];
      frame.batch = incshrink::SharedRows(incshrink::kSrcWidth);
      std::vector<incshrink::Word> row(incshrink::kSrcWidth);
      for (auto& w : row) w = rng.Next32();
      frame.batch.AppendSecretRow(row, &rng);
      LogicalRecord rec;
      rec.step = frame.owner_step;
      rec.rid = static_cast<uint32_t>(owner);
      rec.key = static_cast<uint32_t>(e);
      rec.date = rng.Next32();
      rec.payload = rng.Next32();
      frame.arrivals.push_back(rec);
      frames_.push_back(incshrink::EncodeUploadFrame(frame));
      conn_.push_back(owner % kStormConns);
    }
  }

  /// The same frames pushed straight into bounded in-process channels and
  /// drained in the same per-channel order: the reference fingerprint.
  uint64_t ReplayInProcess(double* seconds) const {
    const int64_t t0 = NowNs();
    std::vector<incshrink::UploadChannel> channels;
    channels.reserve(kStormConns);
    for (size_t c = 0; c < kStormConns; ++c) {
      channels.emplace_back(kStormChannelCapacity);
    }
    std::vector<std::deque<size_t>> pending(kStormConns);
    for (size_t e = 0; e < frames_.size(); ++e) pending[conn_[e]].push_back(e);
    std::vector<Fnv> fp(kStormConns);
    size_t drained = 0;
    std::vector<uint8_t> frame;
    while (drained < frames_.size()) {
      for (size_t c = 0; c < kStormConns; ++c) {
        for (size_t k = 0; k < kStormBurst && !pending[c].empty(); ++k) {
          if (!channels[c].TryPush(frames_[pending[c].front()])) break;
          pending[c].pop_front();
        }
        while (channels[c].TryPop(&frame)) {
          fp[c].MixBytes(frame);
          ++drained;
        }
      }
    }
    *seconds = Seconds(NowNs() - t0);
    Fnv combined;
    for (const Fnv& f : fp) combined.Mix(f.hash);
    return combined.hash;
  }

  /// Each sender stages up to kStormBurst frames while the kernel takes
  /// them (closed loop: a sender with unflushed bytes waits).
  Status SendRound(std::vector<std::deque<size_t>>* pending, Tracer* tracer,
                   Acc* acc) {
    SpanScope span(tracer, Layer::kNetSend);
    const int64_t t0 = NowNs();
    for (size_t c = 0; c < kStormConns; ++c) {
      auto& q = (*pending)[c];
      for (size_t k = 0; k < kStormBurst && !q.empty(); ++k) {
        INCSHRINK_RETURN_NOT_OK(senders_[c].Flush().status());
        if (!senders_[c].fully_flushed()) {
          acc->Sum("send.would_block", 1);
          break;
        }
        INCSHRINK_RETURN_NOT_OK(senders_[c].QueueFrame(frames_[q.front()]));
        q.pop_front();
        acc->Sum("send.frames", 1);
      }
      INCSHRINK_RETURN_NOT_OK(senders_[c].Flush().status());
    }
    acc->Sum("send.ns", static_cast<double>(NowNs() - t0));
    return Status::OK();
  }

  template <typename OnFrame>
  size_t DrainRound(Tracer* tracer, Acc* acc, OnFrame&& on_frame) {
    SpanScope span(tracer, Layer::kNetChannel);
    size_t n = 0;
    for (size_t c = 0; c < kStormConns; ++c) {
      while (channels_[c]->TryPop(&scratch_)) {
        on_frame(c, scratch_);
        ++n;
      }
    }
    acc->Sum("drained", static_cast<double>(n));
    return n;
  }

  std::vector<std::vector<uint8_t>> frames_;
  std::vector<size_t> conn_;
  uint64_t reference_ = 0;
  double inproc_s_ = 0;
  std::vector<std::unique_ptr<incshrink::UploadChannel>> channels_;
  std::unique_ptr<incshrink::SocketListener> listener_;
  std::vector<incshrink::SocketSender> senders_;
  std::vector<uint8_t> scratch_;
};

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

constexpr int kSetupRepeats = 3;
constexpr int kMinEpisodes = 2;
constexpr size_t kMaxDumpedSpans = 1u << 18;

std::unique_ptr<Workload> MakeWorkload(const Args& args) {
  if (args.workload == "q1-timer-reads") return std::make_unique<Q1TimerReads>();
  if (args.workload == "q2-ant-sharded") return std::make_unique<Q2AntSharded>();
  if (args.workload == "fleet-zipf") return std::make_unique<FleetZipf>();
  if (args.workload == "ingest-storm") return std::make_unique<IngestStorm>();
  return nullptr;
}

/// Closed-loop episodes until `seconds` have passed (at least kMinEpisodes).
/// Every episode must reproduce `*fingerprint` (set by the first one run).
Status RunEpisodes(Workload* w, double seconds, Tracer* tracer, Acc* acc,
                   Checks* checks, uint64_t* fingerprint, bool* have_fp) {
  const int64_t end = NowNs() + static_cast<int64_t>(seconds * 1e9);
  for (int n = 0; n < kMinEpisodes || NowNs() < end; ++n) {
    const double ops0 = acc->Get("ops");
    const double loop0 = acc->Get("loop_s");
    INCSHRINK_ASSIGN_OR_RETURN(const uint64_t fp,
                               w->Episode(tracer, acc, checks));
    acc->Add("ops_per_s",
             Ratio(acc->Get("ops") - ops0, acc->Get("loop_s") - loop0));
    CloseLatencies(acc, false);
    if (!*have_fp) {
      *fingerprint = fp;
      *have_fp = true;
    }
    checks->Check(tracer == nullptr ? "episodes_repeat_fingerprint"
                                    : "traced_fingerprint_equals_untraced",
                  fp == *fingerprint);
  }
  CloseLatencies(acc, true);
  return Status::OK();
}

void SelfFractions(const Tracer& tracer, double traced_wall_s, Metrics* out) {
  double covered = 0;
  for (size_t l = 1; l < static_cast<size_t>(Layer::kCount); ++l) {
    const double s = Seconds(tracer.self_ns(static_cast<Layer>(l)));
    covered += s;
    (*out)[std::string(LayerName(static_cast<Layer>(l))) + ".self_frac"] = {
        Ratio(s, traced_wall_s), "ratio"};
  }
  // Everything not inside a layer span is the benchmark's own loop.
  (*out)["bench.self_frac"] = {Ratio(traced_wall_s - covered, traced_wall_s),
                               "ratio"};
}

void PrintJson(const std::string& workload, const Args& args,
               const Checks& checks, uint64_t fingerprint,
               const Metrics& metrics) {
  std::printf("{\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
              "\"fingerprint\": \"%016llx\", \"correct\": %s, "
              "\"attempted\": %llu, \"failed\": %llu, \"checks\": {",
              workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.trace, static_cast<unsigned long long>(fingerprint),
              checks.all_ok() ? "true" : "false",
              static_cast<unsigned long long>(checks.attempted),
              static_cast<unsigned long long>(checks.failed));
  bool first = true;
  for (const auto& [name, ok] : checks.results) {
    std::printf("%s\"%s\": %s", first ? "" : ", ", name.c_str(),
                ok ? "true" : "false");
    first = false;
  }
  std::printf("}, \"metrics\": {");
  first = true;
  for (const auto& [name, m] : metrics) {
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), v, m.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
}

int Run(const Args& args) {
  std::unique_ptr<Workload> w;
  std::vector<double> setup_s;
  for (int i = 0; i < kSetupRepeats; ++i) {
    w.reset();  // the previous instance's sockets and threads go first
    std::unique_ptr<Workload> fresh = MakeWorkload(args);
    const int64_t t0 = NowNs();
    // Set-up ends with one untimed warm-up episode, checked like any other.
    Acc warm;
    Checks warm_checks;
    Status st = fresh->Setup(args);
    if (st.ok()) st = fresh->Episode(nullptr, &warm, &warm_checks).status();
    if (st.ok() && !warm_checks.all_ok()) st = Status::Internal("checks");
    if (!st.ok()) {
      std::fprintf(stderr, "setup failed: %s\n", st.ToString().c_str());
      return 1;
    }
    setup_s.push_back(Seconds(NowNs() - t0));
    w = std::move(fresh);
  }
  w->fault = args.fault;

  Checks checks;
  Acc plain;
  Acc traced;
  Tracer tracer(args.trace ? kMaxDumpedSpans : 0);
  uint64_t fingerprint = 0;
  bool have_fp = false;
  const double open_share = w->open_loop_share();
  const double closed_s = args.seconds * (1 - open_share);
  Status st;

  // Untraced closed loop (the end-to-end numbers; half the closed-loop time
  // when the run is traced).
  const ProcUsage u0 = ProcUsage::Now();
  const int64_t plain0 = NowNs();
  st = RunEpisodes(w.get(), args.trace ? closed_s / 2 : closed_s, nullptr,
                   &plain, &checks, &fingerprint, &have_fp);
  const double plain_wall = Seconds(NowNs() - plain0);
  const ProcUsage used = ProcUsage::Now().Since(u0);
  // Peak RSS over set-up and the untraced closed loop; the open loop's and
  // the tracer's own buffers come later.
  const double peak_rss_mb = PeakRssMb();

  if (st.ok() && args.trace == 0) {
    if (open_share > 0) {
      st = w->OpenLoop(args.seconds * open_share, nullptr, &plain, &checks);
    }
    // One traced episode after the timed phase: the traced and untraced
    // paths must agree.
    if (st.ok()) {
      Acc scratch;
      st = RunEpisodes(w.get(), 0, &tracer, &scratch, &checks, &fingerprint,
                       &have_fp);
    }
  }
  double traced_wall = 0;
  if (st.ok() && args.trace == 1) {
    const int64_t t0 = NowNs();
    st = RunEpisodes(w.get(), closed_s / 2, &tracer, &traced, &checks,
                     &fingerprint, &have_fp);
    if (st.ok() && open_share > 0) {
      st = w->OpenLoop(args.seconds * open_share, &tracer, &traced, &checks);
    }
    traced_wall = Seconds(NowNs() - t0);
  }
  if (!st.ok()) {
    std::fprintf(stderr, "run failed: %s\n", st.ToString().c_str());
    checks.Check("run_completed", false);
  }

  Metrics m;
  const double ops = plain.Get("ops");
  if (args.trace == 0) {
    w->Report(plain, &m);
    m["ops_per_s"] = {RunThroughput(plain.S("ops_per_s")), "1/s"};
    const std::string op = open_share > 0 ? "frame" : "op";
    const double scale = open_share > 0 ? 1e-3 : 1.0;
    m["op_p50_ms"] = {RunLatency(plain.S(op + ".p50")) * scale, "ms"};
    m["setup_s"] = {Median(setup_s), "s"};
    m["peak_rss_mb"] = {peak_rss_mb, "MB"};
    m["fail_frac"] = {Ratio(static_cast<double>(checks.failed),
                            static_cast<double>(checks.attempted)),
                      "ratio"};
  } else {
    w->ReportLayers(traced, &m);
    SelfFractions(tracer, traced_wall, &m);
    const double plain_per_op = Ratio(plain.Get("loop_s"), ops);
    const double traced_per_op =
        Ratio(traced.Get("loop_s"), traced.Get("ops"));
    m["trace.overhead_frac"] = {Ratio(traced_per_op, plain_per_op) - 1,
                                "ratio"};
    m["proc.cpu_per_wall"] = {Ratio(used.user_s + used.sys_s, plain_wall),
                              "ratio"};
    m["proc.sys_frac"] = {Ratio(used.sys_s, used.user_s + used.sys_s),
                          "ratio"};
    m["proc.vcsw_per_step"] = {Ratio(used.vcsw, ops), "1/op"};
    if (!args.spans_path.empty() && !tracer.Dump(args.spans_path)) {
      std::fprintf(stderr, "cannot write spans to %s\n",
                   args.spans_path.c_str());
      checks.Check("span_dump_written", false);
    }
    std::fprintf(stderr, "trace: %llu spans dropped from the dump\n",
                 static_cast<unsigned long long>(tracer.dropped()));
  }
  PrintJson(args.workload, args, checks, fingerprint, m);
  return checks.all_ok() ? 0 : 1;
}

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: incbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--spans PATH] [--shard-threads N] "
               "[--inject-fault none|snapshot-byte|drop-frame]\n",
               why);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const std::string v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
    } else if (flag == "--trace") {
      a.trace = static_cast<int>(std::strtol(v.c_str(), &end, 10));
    } else if (flag == "--spans") {
      a.spans_path = v;
    } else if (flag == "--shard-threads") {
      a.shard_threads = static_cast<int>(std::strtol(v.c_str(), &end, 10));
    } else if (flag == "--inject-fault") {
      a.fault = v;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && (end == v.c_str() || *end != '\0')) {
      Usage(("bad number for " + flag).c_str());
    }
  }
  if (MakeWorkload(a) == nullptr) Usage("unknown --workload");
  if (a.trace != 0 && a.trace != 1) Usage("--trace must be 0 or 1");
  if (!(a.seconds > 0)) Usage("--seconds must be positive");
  if (a.shard_threads < 1) Usage("--shard-threads must be >= 1");
  if (a.fault != "none" && a.fault != "snapshot-byte" &&
      a.fault != "drop-frame") {
    Usage("unknown --inject-fault");
  }
  return a;
}

}  // namespace
}  // namespace incbench

int main(int argc, char** argv) {
  return incbench::Run(incbench::ParseArgs(argc, argv));
}
