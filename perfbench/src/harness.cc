#include "perfbench/src/harness.h"

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>

#include "src/flour/flour.h"

namespace perfbench {

using pretzel::PipelineSpec;
using pretzel::ShardRouter;
using pretzel::Status;

namespace {
constexpr size_t kShards = 2;
constexpr size_t kExecutorsPerShard = 1;
// Set-up repetitions per process; setup_s is their median.
constexpr int kSetupReps = 15;
}  // namespace

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", flag.c_str());
      return false;
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (flag == "--seconds") {
      const long s = std::strtol(value.c_str(), &end, 10);
      have_seconds = end != value.c_str() && *end == '\0' && s >= 1 && s <= 600;
      args->seconds = static_cast<int>(s);
    } else if (flag == "--trace") {
      have_trace = value == "0" || value == "1";
      args->trace = value == "1";
    } else if (flag == "--trace-dir") {
      args->trace_dir = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    std::fprintf(stderr,
                 "usage: perfbench --workload W --seed N --seconds S "
                 "--trace 0|1 [--trace-dir D]\n");
    return false;
  }
  return true;
}

Windows::Windows(int64_t start_ns, int seconds)
    : start_ns_(start_ns), windows_(static_cast<size_t>(seconds)) {}

void Windows::Add(int64_t at_ns, double value) {
  if (at_ns < start_ns_) {
    return;
  }
  const size_t w = static_cast<size_t>((at_ns - start_ns_) / 1'000'000'000);
  if (w < windows_.size()) {
    windows_[w].Add(value);
  }
}

double Windows::MedianOfPercentile(double pct, size_t min_count,
                                   const std::vector<double>* scale) const {
  SampleStats per_window;
  for (size_t w = 0; w < windows_.size(); ++w) {
    if (windows_[w].count() >= min_count) {
      per_window.Add(windows_[w].Percentile(pct) *
                     (scale != nullptr ? (*scale)[w] : 1.0));
    }
  }
  return per_window.Median();
}

double Windows::MedianSum() const {
  SampleStats sums;
  for (const SampleStats& w : windows_) {
    sums.Add(w.Mean() * static_cast<double>(w.count()));
  }
  return sums.Median();
}

double Windows::MedianOfMean() const {
  SampleStats means;
  for (const SampleStats& w : windows_) {
    if (!w.empty()) {
      means.Add(w.Mean());
    }
  }
  return means.Median();
}

SampleStats Windows::Pooled() const {
  SampleStats all;
  for (const SampleStats& w : windows_) {
    for (double v : w.samples()) {
      all.Add(v);
    }
  }
  return all;
}

SpanLog::SpanLog(uint64_t id_base, size_t reserve) : next_id_(id_base) {
  spans_.reserve(reserve);
}

uint64_t SpanLog::Add(const char* name, uint64_t parent, uint64_t request,
                      int64_t start_ns, int64_t end_ns) {
  spans_.push_back(Span{name, ++next_id_, parent, request, start_ns, end_ns});
  return next_id_;
}

bool WriteSpans(const std::string& path,
                const std::vector<const SpanLog*>& logs, int64_t origin_ns) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f, "name\tid\tparent\trequest\tstart_us\tend_us\n");
  for (const SpanLog* log : logs) {
    for (const Span& s : log->spans()) {
      std::fprintf(f, "%s\t%" PRIu64 "\t%" PRIu64 "\t%" PRIu64 "\t%.3f\t%.3f\n",
                   s.name, s.id, s.parent, s.request,
                   static_cast<double>(s.start_ns - origin_ns) / 1e3,
                   static_cast<double>(s.end_ns - origin_ns) / 1e3);
    }
  }
  return std::fclose(f) == 0;
}

int64_t WaitUntil(int64_t due_ns) {
  int64_t now = NowNs();
  if (due_ns - now > 200'000) {
    std::this_thread::sleep_for(
        std::chrono::nanoseconds(due_ns - now - 100'000));
    now = NowNs();
  }
  while (now < due_ns) {
    now = NowNs();
  }
  return now;
}

CpuTicks ReadCpuTicks() {
  CpuTicks ticks;
  std::ifstream in("/proc/stat");
  std::string label;
  uint64_t v[8] = {};
  if (in >> label && label == "cpu") {
    for (uint64_t& x : v) {
      in >> x;
    }
    ticks.steal = v[7];
    ticks.ok = static_cast<bool>(in);
  }
  return ticks;
}

double StealShare(const CpuTicks& from, const CpuTicks& to, double wall_s) {
  if (!from.ok || !to.ok || wall_s <= 0.0) {
    return -1.0;
  }
  const double hz = static_cast<double>(sysconf(_SC_CLK_TCK));
  return static_cast<double>(to.steal - from.steal) /
         (wall_s * hz * static_cast<double>(Nproc()));
}

StealSampler::StealSampler(int64_t start_ns, int seconds)
    : ticks_(static_cast<size_t>(seconds) + 1),
      at_ns_(static_cast<size_t>(seconds) + 1) {
  thread_ = std::thread([this, start_ns] {
    for (size_t k = 0; k < ticks_.size(); ++k) {
      const int64_t due = start_ns + static_cast<int64_t>(k) * 1'000'000'000;
      const int64_t now = NowNs();
      if (due > now) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
      }
      at_ns_[k] = NowNs();
      ticks_[k] = ReadCpuTicks();
    }
    while (!stop_.load(std::memory_order_acquire)) {
      pretzel::SleepUs(1000);  // Stay alive for the last CPU sample.
    }
  });
}

StealSampler::~StealSampler() { Join(); }

void StealSampler::Join() {
  stop_.store(true, std::memory_order_release);
  if (thread_.joinable()) {
    thread_.join();
  }
}

double StealSampler::Share(size_t from, size_t to) const {
  if (to >= ticks_.size() || from >= to) {
    return -1.0;
  }
  return StealShare(ticks_[from], ticks_[to],
                    static_cast<double>(at_ns_[to] - at_ns_[from]) / 1e9);
}

double StealSampler::CpuS() {
  return thread_.joinable() ? ThreadCpuS(thread_.native_handle()) : 0.0;
}

double RssPeakMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KB -> MB.
}

unsigned Nproc() { return std::max(1u, std::thread::hardware_concurrency()); }

double ProcessCpuS() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

double ThreadCpuS(pthread_t thread) {
  clockid_t clock;
  timespec ts{};
  if (pthread_getcpuclockid(thread, &clock) != 0 ||
      clock_gettime(clock, &ts) != 0) {
    return 0.0;
  }
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

KeepCpusAwake::KeepCpusAwake() {
  for (unsigned c = 0; c < Nproc(); ++c) {
    spinners_.emplace_back([this] {
      sched_param param{};
      if (pthread_setschedparam(pthread_self(), SCHED_IDLE, &param) != 0) {
        return;
      }
      while (!stop_.load(std::memory_order_relaxed)) {
#if defined(__x86_64__) || defined(__i386__)
        __builtin_ia32_pause();
#endif
      }
    });
  }
}

double KeepCpusAwake::CpuS() {
  double total = 0.0;
  for (std::thread& t : spinners_) {
    total += ThreadCpuS(t.native_handle());
  }
  return total;
}

KeepCpusAwake::~KeepCpusAwake() {
  stop_.store(true, std::memory_order_relaxed);
  for (std::thread& t : spinners_) {
    t.join();
  }
}

bool CompileReference(const std::vector<PipelineSpec>& specs, Reference* ref) {
  ref->store = std::make_unique<pretzel::ObjectStore>();
  pretzel::FlourContext flour(ref->store.get());
  for (const PipelineSpec& spec : specs) {
    const int64_t t0 = NowNs();
    std::unique_ptr<pretzel::LogicalProgram> program = flour.FromPipeline(spec);
    const int64_t t1 = NowNs();
    if (program == nullptr) {
      std::fprintf(stderr, "reference FromPipeline failed: %s\n",
                   spec.name.c_str());
      return false;
    }
    auto plan = pretzel::Plan(*program, spec.name);
    const int64_t t2 = NowNs();
    if (!plan.ok()) {
      std::fprintf(stderr, "reference Plan failed: %s\n", spec.name.c_str());
      return false;
    }
    ref->from_pipeline_ms.Add(static_cast<double>(t1 - t0) / 1e6);
    ref->plan_ms.Add(static_cast<double>(t2 - t1) / 1e6);
    ref->parameter_bytes += program->ParameterBytes();
    ref->plans.push_back(*plan);
  }
  return true;
}

std::vector<PipelineSpec> VariantB(const std::vector<PipelineSpec>& specs) {
  std::vector<PipelineSpec> out;
  for (size_t m = 0; m < specs.size(); ++m) {
    PipelineSpec b = specs[m];
    b.nodes.back().params = specs[(m + 1) % specs.size()].nodes.back().params;
    out.push_back(std::move(b));
  }
  return out;
}

pretzel::ShardRouterOptions RouterOptions(bool replication) {
  pretzel::ShardRouterOptions opts;
  opts.num_shards = kShards;
  opts.runtime.num_executors = kExecutorsPerShard;
  opts.replication.enabled = replication;
  // Same canary share as bench_churn, so a held canary takes real traffic.
  opts.rollout.canary_fraction_bp = 2500;
  return opts;
}

std::unique_ptr<ShardRouter> SetupRouter(
    const pretzel::ShardRouterOptions& options,
    const std::vector<PipelineSpec>& specs, SampleStats* setup_s) {
  std::unique_ptr<ShardRouter> router;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    router.reset();  // The previous repetition's threads and bytes go first.
    const double cpu0 = ProcessCpuS();
    router = std::make_unique<ShardRouter>(options);
    for (const PipelineSpec& spec : specs) {
      if (!router->Place(spec).ok()) {
        std::fprintf(stderr, "Place failed: %s\n", spec.name.c_str());
        return nullptr;
      }
    }
    setup_s->Add(ProcessCpuS() - cpu0);
  }
  return router;
}

ControlLoop::ControlLoop(ShardRouter* router,
                         const std::vector<PipelineSpec>* specs_a,
                         const std::vector<PipelineSpec>* specs_b,
                         std::vector<size_t> models, SpanLog* spans)
    : router_(router),
      specs_a_(specs_a),
      specs_b_(specs_b),
      models_(std::move(models)),
      spans_(spans),
      active_b_(specs_a->size(), false) {}

void ControlLoop::Run(const std::atomic<bool>& stop, int64_t hold_ns,
                      size_t max_cycles) {
  size_t turn = 0;
  while (!stop.load(std::memory_order_acquire) &&
         stats_.cycles + stats_.deploy_failures < max_cycles) {
    const size_t m = models_[turn++ % models_.size()];
    const std::string& name = (*specs_a_)[m].name;
    const PipelineSpec& next = active_b_[m] ? (*specs_a_)[m] : (*specs_b_)[m];
    const int64_t d0 = NowNs();
    auto version = router_->Deploy(next);
    const int64_t d1 = NowNs();
    spans_->Add("serving.Deploy", 0, 0, d0, d1);
    if (!version.ok()) {
      ++stats_.deploy_failures;
      continue;
    }
    if (hold_ns > 0) {
      const int64_t until = d1 + hold_ns;
      while (NowNs() < until && !stop.load(std::memory_order_acquire)) {
        pretzel::SleepUs(1000);
      }
    }
    const bool rollback = stats_.cycles % 4 == 3;
    const int64_t c0 = NowNs();
    Status st = rollback ? router_->Rollback(name) : router_->Promote(name);
    const int64_t c1 = NowNs();
    spans_->Add(rollback ? "serving.Rollback" : "serving.Promote", 0, 0, c0, c1);
    ++stats_.cycles;
    if (rollback) {
      stats_.rollbacks += st.ok() ? 1 : 0;
    } else if (st.ok()) {
      ++stats_.promotes;
      active_b_[m] = !active_b_[m];
    } else {
      // The health controller killed the canary first; it is already gone.
      ++stats_.killed_promotes;
    }
    stats_.swap_ms.push_back(static_cast<double>((d1 - d0) + (c1 - c0)) / 1e6);
    stats_.swap_start_ns.push_back(d0);
    const int64_t r0 = NowNs();
    (void)router_->MaintainReplication();
    spans_->Add("serving.MaintainReplication", 0, 0, r0, NowNs());
  }
}

bool ControlLoop::Settle() {
  const pretzel::ShardedMetrics metrics = router_->GetMetrics();
  std::vector<bool> replicated(specs_a_->size(), false);
  for (const auto& plan : metrics.plan_replicas) {
    if (plan.replicas.size() > 1) {
      for (size_t m = 0; m < specs_a_->size(); ++m) {
        if ((*specs_a_)[m].name == plan.name) {
          replicated[m] = true;
        }
      }
    }
  }
  bool ok = true;
  for (size_t m = 0; m < specs_a_->size(); ++m) {
    const std::string& name = (*specs_a_)[m].name;
    auto info = router_->VersionInfo(name);
    if (!info.ok()) {
      return false;
    }
    if (info->rollout_in_flight) {
      ok &= router_->Rollback(name).ok();
    }
    if (active_b_[m] || replicated[m]) {
      ok &= router_->Deploy((*specs_a_)[m]).ok();
      ok &= router_->Promote(name).ok();
      active_b_[m] = false;
    }
  }
  return ok;
}

RuntimeTotals Totals(const pretzel::ShardedMetrics& m) {
  RuntimeTotals t;
  for (const auto& p : m.merged.plans) {
    t.enqueued += p.enqueued_events;
    t.rejected += p.rejected_events;
    t.dispatches += p.dispatches;
    t.coalesced += p.coalesced_singles;
    t.errors += p.errors;
    t.shed += p.shed_deadline;
    t.expired += p.expired_admission + p.expired_dequeue + p.expired_quantum;
  }
  t.cache_lookups = m.merged.subplan_cache.lookups;
  t.cache_hits = m.merged.subplan_cache.hits;
  t.pool_hits = m.merged.vector_pool.hits;
  t.pool_misses = m.merged.vector_pool.misses;
  for (const auto& h : m.shard_health) {
    t.successes += h.successes;
    t.breaker_rejected += h.rejected;
  }
  return t;
}

RuntimeTotals operator-(const RuntimeTotals& a, const RuntimeTotals& b) {
  RuntimeTotals d;
  d.enqueued = a.enqueued - b.enqueued;
  d.rejected = a.rejected - b.rejected;
  d.dispatches = a.dispatches - b.dispatches;
  d.coalesced = a.coalesced - b.coalesced;
  d.errors = a.errors - b.errors;
  d.shed = a.shed - b.shed;
  d.expired = a.expired - b.expired;
  d.cache_lookups = a.cache_lookups - b.cache_lookups;
  d.cache_hits = a.cache_hits - b.cache_hits;
  d.pool_hits = a.pool_hits - b.pool_hits;
  d.pool_misses = a.pool_misses - b.pool_misses;
  d.successes = a.successes - b.successes;
  d.breaker_rejected = a.breaker_rejected - b.breaker_rejected;
  return d;
}

void Report::Add(const std::string& name, double value, const char* unit) {
  entries_.push_back(Entry{name, value, unit});
}

void Report::Print(bool correct, uint64_t attempted, uint64_t failed) const {
  for (const Entry& e : entries_) {
    std::printf("  %-34s %16.6f %s\n", e.name.c_str(), e.value, e.unit.c_str());
  }
  std::ostringstream json;
  json << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
  for (size_t i = 0; i < entries_.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(entries_[i].value) ? entries_[i].value : 0.0);
    json << (i ? ", " : "") << "\"" << entries_[i].name << "\": {\"value\": "
         << value << ", \"unit\": \"" << entries_[i].unit << "\"}";
  }
  json << "}}";
  std::printf("%s\n", json.str().c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
