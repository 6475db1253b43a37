// Shared machinery of the serving benchmark: argument parsing, per-second
// windows, the in-memory span log, open-loop pacing, host-noise readings,
// the bench-owned reference compile, router set-up, the control-plane
// cycle, and the metric report. Everything here measures the library from
// outside, through its public headers.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <pthread.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/common/clock.h"
#include "src/common/stats.h"
#include "src/oven/model_plan.h"
#include "src/serving/shard_router.h"
#include "src/store/object_store.h"

namespace perfbench {

using pretzel::NowNs;
using pretzel::SampleStats;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string trace_dir = ".";
};

// Parses --workload W --seed N --seconds S --trace 0|1 [--trace-dir D].
// Returns false (after printing why) on a missing or malformed argument.
bool ParseArgs(int argc, char** argv, Args* args);

// Samples bucketed by one-second window of the timed phase. Figures are
// the median over windows of each window's statistic, so one window spoiled
// by a host stall moves them by one rank, not by its whole weight.
class Windows {
 public:
  Windows(int64_t start_ns, int seconds);
  void Add(int64_t at_ns, double value);
  // Median over windows holding at least `min_count` samples of the
  // window's pct-th percentile, each times scale[window] when `scale` is
  // given.
  double MedianOfPercentile(double pct, size_t min_count = 100,
                            const std::vector<double>* scale = nullptr) const;
  // Median over windows of the sum of the window's values.
  double MedianSum() const;
  // Median over non-empty windows of the mean of the window's values.
  double MedianOfMean() const;
  // Every sample, pooled.
  SampleStats Pooled() const;

 private:
  int64_t start_ns_;
  std::vector<SampleStats> windows_;
};

// One traced interval. Spans of one request share `request`; `parent` is
// the id of the span that caused this one (0 = root).
struct Span {
  const char* name = "";  // Static string.
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t request = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

// Single-writer, in-memory span log; written out when the run ends.
class SpanLog {
 public:
  // Ids this log hands out start at id_base + 1, so logs of different
  // threads never collide.
  SpanLog(uint64_t id_base, size_t reserve);
  uint64_t Add(const char* name, uint64_t parent, uint64_t request,
               int64_t start_ns, int64_t end_ns);
  const std::vector<Span>& spans() const { return spans_; }

 private:
  uint64_t next_id_;
  std::vector<Span> spans_;
};

// Writes every span as TSV (name, id, parent, request, start_us, end_us;
// times relative to origin_ns). Returns false when the file cannot be
// written.
bool WriteSpans(const std::string& path,
                const std::vector<const SpanLog*>& logs, int64_t origin_ns);

// Open-loop pacing to one request's own due time: sleeps only when more
// than 200us remain (waking 100us early), then spins. Returns NowNs() at
// release.
int64_t WaitUntil(int64_t due_ns);

// Host-noise and footprint readings.
struct CpuTicks {
  uint64_t steal = 0;
  bool ok = false;
};
CpuTicks ReadCpuTicks();
// Steal ticks over (wall x nproc) between two readings; -1 if unreadable.
double StealShare(const CpuTicks& from, const CpuTicks& to, double wall_s);

// Reads the steal ticks at start_ns and at every second boundary after it
// for `seconds` seconds, on a thread of its own, so each one-second window
// of the timed phases has its own steal share.
class StealSampler {
 public:
  StealSampler(int64_t start_ns, int seconds);
  ~StealSampler();
  StealSampler(const StealSampler&) = delete;
  StealSampler& operator=(const StealSampler&) = delete;
  // Waits for the last reading, then ends the thread.
  void Join();
  // Steal share from the start of window `from` to the start of window
  // `to`; -1 if unreadable. Call after Join().
  double Share(size_t from, size_t to) const;
  // CPU time of the sampling thread so far (it stays alive until Join()).
  double CpuS();

 private:
  std::vector<CpuTicks> ticks_;
  std::vector<int64_t> at_ns_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};
// Peak resident set of this process (MB).
double RssPeakMb();
unsigned Nproc();

// CPU time (s) of the whole process, and of one live thread. Thread CPU
// time does not include time the hypervisor stole from the vCPU.
double ProcessCpuS();
double ThreadCpuS(pthread_t thread);

// Keeps every idle CPU busy with a SCHED_IDLE spinner for its lifetime.
// On a virtual machine an idle vCPU halts, and waking it goes through the
// hypervisor: each cross-thread hand-off (generator -> FrontEnd IO ->
// executor -> IO) then costs a host scheduling delay that varies with
// other tenants' load and swamps the program's own latency. A SCHED_IDLE
// thread runs only when nothing else is runnable and is preempted at once
// by any thread that wakes, so the measured threads keep their CPUs and
// their priority. A spinner that cannot lower itself to SCHED_IDLE exits
// instead of spinning.
class KeepCpusAwake {
 public:
  KeepCpusAwake();
  ~KeepCpusAwake();
  KeepCpusAwake(const KeepCpusAwake&) = delete;
  KeepCpusAwake& operator=(const KeepCpusAwake&) = delete;
  // CPU time the spinners have used so far.
  double CpuS();

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> spinners_;
};

// The benchmark's own Flour -> Oven compile of a suite, on a store it owns:
// the ground truth every served score is checked against, and the
// flour/oven per-layer timings.
struct Reference {
  std::unique_ptr<pretzel::ObjectStore> store;
  std::vector<std::shared_ptr<pretzel::ModelPlan>> plans;
  SampleStats from_pipeline_ms;  // FlourContext::FromPipeline each.
  SampleStats plan_ms;           // Oven Plan() each.
  size_t parameter_bytes = 0;            // Sum of LogicalProgram bytes.
};
bool CompileReference(const std::vector<pretzel::PipelineSpec>& specs,
                      Reference* ref);

// Variant B of every pipeline: the last node (linear weights / final
// forest) taken from the next pipeline. A B-deploy changes exactly one
// node, so every other parameter interns against the resident blob.
std::vector<pretzel::PipelineSpec> VariantB(
    const std::vector<pretzel::PipelineSpec>& specs);

// The topology every workload runs: 2 shards x 1 executor.
pretzel::ShardRouterOptions RouterOptions(bool replication);

// Constructs a router and places every spec, 15 times; returns
// the last router and appends each repetition's process CPU seconds to
// `setup_s` (CPU time, so host steal does not inflate it).
std::unique_ptr<pretzel::ShardRouter> SetupRouter(
    const pretzel::ShardRouterOptions& options,
    const std::vector<pretzel::PipelineSpec>& specs,
    SampleStats* setup_s);

// Control-plane cycles: Deploy the other variant of one model, hold the
// canary for hold_ns, then Promote (Rollback on every 4th cycle), then
// MaintainReplication. Models are taken round-robin from `models`.
struct ControlStats {
  size_t cycles = 0;
  size_t promotes = 0;
  size_t rollbacks = 0;
  size_t killed_promotes = 0;  // Promote refused: the canary was killed.
  size_t deploy_failures = 0;
  std::vector<double> swap_ms;  // Deploy + Promote/Rollback, hold excluded.
  std::vector<int64_t> swap_start_ns;  // When each swap's Deploy began.
};
class ControlLoop {
 public:
  ControlLoop(pretzel::ShardRouter* router,
              const std::vector<pretzel::PipelineSpec>* specs_a,
              const std::vector<pretzel::PipelineSpec>* specs_b,
              std::vector<size_t> models, SpanLog* spans);
  // Runs cycles until `stop` is set or max_cycles (failed deploys
  // included) have run.
  void Run(const std::atomic<bool>& stop, int64_t hold_ns, size_t max_cycles);
  // Returns every plan to variant A with a single registration (rolls
  // back an open canary, then Deploy(A) + Promote wherever variant B is
  // active or replicas were materialized). Returns false on any failure.
  bool Settle();
  const ControlStats& stats() const { return stats_; }

 private:
  pretzel::ShardRouter* router_;
  const std::vector<pretzel::PipelineSpec>* specs_a_;
  const std::vector<pretzel::PipelineSpec>* specs_b_;
  std::vector<size_t> models_;
  SpanLog* spans_;
  std::vector<bool> active_b_;
  ControlStats stats_;
};

// Counters summed over every plan of a cross-shard snapshot.
struct RuntimeTotals {
  uint64_t enqueued = 0, rejected = 0, dispatches = 0, coalesced = 0;
  uint64_t errors = 0, shed = 0, expired = 0;
  uint64_t cache_lookups = 0, cache_hits = 0;
  uint64_t pool_hits = 0, pool_misses = 0;
  uint64_t successes = 0, breaker_rejected = 0;
};
RuntimeTotals Totals(const pretzel::ShardedMetrics& m);
RuntimeTotals operator-(const RuntimeTotals& a, const RuntimeTotals& b);

// Metrics in print order; the last stdout line is the result object.
class Report {
 public:
  void Add(const std::string& name, double value, const char* unit);
  // Prints one human-readable line per metric, then the JSON result line.
  void Print(bool correct, uint64_t attempted, uint64_t failed) const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
