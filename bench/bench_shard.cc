// Sharded serving layer: aggregate throughput and tail latency of the
// ShardRouter stack as the shard count grows, under Zipf-skewed popularity
// (the regime where one hot plan's shard bounds the win).
//
// Protocol: for shards in {1, 2, 4}, build a ShardRouter (one executor per
// shard by default — shards are the scaling axis, not executors), place the
// SA suite by jump hash, and drive it through a ShardedBackend with P
// producer threads replaying a Zipf model sequence (load_gen) closed-loop
// with a bounded window each. Throughput is completed predictions/second
// (best of N reps); latency is submit->completion, sampled, p99 reported as
// the median across reps. Every shard's Runtime, ObjectStore segment, and
// SubPlanCaches are private, so added shards contend on nothing — on
// parallel hardware the aggregate must scale, Zipf hot-shard skew and all.
//
// Also reported (deterministic): the segment-vs-global intern trade-off at
// the max shard count — per-segment residency duplicates shared
// dictionaries per shard, router-global intern keeps one copy.
//
// Replication phase: at the max shard count, the same Zipf stream is driven
// with hot-plan replication off vs on (equal cores). The maintenance scan
// must find the head of the distribution from routed-traffic shares,
// replicate it, and power-of-two-choices routing over replica queue-delay
// EWMAs must flatten the hot-shard imbalance without costing throughput; a
// uniform stream is the control (no replication, no overhead).
//
// Exit status: 1 when a deterministic check fails (the intern residency
// win, the detector replicating the Zipf head, uniform traffic staying
// unreplicated), so a smoke run under ctest gates them. The timing checks
// (scaling, p99 ratio, p2c imbalance, throughput ratios) only print.
#include <algorithm>
#include <atomic>
#include <thread>

#include "bench/bench_util.h"
#include "src/common/clock.h"
#include "src/serving/shard_router.h"
#include "src/serving/sharded_backend.h"
#include "src/workload/load_gen.h"

namespace pretzel {
namespace {

struct SweepResult {
  double events_per_sec = 0.0;
  double p99_us = 0.0;
};

// One closed-loop drive: `producers` threads submit `sequence` round-robin
// slices through `backend`, each with at most `window` outstanding.
SweepResult Drive(ShardedBackend& backend,
                  const std::vector<std::string>& names,
                  const std::vector<std::string>& inputs,
                  const std::vector<size_t>& sequence, size_t producers,
                  size_t window) {
  constexpr size_t kLatencySampleEvery = 16;
  std::atomic<size_t> completed{0};
  std::atomic<size_t> failed{0};
  std::mutex stats_mu;
  SampleStats latency_ns;
  const size_t per_producer = sequence.size() / producers;
  const size_t total = per_producer * producers;
  const int64_t t0 = NowNs();
  std::vector<std::thread> threads;
  threads.reserve(producers);
  for (size_t p = 0; p < producers; ++p) {
    threads.emplace_back([&, p] {
      SampleStats local_lat;
      std::atomic<size_t> outstanding{0};
      for (size_t i = 0; i < per_producer; ++i) {
        while (outstanding.load(std::memory_order_relaxed) >= window) {
          std::this_thread::yield();
        }
        const size_t m = sequence[p * per_producer + i];
        outstanding.fetch_add(1, std::memory_order_relaxed);
        const bool sample = i % kLatencySampleEvery == 0;
        const int64_t submit = sample ? NowNs() : 0;
        backend.PredictAsync(
            names[m], inputs[m],
            [&completed, &failed, &outstanding, &stats_mu, &local_lat, sample,
             submit](Result<float> r) {
              if (!r.ok()) {
                failed.fetch_add(1, std::memory_order_relaxed);
              }
              if (sample) {
                // The producer owns local_lat until its drain completes, and
                // completions for one producer's requests can race each
                // other; the stats mutex covers both.
                std::lock_guard<std::mutex> lock(stats_mu);
                local_lat.Add(static_cast<double>(NowNs() - submit));
              }
              // release/acquire pairs with the drain loops below: the
              // counters are also the lifetime handshake for this stack
              // frame, so the last callback must happen-before its reuse.
              outstanding.fetch_sub(1, std::memory_order_release);
              completed.fetch_add(1, std::memory_order_release);
            });
      }
      // Drain this producer's window so `outstanding` and `local_lat`
      // outlive every callback referencing them.
      while (outstanding.load(std::memory_order_acquire) > 0) {
        std::this_thread::yield();
      }
      std::lock_guard<std::mutex> lock(stats_mu);
      for (const double s : local_lat.samples()) {
        latency_ns.Add(s);
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  while (completed.load(std::memory_order_acquire) < total) {
    std::this_thread::yield();
  }
  const double seconds = static_cast<double>(NowNs() - t0) / 1e9;
  if (failed.load() > 0) {
    std::printf("  WARNING: %zu failed predictions\n", failed.load());
  }
  SweepResult result;
  // Shed (failed) submissions are not served work; counting them would
  // inflate exactly the overloaded cells the sweep compares.
  result.events_per_sec =
      static_cast<double>(total - failed.load()) / seconds;
  result.p99_us = latency_ns.P99() / 1e3;
  return result;
}

std::unique_ptr<ShardRouter> BuildRouter(
    const SaWorkload& sa, size_t num_shards, size_t shard_executors,
    size_t max_batch, ShardRouterOptions::InternScope scope,
    const ReplicationOptions& replication = {}) {
  ShardRouterOptions opts;
  opts.num_shards = num_shards;
  opts.runtime.num_executors = shard_executors;
  opts.runtime.default_max_batch = max_batch;
  opts.intern_scope = scope;
  opts.replication = replication;
  auto router = std::make_unique<ShardRouter>(opts);
  for (const auto& spec : sa.pipelines()) {
    auto placement = router->Place(spec);
    if (!placement.ok()) {
      std::printf("  FATAL: place %s: %s\n", spec.name.c_str(),
                  placement.status().ToString().c_str());
      std::exit(1);
    }
  }
  return router;
}

}  // namespace
}  // namespace pretzel

int main(int argc, char** argv) {
  using namespace pretzel;
  BenchFlags flags(argc, argv);
  PrintHeader("Shard scaling",
              "Consistent-hash router over N Runtime shards, Zipf-skewed "
              "closed-loop drive");

  SaWorkloadOptions sa_opts;
  sa_opts.num_pipelines = static_cast<size_t>(flags.GetInt("pipelines", 16));
  sa_opts.char_dict_entries =
      static_cast<size_t>(flags.GetInt("char_entries", 600));
  sa_opts.word_dict_entries =
      static_cast<size_t>(flags.GetInt("word_entries", 200));
  sa_opts.vocabulary_size = static_cast<size_t>(flags.GetInt("vocab", 400));
  auto sa = SaWorkload::Generate(sa_opts);

  const size_t shard_executors =
      static_cast<size_t>(flags.GetInt("shard_executors", 1));
  // Deep windows keep every shard's executor busy between wakeups (a
  // parked-executor convoy on timesliced hosts would measure the scheduler,
  // not the sharding).
  const size_t events = static_cast<size_t>(flags.GetInt("events", 24000));
  const size_t window = static_cast<size_t>(flags.GetInt("window", 512));
  const size_t producers = static_cast<size_t>(flags.GetInt("producers", 4));
  const size_t max_batch = static_cast<size_t>(flags.GetInt("max_batch", 64));
  const int reps = static_cast<int>(flags.GetInt("reps", 3));
  const double zipf = static_cast<double>(flags.GetInt("zipf_x100", 120)) / 100.0;

  Rng rng(7001);
  std::vector<std::string> names;
  std::vector<std::string> inputs;
  for (const auto& spec : sa.pipelines()) {
    names.push_back(spec.name);
    inputs.push_back(sa.SampleInput(rng));
  }
  // The Zipf model stream (rank 0 hottest), shared across shard counts so
  // every cell serves the identical request mix.
  const std::vector<size_t> sequence =
      ZipfModelSequence(names.size(), events, zipf, 7002);

  BenchJson json("shard");
  json.Add("pipelines", static_cast<double>(names.size()));
  json.Add("events", static_cast<double>(events));
  json.Add("producers", static_cast<double>(producers));
  json.Add("window", static_cast<double>(window));
  json.Add("shard_executors", static_cast<double>(shard_executors));
  json.Add("zipf_alpha", zipf);

  std::printf(
      "\n  %zu pipelines, Zipf(%.2f), %zu events, %zu producers, window %zu,\n"
      "  %zu executor(s)/shard, best of %d\n\n",
      names.size(), zipf, events, producers, window, shard_executors, reps);
  std::printf("  %-8s %16s %14s %12s\n", "shards", "aggregate ev/s", "p99 lat",
              "vs 1 shard");

  // All cells are built up front and the reps interleave shard counts, so a
  // drifting host-load phase hits every cell instead of skewing one ratio
  // (best-of-N throughput; median-of-N p99).
  const size_t shard_counts[] = {1, 2, 4};
  std::unique_ptr<ShardRouter> routers[3];
  std::unique_ptr<ShardedBackend> backends[3];
  for (int cell = 0; cell < 3; ++cell) {
    routers[cell] =
        BuildRouter(sa, shard_counts[cell], shard_executors, max_batch,
                    ShardRouterOptions::InternScope::kPerSegment);
    backends[cell] = std::make_unique<ShardedBackend>(routers[cell].get());
    // Warm: bind every plan and touch every shard's caches.
    for (const auto& name : names) {
      (void)backends[cell]->Predict(name, inputs[0]);
    }
  }
  double eps[3] = {0, 0, 0};
  double p99[3] = {0, 0, 0};
  SampleStats p99s[3];
  for (int rep = 0; rep < reps; ++rep) {
    for (int cell = 0; cell < 3; ++cell) {
      SweepResult r =
          Drive(*backends[cell], names, inputs, sequence, producers, window);
      eps[cell] = std::max(eps[cell], r.events_per_sec);
      p99s[cell].Add(r.p99_us);
    }
  }
  for (int cell = 0; cell < 3; ++cell) {
    const size_t shards = shard_counts[cell];
    p99[cell] = p99s[cell].Median();
    std::printf("  %-8zu %16.0f %14s %11.2fx\n", shards, eps[cell],
                FormatDurationNs(p99[cell] * 1e3).c_str(),
                eps[cell] / eps[0]);
    // Appended step by step: GCC 12 draws a false -Wrestrict on the
    // equivalent operator+ chain.
    std::string prefix = "s";
    prefix += std::to_string(shards);
    prefix += "_";
    json.Add(prefix + "eps", eps[cell]);
    json.Add(prefix + "p99_us", p99[cell]);
    // Cross-shard snapshot sanity: the merged fold must account for every
    // completed prediction (enqueued across all shards and reps + warm).
    const ShardedMetrics metrics = routers[cell]->GetMetrics();
    uint64_t enqueued = 0;
    for (const auto& pm : metrics.merged.plans) {
      enqueued += pm.enqueued_events + pm.inline_predictions;
    }
    json.Add(prefix + "merged_events", static_cast<double>(enqueued));
    json.Add(prefix + "dropped",
             static_cast<double>(backends[cell]->dropped()));
    // The hot-shard bound: under Zipf skew the hottest plan's shard carries
    // a disproportionate share of the queue delay, which is exactly what
    // caps the multi-shard win. Imbalance is max/mean of the per-shard
    // event-weighted queue-delay EWMAs (1.0 = balanced).
    if (shards > 1) {
      std::printf(
          "           load imbalance %.2fx (hot shard %zu: %.0f us mean "
          "queue-delay EWMA vs %.0f us shard mean)\n",
          metrics.queue_delay_imbalance, metrics.hottest_shard,
          metrics.max_shard_queue_delay_us, metrics.mean_shard_queue_delay_us);
    }
    json.Add(prefix + "queue_delay_imbalance", metrics.queue_delay_imbalance);
    json.Add(prefix + "hot_shard", static_cast<double>(metrics.hottest_shard));
    json.Add(prefix + "hot_shard_delay_us", metrics.max_shard_queue_delay_us);
  }

  // Deterministic residency comparison at max shards: per-segment intern
  // duplicates cross-shard-shared dictionaries; router-global keeps one.
  const size_t max_shards = shard_counts[2];
  auto segmented = BuildRouter(sa, max_shards, shard_executors, max_batch,
                               ShardRouterOptions::InternScope::kPerSegment);
  auto global = BuildRouter(sa, max_shards, shard_executors, max_batch,
                            ShardRouterOptions::InternScope::kGlobal);
  const size_t seg_bytes = segmented->GetMetrics().store_bytes;
  const size_t glo_bytes = global->GetMetrics().store_bytes;
  std::printf("\n  resident params at %zu shards: per-segment %.2f MB, "
              "router-global %.2f MB (%.2fx)\n",
              max_shards, seg_bytes / 1e6, glo_bytes / 1e6,
              static_cast<double>(seg_bytes) / static_cast<double>(glo_bytes));
  json.Add("per_segment_store_bytes", static_cast<double>(seg_bytes));
  json.Add("global_store_bytes", static_cast<double>(glo_bytes));

  std::printf("\n");
  const double speedup4 = eps[2] / eps[0];
  const double tail_ratio4 = p99[2] / std::max(p99[0], 1e-9);
  // Aggregate-throughput scaling needs hardware that can actually run the
  // extra shards' executors in parallel; on a 1-core host the shards
  // timeslice one core and the check degrades to a no-regression guard.
  const bool parallel_host = std::thread::hardware_concurrency() >= 2;
  bool pass;
  if (parallel_host) {
    pass = ShapeCheck(
        speedup4 >= 1.3,
        "4 independent shards sustain >= 1.3x single-shard aggregate "
        "throughput under Zipf skew (nothing shared cross-shard)");
  } else {
    std::printf(
        "  NOTE: single-core host; extra shards cannot run in parallel, so "
        "the 1.3x\n  aggregate claim is unobservable here. Timeslicing 3 "
        "extra executor threads\n  on one core costs a real 20-30%% "
        "(context switches + thinner per-executor\n  batching), so the "
        "check degrades to a no-collapse guard: it catches\n  accidental "
        "cross-shard coupling (which would convoy), not scaling.\n");
    pass = ShapeCheck(
        speedup4 >= 0.65,
        "[1-core fallback] 4-shard aggregate stays within 35% of "
        "single-shard (routing + timeslicing overhead only, no cross-shard "
        "contention)");
  }
  pass &= ShapeCheck(
      tail_ratio4 <= 2.0,
      "4-shard p99 latency is no worse than 2x single-shard (per-shard "
      "queues split the backlog, not multiply it)");
  // Deterministic checks: they set the exit code as well.
  bool gate = true;
  const auto gated = [&gate](bool ok) {
    gate &= ok;
    return ok;
  };
  pass &= gated(ShapeCheck(
      glo_bytes < seg_bytes,
      "router-global intern is a strict residency win over per-segment "
      "(shared dictionaries land on > 1 shard)"));
  // ---- Hot-plan replication phase ---------------------------------------
  // Same Zipf stream, fixed max_shards, equal cores either way: replication
  // OFF pins the head of the distribution to one shard (jump hash), ON lets
  // the maintenance scan detect it from routed-traffic shares, replicate it,
  // and route it power-of-two-choices over the replicas' live queue-delay
  // EWMAs. The claim under test is the balanced-allocations one: p2c over
  // even two replicas flattens the hot-shard queue-delay imbalance. A
  // uniform (alpha = 0) stream is the control — no plan crosses the hotness
  // threshold, so replication must stay quiet and cost nothing.
  ReplicationOptions rep_opts;
  rep_opts.enabled = true;  // Scans run inline, between reps.
  const std::vector<double> shares = ZipfExpectedShares(names.size(), zipf);
  std::printf("\n  hot-plan replication at %zu shards: Zipf(%.2f) head share "
              "%.3f, hot threshold %.3f\n",
              max_shards, zipf, shares[0], kHotShareThreshold);
  auto rep_off = BuildRouter(sa, max_shards, shard_executors, max_batch,
                             ShardRouterOptions::InternScope::kPerSegment);
  auto rep_on = BuildRouter(sa, max_shards, shard_executors, max_batch,
                            ShardRouterOptions::InternScope::kPerSegment,
                            rep_opts);
  auto backend_off = std::make_unique<ShardedBackend>(rep_off.get());
  auto backend_on = std::make_unique<ShardedBackend>(rep_on.get());
  for (const auto& name : names) {
    (void)backend_off->Predict(name, inputs[0]);
    (void)backend_on->Predict(name, inputs[0]);
  }
  // Warm drive: enough traffic for one full detection interval, then scan.
  // Replicas must exist BEFORE the measured reps — the phase measures p2c
  // routing over a replicated head, not detection latency.
  const size_t warm_events = std::min<size_t>(sequence.size(), 4096);
  const std::vector<size_t> warm_seq(sequence.begin(),
                                     sequence.begin() + warm_events);
  (void)Drive(*backend_off, names, inputs, warm_seq, producers, window);
  (void)Drive(*backend_on, names, inputs, warm_seq, producers, window);
  const MaintenanceReport scan = rep_on->MaintainReplication();
  const size_t head_replicas = rep_on->Replicas(names[0]).size();
  std::printf("  detector: scanned %zu plans over %zu routed requests; "
              "+%zu replicas (head -> %zu shard(s))\n",
              scan.plans_scanned, static_cast<size_t>(scan.interval_requests),
              scan.replications, head_replicas);
  double rep_eps[2] = {0, 0};  // [0] = off, [1] = on.
  for (int rep = 0; rep < reps; ++rep) {
    rep_eps[0] = std::max(
        rep_eps[0],
        Drive(*backend_off, names, inputs, sequence, producers, window)
            .events_per_sec);
    rep_eps[1] = std::max(
        rep_eps[1],
        Drive(*backend_on, names, inputs, sequence, producers, window)
            .events_per_sec);
    // Keep the replica set tracking the (stationary) shares between reps,
    // as a serving process's control loop would.
    (void)rep_on->MaintainReplication();
  }
  const ShardedMetrics rm_off = rep_off->GetMetrics();
  const ShardedMetrics rm_on = rep_on->GetMetrics();
  std::printf("  %-8s %16s %14s\n", "repl", "aggregate ev/s", "imbalance");
  std::printf("  %-8s %16.0f %13.2fx\n", "off", rep_eps[0],
              rm_off.queue_delay_imbalance);
  std::printf("  %-8s %16.0f %13.2fx   (%zu plan(s) replicated, %zu "
              "activations)\n",
              "on", rep_eps[1], rm_on.queue_delay_imbalance,
              rm_on.replicated_plans,
              static_cast<size_t>(rm_on.replications));
  json.Add("rep_off_eps", rep_eps[0]);
  json.Add("rep_on_eps", rep_eps[1]);
  json.Add("rep_off_imbalance", rm_off.queue_delay_imbalance);
  json.Add("rep_on_imbalance", rm_on.queue_delay_imbalance);
  json.Add("rep_head_replicas", static_cast<double>(head_replicas));
  json.Add("rep_replicated_plans", static_cast<double>(rm_on.replicated_plans));
  json.Add("rep_replications", static_cast<double>(rm_on.replications));
  // How p2c actually split the head's traffic: the minority replica's share
  // of the head's routed requests (0.5 = perfectly split, 0 = collapse).
  double head_min_share = 1.0;
  for (const auto& pr : rm_on.plan_replicas) {
    if (pr.name != names[0]) {
      continue;
    }
    uint64_t total = 0;
    uint64_t min_routed = ~uint64_t{0};
    size_t active = 0;
    for (const auto& r : pr.replicas) {
      total += r.routed;
      if (r.active) {
        ++active;
        min_routed = std::min(min_routed, r.routed);
      }
    }
    if (active >= 2 && total > 0) {
      head_min_share =
          static_cast<double>(min_routed) / static_cast<double>(total);
    }
    std::printf("  head split: minority replica carried %.0f%% of the "
                "head's %zu routed requests\n",
                head_min_share * 100.0, static_cast<size_t>(total));
  }
  json.Add("rep_head_min_share", head_min_share);

  if (shares[0] >= kHotShareThreshold) {
    pass &= gated(ShapeCheck(
        head_replicas >= 2,
        "hotness detector replicates the Zipf head (rank-0 expected share "
        "clears the hot threshold)"));
  } else {
    std::printf("  NOTE: rank-0 expected share %.3f is below the hot "
                "threshold at this\n  pipeline count / alpha; detector check "
                "skipped.\n", shares[0]);
  }
  if (parallel_host) {
    pass &= ShapeCheck(
        rm_on.queue_delay_imbalance < rm_off.queue_delay_imbalance,
        "p2c over replicas strictly reduces hot-shard queue-delay imbalance "
        "under Zipf skew");
    pass &= ShapeCheck(
        rep_eps[1] >= 0.90 * rep_eps[0],
        "replication does not regress aggregate throughput under skew "
        "(replicas split the head's queue)");
  } else {
    // One core: every executor timeslices the same CPU, so queue delay
    // measures the scheduler's round-robin, not routing quality — the
    // off-cell's own imbalance swings ~30% run to run. What IS observable
    // here is the routing decision itself: p2c over live queue delays must
    // actually use both replicas (a collapse onto one — e.g. comparing a
    // stale signal — would show the minority share near zero).
    std::printf("  NOTE: single-core host; queue-delay imbalance is "
                "scheduler-dominated here,\n  so the strict imbalance "
                "reduction is unobservable. The fallback checks the\n  "
                "routing decision instead: p2c must split the head across "
                "its replicas.\n");
    pass &= ShapeCheck(
        head_replicas >= 2 && head_min_share >= 0.05,
        "[1-core fallback] p2c splits the head across its replicas "
        "(minority replica carries >= 5% — no collapse onto one copy; on "
        "one core the steady-state EWMAs legitimately favor the less-loaded "
        "replica shard)");
    pass &= ShapeCheck(
        rep_eps[1] >= 0.65 * rep_eps[0],
        "[1-core fallback] replicated routing sustains >= 0.65x of "
        "single-placement throughput (p2c + extra registration overhead "
        "only)");
  }

  // Uniform control: same machinery, no skew. The detector must stay quiet
  // (every share sits below the hot threshold) and the p2c/maintenance
  // plumbing must be free when cold.
  const std::vector<size_t> uniform_seq =
      ZipfModelSequence(names.size(), events, 0.0, 7003);
  auto uni_off = BuildRouter(sa, max_shards, shard_executors, max_batch,
                             ShardRouterOptions::InternScope::kPerSegment);
  auto uni_on = BuildRouter(sa, max_shards, shard_executors, max_batch,
                            ShardRouterOptions::InternScope::kPerSegment,
                            rep_opts);
  auto ubackend_off = std::make_unique<ShardedBackend>(uni_off.get());
  auto ubackend_on = std::make_unique<ShardedBackend>(uni_on.get());
  for (const auto& name : names) {
    (void)ubackend_off->Predict(name, inputs[0]);
    (void)ubackend_on->Predict(name, inputs[0]);
  }
  double uni_eps[2] = {0, 0};
  for (int rep = 0; rep < reps; ++rep) {
    uni_eps[0] = std::max(
        uni_eps[0],
        Drive(*ubackend_off, names, inputs, uniform_seq, producers, window)
            .events_per_sec);
    uni_eps[1] = std::max(
        uni_eps[1],
        Drive(*ubackend_on, names, inputs, uniform_seq, producers, window)
            .events_per_sec);
    (void)uni_on->MaintainReplication();
  }
  const ShardedMetrics um_on = uni_on->GetMetrics();
  const double uniform_ratio = uni_eps[1] / std::max(uni_eps[0], 1e-9);
  std::printf("  uniform control: off %.0f ev/s, on %.0f ev/s (%.2fx), "
              "%zu replication(s)\n",
              uni_eps[0], uni_eps[1], uniform_ratio,
              static_cast<size_t>(um_on.replications));
  json.Add("rep_uniform_off_eps", uni_eps[0]);
  json.Add("rep_uniform_on_eps", uni_eps[1]);
  json.Add("rep_uniform_replications",
           static_cast<double>(um_on.replications));
  if (1.0 / static_cast<double>(names.size()) < kHotShareThreshold) {
    pass &= gated(ShapeCheck(
        um_on.replications == 0,
        "uniform traffic stays unreplicated (no plan crosses the hotness "
        "threshold)"));
  }
  pass &= ShapeCheck(
      uniform_ratio >= 0.85,
      "replication machinery is free when cold: uniform-workload throughput "
      "within 15% of replication-off");

  json.Add("speedup_4_shards", speedup4);
  json.Add("p99_ratio_4_shards", tail_ratio4);
  json.Add("parallel_host", parallel_host ? "true" : "false");
  json.Add("shape_check", pass ? "PASS" : "FAIL");
  json.Write();
  return gate ? 0 : 1;
}
