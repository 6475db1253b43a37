// Model churn under load: the zero-downtime versioned lifecycle
// (Deploy -> canary -> Promote/Rollback -> epoch reclaim) exercised while
// the serving stack rides a flash crowd.
//
// Protocol: place the SA suite on a ShardRouter and replay the same
// open-loop flash-crowd schedule twice (deadlines propagated both times):
//
//   baseline: no lifecycle activity. Goodput is the control.
//   churn:    a control-plane thread continuously cycles models between
//             two variants (v-next swaps only the linear-weights node, so
//             every shared parameter interns against the resident blob),
//             holding each canary open under live traffic before
//             promoting it — with every fourth cycle aborted via
//             Rollback to keep the retire path hot.
//
// Every completion is checked against monolithic ground truth for BOTH
// variants: a score that matches neither is a torn read (a request that
// observed half a swap), and any NotFound/internal error is a routed
// request that caught a retired version. The paper-shaped claims: churn
// is invisible to the data plane (goodput within 10% of baseline on
// parallel hosts, zero torn scores, zero errors), a swap costs exactly
// the changed node's bytes (O(changed-params), not O(model)), retired
// versions leave the ObjectStore to the byte, and a canary that degrades
// (here: every canary-routed request blows its deadline inside the
// stack) is killed and rolled back by the health controller without
// operator action.
//
// Exit status: 1 when a deterministic check fails (exactly-once
// accounting, zero torn/errored completions, the byte-exact swap cost,
// settled-bytes reclamation, or the health-gated auto-rollback), so a
// smoke run under ctest gates them. The timing checks and the "lifecycle
// actually churned" check only print.
#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/clock.h"
#include "src/flour/flour.h"
#include "src/oven/model_plan.h"
#include "src/serving/shard_router.h"
#include "src/workload/load_gen.h"
#include "src/workload/sa_workload.h"

namespace pretzel {
namespace {

struct DriveResult {
  double wall_s = 0.0;
  size_t good = 0;     // Completed within SLO, score matched a variant.
  size_t late = 0;     // Completed and matched, SLO missed.
  size_t shed = 0;     // Refused with ResourceExhausted (admission shed).
  size_t expired = 0;  // Dropped inside the stack with DeadlineExceeded.
  size_t torn = 0;     // Completed with a score matching NEITHER variant.
  size_t errors = 0;   // Any other failure (routed to a retired version).
  double p99_us = 0.0;
  double goodput = 0.0;  // good / wall_s.
};

// Replays `schedule` open-loop against `router` (already placed and warm).
// Each completion's score must equal the model's variant-A or variant-B
// ground truth bit for bit; anything else books as `torn`. Latency is
// measured from the scheduled arrival (dispatcher lag counts against the
// server), identically in both configurations.
DriveResult Drive(ShardRouter& router, const std::vector<std::string>& names,
                  const std::vector<std::string>& inputs,
                  const std::vector<float>& expect_a,
                  const std::vector<float>& expect_b,
                  const std::vector<LoadEvent>& schedule, int64_t slo_ns) {
  DriveResult result;
  std::mutex mu;
  std::condition_variable cv;
  size_t completed = 0;
  SampleStats latency_us;

  // Chunked open-loop pacing (see bench_resilience): all arrivals due in
  // each 1ms window go out flat-out, then the dispatcher sleeps to the
  // window edge, so a burst can actually outrun service.
  constexpr int64_t kWindowNs = 1'000'000;
  const int64_t t0 = NowNs();
  size_t accepted = 0;
  for (const LoadEvent& ev : schedule) {
    const int64_t target =
        t0 + static_cast<int64_t>(ev.arrival_seconds * 1e9);
    const int64_t window_start = (target - t0) / kWindowNs * kWindowNs + t0;
    const int64_t now = NowNs();
    if (now < window_start) {
      SleepUs((window_start - now) / 1000);
    }
    const int64_t deadline = target + slo_ns;
    const size_t m = ev.model_index;
    Status st = router.PredictAsync(
        names[m], inputs[m],
        [&, m, target, deadline](Result<float> r) {
          const int64_t done_ns = NowNs();
          std::lock_guard<std::mutex> lock(mu);
          if (r.ok()) {
            if (*r != expect_a[m] && *r != expect_b[m]) {
              ++result.torn;  // Neither version scores this: a torn read.
            } else {
              latency_us.Add(static_cast<double>(done_ns - target) / 1e3);
              if (done_ns <= deadline) {
                ++result.good;
              } else {
                ++result.late;
              }
            }
          } else if (r.status().IsResourceExhausted()) {
            ++result.shed;
          } else if (r.status().IsDeadlineExceeded()) {
            ++result.expired;
          } else {
            ++result.errors;
          }
          ++completed;
          cv.notify_all();
        },
        deadline);
    if (st.ok()) {
      ++accepted;
    } else {
      std::lock_guard<std::mutex> lock(mu);
      if (st.IsResourceExhausted()) {
        ++result.shed;
      } else if (st.IsDeadlineExceeded()) {
        ++result.expired;
      } else {
        ++result.errors;
      }
    }
  }
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return completed == accepted; });
  }
  result.wall_s = static_cast<double>(NowNs() - t0) / 1e9;
  result.p99_us = latency_us.P99();
  result.goodput = static_cast<double>(result.good) / result.wall_s;
  return result;
}

void PrintDrive(const char* label, const DriveResult& r, size_t total) {
  std::printf(
      "  %-9s goodput %8.0f/s  good %6zu/%zu  late %5zu  shed %5zu  "
      "expired %5zu  torn %zu  err %zu  p99 %.0fus  wall %.2fs\n",
      label, r.goodput, r.good, total, r.late, r.shed, r.expired, r.torn,
      r.errors, r.p99_us, r.wall_s);
}

// What the lifecycle thread did while the churn drive ran.
struct ChurnStats {
  size_t cycles = 0;
  size_t promotes = 0;
  size_t rollbacks = 0;
  size_t killed_promotes = 0;  // Promote refused: health gate fired first.
  size_t deploy_failures = 0;
};

}  // namespace
}  // namespace pretzel

int main(int argc, char** argv) {
  using namespace pretzel;
  BenchFlags flags(argc, argv);
  PrintHeader("churn: zero-downtime model lifecycle under a flash crowd",
              "goodput and score integrity with continuous "
              "deploy/promote/rollback");

  SaWorkloadOptions wopts = DefaultSaOptions(flags);
  wopts.num_pipelines = static_cast<size_t>(flags.GetInt("pipelines", 12));
  const SaWorkload sa = SaWorkload::Generate(wopts);
  const size_t n = sa.pipelines().size();

  const size_t hw = std::max(1u, std::thread::hardware_concurrency());
  const size_t shards = static_cast<size_t>(
      flags.GetInt("shards", std::min<size_t>(4, std::max<size_t>(1, hw / 2))));
  ShardRouterOptions sopts;
  sopts.num_shards = shards;
  sopts.runtime.num_executors = 1;
  // The burst blows deadlines inside the stack by design; those book as
  // shard faults, and a tripped breaker would failover-migrate plans and
  // perturb the byte accounting this bench asserts. The breaker is not
  // the subject here: park it.
  sopts.breaker.failure_threshold = 1 << 30;
  sopts.rollout.canary_fraction_bp =
      static_cast<uint32_t>(flags.GetInt("canary_bp", 2500));

  std::vector<std::string> names;
  for (const auto& spec : sa.pipelines()) {
    names.push_back(spec.name);
  }

  // One fixed long document per model (cost must dwarf dispatch cost).
  const size_t input_reps =
      static_cast<size_t>(flags.GetInt("input_reps", 25));
  Rng rng(17);
  std::vector<std::string> inputs;
  for (size_t m = 0; m < n; ++m) {
    std::string doc;
    for (size_t rep = 0; rep < input_reps; ++rep) {
      if (!doc.empty()) {
        doc += ' ';
      }
      doc += sa.SampleInput(rng);
    }
    inputs.push_back(std::move(doc));
  }

  // Variant B of every model: same pipeline, linear weights rotated from
  // the next model. Exactly one node changes, so a B-deploy must intern
  // every shared parameter and a settled A<->B<->A churn is byte-neutral.
  std::vector<PipelineSpec> spec_b;
  for (size_t m = 0; m < n; ++m) {
    PipelineSpec b = sa.pipelines()[m];
    b.nodes[4].params = sa.pipelines()[(m + 1) % n].nodes[4].params;
    spec_b.push_back(std::move(b));
  }

  // Monolithic ground truth for both variants of every model.
  std::vector<float> expect_a(n), expect_b(n);
  {
    ObjectStore ref_store;
    RuntimeOptions ropts;
    ropts.num_executors = 1;
    Runtime reference(&ref_store, ropts);
    FlourContext flour(&ref_store);
    for (size_t m = 0; m < n; ++m) {
      auto ida = reference.Register(
          *Plan(*flour.FromPipeline(sa.pipelines()[m]), "ref_a"));
      auto idb =
          reference.Register(*Plan(*flour.FromPipeline(spec_b[m]), "ref_b"));
      if (!ida.ok() || !idb.ok()) {
        std::printf("  reference compile failed\n");
        return 1;
      }
      expect_a[m] = *reference.Predict(*ida, inputs[m]);
      expect_b[m] = *reference.Predict(*idb, inputs[m]);
    }
  }

  // Calibrate the true async service rate on a throwaway router (see
  // bench_resilience for why a sync estimate undershoots).
  double capacity_rps;
  double lat_us;
  {
    ShardRouter probe(sopts);
    for (const auto& spec : sa.pipelines()) {
      if (!probe.Place(spec).ok()) {
        std::printf("  calibration place failed\n");
        return 1;
      }
    }
    for (size_t m = 0; m < n; ++m) {
      (void)probe.Predict(names[m], inputs[m]);  // Warm.
    }
    const size_t kCal = static_cast<size_t>(flags.GetInt("cal_events", 1500));
    std::mutex mu;
    std::condition_variable cv;
    size_t done = 0;
    const int64_t c0 = NowNs();
    for (size_t i = 0; i < kCal; ++i) {
      const size_t m = i % n;
      Status st = probe.PredictAsync(names[m], inputs[m], [&](Result<float>) {
        std::lock_guard<std::mutex> lock(mu);
        ++done;
        cv.notify_all();
      });
      if (!st.ok()) {
        std::lock_guard<std::mutex> lock(mu);
        ++done;
      }
    }
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return done >= kCal; });
    }
    const double cal_s = static_cast<double>(NowNs() - c0) / 1e9;
    capacity_rps = static_cast<double>(kCal) / cal_s;
    lat_us = 1e6 * static_cast<double>(shards) / capacity_rps;
  }

  const double util =
      static_cast<double>(flags.GetInt("util_pct", 45)) / 100.0;
  const double base_rps = util * capacity_rps;
  const double burst_x = static_cast<double>(flags.GetInt("burst_x", 4));
  const int64_t slo_us =
      flags.GetInt("slo_us", 0) > 0
          ? flags.GetInt("slo_us", 0)
          : static_cast<int64_t>(std::max(2000.0, 10.0 * lat_us));
  const size_t requests = static_cast<size_t>(flags.GetInt("requests", 20000));

  FlashCrowdOptions fopts;
  fopts.num_models = n;
  fopts.base_rps = base_rps;
  fopts.duration_s =
      static_cast<double>(requests) / (base_rps * (2.0 + burst_x) / 3.0);
  fopts.burst_start_s = fopts.duration_s / 3.0;
  fopts.burst_duration_s = fopts.duration_s / 3.0;
  fopts.burst_x = burst_x;
  fopts.crowd_fraction = 0.7;
  fopts.crowd_model = 0;
  fopts.seed = static_cast<uint64_t>(flags.GetInt("seed", 11));
  const auto schedule = GenerateFlashCrowdSchedule(fopts);
  const int64_t slo_ns = slo_us * 1000;

  std::printf(
      "  %zu pipelines on %zu shards; calibrated %.0fus/pred (~%.0f rps "
      "capacity)\n  base %.0f rps, burst %.0fx middle third, SLO %lldus, "
      "%zu arrivals, canary %ubp\n\n",
      n, shards, lat_us, capacity_rps, base_rps, burst_x,
      static_cast<long long>(slo_us), schedule.size(),
      sopts.rollout.canary_fraction_bp);

  // ---- Baseline drive: same stack, no lifecycle activity.
  ShardRouter base_router(sopts);
  for (const auto& spec : sa.pipelines()) {
    if (!base_router.Place(spec).ok()) {
      std::printf("  place failed\n");
      return 1;
    }
  }
  for (size_t m = 0; m < n; ++m) {
    auto warm = base_router.Predict(names[m], inputs[m]);
    if (!warm.ok() || *warm != expect_a[m]) {
      std::printf("  warmup mismatch on %s\n", names[m].c_str());
      return 1;
    }
  }
  const DriveResult base = Drive(base_router, names, inputs, expect_a,
                                 expect_a, schedule, slo_ns);
  PrintDrive("baseline", base, schedule.size());

  // ---- Swap-cost demo on the now-idle baseline router: one B-deploy
  // whose donor weights live on a DIFFERENT shard's segment, so the store
  // must grow by exactly the changed node — every shared parameter is an
  // intern hit against the resident v1 blob. Rollback retires the canary
  // and the bytes leave to the byte.
  const size_t bytes0 = base_router.GetMetrics().store_bytes;
  const size_t home = base_router.ShardFor(names[0]);
  const PipelineSpec* donor = nullptr;
  for (size_t i = 1; i < n && donor == nullptr; ++i) {
    if (base_router.ShardFor(names[i]) != home) {
      donor = &sa.pipelines()[i];
    }
  }
  PipelineSpec demo = sa.pipelines()[0];
  size_t expected_delta = 0;
  if (donor != nullptr) {
    demo.nodes[4].params = donor->nodes[4].params;
    expected_delta = donor->nodes[4].params->HeapBytes();
  } else {
    // Single shard: every donor is already resident in the one segment,
    // so the swap is a pure intern hit (delta 0) — still O(changed).
    demo.nodes[4].params = sa.pipelines()[1].nodes[4].params;
  }
  bool swap_cost_ok = base_router.Deploy(demo).ok();
  const size_t bytes_deployed = base_router.GetMetrics().store_bytes;
  swap_cost_ok = swap_cost_ok && bytes_deployed == bytes0 + expected_delta;
  swap_cost_ok = swap_cost_ok && base_router.Rollback(names[0]).ok();
  const size_t bytes_rolled_back = base_router.GetMetrics().store_bytes;
  swap_cost_ok = swap_cost_ok && bytes_rolled_back == bytes0;
  std::printf(
      "  swap cost: %zu -> %zu bytes on deploy (changed node %zu), "
      "-> %zu on rollback\n",
      bytes0, bytes_deployed, expected_delta, bytes_rolled_back);

  // ---- Churn drive: identical schedule, plus a lifecycle thread cycling
  // models A->B->A with a rollback every fourth cycle.
  ShardRouter churn_router(sopts);
  for (const auto& spec : sa.pipelines()) {
    if (!churn_router.Place(spec).ok()) {
      std::printf("  place failed\n");
      return 1;
    }
  }
  for (size_t m = 0; m < n; ++m) {
    (void)churn_router.Predict(names[m], inputs[m]);  // Warm.
  }
  const size_t churn_bytes0 = churn_router.GetMetrics().store_bytes;

  std::atomic<bool> churn_stop{false};
  ChurnStats churn_stats;
  std::vector<bool> active_is_b(n, false);
  std::thread churner([&] {
    size_t cycle = 0;
    while (!churn_stop.load(std::memory_order_acquire)) {
      const size_t m = cycle % n;
      const PipelineSpec& next =
          active_is_b[m] ? sa.pipelines()[m] : spec_b[m];
      auto v = churn_router.Deploy(next);
      if (!v.ok()) {
        ++churn_stats.deploy_failures;
        ++cycle;
        continue;
      }
      // Hold the canary open long enough to take real traffic (capped so
      // smoke-scale drives still complete several cycles).
      const int64_t hold_until = NowNs() + 30'000'000;
      while (NowNs() < hold_until &&
             !churn_stop.load(std::memory_order_acquire)) {
        auto info = churn_router.VersionInfo(names[m]);
        if (!info.ok() || !info->rollout_in_flight ||
            info->canary_routed >= 16 || info->canary_fraction_bp == 0) {
          break;
        }
        SleepUs(2000);
      }
      ++churn_stats.cycles;
      if (cycle % 4 == 3) {
        if (churn_router.Rollback(names[m]).ok()) {
          ++churn_stats.rollbacks;
        }
      } else {
        Status p = churn_router.Promote(names[m]);
        if (p.ok()) {
          ++churn_stats.promotes;
          active_is_b[m] = !active_is_b[m];
        } else {
          // The health controller (or a racing auto-rollback) emptied the
          // rollout first; the canary is already gone.
          ++churn_stats.killed_promotes;
        }
      }
      ++cycle;
    }
  });
  const DriveResult churned = Drive(churn_router, names, inputs, expect_a,
                                    expect_b, schedule, slo_ns);
  churn_stop.store(true, std::memory_order_release);
  churner.join();
  PrintDrive("churn", churned, schedule.size());
  const ShardedMetrics cm = churn_router.GetMetrics();
  std::printf(
      "  lifecycle: %zu cycles, %zu promotes, %zu rollbacks "
      "(%llu auto), %zu kill-raced promotes, %zu deploy failures\n",
      churn_stats.cycles, churn_stats.promotes, churn_stats.rollbacks,
      static_cast<unsigned long long>(cm.auto_rollbacks),
      churn_stats.killed_promotes, churn_stats.deploy_failures);

  // Settle every model back to variant A (a same-spec deploy is a pure
  // intern-hit no-op) and verify the whole churn was byte-neutral: every
  // retired version's blobs left the store.
  for (size_t m = 0; m < n; ++m) {
    auto info = churn_router.VersionInfo(names[m]);
    if (info.ok() && info->rollout_in_flight) {
      (void)churn_router.Rollback(names[m]);
    }
    if (active_is_b[m]) {
      if (churn_router.Deploy(sa.pipelines()[m]).ok()) {
        (void)churn_router.Promote(names[m]);
      }
    }
  }
  const size_t churn_bytes_settled = churn_router.GetMetrics().store_bytes;
  std::printf("  store: %zu bytes pre-churn, %zu settled\n\n", churn_bytes0,
              churn_bytes_settled);

  // ---- Health-gated auto-rollback, deterministically provoked: a fresh
  // one-shard, one-executor router, a 50% canary deploy, then async
  // floods whose deadlines admit at submit but expire in the queue — the
  // same in-stack expiry the burst produces, concentrated. Every
  // canary-routed expiry books a version fault, the failure EWMA crosses
  // the gate, and the data path's kill switch zeroes the split; the
  // maintenance backstop then completes the teardown. No operator
  // Rollback() anywhere.
  bool ar_fired = false;
  bool ar_clean = false;
  uint64_t ar_count = 0;
  size_t ar_attempts = 0;
  {
    ShardRouterOptions aopts = sopts;
    aopts.num_shards = 1;
    aopts.rollout.canary_fraction_bp = 5000;
    aopts.rollout.min_canary_requests = 8;
    ShardRouter ar(aopts);
    if (!ar.Place(sa.pipelines()[0]).ok()) {
      std::printf("  auto-rollback place failed\n");
      return 1;
    }
    // Distinct inputs so no layer can answer from a cache ahead of the
    // deadline.
    std::vector<std::string> probes;
    for (size_t i = 0; i < 64; ++i) {
      probes.push_back(inputs[0] + " v" + std::to_string(i));
    }
    for (int i = 0; i < 3; ++i) {
      (void)ar.Predict(names[0], probes[static_cast<size_t>(i)]);  // Warm.
    }
    const int64_t m0 = NowNs();
    for (int i = 0; i < 5; ++i) {
      (void)ar.Predict(names[0], probes[static_cast<size_t>(i) % 64]);
    }
    const int64_t per_ns = std::max<int64_t>((NowNs() - m0) / 5, 1'000);
    // A flood of 64 on one executor builds ~64*per of queue delay; a
    // deadline of ~4*per admits everything at submit and expires most of
    // the flood at dispatch or between batch quanta.
    const int64_t budget_ns = std::min<int64_t>(
        std::max<int64_t>(4 * per_ns, 20'000), 10'000'000);
    const size_t ar_bytes0 = ar.GetMetrics().store_bytes;
    if (!ar.Deploy(spec_b[0]).ok()) {
      std::printf("  auto-rollback deploy failed\n");
      return 1;
    }
    for (size_t round = 0; round < 50; ++round) {
      auto info = ar.VersionInfo(names[0]);
      if (!info.ok()) {
        break;
      }
      if (!info->rollout_in_flight) {
        ar_fired = true;
        break;
      }
      if (info->canary_fraction_bp == 0) {
        // Kill switch fired on an executor thread; the periodic
        // maintenance scan is the backstop that finishes the teardown.
        (void)ar.MaintainReplication();
        continue;
      }
      std::mutex mu;
      std::condition_variable cv;
      size_t done = 0;
      size_t submitted = 0;
      for (size_t i = 0; i < 64; ++i) {
        Status st = ar.PredictAsync(
            names[0], probes[i],
            [&](Result<float>) {
              std::lock_guard<std::mutex> lock(mu);
              ++done;
              cv.notify_all();
            },
            NowNs() + budget_ns);
        if (st.ok()) {
          ++submitted;
        }
        ++ar_attempts;
      }
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return done == submitted; });
    }
    ar_count = ar.GetMetrics().auto_rollbacks;
    auto info = ar.VersionInfo(names[0]);
    auto sane = ar.Predict(names[0], inputs[0]);
    ar_clean = info.ok() && !info->rollout_in_flight &&
               info->active_version == 1 && sane.ok() &&
               *sane == expect_a[0] &&
               ar.GetMetrics().store_bytes == ar_bytes0;
    std::printf(
        "  auto-rollback: fired=%d after %zu degraded requests "
        "(auto_rollbacks=%llu, stable intact=%d)\n\n",
        ar_fired ? 1 : 0, ar_attempts,
        static_cast<unsigned long long>(ar_count), ar_clean ? 1 : 0);
  }

  const double ratio = churned.goodput / std::max(base.goodput, 1e-9);
  std::printf("  goodput ratio (churn / baseline): %.2fx\n\n", ratio);

  BenchJson json("churn");
  json.Add("pipelines", static_cast<double>(n));
  json.Add("shards", static_cast<double>(shards));
  json.Add("calibrated_latency_us", lat_us);
  json.Add("arrivals", static_cast<double>(schedule.size()));
  json.Add("slo_us", static_cast<double>(slo_us));
  json.Add("goodput_baseline", base.goodput);
  json.Add("goodput_churn", churned.goodput);
  json.Add("goodput_ratio", ratio);
  json.Add("p99_us_baseline", base.p99_us);
  json.Add("p99_us_churn", churned.p99_us);
  json.Add("torn_total", static_cast<double>(base.torn + churned.torn));
  json.Add("errors_total", static_cast<double>(base.errors + churned.errors));
  json.Add("churn_cycles", static_cast<double>(churn_stats.cycles));
  json.Add("churn_promotes", static_cast<double>(churn_stats.promotes));
  json.Add("churn_rollbacks", static_cast<double>(churn_stats.rollbacks));
  json.Add("drive_auto_rollbacks", static_cast<double>(cm.auto_rollbacks));
  json.Add("swap_delta_bytes", static_cast<double>(expected_delta));
  json.Add("store_bytes_prechurn", static_cast<double>(churn_bytes0));
  json.Add("store_bytes_settled", static_cast<double>(churn_bytes_settled));
  json.Add("auto_rollback_attempts", static_cast<double>(ar_attempts));

  bool gate = ShapeCheck(
      base.good + base.late + base.shed + base.expired + base.torn +
                  base.errors == schedule.size() &&
          churned.good + churned.late + churned.shed + churned.expired +
                  churned.torn + churned.errors == schedule.size(),
      "every arrival resolves exactly once in both runs (no drops, no "
      "double completions)");
  gate &= ShapeCheck(
      base.torn + churned.torn == 0 && base.errors + churned.errors == 0,
      "zero requests observe a torn or retired version: every completion "
      "matches one variant's monolithic ground truth bit for bit");
  const bool churn_ok = ShapeCheck(
      churn_stats.cycles >= 1 &&
          churn_stats.promotes + churn_stats.rollbacks +
                  churn_stats.killed_promotes >= 1,
      "the lifecycle actually churned under load (>= 1 full "
      "deploy->promote/rollback cycle during the drive)");
  gate &= ShapeCheck(
      swap_cost_ok,
      "a version swap costs exactly the changed node's bytes "
      "(O(changed-params) interning) and a rollback returns the store to "
      "the byte");
  gate &= ShapeCheck(
      churn_bytes_settled == churn_bytes0,
      "after the churn settles, retired versions left the ObjectStore: "
      "resident bytes equal the pre-churn baseline exactly");
  gate &= ShapeCheck(
      ar_fired && ar_count >= 1 && ar_clean,
      "a degraded canary is killed by the health controller alone: "
      "auto-rollback fires, the stable version keeps serving, and the "
      "canary's bytes are reclaimed");
  bool pass = gate && churn_ok;

  const bool parallel_host = hw >= 2;
  const bool ratio_check = flags.GetBool("ratio_check", true);
  if (!ratio_check) {
    std::printf(
        "  NOTE: --ratio_check=0 (smoke scale); the goodput-ratio claim "
        "is only\n  observable at full scale, so it is reported but not "
        "checked.\n");
  } else if (parallel_host) {
    pass &= ShapeCheck(
        ratio >= 0.9,
        "continuous register/swap/retire stays invisible to the data "
        "plane: churn goodput within 10% of the no-churn baseline");
  } else {
    std::printf(
        "  NOTE: single-core host; compile bursts timeslice the one core "
        "with the\n  executors, so the 10%% claim is unobservable. Check "
        "degrades to a\n  no-collapse guard.\n");
    pass &= ShapeCheck(ratio >= 0.5,
                       "[1-core fallback] churn never collapses goodput "
                       "below 0.5x baseline");
  }
  json.Add("parallel_host", parallel_host ? "true" : "false");
  json.Add("ratio_checked", ratio_check ? "true" : "false");
  json.Add("shape_check", pass ? "PASS" : "FAIL");
  json.Write();
  return gate ? 0 : 1;
}
