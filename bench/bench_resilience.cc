// Resilience under overload: goodput and tail latency of the sharded
// serving stack through a flash crowd, with and without SLO-aware
// shedding (deadline propagation + deadline-aware admission).
//
// Protocol: place the SA suite on a ShardRouter (one executor per shard),
// calibrate the mean single-prediction latency, and replay an open-loop
// flash-crowd schedule (load_gen: Poisson base load at ~60% of calibrated
// capacity, a burst window at burst_x that aim-piles onto the hottest
// model). Every request has the same SLO; the two configurations differ
// only in whether the deadline is propagated into the stack:
//
//   no-shed: deadline_ns = 0. Every request is admitted, queues balloon
//            through the burst, and the backlog serves requests that have
//            long since missed their SLO — classic queue collapse.
//   shed:    deadline_ns = arrival + SLO. Doomed work is refused at
//            admission (ResourceExhausted + retry hint), dropped at
//            dispatch, and abandoned between batch quanta, so post-burst
//            capacity serves requests that can still make their SLO.
//
// Goodput is completions within SLO per second of wall time. The paper-
// shaped claim: under the same flash crowd, shedding sustains >= 1.2x the
// no-shed goodput on parallel hosts (no-collapse guard on 1-core hosts),
// and the work it does complete stays near the SLO instead of riding the
// backlog tail. Exits 1 when an arrival is not resolved exactly once in
// either run; the timing checks only print.
#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/clock.h"
#include "src/serving/shard_router.h"
#include "src/workload/load_gen.h"

namespace pretzel {
namespace {

struct DriveResult {
  double wall_s = 0.0;
  size_t good = 0;     // Completed within SLO.
  size_t late = 0;     // Completed, SLO missed.
  size_t shed = 0;     // Refused with ResourceExhausted (admission shed).
  size_t expired = 0;  // Dropped inside the stack with DeadlineExceeded.
  size_t errors = 0;
  double p99_us = 0.0;     // Over completed requests, arrival -> done.
  double goodput = 0.0;    // good / wall_s.
};

// Replays `schedule` open-loop against a fresh router built from `sopts`.
// Latency is measured from the scheduled arrival, so dispatcher lag counts
// against the server, identically in both configurations.
DriveResult Drive(const SaWorkload& sa, const ShardRouterOptions& sopts,
                  const std::vector<LoadEvent>& schedule,
                  const std::vector<std::string>& inputs, int64_t slo_ns,
                  bool shed_enabled) {
  ShardRouter router(sopts);
  std::vector<std::string> names;
  for (const auto& spec : sa.pipelines()) {
    auto placed = router.Place(spec);
    if (!placed.ok()) {
      std::printf("  place failed: %s\n", placed.status().ToString().c_str());
      std::exit(1);
    }
    names.push_back(spec.name);
  }

  DriveResult result;
  std::mutex mu;
  std::condition_variable cv;
  size_t completed = 0;
  SampleStats latency_us;

  // Chunked open-loop pacing: all arrivals due in each 1ms window are
  // submitted flat-out, then the dispatcher sleeps to the window edge.
  // Per-event sleeps would self-clock on coarse sleep granularity (the
  // dispatcher falls behind exactly as fast as the executors drain, so no
  // backlog ever forms and there is nothing to shed); 1ms windows keep the
  // schedule honest while letting a burst actually outrun service.
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
    Status st = router.PredictAsync(
        names[ev.model_index], inputs[ev.model_index],
        [&, target, deadline](Result<float> r) {
          const int64_t done_ns = NowNs();
          std::lock_guard<std::mutex> lock(mu);
          if (r.ok()) {
            latency_us.Add(static_cast<double>(done_ns - target) / 1e3);
            if (done_ns <= deadline) {
              ++result.good;
            } else {
              ++result.late;
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
        shed_enabled ? deadline : 0);
    if (st.ok()) {
      ++accepted;
    } else {
      // Synchronous refusals update the same counters the async completions
      // write under `mu`; take it here too or the writes race.
      std::lock_guard<std::mutex> lock(mu);
      if (st.IsResourceExhausted()) {
        ++result.shed;  // Admission shed: refused synchronously, with a hint.
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
      "  %-8s goodput %8.0f/s  good %6zu/%zu  late %6zu  shed %6zu  "
      "expired %6zu  err %zu  p99 %.0fus  wall %.2fs\n",
      label, r.goodput, r.good, total, r.late, r.shed, r.expired, r.errors,
      r.p99_us, r.wall_s);
}

}  // namespace
}  // namespace pretzel

int main(int argc, char** argv) {
  using namespace pretzel;
  BenchFlags flags(argc, argv);
  PrintHeader("resilience: SLO-aware shedding under a flash crowd",
              "goodput with deadlines propagated vs. accepted-then-late");

  SaWorkloadOptions wopts = DefaultSaOptions(flags);
  wopts.num_pipelines = static_cast<size_t>(flags.GetInt("pipelines", 24));
  const SaWorkload sa = SaWorkload::Generate(wopts);

  const size_t hw = std::max(1u, std::thread::hardware_concurrency());
  const size_t shards =
      static_cast<size_t>(flags.GetInt("shards", std::min<size_t>(4, std::max<size_t>(1, hw / 2))));
  ShardRouterOptions sopts;
  sopts.num_shards = shards;
  sopts.runtime.num_executors = 1;

  // One fixed input per model (inputs are not the variable under test).
  // Each is `input_reps` samples joined into one long document: per-request
  // cost must dwarf dispatch cost, or the open-loop driver can never push
  // the stack past capacity and the burst has nothing to shed.
  const size_t input_reps =
      static_cast<size_t>(flags.GetInt("input_reps", 25));
  Rng rng(17);
  std::vector<std::string> inputs;
  for (size_t m = 0; m < sa.pipelines().size(); ++m) {
    std::string doc;
    for (size_t rep = 0; rep < input_reps; ++rep) {
      if (!doc.empty()) {
        doc += ' ';
      }
      doc += sa.SampleInput(rng);
    }
    inputs.push_back(std::move(doc));
  }

  // Calibrate the true async service rate (coalescing, warm caches, and
  // executor parallelism included) on a throwaway router: a flat-out async
  // drive, completions per second. A sync-latency estimate undershoots
  // badly, and an undershot capacity means the "burst" never actually
  // exceeds service and there is nothing to shed.
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
    for (size_t m = 0; m < sa.pipelines().size(); ++m) {
      (void)probe.Predict(sa.pipelines()[m].name, inputs[m]);  // Warm.
    }
    const size_t kCal = static_cast<size_t>(flags.GetInt("cal_events", 1500));
    std::mutex mu;
    std::condition_variable cv;
    size_t done = 0;
    const int64_t c0 = NowNs();
    for (size_t i = 0; i < kCal; ++i) {
      const size_t m = i % sa.pipelines().size();
      Status st = probe.PredictAsync(sa.pipelines()[m].name, inputs[m],
                                     [&](Result<float>) {
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
  // Base load keeps the MEAN below capacity: with the middle third at
  // burst_x, mean = base * (2 + burst_x) / 3. util_pct = 45 and burst_x = 4
  // put the mean at 0.9x capacity and the burst at 1.8x — a crowd the stack
  // can absorb by shedding, not sustained overload nothing could survive.
  const double util =
      static_cast<double>(flags.GetInt("util_pct", 45)) / 100.0;
  const double base_rps = flags.GetInt("base_rps", 0) > 0
                              ? static_cast<double>(flags.GetInt("base_rps", 0))
                              : util * capacity_rps;
  const double burst_x = static_cast<double>(flags.GetInt("burst_x", 4));
  const int64_t slo_us =
      flags.GetInt("slo_us", 0) > 0
          ? flags.GetInt("slo_us", 0)
          : static_cast<int64_t>(std::max(2000.0, 10.0 * lat_us));
  const size_t requests = static_cast<size_t>(flags.GetInt("requests", 20000));

  FlashCrowdOptions fopts;
  fopts.num_models = sa.pipelines().size();
  fopts.base_rps = base_rps;
  // Middle third bursts at burst_x, so the mean rate is (2+burst_x)/3 base.
  fopts.duration_s = static_cast<double>(requests) /
                     (base_rps * (2.0 + burst_x) / 3.0);
  fopts.burst_start_s = fopts.duration_s / 3.0;
  fopts.burst_duration_s = fopts.duration_s / 3.0;
  fopts.burst_x = burst_x;
  fopts.crowd_fraction = 0.7;
  fopts.crowd_model = 0;  // Zipf rank 0: the crowd chases what is already hot.
  fopts.seed = static_cast<uint64_t>(flags.GetInt("seed", 11));
  const auto schedule = GenerateFlashCrowdSchedule(fopts);

  std::printf(
      "  %zu pipelines on %zu shards; calibrated %.0fus/pred "
      "(~%.0f rps capacity)\n  base %.0f rps, burst %.0fx for the middle "
      "third, SLO %lldus, %zu arrivals\n\n",
      sa.pipelines().size(), shards, lat_us, capacity_rps, base_rps, burst_x,
      static_cast<long long>(slo_us), schedule.size());

  const int64_t slo_ns = slo_us * 1000;
  const DriveResult no_shed = Drive(sa, sopts, schedule, inputs, slo_ns, false);
  PrintDrive("no-shed", no_shed, schedule.size());
  const DriveResult shed = Drive(sa, sopts, schedule, inputs, slo_ns, true);
  PrintDrive("shed", shed, schedule.size());

  const double ratio = shed.goodput / std::max(no_shed.goodput, 1e-9);
  std::printf("\n  goodput ratio (shed / no-shed): %.2fx\n\n", ratio);

  BenchJson json("resilience");
  json.Add("pipelines", static_cast<double>(sa.pipelines().size()));
  json.Add("shards", static_cast<double>(shards));
  json.Add("calibrated_latency_us", lat_us);
  json.Add("base_rps", base_rps);
  json.Add("burst_x", burst_x);
  json.Add("slo_us", static_cast<double>(slo_us));
  json.Add("arrivals", static_cast<double>(schedule.size()));
  json.Add("goodput_no_shed", no_shed.goodput);
  json.Add("goodput_shed", shed.goodput);
  json.Add("goodput_ratio", ratio);
  json.Add("p99_us_no_shed", no_shed.p99_us);
  json.Add("p99_us_shed", shed.p99_us);
  json.Add("shed_count", static_cast<double>(shed.shed));
  json.Add("expired_count", static_cast<double>(shed.expired));
  json.Add("late_no_shed", static_cast<double>(no_shed.late));
  json.Add("late_shed", static_cast<double>(shed.late));

  // Deadlines change WHICH bucket a request lands in, never whether it is
  // accounted: every arrival resolves exactly once in both runs.
  // The one deterministic check, so it alone sets the exit code.
  const bool accounted = ShapeCheck(
      no_shed.good + no_shed.late + no_shed.shed + no_shed.expired +
                  no_shed.errors == schedule.size() &&
          shed.good + shed.late + shed.shed + shed.expired + shed.errors ==
              schedule.size(),
      "every arrival resolves exactly once in both runs (no drops, no "
      "double completions)");
  bool pass = accounted;
  const bool parallel_host = hw >= 2;
  // Smoke runs finish in well under 100ms of wall time, where the ratio is
  // dominated by calibration noise (a single scheduler hiccup moves capacity
  // 2x); --ratio_check=0 keeps the engagement checks but drops the ratio
  // claim, which only a full-scale run can observe. The smoke flags use a
  // sharper burst (burst_x=8) than the default, which keeps engagement
  // deterministic at that scale.
  const bool ratio_check = flags.GetBool("ratio_check", true);
  if (!ratio_check) {
    pass &= ShapeCheck(shed.shed + shed.expired > 0,
                       "shedding engaged under the flash crowd (admission "
                       "refusals or in-stack expiries > 0)");
    pass &= ShapeCheck(no_shed.late > 0,
                       "without deadlines the burst backlog serves SLO-dead "
                       "requests (late completions > 0)");
    std::printf(
        "  NOTE: --ratio_check=0 (smoke scale); goodput-ratio claims are "
        "only\n  observable at full scale, so they are reported but not "
        "checked.\n");
  } else if (parallel_host) {
    pass &= ShapeCheck(shed.shed + shed.expired > 0,
                       "shedding engaged under the flash crowd (admission "
                       "refusals or in-stack expiries > 0)");
    pass &= ShapeCheck(no_shed.late > 0,
                       "without deadlines the burst backlog serves SLO-dead "
                       "requests (late completions > 0)");
    pass &= ShapeCheck(
        ratio >= 1.2,
        "SLO-aware shedding sustains >= 1.2x no-shed goodput through the "
        "flash crowd (post-burst capacity serves live requests, not the "
        "backlog)");
  } else {
    // One core is a bistable regime: the crowd concentrates 70% of burst
    // arrivals on one model, adaptive batching soaks exactly that shape, and
    // whether the no-shed run collapses at all depends on which side of true
    // capacity the calibration draw landed. Overload engagement and the
    // goodput win are therefore reported, not asserted; what IS invariant is
    // that shedding never serves SLO-dead work in volume and never collapses
    // goodput (drops stay cheaper than the work they replace).
    std::printf(
        "  NOTE: single-core host; burst, backlog drain, and dispatcher "
        "timeslice one\n  core and concentrated-crowd batching can absorb "
        "the burst outright, so the\n  1.2x claim is unobservable. Checks "
        "degrade to no-collapse + no-late-service\n  guards.\n");
    pass &= ShapeCheck(
        ratio >= 0.5,
        "[1-core fallback] shedding never collapses goodput below 0.5x "
        "no-shed");
    pass &= ShapeCheck(
        shed.late * 200 <= schedule.size(),
        "[1-core fallback] with deadlines propagated, SLO-dead completions "
        "stay under 0.5% of arrivals (refused early instead of served "
        "late)");
  }
  json.Add("parallel_host", parallel_host ? "true" : "false");
  json.Add("ratio_checked", ratio_check ? "true" : "false");
  json.Add("shape_check", pass ? "PASS" : "FAIL");
  json.Write();
  // The timing checks are the printed contract and leave the exit code 0.
  return accounted ? 0 : 1;
}
