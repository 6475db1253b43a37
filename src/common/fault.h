// Deterministic fault injection seam. Chaos tests arm named sites with a
// probability / latency / budget spec; production code marks the sites with
// the PRETZEL_FAULT_* macros. Two properties drive the design:
//
//  1. Zero overhead unless compiled in. Without -DPRETZEL_FAULT_INJECT the
//     macros expand to constant false / nothing, so the hot paths carry no
//     extra loads, branches, or symbols (the acceptance bar: bench_scheduler
//     / bench_shard SHAPE-CHECKs unchanged vs the plain build). With it, an
//     unarmed site costs one relaxed load of a global armed-count.
//
//  2. Determinism. Decisions come from a splitmix64 stream keyed on
//     (global seed ^ site hash ^ per-site hit index), where the index is an
//     atomic counter — so for a fixed seed the k-th evaluation of a site
//     decides the same way regardless of which thread performs it or how
//     threads interleave. Runs are reproducible in the count domain, which
//     is what the chaos invariants (exactly-once, bounded in-flight,
//     recovery) are stated over.
//
// Sites are string literals, e.g. PRETZEL_FAULT_POINT("oven.compile_fail").
// tools/lint_invariants.py enforces that every site named in src/ appears in
// tests/chaos_test.cc. The registry is a small fixed table guarded by a
// mutex on the (cold) Arm/Disarm/SetSeed path; Hit() walks it lock-free via
// a published count, reading per-site knobs as individual relaxed atomics —
// so re-ARMING a live site while worker threads hit it is a safe knob
// update, never a data race. The one remaining constraint: DisarmAll()
// frees slots for reuse by later Arms of NEW site names (a non-atomic name
// write), so disarm only between scenarios, with traffic quiesced — which
// is how the chaos tests use it.
#ifndef PRETZEL_COMMON_FAULT_H_
#define PRETZEL_COMMON_FAULT_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string_view>

#include "src/common/clock.h"

namespace pretzel {
namespace fault {

// Per-site knobs. A site fires when armed AND probability admits this hit
// AND the budget (max fires; 0 = unlimited) is not spent AND `arg` matches
// (spec.arg < 0 matches any; sites pass a site-specific discriminator such
// as a shard index).
struct Spec {
  double probability = 1.0;
  int64_t latency_us = 0;  // Stall applied by PRETZEL_FAULT_STALL sites.
  uint64_t budget = 0;     // Max fires; 0 = unlimited.
  int64_t arg = -1;        // Discriminator filter; -1 matches any.
};

#if defined(PRETZEL_FAULT_INJECT)

namespace internal {

inline uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

inline uint64_t HashSite(std::string_view site) {
  uint64_t hash = 14695981039346656037ull;  // FNV-1a.
  for (const char c : site) {
    hash ^= static_cast<uint8_t>(c);
    hash *= 1099511628211ull;
  }
  return hash;
}

struct Site {
  std::string_view name;
  // The Spec knobs, stored as individual relaxed atomics: Hit() reads them
  // lock-free while Arm() may be rewriting them (re-arming a live site).
  std::atomic<double> probability{1.0};
  std::atomic<int64_t> latency_us{0};
  std::atomic<uint64_t> budget{0};
  std::atomic<int64_t> arg{-1};
  std::atomic<uint64_t> evals{0};  // Hit-index counter (decision stream).
  std::atomic<uint64_t> fires{0};

  void StoreSpec(const Spec& spec) {
    probability.store(spec.probability, std::memory_order_relaxed);
    latency_us.store(spec.latency_us, std::memory_order_relaxed);
    budget.store(spec.budget, std::memory_order_relaxed);
    arg.store(spec.arg, std::memory_order_relaxed);
  }
};

constexpr size_t kMaxSites = 32;

struct Registry {
  // armed is the fast-path gate: 0 means every macro is one relaxed load.
  std::atomic<size_t> armed{0};
  std::atomic<uint64_t> seed{0x5EEDF00Dull};
  // Serializes the cold control path (Arm/DisarmAll/SetSeed): concurrent
  // Arms of distinct new sites would otherwise race on the same slot.
  std::mutex arm_mu;
  Site sites[kMaxSites];
};

inline Registry& registry() {
  static Registry r;
  return r;
}

}  // namespace internal

// Arms (or re-arms) a site. Sites are identified by literal name; the table
// slot persists until DisarmAll so hit counters survive re-arming.
inline void Arm(std::string_view site, const Spec& spec) {
  auto& reg = internal::registry();
  std::lock_guard<std::mutex> lock(reg.arm_mu);
  const size_t n = reg.armed.load(std::memory_order_acquire);
  for (size_t i = 0; i < n; ++i) {
    if (reg.sites[i].name == site) {
      reg.sites[i].StoreSpec(spec);  // Live knob update; Hit keeps reading.
      return;
    }
  }
  if (n >= internal::kMaxSites) {
    return;  // Table full; chaos tests never get close.
  }
  // New slot: fill it completely, THEN publish via the armed count — a
  // racing Hit only walks into the slot after the release/acquire pair.
  reg.sites[n].name = site;
  reg.sites[n].StoreSpec(spec);
  reg.sites[n].evals.store(0, std::memory_order_relaxed);
  reg.sites[n].fires.store(0, std::memory_order_relaxed);
  reg.armed.store(n + 1, std::memory_order_release);
}

// Disarms every site and resets counters. (Individual disarm is just
// re-arming with probability 0; the chaos tests reset wholesale between
// scenarios.) Must not run concurrently with traffic: it recycles slots
// whose names a later Arm rewrites non-atomically (see header comment).
inline void DisarmAll() {
  auto& reg = internal::registry();
  std::lock_guard<std::mutex> lock(reg.arm_mu);
  const size_t n = reg.armed.load(std::memory_order_acquire);
  reg.armed.store(0, std::memory_order_release);
  for (size_t i = 0; i < n; ++i) {
    reg.sites[i].StoreSpec(Spec{});
    reg.sites[i].evals.store(0, std::memory_order_relaxed);
    reg.sites[i].fires.store(0, std::memory_order_relaxed);
  }
}

inline void SetSeed(uint64_t seed) {
  auto& reg = internal::registry();
  std::lock_guard<std::mutex> lock(reg.arm_mu);
  reg.seed.store(seed, std::memory_order_relaxed);
}

// Fires recorded for `site` since it was (last) armed.
inline uint64_t Fires(std::string_view site) {
  auto& reg = internal::registry();
  const size_t n = reg.armed.load(std::memory_order_acquire);
  for (size_t i = 0; i < n; ++i) {
    if (reg.sites[i].name == site) {
      return reg.sites[i].fires.load(std::memory_order_relaxed);
    }
  }
  return 0;
}

// Decision point: true iff the armed spec admits this hit. Deterministic in
// the count domain (see header comment).
inline bool Hit(std::string_view site, int64_t arg = 0) {
  auto& reg = internal::registry();
  const size_t n = reg.armed.load(std::memory_order_acquire);
  for (size_t i = 0; i < n; ++i) {
    internal::Site& s = reg.sites[i];
    if (s.name != site) {
      continue;
    }
    const double probability = s.probability.load(std::memory_order_relaxed);
    if (probability <= 0.0) {
      return false;
    }
    const int64_t want_arg = s.arg.load(std::memory_order_relaxed);
    if (want_arg >= 0 && want_arg != arg) {
      return false;
    }
    const uint64_t index = s.evals.fetch_add(1, std::memory_order_relaxed);
    if (probability < 1.0) {
      // relaxed: the seed is set once before the scenario arms its sites;
      // the decision only needs a stable value, not ordering with them.
      const uint64_t word =
          internal::Mix64(reg.seed.load(std::memory_order_relaxed) ^
                          internal::HashSite(site) ^ index);
      const double u =
          static_cast<double>(word >> 11) * (1.0 / 9007199254740992.0);
      if (u >= probability) {
        return false;
      }
    }
    const uint64_t budget = s.budget.load(std::memory_order_relaxed);
    if (budget > 0) {
      // Budget claims by CAS so concurrent hits never overshoot the cap.
      uint64_t fired = s.fires.load(std::memory_order_relaxed);
      for (;;) {
        if (fired >= budget) {
          return false;
        }
        if (s.fires.compare_exchange_weak(fired, fired + 1,
                                          std::memory_order_relaxed)) {
          return true;
        }
      }
    }
    s.fires.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  return false;
}

// Latency a firing site should apply (0 when unarmed).
inline int64_t LatencyUs(std::string_view site) {
  auto& reg = internal::registry();
  const size_t n = reg.armed.load(std::memory_order_acquire);
  for (size_t i = 0; i < n; ++i) {
    if (reg.sites[i].name == site) {
      return reg.sites[i].latency_us.load(std::memory_order_relaxed);
    }
  }
  return 0;
}

#else  // !PRETZEL_FAULT_INJECT — inert stubs so callers need no #ifdefs.

inline void Arm(std::string_view, const Spec&) {}
inline void DisarmAll() {}
inline void SetSeed(uint64_t) {}
inline uint64_t Fires(std::string_view) { return 0; }
inline bool Hit(std::string_view, int64_t = 0) { return false; }
inline int64_t LatencyUs(std::string_view) { return 0; }

#endif  // PRETZEL_FAULT_INJECT

}  // namespace fault
}  // namespace pretzel

// Site macros. PRETZEL_FAULT_POINT evaluates to a bool (did the fault
// fire?); PRETZEL_FAULT_STALL sleeps the armed latency when it fires.
// Compiled out, both are constants the optimizer deletes — no load, no
// branch, no site string in the binary.
#if defined(PRETZEL_FAULT_INJECT)
#define PRETZEL_FAULT_POINT(site, arg) (::pretzel::fault::Hit((site), (arg)))
#define PRETZEL_FAULT_STALL(site, arg)                      \
  do {                                                      \
    if (::pretzel::fault::Hit((site), (arg))) {             \
      ::pretzel::SleepUs(::pretzel::fault::LatencyUs(site)); \
    }                                                       \
  } while (0)
#else
#define PRETZEL_FAULT_POINT(site, arg) false
#define PRETZEL_FAULT_STALL(site, arg) \
  do {                                 \
  } while (0)
#endif

#endif  // PRETZEL_COMMON_FAULT_H_
