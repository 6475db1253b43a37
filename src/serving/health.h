// Per-shard circuit breaker: closed -> open -> half-open -> closed.
//
// The entire state machine lives in ONE atomic 64-bit control word —
// state tag, consecutive-failure count, outstanding probe tokens, and probe
// successes — mutated only by CAS, so a transition can never tear: no
// interleaving can observe half of a trip (e.g. state=open with the closed
// state's failure count, or half-open with yesterday's token quota).
//
// The one piece that does NOT fit in the word is the cooldown deadline
// `reopen_at_us_`. It is stored (relaxed) BEFORE the trip CAS and published
// by that CAS's release; readers acquire the word first, so observing
// state=open implies the matching reopen deadline is visible. This ordering
// is load-bearing and model-checked: weakening the trip CAS (mutation tag
// `brk_trip_cas`) lets a reader see kOpen with a stale reopen_at and grant a
// probe before the cooldown — tests/model_check/model_check_test.cc detects
// exactly that.
//
// Callers pass `now_us` into every method (the breaker never reads a clock)
// so tests and the model checker drive time deterministically.
#ifndef PRETZEL_SERVING_HEALTH_H_
#define PRETZEL_SERVING_HEALTH_H_

#include <cstdint>

#include "src/common/lockfree.h"  // PRETZEL_ATOMIC / PRETZEL_MO / mutation seam.

namespace pretzel {

struct CircuitBreakerOptions {
  // Consecutive shard faults (errors/timeouts; backpressure and caller
  // errors don't count) that trip closed -> open.
  uint32_t failure_threshold = 5;
  // How long open rejects everything before admitting probes.
  int64_t cooldown_us = 50'000;
  // Probes granted per half-open episode; all must succeed to close.
  uint32_t probe_quota = 3;
};

class CircuitBreaker {
 public:
  enum class State : uint64_t { kClosed = 0, kOpen = 1, kHalfOpen = 2 };

  explicit CircuitBreaker(const CircuitBreakerOptions& options = {})
      : options_(options) {}

  CircuitBreaker(const CircuitBreaker&) = delete;
  CircuitBreaker& operator=(const CircuitBreaker&) = delete;

  // Admission: may this request proceed at `now_us`? Closed admits
  // everything. Open rejects until the cooldown elapses, then the first
  // caller flips to half-open and hands out `probe_quota` tokens; in
  // half-open only token holders pass (true == this request is a probe).
  bool Allow(int64_t now_us) {
    uint64_t word = word_.load(PRETZEL_MO(brk_word_load, acquire));
    for (;;) {
      switch (UnpackState(word)) {
        case State::kClosed:
          return true;
        case State::kOpen: {
          // relaxed: the acquire load of word_ above synchronizes with the
          // trip CAS's release, so a reader that saw kOpen also sees the
          // reopen deadline stored just before that CAS.
          if (now_us < reopen_at_us_.load(PRETZEL_MO(brk_reopen_load, relaxed))) {
            return false;
          }
          // Mutation: a half-open transition that forgets to grant tokens
          // starves every probe — the breaker can never close (liveness).
          const uint64_t tokens = PRETZEL_LF_MUTATION(brk_halfopen_keep_tokens)
                                      ? 0
                                      : options_.probe_quota;
          const uint64_t next = Pack(State::kHalfOpen, 0, tokens, 0);
          if (word_.compare_exchange_weak(
                  word, next, PRETZEL_MO(brk_halfopen_cas, acq_rel),
                  PRETZEL_MO(brk_halfopen_cas_fail, acquire))) {
            word = next;  // Fall through the loop to claim a token.
          }
          break;
        }
        case State::kHalfOpen: {
          const uint64_t tokens = UnpackTokens(word);
          if (tokens == 0) {
            return false;  // Probes all claimed; wait for their verdicts.
          }
          const uint64_t next =
              Pack(State::kHalfOpen, 0, tokens - 1, UnpackSuccesses(word));
          if (word_.compare_exchange_weak(
                  word, next, PRETZEL_MO(brk_probe_cas, acq_rel),
                  PRETZEL_MO(brk_probe_cas_fail, acquire))) {
            return true;
          }
          break;
        }
      }
    }
  }

  // An admitted request ended without a shard-health verdict (backpressure,
  // caller error, arrived-already-expired — FinishVersion's neutral
  // statuses). The outcome says nothing about the shard, but if the request
  // was holding a half-open probe token the token MUST come back: probes
  // that end verdictless would otherwise burn the whole quota, after which
  // Allow() returns false forever with no verdict ever in flight — the
  // shard is blackholed (Failover only selects kClosed shards). That is
  // exactly how a recovering shard dies: its queue-delay EWMA is still
  // high, so deadline admission sheds the probes with ResourceExhausted.
  //
  // The caller cannot know whether THIS request was a probe (requests
  // admitted while closed can finish after a trip, and land here too), so
  // the re-grant is capped at the quota: the worst case is a refreshed
  // probe episode, never a wedge, and closing still requires `probe_quota`
  // genuine successes. Mutation brk_abandon_drop_token models the
  // pre-fix bug (verdictless probes swallow their token).
  void OnProbeAbandoned(int64_t now_us) {
    (void)now_us;
    if (PRETZEL_LF_MUTATION(brk_abandon_drop_token)) {
      return;
    }
    uint64_t word = word_.load(PRETZEL_MO(brk_word_load, acquire));
    for (;;) {
      if (UnpackState(word) != State::kHalfOpen) {
        return;  // Tokens only exist in half-open; nothing to return.
      }
      const uint64_t tokens = UnpackTokens(word);
      if (tokens >= options_.probe_quota) {
        return;  // Full quota outstanding: a closed-era straggler.
      }
      const uint64_t next =
          Pack(State::kHalfOpen, 0, tokens + 1, UnpackSuccesses(word));
      if (word_.compare_exchange_weak(
              word, next, PRETZEL_MO(brk_regrant_cas, acq_rel),
              PRETZEL_MO(brk_regrant_cas_fail, acquire))) {
        return;
      }
    }
  }

  // Outcome of an admitted request. In half-open, `probe_quota` successes
  // close the breaker; in closed, any success resets the failure streak.
  void OnSuccess(int64_t now_us) {
    (void)now_us;
    uint64_t word = word_.load(PRETZEL_MO(brk_word_load, acquire));
    for (;;) {
      switch (UnpackState(word)) {
        case State::kClosed: {
          if (UnpackFailures(word) == 0) {
            return;
          }
          const uint64_t next = Pack(State::kClosed, 0, 0, 0);
          if (word_.compare_exchange_weak(
                  word, next, PRETZEL_MO(brk_reset_cas, acq_rel),
                  PRETZEL_MO(brk_reset_cas_fail, acquire))) {
            return;
          }
          break;
        }
        case State::kHalfOpen: {
          const uint64_t successes = UnpackSuccesses(word) + 1;
          const uint64_t next =
              successes >= options_.probe_quota
                  ? Pack(State::kClosed, 0, 0, 0)
                  : Pack(State::kHalfOpen, 0, UnpackTokens(word), successes);
          if (word_.compare_exchange_weak(
                  word, next, PRETZEL_MO(brk_close_cas, acq_rel),
                  PRETZEL_MO(brk_close_cas_fail, acquire))) {
            return;
          }
          break;
        }
        case State::kOpen:
          return;  // Straggler from before the trip; no state to update.
      }
    }
  }

  void OnFailure(int64_t now_us) {
    uint64_t word = word_.load(PRETZEL_MO(brk_word_load, acquire));
    for (;;) {
      switch (UnpackState(word)) {
        case State::kClosed: {
          const uint64_t failures = UnpackFailures(word) + 1;
          if (failures >= options_.failure_threshold) {
            // Publish the cooldown BEFORE the trip: the CAS's release makes
            // this store visible to anyone who acquires the open word.
            reopen_at_us_.store(now_us + options_.cooldown_us,
                                PRETZEL_MO(brk_reopen_store, relaxed));
            const uint64_t next = Pack(State::kOpen, 0, 0, 0);
            if (word_.compare_exchange_weak(
                    word, next, PRETZEL_MO(brk_trip_cas, acq_rel),
                    PRETZEL_MO(brk_trip_cas_fail, acquire))) {
              trips_.fetch_add(1, PRETZEL_MO(brk_trips_add, relaxed));
              return;
            }
          } else {
            const uint64_t next = Pack(State::kClosed, failures, 0, 0);
            if (word_.compare_exchange_weak(
                    word, next, PRETZEL_MO(brk_count_cas, acq_rel),
                    PRETZEL_MO(brk_count_cas_fail, acquire))) {
              return;
            }
          }
          break;
        }
        case State::kHalfOpen: {
          // Failed probe: back to open, cooldown restarted from now.
          // Mutation: skipping the refresh leaves the OLD (already elapsed)
          // deadline in place, so the very next Allow() grants a probe with
          // no cooldown at all.
          if (!PRETZEL_LF_MUTATION(brk_reopen_refresh_skip)) {
            reopen_at_us_.store(now_us + options_.cooldown_us,
                                PRETZEL_MO(brk_reopen_store, relaxed));
          }
          const uint64_t next = Pack(State::kOpen, 0, 0, 0);
          if (word_.compare_exchange_weak(
                  word, next, PRETZEL_MO(brk_trip_cas, acq_rel),
                  PRETZEL_MO(brk_trip_cas_fail, acquire))) {
            trips_.fetch_add(1, PRETZEL_MO(brk_trips_add, relaxed));
            return;
          }
          break;
        }
        case State::kOpen:
          return;  // Already tripped; the cooldown is whoever tripped it.
      }
    }
  }

  State state() const {
    return UnpackState(word_.load(PRETZEL_MO(brk_word_load, acquire)));
  }
  uint64_t consecutive_failures() const {
    return UnpackFailures(word_.load(PRETZEL_MO(brk_word_load, acquire)));
  }
  int64_t reopen_at_us() const {
    return reopen_at_us_.load(PRETZEL_MO(brk_reopen_load, relaxed));
  }
  uint64_t trips() const {
    return trips_.load(PRETZEL_MO(brk_trips_load, relaxed));
  }
  const CircuitBreakerOptions& options() const { return options_; }

 private:
  // Word layout: state in bits [0,2), consecutive failures in [2,18),
  // probe tokens in [18,26), probe successes in [26,34).
  static constexpr uint64_t kStateMask = 0x3;
  static constexpr int kFailShift = 2;
  static constexpr uint64_t kFailMask = 0xFFFF;
  static constexpr int kTokenShift = 18;
  static constexpr uint64_t kTokenMask = 0xFF;
  static constexpr int kSuccShift = 26;
  static constexpr uint64_t kSuccMask = 0xFF;

  static constexpr uint64_t Pack(State state, uint64_t failures,
                                 uint64_t tokens, uint64_t successes) {
    return static_cast<uint64_t>(state) |
           ((failures & kFailMask) << kFailShift) |
           ((tokens & kTokenMask) << kTokenShift) |
           ((successes & kSuccMask) << kSuccShift);
  }
  static constexpr State UnpackState(uint64_t word) {
    return static_cast<State>(word & kStateMask);
  }
  static constexpr uint64_t UnpackFailures(uint64_t word) {
    return (word >> kFailShift) & kFailMask;
  }
  static constexpr uint64_t UnpackTokens(uint64_t word) {
    return (word >> kTokenShift) & kTokenMask;
  }
  static constexpr uint64_t UnpackSuccesses(uint64_t word) {
    return (word >> kSuccShift) & kSuccMask;
  }

  const CircuitBreakerOptions options_;
  PRETZEL_ATOMIC(uint64_t) word_{0};  // Pack(kClosed, 0, 0, 0).
  PRETZEL_ATOMIC(int64_t) reopen_at_us_{0};
  PRETZEL_ATOMIC(uint64_t) trips_{0};
};

}  // namespace pretzel

#endif  // PRETZEL_SERVING_HEALTH_H_
