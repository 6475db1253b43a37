// Tiny assert-style test harness: CHECK macros that print and abort with
// context. Tests are plain executables registered with ctest; exit 0 = pass.
#ifndef PRETZEL_TESTS_TEST_UTIL_H_
#define PRETZEL_TESTS_TEST_UTIL_H_

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#define CHECK_MSG(cond, ...)                                          \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::fprintf(stderr, "CHECK failed at %s:%d: %s\n  ", __FILE__, \
                   __LINE__, #cond);                                  \
      std::fprintf(stderr, __VA_ARGS__);                              \
      std::fprintf(stderr, "\n");                                     \
      std::abort();                                                   \
    }                                                                 \
  } while (0)

#define CHECK(cond) CHECK_MSG(cond, "%s", "")

#define CHECK_EQ(a, b)                                                       \
  do {                                                                       \
    if (!((a) == (b))) {                                                     \
      std::fprintf(stderr, "CHECK_EQ failed at %s:%d: %s == %s\n", __FILE__, \
                   __LINE__, #a, #b);                                        \
      std::abort();                                                          \
    }                                                                        \
  } while (0)

#define CHECK_NEAR(a, b, eps)                                             \
  do {                                                                    \
    const double _a = (a);                                                \
    const double _b = (b);                                                \
    if (!(std::fabs(_a - _b) <= (eps))) {                                 \
      std::fprintf(stderr,                                                \
                   "CHECK_NEAR failed at %s:%d: %s=%g vs %s=%g (eps %g)\n", \
                   __FILE__, __LINE__, #a, _a, #b, _b, (double)(eps));    \
      std::abort();                                                       \
    }                                                                     \
  } while (0)

inline uint32_t Bits(float f) {
  uint32_t u;
  std::memcpy(&u, &f, sizeof(u));
  return u;
}

// Exact float equality by bit pattern (tells -0.0f from 0.0f, and matches a
// NaN only to the same NaN).
#define CHECK_BITS(got, want)                                              \
  CHECK_MSG(Bits(got) == Bits(want), "%s = %a, want %a", #got,             \
            static_cast<double>(got), static_cast<double>(want))

#endif  // PRETZEL_TESTS_TEST_UTIL_H_
