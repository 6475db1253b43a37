// Replaces every global operator new/delete of the including test binary
// with malloc/free, counting the bytes and calls a thread requests while
// its t_count_allocs is set. The nothrow and aligned forms are replaced
// too, so no allocation pairs one allocator with the other. Include it
// from exactly one translation unit of a test binary.
#ifndef PRETZEL_TESTS_COUNTING_ALLOC_H_
#define PRETZEL_TESTS_COUNTING_ALLOC_H_

#include <algorithm>
#include <cstddef>
#include <cstdlib>
#include <new>

thread_local bool t_count_allocs = false;
thread_local size_t t_alloc_bytes = 0;
thread_local size_t t_alloc_calls = 0;

static void* CountedAlloc(size_t size, size_t align) {
  if (t_count_allocs) {
    t_alloc_bytes += size;
    ++t_alloc_calls;
  }
  size = std::max<size_t>(1, size);
  void* p = align > alignof(std::max_align_t)
                ? std::aligned_alloc(align, (size + align - 1) / align * align)
                : std::malloc(size);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

static void* CountedAllocNoThrow(size_t size, size_t align) noexcept {
  try {
    return CountedAlloc(size, align);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}

void* operator new(size_t n) { return CountedAlloc(n, 0); }
void* operator new[](size_t n) { return CountedAlloc(n, 0); }
void* operator new(size_t n, std::align_val_t a) {
  return CountedAlloc(n, static_cast<size_t>(a));
}
void* operator new[](size_t n, std::align_val_t a) {
  return CountedAlloc(n, static_cast<size_t>(a));
}
void* operator new(size_t n, const std::nothrow_t&) noexcept {
  return CountedAllocNoThrow(n, 0);
}
void* operator new[](size_t n, const std::nothrow_t&) noexcept {
  return CountedAllocNoThrow(n, 0);
}
void* operator new(size_t n, std::align_val_t a,
                   const std::nothrow_t&) noexcept {
  return CountedAllocNoThrow(n, static_cast<size_t>(a));
}
void* operator new[](size_t n, std::align_val_t a,
                     const std::nothrow_t&) noexcept {
  return CountedAllocNoThrow(n, static_cast<size_t>(a));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}

#endif  // PRETZEL_TESTS_COUNTING_ALLOC_H_
