#ifndef DISMASTD_TESTS_COUNTING_NEW_H_
#define DISMASTD_TESTS_COUNTING_NEW_H_

// Replaces the global allocation functions with a counting malloc/free
// pair, for the zero-allocation tests of disabled observability hooks.
// A program may define each replacement only once, so include this header
// from exactly one translation unit of a test binary.
//
// Every unaligned form is replaced: plain, array, sized and nothrow. A
// form left to the runtime would allocate through the runtime's own new,
// and its memory would come back through the free below; AddressSanitizer
// reports that as an alloc-dealloc mismatch (std::stable_sort's temporary
// buffer comes from the nothrow new). The aligned forms stay the
// runtime's, for new and delete alike.
//
// The noinline helpers keep the compiler from pairing the malloc in a
// replaced new with the free in a replaced delete across inlining
// (-Wmismatched-new-delete false positive).

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

/// Calls to any replaced operator new so far.
static std::atomic<uint64_t> g_new_calls{0};

__attribute__((noinline)) static void* CountedAlloc(std::size_t size) {
  g_new_calls.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}

__attribute__((noinline)) static void CountedFree(void* p) { std::free(p); }

void* operator new(std::size_t size) {
  void* p = CountedAlloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}

void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}

void operator delete(void* p) noexcept { CountedFree(p); }
void operator delete(void* p, std::size_t) noexcept { CountedFree(p); }
void operator delete[](void* p) noexcept { CountedFree(p); }
void operator delete[](void* p, std::size_t) noexcept { CountedFree(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  CountedFree(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  CountedFree(p);
}

#endif  // DISMASTD_TESTS_COUNTING_NEW_H_
