// Counting operator-new interposition for the allocation-count tests.
//
// Including this header replaces the global throwing operator new/delete
// family with counting versions, so a test can count the heap allocations
// of a region by diffing psnt::test::alloc_count() around it. The nothrow
// and placement forms are untouched (the standard nothrow operators forward
// to the replaced throwing ones, so they are counted too).
//
// Include from exactly ONE translation unit per binary — the replacement
// definitions are not inline, by design (the C++ runtime requires a single
// definition of a replaced allocation function). The replacement is
// process-wide and hides new/delete from ASan's mismatch checks, so the
// including test binary holds nothing else.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace psnt::test {

inline std::atomic<std::uint64_t> g_alloc_count{0};

inline std::uint64_t alloc_count() {
  return g_alloc_count.load(std::memory_order_relaxed);
}

}  // namespace psnt::test

void* operator new(std::size_t size) {
  psnt::test::g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc{};
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void* operator new(std::size_t size, std::align_val_t al) {
  psnt::test::g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  std::size_t alignment = static_cast<std::size_t>(al);
  if (alignment < sizeof(void*)) alignment = sizeof(void*);
  void* p = nullptr;
  if (posix_memalign(&p, alignment, size ? size : 1) != 0) {
    throw std::bad_alloc{};
  }
  return p;
}

void* operator new[](std::size_t size, std::align_val_t al) {
  return ::operator new(size, al);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
