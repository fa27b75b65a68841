// Size, alignment, and bit-manipulation helpers shared by every module.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

namespace vmsls {

using u8 = std::uint8_t;
using u16 = std::uint16_t;
using u32 = std::uint32_t;
using u64 = std::uint64_t;
using i64 = std::int64_t;

/// Simulated time is counted in cycles of a reference clock.
using Cycles = std::uint64_t;

/// Addresses in the simulated machine. Virtual and physical addresses share
/// a representation; the type aliases document intent at interfaces.
using Addr = std::uint64_t;
using VirtAddr = Addr;
using PhysAddr = Addr;

inline constexpr u64 KiB = 1024ull;
inline constexpr u64 MiB = 1024ull * KiB;
inline constexpr u64 GiB = 1024ull * MiB;

constexpr bool is_pow2(u64 x) noexcept { return x != 0 && (x & (x - 1)) == 0; }

constexpr u64 align_down(u64 x, u64 a) noexcept { return x & ~(a - 1); }
constexpr u64 align_up(u64 x, u64 a) noexcept { return (x + a - 1) & ~(a - 1); }

constexpr bool is_aligned(u64 x, u64 a) noexcept { return (x & (a - 1)) == 0; }

/// Floor of log2; log2i(0) is undefined and returns 0.
constexpr unsigned log2i(u64 x) noexcept {
  unsigned r = 0;
  while (x > 1) {
    x >>= 1;
    ++r;
  }
  return r;
}

constexpr u64 ceil_div(u64 a, u64 b) noexcept { return (a + b - 1) / b; }

/// Throws std::invalid_argument with `msg` when `cond` is false. Used for
/// validating user-supplied configuration at API boundaries.
///
/// The `const char*` overloads of require/ensure let literal messages on
/// hot paths skip the std::string construction (a heap allocation past the
/// SSO size) that every passing check would otherwise pay. A hot check with
/// a concatenated message should branch and throw itself instead.
inline void require(bool cond, const std::string& msg) {
  if (!cond) throw std::invalid_argument(msg);
}
inline void require(bool cond, const char* msg) {
  if (!cond) throw std::invalid_argument(msg);
}

/// Throws std::logic_error; used for internal invariant violations.
inline void ensure(bool cond, const std::string& msg) {
  if (!cond) throw std::logic_error(msg);
}
inline void ensure(bool cond, const char* msg) {
  if (!cond) throw std::logic_error(msg);
}

/// Pretty-prints a byte count ("64 KiB", "3.2 MiB").
std::string format_bytes(u64 bytes);

}  // namespace vmsls
