#include "common/simd.h"

#include <atomic>
#include <cstdlib>
#include <cstring>

#include "common/metrics.h"

#if defined(__x86_64__) || defined(_M_X64)
#include <cpuid.h>
#define VSTORE_X86_64 1
#endif

namespace vstore {
namespace simd {

namespace {

Level Probe() {
#ifdef VSTORE_X86_64
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  // AVX2 is leaf 7 subleaf 0, EBX bit 5. Also require OS support for YMM
  // state (OSXSAVE + XGETBV checking XMM|YMM), otherwise ymm registers are
  // not preserved across context switches.
  if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx)) return Level::kScalar;
  const bool osxsave = (ecx & (1u << 27)) != 0;
  const bool avx = (ecx & (1u << 28)) != 0;
  if (!osxsave || !avx) return Level::kScalar;
  unsigned xcr0_lo, xcr0_hi;
  __asm__("xgetbv" : "=a"(xcr0_lo), "=d"(xcr0_hi) : "c"(0));
  if ((xcr0_lo & 0x6) != 0x6) return Level::kScalar;  // XMM+YMM saved
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) &&
      (ebx & (1u << 5)) != 0) {
    return Level::kAVX2;
  }
#endif
  return Level::kScalar;
}

Level InitialCeiling() {
  const char* env = std::getenv("VSTORE_SIMD");
  if (env != nullptr && std::strcmp(env, "scalar") == 0) {
    return Level::kScalar;
  }
  return Level::kAVX2;
}

std::atomic<Level>& Ceiling() {
  static std::atomic<Level> ceiling{InitialCeiling()};
  return ceiling;
}

}  // namespace

Level Detected() {
  static const Level detected = Probe();
  return detected;
}

Level Active() {
  Level cap = Ceiling().load(std::memory_order_relaxed);
  Level hw = Detected();
  return static_cast<int>(cap) < static_cast<int>(hw) ? cap : hw;
}

Level Dispatch() {
  static Counter* scalar = MetricsRegistry::Global().GetCounter(
      "vstore_simd_dispatch_total", "level", "scalar");
  static Counter* avx2 = MetricsRegistry::Global().GetCounter(
      "vstore_simd_dispatch_total", "level", "avx2");
  const Level level = Active();
  (level == Level::kAVX2 ? avx2 : scalar)->Increment();
  return level;
}

void ForceLevelForTesting(Level level) {
  Ceiling().store(level, std::memory_order_relaxed);
}

}  // namespace simd
}  // namespace vstore
