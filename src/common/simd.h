#ifndef VSTORE_COMMON_SIMD_H_
#define VSTORE_COMMON_SIMD_H_

namespace vstore {
namespace simd {

// Instruction-set tiers the batch kernels can dispatch to. Kernels are
// compiled per-tier with function-level target attributes, so the binary
// runs on any x86-64 and upgrades itself at runtime.
enum class Level {
  kScalar = 0,
  kAVX2 = 1,
};

// Highest tier supported by the hardware (cpuid probe, cached).
Level Detected();

// Tier the kernels should use right now: min(Detected(), forced ceiling).
// The ceiling comes from ForceLevelForTesting() or, at startup, from the
// VSTORE_SIMD environment variable ("scalar" | "avx2").
Level Active();

// Active(), counted per tier in the vstore_simd_dispatch_total metric so
// benchmarks and sys.metrics can show how often the AVX2 bodies run. Batch
// kernels call it once per dispatch.
Level Dispatch();

// Caps the active tier so tests can cover the scalar fallback on AVX2
// machines (and assert AVX2 codepaths are exercised when available).
// Passing Detected() (or higher) removes the cap.
void ForceLevelForTesting(Level level);

inline const char* LevelName(Level level) {
  return level == Level::kAVX2 ? "avx2" : "scalar";
}

}  // namespace simd
}  // namespace vstore

#endif  // VSTORE_COMMON_SIMD_H_
