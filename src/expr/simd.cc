#include "expr/simd.h"

#include <cstdlib>

namespace tpstream::simd {

const char* SimdLevelName(SimdLevel level) {
  switch (level) {
    case SimdLevel::kOff:
      return "off";
    case SimdLevel::kSse2:
      return "sse2";
    case SimdLevel::kAvx2:
      return "avx2";
  }
  return "?";
}

SimdLevel BestSimdLevel() {
  static const SimdLevel best = [] {
#if defined(TPSTREAM_HAVE_AVX2_TU) && \
    (defined(__x86_64__) || defined(__i386__))
    // __builtin_cpu_supports also checks OS XSAVE state, so a positive
    // answer means the 256-bit register file is actually usable.
    if (__builtin_cpu_supports("avx2")) return SimdLevel::kAvx2;
#endif
    return SimdLevel::kSse2;
  }();
  return best;
}

bool ParseSimdLevel(std::string_view text, SimdLevel* out) {
  if (text == "off") {
    *out = SimdLevel::kOff;
  } else if (text == "sse2") {
    *out = SimdLevel::kSse2;
  } else if (text == "avx2") {
    *out = SimdLevel::kAvx2;
  } else if (text == "native") {
    *out = BestSimdLevel();
  } else {
    return false;
  }
  return true;
}

SimdLevel Effective(SimdLevel requested) {
  const SimdLevel best = BestSimdLevel();
  return requested > best ? best : requested;
}

SimdLevel DefaultSimdLevel() {
  static const SimdLevel level = [] {
    if (const char* env = std::getenv("TPSTREAM_SIMD");
        env != nullptr && *env != '\0') {
      SimdLevel parsed;
      if (ParseSimdLevel(env, &parsed)) return Effective(parsed);
      // Unparsable values fall through to the machine default rather
      // than failing: the env var is a tuning knob, not configuration.
    }
    return BestSimdLevel();
  }();
  return level;
}

const Kernels* KernelsFor(SimdLevel level) {
  switch (Effective(level)) {
    case SimdLevel::kOff:
      break;
    case SimdLevel::kSse2:
      return internal::KernelsSse2();
    case SimdLevel::kAvx2:
#if defined(TPSTREAM_HAVE_AVX2_TU)
      return internal::KernelsAvx2();
#else
      return internal::KernelsSse2();
#endif
  }
  return internal::KernelsOff();
}

}  // namespace tpstream::simd
