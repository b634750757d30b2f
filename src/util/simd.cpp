#include "util/simd.hpp"

#include <cstdlib>

namespace fdml::simd {

namespace {

bool probe_cpu(Backend b) {
  switch (b) {
    case Backend::kScalar:
      return true;
    case Backend::kSse2:
#if defined(__x86_64__) || defined(__i386__)
      return __builtin_cpu_supports("sse2");
#else
      return false;
#endif
    case Backend::kAvx2:
#if defined(__x86_64__) || defined(__i386__)
      return __builtin_cpu_supports("avx2");
#else
      return false;
#endif
    case Backend::kAvx512:
#if defined(__x86_64__) || defined(__i386__)
      // The kernels use 512-bit FP plus the DQ extension (cvtepu8_epi64 and
      // friends are F, but require DQ-era parts in practice; every CPU with
      // one has both). Probe both so a hypothetical F-only part (Knights
      // Landing) falls back to AVX2.
      return __builtin_cpu_supports("avx512f") &&
             __builtin_cpu_supports("avx512dq");
#else
      return false;
#endif
  }
  return false;
}

bool is_compiled(Backend b) {
  for (Backend c : compiled_backends()) {
    if (c == b) return true;
  }
  return false;
}

/// Widest compiled backend the CPU supports; honors FDML_SIMD in the
/// environment (unknown / unavailable values fall back to auto selection).
Backend resolve_auto() {
  if (const char* env = std::getenv("FDML_SIMD")) {
    const std::string name(env);
    for (Backend b : compiled_backends()) {
      if (name == backend_name(b) && cpu_supports(b)) return b;
    }
  }
  Backend best = Backend::kScalar;
  for (Backend b : compiled_backends()) {
    if (cpu_supports(b) && width(b) > width(best)) best = b;
  }
  return best;
}

Backend& active_state() {
  static Backend active = resolve_auto();
  return active;
}

}  // namespace

const char* backend_name(Backend b) {
  switch (b) {
    case Backend::kScalar:
      return "scalar";
    case Backend::kSse2:
      return "sse2";
    case Backend::kAvx2:
      return "avx2";
    case Backend::kAvx512:
      return "avx512";
  }
  return "scalar";
}

std::vector<Backend> compiled_backends() {
  std::vector<Backend> backends{Backend::kScalar};
#if defined(FDML_HAVE_SSE2)
  backends.push_back(Backend::kSse2);
#endif
#if defined(FDML_HAVE_AVX2)
  backends.push_back(Backend::kAvx2);
#endif
#if defined(FDML_HAVE_AVX512)
  backends.push_back(Backend::kAvx512);
#endif
  return backends;
}

bool cpu_supports(Backend b) { return probe_cpu(b); }

Backend active_backend() { return active_state(); }

bool set_backend(const std::string& name) {
  if (name == "auto") {
    active_state() = resolve_auto();
    return true;
  }
  for (Backend b : compiled_backends()) {
    if (name == backend_name(b)) {
      if (!cpu_supports(b) || !is_compiled(b)) return false;
      active_state() = b;
      return true;
    }
  }
  return false;
}

}  // namespace fdml::simd
