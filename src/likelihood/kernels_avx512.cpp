// AVX-512 (W = 8) kernel backend. Compiled with -mavx512f -mavx512dq when
// FDML_SIMD allows; the TU is empty otherwise. Runtime dispatch
// (simd::cpu_supports probes avx512f+dq) keeps these instructions off CPUs
// that lack them.
// No FMA: see the determinism contract in util/simd.hpp.
#if defined(FDML_HAVE_AVX512)

#include "likelihood/kernels_body.hpp"

namespace fdml::detail {

const KernelTable* kernel_table_avx512() {
  static const KernelTable table =
      make_kernel_table<8>("avx512", simd::Backend::kAvx512);
  return &table;
}

}  // namespace fdml::detail

#endif  // FDML_HAVE_AVX512
