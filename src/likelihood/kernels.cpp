// Runtime dispatch over the compiled kernel backends (see kernels.hpp).
#include "likelihood/kernels.hpp"

namespace fdml {

namespace detail {
const KernelTable* kernel_table_scalar();
#if defined(FDML_HAVE_SSE2)
const KernelTable* kernel_table_sse2();
#endif
#if defined(FDML_HAVE_AVX2)
const KernelTable* kernel_table_avx2();
#endif
#if defined(FDML_HAVE_AVX512)
const KernelTable* kernel_table_avx512();
#endif
}  // namespace detail

const KernelTable* kernel_table(simd::Backend backend) {
  switch (backend) {
    case simd::Backend::kScalar:
      return detail::kernel_table_scalar();
    case simd::Backend::kSse2:
#if defined(FDML_HAVE_SSE2)
      return detail::kernel_table_sse2();
#else
      return nullptr;
#endif
    case simd::Backend::kAvx2:
#if defined(FDML_HAVE_AVX2)
      return detail::kernel_table_avx2();
#else
      return nullptr;
#endif
    case simd::Backend::kAvx512:
#if defined(FDML_HAVE_AVX512)
      return detail::kernel_table_avx512();
#else
      return nullptr;
#endif
  }
  return nullptr;
}

const KernelTable& active_kernel_table() {
  if (const KernelTable* table = kernel_table(simd::active_backend())) {
    return *table;
  }
  return *detail::kernel_table_scalar();
}

std::vector<const KernelTable*> compiled_kernel_tables() {
  std::vector<const KernelTable*> tables;
  for (simd::Backend b : simd::compiled_backends()) {
    if (const KernelTable* table = kernel_table(b)) tables.push_back(table);
  }
  return tables;
}

}  // namespace fdml
