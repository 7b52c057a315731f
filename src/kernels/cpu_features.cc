#include "cpu_features.h"

#include "kernels/simd_kernels.h"

namespace reuse {
namespace kernels {

const char *
archName(KernelArch arch)
{
    switch (arch) {
      case KernelArch::Scalar:
        return "scalar";
      case KernelArch::Neon:
        return "neon";
      case KernelArch::Avx2:
        return "avx2";
      case KernelArch::Avx512:
        return "avx512";
    }
    return "unknown";
}

const ArchKernels *
archKernels(KernelArch arch)
{
    switch (arch) {
#if defined(REUSE_KERNELS_HAVE_NEON)
      case KernelArch::Neon:
        return &kNeonKernels;
#endif
#if defined(REUSE_KERNELS_HAVE_AVX2)
      case KernelArch::Avx2:
        return &kAvx2Kernels;
#endif
#if defined(REUSE_KERNELS_HAVE_AVX512)
      case KernelArch::Avx512:
        return &kAvx512Kernels;
#endif
      default:
        return nullptr;
    }
}

bool
archCompiled(KernelArch arch)
{
    return arch == KernelArch::Scalar || archKernels(arch) != nullptr;
}

bool
archRunnable(KernelArch arch)
{
    switch (arch) {
      case KernelArch::Scalar:
        return true;
      case KernelArch::Neon:
        // NEON is architecturally guaranteed on AArch64, so a build
        // that compiled the NEON TU can always run it.
#if defined(__aarch64__)
        return true;
#else
        return false;
#endif
      case KernelArch::Avx2:
#if defined(__x86_64__) || defined(__i386__)
        return __builtin_cpu_supports("avx2") != 0;
#else
        return false;
#endif
      case KernelArch::Avx512:
        // avx512f covers every instruction the kernels use (compare
        // masks, compress-store, masked loads/stores, roundscale); the
        // builtin also folds in the OS XSAVE state check.
#if defined(__x86_64__) || defined(__i386__)
        return __builtin_cpu_supports("avx512f") != 0;
#else
        return false;
#endif
    }
    return false;
}

KernelArch
bestSupportedArch()
{
    for (KernelArch arch :
         {KernelArch::Avx512, KernelArch::Avx2, KernelArch::Neon}) {
        if (archCompiled(arch) && archRunnable(arch))
            return arch;
    }
    return KernelArch::Scalar;
}

bool
parseKernelArch(std::string_view name, KernelArch &out)
{
    if (name == "scalar")
        out = KernelArch::Scalar;
    else if (name == "neon")
        out = KernelArch::Neon;
    else if (name == "avx2")
        out = KernelArch::Avx2;
    else if (name == "avx512")
        out = KernelArch::Avx512;
    else
        return false;
    return true;
}

} // namespace kernels
} // namespace reuse
