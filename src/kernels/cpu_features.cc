#include "cpu_features.h"

namespace reuse {
namespace kernels {

const char *
archName(KernelArch arch)
{
    switch (arch) {
      case KernelArch::Scalar:
        return "scalar";
      case KernelArch::Blocked:
        return "blocked";
      case KernelArch::Neon:
        return "neon";
      case KernelArch::Avx2:
        return "avx2";
      case KernelArch::Avx512:
        return "avx512";
    }
    return "unknown";
}

bool
archCompiled(KernelArch arch)
{
    switch (arch) {
      case KernelArch::Scalar:
      case KernelArch::Blocked:
        return true;
      case KernelArch::Neon:
#if defined(REUSE_KERNELS_HAVE_NEON)
        return true;
#else
        return false;
#endif
      case KernelArch::Avx2:
#if defined(REUSE_KERNELS_HAVE_AVX2)
        return true;
#else
        return false;
#endif
      case KernelArch::Avx512:
#if defined(REUSE_KERNELS_HAVE_AVX512)
        return true;
#else
        return false;
#endif
    }
    return false;
}

bool
archRunnable(KernelArch arch)
{
    switch (arch) {
      case KernelArch::Scalar:
      case KernelArch::Blocked:
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
    return KernelArch::Blocked;
}

bool
parseKernelArch(std::string_view name, KernelArch &out)
{
    if (name == "scalar")
        out = KernelArch::Scalar;
    else if (name == "blocked")
        out = KernelArch::Blocked;
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
