#include "dispatch.h"

#include <cstdlib>
#include <string>
#include <string_view>

#include "common/logging.h"

namespace reuse {
namespace kernels {

const DeltaDispatch &
defaultDispatch()
{
    static const DeltaDispatch cfg = [] {
        DeltaDispatch c;
        if (const char *env = std::getenv("REUSE_KERNELS")) {
            KernelArch forced;
            if (!parseKernelArch(env, forced)) {
                warn(std::string("REUSE_KERNELS=") + env +
                     " is not a known kernel arch; using " +
                     archName(c.arch));
            } else if (!archCompiled(forced) ||
                       !archRunnable(forced)) {
                warn(std::string("REUSE_KERNELS=") + env +
                     " is not supported on this host/build; using " +
                     archName(c.arch));
            } else {
                c.arch = forced;
            }
        }
        return c;
    }();
    return cfg;
}

} // namespace kernels
} // namespace reuse
