#include "p4lru/replay/affinity.hpp"

#if defined(__linux__)
#include <sched.h>
#include <unistd.h>
#endif

namespace p4lru::replay {

std::size_t pinnable_cpus() {
#if defined(__linux__)
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
        const int n = CPU_COUNT(&allowed);
        if (n > 0) return static_cast<std::size_t>(n);
    }
    const long n = sysconf(_SC_NPROCESSORS_ONLN);
    return n > 0 ? static_cast<std::size_t>(n) : 1;
#else
    return 1;
#endif
}

}  // namespace p4lru::replay
