// CPU budget of the calling process: how many CPUs its affinity mask lets
// it run on.  Benchmarks size their shard counts and thread sweeps by it, so
// a run under taskset or a cgroup cpuset never oversubscribes the CPUs it
// was given.
//
// Linux reads the affinity mask (sched_getaffinity); elsewhere the answer
// is 1.
#pragma once

#include <cstddef>

namespace p4lru::replay {

/// CPUs the calling process may run on (affinity-mask aware on Linux,
/// 1 elsewhere).
[[nodiscard]] std::size_t pinnable_cpus();

}  // namespace p4lru::replay
