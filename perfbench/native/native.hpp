// Per-layer measurements shared by pb_native's traced runs and its probe
// mode.  Every number is taken from the benchmark's own code around calls
// into robmon's public functions; nothing here reaches inside src/.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "bench_common.hpp"
#include "runtime/checker_pool.hpp"
#include "runtime/robust_monitor.hpp"

namespace pb {

/// Costs measured against a traced run's own rig after its workload ends:
/// RobustMonitor::snapshot, the wait-for pass over every monitor's
/// snapshot, and the lock-order pass over the relation the run recorded.
void emit_layer_costs(Json& out, robmon::rt::CheckerPool& pool,
                      std::vector<std::unique_ptr<robmon::rt::RobustMonitor>>& monitors);

/// The component probes (pathexpr, trace, core, runtime and interpose
/// layers), each a median over batches.  `shim_rate` is the workload's
/// measured shim ops/s, at which the backpressure probe is driven.
void run_probes(Json& out, std::uint64_t seed, double shim_rate);

}  // namespace pb
