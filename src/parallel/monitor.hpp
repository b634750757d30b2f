// The monitor role (the paper's optional fourth module). In the paper it fed
// the foreman's events to a real-time viewer; here every one of those facts
// is a foreman.* counter in the MetricsRegistry, and a run's timeline is its
// trace (trace_report computes utilization and barrier slack from it). The
// rank keeps its slot so the paper's P-3 worker accounting, the simulator
// and the socket fabric size stay as they are; the role only waits for the
// foreman's shutdown.
#pragma once

#include "comm/transport.hpp"

namespace fdml {

/// Blocks until kShutdown arrives or the fabric closes.
void monitor_main(Transport& transport);

}  // namespace fdml
