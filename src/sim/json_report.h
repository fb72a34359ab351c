// Machine-readable run reports: a small, dependency-free JSON writer for
// simulation results and trace analytics, used by gather_cli --output json
// and by downstream tooling (plotting notebooks, dashboards).
#pragma once

#include <iosfwd>

#include "sim/analysis.h"
#include "sim/engine.h"

namespace gather::sim {

/// Serialize a run summary (status, rounds, crashes, gather point, checks,
/// class-phase decomposition and the potential report) as a single JSON
/// object.  When the result carries a trace, per-round metrics are included
/// under "rounds".
void write_json_report(std::ostream& os, const sim_result& result);

}  // namespace gather::sim
