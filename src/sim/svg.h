// SVG trace renderer: draws the robot trajectories of a recorded run as a
// standalone SVG document -- start markers, per-robot polylines, crash marks
// and the gather point.  Dependency-free; used by gather_cli --output svg
// and the examples.
#pragma once

#include <iosfwd>

#include "sim/engine.h"

namespace gather::sim {

/// Render the trajectories of a trace-recording run on a 640 x 640 canvas
/// over a light grid.  Runs without a trace render only the final
/// configuration.
void write_svg(std::ostream& os, const sim_result& result);

}  // namespace gather::sim
