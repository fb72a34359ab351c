#include "sim/svg.h"

#include <algorithm>
#include <cmath>
#include <ostream>
#include <string>
#include <vector>

namespace gather::sim {

namespace {

constexpr int kSize = 640;        ///< square canvas, pixels
constexpr double kMargin = 24.0;  ///< pixels around the bounding box

/// Categorical palette (colorblind-safe Okabe-Ito), cycled per robot.
const char* kPalette[] = {"#0072B2", "#E69F00", "#009E73", "#CC79A7",
                          "#56B4E9", "#D55E00", "#F0E442", "#999999"};

struct mapper {
  double lo_x, lo_y, scale, height, margin;

  double x(double wx) const { return margin + (wx - lo_x) * scale; }
  double y(double wy) const { return height - margin - (wy - lo_y) * scale; }
};

}  // namespace

void write_svg(std::ostream& os, const sim_result& result) {
  // Collect every drawn point to size the viewport.
  std::vector<geom::vec2> all;
  for (const round_record& rec : result.trace) {
    all.insert(all.end(), rec.positions.begin(), rec.positions.end());
  }
  all.insert(all.end(), result.final_positions.begin(),
             result.final_positions.end());
  if (all.empty()) {
    os << "<svg xmlns='http://www.w3.org/2000/svg'/>\n";
    return;
  }
  double lo_x = all[0].x, hi_x = all[0].x, lo_y = all[0].y, hi_y = all[0].y;
  for (const geom::vec2& p : all) {
    lo_x = std::min(lo_x, p.x); hi_x = std::max(hi_x, p.x);
    lo_y = std::min(lo_y, p.y); hi_y = std::max(hi_y, p.y);
  }
  const double span = std::max({hi_x - lo_x, hi_y - lo_y, 1e-9});
  const mapper m{lo_x, lo_y, (kSize - 2.0 * kMargin) / span,
                 static_cast<double>(kSize), kMargin};

  os << "<svg xmlns='http://www.w3.org/2000/svg' width='" << kSize
     << "' height='" << kSize << "' viewBox='0 0 " << kSize << " " << kSize
     << "'>\n";
  os << "  <rect width='100%' height='100%' fill='white'/>\n";

  const double step = std::pow(10.0, std::floor(std::log10(span / 2.0)));
  os << "  <g stroke='#eeeeee' stroke-width='1'>\n";
  for (double gx = std::ceil(lo_x / step) * step; gx <= hi_x; gx += step) {
    os << "    <line x1='" << m.x(gx) << "' y1='" << m.y(lo_y) << "' x2='"
       << m.x(gx) << "' y2='" << m.y(hi_y) << "'/>\n";
  }
  for (double gy = std::ceil(lo_y / step) * step; gy <= hi_y; gy += step) {
    os << "    <line x1='" << m.x(lo_x) << "' y1='" << m.y(gy) << "' x2='"
       << m.x(hi_x) << "' y2='" << m.y(gy) << "'/>\n";
  }
  os << "  </g>\n";

  const std::size_t n = result.final_positions.size();
  // Trajectories.
  for (std::size_t i = 0; i < n; ++i) {
    const char* color = kPalette[i % (sizeof kPalette / sizeof *kPalette)];
    if (!result.trace.empty()) {
      os << "  <polyline fill='none' stroke='" << color
         << "' stroke-width='1.5' stroke-opacity='0.7' points='";
      for (const round_record& rec : result.trace) {
        os << m.x(rec.positions[i].x) << "," << m.y(rec.positions[i].y) << " ";
      }
      os << m.x(result.final_positions[i].x) << ","
         << m.y(result.final_positions[i].y);
      os << "'/>\n";
      // Start marker (square).
      const geom::vec2 s = result.trace.front().positions[i];
      os << "  <rect x='" << m.x(s.x) - 3 << "' y='" << m.y(s.y) - 3
         << "' width='6' height='6' fill='" << color << "'/>\n";
    }
    // Final marker: circle for live, X for crashed.
    const geom::vec2 f = result.final_positions[i];
    const bool live = i < result.final_live.size() && result.final_live[i];
    if (live) {
      os << "  <circle cx='" << m.x(f.x) << "' cy='" << m.y(f.y)
         << "' r='4' fill='" << color << "'/>\n";
    } else {
      const double cx = m.x(f.x), cy = m.y(f.y);
      os << "  <g stroke='" << color << "' stroke-width='2'>"
         << "<line x1='" << cx - 4 << "' y1='" << cy - 4 << "' x2='" << cx + 4
         << "' y2='" << cy + 4 << "'/>"
         << "<line x1='" << cx - 4 << "' y1='" << cy + 4 << "' x2='" << cx + 4
         << "' y2='" << cy - 4 << "'/></g>\n";
    }
  }

  if (result.status == sim_status::gathered) {
    os << "  <circle cx='" << m.x(result.gather_point.x) << "' cy='"
       << m.y(result.gather_point.y)
       << "' r='8' fill='none' stroke='black' stroke-width='1.5' "
          "stroke-dasharray='3,2'/>\n";
  }
  os << "</svg>\n";
}

}  // namespace gather::sim
