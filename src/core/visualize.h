// SVG rendering of scenarios, trajectories (Fig. 2c) and curiosity heat
// maps (Fig. 9) — publication-style artifacts straight from the library.
#ifndef CEWS_CORE_VISUALIZE_H_
#define CEWS_CORE_VISUALIZE_H_

#include <string>
#include <vector>

#include "agents/trainer_config.h"
#include "common/status.h"
#include "env/env.h"

namespace cews::core {

/// Renders the map (obstacles grey, PoIs gold dots scaled by value,
/// stations green squares) plus one colored polyline per worker trajectory.
std::string TrajectorySvg(
    const env::Map& map,
    const std::vector<std::vector<env::Position>>& trajectories);

/// Renders one heat-map snapshot as a grid of brightness-scaled cells with
/// the map's obstacles overlaid.
std::string HeatmapSvg(const env::Map& map,
                       const agents::HeatmapSnapshot& snapshot, int grid);

/// Writes TrajectorySvg to `path`.
Status WriteTrajectorySvg(
    const env::Map& map,
    const std::vector<std::vector<env::Position>>& trajectories,
    const std::string& path);

/// Writes HeatmapSvg to `path`.
Status WriteHeatmapSvg(const env::Map& map,
                       const agents::HeatmapSnapshot& snapshot, int grid,
                       const std::string& path);

/// Terminal rendering of a map: '#' obstacles, '*' PoIs, 'C' stations,
/// 'W' worker spawns, '.' free space. `columns` sets the raster width;
/// rows follow the map's aspect ratio. Top row = largest y.
std::string AsciiMap(const env::Map& map, int columns = 48);

}  // namespace cews::core

#endif  // CEWS_CORE_VISUALIZE_H_
