// Training-history export: per-episode metrics as CSV, for plotting the
// paper's training-curve figures (Figs. 4-5) from any run.
#ifndef CEWS_CORE_TRAINING_LOG_H_
#define CEWS_CORE_TRAINING_LOG_H_

#include <string>
#include <vector>

#include "agents/trainer_config.h"
#include "common/status.h"

namespace cews::core {

/// Renders a training history as CSV with columns
/// episode,kappa,xi,rho,extrinsic_reward,intrinsic_reward,
/// wall_seconds,steps_per_sec (the first six columns are a stable prefix).
std::string HistoryToCsv(const std::vector<agents::EpisodeRecord>& history);

/// Writes HistoryToCsv to `path`.
Status WriteHistoryCsv(const std::vector<agents::EpisodeRecord>& history,
                       const std::string& path);

/// Trailing-window moving average over one metric of the history.
/// `pick` selects the metric; window must be >= 1.
std::vector<double> MovingAverage(
    const std::vector<agents::EpisodeRecord>& history, int window,
    double (*pick)(const agents::EpisodeRecord&));

}  // namespace cews::core

#endif  // CEWS_CORE_TRAINING_LOG_H_
