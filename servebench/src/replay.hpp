// Layer replays for the traced run: direct, individually timed calls into
// each layer's public functions on the workload's own operands and plans
// (SAGE selection, conversion, the exec entry points, Backend::run, the
// DeviceRing). Runs after the traffic phases, outside every timed window.
#pragma once

#include <vector>

#include "runtime/plan_cache.hpp"
#include "util.hpp"
#include "workload.hpp"

namespace servebench {

struct PlannedShape {
  Workload::Shape shape;
  mt::runtime::PlanCache::PlanPtr plan;
};

// Lower-case metric spelling of a kernel / format name.
std::string lower(std::string_view s);

// Replays every layer over `shapes` and records the per-layer replay
// metrics (sage.*, convert.<mcf>.*, kernel.*, backend.*, ring.*) into
// `out`. `server` is the configuration of the server (or shard) under
// test: its planning model and device options.
void replay_layers(const std::vector<PlannedShape>& shapes,
                   const mt::runtime::ServerOptions& server, MetricSet& out);

}  // namespace servebench
