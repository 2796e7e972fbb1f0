#pragma once

#include <cstddef>

#include "sim/plan.h"
#include "sim/simulator.h"
#include "topology/topology.h"

/// Pipelined broadcasting: the source injects a stream of packets, one
/// every `interval` slots, all forwarded under the same relay plan.
///
/// The paper evaluates a single broadcast; a deployed WSN broadcasts
/// continuously, and the interesting figure of merit is the *pipeline
/// period*: the smallest injection interval at which consecutive
/// wavefronts never interfere (every packet still reaches everyone).
/// Streams run through Simulator's one slot loop; the stream rules,
/// PipelineOptions and PipelineOutcome are in sim/simulator.h.
namespace wsn {

/// Runs the pipelined broadcast to completion.  Deterministic.
[[nodiscard]] PipelineOutcome simulate_pipeline(const Topology& topo,
                                                const RelayPlan& plan,
                                                const PipelineOptions& options);

/// The smallest interval in [1, `limit`] at which every packet of a
/// `packets`-deep pipeline reaches every node, or 0 if none does.  Linear
/// scan: interference is not monotone in the interval, so each value is
/// tested directly.
[[nodiscard]] Slot min_pipeline_interval(const Topology& topo,
                                         const RelayPlan& plan,
                                         std::size_t packets, Slot limit);

}  // namespace wsn
