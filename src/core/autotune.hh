/**
 * @file
 * Configuration autotuner (the paper's Sec. 4.3 / Sec. 6 future work).
 *
 * The evaluation finds that no fixed combination of compact
 * materialization and linear operator reordering wins everywhere and
 * estimates a further 1.06-1.33x from always choosing the best one.
 * This module implements that selection: it compiles a model under
 * every candidate configuration (optionally sweeping GEMM schedules),
 * measures one run on the target graph with the device model, and
 * returns the winner.
 */

#ifndef HECTOR_CORE_AUTOTUNE_HH
#define HECTOR_CORE_AUTOTUNE_HH

#include <functional>
#include <string>
#include <vector>

#include "core/compiler.hh"
#include "graph/compaction.hh"
#include "graph/hetero_graph.hh"
#include "sim/device.hh"
#include "tensor/tensor.hh"

namespace hector::core
{

/** One measured candidate. */
struct AutotuneEntry
{
    CompileOptions options;
    std::string label;
    double timeMs = 0.0;
    std::size_t peakBytes = 0;
    bool oom = false;
};

/** Sweep result; entries are in evaluation order. */
struct AutotuneReport
{
    std::vector<AutotuneEntry> entries;
    /** Index of the fastest non-OOM entry. */
    std::size_t bestIndex = 0;

    const AutotuneEntry &
    best() const
    {
        return entries.at(bestIndex);
    }
};

/** What the autotuner explores. */
struct AutotuneSpace
{
    /** Try all four C / R combinations (Table 5 space). */
    bool optimizationCombos = true;
    /** Additionally sweep GEMM schedules on the winning combo. */
    bool gemmSchedules = false;
    /** Candidates sweep blocking: tile edge, coarsening, bounds. */
    std::vector<GemmSchedule> schedules = {
        {16, 1, false}, {16, 2, false}, {16, 4, true},
        {8, 1, false},  {16, 4, false}, {8, 2, false}};
    bool training = false;
    sim::DeviceSpec device;
};

/**
 * Autotune @p program on @p g.
 *
 * @param make_weights returns a fresh (or shared-storage) weight map
 *        per trial; trials never mutate weights in inference mode
 * @param feature input features
 */
AutotuneReport
autotune(const Program &program, const graph::HeteroGraph &g,
         const std::function<std::map<std::string, tensor::Tensor>()>
             &make_weights,
         const tensor::Tensor &feature, const AutotuneSpace &space);

/** Canonical label of a GEMM schedule, e.g. "t16c4b". */
std::string scheduleLabel(const GemmSchedule &sched);

/**
 * Schedule-only sweep for the serving runtime: measure @p base and
 * then @p base with each candidate GEMM schedule substituted, all on
 * @p g (typically a representative sampled subgraph), and return the
 * report (entry 0 is the base configuration). Unlike autotune(), the
 * optimization combo is fixed — the serving engine tunes the schedule
 * of an already-chosen variant configuration, then caches the winner
 * keyed by (variant, shape bucket) so an evicted plan recompiles to
 * the identical schedule without re-tuning.
 */
AutotuneReport
autotuneSchedules(const Program &program, const graph::HeteroGraph &g,
                  const std::function<
                      std::map<std::string, tensor::Tensor>()> &make_weights,
                  const tensor::Tensor &feature, const CompileOptions &base,
                  const std::vector<GemmSchedule> &schedules,
                  const sim::DeviceSpec &device);

} // namespace hector::core

#endif // HECTOR_CORE_AUTOTUNE_HH
