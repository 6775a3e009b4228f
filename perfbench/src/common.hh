/**
 * @file
 * Helpers the workload implementations share: modeled-counter
 * snapshots, plan priming, and the seed derivation of every input.
 */

#ifndef PERFBENCH_COMMON_HH
#define PERFBENCH_COMMON_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/compiler.hh"
#include "sim/runtime.hh"
#include "workload.hh"

namespace perfbench
{

/**
 * Modeled-device counters the sim.* metrics are read from: launches,
 * flops and bytes of each kernel category, and modeled time per phase.
 */
struct SimTotals
{
    static constexpr int kCategories = 5;
    double launches[kCategories] = {};
    double flops[kCategories] = {};
    double bytes[kCategories] = {};
    double fwdSec = 0.0;
    double bwdSec = 0.0;
};

/** Counter totals of @p rt (all categories, both phases). */
SimTotals readSim(const hector::sim::Runtime &rt);
/** @p a - @p b, field by field. */
SimTotals subtract(const SimTotals &a, const SimTotals &b);
/** @p a + @p b, field by field. */
SimTotals add(const SimTotals &a, const SimTotals &b);

/**
 * Add the sim.* per-op metrics of @p delta over @p ops ops: launches,
 * flops and bytes (read + written) per category, and the forward and
 * backward modeled time as full-size-equivalent ms (modeled / kScale).
 */
void addSimMetrics(MetricSet &out, const SimTotals &delta, double ops);

/**
 * Price one plan for PlanFacts: time core::compile of @p program,
 * jit::compileModule of its kernels against the empty artifact
 * directory, then (module released) jit::attach from the primed
 * directory.
 */
PlanFacts primePlan(hector::core::Program program,
                    const hector::core::CompileOptions &options);

/**
 * Generator seed of the serving workloads' `am` stand-in. A served
 * dataset is fixed, like the real one, so the workload seed draws only
 * the features, weights and requests. The fullgraph workloads draw
 * their `mag` stand-in from the workload seed: its modeled times depend
 * on the graph alone, so on a fixed graph they would read the same on
 * every seed.
 */
constexpr std::uint64_t kServingGraphSeed = 0x5eed;

/** The C+R options every workload compiles with (Table 5 "C+R"). */
hector::core::CompileOptions crOptions(bool training);

/** A seed for input stream @p stream of workload seed @p seed
 *  (splitmix64, so nearby seeds give unrelated streams). */
std::uint64_t deriveSeed(std::uint64_t seed, std::uint64_t stream);

/** Digest of a tensor's raw float bits, continuing @p h. */
std::uint64_t digestTensor(const hector::tensor::Tensor &t,
                           std::uint64_t h = 0xcbf29ce484222325ull);

/** The workloads (fullgraph.cc, serve_drain.cc, online_multi.cc);
 *  makeFullGraph() makes fullgraph-train with @p train, else
 *  fullgraph-infer. */
std::unique_ptr<Workload> makeFullGraph(std::uint64_t seed, bool train);
std::unique_ptr<Workload> makeServeDrain(std::uint64_t seed);
std::unique_ptr<Workload> makeOnlineMulti(std::uint64_t seed);

} // namespace perfbench

#endif // PERFBENCH_COMMON_HH
