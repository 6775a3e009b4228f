/**
 * @file
 * The benchmark driver: argument parsing, the untraced, traced and
 * reference phases, output and determinism checks, and the result.
 */

#ifndef PERFBENCH_DRIVER_HH
#define PERFBENCH_DRIVER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "workload.hh"

namespace perfbench
{

/** A metric the result must carry, with its unit (BENCHMARK.json). */
struct DeclaredMetric
{
    std::string name;
    std::string unit;
};

struct RunOptions
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Seconds-long run for tests: one epoch per phase. */
    bool smoke = false;
    /** JIT artifact directory owned by this run (must be empty). */
    std::string jitDir;
    /** The metrics to report (empty: every metric measured). */
    std::vector<DeclaredMetric> metrics;
};

/**
 * Parse `--workload W --seed N --seconds S --trace 0|1 --jit-dir D
 * [--metrics name:unit,...] [--smoke]`. Returns "" on success, else
 * the reason.
 */
std::string parseArgs(const std::vector<std::string> &args,
                      RunOptions &out);

/**
 * Ops attempted and failed in @p phase, checked against @p reference
 * (the seed interpreter's run of the same units). An op fails when the
 * serving layer failed it (UnitResult::failed) or when its output
 * digest differs from the reference's; a unit whose digest count or
 * serving report differs, or that has no reference, fails all its ops.
 * A phase of whole epochs of @p epoch units (0: one epoch) checks its
 * i-th unit against the reference's (i mod epoch)-th. With @p repeat
 * (Workload::unitsRepeat) units past the reference's end are checked
 * against its last unit.
 */
OpCount countOps(const std::vector<UnitResult> &phase,
                 const std::vector<UnitResult> &reference,
                 std::size_t epoch = 0, bool repeat = false);

/** Run the benchmark; prints the result and returns the exit code. */
int runBenchmark(const RunOptions &opts);

} // namespace perfbench

#endif // PERFBENCH_DRIVER_HH
