/**
 * @file
 * The benchmark's workloads and the settings every one of them pins.
 * README.md beside this directory records why each workload exists and
 * which layers it stresses and bypasses.
 */

#ifndef PERFBENCH_WORKLOAD_HH
#define PERFBENCH_WORKLOAD_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "harness.hh"

namespace perfbench
{

/**
 * Kernel thread pool size (util::setGlobalThreads), fixed. One thread:
 * at two, each parallelFor waits for a condition-variable wake-up of
 * the worker on another vCPU, and on a shared 4-vCPU VM whole runs flip
 * into a slow mode (serve-drain wall p99 2.3 -> 9 ms, throughput
 * -35%) that no run length averages out. README.md has the numbers.
 */
constexpr int kThreads = 1;
/** Dataset scale: the HECTOR_SCALE default, pinned here. */
constexpr double kScale = 1.0 / 256.0;
/** Feature dimension of every model (paper Sec. 4.1). */
constexpr std::int64_t kDim = 64;

/** Facts about one compiled plan, measured while priming the JIT. */
struct PlanFacts
{
    /** core::compile wall time. */
    double compileMs = 0.0;
    /** jit::compileModule against the empty artifact directory. */
    double jitCompileMs = 0.0;
    /** jit::attach against the primed directory (disk hit). */
    double jitLoadMs = 0.0;
    std::size_t kernelsFwd = 0;
    std::size_t kernelsBwd = 0;
};

/** What one timed unit of work produced. */
struct UnitResult
{
    /** Ops the unit completed or attempted (a round, a request). */
    double ops = 0.0;
    /** Ops the serving layer shed, timed out or failed. */
    double failed = 0.0;
    double wallMs = 0.0;
    /**
     * Wall ms of the unit's inner call: serve::Engine::drain() when
     * untraced, the summed layer spans that replace it when traced.
     */
    double innerMs = 0.0;
    /** Wall latency of each op in the unit. */
    std::vector<double> latencyMs;
    /** Modeled latency of each op, full-size-equivalent ms. */
    std::vector<double> modelLatencyMs;
    /** Digest of each op's outputs, compared with the seed
     *  interpreter's digests of the same op. */
    std::vector<std::uint64_t> digests;
    /** Deterministic serving report of the unit ("" when none). */
    std::string report;
};

/** Which run a workload is set up for. */
enum class Phase
{
    /** The measured run: the program's own entry points. */
    Untraced,
    /** The traced run: layer functions called and timed one by one. */
    Traced,
    /** The seed-interpreter reference (util::setSeedKernelMode), with
     *  the serving layer's stock policy and no benchmark wrapper. */
    Reference,
};

class Workload
{
  public:
    virtual ~Workload() = default;

    /**
     * Compile every plan the workload runs, price the JIT against the
     * (still empty) artifact directory, and leave the directory primed.
     */
    virtual std::vector<PlanFacts> prime() = 0;
    /**
     * Drop all state and build it again from the seed for @p phase:
     * graph, features, weights, plans with JIT modules loaded from the
     * primed directory, then warm-up units. Every phase replays the
     * same op stream from its start.
     */
    virtual void setup(Phase phase) = 0;
    /** Run one unit; @p spans non-null selects the traced path, which
     *  calls each layer's public functions itself and times them. */
    virtual UnitResult runUnit(SpanLog *spans) = 0;
    /** Units over which the deterministic metrics are taken. */
    virtual int prefixUnits() const = 0;
    /**
     * Units per epoch, at least prefixUnits(). A phase runs whole
     * epochs, each a setup() and then this many units, so every epoch
     * replays the same ops and one epoch of the reference checks them
     * all.
     */
    virtual int epochUnits() const = 0;
    /** Every unit runs on the same inputs, so the reference needs only
     *  the prefix and its last unit checks every later one. */
    virtual bool unitsRepeat() const { return false; }
    /**
     * Deterministic metrics accumulated since setup(): modeled device
     * counters, memory and SLO tallies, serving counts. Called once,
     * right after the prefixUnits()-th unit.
     */
    virtual void snapshot(MetricSet &out) const = 0;
};

/** The workload named @p name (nullptr when unknown). */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       std::uint64_t seed);

} // namespace perfbench

#endif // PERFBENCH_WORKLOAD_HH
