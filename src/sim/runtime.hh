/**
 * @file
 * Simulated GPU runtime: kernel launch accounting plus memory scope.
 *
 * Every execution strategy in the reproduction (Hector-generated code
 * and all baselines) performs its math on the CPU inside
 * Runtime::launch(), which (a) runs the reference computation for
 * bit-exact correctness and (b) charges the device model for the
 * launch. The accumulated modeled time is the "execution time" all
 * benchmarks report.
 */

#ifndef HECTOR_SIM_RUNTIME_HH
#define HECTOR_SIM_RUNTIME_HH

#include <algorithm>
#include <chrono>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/counters.hh"
#include "sim/device.hh"
#include "tensor/memory_tracker.hh"

namespace hector::sim
{

class FaultInjector;

/** One record per launch, kept for detailed breakdown reporting. */
struct LaunchRecord
{
    std::string name;
    KernelCategory category;
    Phase phase;
    double timeSec;
    /** The launch's KernelDesc counts (see KernelDesc). */
    double flops = 0.0;
    double bytesRead = 0.0;
    double bytesWritten = 0.0;
    double atomics = 0.0;
    /**
     * Host wall-clock seconds the kernel body ran on the CPU (the
     * interpreter's real cost, beside the modeled timeSec); 0 for a
     * launch without a body.
     */
    double wallSec = 0.0;
};

/** Per-stream launch accounting (serving/multi-stream execution). */
struct StreamStats
{
    /** Device-side execution time charged to this stream. */
    double execSec = 0.0;
    /** Host-side launch overhead issued for this stream's kernels. */
    double overheadSec = 0.0;
    std::uint64_t launches = 0;
};

/**
 * Plan-lifecycle accounting of the serving layer, recorded against the
 * device the plans execute on. Compiles are first-time plan builds;
 * recompiles are rebuilds forced by plan-cache eviction; evictions
 * count plans dropped under the cache's byte budget. The serving
 * engine records these from its PlanCache stat deltas, so multi-tenant
 * benches can report cache churn per device alongside the kernel
 * counters.
 */
struct PlanEvents
{
    std::uint64_t compiles = 0;
    std::uint64_t recompiles = 0;
    std::uint64_t evictions = 0;
};

/**
 * The multi-stream overlap/serialization rule, shared by
 * Runtime::makespanSec and the serving StreamScheduler so the
 * contention model lives in exactly one place:
 *
 *  - host-serialized time (launch overheads, hostOverhead) never
 *    overlaps;
 *  - device execution overlaps across streams, but serial_fraction of
 *    every kernel contends for shared device resources (DRAM
 *    bandwidth, L2, scheduler slots), so overlapped execution can
 *    never beat serial_fraction * (total exec work);
 *  - one stream degenerates to the fully serial total.
 */
inline double
overlapMakespanSec(double host_sec, double busiest_stream_exec_sec,
                   double total_exec_sec, double serial_fraction)
{
    return host_sec + std::max(busiest_stream_exec_sec,
                               serial_fraction * total_exec_sec);
}

/**
 * Simulated device runtime.
 *
 * Owns a MemoryTracker sized to the scaled device capacity; callers
 * must wrap allocations they want accounted in a memoryScope().
 */
class Runtime
{
  public:
    explicit Runtime(DeviceSpec spec = DeviceSpec{})
        : model_(std::move(spec)), tracker_(model_.spec().scaledCapacityBytes())
    {}

    const DeviceSpec &spec() const { return model_.spec(); }
    const DeviceModel &model() const { return model_; }

    tensor::MemoryTracker &tracker() { return tracker_; }
    const tensor::MemoryTracker &tracker() const { return tracker_; }

    /** RAII scope routing tensor allocations to this device. */
    tensor::TrackerScope
    memoryScope()
    {
        return tensor::TrackerScope(&tracker_);
    }

    /**
     * Launch a kernel: run @p body on the CPU and charge the modeled
     * cost of @p desc. Returns the modeled time in seconds. While
     * launches are recorded, the body is also timed on the host clock
     * (LaunchRecord::wallSec).
     */
    double
    launch(const KernelDesc &desc, const std::function<void()> &body)
    {
        double wall = 0.0;
        if (body) {
            const auto start = std::chrono::steady_clock::now();
            body();
            if (recordLaunches_)
                wall = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - start)
                           .count();
        }
        const double overhead = model_.launchOverheadSec();
        const double exec = model_.kernelExecTime(desc);
        const double t = overhead + exec;
        {
            auto &s = streams_[static_cast<std::size_t>(currentStream_)];
            s.execSec += exec;
            s.overheadSec += overhead;
            s.launches += 1;
        }
        auto &b = counters_.bucket(desc.category, desc.phase);
        b.timeSec += t;
        b.flops += desc.flops;
        b.bytesRead += desc.bytesRead;
        b.bytesWritten += desc.bytesWritten;
        b.atomics += desc.atomics;
        b.launches += 1;
        totalTimeSec_ += t;
        if (recordLaunches_)
            records_.push_back({desc.name, desc.category, desc.phase, t,
                                desc.flops, desc.bytesRead,
                                desc.bytesWritten, desc.atomics, wall});
        return t;
    }

    /** Charge host-side API overhead not tied to a kernel. */
    void
    hostOverhead(double seconds)
    {
        totalTimeSec_ += seconds;
        hostTimeSec_ += seconds;
    }

    double totalTimeMs() const { return totalTimeSec_ * 1e3; }
    double totalTimeSec() const { return totalTimeSec_; }
    double hostTimeMs() const { return hostTimeSec_ * 1e3; }

    /// @name Device identity (observability).
    ///
    /// Which modeled device this runtime represents; DeviceGroup
    /// assigns ids at construction, single-device runtimes stay 0.
    /// Trace spans use it as their pid lane.
    /// @{
    int deviceId() const { return deviceId_; }
    void setDeviceId(int id) { deviceId_ = id; }
    /// @}

    /// @name Multi-stream launch accounting (serving runtime).
    ///
    /// Every launch is charged to the current stream (default 0);
    /// totalTimeSec_ keeps its historical fully-serialized meaning, so
    /// single-stream callers are unaffected. makespanSec() applies the
    /// modeled overlap rule to the per-stream totals.
    /// @{

    /** Route subsequent launches to stream @p s (grows the set). */
    void
    setCurrentStream(int s)
    {
        if (s < 0)
            throw std::runtime_error("Runtime: negative stream id");
        if (static_cast<std::size_t>(s) >= streams_.size())
            streams_.resize(static_cast<std::size_t>(s) + 1);
        currentStream_ = s;
    }

    int currentStream() const { return currentStream_; }

    const std::vector<StreamStats> &streamStats() const { return streams_; }

    /**
     * Modeled completion time of everything launched so far under the
     * multi-stream overlap/serialization rule:
     *
     *  - host work (hostOverhead) and every kernel's launch overhead
     *    are issued by one host thread and serialize across streams;
     *  - device-side execution overlaps across streams, but the
     *    streamSerialFraction of every kernel contends for shared
     *    device resources and serializes, so overlapped execution can
     *    never beat serialFraction * (total exec work);
     *  - a single stream degenerates to the serial total.
     *
     * makespan = host + overheads
     *          + max(busiest stream exec, serialFraction * total exec)
     */
    double
    makespanSec() const
    {
        double overheadSum = 0.0;
        double execSum = 0.0;
        double busiest = 0.0;
        for (const StreamStats &s : streams_) {
            overheadSum += s.overheadSec;
            execSum += s.execSec;
            if (s.execSec > busiest)
                busiest = s.execSec;
        }
        return overlapMakespanSec(hostTimeSec_ + overheadSum, busiest,
                                  execSum, spec().streamSerialFraction);
    }

    double makespanMs() const { return makespanSec() * 1e3; }

    /// @}

    /// @name Monotone virtual clock (online serving).
    ///
    /// Open-loop serving advances this clock as simulated time passes
    /// (request arrivals, batch completions). It is decoupled from the
    /// launch counters: counters accumulate *work*, the clock tracks
    /// *when* the simulation currently is.
    /// @{

    double nowSec() const { return nowSec_; }
    double nowMs() const { return nowSec_ * 1e3; }

    /** Advance the clock to @p t seconds; earlier times are ignored
     *  (the clock never runs backward). */
    void
    advanceTo(double t)
    {
        if (t > nowSec_)
            nowSec_ = t;
    }

    /// @}

    /// @name Fault injection (sim/fault.hh).
    ///
    /// An attached injector models transient output corruption and
    /// whole-device failure for this device; the serving layers
    /// consult it per batch/cycle. nullptr (the default) disables
    /// fault modeling entirely — the hot paths only test the pointer.
    /// The injector must outlive the runtime or be detached.
    /// @{
    void setFaultInjector(FaultInjector *fi) { faultInjector_ = fi; }
    FaultInjector *faultInjector() const { return faultInjector_; }
    /// @}

    const Counters &counters() const { return counters_; }
    PlanEvents &planEvents() { return planEvents_; }
    const PlanEvents &planEvents() const { return planEvents_; }
    const std::vector<LaunchRecord> &records() const { return records_; }

    void setRecordLaunches(bool on) { recordLaunches_ = on; }

    void
    resetCounters()
    {
        counters_.reset();
        totalTimeSec_ = 0.0;
        hostTimeSec_ = 0.0;
        records_.clear();
        tracker_.resetStats();
        streams_.assign(streams_.size(), StreamStats{});
        currentStream_ = 0;
        nowSec_ = 0.0;
    }

  private:
    DeviceModel model_;
    tensor::MemoryTracker tracker_;
    Counters counters_;
    PlanEvents planEvents_;
    std::vector<LaunchRecord> records_;
    std::vector<StreamStats> streams_ = std::vector<StreamStats>(1);
    int currentStream_ = 0;
    int deviceId_ = 0;
    FaultInjector *faultInjector_ = nullptr;
    double totalTimeSec_ = 0.0;
    double hostTimeSec_ = 0.0;
    double nowSec_ = 0.0;
    bool recordLaunches_ = false;
};

} // namespace hector::sim

#endif // HECTOR_SIM_RUNTIME_HH
