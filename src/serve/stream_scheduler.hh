/**
 * @file
 * Multi-stream scheduler for the serving runtime.
 *
 * Multiplexes micro-batch executions across N simulated device
 * streams. Each unit of work runs (for real, on the CPU) with the
 * runtime's current stream set, so sim::Runtime's per-stream launch
 * accounting records which stream every kernel was issued to; the
 * scheduler then prices the whole drain cycle with the runtime's
 * overlap/serialization rule (host launch overheads serialize, device
 * execution overlaps up to the streamSerialFraction floor — see
 * Runtime::makespanSec) and derives per-batch completion times for
 * latency reporting.
 */

#ifndef HECTOR_SERVE_STREAM_SCHEDULER_HH
#define HECTOR_SERVE_STREAM_SCHEDULER_HH

#include <functional>
#include <vector>

#include "sim/runtime.hh"

namespace hector::serve
{

/** Accounting for one scheduled unit of work (one micro-batch). */
struct ScheduledBatch
{
    int stream = 0;
    /** Host-serialized time: launch overheads + hostOverhead calls. */
    double overheadSec = 0.0;
    /** Device-side execution time of this batch's kernels. */
    double execSec = 0.0;
    /** Modeled completion time within the drain cycle. */
    double completionSec = 0.0;
};

/** Overhead/exec cost accrued by one measured run on a stream. */
struct StreamRunCost
{
    /** Host-serialized time: launch overheads + hostOverhead calls. */
    double overheadSec = 0.0;
    /** Device-side execution time of the run's kernels. */
    double execSec = 0.0;
};

/**
 * Run @p work with @p rt's current stream set to @p stream and return
 * the cost it accrued there (the stream's launch-overhead and
 * kernel-exec deltas plus the host-serialized time delta), leaving the
 * runtime back on the default stream. The one place the per-batch cost
 * measurement convention lives: StreamScheduler::run and the shared
 * incremental serve and hedge (ServingCore::serveOldestOf, hedgeHead)
 * all price batches through it.
 */
StreamRunCost runOnStream(sim::Runtime &rt, int stream,
                          const std::function<void()> &work);

class StreamScheduler
{
  public:
    /**
     * @param rt          runtime to account against
     * @param num_streams streams to multiplex over (>= 1)
     */
    StreamScheduler(sim::Runtime &rt, int num_streams);

    /**
     * Run @p work on the least-loaded stream. The callable must issue
     * all of its kernels through the scheduler's runtime; its launch
     * accounting is captured (and returned) as one ScheduledBatch.
     */
    ScheduledBatch run(const std::function<void()> &work);

    int numStreams() const { return numStreams_; }
    const std::vector<ScheduledBatch> &batches() const { return batches_; }

    /**
     * Modeled completion time of everything run so far:
     *   total host time + max(busiest stream, serialFraction * total).
     * Identical to Runtime::makespanSec when the runtime was reset at
     * scheduler construction; kept here per-cycle so a long-lived
     * runtime can serve many drain cycles.
     */
    double makespanSec() const;

    /**
     * Per-batch completion times, uniformly stretched so the last
     * completion equals makespanSec() — the cross-stream contention
     * penalty is distributed proportionally over the timeline.
     */
    std::vector<double> completionTimes() const;

  private:
    sim::Runtime &rt_;
    int numStreams_;
    /** Device busy-until per stream (raw, pre-contention). */
    std::vector<double> streamBusySec_;
    /** Host-serialized clock (launch overheads + host work). */
    double hostClockSec_ = 0.0;
    std::vector<ScheduledBatch> batches_;
};

} // namespace hector::serve

#endif // HECTOR_SERVE_STREAM_SCHEDULER_HH
