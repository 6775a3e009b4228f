/**
 * @file
 * Online arrival serving: open-loop load, deadline SLOs, adaptive
 * micro-batching.
 *
 * PR 1's ServingSession models a closed cycle: submit everything, then
 * drain. A production deployment instead faces an *open loop* — the
 * world keeps issuing requests at its own rate whether or not the
 * server keeps up — and is judged on arrival-relative tail latency and
 * deadline attainment, not just peak throughput. This module adds that
 * layer on the simulated clock:
 *
 *  - LoadGenerator draws seeded Poisson inter-arrival times (inverse
 *    CDF over a raw mt19937_64 stream, so the sequence is bit-stable
 *    across platforms and scales exactly as 1/rate for a fixed seed);
 *    an optional two-state MMPP mode (ServingConfig::mmpp) modulates
 *    the rate between baseline and burst states for bursty traffic,
 *    drawn from the same seeded stream;
 *  - OnlineServer serves an Engine in timed ticks, one lane per
 *    variant (a ServingSession is the one-lane case): arrivals are
 *    admitted as the host clock passes them (each paying its modeled
 *    host-to-device transfer), one micro-batch is issued per tick, and
 *    completions are gated on host serialization, stream
 *    availability, and the shared-resource serial fraction — the same
 *    overlap rule as sim::Runtime::makespanSec, applied per batch;
 *  - every batching / admission / lane-ordering decision is delegated
 *    to a SchedulerPolicy (serve/scheduler_policy.hh): "adaptive"
 *    (EDF interleave + deadline-budget AdaptiveBatcher, the default),
 *    "fixed" (classic wait-to-fill — matches adaptive throughput
 *    under saturation but pays brutal fill-wait latency at low load),
 *    "wfq" (priority tiers + weighted-fair tenant sharing), or any
 *    registered custom policy. Admission control (ServingConfig::
 *    maxQueueDepth + ShedMode) sheds deterministically at the bound,
 *    so p99 of admitted requests stays bounded under overload instead
 *    of growing with the queue.
 *
 * Constructed over a sim::DeviceGroup instead of a single Runtime, the
 * server drives a ShardedSession: arrivals are admitted on the shared
 * (PCIe) host clock and routed to their home shard, each device issues
 * batches on its own driver thread and streams, batch execution is
 * additionally gated on the halo exchange over the modeled
 * interconnect, and results all-gather onto device 0. All three modes
 * run one tick loop; what differs between one device and a group sits
 * behind one seam, OnlineServer::Devices.
 */

#ifndef HECTOR_SERVE_ONLINE_HH
#define HECTOR_SERVE_ONLINE_HH

#include <cstdint>
#include <memory>
#include <random>
#include <stdexcept>
#include <vector>

#include "serve/engine.hh"
#include "serve/scheduler_policy.hh"
#include "serve/session.hh"
#include "serve/sharded.hh"

namespace hector::serve
{

/**
 * Open-loop Poisson arrival process: @p count arrivals at @p rate
 * requests per simulated second. Deterministic under a fixed seed, and
 * for equal seeds the arrival times scale exactly by rate (gaps are
 * u_i / rate with a rate-independent u_i sequence).
 *
 * With an enabled MmppSpec the process is a two-state Markov-modulated
 * Poisson: gaps are drawn at the current state's rate (baseline rate
 * or rate x burstRateMultiplier), and after each arrival one extra
 * uniform from the same seeded stream decides the state transition —
 * still bit-stable across platforms, thread counts and reruns.
 *
 * With an enabled DiurnalSpec the instantaneous rate is additionally
 * modulated sinusoidally — rate(t) = base x (1 + amplitude x
 * sin(2 pi t / period)) — composing with the MMPP burst multiplier;
 * disabled, the gap computation is the exact pre-diurnal expression,
 * so existing arrival sequences stay bit-identical.
 *
 * Trace-replay mode (the vector ctor / loadTrace()) bypasses the RNG
 * entirely and replays a recorded, non-decreasing timestamp sequence —
 * the same open-loop interface over production traces.
 */
class LoadGenerator
{
  public:
    LoadGenerator(double rate_per_sec, std::size_t count,
                  std::uint64_t seed, const MmppSpec &mmpp = {},
                  const DiurnalSpec &diurnal = {});

    /** Trace replay: arrivals at exactly @p times_sec (non-decreasing,
     *  non-negative; throws std::invalid_argument otherwise). */
    explicit LoadGenerator(std::vector<double> times_sec);

    /**
     * Parse an arrival-trace file: one non-negative timestamp (seconds)
     * per line, '#'-prefixed and blank lines skipped. Throws
     * std::runtime_error on an unreadable file or malformed line.
     */
    static std::vector<double> loadTrace(const std::string &path);

    bool done() const { return left_ == 0; }
    std::size_t remaining() const { return left_; }
    /** In the MMPP burst state (always false for pure Poisson). */
    bool inBurst() const { return burst_; }

    /** Absolute time of the next arrival; call only when !done(). */
    double peekSec() const;

    /** Consume and return the next arrival's absolute time. */
    double next();

    /** The whole arrival sequence, for tests and sweeps. */
    static std::vector<double> arrivals(double rate_per_sec,
                                        std::size_t count,
                                        std::uint64_t seed,
                                        const MmppSpec &mmpp = {});

  private:
    double ratePerSec_;
    std::size_t left_;
    std::mt19937_64 rng_;
    double nextSec_ = 0.0;
    MmppSpec mmpp_{};
    DiurnalSpec diurnal_{};
    bool burst_ = false;
    /** Trace-replay mode: arrivals come from trace_, not the RNG. */
    std::vector<double> trace_;
    std::size_t traceIdx_ = 0;

    double nextU();
    void advance();
};

/** Offered load of one engine variant in a multi-tenant run. */
struct VariantLoad
{
    /** Name the variant was registered under (Engine registry). */
    std::string variant;
    /** Offered load in requests per simulated second. */
    double ratePerSec = 1000.0;
    /** Total arrivals of this variant in the run. */
    std::size_t numRequests = 32;
    /** Seed of this variant's Poisson arrival process. */
    std::uint64_t arrivalSeed = 0xa223;
};

/** Knobs of one open-loop serving run. */
struct OnlineConfig
{
    /** Session knobs; deadlineMs and maxBatch are read from here. */
    ServingConfig serving;
    /** Offered load in requests per simulated second. */
    double arrivalRatePerSec = 2000.0;
    /** Total arrivals in the run. */
    std::size_t numRequests = 64;
    /** Seed of the Poisson arrival process. */
    std::uint64_t arrivalSeed = 0xa221;
    /**
     * Trace-replay arrivals: when non-empty, the single-device and
     * sharded paths replay exactly these timestamps (seconds,
     * non-decreasing) instead of drawing a Poisson/MMPP process, and
     * the effective request count is the trace length (numRequests is
     * ignored). Build from a file with LoadGenerator::loadTrace().
     */
    std::vector<double> arrivalTrace;
    /**
     * Scheduling policy by registry name ("adaptive", "fixed", "wfq",
     * or any policy registered via registerSchedulerPolicy). Unknown
     * names throw std::invalid_argument at construction.
     */
    std::string policy = "adaptive";
    /**
     * Custom policy factory; wins over `policy` when set, so a
     * scheduler is a one-file addition without touching the registry.
     */
    PolicyFactory makePolicy;
    /** Wait-to-fill batch size of "fixed"; 0 means maxBatch, and
     *  larger values are clamped to maxBatch. */
    std::size_t fixedBatch = 0;
    /** Keep every request's output tensor (tests); default bounded. */
    bool retainResults = false;
    /**
     * Partitioner knobs of the sharded path (ignored by the
     * single-device constructor); numShards follows the device group.
     */
    graph::PartitionSpec partition;
    /**
     * Multi-tenant mode (the Engine constructor): one offered load per
     * engine variant. arrivalRatePerSec / numRequests / arrivalSeed
     * are ignored in that mode, and of `serving` only the resilience
     * knobs and the reported deadline's floor are read — every
     * per-variant knob (deadline, maxBatch, sampling) comes from the
     * variant's own ServingConfig in the engine registry.
     */
    std::vector<VariantLoad> variants;
};

/** Arrival-aware metrics of one open-loop run. */
struct OnlineReport : ServingReport
{
    /** Configured offered load. */
    double offeredRatePerSec = 0.0;
    /** Configured per-request deadline. */
    double deadlineMs = 0.0;
    /** Serving ticks == micro-batches issued (also in `batches`). */
    std::size_t ticks = 0;
    double meanBatchSize = 0.0;
    std::size_t peakQueueDepth = 0;
    /** Time of the last arrival (offered-load duration). */
    double lastArrivalMs = 0.0;
    /** Devices the run was served on (1 = single-device path). */
    int devices = 1;
    /** Halo-exchange bytes moved over the interconnect. */
    double haloBytes = 0.0;
    /** Link-seconds the interconnect was busy during the run, ms. */
    double interconnectMs = 0.0;
    /** Devices quarantined as failed during the run (sharded path). */
    int devicesFailed = 0;
    /** Requests re-routed off failed devices to survivors. */
    std::size_t requestsRerouted = 0;
    /** Arrivals rejected at admission (load shedding). */
    std::size_t requestsShed = 0;
    /** requestsShed / offered arrivals; 0 when nothing was shed. */
    double shedFraction = 0.0;
    /**
     * SLO attainment over ADMITTED requests only. The inherited
     * sloAttainment counts shed arrivals as misses (denominator =
     * offered = served + shed), so the two are identical when nothing
     * is shed and under overload the gap is the price of shedding.
     */
    double admittedSloAttainment = 1.0;
    /**
     * Peak depth of any single lane's queue at an admission or
     * scheduling point. peakQueueDepth keeps its historical meaning
     * (engine-wide queued requests in multi-tenant mode); this one is
     * the per-lane bound admission control enforces — it never
     * exceeds ServingConfig::maxQueueDepth when shedding is on.
     */
    std::size_t peakLaneQueueDepth = 0;
    /** Resolved name of the scheduling policy the run used. */
    std::string policy;

    /// @name Resilience accounting (0 unless resilience.enabled).
    ///
    /// Offered arrivals partition exactly: offered = served + shed +
    /// requestsTimedOut + requestsFailed. Timed-out and retry-exhausted
    /// requests were ADMITTED and then failed, so they count against
    /// availability (served / admitted), not against shedFraction.
    /// @{
    /** Requests given a retry attempt after a transient failure. */
    std::size_t requestsRetried = 0;
    /** Requests re-issued on a second lane/device (hedged). */
    std::size_t requestsHedged = 0;
    /** Hedges whose backup completed before the primary. */
    std::size_t hedgeWins = 0;
    /** Admitted requests failed fast by deadline timeout. */
    std::size_t requestsTimedOut = 0;
    /** Admitted requests failed after exhausting retries. */
    std::size_t requestsFailed = 0;
    /** Circuit-breaker transitions into the open state. */
    std::size_t breakerOpens = 0;
    /** Serving ticks spent at a brownout level > 0. */
    std::size_t brownoutTicks = 0;
    /// @}
};

/**
 * Open-loop server: LoadGenerators feeding an Engine (or a
 * ShardedSession) in timed ticks on the simulated clock. One tick loop
 * serves every mode over lanes: one lane per served variant on one
 * device, or one lane per device of a group.
 */
class OnlineServer
{
  public:
    /**
     * Single simulated device: a ServingSession served as one lane,
     * "default", fed from cfg's arrival rate, count and seed (or its
     * arrivalTrace). The lane's cost model is the server's batcher().
     */
    OnlineServer(const graph::HeteroGraph &g, tensor::Tensor host_features,
                 std::string model_source, OnlineConfig cfg,
                 sim::Runtime &rt);

    /** Sharded across @p group's devices via a ShardedSession. */
    OnlineServer(const graph::HeteroGraph &g, tensor::Tensor host_features,
                 std::string model_source, OnlineConfig cfg,
                 sim::DeviceGroup &group);

    /**
     * Multi-tenant: open-loop load over an externally built Engine
     * (variants already registered). Each cfg.variants entry drives
     * one lane with its own seeded arrival process and a per-lane
     * AdaptiveBatcher; each tick serves one same-variant micro-batch
     * from the lane the scheduling policy picks (cfg.policy: EDF for
     * "adaptive", priority tiers and weighted-fair shares for "wfq").
     * Throws std::invalid_argument on an empty load list, a duplicate
     * or unregistered variant name, or a non-positive rate.
     */
    OnlineServer(Engine &engine, OnlineConfig cfg);

    ~OnlineServer();

    /** Serve all configured arrivals to completion. */
    OnlineReport run();

    /** The wrapped single-device session; throws in other modes. */
    ServingSession &session();
    /** The wrapped sharded session; throws in other modes. */
    ShardedSession &sharded();
    /** The served engine; throws outside multi-tenant mode. */
    Engine &engine();
    /**
     * The single-session adaptive batcher. Throws in multi-tenant
     * mode, where each variant lane owns its own batcher and this one
     * would never observe any traffic.
     */
    const AdaptiveBatcher &
    batcher() const
    {
        if (engine_)
            throw std::runtime_error(
                "OnlineServer::batcher: multi-tenant mode batches per "
                "variant lane");
        return batcher_;
    }
    const OnlineConfig &config() const { return cfg_; }

    /**
     * Attach a per-request flight recorder to the whole serving path:
     * forwarded to the wrapped engine/session/sharded session (their
     * enqueue/plan/batch events) and used by the tick loop for
     * arrival/admission/exec/completion lifecycle events. nullptr
     * detaches. The recorder must outlive the server or be detached.
     */
    void setFlightRecorder(obs::FlightRecorder *fr);
    obs::FlightRecorder *flightRecorder() const { return flight_; }

    /** The tick loop's device seam (defined in online.cc). */
    class Devices;

    /** Per-request arrival-relative latencies of the last run, ms. */
    const std::vector<double> &latenciesMs() const { return latenciesMs_; }
    /** Per-request queueing delays of the last run, ms. */
    const std::vector<double> &queueDelaysMs() const
    {
        return queueDelaysMs_;
    }
    /** Per-tick micro-batch sizes of the last run. */
    const std::vector<std::size_t> &batchSizes() const
    {
        return batchSizes_;
    }

  private:
    OnlineConfig cfg_;
    /** Exactly one of session_ (single device), sharded_ (device
     *  group) and engine_ (multi-tenant) is set. */
    Engine *engine_ = nullptr;
    std::unique_ptr<ServingSession> session_;
    std::unique_ptr<ShardedSession> sharded_;
    AdaptiveBatcher batcher_;
    std::unique_ptr<Devices> devices_;

    std::vector<double> latenciesMs_;
    std::vector<double> queueDelaysMs_;
    std::vector<std::size_t> batchSizes_;
    obs::FlightRecorder *flight_ = nullptr;
};

/**
 * Absorb an OnlineReport into the obs metrics registry under
 * @p prefix: the shared ServingReport gauges via absorbReport, plus
 * the online-only overload metrics (requests_shed, shed_fraction,
 * admitted_slo_attainment, peak_queue_depth, peak_lane_queue_depth).
 * One emitter path for every bench that snapshots an online run.
 */
void absorbOnlineReport(obs::Registry &reg, const OnlineReport &report,
                        const std::string &prefix);

} // namespace hector::serve

#endif // HECTOR_SERVE_ONLINE_HH
