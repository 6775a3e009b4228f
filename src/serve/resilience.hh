/**
 * @file
 * Deterministic request-resilience layer of the online serving loops.
 *
 * PR 7 hardened the device layer (seeded fault injection, redundant
 * detection, bit-identical recovery) and PR 8 hardened admission
 * (bounded queues, shedding); this module defends the *individual
 * request* end to end. It sits between arrival generation and the
 * Engine / ShardedSession, entirely on the virtual clock, and owns
 * four mechanisms the tick loop in online.cc consults per tick:
 *
 *  - deadline fail-fast: a queued request whose remaining budget
 *    cannot cover the policy's calibrated service estimate is failed
 *    NOW (timeout cancellation) instead of served late — the work it
 *    would have wasted goes to requests that can still meet SLO;
 *  - seeded retry with capped exponential backoff: a request that
 *    fails for a transient reason (its device quarantined mid-flight,
 *    detection-triggered replay exhaustion) is re-queued with
 *    attempt-scaled backoff; the jitter stream is a dedicated seeded
 *    mt19937_64, so retry schedules are bit-stable across platforms
 *    and thread counts. Exhausted attempts fail the request;
 *  - hedged requests: once the oldest queued request has waited past
 *    hedgeDelayFactor x the observed latency EWMA, the loop re-issues
 *    it on a second stream/device and keeps the first completion
 *    (first-wins dedup; the duplicate is discarded with an audited
 *    event). Outputs stay bit-identical to the unhedged run by batch
 *    invariance — hedging can only move the modeled timeline;
 *  - per-lane circuit breakers + brownout: consecutive failures/sheds
 *    open a lane's breaker (closed -> open -> half-open probe ->
 *    closed), which steers the scheduler's lane pick (LaneView::
 *    blocked) and ShardedSession's affinity x headroom routing away
 *    from the sick lane; sustained queue pressure additionally steps
 *    brownout levels that shed optional work (hedging first, then
 *    ASPIS duplication) before requests are shed.
 *
 * Everything here is deterministic: no wall clock, no unseeded RNG,
 * decisions are pure functions of the (deterministic) call sequence.
 * With ResilienceConfig::enabled = false the loops never construct a
 * manager and the serving timeline is bit-identical to the
 * pre-resilience code; with it enabled but nothing firing (no faults,
 * generous deadlines, hedge threshold never reached) the timeline is
 * still bit-identical — the determinism tests gate both.
 */

#ifndef HECTOR_SERVE_RESILIENCE_HH
#define HECTOR_SERVE_RESILIENCE_HH

#include <cstdint>
#include <random>
#include <vector>

#include "obs/flight_recorder.hh"
#include "serve/engine.hh"

namespace hector::serve
{

/** Counters of one run's resilience activity (OnlineReport copies
 *  these; the README glossary documents each). */
struct ResilienceStats
{
    /** Requests given a retry attempt after a transient failure. */
    std::size_t requestsRetried = 0;
    /** Requests re-issued on a second lane/stream (hedged). */
    std::size_t requestsHedged = 0;
    /** Hedges whose backup completed before the primary. */
    std::size_t hedgeWins = 0;
    /** Requests failed fast by deadline timeout cancellation. */
    std::size_t requestsTimedOut = 0;
    /** Requests failed after exhausting their retry budget. */
    std::size_t requestsFailed = 0;
    /** Breaker transitions into the open state. */
    std::size_t breakerOpens = 0;
    /** Breaker transitions open/half-open -> closed. */
    std::size_t breakerCloses = 0;
    /** Ticks served at a brownout level > 0. */
    std::size_t brownoutTicks = 0;
    /** Highest brownout level the run reached (0 = never browned). */
    int maxBrownoutLevel = 0;
};

/**
 * Per-run state machine of the resilience layer. One instance per
 * OnlineServer::run() when ResilienceConfig::enabled; the tick loop
 * calls into it at admission, scheduling, and completion points. All
 * event emission (flight recorder, tracer instants carrying
 * args.reason, metrics counters) funnels through here.
 */
class ResilienceManager
{
  public:
    ResilienceManager(ResilienceConfig cfg, std::size_t num_lanes);

    /** Attach the run's flight recorder (nullptr detaches). */
    void setFlightRecorder(obs::FlightRecorder *fr) { flight_ = fr; }

    const ResilienceConfig &config() const { return cfg_; }
    const ResilienceStats &stats() const { return stats_; }

    /// @name Deadline fail-fast.
    /// @{

    /**
     * True when a request that arrived at @p arrival_sec with
     * @p deadline_sec cannot complete in time anymore: the clock
     * stands at @p now_sec and serving it would take at least
     * @p est_service_sec (0 before calibration — then only an
     * already-expired deadline trips). False when fail-fast is off or
     * there is no deadline.
     */
    bool deadlineExpired(double arrival_sec, double deadline_sec,
                         double now_sec, double est_service_sec) const;

    /** Record one timeout cancellation (stats + audited events). */
    void recordTimeout(std::uint64_t id, std::size_t lane, int device,
                       double arrival_sec, double now_sec);

    /// @}
    /// @name Seeded retry with capped exponential backoff.
    /// @{

    /** Outcome of one failure of a request attempt. */
    struct RetryDecision
    {
        /** The request gets another attempt. */
        bool retry = false;
        /** Attempt number just consumed (1 = first failure). */
        int attempt = 0;
        /** Earliest virtual time the retry may be served. */
        double notBeforeSec = 0.0;
    };

    /**
     * A request attempt failed at @p now_sec for @p reason (stable
     * tag, e.g. "quarantine", "replay-exhausted"). @p prior_attempts
     * is how many failures the request had before this one. Decides
     * retry-vs-fail, draws the seeded backoff jitter, bumps stats and
     * emits the audited "retry" (or terminal failure) events.
     */
    RetryDecision onFailure(std::uint64_t id, std::size_t lane,
                            int device, double now_sec,
                            const char *reason, int prior_attempts);

    /// @}
    /// @name Hedged requests.
    /// @{

    /** Feed one completed request's arrival-relative latency. */
    void observeLatency(double latency_sec);

    /** Hedging is armed: enabled, EWMA calibrated, not browned out. */
    bool hedgeReady() const;

    /** Current hedge trigger delay (factor x latency EWMA). */
    double hedgeDelaySec() const;

    /** Record one hedge issue (stats + audited events). */
    void recordHedge(std::uint64_t id, std::size_t lane, int device,
                     double now_sec, double waited_sec);

    /** Record the race's outcome: @p hedge_won selects which copy was
     *  kept; the loser is discarded with an audited event. */
    void recordHedgeOutcome(std::uint64_t id, int device, double now_sec,
                            bool hedge_won);

    /// @}
    /// @name Per-lane circuit breaker.
    /// @{

    /** A served batch on @p lane completed normally: reset the
     *  consecutive-failure count; close a probing breaker. */
    void noteSuccess(std::size_t lane, double now_sec);

    /** An admission on @p lane was accepted (breaks a shed streak). */
    void noteAdmit(std::size_t lane);

    /**
     * A failure-class event on @p lane (@p what: "shed", "timeout",
     * "quarantine", ...). Consecutive failures past the threshold
     * open the breaker; a failure during half-open re-opens it.
     */
    void noteFailure(std::size_t lane, double now_sec, const char *what);

    /**
     * True while @p lane's breaker blocks serving. An open breaker
     * past its openUntil transitions to half-open here (audited) and
     * stops blocking — the next batch is the probe.
     */
    bool blocked(std::size_t lane, double now_sec);

    /** Breaker state of @p lane ("closed"/"open"/"half-open"). */
    const char *breakerState(std::size_t lane) const;

    /// @}
    /// @name Brownout.
    /// @{

    /**
     * Re-evaluate the brownout level from the deepest lane queue
     * (@p depth) against the admission bound (@p bound; 0 = no bound,
     * never browns). Level transitions are audited; ticks at level > 0
     * count toward brownoutTicks.
     */
    void tickBrownout(std::size_t depth, std::size_t bound,
                      double now_sec);

    /** 0 = normal, 1 = hedging shed, 2 = duplication also shed. */
    int brownoutLevel() const { return brownoutLevel_; }

    /** Factor the serving layer applies to duplicationFraction. */
    double duplicationScale() const
    {
        return brownoutLevel_ >= 2 ? 0.0 : 1.0;
    }

    /// @}

  private:
    struct Breaker
    {
        enum class State
        {
            Closed,
            Open,
            HalfOpen
        };
        State state = State::Closed;
        int consecutive = 0;
        double openUntilSec = 0.0;
    };

    /** Deterministic backoff of the given attempt (1-based), with the
     *  seeded jitter draw consumed from rng_. */
    double backoffSec(int attempt);

    void emitInstant(const char *name, double t_sec, int device,
                     const std::string &reason_args);

    ResilienceConfig cfg_;
    std::vector<Breaker> breakers_;
    ResilienceStats stats_;
    std::mt19937_64 rng_;
    double ewmaLatencySec_ = 0.0;
    bool latencyObserved_ = false;
    int brownoutLevel_ = 0;
    obs::FlightRecorder *flight_ = nullptr;
};

} // namespace hector::serve

#endif // HECTOR_SERVE_RESILIENCE_HH
