/**
 * @file
 * Pluggable overload scheduling for the online serving layer.
 *
 * BENCH_serving_online.json exposed the 2x-saturation pathology: with
 * an unbounded queue every policy degenerates to wait-to-fill, SLO
 * attainment collapses to 0%, and p99 grows with the backlog. Fixing
 * that is not one patch but a policy space — admission control, shed
 * rules, batching, lane ordering — so the tick loop in online.cc is
 * built around the SchedulerPolicy interface below. A scheduler
 * is now a one-file addition: derive from SchedulerPolicy, register a
 * factory under a name, select it via OnlineConfig::policy (or inject
 * a factory directly through OnlineConfig::makePolicy).
 *
 * One policy instance drives all three serving modes through the same
 * four decision points:
 *
 *  - admit():     accept or shed an arrival (bounded queue /
 *                 deadline-infeasible drop, per the lane's ShedMode);
 *  - pickLane():  which lane (tenant variant, home shard, or the one
 *                 single-mode queue) gets the next micro-batch;
 *  - pickBatch(): how many queued requests that batch coalesces;
 *  - observe():   feed the served batch's modeled cost back into the
 *                 per-lane AdaptiveBatcher EWMAs.
 *
 * Built-in policies, all bit-deterministic:
 *
 *  - "fixed"     wait-to-fill fixedBatch (the PR 2 baseline);
 *  - "adaptive"  EDF lane interleave + deadline-budget adaptive
 *                batching (the PR 2/PR 5 default) — re-expressed on
 *                this interface with bit-identical reports;
 *  - "wfq"       priority tiers, then weighted-fair sharing within a
 *                tier (served-count normalized by ServingConfig::
 *                tenantWeight), EDF as the tie-break.
 */

#ifndef HECTOR_SERVE_SCHEDULER_POLICY_HH
#define HECTOR_SERVE_SCHEDULER_POLICY_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "serve/engine.hh"

namespace hector::serve
{

struct LaneSpec;

/**
 * Per-tick micro-batch sizing from queue depth + cost EWMAs.
 *
 * Policy: below saturation, serve everything queued immediately,
 * except when the EWMA cost model predicts the batch's own service
 * time would eat more than `budgetFraction` of the deadline — then
 * the batch is capped so queued requests keep their SLO headroom.
 * At saturation (queue at or above maxBatch) the behavior depends on
 * whether admission control bounds the queue: unbounded, the backlog
 * has already blown every deadline and maxBatch is the
 * throughput-optimal choice; bounded (bounded_queue = true), queueing
 * delay stays finite, admitted requests are still servable within
 * SLO, and the deadline-budget cap stays active.
 */
class AdaptiveBatcher
{
  public:
    /**
     * @param max_batch       upper bound on the micro-batch size
     * @param deadline_sec    per-request SLO (0 disables the cap)
     * @param alpha           EWMA smoothing factor in (0, 1]
     * @param budget_fraction fraction of the deadline a single batch's
     *                        service time may consume
     * @param bounded_queue   admission control bounds the queue: keep
     *                        the deadline cap active at saturation
     */
    AdaptiveBatcher(std::size_t max_batch, double deadline_sec,
                    double alpha = 0.25, double budget_fraction = 0.5,
                    bool bounded_queue = false);

    /** The default-smoothed batcher of @p lane: its maxBatch and
     *  deadline, its queue bounded when it sheds at a maxQueueDepth. */
    explicit AdaptiveBatcher(const LaneSpec &lane);

    /** Batch size for a tick that sees @p queue_depth queued requests. */
    std::size_t pick(std::size_t queue_depth) const;

    /** Feed one served batch's modeled cost into the EWMAs. */
    void observe(const BatchCost &cost);

    bool calibrated() const { return observed_; }
    double ewmaOverheadSec() const { return ewmaOverheadSec_; }
    double ewmaExecPerRequestSec() const { return ewmaExecPerReqSec_; }
    std::size_t maxBatch() const { return maxBatch_; }
    bool boundedQueue() const { return boundedQueue_; }

  private:
    std::size_t maxBatch_;
    double deadlineSec_;
    double alpha_;
    double budgetFraction_;
    bool boundedQueue_;
    double ewmaOverheadSec_ = 0.0;
    double ewmaExecPerReqSec_ = 0.0;
    bool observed_ = false;
};

/**
 * Static description of one lane a policy schedules over: a tenant
 * variant (multi-tenant mode), a home shard (sharded mode), or the one
 * queue of single-session mode. Built by OnlineServer from the lane's
 * ServingConfig + OnlineConfig.
 */
struct LaneSpec
{
    std::string name;
    std::size_t maxBatch = 8;
    /** Per-request SLO; 0 = none. */
    double deadlineSec = 0.0;
    /** Wait-to-fill target of the "fixed" policy (<= maxBatch). */
    std::size_t fixedBatch = 8;
    /** Weighted-fair share ("wfq"); > 0. */
    double weight = 1.0;
    /** Priority tier ("wfq"); lower tiers are served strictly first. */
    int tier = 0;
    /** Admission bound on the lane's queue; 0 = unbounded. */
    std::size_t maxQueueDepth = 0;
    ShedMode shed = ShedMode::None;
};

/** Dynamic state of one lane at a decision point. */
struct LaneView
{
    std::size_t queueDepth = 0;
    /** Oldest queued arrival time; meaningful when queueDepth > 0. */
    double headArrivalSec = 0.0;
    /** Arrivals can still grow the lane: its arrival process has
     *  arrivals left and its backlog is below the admission bound. */
    bool moreArrivals = true;
    /** The resilience layer blocks this lane (open circuit breaker or
     *  backoff-held head); built-in policies skip blocked lanes. */
    bool blocked = false;
};

/** Outcome of one admission decision. */
struct AdmitDecision
{
    bool admit = true;
    /** Stable shed-reason tag recorded in the flight recorder and
     *  trace ("queue-full", "deadline-infeasible"); "" on admit. */
    const char *reason = "";
};

/** Everything a policy factory receives at construction. */
struct PolicySetup
{
    std::vector<LaneSpec> lanes;
    /**
     * When set, every lane shares this externally owned cost model
     * instead of per-lane owned batchers. The single-device and
     * sharded modes pass the server's batcher here, so the batcher()
     * accessor reports the cost model the run fed: the sharded
     * devices share one EWMA state, and the single-device lane keeps
     * its EWMAs across run() calls. Multi-tenant lanes own theirs.
     */
    AdaptiveBatcher *sharedBatcher = nullptr;
};

/**
 * The scheduling policy interface the online tick loop delegates to.
 * Implementations must be deterministic: same construction + same
 * call sequence => same decisions, at any host thread count.
 */
class SchedulerPolicy
{
  public:
    explicit SchedulerPolicy(PolicySetup setup);
    virtual ~SchedulerPolicy() = default;

    /** Registry name of the policy (reported in OnlineReport). */
    virtual const char *name() const = 0;

    /**
     * Admission decision for an arrival on @p lane at @p arrival_sec,
     * seen when the host clock stands at @p now_sec. The default
     * implements the lane's ShedMode: reject-newest once the queue is
     * at maxQueueDepth, and (DeadlineInfeasible) drop arrivals whose
     * deadline the cost model already predicts unmeetable behind the
     * current backlog.
     */
    virtual AdmitDecision admit(std::size_t lane, const LaneView &view,
                                double arrival_sec, double now_sec) const;

    /**
     * Lane to serve this tick (index into @p lanes), or -1 to wait
     * for more arrivals. Lanes with queueDepth == 0 must not be
     * returned.
     */
    virtual int pickLane(const std::vector<LaneView> &lanes) const = 0;

    /** Micro-batch size for the picked lane; the tick loop clamps the
     *  result to [1, queueDepth]. */
    virtual std::size_t pickBatch(std::size_t lane,
                                  const LaneView &view) const = 0;

    /** One served batch's modeled cost, fed back per lane. The base
     *  implementation updates the lane's AdaptiveBatcher EWMAs. */
    virtual void observe(std::size_t lane, const BatchCost &cost);

    /**
     * Modeled seconds to serve @p n queued requests of @p lane
     * (launch overheads + execution), or 0 before the cost model is
     * calibrated. Drives the DeadlineInfeasible admission check.
     */
    virtual double estimateServiceSec(std::size_t lane,
                                      std::size_t n) const;

    std::size_t numLanes() const { return lanes_.size(); }
    const LaneSpec &lane(std::size_t i) const { return lanes_.at(i); }
    const AdaptiveBatcher &batcher(std::size_t i) const
    {
        return batcherFor(i);
    }

  protected:
    AdaptiveBatcher &batcherFor(std::size_t lane);
    const AdaptiveBatcher &batcherFor(std::size_t lane) const;

    /**
     * EDF ordering key of a lane's head-of-line request: absolute
     * deadline when the lane has one, +inf otherwise (no-deadline
     * lanes rank behind every deadline lane and compete on arrival
     * order).
     */
    static double edfKey(const LaneSpec &spec, const LaneView &view);

    std::vector<LaneSpec> lanes_;

  private:
    AdaptiveBatcher *shared_;
    std::vector<AdaptiveBatcher> owned_;
};

/** Factory signature of a registered policy. */
using PolicyFactory =
    std::function<std::unique_ptr<SchedulerPolicy>(const PolicySetup &)>;

/**
 * Register @p factory under @p name (overwrites an existing entry;
 * returns true when the name was new). Built-ins "fixed", "adaptive"
 * and "wfq" are pre-registered.
 */
bool registerSchedulerPolicy(const std::string &name,
                             PolicyFactory factory);

/** True when @p name resolves to a registered policy. */
bool schedulerPolicyRegistered(const std::string &name);

/** Construct the policy registered under @p name; throws
 *  std::invalid_argument (naming the policy) on an unknown name. */
std::unique_ptr<SchedulerPolicy>
makeSchedulerPolicy(const std::string &name, PolicySetup setup);

/** Registered policy names, sorted. */
std::vector<std::string> schedulerPolicyNames();

} // namespace hector::serve

#endif // HECTOR_SERVE_SCHEDULER_POLICY_HH
