#include "serve/scheduler_policy.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <stdexcept>

namespace hector::serve
{

// ---------------------------------------------------------- AdaptiveBatcher

AdaptiveBatcher::AdaptiveBatcher(std::size_t max_batch, double deadline_sec,
                                 double alpha, double budget_fraction,
                                 bool bounded_queue)
    : maxBatch_(std::max<std::size_t>(1, max_batch)),
      deadlineSec_(deadline_sec), alpha_(alpha),
      budgetFraction_(budget_fraction), boundedQueue_(bounded_queue)
{
    if (alpha_ <= 0.0 || alpha_ > 1.0)
        throw std::runtime_error("AdaptiveBatcher: alpha must be in (0, 1]");
}

AdaptiveBatcher::AdaptiveBatcher(const LaneSpec &lane)
    : AdaptiveBatcher(lane.maxBatch, lane.deadlineSec)
{
    boundedQueue_ = lane.maxQueueDepth > 0 && lane.shed != ShedMode::None;
}

std::size_t
AdaptiveBatcher::pick(std::size_t queue_depth) const
{
    if (queue_depth == 0)
        return 0;
    // Saturation: the queue alone fills a maximal batch. With an
    // UNBOUNDED queue, amortizing launches over maxBatch requests is
    // the throughput-optimal choice, and deadline-agnostic is correct
    // — the backlog has already blown every deadline. With admission
    // control bounding the queue (boundedQueue_), that premise is
    // false: shedding keeps queueing delay finite, admitted requests
    // are still servable within SLO, so the deadline-budget cap below
    // stays active even at saturation.
    if (!boundedQueue_ && queue_depth >= maxBatch_)
        return maxBatch_;
    // Serve everything queued now; waiting to fill the batch only
    // adds fill-wait latency in an open loop...
    std::size_t b = std::min(queue_depth, maxBatch_);
    // ... unless the cost model predicts the batch itself would eat
    // the queued requests' SLO headroom: cap so modeled service time
    // (EWMA overhead + b * EWMA per-request exec) stays within the
    // deadline budget.
    if (observed_ && deadlineSec_ > 0.0 && ewmaExecPerReqSec_ > 0.0) {
        const double budget =
            budgetFraction_ * deadlineSec_ - ewmaOverheadSec_;
        const std::size_t cap =
            budget <= ewmaExecPerReqSec_
                ? 1
                : static_cast<std::size_t>(budget / ewmaExecPerReqSec_);
        b = std::min(b, std::max<std::size_t>(1, cap));
    }
    return b;
}

void
AdaptiveBatcher::observe(const BatchCost &cost)
{
    if (cost.requests == 0)
        return;
    const double per_req =
        cost.execSec / static_cast<double>(cost.requests);
    if (!observed_) {
        ewmaOverheadSec_ = cost.overheadSec;
        ewmaExecPerReqSec_ = per_req;
        observed_ = true;
        return;
    }
    ewmaOverheadSec_ += alpha_ * (cost.overheadSec - ewmaOverheadSec_);
    ewmaExecPerReqSec_ += alpha_ * (per_req - ewmaExecPerReqSec_);
}

// ---------------------------------------------------------- SchedulerPolicy

SchedulerPolicy::SchedulerPolicy(PolicySetup setup)
    : lanes_(std::move(setup.lanes)), shared_(setup.sharedBatcher)
{
    if (lanes_.empty())
        throw std::invalid_argument(
            "SchedulerPolicy: at least one lane is required");
    if (!shared_) {
        owned_.reserve(lanes_.size());
        for (const LaneSpec &spec : lanes_)
            owned_.emplace_back(spec);
    }
}

AdaptiveBatcher &
SchedulerPolicy::batcherFor(std::size_t lane)
{
    return shared_ ? *shared_ : owned_.at(lane);
}

const AdaptiveBatcher &
SchedulerPolicy::batcherFor(std::size_t lane) const
{
    return shared_ ? *shared_ : owned_.at(lane);
}

double
SchedulerPolicy::edfKey(const LaneSpec &spec, const LaneView &view)
{
    return spec.deadlineSec > 0.0
               ? view.headArrivalSec + spec.deadlineSec
               : std::numeric_limits<double>::infinity();
}

AdmitDecision
SchedulerPolicy::admit(std::size_t lane, const LaneView &view,
                       double arrival_sec, double now_sec) const
{
    const LaneSpec &spec = lanes_.at(lane);
    if (spec.shed == ShedMode::None)
        return {};
    if (spec.maxQueueDepth > 0 && view.queueDepth >= spec.maxQueueDepth)
        return {false, "queue-full"};
    if (spec.shed == ShedMode::DeadlineInfeasible &&
        spec.deadlineSec > 0.0) {
        // The request completes no earlier than the backlog ahead of
        // it plus its own service time, starting from when the host
        // is actually free to serve.
        const double service =
            estimateServiceSec(lane, view.queueDepth + 1);
        const double start = std::max(now_sec, arrival_sec);
        if (service > 0.0 &&
            start + service > arrival_sec + spec.deadlineSec)
            return {false, "deadline-infeasible"};
    }
    return {};
}

void
SchedulerPolicy::observe(std::size_t lane, const BatchCost &cost)
{
    batcherFor(lane).observe(cost);
}

double
SchedulerPolicy::estimateServiceSec(std::size_t lane, std::size_t n) const
{
    const AdaptiveBatcher &b = batcherFor(lane);
    if (!b.calibrated() || n == 0)
        return 0.0;
    // n requests drain in ceil(n / maxBatch) batches, each paying one
    // launch overhead; execution is per request.
    const double batches =
        std::ceil(static_cast<double>(n) /
                  static_cast<double>(b.maxBatch()));
    return batches * b.ewmaOverheadSec() +
           static_cast<double>(n) * b.ewmaExecPerRequestSec();
}

// --------------------------------------------------------- built-in policies

namespace
{

/**
 * Wait-to-fill fixed batching: a lane becomes eligible once its queue
 * reaches fixedBatch, or once arrivals can no longer grow it (they ran
 * out, or admission holds its backlog at the queue bound); eligible
 * lanes are
 * ordered EDF exactly like the adaptive policy, so the two differ only
 * in batch sizing.
 */
class FixedFillPolicy : public SchedulerPolicy
{
  public:
    using SchedulerPolicy::SchedulerPolicy;
    const char *name() const override { return "fixed"; }

    int
    pickLane(const std::vector<LaneView> &lanes) const override
    {
        int best = -1;
        double best_key = 0.0;
        double best_arr = 0.0;
        for (std::size_t i = 0; i < lanes.size(); ++i) {
            const LaneView &view = lanes[i];
            if (view.queueDepth == 0 || view.blocked)
                continue;
            if (view.queueDepth < lane(i).fixedBatch &&
                view.moreArrivals)
                continue; // still filling
            const double key = edfKey(lane(i), view);
            if (best < 0 || key < best_key ||
                (key == best_key && view.headArrivalSec < best_arr)) {
                best = static_cast<int>(i);
                best_key = key;
                best_arr = view.headArrivalSec;
            }
        }
        return best;
    }

    std::size_t
    pickBatch(std::size_t l, const LaneView &view) const override
    {
        return std::min(view.queueDepth, lane(l).fixedBatch);
    }
};

/**
 * Deadline-aware adaptive batching with EDF lane interleaving: among
 * lanes with queued work, the head-of-line request with the earliest
 * absolute deadline (arrival + its lane's SLO) wins the tick; lanes
 * without a deadline rank behind every deadline lane and compete on
 * arrival order; ties go to the lower lane index. Batch sizes come
 * from the lane's AdaptiveBatcher. The default policy.
 */
class AdaptiveEdfPolicy : public SchedulerPolicy
{
  public:
    using SchedulerPolicy::SchedulerPolicy;
    const char *name() const override { return "adaptive"; }

    int
    pickLane(const std::vector<LaneView> &lanes) const override
    {
        int best = -1;
        double best_key = 0.0;
        double best_arr = 0.0;
        for (std::size_t i = 0; i < lanes.size(); ++i) {
            const LaneView &view = lanes[i];
            if (view.queueDepth == 0 || view.blocked)
                continue;
            const double key = edfKey(lane(i), view);
            if (best < 0 || key < best_key ||
                (key == best_key && view.headArrivalSec < best_arr)) {
                best = static_cast<int>(i);
                best_key = key;
                best_arr = view.headArrivalSec;
            }
        }
        return best;
    }

    std::size_t
    pickBatch(std::size_t l, const LaneView &view) const override
    {
        return batcher(l).pick(view.queueDepth);
    }
};

/**
 * Priority tiers + weighted-fair sharing within a tier. Among lanes
 * with queued work: the lowest tier wins outright (interactive tenants
 * preempt batch tenants); within a tier the lane with the smallest
 * weight-normalized served count (served / weight) is next, so served
 * throughput converges to the configured weight ratio whenever lanes
 * stay backlogged; EDF (then arrival, then lane index) breaks ties.
 * Batch sizing is the lane's AdaptiveBatcher, deadline-aware even at
 * saturation when the lane's queue is bounded.
 */
class WeightedFairPolicy : public SchedulerPolicy
{
  public:
    explicit WeightedFairPolicy(PolicySetup setup)
        : SchedulerPolicy(std::move(setup)), served_(numLanes(), 0)
    {}
    const char *name() const override { return "wfq"; }

    int
    pickLane(const std::vector<LaneView> &lanes) const override
    {
        int best = -1;
        int best_tier = 0;
        double best_wserved = 0.0;
        double best_key = 0.0;
        double best_arr = 0.0;
        for (std::size_t i = 0; i < lanes.size(); ++i) {
            const LaneView &view = lanes[i];
            if (view.queueDepth == 0 || view.blocked)
                continue;
            const LaneSpec &spec = lane(i);
            const double wserved =
                static_cast<double>(served_[i]) / spec.weight;
            const double key = edfKey(spec, view);
            const bool better =
                best < 0 || spec.tier < best_tier ||
                (spec.tier == best_tier &&
                 (wserved < best_wserved ||
                  (wserved == best_wserved &&
                   (key < best_key ||
                    (key == best_key &&
                     view.headArrivalSec < best_arr)))));
            if (better) {
                best = static_cast<int>(i);
                best_tier = spec.tier;
                best_wserved = wserved;
                best_key = key;
                best_arr = view.headArrivalSec;
            }
        }
        return best;
    }

    std::size_t
    pickBatch(std::size_t l, const LaneView &view) const override
    {
        return batcher(l).pick(view.queueDepth);
    }

    void
    observe(std::size_t l, const BatchCost &cost) override
    {
        SchedulerPolicy::observe(l, cost);
        served_[l] += cost.requests;
    }

  private:
    std::vector<std::size_t> served_;
};

std::map<std::string, PolicyFactory> &
policyRegistry()
{
    static std::map<std::string, PolicyFactory> reg = [] {
        std::map<std::string, PolicyFactory> m;
        m["fixed"] = [](const PolicySetup &s) {
            return std::unique_ptr<SchedulerPolicy>(
                new FixedFillPolicy(s));
        };
        m["adaptive"] = [](const PolicySetup &s) {
            return std::unique_ptr<SchedulerPolicy>(
                new AdaptiveEdfPolicy(s));
        };
        m["wfq"] = [](const PolicySetup &s) {
            return std::unique_ptr<SchedulerPolicy>(
                new WeightedFairPolicy(s));
        };
        return m;
    }();
    return reg;
}

} // namespace

// ----------------------------------------------------------------- registry

bool
registerSchedulerPolicy(const std::string &name, PolicyFactory factory)
{
    auto &reg = policyRegistry();
    const bool fresh = reg.find(name) == reg.end();
    reg[name] = std::move(factory);
    return fresh;
}

bool
schedulerPolicyRegistered(const std::string &name)
{
    const auto &reg = policyRegistry();
    return reg.find(name) != reg.end();
}

std::unique_ptr<SchedulerPolicy>
makeSchedulerPolicy(const std::string &name, PolicySetup setup)
{
    const auto &reg = policyRegistry();
    const auto it = reg.find(name);
    if (it == reg.end())
        throw std::invalid_argument(
            "makeSchedulerPolicy: unknown policy '" + name + "'");
    return it->second(setup);
}

std::vector<std::string>
schedulerPolicyNames()
{
    std::vector<std::string> names;
    for (const auto &[name, factory] : policyRegistry())
        names.push_back(name);
    return names;
}

} // namespace hector::serve
