#include "serve/online.hh"

#include <algorithm>
#include <cmath>
#include <deque>
#include <fstream>
#include <limits>
#include <numbers>
#include <set>
#include <stdexcept>

#include "serve/resilience.hh"

#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "sim/fault.hh"

namespace hector::serve
{

// ------------------------------------------------------------ LoadGenerator

LoadGenerator::LoadGenerator(double rate_per_sec, std::size_t count,
                             std::uint64_t seed, const MmppSpec &mmpp,
                             const DiurnalSpec &diurnal)
    : ratePerSec_(rate_per_sec), left_(count), rng_(seed), mmpp_(mmpp),
      diurnal_(diurnal)
{
    if (rate_per_sec <= 0.0)
        throw std::runtime_error("LoadGenerator: rate must be positive");
    if (mmpp_.enabled && mmpp_.burstRateMultiplier <= 0.0)
        throw std::runtime_error(
            "LoadGenerator: mmpp.burstRateMultiplier must be positive");
    if (diurnal_.enabled &&
        (!(diurnal_.amplitude >= 0.0) || diurnal_.amplitude >= 1.0))
        throw std::runtime_error(
            "LoadGenerator: diurnal.amplitude must be in [0, 1)");
    if (diurnal_.enabled && !(diurnal_.periodSec > 0.0))
        throw std::runtime_error(
            "LoadGenerator: diurnal.periodSec must be positive");
    if (left_ > 0)
        advance();
}

LoadGenerator::LoadGenerator(std::vector<double> times_sec)
    : ratePerSec_(1.0), left_(times_sec.size()), rng_(0),
      trace_(std::move(times_sec))
{
    double prev = 0.0;
    for (double t : trace_) {
        if (!(t >= prev)) // also rejects NaN
            throw std::invalid_argument(
                "LoadGenerator: trace timestamps must be non-negative "
                "and non-decreasing");
        prev = t;
    }
    if (left_ > 0)
        advance();
}

std::vector<double>
LoadGenerator::loadTrace(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("LoadGenerator::loadTrace: cannot open " +
                                 path);
    std::vector<double> times;
    std::string line;
    std::size_t lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        const std::size_t b = line.find_first_not_of(" \t\r");
        if (b == std::string::npos || line[b] == '#')
            continue;
        const std::size_t e = line.find_last_not_of(" \t\r");
        const std::string tok = line.substr(b, e - b + 1);
        std::size_t pos = 0;
        double t = 0.0;
        try {
            t = std::stod(tok, &pos);
        } catch (const std::exception &) {
            pos = 0;
        }
        if (pos != tok.size() || !std::isfinite(t))
            throw std::runtime_error(
                "LoadGenerator::loadTrace: malformed timestamp at " +
                path + ":" + std::to_string(lineno));
        times.push_back(t);
    }
    return times;
}

double
LoadGenerator::nextU()
{
    // Inverse-CDF uniform over the raw 64-bit stream instead of
    // std::*_distribution: the sequence is bit-stable across standard
    // libraries, and u is rate-independent, so equal seeds give
    // arrival times that scale exactly by 1/rate.
    return (static_cast<double>(rng_() >> 11) + 0.5) *
           (1.0 / 9007199254740992.0); // 2^-53, u in (0, 1)
}

void
LoadGenerator::advance()
{
    if (!trace_.empty()) {
        nextSec_ = trace_[traceIdx_++];
        return;
    }
    const double u = nextU();
    // Pure Poisson draws exactly one uniform per gap (the historical
    // stream, bit-identical); MMPP draws the gap at the CURRENT
    // state's rate, then one extra uniform to decide the state the
    // next gap is drawn in.
    double rate = mmpp_.enabled && burst_
                      ? ratePerSec_ * mmpp_.burstRateMultiplier
                      : ratePerSec_;
    // Diurnal modulation composes multiplicatively on top of the MMPP
    // state; amplitude < 1 keeps the instantaneous rate positive.
    // Disabled, the expression above is untouched — the historical
    // arrival stream stays bit-identical.
    if (diurnal_.enabled)
        rate *= 1.0 + diurnal_.amplitude *
                          std::sin(2.0 * std::numbers::pi * nextSec_ /
                                   diurnal_.periodSec);
    nextSec_ += -std::log(1.0 - u) / rate;
    if (mmpp_.enabled) {
        const double v = nextU();
        if (burst_ ? v < mmpp_.pExitBurst : v < mmpp_.pEnterBurst)
            burst_ = !burst_;
    }
}

double
LoadGenerator::peekSec() const
{
    if (done())
        throw std::runtime_error("LoadGenerator: exhausted");
    return nextSec_;
}

double
LoadGenerator::next()
{
    const double t = peekSec();
    --left_;
    if (left_ > 0)
        advance();
    return t;
}

std::vector<double>
LoadGenerator::arrivals(double rate_per_sec, std::size_t count,
                        std::uint64_t seed, const MmppSpec &mmpp)
{
    LoadGenerator gen(rate_per_sec, count, seed, mmpp);
    std::vector<double> times;
    times.reserve(count);
    while (!gen.done())
        times.push_back(gen.next());
    return times;
}

// ------------------------------------------------------------- OnlineServer

namespace
{

/** One queued arrival: its time and the request id its flight events
 *  are recorded under. */
struct QueuedArrival
{
    double arrivalSec = 0.0;
    std::uint64_t id = 0;
    /** Failed attempts so far (resilience retry bookkeeping). */
    int attempts = 0;
    /** Earliest time a retried request may be served (backoff hold). */
    double notBeforeSec = 0.0;
};

/** One FIFO on one device: a variant's queue on one device, or a
 *  device's queue in a group. */
struct Lane
{
    int device = 0;
    int variant = 0;
    /** Empty on a device lane, which gets no per-variant report row. */
    std::string variantName{};
    /** Trace span of the lane's batches: "tick/<variant>" or "tick". */
    std::string span{};
    double deadlineMs = 0.0;
    /** Index of the arrival process feeding the lane. */
    std::size_t feed = 0;
    std::deque<QueuedArrival> queued{};
    std::vector<double> latencies{}; ///< seconds, completion order
    std::size_t shed = 0;
};

/** One open-loop arrival process: it owns a lane (a variant), or the
 *  session routes each of its arrivals to one (lane -1, a group). */
struct Arrivals
{
    LoadGenerator gen;
    int lane = -1;
    double ratePerSec = 0.0;
    double deadlineMs = 0.0;
    /** Queue bound its arrivals are admitted against. */
    std::size_t bound = 0;
};

/** The lanes, arrival processes and policy lanes of one run. */
struct RunSetup
{
    std::vector<Lane> lanes;
    std::vector<Arrivals> arrivals;
    PolicySetup policy;
};

/**
 * One device's open-loop clocks: its issue thread (issueFree), each
 * stream running one batch at a time (streamFree), and the serialized
 * fraction of every kernel occupying a device-wide shared resource
 * (contendFree) — Runtime::makespanSec's overlap rule, applied per
 * batch.
 */
struct DeviceClock
{
    std::vector<double> streamFree;
    double issueFree = 0.0;
    double contendFree = 0.0;

    /** Least-loaded stream other than @p except (ties to the lower
     *  id); -1 when there is none. */
    int
    pickStream(int except = -1) const
    {
        int s = -1;
        for (std::size_t i = 0; i < streamFree.size(); ++i)
            if (static_cast<int>(i) != except &&
                (s < 0 ||
                 streamFree[i] < streamFree[static_cast<std::size_t>(s)]))
                s = static_cast<int>(i);
        return s;
    }
};

/** Clock points of one batch issued on a device. */
struct BatchTimes
{
    double issueDone = 0.0, commDone = 0.0, execStart = 0.0, execDone = 0.0,
           done = 0.0;
};

/** What the tick loop shares with the device hooks. */
struct TickState
{
    OnlineReport &rep;
    ResilienceManager *resil;
    std::vector<Lane> lanes;
    std::vector<DeviceClock> clocks;
    /** The host thread: admits arrivals and pays their transfers. */
    double hostFree = 0.0;
    /** Admitted requests failed (timed out or out of retries). */
    std::size_t failed = 0;
};

/** Device and stream a hedge copy runs on; device -1 is none. */
struct Backup
{
    int device = -1;
    int stream = 0;
};

/** An admitted request: its id, its lane and the transfer it paid. */
struct Admitted
{
    std::uint64_t id = 0;
    std::size_t lane = 0;
    double transferSec = 0.0;
};

/** One lane's LaneSpec from its ServingConfig + the run's OnlineConfig
 *  — the single place the policy layer learns a lane's knobs. */
LaneSpec
laneSpecFrom(const std::string &name, const ServingConfig &scfg,
             const OnlineConfig &cfg)
{
    LaneSpec spec;
    spec.name = name;
    spec.maxBatch = std::max<std::size_t>(1, scfg.maxBatch);
    spec.deadlineSec = scfg.deadlineMs * 1e-3;
    spec.fixedBatch = std::min(
        spec.maxBatch,
        cfg.fixedBatch > 0 ? cfg.fixedBatch : spec.maxBatch);
    spec.weight = scfg.tenantWeight;
    spec.tier = scfg.tenantTier;
    spec.maxQueueDepth = scfg.maxQueueDepth;
    spec.shed = scfg.shed;
    return spec;
}

/** The run's own arrival process (single device and group): its
 *  recorded trace, or a Poisson draw from its rate, count and seed
 *  shaped by the serving config's MMPP and diurnal knobs. */
LoadGenerator
runArrivals(const OnlineConfig &cfg)
{
    if (!cfg.arrivalTrace.empty() || cfg.numRequests == 0)
        return LoadGenerator(cfg.arrivalTrace);
    return LoadGenerator(cfg.arrivalRatePerSec, cfg.numRequests,
                         cfg.arrivalSeed, cfg.serving.mmpp,
                         cfg.serving.diurnal);
}

/** Lane with the oldest head-of-line arrival — the forced-progress
 *  fallback when a (custom) policy returns -1 with no arrivals left. */
int
oldestLane(const std::vector<LaneView> &views)
{
    int best = -1;
    for (std::size_t i = 0; i < views.size(); ++i) {
        if (views[i].queueDepth == 0)
            continue;
        if (best < 0 ||
            views[i].headArrivalSec <
                views[static_cast<std::size_t>(best)].headArrivalSec)
            best = static_cast<int>(i);
    }
    return best;
}

/** Throw early (at construction) on a policy name the registry cannot
 *  resolve, instead of failing mid-run. */
void
validatePolicyName(const OnlineConfig &cfg)
{
    if (!cfg.makePolicy && !schedulerPolicyRegistered(cfg.policy))
        throw std::invalid_argument(
            "OnlineServer: unknown scheduling policy '" + cfg.policy +
            "'");
}

} // namespace

/**
 * What differs between serving on one device and on a device group,
 * behind the one seam the tick loop calls. The defaults describe one
 * device: the host thread admits arrivals and issues launches, and a
 * batch has no halo and gathers nowhere. Devices are indexed
 * [0, count()); runtime(d).deviceId() labels events and spans.
 */
class OnlineServer::Devices
{
  public:
    explicit Devices(ServingCore &core) : core(core) {}
    Devices(const Devices &) = delete;
    Devices &operator=(const Devices &) = delete;
    virtual ~Devices() = default;

    /** This run's lanes and arrival processes; lanes that share one
     *  cost model share @p batcher. */
    virtual RunSetup setup(const OnlineConfig &cfg,
                           AdaptiveBatcher &batcher) = 0;
    virtual int count() const { return 1; }
    virtual int numStreams() const = 0;
    virtual sim::Runtime &runtime(int dev) = 0;
    /** The clock arrivals are admitted and decisions taken against. */
    virtual double now(double host_free) const { return host_free; }
    /** The issue thread of a device. */
    virtual double &issueClock(TickState &st, int) { return st.hostFree; }
    /** The device a batch served on @p dev gathers onto. */
    virtual int root(int dev) const { return dev; }
    /** Arrival time of @p bytes sent from @p from to @p to at @p at. */
    virtual double transfer(int, int, double, double at) { return at; }
    virtual double linkBusySec() const { return 0.0; }

    /** Sample, transfer and enqueue one arrival of @p p. */
    virtual Admitted submit(const Arrivals &p,
                            const std::vector<Lane> &lanes) = 0;
    virtual std::size_t queued() const = 0;
    virtual void dropOldest(const Lane &lane) = 0;
    virtual ShardBatch serve(const Lane &lane, std::size_t n,
                             int stream) = 0;
    /** Where a hedge of @p lane's head runs while its primary batch
     *  runs on @p stream. */
    virtual Backup backup(const TickState &st, const Lane &lane,
                          int stream) const = 0;
    /** Run @p lane's head once more on @p b, storing no result. */
    virtual ShardBatch hedge(const Lane &lane, const Backup &b) = 0;
    virtual void advanceTo(double t) = 0;

    /** Group-only step before each tick's scheduling decision. */
    virtual void beforeTick(TickState &) {}
    /** Group-only trace span of a hedge copy. */
    virtual void traceHedge(const BatchTimes &, const ShardBatch &,
                            const Backup &)
    {}

    /** The session's ids, results, brownout scale, plan cache and
     *  flight recorder, shared by both session kinds. */
    ServingCore &core;
};

namespace
{

/** One device: an Engine on one Runtime, one lane per served variant,
 *  a hedge on the least-loaded other stream. */
class EngineDevice : public OnlineServer::Devices
{
  public:
    explicit EngineDevice(Engine &engine) : Devices(engine), e_(engine) {}

    RunSetup
    setup(const OnlineConfig &cfg, AdaptiveBatcher &) override
    {
        RunSetup s;
        for (const VariantLoad &l : cfg.variants) {
            const int v = e_.variantIndex(l.variant);
            const ServingConfig &vcfg = e_.variantConfig(v);
            addLane(s, v, cfg, l.ratePerSec,
                    LoadGenerator(l.ratePerSec, l.numRequests,
                                  l.arrivalSeed, vcfg.mmpp, vcfg.diurnal));
        }
        return s;
    }
    int numStreams() const override { return e_.config().numStreams; }
    sim::Runtime &runtime(int) override { return e_.runtime(); }

    Admitted
    submit(const Arrivals &p, const std::vector<Lane> &lanes) override
    {
        const std::size_t lane = static_cast<std::size_t>(p.lane);
        const double before = e_.runtime().hostTimeMs() * 1e-3;
        const std::uint64_t id = e_.submit(lanes[lane].variant);
        return {id, lane, e_.runtime().hostTimeMs() * 1e-3 - before};
    }
    std::size_t queued() const override { return e_.queued(); }
    void dropOldest(const Lane &l) override { e_.dropOldest(l.variant, 1); }
    ShardBatch
    serve(const Lane &l, std::size_t n, int stream) override
    {
        return {e_.serveOldest(l.variant, n, stream)};
    }
    Backup
    backup(const TickState &st, const Lane &, int stream) const override
    {
        const int s = st.clocks[0].pickStream(stream);
        return {s < 0 ? -1 : 0, s};
    }
    ShardBatch
    hedge(const Lane &l, const Backup &b) override
    {
        return {e_.hedgeOldest(l.variant, b.stream)};
    }
    void advanceTo(double t) override { e_.runtime().advanceTo(t); }

  protected:
    /** Variant @p v's lane, owned by the arrival process @p gen. */
    void
    addLane(RunSetup &s, int v, const OnlineConfig &cfg, double rate,
            LoadGenerator gen)
    {
        const ServingConfig &vcfg = e_.variantConfig(v);
        const std::string &name = e_.variantName(v);
        s.policy.lanes.push_back(laneSpecFrom(name, vcfg, cfg));
        s.lanes.push_back({.variant = v, .variantName = name,
                           .span = "tick/" + name,
                           .deadlineMs = vcfg.deadlineMs,
                           .feed = s.arrivals.size()});
        s.arrivals.push_back({std::move(gen),
                              static_cast<int>(s.lanes.size() - 1), rate,
                              vcfg.deadlineMs, vcfg.maxQueueDepth});
    }

    Engine &e_;
};

/** Single-device mode: one lane fed from the run's own arrival knobs,
 *  costed by the server's batcher(). */
class SessionDevice : public EngineDevice
{
  public:
    using EngineDevice::EngineDevice;

    RunSetup
    setup(const OnlineConfig &cfg, AdaptiveBatcher &batcher) override
    {
        RunSetup s;
        addLane(s, 0, cfg, cfg.arrivalRatePerSec, runArrivals(cfg));
        s.policy.sharedBatcher = &batcher;
        return s;
    }
};

/**
 * A device group through a ShardedSession: one lane per device, fed by
 * one arrival process the session routes to a home shard, all lanes
 * costed by the server's batcher(). Each device issues on its own
 * driver thread while the host thread admits, so arrivals are admitted
 * against the later of the host and group clocks — queue depth builds
 * under load and the adaptive batcher actually batches. A batch waits
 * for its halo and gathers its outputs onto the root. A hedge runs on
 * the alive other device with the shallowest queue (ties to the lowest
 * id), on its least-loaded stream.
 */
class GroupDevices : public OnlineServer::Devices
{
  public:
    explicit GroupDevices(ShardedSession &s)
        : Devices(s), s_(s), g_(s.group())
    {}

    RunSetup
    setup(const OnlineConfig &cfg, AdaptiveBatcher &batcher) override
    {
        RunSetup s;
        for (int d = 0; d < g_.size(); ++d) {
            s.lanes.push_back({.device = d, .span = "tick",
                               .deadlineMs = cfg.serving.deadlineMs});
            s.policy.lanes.push_back(laneSpecFrom(
                "dev" + std::to_string(d), cfg.serving, cfg));
        }
        s.policy.sharedBatcher = &batcher;
        s.arrivals.push_back({runArrivals(cfg), -1, cfg.arrivalRatePerSec,
                              cfg.serving.deadlineMs,
                              cfg.serving.maxQueueDepth});
        return s;
    }
    int count() const override { return g_.size(); }
    int numStreams() const override { return s_.config().serving.numStreams; }
    sim::Runtime &runtime(int dev) override { return g_.device(dev); }
    double now(double t) const override { return std::max(t, g_.nowSec()); }
    double &
    issueClock(TickState &st, int dev) override
    {
        return st.clocks[static_cast<std::size_t>(dev)].issueFree;
    }
    int root(int) const override { return s_.root(); }
    double
    transfer(int from, int to, double bytes, double at) override
    {
        return g_.interconnect().transfer(from, to, bytes, at);
    }
    double
    linkBusySec() const override
    {
        return g_.interconnect().totalBusySec();
    }

    Admitted
    submit(const Arrivals &, const std::vector<Lane> &) override
    {
        const ShardedSession::SubmitInfo info = s_.submitRouted();
        return {info.id, static_cast<std::size_t>(info.device),
                info.transferSec};
    }
    std::size_t queued() const override { return s_.queued(); }
    void dropOldest(const Lane &l) override { s_.dropOldestOn(l.device, 1); }
    ShardBatch
    serve(const Lane &l, std::size_t n, int stream) override
    {
        return s_.serveOldestOn(l.device, n, stream);
    }
    Backup
    backup(const TickState &st, const Lane &l, int) const override
    {
        int dev = -1;
        for (int d = 0; d < g_.size(); ++d)
            if (d != l.device && !s_.isDead(d) &&
                (dev < 0 ||
                 st.lanes[static_cast<std::size_t>(d)].queued.size() <
                     st.lanes[static_cast<std::size_t>(dev)].queued.size()))
                dev = d;
        if (dev < 0)
            return {};
        return {dev, st.clocks[static_cast<std::size_t>(dev)].pickStream()};
    }
    ShardBatch
    hedge(const Lane &l, const Backup &b) override
    {
        return s_.hedgeOldestOn(l.device, b.device, b.stream);
    }
    void advanceTo(double t) override { g_.advanceTo(t); }

    void
    beforeTick(TickState &st) override
    {
        quarantineFailed(st);
        // Circuit breakers steer the router: homeShard avoids
        // open-breaker devices while an unmasked alive device remains.
        if (!st.resil)
            return;
        std::vector<char> avoid(static_cast<std::size_t>(g_.size()), 0);
        bool any = false;
        for (std::size_t d = 0; d < avoid.size(); ++d)
            if (st.resil->blocked(d, now(st.hostFree))) {
                avoid[d] = 1;
                any = true;
            }
        s_.setRouteAvoid(any ? std::move(avoid) : std::vector<char>{});
    }
    void
    traceHedge(const BatchTimes &t, const ShardBatch &b,
               const Backup &at) override
    {
        if (obs::enabled())
            obs::tracer().complete("tick/hedge", "online", t.execStart,
                                   b.cost.execSec, at.device, at.stream,
                                   "\"batch\":1");
    }

  private:
    /**
     * Scheduled device failures fire against the open-loop clock: the
     * session quarantines the device and re-routes its queue (charging
     * the structure re-sends on the host thread), and the lanes mirror
     * the move — the session's re-route order IS the lane order, both
     * FIFO by admission. Under resilience a re-route is a retry with
     * seeded capped backoff; an exhausted budget fails the request,
     * and its re-routed copy leaves the destination queue.
     */
    void
    quarantineFailed(TickState &st)
    {
        sim::FaultInjector *fi = g_.faultInjector();
        if (!fi)
            return;
        for (int d = 0; d < g_.size(); ++d) {
            if (s_.isDead(d) || !fi->failureDue(d, now(st.hostFree)))
                continue;
            const double t_fail = fi->failureTimeSec(d);
            const std::vector<ShardedSession::Rerouted> moved =
                s_.quarantine(d, t_fail);
            auto &dq = st.lanes[static_cast<std::size_t>(d)].queued;
            for (const ShardedSession::Rerouted &rr : moved) {
                QueuedArrival qa{0.0, rr.id};
                if (!dq.empty()) {
                    qa = dq.front();
                    dq.pop_front();
                }
                st.hostFree += rr.transferSec;
                if (st.resil) {
                    const ResilienceManager::RetryDecision rd =
                        st.resil->onFailure(
                            rr.id, static_cast<std::size_t>(rr.from),
                            rr.from, t_fail, "quarantine", qa.attempts);
                    if (!rd.retry) {
                        s_.dropQueued(rr.id);
                        ++st.failed;
                        continue;
                    }
                    qa.attempts = rd.attempt;
                    qa.notBeforeSec = rd.notBeforeSec;
                }
                st.lanes[static_cast<std::size_t>(rr.to)].queued.push_back(
                    qa);
            }
            dq.clear();
            st.rep.requestsRerouted += moved.size();
            if (obs::enabled())
                obs::tracer().instant(
                    "device.failure", "online", t_fail, d, 0,
                    "\"rerouted\":" + std::to_string(moved.size()));
        }
        st.rep.devicesFailed = g_.size() - s_.aliveCount();
    }

    ShardedSession &s_;
    sim::DeviceGroup &g_;
};

} // namespace

OnlineServer::OnlineServer(const graph::HeteroGraph &g,
                           tensor::Tensor host_features,
                           std::string model_source, OnlineConfig cfg,
                           sim::Runtime &rt)
    : cfg_(cfg),
      session_(std::make_unique<ServingSession>(
          g, std::move(host_features), std::move(model_source),
          cfg.serving, rt)),
      batcher_(laneSpecFrom("", cfg.serving, cfg)),
      devices_(std::make_unique<SessionDevice>(session_->engine()))
{
    validatePolicyName(cfg_);
}

OnlineServer::OnlineServer(const graph::HeteroGraph &g,
                           tensor::Tensor host_features,
                           std::string model_source, OnlineConfig cfg,
                           sim::DeviceGroup &group)
    : cfg_(cfg), batcher_(laneSpecFrom("", cfg.serving, cfg))
{
    validatePolicyName(cfg_);
    sharded_ = std::make_unique<ShardedSession>(
        g, std::move(host_features), std::move(model_source),
        ShardedConfig{cfg.serving, cfg.partition}, group);
    devices_ = std::make_unique<GroupDevices>(*sharded_);
}

OnlineServer::OnlineServer(Engine &engine, OnlineConfig cfg)
    : cfg_(cfg), engine_(&engine),
      batcher_(laneSpecFrom("", cfg.serving, cfg)),
      devices_(std::make_unique<EngineDevice>(engine))
{
    validatePolicyName(cfg_);
    if (cfg_.variants.empty())
        throw std::invalid_argument(
            "OnlineServer: multi-tenant mode needs at least one "
            "VariantLoad");
    std::set<std::string> seen;
    for (const VariantLoad &load : cfg_.variants) {
        if (engine.variantIndex(load.variant) < 0)
            throw std::invalid_argument(
                "OnlineServer: unregistered variant '" + load.variant +
                "'");
        if (!seen.insert(load.variant).second)
            throw std::invalid_argument(
                "OnlineServer: duplicate VariantLoad for variant '" +
                load.variant +
                "' (two lanes feeding one FIFO would scramble "
                "per-request latency attribution)");
        if (load.ratePerSec <= 0.0)
            throw std::invalid_argument(
                "OnlineServer: ratePerSec must be > 0 for variant '" +
                load.variant + "'");
    }
}

OnlineServer::~OnlineServer() = default;

ServingSession &
OnlineServer::session()
{
    if (!session_)
        throw std::runtime_error(
            "OnlineServer::session: server does not run in "
            "single-device mode");
    return *session_;
}

ShardedSession &
OnlineServer::sharded()
{
    if (!sharded_)
        throw std::runtime_error(
            "OnlineServer::sharded: server does not run in sharded mode");
    return *sharded_;
}

Engine &
OnlineServer::engine()
{
    if (!engine_)
        throw std::runtime_error(
            "OnlineServer::engine: server does not run in multi-tenant "
            "mode");
    return *engine_;
}

void
OnlineServer::setFlightRecorder(obs::FlightRecorder *fr)
{
    flight_ = fr;
    devices_->core.setFlightRecorder(fr);
}

OnlineReport
OnlineServer::run()
{
    latenciesMs_.clear();
    queueDelaysMs_.clear();
    batchSizes_.clear();
    Devices &dev = *devices_;
    RunSetup setup = dev.setup(cfg_, batcher_);
    std::vector<Arrivals> &arrivals = setup.arrivals;

    OnlineReport rep;
    rep.devices = dev.count();
    // Lanes with their own SLOs below can only raise the base deadline.
    rep.deadlineMs = cfg_.serving.deadlineMs;
    std::size_t total = 0;
    bool judged = false; // some process with arrivals has a deadline
    for (const Arrivals &p : arrivals) {
        rep.offeredRatePerSec += p.ratePerSec;
        rep.deadlineMs = std::max(rep.deadlineMs, p.deadlineMs);
        total += p.gen.remaining();
        judged = judged || (p.deadlineMs > 0.0 && !p.gen.done());
    }
    // makePolicy wins over the policy name.
    const std::unique_ptr<SchedulerPolicy> policy =
        cfg_.makePolicy
            ? cfg_.makePolicy(setup.policy)
            : makeSchedulerPolicy(cfg_.policy, std::move(setup.policy));
    if (!policy)
        throw std::runtime_error(
            "OnlineServer: policy factory returned null");
    rep.policy = policy->name();
    if (total == 0)
        return rep;

    std::unique_ptr<ResilienceManager> resil;
    if (cfg_.serving.resilience.enabled) {
        resil = std::make_unique<ResilienceManager>(
            cfg_.serving.resilience, setup.lanes.size());
        resil->setFlightRecorder(flight_);
    }
    TickState st{rep, resil.get(), std::move(setup.lanes), {}};
    std::vector<Lane> &lanes = st.lanes;
    st.clocks.assign(
        static_cast<std::size_t>(dev.count()),
        {std::vector<double>(
            static_cast<std::size_t>(std::max(1, dev.numStreams())), 0.0)});
    const double serial_frac = dev.runtime(0).spec().streamSerialFraction;
    auto device_id = [&](int d) { return dev.runtime(d).deviceId(); };
    auto launches = [&]() {
        std::uint64_t n = 0;
        for (int d = 0; d < dev.count(); ++d)
            n += dev.runtime(d).counters().total().launches;
        return n;
    };
    const std::uint64_t launches_before = launches();
    const double link_busy_before = dev.linkBusySec();
    std::size_t shed_total = 0;

    // A process that owns a lane is judged against that lane's queue;
    // a routed one against the devices' whole backlog, before routing.
    auto backlog = [&](const Arrivals &p) {
        return p.lane >= 0 ? lanes[static_cast<std::size_t>(p.lane)]
                                 .queued.size()
                           : dev.queued();
    };

    // Admit (or shed) every arrival the admission clock has passed,
    // across processes in global time order. An admitted request pays
    // its modeled host-to-device transfer on the host thread; a shed
    // arrival never samples, never transfers and never touches a
    // queue, and counts against a lane's breaker only when its process
    // owns that lane.
    auto admit = [&]() {
        while (true) {
            const double now = dev.now(st.hostFree);
            Arrivals *p = nullptr;
            for (Arrivals &a : arrivals)
                if (!a.gen.done() && a.gen.peekSec() <= now &&
                    (!p || a.gen.peekSec() < p->gen.peekSec()))
                    p = &a;
            if (!p)
                break;
            Lane *own = p->lane >= 0
                            ? &lanes[static_cast<std::size_t>(p->lane)]
                            : nullptr;
            const double arr = p->gen.next();
            rep.lastArrivalMs = std::max(rep.lastArrivalMs, arr * 1e3);
            LaneView view;
            view.queueDepth = backlog(*p);
            view.headArrivalSec = own && !own->queued.empty()
                                      ? own->queued.front().arrivalSec
                                      : arr;
            view.moreArrivals = !p->gen.done();
            // A routed process is judged by lane 0's spec, which every
            // device lane shares.
            const std::size_t li = own ? static_cast<std::size_t>(p->lane)
                                       : 0;
            const AdmitDecision dec = policy->admit(li, view, arr, now);
            if (!dec.admit) {
                ++shed_total;
                const std::uint64_t id = dev.core.reserveId();
                const int d = own ? device_id(own->device) : -1;
                if (flight_) {
                    flight_->event(id, "arrival", arr, d,
                                   own && !own->variantName.empty()
                                       ? "variant=" + own->variantName
                                       : std::string());
                    flight_->event(id, "shed", arr, d,
                                   std::string("reason=") + dec.reason);
                }
                if (obs::enabled()) {
                    obs::metrics().counter("online.requests_shed").inc();
                    obs::tracer().instant("shed", "online", arr, d, 0,
                                          std::string("\"reason\":\"") +
                                              dec.reason + "\"");
                }
                if (own)
                    ++own->shed;
                if (resil && own)
                    resil->noteFailure(li, now, "shed");
                continue;
            }
            const Admitted a = dev.submit(*p, lanes);
            Lane &lane = lanes[a.lane];
            if (resil)
                resil->noteAdmit(a.lane);
            st.hostFree = std::max(st.hostFree, arr) + a.transferSec;
            if (flight_) {
                const int id = device_id(lane.device);
                flight_->event(a.id, "arrival", arr, id,
                               lane.variantName.empty()
                                   ? std::string()
                                   : "variant=" + lane.variantName);
                flight_->event(a.id, "admission", st.hostFree, id,
                               "transfer_ms=" +
                                   obs::jsonNum(a.transferSec * 1e3));
            }
            lane.queued.push_back(QueuedArrival{arr, a.id});
            rep.peakLaneQueueDepth =
                std::max(rep.peakLaneQueueDepth, lane.queued.size());
        }
    };

    // Timeout cancellation: fail a lane's queue head fast while its
    // remaining deadline budget cannot cover the policy's calibrated
    // service estimate. Read-only unless it fires, so a run where no
    // deadline ever expires keeps the pre-resilience timeline.
    auto failfast = [&]() {
        if (!resil)
            return;
        const double now = dev.now(st.hostFree);
        for (std::size_t i = 0; i < lanes.size(); ++i) {
            Lane &ln = lanes[i];
            while (ln.deadlineMs > 0.0 && !ln.queued.empty()) {
                const QueuedArrival head = ln.queued.front();
                const double est = policy->estimateServiceSec(i, 1);
                if (!resil->deadlineExpired(head.arrivalSec,
                                            ln.deadlineMs * 1e-3, now, est))
                    break;
                dev.dropOldest(ln);
                ln.queued.pop_front();
                resil->recordTimeout(head.id, i, device_id(ln.device),
                                     head.arrivalSec, now);
                ++st.failed;
            }
        }
    };

    /** Per-lane dynamic state for the policy's decision points. */
    auto lane_views = [&]() {
        const double now = dev.now(st.hostFree);
        std::vector<LaneView> views(lanes.size());
        for (std::size_t i = 0; i < lanes.size(); ++i) {
            const std::deque<QueuedArrival> &q = lanes[i].queued;
            views[i].queueDepth = q.size();
            views[i].headArrivalSec = q.empty() ? 0.0 : q.front().arrivalSec;
            // Admission sheds once the lane's process reaches its queue
            // bound, so only arrivals below it can still grow the lane.
            const Arrivals &feed = arrivals[lanes[i].feed];
            const LaneSpec &spec = policy->lane(
                feed.lane >= 0 ? static_cast<std::size_t>(feed.lane) : 0);
            const bool at_bound = spec.shed != ShedMode::None &&
                                  spec.maxQueueDepth > 0 &&
                                  backlog(feed) >= spec.maxQueueDepth;
            views[i].moreArrivals = !feed.gen.done() && !at_bound;
            // An open breaker blocks the lane, and so does a head still
            // inside its retry-backoff hold.
            views[i].blocked =
                resil && (resil->blocked(i, now) ||
                          (!q.empty() && q.front().notBeforeSec > now));
        }
        return views;
    };

    // One batch through @p d's clocks: its issue thread issues the
    // launches, the halo becomes resident, the stream and the
    // contention floor free up, and the outputs gather onto @p root.
    auto issue = [&](int d, int stream, const ShardBatch &b, int root) {
        DeviceClock &c = st.clocks[static_cast<std::size_t>(d)];
        double &issue_free = dev.issueClock(st, d);
        BatchTimes t;
        t.issueDone = std::max(issue_free, st.hostFree) + b.cost.overheadSec;
        issue_free = t.issueDone;
        // Halo rows must be resident before the batch's kernels start;
        // rows owned by failed shards re-gather from the host store
        // over this device's PCIe lanes instead of the interconnect.
        t.commDone = t.issueDone;
        for (const auto &[owner, bytes] : b.haloBytesByOwner) {
            t.commDone = std::max(
                t.commDone, dev.transfer(owner, d, bytes, t.issueDone));
            rep.haloBytes += bytes;
        }
        if (b.hostFallbackBytes > 0.0) {
            sim::Runtime &drt = dev.runtime(d);
            const double ht =
                graph::hostTransferSec(b.hostFallbackBytes, drt.spec());
            drt.hostOverhead(ht);
            t.commDone = std::max(t.commDone, t.issueDone + ht);
        }
        double &stream_at = c.streamFree[static_cast<std::size_t>(stream)];
        t.execStart =
            std::max(t.commDone, std::max(stream_at, c.contendFree));
        t.execDone = t.execStart + b.cost.execSec;
        stream_at = t.execDone;
        c.contendFree = t.execStart + serial_frac * b.cost.execSec;
        t.done = d != root
                     ? dev.transfer(d, root, b.gatherBytes, t.execDone)
                     : t.execDone;
        return t;
    };

    std::vector<double> latencies;
    std::vector<double> queue_delays;
    latencies.reserve(total);
    queue_delays.reserve(total);
    std::size_t met = 0; // served within their own lane's deadline
    double last_completion = 0.0;

    while (latencies.size() + shed_total + st.failed < total) {
        admit();
        dev.beforeTick(st);
        failfast();
        const std::vector<LaneView> views = lane_views();
        int li = policy->pickLane(views);
        if (li < 0) {
            // Idle, wait-to-fill still filling or an open breaker: jump
            // the host clock to the next arrival. Once arrivals run
            // out, heads may still be backoff-held: jump to the
            // earliest hold expiry and re-evaluate.
            double wake = std::numeric_limits<double>::infinity();
            for (const Arrivals &p : arrivals)
                if (!p.gen.done())
                    wake = std::min(wake, p.gen.peekSec());
            const double now = dev.now(st.hostFree);
            if (!std::isfinite(wake))
                for (const Lane &ln : lanes)
                    if (!ln.queued.empty() &&
                        ln.queued.front().notBeforeSec > now)
                        wake = std::min(wake, ln.queued.front().notBeforeSec);
            if (std::isfinite(wake)) {
                st.hostFree = std::max(st.hostFree, wake);
                dev.advanceTo(st.hostFree);
                continue;
            }
            li = oldestLane(views); // forced progress (breaker probe)
            if (li < 0)
                break; // nothing queued, nothing arriving
        }
        const std::size_t lane_idx = static_cast<std::size_t>(li);
        Lane &lane = lanes[lane_idx];
        const double now = dev.now(st.hostFree);

        const std::size_t depth = lane.queued.size();
        rep.peakQueueDepth = std::max(rep.peakQueueDepth, dev.queued());
        rep.peakLaneQueueDepth = std::max(rep.peakLaneQueueDepth, depth);

        if (resil) {
            // Brownout pressure: the largest process backlog relative
            // to that process's own queue bound, so one tenant's bound
            // never decides whether another's overload browns out. A
            // group's one process counts its total backlog: a per-lane
            // max would never cross the watermark once the bound
            // spreads across devices.
            std::size_t pressure = 0;
            std::size_t bound = 0;
            for (const Arrivals &p : arrivals)
                if (p.bound > 0 &&
                    (bound == 0 || backlog(p) * bound > pressure * p.bound)) {
                    pressure = backlog(p);
                    bound = p.bound;
                }
            resil->tickBrownout(pressure, bound, now);
            dev.core.setDuplicationScale(resil->duplicationScale());
        }

        std::size_t batch = policy->pickBatch(lane_idx, views[lane_idx]);
        batch = std::max<std::size_t>(1, std::min(batch, depth));

        if (!cfg_.retainResults)
            dev.core.clearResults();

        // Hedge: the head request has waited past the EWMA-derived
        // delay, so a backup copy runs on a second stream or device;
        // the first completion wins. The primary result stays
        // authoritative (a hedge stores nothing), so outputs are
        // bit-identical to the unhedged run by construction.
        const int s = st.clocks[static_cast<std::size_t>(lane.device)]
                          .pickStream();
        const QueuedArrival head = lane.queued.front();
        Backup backup;
        ShardBatch hb;
        const double waited = now - head.arrivalSec;
        if (resil && resil->hedgeReady() && waited > resil->hedgeDelaySec()) {
            backup = dev.backup(st, lane, s);
            if (backup.device >= 0)
                hb = dev.hedge(lane, backup);
            if (hb.cost.requests > 0)
                resil->recordHedge(head.id, lane_idx,
                                   device_id(backup.device), now, waited);
        }

        const int root = dev.root(lane.device);
        const ShardBatch sb = dev.serve(lane, batch, s);
        const BatchTimes t = issue(lane.device, s, sb, root);
        double head_done = t.done;
        if (hb.cost.requests > 0) {
            const BatchTimes th = issue(backup.device, backup.stream, hb,
                                        root);
            head_done = std::min(t.done, th.done);
            resil->recordHedgeOutcome(head.id, device_id(backup.device),
                                      head_done, th.done < t.done);
            dev.traceHedge(th, hb, backup);
            last_completion = std::max(last_completion, th.done);
        }
        dev.advanceTo(std::max(t.done, last_completion));

        const int id = device_id(lane.device);
        double halo_total = 0.0;
        for (const auto &[owner, bytes] : sb.haloBytesByOwner)
            halo_total += bytes;
        if (obs::enabled()) {
            if (t.commDone > t.issueDone)
                obs::tracer().complete(
                    "halo", "comm", t.issueDone, t.commDone - t.issueDone,
                    id, s, "\"bytes\":" + obs::jsonNum(halo_total));
            obs::tracer().complete(lane.span, "online", t.execStart,
                                   sb.cost.execSec, id, s,
                                   "\"batch\":" + std::to_string(batch));
            if (lane.device != root)
                obs::tracer().complete(
                    "gather", "comm", t.execDone, t.done - t.execDone, id,
                    s, "\"bytes\":" + obs::jsonNum(sb.gatherBytes));
        }

        policy->observe(lane_idx, sb.cost);
        batchSizes_.push_back(batch);
        ++rep.ticks;

        for (std::size_t i = 0; i < batch; ++i) {
            const QueuedArrival req = lane.queued.front();
            lane.queued.pop_front();
            const double done_at = i == 0 ? head_done : t.done;
            const double lat = done_at - req.arrivalSec;
            latencies.push_back(lat);
            lane.latencies.push_back(lat);
            queue_delays.push_back(
                std::max(0.0, t.execStart - req.arrivalSec));
            if (metDeadline(lat, lane.deadlineMs))
                ++met;
            if (resil)
                resil->observeLatency(lat);
            if (flight_) {
                if (t.commDone > t.issueDone)
                    flight_->event(req.id, "halo", t.commDone, id,
                                   "bytes=" + obs::jsonNum(halo_total));
                flight_->event(req.id, "exec-start", t.execStart, id,
                               "stream=" + std::to_string(s));
                if (lane.device != root)
                    flight_->event(req.id, "all-gather", t.done, id,
                                   "bytes=" + obs::jsonNum(sb.gatherBytes));
                flight_->event(req.id, "completion", done_at, id,
                               "latency_ms=" + obs::jsonNum(lat * 1e3));
            }
            if (obs::enabled())
                obs::metrics().histogram("online.latency_ms").observe(
                    lat * 1e3);
        }
        if (resil)
            resil->noteSuccess(lane_idx, t.done);
        last_completion = std::max(last_completion, t.done);
    }

    // The report tail. fillLatencyStats keeps the drain and online
    // latency statistics from drifting. Each request was judged against
    // its own lane's deadline: admittedSloAttainment over the served
    // requests, sloAttainment over the offered ones, counting shed and
    // failed arrivals as misses. Resilience-failed requests were
    // admitted, so they stay out of shedFraction.
    const std::size_t served = latencies.size();
    const std::size_t offered = served + shed_total + st.failed;
    rep.requests = served;
    rep.batches = rep.ticks;
    rep.makespanMs = last_completion * 1e3;
    rep.throughputReqPerSec =
        last_completion > 0.0 ? static_cast<double>(served) / last_completion
                              : 0.0;
    rep.msPerRequest =
        served ? rep.makespanMs / static_cast<double>(served) : 0.0;
    rep.meanBatchSize = rep.ticks ? static_cast<double>(served) /
                                        static_cast<double>(rep.ticks)
                                  : 0.0;
    fillLatencyStats(rep, latencies, queue_delays, 0.0);
    if (judged && served > 0)
        rep.sloAttainment =
            static_cast<double>(met) / static_cast<double>(served);
    rep.requestsShed = shed_total;
    rep.admittedSloAttainment = rep.sloAttainment;
    rep.shedFraction = offered > 0 ? static_cast<double>(shed_total) /
                                         static_cast<double>(offered)
                                   : 0.0;
    if ((shed_total > 0 || st.failed > 0) && judged)
        rep.sloAttainment =
            static_cast<double>(met) / static_cast<double>(offered);
    if (resil) {
        const ResilienceStats &rs = resil->stats();
        rep.requestsRetried = rs.requestsRetried;
        rep.requestsHedged = rs.requestsHedged;
        rep.hedgeWins = rs.hedgeWins;
        rep.requestsTimedOut = rs.requestsTimedOut;
        rep.requestsFailed = rs.requestsFailed;
        rep.breakerOpens = rs.breakerOpens;
        rep.brownoutTicks = rs.brownoutTicks;
    }
    for (double l : latencies)
        latenciesMs_.push_back(l * 1e3);
    for (double d : queue_delays)
        queueDelaysMs_.push_back(d * 1e3);
    for (Lane &ln : lanes) {
        if (ln.variantName.empty() || (ln.latencies.empty() && ln.shed == 0))
            continue;
        VariantReport vr =
            makeVariantReport(ln.variantName, ln.latencies, ln.deadlineMs);
        vr.requestsShed = ln.shed;
        rep.perVariant.push_back(std::move(vr));
    }
    rep.interconnectMs = (dev.linkBusySec() - link_busy_before) * 1e3;
    fillCacheStats(rep, dev.core.planCache().stats());
    rep.launches = launches() - launches_before;
    return rep;
}

// ------------------------------------------------------------ absorb helper

void
absorbOnlineReport(obs::Registry &reg, const OnlineReport &report,
                   const std::string &prefix)
{
    absorbReport(reg, report, prefix);
    reg.gauge(prefix + ".requests_shed")
        .set(static_cast<double>(report.requestsShed));
    reg.gauge(prefix + ".shed_fraction").set(report.shedFraction);
    reg.gauge(prefix + ".admitted_slo_attainment")
        .set(report.admittedSloAttainment);
    reg.gauge(prefix + ".peak_queue_depth")
        .set(static_cast<double>(report.peakQueueDepth));
    reg.gauge(prefix + ".peak_lane_queue_depth")
        .set(static_cast<double>(report.peakLaneQueueDepth));
    reg.gauge(prefix + ".requests_retried")
        .set(static_cast<double>(report.requestsRetried));
    reg.gauge(prefix + ".requests_hedged")
        .set(static_cast<double>(report.requestsHedged));
    reg.gauge(prefix + ".hedge_wins")
        .set(static_cast<double>(report.hedgeWins));
    reg.gauge(prefix + ".requests_timed_out")
        .set(static_cast<double>(report.requestsTimedOut));
    reg.gauge(prefix + ".requests_failed")
        .set(static_cast<double>(report.requestsFailed));
    reg.gauge(prefix + ".breaker_opens")
        .set(static_cast<double>(report.breakerOpens));
    reg.gauge(prefix + ".brownout_ticks")
        .set(static_cast<double>(report.brownoutTicks));
}

} // namespace hector::serve
