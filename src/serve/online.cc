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
                             std::uint64_t seed)
    : LoadGenerator(rate_per_sec, count, seed, MmppSpec{})
{}

LoadGenerator::LoadGenerator(double rate_per_sec, std::size_t count,
                             std::uint64_t seed, const MmppSpec &mmpp)
    : LoadGenerator(rate_per_sec, count, seed, mmpp, DiurnalSpec{})
{}

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
                        std::uint64_t seed)
{
    return arrivals(rate_per_sec, count, seed, MmppSpec{});
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

/** Arrival time and request id of one queued arrival (FIFO entries of
 *  the tick loops; the id attributes flight-recorder lifecycle events
 *  to the engine-assigned request). */
struct QueuedArrival
{
    double arrivalSec = 0.0;
    std::uint64_t id = 0;
    /** Failed attempts so far (resilience retry bookkeeping). */
    int attempts = 0;
    /** Earliest time a retried request may be served (backoff hold). */
    double notBeforeSec = 0.0;
};

/**
 * Per-request completion bookkeeping shared by the two tick loops: the
 * run's latency and queue-delay samples, the deadline tally, the
 * resilience latency EWMA, the exec-start/completion flight events and
 * the latency histogram.
 */
struct Completions
{
    ResilienceManager *resil;
    obs::FlightRecorder *flight;
    std::vector<double> latenciesSec;
    std::vector<double> queueDelaysSec;
    /** Served requests that met their own lane's deadline. */
    std::size_t met = 0;

    Completions(ResilienceManager *r, obs::FlightRecorder *f)
        : resil(r), flight(f)
    {}

    /**
     * Record @p req, whose batch started executing at @p exec_start on
     * @p device / @p stream and which completed at @p done_at. @p hop,
     * when set, is a flight event between exec-start and completion
     * (the sharded all-gather). Returns the latency in seconds.
     */
    double
    complete(const QueuedArrival &req, double exec_start, double done_at,
             double deadline_ms, int device, int stream,
             const obs::FlightEvent *hop = nullptr)
    {
        const double lat = done_at - req.arrivalSec;
        latenciesSec.push_back(lat);
        queueDelaysSec.push_back(
            std::max(0.0, exec_start - req.arrivalSec));
        if (metDeadline(lat, deadline_ms))
            ++met;
        if (resil)
            resil->observeLatency(lat);
        if (flight) {
            flight->event(req.id, "exec-start", exec_start, device,
                          "stream=" + std::to_string(stream));
            if (hop)
                flight->event(req.id, hop->what, hop->tSec, hop->device,
                              hop->detail);
            flight->event(req.id, "completion", done_at, device,
                          "latency_ms=" + obs::jsonNum(lat * 1e3));
        }
        if (obs::enabled())
            obs::metrics().histogram("online.latency_ms").observe(lat * 1e3);
        return lat;
    }
};

/**
 * Shared finalization tail of the two tick loops: rate and batch-size
 * metrics, the per-request latency statistics via fillLatencyStats (so
 * the drain and online paths cannot drift), and the shedding
 * statistics. With @p judged (some lane has a deadline), attainment is
 * c.met over the served requests; admittedSloAttainment keeps that,
 * while sloAttainment counts shed arrivals as misses (denominator =
 * offered), which reduces to the admitted value whenever nothing was
 * shed.
 */
void
finalizeOnlineReport(OnlineReport &rep, double last_completion_sec,
                     const Completions &c, bool judged, std::size_t shed,
                     std::size_t failed)
{
    const std::size_t served = c.latenciesSec.size();
    rep.requests = served;
    rep.batches = rep.ticks;
    rep.makespanMs = last_completion_sec * 1e3;
    rep.throughputReqPerSec =
        last_completion_sec > 0.0
            ? static_cast<double>(served) / last_completion_sec
            : 0.0;
    rep.msPerRequest =
        served ? rep.makespanMs / static_cast<double>(served) : 0.0;
    rep.meanBatchSize =
        rep.ticks ? static_cast<double>(served) /
                        static_cast<double>(rep.ticks)
                  : 0.0;
    fillLatencyStats(rep, c.latenciesSec, c.queueDelaysSec, 0.0);
    if (judged && served > 0)
        rep.sloAttainment =
            static_cast<double>(c.met) / static_cast<double>(served);

    rep.requestsShed = shed;
    rep.admittedSloAttainment = rep.sloAttainment;
    // Resilience-failed requests (timeouts, exhausted retries) were
    // admitted, so they stay out of shedFraction but count as misses
    // in the offered-denominator sloAttainment, exactly like sheds.
    const std::size_t offered = served + shed + failed;
    rep.shedFraction =
        offered > 0
            ? static_cast<double>(shed) / static_cast<double>(offered)
            : 0.0;
    if ((shed > 0 || failed > 0) && judged)
        rep.sloAttainment =
            static_cast<double>(c.met) / static_cast<double>(offered);
}

/**
 * Single-device open-loop clocks of the lane loop: one host thread
 * admits arrivals and issues launches (hostFree), each stream runs one
 * batch at a time (streamFree), and the serialized fraction of every
 * kernel occupies a device-wide shared resource (contendFree) —
 * Runtime::makespanSec's overlap rule, applied per batch.
 */
struct OpenLoopClock
{
    std::vector<double> streamFree;
    double hostFree = 0.0;
    double contendFree = 0.0;
    double serialFrac = 0.0;

    OpenLoopClock(int num_streams, double serial_frac)
        : streamFree(static_cast<std::size_t>(num_streams), 0.0),
          serialFrac(serial_frac)
    {}

    /** Least-loaded stream (ties to the lower id). */
    int
    pickStream() const
    {
        int s = 0;
        for (std::size_t i = 1; i < streamFree.size(); ++i)
            if (streamFree[i] < streamFree[static_cast<std::size_t>(s)])
                s = static_cast<int>(i);
        return s;
    }

    struct Issued
    {
        double execStart = 0.0;
        double done = 0.0;
    };

    /** Advance all three clocks for one batch issued to @p stream. */
    Issued
    issue(const BatchCost &cost, int stream)
    {
        const double issue_done = hostFree + cost.overheadSec;
        Issued t;
        t.execStart = std::max(
            issue_done,
            std::max(streamFree[static_cast<std::size_t>(stream)],
                     contendFree));
        t.done = t.execStart + cost.execSec;
        hostFree = issue_done;
        streamFree[static_cast<std::size_t>(stream)] = t.done;
        contendFree = t.execStart + serialFrac * cost.execSec;
        return t;
    }
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
    spec.ewmaAlpha = cfg.ewmaAlpha;
    spec.budgetFraction = cfg.deadlineBudgetFraction;
    return spec;
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

/** Record one shed arrival: flight-recorder lifecycle ("arrival" ->
 *  "shed" with the policy's reason), metrics counter, trace instant. */
void
recordShed(obs::FlightRecorder *flight, std::uint64_t id,
           double arrival_sec, int device, const char *reason,
           const std::string &variant)
{
    if (flight) {
        flight->event(id, "arrival", arrival_sec, device,
                      variant.empty() ? std::string()
                                      : "variant=" + variant);
        flight->event(id, "shed", arrival_sec, device,
                      std::string("reason=") + reason);
    }
    if (obs::enabled()) {
        obs::metrics().counter("online.requests_shed").inc();
        obs::tracer().instant("shed", "online", arrival_sec, device, 0,
                              std::string("\"reason\":\"") + reason +
                                  "\"");
    }
}

/** Copy a run's resilience counters into its report (no-op without a
 *  manager, keeping the no-resilience report bytes untouched). */
void
applyResilienceStats(OnlineReport &rep, const ResilienceManager *resil)
{
    if (!resil)
        return;
    const ResilienceStats &s = resil->stats();
    rep.requestsRetried = s.requestsRetried;
    rep.requestsHedged = s.requestsHedged;
    rep.hedgeWins = s.hedgeWins;
    rep.requestsTimedOut = s.requestsTimedOut;
    rep.requestsFailed = s.requestsFailed;
    rep.breakerOpens = s.breakerOpens;
    rep.brownoutTicks = s.brownoutTicks;
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

OnlineServer::OnlineServer(const graph::HeteroGraph &g,
                           tensor::Tensor host_features,
                           std::string model_source, OnlineConfig cfg,
                           sim::Runtime &rt)
    : cfg_(cfg),
      session_(std::make_unique<ServingSession>(
          g, std::move(host_features), std::move(model_source),
          cfg.serving, rt)),
      batcher_(std::max<std::size_t>(1, cfg.serving.maxBatch),
               cfg.serving.deadlineMs * 1e-3, cfg.ewmaAlpha,
               cfg.deadlineBudgetFraction,
               cfg.serving.maxQueueDepth > 0 &&
                   cfg.serving.shed != ShedMode::None)
{
    validatePolicyName(cfg_);
}

OnlineServer::OnlineServer(const graph::HeteroGraph &g,
                           tensor::Tensor host_features,
                           std::string model_source, OnlineConfig cfg,
                           sim::DeviceGroup &group)
    : cfg_(cfg), group_(&group),
      batcher_(std::max<std::size_t>(1, cfg.serving.maxBatch),
               cfg.serving.deadlineMs * 1e-3, cfg.ewmaAlpha,
               cfg.deadlineBudgetFraction,
               cfg.serving.maxQueueDepth > 0 &&
                   cfg.serving.shed != ShedMode::None)
{
    validatePolicyName(cfg_);
    ShardedConfig scfg;
    scfg.serving = cfg.serving;
    scfg.partition = cfg.partition;
    sharded_ = std::make_unique<ShardedSession>(
        g, std::move(host_features), std::move(model_source), scfg,
        group);
}

OnlineServer::OnlineServer(Engine &engine, OnlineConfig cfg)
    : cfg_(cfg), engine_(&engine),
      batcher_(std::max<std::size_t>(1, cfg.serving.maxBatch),
               cfg.serving.deadlineMs * 1e-3, cfg.ewmaAlpha,
               cfg.deadlineBudgetFraction,
               cfg.serving.maxQueueDepth > 0 &&
                   cfg.serving.shed != ShedMode::None)
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
    if (engine_)
        engine_->setFlightRecorder(fr);
    if (session_)
        session_->engine().setFlightRecorder(fr);
    if (sharded_)
        sharded_->setFlightRecorder(fr);
}

std::unique_ptr<SchedulerPolicy>
OnlineServer::buildPolicy(PolicySetup setup) const
{
    std::unique_ptr<SchedulerPolicy> policy;
    if (cfg_.makePolicy)
        policy = cfg_.makePolicy(setup);
    else
        policy = makeSchedulerPolicy(cfg_.policy, std::move(setup));
    if (!policy)
        throw std::runtime_error(
            "OnlineServer: policy factory returned null");
    return policy;
}

OnlineReport
OnlineServer::run()
{
    latenciesMs_.clear();
    queueDelaysMs_.clear();
    batchSizes_.clear();
    return sharded_ ? runSharded() : runLanes();
}

void
OnlineServer::keepSamples(const std::vector<double> &latencies_sec,
                          const std::vector<double> &queue_delays_sec)
{
    for (double l : latencies_sec)
        latenciesMs_.push_back(l * 1e3);
    for (double d : queue_delays_sec)
        queueDelaysMs_.push_back(d * 1e3);
}

OnlineReport
OnlineServer::runLanes()
{
    // Single-device mode is a one-lane run over its session's engine.
    Engine &engine = engine_ ? *engine_ : session_->engine();
    sim::Runtime &rt = engine.runtime();
    OnlineReport rep;
    // Lanes with their own SLOs below can only raise the base deadline.
    rep.deadlineMs = cfg_.serving.deadlineMs;

    /** One open-loop arrival process + queue per variant (batch sizing
     *  and lane ordering live in the SchedulerPolicy). */
    struct Lane
    {
        int variant;
        std::string name;
        double deadlineMs;
        LoadGenerator gen;
        std::deque<QueuedArrival> queued;
        std::vector<double> latencies; ///< seconds, completion order
        std::size_t shed = 0;

        Lane(int v, std::string n, double deadline_ms, LoadGenerator g)
            : variant(v), name(std::move(n)), deadlineMs(deadline_ms),
              gen(std::move(g))
        {}
    };

    std::vector<Lane> lanes;
    PolicySetup setup;
    std::size_t total = 0;
    bool judged = false; // some lane with arrivals has a deadline
    auto add_lane = [&](int v, double rate, LoadGenerator gen) {
        const ServingConfig &vcfg = engine.variantConfig(v);
        const std::string &name = engine.variantName(v);
        setup.lanes.push_back(laneSpecFrom(name, vcfg, cfg_));
        rep.offeredRatePerSec += rate;
        rep.deadlineMs = std::max(rep.deadlineMs, vcfg.deadlineMs);
        total += gen.remaining();
        judged = judged || (vcfg.deadlineMs > 0.0 && !gen.done());
        lanes.emplace_back(v, name, vcfg.deadlineMs, std::move(gen));
    };
    if (session_) {
        // Fed from the run's own arrival knobs, or its recorded trace;
        // the lane shares the server's batcher, which batcher() reports.
        const ServingConfig &scfg = cfg_.serving;
        add_lane(0, cfg_.arrivalRatePerSec,
                 cfg_.arrivalTrace.empty() && cfg_.numRequests > 0
                     ? LoadGenerator(cfg_.arrivalRatePerSec,
                                     cfg_.numRequests, cfg_.arrivalSeed,
                                     scfg.mmpp, scfg.diurnal)
                     : LoadGenerator(cfg_.arrivalTrace));
        setup.sharedBatcher = &batcher_;
    } else {
        for (const VariantLoad &load : cfg_.variants) {
            const int v = engine.variantIndex(load.variant);
            const ServingConfig &vcfg = engine.variantConfig(v);
            add_lane(v, load.ratePerSec,
                     LoadGenerator(load.ratePerSec, load.numRequests,
                                   load.arrivalSeed, vcfg.mmpp,
                                   vcfg.diurnal));
        }
    }
    const std::unique_ptr<SchedulerPolicy> policy =
        buildPolicy(std::move(setup));
    rep.policy = policy->name();
    if (total == 0)
        return rep;

    std::unique_ptr<ResilienceManager> resil;
    if (cfg_.serving.resilience.enabled) {
        resil = std::make_unique<ResilienceManager>(
            cfg_.serving.resilience, lanes.size());
        resil->setFlightRecorder(flight_);
    }
    std::size_t brownout_bound = 0;
    for (const Lane &ln : lanes)
        brownout_bound =
            std::max(brownout_bound,
                     engine.variantConfig(ln.variant).maxQueueDepth);

    const int num_streams = std::max(1, engine.config().numStreams);
    OpenLoopClock clock(num_streams, rt.spec().streamSerialFraction);

    const std::uint64_t launches_before = rt.counters().total().launches;
    std::size_t shed_total = 0;
    std::size_t failed_total = 0;

    // Admit (or shed) every arrival the host clock has passed, across
    // lanes in global time order; each admitted request pays its
    // modeled host-to-device transfer on the serialized host clock,
    // while shed arrivals never sample, never transfer, and never
    // touch a queue.
    auto admit = [&]() {
        while (true) {
            std::size_t next = lanes.size();
            for (std::size_t i = 0; i < lanes.size(); ++i)
                if (!lanes[i].gen.done() &&
                    lanes[i].gen.peekSec() <= clock.hostFree &&
                    (next == lanes.size() ||
                     lanes[i].gen.peekSec() < lanes[next].gen.peekSec()))
                    next = i;
            if (next == lanes.size())
                break;
            Lane &ln = lanes[next];
            const double arr = ln.gen.next();
            rep.lastArrivalMs = std::max(rep.lastArrivalMs, arr * 1e3);
            LaneView view;
            view.queueDepth = ln.queued.size();
            view.headArrivalSec =
                ln.queued.empty() ? arr : ln.queued.front().arrivalSec;
            view.moreArrivals = !ln.gen.done();
            const AdmitDecision dec =
                policy->admit(next, view, arr, clock.hostFree);
            if (!dec.admit) {
                ++ln.shed;
                ++shed_total;
                recordShed(flight_, engine.reserveId(), arr,
                           rt.deviceId(), dec.reason, ln.name);
                if (resil)
                    resil->noteFailure(next, clock.hostFree, "shed");
                continue;
            }
            if (resil)
                resil->noteAdmit(next);
            const double host_before = rt.hostTimeMs() * 1e-3;
            const std::uint64_t id = engine.submit(ln.variant);
            const double transfer = rt.hostTimeMs() * 1e-3 - host_before;
            clock.hostFree = std::max(clock.hostFree, arr) + transfer;
            if (flight_) {
                flight_->event(id, "arrival", arr, rt.deviceId(),
                               "variant=" + ln.name);
                flight_->event(id, "admission", clock.hostFree,
                               rt.deviceId(),
                               "transfer_ms=" +
                                   obs::jsonNum(transfer * 1e3));
            }
            ln.queued.push_back(QueuedArrival{arr, id});
            rep.peakLaneQueueDepth =
                std::max(rep.peakLaneQueueDepth, ln.queued.size());
        }
    };

    /** Earliest pending arrival across lanes; +inf when exhausted. */
    auto next_arrival = [&]() {
        double t = std::numeric_limits<double>::infinity();
        for (Lane &ln : lanes)
            if (!ln.gen.done())
                t = std::min(t, ln.gen.peekSec());
        return t;
    };

    /** Per-lane dynamic state for the policy's decision points. */
    auto lane_views = [&]() {
        std::vector<LaneView> views(lanes.size());
        for (std::size_t i = 0; i < lanes.size(); ++i) {
            views[i].queueDepth = lanes[i].queued.size();
            views[i].headArrivalSec =
                lanes[i].queued.empty()
                    ? 0.0
                    : lanes[i].queued.front().arrivalSec;
            views[i].moreArrivals = !lanes[i].gen.done();
            views[i].blocked =
                resil && resil->blocked(i, clock.hostFree);
        }
        return views;
    };

    // Timeout cancellation: fail a lane's queue head fast while its
    // remaining deadline budget cannot cover the policy's calibrated
    // service estimate. Read-only unless it fires, so a run where no
    // deadline ever expires keeps the pre-resilience timeline.
    auto failfast = [&]() {
        if (!resil)
            return;
        for (std::size_t i = 0; i < lanes.size(); ++i) {
            Lane &ln = lanes[i];
            if (ln.deadlineMs <= 0.0)
                continue;
            while (!ln.queued.empty()) {
                const QueuedArrival head = ln.queued.front();
                const double est = policy->estimateServiceSec(i, 1);
                if (!resil->deadlineExpired(head.arrivalSec,
                                            ln.deadlineMs * 1e-3,
                                            clock.hostFree, est))
                    break;
                engine.dropOldest(ln.variant, 1);
                ln.queued.pop_front();
                resil->recordTimeout(head.id, i, rt.deviceId(),
                                     head.arrivalSec, clock.hostFree);
                ++failed_total;
            }
        }
    };

    Completions served(resil.get(), flight_);
    served.latenciesSec.reserve(total);
    served.queueDelaysSec.reserve(total);
    double last_completion = 0.0;

    while (served.latenciesSec.size() + shed_total + failed_total <
           total) {
        admit();
        failfast();
        const std::vector<LaneView> views = lane_views();
        int li = policy->pickLane(views);
        if (li < 0) {
            const double na = next_arrival();
            if (std::isfinite(na)) {
                // Idle, wait-to-fill still filling, or an open breaker:
                // jump the host clock to the next arrival.
                clock.hostFree = std::max(clock.hostFree, na);
                rt.advanceTo(clock.hostFree);
                continue;
            }
            li = oldestLane(views); // forced progress (breaker probe)
            if (li < 0)
                break; // nothing queued, nothing arriving
        }
        const std::size_t lane_idx = static_cast<std::size_t>(li);
        Lane &lane = lanes[lane_idx];

        const std::size_t depth = lane.queued.size();
        rep.peakQueueDepth = std::max(rep.peakQueueDepth, engine.queued());
        rep.peakLaneQueueDepth = std::max(rep.peakLaneQueueDepth, depth);

        if (resil) {
            std::size_t max_depth = 0;
            for (const Lane &ln : lanes)
                max_depth = std::max(max_depth, ln.queued.size());
            resil->tickBrownout(max_depth, brownout_bound,
                                clock.hostFree);
            engine.setDuplicationScale(resil->duplicationScale());
        }

        std::size_t batch = policy->pickBatch(lane_idx, views[lane_idx]);
        batch = std::max<std::size_t>(1, std::min(batch, depth));

        if (!cfg_.retainResults)
            engine.clearResults();

        // Hedge: the head request has waited past the EWMA-derived
        // delay, so a backup copy runs on a second stream; the first
        // completion wins. The primary result stays authoritative
        // (hedgeOldest stores nothing), so outputs are bit-identical
        // to the unhedged run by construction.
        const int s = clock.pickStream();
        const QueuedArrival head = lane.queued.front();
        bool hedged = false;
        BatchCost hedge_cost;
        int hs = -1;
        if (resil && resil->hedgeReady() && num_streams > 1) {
            const double waited = clock.hostFree - head.arrivalSec;
            if (waited > resil->hedgeDelaySec()) {
                hs = s == 0 ? 1 : 0;
                for (int i = 0; i < num_streams; ++i)
                    if (i != s &&
                        clock.streamFree[static_cast<std::size_t>(i)] <
                            clock.streamFree[static_cast<std::size_t>(
                                hs)])
                        hs = i;
                hedge_cost = engine.hedgeOldest(lane.variant, hs);
                hedged = hedge_cost.requests > 0;
                if (hedged)
                    resil->recordHedge(head.id, lane_idx, rt.deviceId(),
                                       clock.hostFree, waited);
            }
        }

        const BatchCost cost = engine.serveOldest(lane.variant, batch, s);
        const OpenLoopClock::Issued t = clock.issue(cost, s);
        double head_done = t.done;
        if (hedged) {
            const OpenLoopClock::Issued th =
                clock.issue(hedge_cost, hs);
            const bool hedge_won = th.done < t.done;
            head_done = std::min(t.done, th.done);
            resil->recordHedgeOutcome(head.id, rt.deviceId(),
                                      head_done, hedge_won);
            last_completion = std::max(last_completion, th.done);
        }
        rt.advanceTo(std::max(t.done, last_completion));

        if (obs::enabled())
            obs::tracer().complete(
                "tick/" + lane.name, "online", t.execStart,
                cost.execSec, rt.deviceId(), s,
                "\"batch\":" + std::to_string(batch));

        policy->observe(lane_idx, cost);
        batchSizes_.push_back(batch);
        ++rep.ticks;

        for (std::size_t i = 0; i < batch; ++i) {
            lane.latencies.push_back(served.complete(
                lane.queued.front(), t.execStart,
                i == 0 ? head_done : t.done, lane.deadlineMs,
                rt.deviceId(), s));
            lane.queued.pop_front();
        }
        if (resil)
            resil->noteSuccess(lane_idx, t.done);
        last_completion = std::max(last_completion, t.done);
    }

    // Each request was judged against its own lane's deadline.
    finalizeOnlineReport(rep, last_completion, served, judged, shed_total,
                         failed_total);
    applyResilienceStats(rep, resil.get());
    keepSamples(served.latenciesSec, served.queueDelaysSec);

    for (Lane &ln : lanes) {
        if (ln.latencies.empty() && ln.shed == 0)
            continue;
        VariantReport vr =
            makeVariantReport(ln.name, ln.latencies, ln.deadlineMs);
        vr.requestsShed = ln.shed;
        rep.perVariant.push_back(std::move(vr));
    }

    fillCacheStats(rep, engine.planCache().stats());
    rep.launches = rt.counters().total().launches - launches_before;
    return rep;
}

OnlineReport
OnlineServer::runSharded()
{
    OnlineReport rep;
    rep.offeredRatePerSec = cfg_.arrivalRatePerSec;
    rep.deadlineMs = cfg_.serving.deadlineMs;
    rep.devices = group_->size();

    const int devices = group_->size();

    // One lane per home shard, all sharing the run's ServingConfig —
    // and one shared cost model (the server's batcher), exactly the
    // pre-policy behavior where every device fed the same EWMAs.
    PolicySetup setup;
    setup.lanes.reserve(static_cast<std::size_t>(devices));
    for (int d = 0; d < devices; ++d)
        setup.lanes.push_back(laneSpecFrom(
            "dev" + std::to_string(d), cfg_.serving, cfg_));
    setup.sharedBatcher = &batcher_;
    const std::unique_ptr<SchedulerPolicy> policy =
        buildPolicy(std::move(setup));
    rep.policy = policy->name();
    const std::size_t total_requests = cfg_.arrivalTrace.empty()
                                           ? cfg_.numRequests
                                           : cfg_.arrivalTrace.size();
    if (total_requests == 0)
        return rep;

    LoadGenerator gen =
        cfg_.arrivalTrace.empty()
            ? LoadGenerator(cfg_.arrivalRatePerSec, cfg_.numRequests,
                            cfg_.arrivalSeed, cfg_.serving.mmpp,
                            cfg_.serving.diurnal)
            : LoadGenerator(cfg_.arrivalTrace);

    std::unique_ptr<ResilienceManager> resil;
    if (cfg_.serving.resilience.enabled) {
        resil = std::make_unique<ResilienceManager>(
            cfg_.serving.resilience,
            static_cast<std::size_t>(devices));
        resil->setFlightRecorder(flight_);
    }
    const double deadline_sec = cfg_.serving.deadlineMs * 1e-3;

    const int num_streams = std::max(1, cfg_.serving.numStreams);
    const double serial_frac =
        group_->device(0).spec().streamSerialFraction;

    // Multi-device open-loop timeline. The shared pieces stay shared:
    // one PCIe link admits arrivals (host_free) and the interconnect
    // serializes per directed link. Per device, an own driver thread
    // issues launches (issue_free), each stream runs one batch at a
    // time (stream_free), and the device's contention floor gates
    // overlapped execution (contend_free) — the same per-batch overlap
    // rule as the lane loop, instantiated per device.
    std::vector<std::vector<double>> stream_free(
        static_cast<std::size_t>(devices),
        std::vector<double>(static_cast<std::size_t>(num_streams), 0.0));
    std::vector<double> issue_free(static_cast<std::size_t>(devices),
                                   0.0);
    std::vector<double> contend_free(static_cast<std::size_t>(devices),
                                     0.0);
    double host_free = 0.0;

    /** Arrival time and id of each queued request, FIFO per home
     *  device. */
    std::vector<std::deque<QueuedArrival>> queued_arrivals(
        static_cast<std::size_t>(devices));

    const std::uint64_t launches_before = group_->totalLaunches();
    const double ic_busy_before =
        group_->interconnect().totalBusySec();
    std::size_t shed_total = 0;
    std::size_t failed_total = 0;

    // Admit (or shed) arrivals the simulation has reached. Unlike the
    // lane loop — whose one host thread both admits and
    // issues, so admission stalls behind issue overheads — the group's
    // admission thread is free while devices execute: anything that
    // arrived by the group clock (advanced to each batch completion)
    // is admitted, which is what lets queue depth build under load and
    // the adaptive batcher actually batch. The admission bound applies
    // to the whole session's backlog (one variant, one bound), judged
    // BEFORE routing — shed arrivals never sample and never route.
    auto admit = [&]() {
        while (!gen.done() &&
               gen.peekSec() <= std::max(host_free, group_->nowSec())) {
            const double arr = gen.next();
            rep.lastArrivalMs = arr * 1e3;
            LaneView view;
            view.queueDepth = sharded_->queued();
            view.headArrivalSec = arr;
            view.moreArrivals = !gen.done();
            const AdmitDecision dec = policy->admit(
                0, view, arr, std::max(host_free, group_->nowSec()));
            if (!dec.admit) {
                ++shed_total;
                recordShed(flight_, sharded_->reserveId(), arr, -1,
                           dec.reason, std::string());
                continue;
            }
            const ShardedSession::SubmitInfo info =
                sharded_->submitRouted();
            if (resil)
                resil->noteAdmit(
                    static_cast<std::size_t>(info.device));
            host_free = std::max(host_free, arr) + info.transferSec;
            if (flight_) {
                flight_->event(info.id, "arrival", arr, info.device);
                flight_->event(
                    info.id, "admission", host_free, info.device,
                    "transfer_ms=" +
                        obs::jsonNum(info.transferSec * 1e3));
            }
            queued_arrivals[static_cast<std::size_t>(info.device)]
                .push_back(QueuedArrival{arr, info.id});
            rep.peakLaneQueueDepth = std::max(
                rep.peakLaneQueueDepth,
                queued_arrivals[static_cast<std::size_t>(info.device)]
                    .size());
        }
    };

    // Scheduled device failures fire against the open-loop clock: the
    // session quarantines the device and re-routes its queue (charging
    // the structure re-sends on the admission thread), and this loop's
    // per-device arrival deque mirrors the move — the session's
    // re-route order IS the deque order, both FIFO by admission.
    sim::FaultInjector *fi = group_->faultInjector();
    auto check_failures = [&]() {
        if (!fi)
            return;
        for (int d = 0; d < devices; ++d) {
            if (sharded_->isDead(d) ||
                !fi->failureDue(
                    d, std::max(host_free, group_->nowSec())))
                continue;
            const double t_fail = fi->failureTimeSec(d);
            const std::vector<ShardedSession::Rerouted> moved =
                sharded_->quarantine(d, t_fail);
            auto &dq = queued_arrivals[static_cast<std::size_t>(d)];
            for (const ShardedSession::Rerouted &rr : moved) {
                QueuedArrival qa{};
                qa.id = rr.id;
                if (!dq.empty()) {
                    qa = dq.front();
                    dq.pop_front();
                }
                host_free += rr.transferSec;
                if (resil) {
                    // Retry with seeded capped backoff: a quarantine
                    // is a transient per-request failure. Exhausted
                    // budgets fail the request outright — its
                    // re-routed copy leaves the destination queue.
                    const ResilienceManager::RetryDecision rd =
                        resil->onFailure(
                            rr.id, static_cast<std::size_t>(rr.from),
                            rr.from, t_fail, "quarantine",
                            qa.attempts);
                    if (!rd.retry) {
                        sharded_->dropQueued(rr.id);
                        ++failed_total;
                        continue;
                    }
                    qa.attempts = rd.attempt;
                    qa.notBeforeSec = rd.notBeforeSec;
                }
                queued_arrivals[static_cast<std::size_t>(rr.to)]
                    .push_back(qa);
            }
            dq.clear();
            rep.requestsRerouted += moved.size();
            if (obs::enabled())
                obs::tracer().instant(
                    "device.failure", "online", t_fail, d, 0,
                    "\"rerouted\":" + std::to_string(moved.size()));
        }
        rep.devicesFailed = group_->size() - sharded_->aliveCount();
    };

    /** Per-device dynamic state for the policy (dead devices hold no
     *  queue — quarantine re-routed it — so they are never picked). */
    auto lane_views = [&]() {
        const double now = std::max(host_free, group_->nowSec());
        std::vector<LaneView> views(static_cast<std::size_t>(devices));
        for (int d = 0; d < devices; ++d) {
            const auto &q =
                queued_arrivals[static_cast<std::size_t>(d)];
            views[static_cast<std::size_t>(d)].queueDepth = q.size();
            views[static_cast<std::size_t>(d)].headArrivalSec =
                q.empty() ? 0.0 : q.front().arrivalSec;
            views[static_cast<std::size_t>(d)].moreArrivals =
                !gen.done();
            // An open breaker blocks the lane, and so does a head
            // still inside its retry-backoff hold.
            views[static_cast<std::size_t>(d)].blocked =
                resil &&
                (resil->blocked(static_cast<std::size_t>(d), now) ||
                 (!q.empty() && q.front().notBeforeSec > now));
        }
        return views;
    };

    // Timeout cancellation per device lane (see runLanes' failfast).
    auto failfast = [&]() {
        if (!resil || deadline_sec <= 0.0)
            return;
        const double now = std::max(host_free, group_->nowSec());
        for (int d = 0; d < devices; ++d) {
            if (sharded_->isDead(d))
                continue;
            auto &q = queued_arrivals[static_cast<std::size_t>(d)];
            while (!q.empty()) {
                const QueuedArrival head = q.front();
                const double est = policy->estimateServiceSec(
                    static_cast<std::size_t>(d), 1);
                if (!resil->deadlineExpired(head.arrivalSec,
                                            deadline_sec, now, est))
                    break;
                sharded_->dropOldestOn(d, 1);
                q.pop_front();
                resil->recordTimeout(head.id,
                                     static_cast<std::size_t>(d), d,
                                     head.arrivalSec, now);
                ++failed_total;
            }
        }
    };

    // Circuit breakers steer the router: open-breaker devices are
    // avoided by homeShard while any unmasked alive device remains.
    auto update_route_avoid = [&]() {
        if (!resil)
            return;
        const double now = std::max(host_free, group_->nowSec());
        std::vector<char> avoid(static_cast<std::size_t>(devices), 0);
        bool any = false;
        for (int d = 0; d < devices; ++d)
            if (resil->blocked(static_cast<std::size_t>(d), now)) {
                avoid[static_cast<std::size_t>(d)] = 1;
                any = true;
            }
        sharded_->setRouteAvoid(any ? std::move(avoid)
                                    : std::vector<char>{});
    };

    /** Least-loaded stream of @p dev (ties to the lower id). */
    auto pick_stream = [&](int dev) {
        const auto &streams = stream_free[static_cast<std::size_t>(dev)];
        int s = 0;
        for (int i = 1; i < num_streams; ++i)
            if (streams[static_cast<std::size_t>(i)] <
                streams[static_cast<std::size_t>(s)])
                s = i;
        return s;
    };

    /** Clock points of one batch issued on a device. */
    struct DeviceTimes
    {
        double issueDone, commDone, execStart, execDone, done;
    };
    // One batch through @p dev's clocks: its driver thread issues the
    // launches, the halo becomes resident, the stream and the
    // contention floor free up, and the outputs gather onto @p root.
    auto issue_on = [&](int dev, int stream, const ShardBatch &b,
                        int root) {
        const std::size_t di = static_cast<std::size_t>(dev);
        DeviceTimes t;
        t.issueDone =
            std::max(issue_free[di], host_free) + b.cost.overheadSec;
        issue_free[di] = t.issueDone;
        // Halo rows must be resident before the batch's kernels start;
        // rows owned by failed shards re-gather from the host store
        // over this device's PCIe lanes instead of the interconnect.
        t.commDone = t.issueDone;
        for (const auto &[owner, bytes] : b.haloBytesByOwner) {
            t.commDone = std::max(t.commDone,
                                  group_->interconnect().transfer(
                                      owner, dev, bytes, t.issueDone));
            rep.haloBytes += bytes;
        }
        if (b.hostFallbackBytes > 0.0) {
            sim::Runtime &drt = group_->device(dev);
            const double ht =
                graph::hostTransferSec(b.hostFallbackBytes, drt.spec());
            drt.hostOverhead(ht);
            t.commDone = std::max(t.commDone, t.issueDone + ht);
        }
        double &stream_at = stream_free[di][static_cast<std::size_t>(stream)];
        t.execStart =
            std::max(t.commDone, std::max(stream_at, contend_free[di]));
        t.execDone = t.execStart + b.cost.execSec;
        stream_at = t.execDone;
        contend_free[di] = t.execStart + serial_frac * b.cost.execSec;
        t.done = dev != root ? group_->interconnect().transfer(
                                   dev, root, b.gatherBytes, t.execDone)
                             : t.execDone;
        return t;
    };

    Completions served(resil.get(), flight_);
    served.latenciesSec.reserve(total_requests);
    served.queueDelaysSec.reserve(total_requests);
    double last_completion = 0.0;

    while (served.latenciesSec.size() + shed_total + failed_total <
           total_requests) {
        admit();
        check_failures();
        update_route_avoid();
        failfast();
        const std::vector<LaneView> views = lane_views();
        int d = policy->pickLane(views);
        if (d < 0) {
            if (!gen.done()) {
                // Idle (or wait-to-fill still filling): jump the host
                // clock to the next arrival.
                host_free = std::max(host_free, gen.peekSec());
                group_->advanceTo(host_free);
                continue;
            }
            if (resil) {
                // Arrivals exhausted but heads may be backoff-held:
                // jump to the earliest hold expiry, then re-evaluate.
                const double now =
                    std::max(host_free, group_->nowSec());
                double wake = std::numeric_limits<double>::infinity();
                for (int dd = 0; dd < devices; ++dd) {
                    const auto &q =
                        queued_arrivals[static_cast<std::size_t>(dd)];
                    if (!q.empty() && q.front().notBeforeSec > now)
                        wake =
                            std::min(wake, q.front().notBeforeSec);
                }
                if (std::isfinite(wake)) {
                    host_free = std::max(host_free, wake);
                    group_->advanceTo(host_free);
                    continue;
                }
            }
            d = oldestLane(views); // forced progress (breaker probe)
            if (d < 0)
                break; // nothing queued, nothing arriving
        }
        auto &q = queued_arrivals[static_cast<std::size_t>(d)];
        const std::size_t depth = q.size();
        rep.peakQueueDepth =
            std::max(rep.peakQueueDepth, sharded_->queued());
        rep.peakLaneQueueDepth =
            std::max(rep.peakLaneQueueDepth, depth);

        if (resil) {
            // Admission bounds the whole session's backlog (judged
            // before routing), so brownout pressure is the TOTAL
            // queued fraction — a per-lane max would never cross the
            // watermark once the bound spreads across devices.
            std::size_t total_depth = 0;
            for (const auto &dq : queued_arrivals)
                total_depth += dq.size();
            resil->tickBrownout(total_depth, cfg_.serving.maxQueueDepth,
                                std::max(host_free, group_->nowSec()));
            sharded_->setDuplicationScale(resil->duplicationScale());
        }

        std::size_t batch =
            policy->pickBatch(static_cast<std::size_t>(d),
                              views[static_cast<std::size_t>(d)]);
        batch = std::max<std::size_t>(1, std::min(batch, depth));

        if (!cfg_.retainResults)
            sharded_->clearResults();

        const int s = pick_stream(d);

        // Hedge: re-issue the waiting head on a second alive device
        // before serving the primary batch; the first completion wins
        // and the loser is an audited discard. hedgeOldestOn stores no
        // result, so outputs are bit-identical to the unhedged run.
        const QueuedArrival head = q.front();
        bool hedged = false;
        ShardBatch hb;
        int hedge_dev = -1;
        int hedge_stream = 0;
        if (resil && resil->hedgeReady() &&
            sharded_->aliveCount() > 1) {
            const double now = std::max(host_free, group_->nowSec());
            const double waited = now - head.arrivalSec;
            if (waited > resil->hedgeDelaySec()) {
                // Deterministic backup pick: alive, not the primary,
                // shallowest queue, ties to the lowest device id.
                for (int dd = 0; dd < devices; ++dd) {
                    if (dd == d || sharded_->isDead(dd))
                        continue;
                    if (hedge_dev < 0 ||
                        queued_arrivals[static_cast<std::size_t>(dd)]
                                .size() <
                            queued_arrivals[static_cast<std::size_t>(
                                                hedge_dev)]
                                .size())
                        hedge_dev = dd;
                }
                if (hedge_dev >= 0) {
                    hedge_stream = pick_stream(hedge_dev);
                    hb = sharded_->hedgeOldestOn(d, hedge_dev,
                                                 hedge_stream);
                    hedged = hb.cost.requests > 0;
                    if (hedged)
                        resil->recordHedge(head.id,
                                           static_cast<std::size_t>(d),
                                           hedge_dev, now, waited);
                }
            }
        }

        // All-gather onto the root: device 0 unless it has been
        // quarantined, then the lowest survivor.
        int root = 0;
        while (root < devices && sharded_->isDead(root))
            ++root;
        if (root >= devices)
            root = d;
        const ShardBatch sb = sharded_->serveOldestOn(d, batch, s);
        const DeviceTimes t = issue_on(d, s, sb, root);
        const double done = t.done;

        // The hedge copy runs through the SAME per-device clock
        // machinery on its backup device. First completion wins.
        double head_done = done;
        if (hedged) {
            const DeviceTimes th = issue_on(hedge_dev, hedge_stream, hb,
                                            root);
            const bool hedge_won = th.done < done;
            head_done = std::min(done, th.done);
            resil->recordHedgeOutcome(head.id, hedge_dev, head_done,
                                      hedge_won);
            if (obs::enabled())
                obs::tracer().complete(
                    "tick/hedge", "online", th.execStart,
                    hb.cost.execSec, hedge_dev, hedge_stream,
                    "\"batch\":1");
            last_completion = std::max(last_completion, th.done);
        }
        group_->advanceTo(std::max(done, last_completion));

        const double halo_total = [&] {
            double b = 0.0;
            for (const auto &[owner, bytes] : sb.haloBytesByOwner)
                b += bytes;
            return b;
        }();
        if (obs::enabled()) {
            if (t.commDone > t.issueDone)
                obs::tracer().complete(
                    "halo", "comm", t.issueDone, t.commDone - t.issueDone,
                    d, s, "\"bytes\":" + obs::jsonNum(halo_total));
            obs::tracer().complete(
                "tick", "online", t.execStart, sb.cost.execSec, d, s,
                "\"batch\":" + std::to_string(batch));
            if (d != root)
                obs::tracer().complete(
                    "gather", "comm", t.execDone, done - t.execDone, d, s,
                    "\"bytes\":" + obs::jsonNum(sb.gatherBytes));
        }

        policy->observe(static_cast<std::size_t>(d), sb.cost);
        batchSizes_.push_back(batch);
        ++rep.ticks;

        obs::FlightEvent gather{"all-gather", done, d,
                                "bytes=" + obs::jsonNum(sb.gatherBytes)};
        for (std::size_t i = 0; i < batch; ++i) {
            if (flight_ && t.commDone > t.issueDone)
                flight_->event(q.front().id, "halo", t.commDone, d,
                               "bytes=" + obs::jsonNum(halo_total));
            served.complete(q.front(), t.execStart,
                              i == 0 ? head_done : done,
                              cfg_.serving.deadlineMs, d, s,
                              d != root ? &gather : nullptr);
            q.pop_front();
        }
        if (resil)
            resil->noteSuccess(static_cast<std::size_t>(d), done);
        last_completion = std::max(last_completion, done);
    }

    finalizeOnlineReport(rep, last_completion, served,
                         cfg_.serving.deadlineMs > 0.0, shed_total,
                         failed_total);
    applyResilienceStats(rep, resil.get());
    keepSamples(served.latenciesSec, served.queueDelaysSec);

    rep.interconnectMs =
        (group_->interconnect().totalBusySec() - ic_busy_before) * 1e3;
    fillCacheStats(rep, sharded_->planCache().stats());
    rep.launches = group_->totalLaunches() - launches_before;
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
