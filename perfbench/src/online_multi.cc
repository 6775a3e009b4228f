/**
 * @file
 * online-multi: open-loop serving through serve::OnlineServer over a
 * serve::Engine with three variants (RGCN, RGAT, HGT) on the `am`
 * stand-in, under the "wfq" policy with two tiers, deadlines with
 * fail-fast, hedging on two streams, bounded queues with shedding, and
 * MMPP bursts. One op is one offered request; one unit is one run()
 * over a fixed arrival stream.
 */

#include <algorithm>
#include <optional>
#include <random>

#include "common.hh"
#include "core/frontend.hh"
#include "graph/datasets.hh"
#include "models/model_sources.hh"
#include "serve/online.hh"

namespace perfbench
{

using namespace hector;

namespace
{

/**
 * One tenant. Rates are absolute (requests per modeled second on the
 * 1/256-scale device) and are never recalibrated: they were set once
 * at 0.8x the modeled saturation throughput of the mix (about 825k
 * requests per modeled second with full micro-batches on two streams),
 * and MMPP bursts at twice the base rate push the offered load above
 * it, so a change in modeled cost moves the outcome rather than the
 * offered load. Deadlines and the queue bound are loose enough that
 * no request is shed or timed out today.
 */
struct Tenant
{
    const char *name;
    const char *source;
    int tier;
    double weight;
    /** Offered requests per modeled second. */
    double rate;
    /** Arrivals per unit. */
    std::size_t perUnit;
    /** Modeled deadline, scaled-device ms. */
    double deadlineMs;
};

const Tenant kTenants[] = {
    {"rgat", models::kRgatSource, 0, 1.0, 264000.0, 48, 0.25},
    {"rgcn", models::kRgcnSource, 1, 2.0, 264000.0, 48, 0.40},
    {"hgt", models::kHgtSource, 1, 1.0, 132000.0, 24, 0.40},
};
constexpr std::size_t kNumTenants = sizeof(kTenants) / sizeof(kTenants[0]);
constexpr std::size_t kQueueBound = 128;
constexpr double kBurstMultiplier = 2.0;
/**
 * Seed of the arrival trace of the i-th run() of a phase. The traffic
 * pattern is part of the workload, like its rates: every seed sees the
 * same sequence of bursts, so the modeled tail compares serving cost,
 * not luck of the draw. The workload seed draws the features, weights
 * and request sampling (the dataset is fixed, see kServingGraphSeed).
 */
constexpr std::uint64_t kArrivalSeed = 0xa11a;

/** Wall-clock probe the benchmark's policy wrapper reports into. */
struct PolicyProbe
{
    /** Per lane, the wall time of the last pickBatch() call. */
    std::vector<double> picked;
    /**
     * Per served request: wall ms of the tick that served it, from the
     * policy's pickBatch() for its batch to the observe() of that
     * batch (hedge and serveOldest() in between). Host time spent
     * queued is left out: the open loop admits a modeled burst at once
     * and serves it tick by tick, so that wait follows the modeled
     * burst pattern, which model_latency_* already measures.
     */
    std::vector<double> latencyMs;
    SpanLog *spans = nullptr;
    int layer = -1;
};

/**
 * Forwards every decision to makeSchedulerPolicy("wfq", ...) and
 * records each served request's host serving time; traced, it also
 * times each call.
 */
class ProbedPolicy : public serve::SchedulerPolicy
{
  public:
    ProbedPolicy(const serve::PolicySetup &setup, PolicyProbe &probe)
        : SchedulerPolicy(setup),
          inner_(serve::makeSchedulerPolicy("wfq", setup)), probe_(&probe)
    {
        probe_->picked.assign(setup.lanes.size(), 0.0);
    }

    const char *name() const override { return inner_->name(); }

    serve::AdmitDecision
    admit(std::size_t lane, const serve::LaneView &view, double arrival_sec,
          double now_sec) const override
    {
        const double t0 = nowMs();
        const serve::AdmitDecision d =
            inner_->admit(lane, view, arrival_sec, now_sec);
        timed(t0);
        return d;
    }

    int
    pickLane(const std::vector<serve::LaneView> &lanes) const override
    {
        const double t0 = nowMs();
        const int l = inner_->pickLane(lanes);
        timed(t0);
        return l;
    }

    std::size_t
    pickBatch(std::size_t lane, const serve::LaneView &view) const override
    {
        const double t0 = nowMs();
        probe_->picked[lane] = t0;
        const std::size_t n = inner_->pickBatch(lane, view);
        timed(t0);
        return n;
    }

    /** Called right after the batch's serveOldest() returned. */
    void
    observe(std::size_t lane, const serve::BatchCost &cost) override
    {
        const double t0 = nowMs();
        probe_->latencyMs.insert(probe_->latencyMs.end(), cost.requests,
                                 t0 - probe_->picked[lane]);
        inner_->observe(lane, cost);
        timed(t0);
    }

    double
    estimateServiceSec(std::size_t lane, std::size_t n) const override
    {
        const double t0 = nowMs();
        const double s = inner_->estimateServiceSec(lane, n);
        timed(t0);
        return s;
    }

  private:
    void
    timed(double t0) const
    {
        if (probe_->spans)
            probe_->spans->record(probe_->layer, t0, nowMs());
    }

    std::unique_ptr<serve::SchedulerPolicy> inner_;
    PolicyProbe *probe_;
};

/** Every deterministic field of an OnlineReport, at full precision,
 *  plus a digest of the modeled latency stream. */
std::string
canonicalReport(const serve::OnlineReport &rep,
                const std::vector<double> &latencies_ms)
{
    const std::uint64_t h = digestBytes(
        latencies_ms.data(), latencies_ms.size() * sizeof(double));
    std::string s;
    auto num = [&s](const char *k, double v) {
        s += k;
        s += '=';
        s += jsonNumber(v);
        s += ' ';
    };
    num("req", static_cast<double>(rep.requests));
    num("batches", static_cast<double>(rep.batches));
    num("ticks", static_cast<double>(rep.ticks));
    num("makespan", rep.makespanMs);
    num("p50", rep.p50LatencyMs);
    num("p99", rep.p99LatencyMs);
    num("max", rep.maxLatencyMs);
    num("qdelay", rep.meanQueueDelayMs);
    num("slo", rep.sloAttainment);
    num("admitted_slo", rep.admittedSloAttainment);
    num("mean_batch", rep.meanBatchSize);
    num("peak", static_cast<double>(rep.peakQueueDepth));
    num("lane_peak", static_cast<double>(rep.peakLaneQueueDepth));
    num("shed", static_cast<double>(rep.requestsShed));
    num("timed_out", static_cast<double>(rep.requestsTimedOut));
    num("failed", static_cast<double>(rep.requestsFailed));
    num("retried", static_cast<double>(rep.requestsRetried));
    num("hedged", static_cast<double>(rep.requestsHedged));
    num("hedge_wins", static_cast<double>(rep.hedgeWins));
    num("breaker_opens", static_cast<double>(rep.breakerOpens));
    num("brownout", static_cast<double>(rep.brownoutTicks));
    num("launches", static_cast<double>(rep.launches));
    s += "lat=" + std::to_string(h) + ' ';
    for (const serve::VariantReport &v : rep.perVariant) {
        s += v.name + ":";
        num("req", static_cast<double>(v.requests));
        num("p99", v.p99LatencyMs);
        num("slo", v.sloAttainment);
    }
    return s;
}

class OnlineMulti : public Workload
{
  public:
    explicit OnlineMulti(std::uint64_t seed) : seed_(seed) {}

    std::vector<PlanFacts>
    prime() override
    {
        std::vector<PlanFacts> facts;
        for (const Tenant &t : kTenants)
            facts.push_back(primePlan(core::parseModel(t.source, kDim, kDim),
                                      crOptions(false)));
        return facts;
    }

    void
    setup(Phase phase) override
    {
        engine_.reset();
        rt_.reset();
        graph_.reset();
        graph_.emplace(graph::generate(graph::datasetSpec("am"), kScale,
                                       kServingGraphSeed));
        rt_.emplace(sim::makeScaledSpec(kScale));
        serve::EngineConfig ecfg;
        ecfg.numStreams = 2;
        engine_ = std::make_unique<serve::Engine>(*graph_, ecfg, *rt_);
        for (std::size_t v = 0; v < kNumTenants; ++v) {
            std::mt19937_64 frng(deriveSeed(seed_, 20 + v));
            engine_->registerVariant(
                kTenants[v].name,
                tensor::Tensor::uniform({graph_->numNodes(), kDim}, frng,
                                        0.5f),
                kTenants[v].source, variantConfig(v));
        }
        probed_ = phase != Phase::Reference;
        probe_ = PolicyProbe();
        round_ = 0;
        // Warm-up: first-request plan compiles (JIT loads from the
        // primed directory), then steady serving.
        for (int i = 0; i < kWarmupUnits; ++i)
            (void)runUnit(nullptr);
        base_ = readSim(*rt_);
        offered_ = met_ = ticks_ = batches_ = 0.0;
        served_ = shed_ = timedOut_ = hedged_ = queueDelay_ = 0.0;
        peakQueue_ = 0.0;
        units_ = 0;
    }

    UnitResult
    runUnit(SpanLog *spans) override
    {
        serve::OnlineConfig ocfg;
        ocfg.policy = "wfq";
        ocfg.retainResults = true;
        ocfg.serving.resilience.enabled = true;
        ocfg.serving.resilience.failFast = true;
        ocfg.serving.resilience.hedge = true;
        for (std::size_t v = 0; v < kNumTenants; ++v)
            ocfg.variants.push_back(
                {kTenants[v].name, kTenants[v].rate, kTenants[v].perUnit,
                 deriveSeed(kArrivalSeed, round_ * kNumTenants + v)});
        ++round_;
        if (probed_) {
            probe_.spans = spans;
            probe_.layer = spans ? spans->layer("serve.policy") : -1;
            probe_.latencyMs.clear();
            ocfg.makePolicy = [this](const serve::PolicySetup &setup) {
                return std::make_unique<ProbedPolicy>(setup, probe_);
            };
        }

        UnitResult r;
        const std::uint64_t first_id = engine_->reserveId();
        serve::OnlineServer server(*engine_, ocfg);
        const int run_layer = spans ? spans->layer("serve.online.run") : -1;
        const double t0 = nowMs();
        const serve::OnlineReport rep = server.run();
        const double t1 = nowMs();
        if (spans)
            spans->record(run_layer, t0, t1);
        const std::uint64_t end_id = engine_->reserveId();

        const double offered =
            static_cast<double>(rep.requests + rep.requestsShed +
                                rep.requestsTimedOut + rep.requestsFailed);
        r.ops = offered;
        r.failed = offered - static_cast<double>(rep.requests);
        r.wallMs = t1 - t0;
        r.latencyMs = probe_.latencyMs;
        for (double ms : server.latenciesMs())
            r.modelLatencyMs.push_back(ms / kScale);
        for (std::uint64_t id = first_id + 1; id < end_id; ++id)
            if (const tensor::Tensor *out = engine_->result(id))
                r.digests.push_back(digestTensor(*out));
        engine_->clearResults();
        r.report = canonicalReport(rep, server.latenciesMs());

        offered_ += offered;
        served_ += static_cast<double>(rep.requests);
        met_ += rep.sloAttainment * offered;
        ticks_ += static_cast<double>(rep.ticks);
        batches_ += static_cast<double>(rep.batches);
        shed_ += static_cast<double>(rep.requestsShed);
        timedOut_ += static_cast<double>(rep.requestsTimedOut);
        hedged_ += static_cast<double>(rep.requestsHedged);
        queueDelay_ +=
            rep.meanQueueDelayMs * static_cast<double>(rep.requests);
        peakQueue_ =
            std::max(peakQueue_, static_cast<double>(rep.peakQueueDepth));
        ++units_;
        return r;
    }

    int prefixUnits() const override { return kPrefixUnits; }
    int epochUnits() const override { return kPrefixUnits; }

    void
    snapshot(MetricSet &out) const override
    {
        addSimMetrics(out, subtract(readSim(*rt_), base_), offered_);
        out.set("model_peak_mem_mb",
                static_cast<double>(rt_->tracker().peakBytes()) /
                    (1024.0 * 1024.0),
                "MiB", Clock::Modeled, true, "serving device");
        out.set("model_slo_attainment", offered_ > 0 ? met_ / offered_ : 0,
                "fraction", Clock::Modeled, true,
                "within deadline / offered; shed, timed out, failed miss");
        const serve::PlanCache::Stats &cs = engine_->planCache().stats();
        out.set("serve.plan_cache.hits", static_cast<double>(cs.hits),
                "count", Clock::Count, true, "since setup");
        out.set("serve.plan_cache.misses", static_cast<double>(cs.misses),
                "count", Clock::Count, true, "since setup");
        const double units = units_ > 0 ? units_ : 1.0;
        out.set("serve.online.ticks", ticks_ / units, "count", Clock::Count,
                true, "per run()");
        out.set("serve.online.batches", batches_ / units, "count",
                Clock::Count, true, "per run()");
        out.set("serve.online.mean_batch",
                ticks_ > 0 ? served_ / ticks_ : 0.0, "requests",
                Clock::Count, true, "served per tick");
        out.set("serve.online.shed", shed_, "count", Clock::Count, true,
                "over the prefix");
        out.set("serve.online.timed_out", timedOut_, "count", Clock::Count,
                true, "over the prefix");
        out.set("serve.online.hedged", hedged_, "count", Clock::Count, true,
                "over the prefix");
        out.set("serve.online.peak_queue", peakQueue_, "requests",
                Clock::Count, true, "engine-wide, max over the prefix");
        out.set("serve.online.queue_delay_ms",
                served_ > 0 ? queueDelay_ / served_ / kScale : 0.0, "ms",
                Clock::Modeled, true, "mean, full-size-equivalent");
    }

  private:
    static constexpr int kWarmupUnits = 2;
    /** Also the epoch: about 3 s of run() calls per set-up of about
     *  0.6 s. */
    static constexpr int kPrefixUnits = 12;

    serve::ServingConfig
    variantConfig(std::size_t v) const
    {
        const Tenant &t = kTenants[v];
        serve::ServingConfig cfg;
        cfg.maxBatch = 8;
        cfg.din = kDim;
        cfg.dout = kDim;
        cfg.sample.numSeeds = 16;
        cfg.sample.fanout = 4;
        cfg.compile = crOptions(false);
        cfg.seed = deriveSeed(seed_, 30 + v);
        cfg.deadlineMs = t.deadlineMs;
        cfg.tenantTier = t.tier;
        cfg.tenantWeight = t.weight;
        cfg.maxQueueDepth = kQueueBound;
        cfg.shed = serve::ShedMode::RejectNewest;
        cfg.mmpp.enabled = true;
        cfg.mmpp.burstRateMultiplier = kBurstMultiplier;
        return cfg;
    }

    std::uint64_t seed_;
    std::optional<graph::HeteroGraph> graph_;
    std::optional<sim::Runtime> rt_;
    std::unique_ptr<serve::Engine> engine_;
    bool probed_ = true;
    PolicyProbe probe_;
    std::uint64_t round_ = 0;
    SimTotals base_;
    double units_ = 0.0;
    double offered_ = 0.0, served_ = 0.0, met_ = 0.0;
    double ticks_ = 0.0, batches_ = 0.0;
    double shed_ = 0.0, timedOut_ = 0.0, hedged_ = 0.0;
    double queueDelay_ = 0.0, peakQueue_ = 0.0;
};

} // namespace

std::unique_ptr<Workload>
makeOnlineMulti(std::uint64_t seed)
{
    return std::make_unique<OnlineMulti>(seed);
}

} // namespace perfbench
