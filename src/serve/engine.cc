#include "serve/engine.hh"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/autotune.hh"
#include "core/frontend.hh"
#include "core/jit.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "sim/fault.hh"

namespace hector::serve
{

using tensor::Tensor;

// ------------------------------------------------------------------ helpers

bool
sampleDuplicate(double fraction, double &acc)
{
    if (fraction <= 0.0)
        return false;
    acc += fraction;
    if (acc >= 1.0 - 1e-12) {
        acc -= 1.0;
        return true;
    }
    return false;
}

GuardedBatch
guardBatch(sim::FaultInjector *fi, int device, double t_sec,
           bool duplicate, std::vector<Tensor> &outs,
           const std::function<void(std::vector<Tensor> &)> &run)
{
    GuardedBatch g;
    const bool hit = fi && fi->armTransient(device);
    g.ordinal = fi ? fi->batchOrdinal(device) : 0;
    run(outs);
    if (hit)
        fi->corruptBatch(outs, device, t_sec);
    if (!duplicate) {
        if (hit)
            fi->noteEscape(device, t_sec, g.ordinal);
        return g;
    }
    if (fi)
        fi->noteDuplicate(device, t_sec, g.ordinal);
    std::vector<Tensor> dup;
    run(dup);
    ++g.runs;
    const std::uint64_t lhs = tensor::checksum(outs);
    const std::uint64_t rhs = tensor::checksum(dup);
    if (lhs == rhs)
        return g;
    if (fi)
        fi->noteDetection(device, t_sec, g.ordinal, lhs, rhs);
    g.detected = true;
    run(outs);
    ++g.runs;
    if (fi)
        fi->noteReplay(device, t_sec, "transient");
    return g;
}

double
percentileSorted(const std::vector<double> &sorted, double q)
{
    if (sorted.empty())
        return 0.0;
    q = std::min(1.0, std::max(0.0, q));
    const double rank = std::ceil(q * static_cast<double>(sorted.size()));
    const std::size_t idx =
        rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
    return sorted[std::min(idx, sorted.size() - 1)];
}

void
fillLatencyStats(ServingReport &report,
                 const std::vector<double> &latencies_sec,
                 const std::vector<double> &queue_delays_sec,
                 double deadline_ms)
{
    std::vector<double> sorted = latencies_sec;
    std::sort(sorted.begin(), sorted.end());
    double sum = 0.0;
    for (double l : latencies_sec)
        sum += l;
    report.meanLatencyMs =
        latencies_sec.empty()
            ? 0.0
            : sum / static_cast<double>(latencies_sec.size()) * 1e3;
    report.p50LatencyMs = percentileSorted(sorted, 0.50) * 1e3;
    report.p95LatencyMs = percentileSorted(sorted, 0.95) * 1e3;
    report.p99LatencyMs = percentileSorted(sorted, 0.99) * 1e3;
    report.p999LatencyMs = percentileSorted(sorted, 0.999) * 1e3;
    report.maxLatencyMs = sorted.empty() ? 0.0 : sorted.back() * 1e3;

    double delay_sum = 0.0;
    for (double d : queue_delays_sec)
        delay_sum += d;
    report.meanQueueDelayMs =
        queue_delays_sec.empty()
            ? 0.0
            : delay_sum / static_cast<double>(queue_delays_sec.size()) *
                  1e3;

    if (deadline_ms > 0.0 && !latencies_sec.empty()) {
        std::size_t met = 0;
        for (double l : latencies_sec)
            if (metDeadline(l, deadline_ms))
                ++met;
        report.sloAttainment =
            static_cast<double>(met) /
            static_cast<double>(latencies_sec.size());
    }
}

void
fillCacheStats(ServingReport &report, const PlanCache::Stats &stats)
{
    report.cacheHits = stats.hits;
    report.cacheMisses = stats.misses;
    report.cacheRecompiles = stats.recompiles;
    report.cacheEvictions = stats.evictions;
    report.cacheResidentBytes = stats.residentBytes;
}

VariantReport
makeVariantReport(const std::string &name,
                  std::vector<double> &latencies_sec, double deadline_ms)
{
    VariantReport vr;
    vr.name = name;
    vr.requests = latencies_sec.size();
    if (latencies_sec.empty())
        return vr;
    double sum = 0.0;
    std::size_t met = 0;
    for (double l : latencies_sec) {
        sum += l;
        if (metDeadline(l, deadline_ms))
            ++met;
    }
    vr.meanLatencyMs =
        sum / static_cast<double>(latencies_sec.size()) * 1e3;
    std::sort(latencies_sec.begin(), latencies_sec.end());
    vr.p50LatencyMs = percentileSorted(latencies_sec, 0.50) * 1e3;
    vr.p99LatencyMs = percentileSorted(latencies_sec, 0.99) * 1e3;
    vr.sloAttainment =
        deadline_ms > 0.0
            ? static_cast<double>(met) /
                  static_cast<double>(latencies_sec.size())
            : 1.0;
    return vr;
}

void
recordPlanEvents(sim::PlanEvents &events, const PlanCache::Stats &before,
                 const PlanCache::Stats &after)
{
    events.compiles += after.misses - before.misses;
    events.recompiles += after.recompiles - before.recompiles;
    events.evictions += after.evictions - before.evictions;
}

void
validateServingConfig(const ServingConfig &cfg, const char *who)
{
    const std::string prefix = std::string(who) + ": ";
    if (cfg.maxBatch == 0)
        throw std::invalid_argument(prefix + "maxBatch must be > 0");
    if (cfg.numStreams <= 0)
        throw std::invalid_argument(prefix + "numStreams must be > 0");
    if (cfg.deadlineMs < 0.0 || !std::isfinite(cfg.deadlineMs))
        throw std::invalid_argument(
            prefix + "deadlineMs must be finite and >= 0");
    if (cfg.din <= 0)
        throw std::invalid_argument(prefix + "din must be > 0");
    if (cfg.dout <= 0)
        throw std::invalid_argument(prefix + "dout must be > 0");
    if (!(cfg.duplicationFraction >= 0.0 &&
          cfg.duplicationFraction <= 1.0))
        throw std::invalid_argument(
            prefix + "duplicationFraction must be in [0, 1]");
    if (cfg.shed != ShedMode::None && cfg.maxQueueDepth == 0)
        throw std::invalid_argument(
            prefix +
            "maxQueueDepth must be > 0 when shedding is enabled");
    if (!(cfg.tenantWeight > 0.0) || !std::isfinite(cfg.tenantWeight))
        throw std::invalid_argument(
            prefix + "tenantWeight must be finite and > 0");
    if (cfg.tenantTier < 0)
        throw std::invalid_argument(prefix + "tenantTier must be >= 0");
    if (cfg.mmpp.enabled) {
        if (!(cfg.mmpp.burstRateMultiplier > 0.0) ||
            !std::isfinite(cfg.mmpp.burstRateMultiplier))
            throw std::invalid_argument(
                prefix +
                "mmpp.burstRateMultiplier must be finite and > 0");
        if (!(cfg.mmpp.pEnterBurst >= 0.0 &&
              cfg.mmpp.pEnterBurst <= 1.0))
            throw std::invalid_argument(
                prefix + "mmpp.pEnterBurst must be in [0, 1]");
        if (!(cfg.mmpp.pExitBurst >= 0.0 && cfg.mmpp.pExitBurst <= 1.0))
            throw std::invalid_argument(
                prefix + "mmpp.pExitBurst must be in [0, 1]");
    }
    if (cfg.diurnal.enabled) {
        if (!(cfg.diurnal.amplitude >= 0.0 &&
              cfg.diurnal.amplitude < 1.0))
            throw std::invalid_argument(
                prefix + "diurnal.amplitude must be in [0, 1)");
        if (!(cfg.diurnal.periodSec > 0.0) ||
            !std::isfinite(cfg.diurnal.periodSec))
            throw std::invalid_argument(
                prefix + "diurnal.periodSec must be finite and > 0");
    }
    if (cfg.resilience.enabled) {
        const ResilienceConfig &r = cfg.resilience;
        if (r.maxRetries < 0)
            throw std::invalid_argument(
                prefix + "resilience.maxRetries must be >= 0");
        if (r.retryBackoffMs < 0.0 || !std::isfinite(r.retryBackoffMs))
            throw std::invalid_argument(
                prefix +
                "resilience.retryBackoffMs must be finite and >= 0");
        if (!(r.retryBackoffMultiplier >= 1.0) ||
            !std::isfinite(r.retryBackoffMultiplier))
            throw std::invalid_argument(
                prefix +
                "resilience.retryBackoffMultiplier must be >= 1");
        if (r.retryBackoffCapMs < r.retryBackoffMs ||
            !std::isfinite(r.retryBackoffCapMs))
            throw std::invalid_argument(
                prefix + "resilience.retryBackoffCapMs must be >= "
                         "retryBackoffMs");
        if (!(r.retryJitterFraction >= 0.0 &&
              r.retryJitterFraction <= 1.0))
            throw std::invalid_argument(
                prefix +
                "resilience.retryJitterFraction must be in [0, 1]");
        if (r.hedge &&
            (!(r.hedgeDelayFactor > 0.0) ||
             !std::isfinite(r.hedgeDelayFactor)))
            throw std::invalid_argument(
                prefix + "resilience.hedgeDelayFactor must be > 0 "
                         "when hedging is enabled");
        if (r.breakerFailureThreshold < 1)
            throw std::invalid_argument(
                prefix +
                "resilience.breakerFailureThreshold must be >= 1");
        if (r.breakerOpenMs < 0.0 || !std::isfinite(r.breakerOpenMs))
            throw std::invalid_argument(
                prefix +
                "resilience.breakerOpenMs must be finite and >= 0");
        if (!(r.brownoutHighWatermark > 0.0 &&
              r.brownoutHighWatermark <= 1.0))
            throw std::invalid_argument(
                prefix +
                "resilience.brownoutHighWatermark must be in (0, 1]");
        if (!(r.brownoutLowWatermark >= 0.0 &&
              r.brownoutLowWatermark < r.brownoutHighWatermark))
            throw std::invalid_argument(
                prefix + "resilience.brownoutLowWatermark must be in "
                         "[0, brownoutHighWatermark)");
    }
}

models::WeightMap
initVariantWeights(const std::string &model_source, std::int64_t din,
                   std::int64_t dout, const graph::HeteroGraph &g,
                   std::mt19937_64 &rng)
{
    core::Program pristine = core::parseModel(model_source, din, dout);
    return models::initWeights(pristine, g, rng);
}

// ------------------------------------------------------------- PlanCompiler

PlanCompiler::PlanCompiler(const graph::HeteroGraph &g, std::string label,
                           ServingConfig cfg, bool autotune_schedules)
    : g_(&g), label_(std::move(label)), cfg_(std::move(cfg)),
      autotune_(autotune_schedules)
{}

PlanCache::Compiled
PlanCompiler::compile(const PlanKey &key, const Tensor &host_features,
                      const models::WeightMap &weights)
{
    core::Program program =
        core::parseModel(key.modelSource, key.din, key.dout);

    if (autotune_ && !tuned_) {
        // Representative workload: a neighborhood sampled on a
        // DEDICATED rng, so tuning never perturbs the variant's
        // request stream (dedicated-session bit-equality depends on
        // that). Trials run on their own throwaway runtimes; nothing
        // is charged to the serving device.
        std::mt19937_64 trng(cfg_.seed ^ 0x7a11e5ull);
        graph::Minibatch mb =
            graph::sampleNeighbors(*g_, cfg_.sample, trng);
        Tensor feature;
        {
            tensor::TrackerScope untracked(nullptr);
            feature = graph::gatherFeatures(mb, host_features);
        }
        auto make_weights = [&weights]() { return weights; };
        const core::AutotuneSpace defaults;
        const core::AutotuneReport report = core::autotuneSchedules(
            program, mb.subgraph, make_weights, feature, key.options,
            defaults.schedules, sim::DeviceSpec{});
        tunedSched_ = report.best().options.sched;
        // Shape bucket: representative union size rounded up to a
        // power of two — the same traffic shape re-tunes to the same
        // key, and the key survives evictions.
        std::int64_t bucket = 1;
        while (bucket < mb.subgraph.numNodes())
            bucket <<= 1;
        scheduleKey_ = label_ + "/n" + std::to_string(bucket) + "/" +
                       core::scheduleLabel(tunedSched_);
        tuned_ = true;
    }

    core::CompileOptions effective = key.options;
    if (tuned_)
        effective.sched = tunedSched_;

    PlanCache::Compiled out;
    auto plan = std::make_shared<core::CompiledModel>(
        core::compile(std::move(program), effective));
    // Per-(variant, shape-bucket) specialization: the JIT compiles the
    // plan's generated C++ kernels (or counts a fallback) before the
    // plan enters the cache behind pointer-to-const.
    core::jit::attach(*plan);
    out.plan = std::move(plan);
    out.scheduleKey = scheduleKey_;

    // Modeled resident cost: generated plan text + the arena packed
    // for a nominal maximal micro-batch (its unique pairs bounded by
    // its edges) + this variant's weights, plus the dlopened JIT
    // artifact when one is attached. A serving context writes the
    // output into the per-request results through a row table, so it
    // never allocates the plan's output buffer.
    std::size_t bytes = out.plan->code.cudaSource.size() +
                        out.plan->code.hostSource.size() +
                        out.plan->code.pythonSource.size() +
                        out.plan->code.cpuSource.size() +
                        (out.plan->jit ? out.plan->jit->artifactBytes()
                                       : 0);
    const std::int64_t per_req_nodes =
        cfg_.sample.numSeeds * (1 + cfg_.sample.fanout);
    const std::int64_t nodes = std::min(
        g_->numNodes(),
        static_cast<std::int64_t>(cfg_.maxBatch) * per_req_nodes);
    const std::int64_t edges = std::min(
        g_->numEdges(),
        static_cast<std::int64_t>(cfg_.maxBatch) * cfg_.sample.numSeeds *
            cfg_.sample.fanout *
            std::max(1, g_->numEdgeTypes()));
    bytes += out.plan->memoryPlan.pack({nodes, edges, edges}).totalBytes;
    for (const auto &[name, w] : weights)
        bytes += w.bytes();
    out.costBytes = bytes;
    return out;
}

// ------------------------------------------------------------------- Engine

Engine::Variant::Variant(const graph::HeteroGraph &g, std::string name_,
                         Tensor features, std::string source,
                         ServingConfig cfg_, bool autotune)
    : name(std::move(name_)), hostFeatures(std::move(features)),
      modelSource(std::move(source)), cfg(cfg_), rng(cfg_.seed),
      compiler(g, name, cfg_, autotune)
{
    // Weights first, then the request-sampling stream continues on the
    // same generator — the seeding order every serving session shares.
    weights = initVariantWeights(modelSource, cfg.din, cfg.dout, g, rng);
}

Engine::Engine(const graph::HeteroGraph &g, EngineConfig cfg,
               sim::Runtime &rt)
    : g_(g), cfg_(cfg), rt_(rt), cache_(cfg.planBudgetBytes)
{
    if (cfg_.numStreams <= 0)
        throw std::invalid_argument("Engine: numStreams must be > 0");
}

int
Engine::registerVariant(const std::string &name, Tensor host_features,
                        std::string model_source, ServingConfig cfg)
{
    validateServingConfig(cfg, "Engine::registerVariant");
    if (variantIndex(name) >= 0)
        throw std::invalid_argument(
            "Engine::registerVariant: duplicate variant name '" + name +
            "'");
    if (host_features.ndim() != 2 || host_features.dim(1) != cfg.din)
        throw std::invalid_argument(
            "Engine::registerVariant: host feature dim != config din");
    variants_.emplace_back(g_, name, std::move(host_features),
                           std::move(model_source), cfg,
                           cfg_.autotuneSchedules || cfg.autotuneSchedules);
    return static_cast<int>(variants_.size()) - 1;
}

int
Engine::variantIndex(const std::string &name) const
{
    for (std::size_t i = 0; i < variants_.size(); ++i)
        if (variants_[i].name == name)
            return static_cast<int>(i);
    return -1;
}

Engine::Variant &
Engine::at(int v)
{
    if (v < 0 || static_cast<std::size_t>(v) >= variants_.size())
        throw std::runtime_error("Engine: variant id out of range");
    return variants_[static_cast<std::size_t>(v)];
}

const Engine::Variant &
Engine::at(int v) const
{
    if (v < 0 || static_cast<std::size_t>(v) >= variants_.size())
        throw std::runtime_error("Engine: variant id out of range");
    return variants_[static_cast<std::size_t>(v)];
}

const std::string &
Engine::variantName(int v) const
{
    return at(v).name;
}

const ServingConfig &
Engine::variantConfig(int v) const
{
    return at(v).cfg;
}

models::WeightMap &
Engine::weights(int v)
{
    return at(v).weights;
}

const std::string &
Engine::scheduleKey(int v) const
{
    return at(v).compiler.scheduleKey();
}

std::size_t
Engine::queued() const
{
    std::size_t n = 0;
    for (const Variant &v : variants_)
        n += v.queue.size();
    return n;
}

std::size_t
Engine::queuedOn(int v) const
{
    return at(v).queue.size();
}

std::uint64_t
Engine::submit(int v)
{
    Variant &var = at(v);
    const double host_before = rt_.hostTimeMs() * 1e-3;
    auto scope = rt_.memoryScope();
    graph::Minibatch mb =
        graph::sampleNeighbors(g_, var.cfg.sample, var.rng);
    Tensor feature = graph::transferFeatures(mb, var.hostFeatures, rt_);
    const std::uint64_t id = nextId_++;
    var.queue.emplace_back(id, std::move(mb), std::move(feature),
                           static_cast<std::uint32_t>(v));
    hostClockSec_ += rt_.hostTimeMs() * 1e-3 - host_before;
    var.queue.back().submitSec = hostClockSec_;
    if (flight_)
        flight_->event(id, "enqueue", hostClockSec_, rt_.deviceId(),
                       "variant=" + var.name);
    if (obs::enabled())
        obs::tracer().instant("submit", "serve", hostClockSec_,
                              rt_.deviceId(), 0,
                              "\"variant\":\"" +
                                  obs::jsonEscape(var.name) + "\"");
    return id;
}

std::uint64_t
Engine::submit(int v, graph::Minibatch mb, Tensor feature)
{
    Variant &var = at(v);
    if (feature.ndim() != 2 ||
        feature.dim(0) != mb.subgraph.numNodes() ||
        feature.dim(1) != var.cfg.din)
        throw std::runtime_error(
            "Engine::submit: feature must be [subgraph nodes, din]");
    const std::uint64_t id = nextId_++;
    var.queue.emplace_back(id, std::move(mb), std::move(feature),
                           static_cast<std::uint32_t>(v));
    var.queue.back().submitSec = hostClockSec_;
    if (flight_)
        flight_->event(id, "enqueue", hostClockSec_, rt_.deviceId(),
                       "variant=" + var.name);
    return id;
}

PlanKey
Engine::planKey(int v) const
{
    const Variant &var = at(v);
    PlanKey key = makePlanKey(var.modelSource, var.cfg.din, var.cfg.dout,
                              var.cfg.compile, g_);
    key.scope = var.name;
    return key;
}

void
Engine::enforcePlanBudget()
{
    const PlanCache::Stats before = cache_.stats();
    cache_.enforceBudget();
    recordPlanEvents(rt_.planEvents(), before, cache_.stats());
}

std::shared_ptr<const core::CompiledModel>
Engine::planFor(int v)
{
    Variant &var = at(v);
    const PlanKey key = planKey(v);
    // Publish the engine clock so the cache (which has none) can
    // timestamp its hit/miss/evict trace instants.
    obs::setVirtualNow(std::max(hostClockSec_, rt_.nowSec()));
    const PlanCache::Stats before = cache_.stats();
    auto plan = cache_.get(key, [&]() {
        return var.compiler.compile(key, var.hostFeatures, var.weights);
    });
    const PlanCache::Stats &after = cache_.stats();
    recordPlanEvents(rt_.planEvents(), before, after);
    if (flight_) {
        const char *outcome = after.hits > before.hits ? "hit"
                              : after.recompiles > before.recompiles
                                  ? "recompile"
                                  : "miss";
        for (const Request &r : var.queue)
            flight_->event(r.id, "plan-lookup", obs::virtualNow(),
                           rt_.deviceId(),
                           "variant=" + var.name + " " + outcome);
    }
    return plan;
}

ServingReport
Engine::drain()
{
    lastLatenciesMs_.clear();
    // An empty cycle has no makespan to divide by: report all-zero
    // metrics and leave every piece of engine state — retained
    // results, cache statistics, transfer bookkeeping — untouched.
    if (queued() == 0)
        return ServingReport{};

    ServingReport report;

    // The cycle occupies [chargedHostSec_, hostClockSec_ + scheduler
    // makespan] on the absolute host clock; remember the start before
    // the bookkeeping below rebases it.
    const double cycle_start_sec = chargedHostSec_;
    obs::Span drain_span("engine.drain", "serve", cycle_start_sec,
                         rt_.deviceId(), 0);

    // Results are retained for one cycle only; a long-lived engine
    // would otherwise accumulate one output tensor per request served.
    results_.clear();

    const std::uint64_t launches_before = rt_.counters().total().launches;

    // One plan-cache lookup per variant with queued work. The
    // shared_ptrs held here pin the plans for the whole cycle; the
    // budget is re-enforced after they are released below.
    std::vector<std::shared_ptr<const core::CompiledModel>> plans(
        variants_.size());
    for (std::size_t i = 0; i < variants_.size(); ++i)
        if (!variants_[i].queue.empty())
            plans[i] = planFor(static_cast<int>(i));

    StreamScheduler sched(rt_, cfg_.numStreams);
    auto scope = rt_.memoryScope();

    // Per-variant FIFO coalescing into micro-batches of at most that
    // variant's maxBatch — never mixing variants — then all batches
    // interleave over the shared streams in global submission order
    // (request ids are engine-wide and monotone).
    struct PlannedBatch
    {
        std::size_t variant = 0;
        std::size_t lo = 0;
        std::size_t hi = 0;
        std::uint64_t firstId = 0;
    };
    std::vector<PlannedBatch> batches;
    for (std::size_t i = 0; i < variants_.size(); ++i) {
        const Variant &v = variants_[i];
        const std::size_t cap = std::max<std::size_t>(1, v.cfg.maxBatch);
        for (std::size_t lo = 0; lo < v.queue.size(); lo += cap) {
            const std::size_t hi = std::min(v.queue.size(), lo + cap);
            batches.push_back({i, lo, hi, v.queue[lo].id});
        }
    }
    std::sort(batches.begin(), batches.end(),
              [](const PlannedBatch &a, const PlannedBatch &b) {
                  return a.firstId < b.firstId;
              });

    // Each logical batch is one ASPIS-guarded run group (guardBatch):
    // the primary scheduler run, and the sampled duplicate and the
    // replay when they run.
    sim::FaultInjector *fi = rt_.faultInjector();
    struct RunRefs
    {
        std::size_t first = 0;
        std::size_t count = 1;
    };
    std::vector<RunRefs> runs(batches.size());
    std::size_t run_idx = 0;
    for (std::size_t b = 0; b < batches.size(); ++b) {
        const PlannedBatch &pb = batches[b];
        Variant &v = variants_[pb.variant];
        std::vector<const Request *> reqs;
        reqs.reserve(pb.hi - pb.lo);
        for (std::size_t i = pb.lo; i < pb.hi; ++i)
            reqs.push_back(&v.queue[i]);

        std::vector<Tensor> outs;
        const GuardedBatch g = guardBatch(
            fi, rt_.deviceId(), hostClockSec_,
            sampleDuplicate(v.cfg.duplicationFraction * dupScale_,
                            v.dupAccum),
            outs, [&](std::vector<Tensor> &dst) {
                sched.run([&]() {
                    MicroBatch batch = coalesce(reqs, rt_);
                    dst = executeBatch(*plans[pb.variant], batch,
                                       v.weights, rt_, v.ctx, v.grads,
                                       v.cfg.useArena);
                });
            });
        runs[b] = {run_idx, g.runs};
        run_idx += g.runs;
        if (g.detected && obs::enabled())
            obs::tracer().instant("fault.detect", "serve", hostClockSec_,
                                  rt_.deviceId(), 0,
                                  "\"batch\":" +
                                      std::to_string(g.ordinal));
        // Detach results from the device memory scope so they
        // outlive the drain cycle.
        tensor::TrackerScope untracked(nullptr);
        for (std::size_t i = 0; i < reqs.size(); ++i)
            results_.insert_or_assign(reqs[i]->id, outs[i].clone());
    }

    // Timeline: the queued transfers not yet charged to an earlier
    // cycle serialize before the drain's launches begin; per-batch
    // completions come from the scheduler. On the absolute host
    // clock, batch b completes at hostClockSec_ + completions[b] and
    // request latency is simply completion minus its absolute
    // submission point.
    const std::vector<double> completions = sched.completionTimes();
    const double pending_host_sec = hostClockSec_ - chargedHostSec_;
    const double makespan_sec = pending_host_sec + sched.makespanSec();

    std::vector<double> latencies;
    std::vector<double> queue_delays;
    latencies.reserve(queued());
    queue_delays.reserve(queued());
    std::vector<std::vector<double>> by_variant(variants_.size());
    bool any_deadline = false;
    std::size_t met = 0;
    for (std::size_t b = 0; b < batches.size(); ++b) {
        const PlannedBatch &pb = batches[b];
        const Variant &v = variants_[pb.variant];
        // A request completes when its batch's last run (primary, or
        // the redundant/replay runs that guarded it) completes.
        const std::size_t first = runs[b].first;
        double completion = hostClockSec_ + completions[first];
        for (std::size_t r = first + 1; r < first + runs[b].count; ++r)
            completion = std::max(completion, hostClockSec_ + completions[r]);
        const ScheduledBatch &sb = sched.batches()[first];
        const double service = sb.overheadSec + sb.execSec;
        if (v.cfg.deadlineMs > 0.0)
            any_deadline = true;
        const double exec_start = completion - service;
        if (obs::enabled())
            obs::tracer().complete(
                "batch/" + v.name, "serve", exec_start, service,
                rt_.deviceId(), sb.stream,
                "\"requests\":" + std::to_string(pb.hi - pb.lo));
        for (std::size_t i = pb.lo; i < pb.hi; ++i) {
            const double lat = completion - v.queue[i].submitSec;
            latencies.push_back(lat);
            queue_delays.push_back(std::max(0.0, lat - service));
            by_variant[pb.variant].push_back(lat);
            if (metDeadline(lat, v.cfg.deadlineMs))
                ++met;
            if (flight_) {
                const std::uint64_t id = v.queue[i].id;
                flight_->event(id, "batch-join", exec_start,
                               rt_.deviceId(),
                               "batch=" + std::to_string(b) +
                                   " size=" +
                                   std::to_string(pb.hi - pb.lo));
                flight_->event(id, "exec-start", exec_start,
                               rt_.deviceId(),
                               "stream=" + std::to_string(sb.stream));
                flight_->event(id, "completion", completion,
                               rt_.deviceId(),
                               "latency_ms=" + obs::jsonNum(lat * 1e3));
            }
            if (obs::enabled())
                obs::metrics()
                    .histogram("serve.latency_ms")
                    .observe(lat * 1e3);
        }
    }

    report.requests = queued();
    report.batches = batches.size();
    report.makespanMs = makespan_sec * 1e3;
    report.throughputReqPerSec =
        makespan_sec > 0.0 ? static_cast<double>(report.requests) /
                                 makespan_sec
                           : 0.0;
    report.msPerRequest =
        report.requests
            ? report.makespanMs / static_cast<double>(report.requests)
            : 0.0;

    // Percentiles/means via the shared helper; SLO attainment judges
    // each request against its own variant's deadline.
    fillLatencyStats(report, latencies, queue_delays, 0.0);
    report.sloAttainment =
        any_deadline && !latencies.empty()
            ? static_cast<double>(met) /
                  static_cast<double>(latencies.size())
            : 1.0;

    for (double l : latencies)
        lastLatenciesMs_.push_back(l * 1e3);

    for (std::size_t i = 0; i < variants_.size(); ++i) {
        if (by_variant[i].empty())
            continue;
        report.perVariant.push_back(makeVariantReport(
            variants_[i].name, by_variant[i],
            variants_[i].cfg.deadlineMs));
    }

    for (Variant &v : variants_)
        v.queue.clear();
    chargedHostSec_ = hostClockSec_;

    // Release the cycle's plan pins, then re-enforce the byte budget
    // so residentBytes is bounded at every cycle boundary.
    plans.clear();
    enforcePlanBudget();

    fillCacheStats(report, cache_.stats());
    report.launches = rt_.counters().total().launches - launches_before;
    if (obs::enabled()) {
        obs::metrics().counter("serve.requests").inc(report.requests);
        obs::metrics().counter("serve.batches").inc(report.batches);
    }
    drain_span.arg("requests",
                   static_cast<std::uint64_t>(report.requests));
    drain_span.arg("batches",
                   static_cast<std::uint64_t>(report.batches));
    drain_span.endAt(cycle_start_sec + makespan_sec);
    return report;
}

BatchCost
Engine::serveOldest(int v, std::size_t n, int stream)
{
    Variant &var = at(v);
    BatchCost cost;
    n = std::min(n, var.queue.size());
    if (n == 0)
        return cost;
    cost.requests = n;

    auto plan = planFor(v);

    std::vector<const Request *> reqs;
    reqs.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        reqs.push_back(&var.queue[i]);
    // ASPIS guard, same semantics as drain(); the redundant and replay
    // runs serialize on this stream, so their cost folds into the
    // batch cost the online layer charges.
    std::vector<Tensor> outs;
    guardBatch(rt_.faultInjector(), rt_.deviceId(), rt_.nowSec(),
               sampleDuplicate(var.cfg.duplicationFraction * dupScale_,
                               var.dupAccum),
               outs, [&](std::vector<Tensor> &dst) {
                   const StreamRunCost run = runOnStream(rt_, stream, [&]() {
                       auto scope = rt_.memoryScope();
                       MicroBatch batch = coalesce(reqs, rt_);
                       dst = executeBatch(*plan, batch, var.weights, rt_,
                                          var.ctx, var.grads,
                                          var.cfg.useArena);
                   });
                   cost.execSec += run.execSec;
                   cost.overheadSec += run.overheadSec;
               });
    {
        tensor::TrackerScope untracked(nullptr);
        for (std::size_t i = 0; i < n; ++i)
            results_.insert_or_assign(var.queue[i].id, outs[i].clone());
    }
    cost.servedIds.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        cost.servedIds.push_back(var.queue[i].id);
    if (flight_)
        for (std::size_t i = 0; i < n; ++i)
            flight_->event(var.queue[i].id, "batch-join", rt_.nowSec(),
                           rt_.deviceId(),
                           "size=" + std::to_string(n) +
                               " stream=" + std::to_string(stream));

    // The served requests' transfer time (the host clock through the
    // last of them) is now charged, so a later drain() only charges
    // the transfers of the requests it actually serves. submitSec
    // stays absolute — other variants' older requests keep their full
    // accrued queue time.
    chargedHostSec_ =
        std::max(chargedHostSec_, var.queue[n - 1].submitSec);
    var.queue.erase(var.queue.begin(),
                    var.queue.begin() + static_cast<std::ptrdiff_t>(n));

    plan.reset();
    enforcePlanBudget();
    return cost;
}

std::vector<std::uint64_t>
Engine::dropOldest(int v, std::size_t n)
{
    Variant &var = at(v);
    n = std::min(n, var.queue.size());
    std::vector<std::uint64_t> ids;
    if (n == 0)
        return ids;
    ids.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        ids.push_back(var.queue[i].id);
    // Same transfer-clock rebase as serveOldest: the dropped requests'
    // host transfers were charged at submit and leave the epoch with
    // them, so a later drain() only charges surviving requests.
    chargedHostSec_ =
        std::max(chargedHostSec_, var.queue[n - 1].submitSec);
    var.queue.erase(var.queue.begin(),
                    var.queue.begin() + static_cast<std::ptrdiff_t>(n));
    return ids;
}

BatchCost
Engine::hedgeOldest(int v, int stream)
{
    Variant &var = at(v);
    BatchCost cost;
    if (var.queue.empty())
        return cost;
    cost.requests = 1;
    cost.servedIds.push_back(var.queue.front().id);

    auto plan = planFor(v);
    std::vector<const Request *> reqs{&var.queue.front()};
    std::vector<Tensor> outs;
    const StreamRunCost run = runOnStream(rt_, stream, [&]() {
        auto scope = rt_.memoryScope();
        MicroBatch batch = coalesce(reqs, rt_);
        outs = executeBatch(*plan, batch, var.weights, rt_, var.ctx,
                            var.grads, var.cfg.useArena);
    });
    cost.execSec = run.execSec;
    cost.overheadSec = run.overheadSec;
    // The hedge run's output is bit-identical to the primary's (batch
    // invariance), so nothing is stored: the primary serveOldest()
    // remains the one result producer and dedup is purely first-wins
    // on the modeled timeline. No fault injection / ASPIS sandwich —
    // the hedge is itself the backup path.
    plan.reset();
    enforcePlanBudget();
    return cost;
}

const Tensor *
Engine::result(std::uint64_t id) const
{
    auto it = results_.find(id);
    return it == results_.end() ? nullptr : &it->second;
}

void
absorbReport(obs::Registry &reg, const ServingReport &report,
             const std::string &prefix)
{
    reg.gauge(prefix + ".requests")
        .set(static_cast<double>(report.requests));
    reg.gauge(prefix + ".batches")
        .set(static_cast<double>(report.batches));
    reg.gauge(prefix + ".makespan_ms").set(report.makespanMs);
    reg.gauge(prefix + ".throughput_rps")
        .set(report.throughputReqPerSec);
    reg.gauge(prefix + ".mean_latency_ms").set(report.meanLatencyMs);
    reg.gauge(prefix + ".p50_latency_ms").set(report.p50LatencyMs);
    reg.gauge(prefix + ".p95_latency_ms").set(report.p95LatencyMs);
    reg.gauge(prefix + ".p99_latency_ms").set(report.p99LatencyMs);
    reg.gauge(prefix + ".p999_latency_ms").set(report.p999LatencyMs);
    reg.gauge(prefix + ".max_latency_ms").set(report.maxLatencyMs);
    reg.gauge(prefix + ".mean_queue_delay_ms")
        .set(report.meanQueueDelayMs);
    reg.gauge(prefix + ".slo_attainment").set(report.sloAttainment);
    PlanCache::Stats cache;
    cache.hits = report.cacheHits;
    cache.misses = report.cacheMisses;
    cache.recompiles = report.cacheRecompiles;
    cache.evictions = report.cacheEvictions;
    cache.residentBytes = report.cacheResidentBytes;
    absorbStats(reg, cache, prefix + ".plan_cache");
}

} // namespace hector::serve
