/**
 * @file
 * Multi-tenant serving engine: one session, many plans.
 *
 * Production RGNN serving faces heterogeneous traffic — different
 * models, different feature dimensions, different compile options —
 * against one host-resident graph. The Engine owns what the
 * single-model ServingSession used to hard-wire: a registry of named
 * *model variants* (model source x CompileOptions x din/dout), one
 * bounded PlanCache shared across them, per-variant weights / request
 * RNG / pooled arena ExecutionContexts, and per-variant FIFO queues.
 * Every request carries its variant id, and the micro-batcher
 * coalesces only same-variant requests: a drain cycle interleaves the
 * per-variant batches over the shared streams in global submission
 * order, so per-request outputs stay bit-identical to a dedicated
 * single-variant session at any thread count.
 *
 * Two policies ride on the registry:
 *
 *  - bounded plan memory: each cached plan is priced at its modeled
 *    resident cost (generated plan + packed arena + variant weights)
 *    and the cache evicts least-recently-used unpinned plans past the
 *    byte budget (PlanCache); evicted variants recompile
 *    deterministically on their next request, counted separately from
 *    first-time misses;
 *
 *  - autotuned GEMM schedules: on a variant's first compile the engine
 *    sweeps core::autotuneSchedules on a representative sampled
 *    subgraph and compiles the plan with the winning schedule, keyed
 *    by (variant, shape bucket) and memoized across evictions — the
 *    executor's blocked GEMM consumes the schedule's k-block, which
 *    never changes output bits (see tensor::blocked::kBlockFor).
 *
 * ServingSession is a façade over this machinery: it wraps an Engine
 * with one registered variant. The Engine and the ShardedSession are
 * both built on ServingCore, which holds their one copy of the plan
 * lookup, the ASPIS-guarded incremental serve, the hedge run, the pop
 * and the host-transfer clock rule (TransferClock).
 */

#ifndef HECTOR_SERVE_ENGINE_HH
#define HECTOR_SERVE_ENGINE_HH

#include <cstdint>
#include <functional>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "core/executor.hh"
#include "graph/sampler.hh"
#include "models/models.hh"
#include "obs/flight_recorder.hh"
#include "serve/micro_batch.hh"
#include "serve/plan_cache.hh"
#include "serve/stream_scheduler.hh"

namespace hector::serve
{

/** Load-shedding mode of the online layer's admission control. */
enum class ShedMode
{
    /** No admission control: the queue grows without bound (the
     *  historical behavior, and the BENCH_serving_online 2x-overload
     *  pathology — every queued request blows its deadline). */
    None,
    /** Reject an arrival outright once the lane's queue stands at
     *  maxQueueDepth (newest-loses; deterministic). */
    RejectNewest,
    /** RejectNewest, plus drop arrivals whose deadline the calibrated
     *  cost model already predicts unmeetable behind the backlog
     *  ahead of them. */
    DeadlineInfeasible,
};

/**
 * Two-state Markov-modulated Poisson (MMPP) arrival knobs: the lane's
 * Poisson process switches between a baseline state (ServingConfig's
 * offered rate) and a burst state (rate x burstRateMultiplier), with
 * per-arrival transition probabilities. Drawn from the same seeded
 * mt19937_64 stream as the pure-Poisson path, so arrival sequences
 * stay bit-stable across platforms and reruns.
 */
struct MmppSpec
{
    bool enabled = false;
    /** Burst-state rate multiplier (> 0; 1 degenerates to Poisson). */
    double burstRateMultiplier = 8.0;
    /** Per-arrival probability of entering the burst state, [0, 1]. */
    double pEnterBurst = 0.02;
    /** Per-arrival probability of leaving the burst state, [0, 1]. */
    double pExitBurst = 0.1;
};

/**
 * Diurnal (sinusoidal) rate modulation of an arrival process: the
 * instantaneous rate is rate x (1 + amplitude x sin(2 pi t / period)),
 * evaluated at each gap's start (a piecewise-constant-rate
 * approximation of the non-homogeneous Poisson process). One uniform
 * per arrival, same as the pure-Poisson path, so the disabled path is
 * bit-identical to the historical stream and the enabled path stays
 * bit-stable across platforms and thread counts. Composes with MMPP
 * (the burst multiplier applies on top of the diurnal rate).
 */
struct DiurnalSpec
{
    bool enabled = false;
    /** Peak-to-mean modulation depth, in [0, 1). */
    double amplitude = 0.5;
    /** Period of the modulation in simulated seconds (> 0). */
    double periodSec = 1.0;
};

/**
 * Request-resilience knobs of the online serving layer (see
 * serve/resilience.hh): deadline fail-fast, seeded retry with capped
 * exponential backoff, hedged requests, per-lane circuit breakers and
 * brownout degradation. Default-disabled; with `enabled = false` the
 * serving timeline is bit-identical to a build without the layer.
 */
struct ResilienceConfig
{
    bool enabled = false;

    /**
     * Fail a queued request fast once the policy's calibrated service
     * estimate says its remaining deadline budget cannot be met
     * (timeout cancellation). Only meaningful with a deadline.
     */
    bool failFast = true;

    /** Retry attempts after the first failure (0 disables retries). */
    int maxRetries = 2;
    /** Initial retry backoff, milliseconds (>= 0). */
    double retryBackoffMs = 1.0;
    /** Exponential backoff multiplier per attempt (>= 1). */
    double retryBackoffMultiplier = 2.0;
    /** Backoff cap, milliseconds (>= retryBackoffMs). */
    double retryBackoffCapMs = 50.0;
    /** Jitter fraction in [0, 1]: each backoff is scaled by a seeded
     *  uniform in [1 - j/2, 1 + j/2] so synchronized retry storms
     *  de-correlate deterministically. */
    double retryJitterFraction = 0.1;
    /** Seed of the backoff-jitter stream. */
    std::uint64_t retrySeed = 0x7e517;

    /** Hedge the oldest queued request onto a second lane/stream once
     *  it has waited hedgeDelayFactor x the observed latency EWMA. */
    bool hedge = false;
    /** Hedge delay as a multiple of the latency EWMA (> 0). */
    double hedgeDelayFactor = 3.0;

    /** Consecutive failures/sheds on a lane that open its breaker
     *  (>= 1). */
    int breakerFailureThreshold = 8;
    /** How long an open breaker blocks its lane before the half-open
     *  probe, milliseconds (>= 0). */
    double breakerOpenMs = 10.0;

    /** Brownout high water mark: lane queue depth as a fraction of
     *  maxQueueDepth above which degradation steps up (hedging off
     *  first, then redundant duplication off). In (0, 1]. */
    double brownoutHighWatermark = 0.75;
    /** Low water mark below which degradation steps back down; must be
     *  < brownoutHighWatermark and >= 0. */
    double brownoutLowWatermark = 0.25;
};

/** Serving-time knobs (per variant in multi-tenant serving). */
struct ServingConfig
{
    /** Max requests coalesced into one micro-batch. */
    std::size_t maxBatch = 8;
    /** Simulated device streams to multiplex batches over. */
    int numStreams = 1;
    /** Per-request subgraph sampling parameters. */
    graph::SampleSpec sample;
    /** Plan compilation options (inference by default). */
    core::CompileOptions compile;
    std::int64_t din = 32;
    std::int64_t dout = 32;
    /** Seed for request sampling and weight initialization. */
    std::uint64_t seed = 0x5e12e;
    /**
     * Per-request deadline SLO in milliseconds, measured from arrival
     * (online) or submission (drain cycles). 0 disables the SLO, in
     * which case reports show full attainment.
     */
    double deadlineMs = 0.0;
    /**
     * Back executor intermediates with the session's pooled arena
     * (core::MemoryPlan): zero hot-path tensor allocations in steady
     * state. Off = the seed's allocate-per-request behavior, kept as
     * the honest baseline for bench_exec_wallclock.
     */
    bool useArena = true;
    /**
     * Plan-cache resident-byte budget (modeled plan + arena + weight
     * bytes); 0 = unbounded. In an Engine the budget is engine-wide
     * (EngineConfig); here it seeds the façade's engine.
     */
    std::size_t planBudgetBytes = 0;
    /** Autotune the GEMM schedule on the variant's first compile. */
    bool autotuneSchedules = false;
    /**
     * ASPIS-style redundant execution: the fraction of micro-batches
     * dual-issued on spare stream capacity and compared by output
     * checksum (tensor::checksum). A mismatch is a detected transient
     * fault; the batch is replayed and the replayed outputs are the
     * ones served, so detected corruptions never reach a client. 0
     * (default) disables redundancy; 1 duplicates every batch —
     * detection coverage equals the sampled fraction of batches, paid
     * for in duplicate execution time. Batches are sampled
     * deterministically (an error-diffusion accumulator, not a random
     * draw), so the same workload duplicates the same batches in
     * every run and at every thread count.
     */
    double duplicationFraction = 0.0;
    /**
     * Admission bound on this variant's queue in the online layer
     * (requests queued but not yet served); 0 = unbounded. Must be
     * > 0 when shed != ShedMode::None — an admission policy with
     * nothing to bound is a configuration error.
     */
    std::size_t maxQueueDepth = 0;
    /** Load shedding at admission once the bound (or the deadline
     *  feasibility check) trips; shed decisions are deterministic and
     *  recorded per request in the flight recorder. */
    ShedMode shed = ShedMode::None;
    /** Weighted-fair share under the "wfq" scheduling policy; must be
     *  finite and > 0. */
    double tenantWeight = 1.0;
    /** Priority tier under "wfq": lower tiers are served strictly
     *  first (0 = most latency-critical); must be >= 0. */
    int tenantTier = 0;
    /** Bursty arrivals: two-state MMPP modulation of this variant's
     *  open-loop arrival process. */
    MmppSpec mmpp;
    /** Diurnal (sinusoidal) modulation of this variant's open-loop
     *  arrival rate; composes with mmpp. */
    DiurnalSpec diurnal;
    /** Request-resilience layer of the online loops (deadline
     *  fail-fast, retries, hedging, circuit breakers, brownout). */
    ResilienceConfig resilience;
};

/**
 * Validate @p cfg, throwing std::invalid_argument naming the offending
 * field. Every serving entry point (ServingSession, ShardedSession,
 * Engine::registerVariant, OnlineServer) validates through here, so a
 * zero maxBatch or negative deadline fails loudly at construction
 * instead of silently misbehaving mid-serve.
 *
 * @param who  constructor name used as the message prefix
 */
void validateServingConfig(const ServingConfig &cfg, const char *who);

/**
 * The single construction path for per-variant weights: parse the
 * pristine (pre-pass) program — so weights match what a training
 * pipeline would have produced — and draw every parameter from @p rng
 * in declaration order. ServingSession (via the engine), ShardedSession
 * and the Engine registry all build weights here; the caller seeds
 * @p rng with the variant's ServingConfig::seed *before* this call and
 * keeps drawing its request-sampling stream from the same generator
 * after it, which is what makes a dedicated session and an engine
 * variant serve identical request streams with identical weights.
 */
models::WeightMap initVariantWeights(const std::string &model_source,
                                     std::int64_t din, std::int64_t dout,
                                     const graph::HeteroGraph &g,
                                     std::mt19937_64 &rng);

/** Per-variant latency/SLO rows of a multi-tenant report. */
struct VariantReport
{
    std::string name;
    std::size_t requests = 0;
    double meanLatencyMs = 0.0;
    double p50LatencyMs = 0.0;
    double p99LatencyMs = 0.0;
    /** Attainment over the variant's ADMITTED requests (shed arrivals
     *  are tallied separately in requestsShed). */
    double sloAttainment = 1.0;
    /** The variant's arrivals rejected at admission (online layer). */
    std::size_t requestsShed = 0;
};

/** One drain cycle's modeled serving metrics. */
struct ServingReport
{
    std::size_t requests = 0;
    std::size_t batches = 0;
    /** Modeled completion time of the whole cycle (transfers + exec). */
    double makespanMs = 0.0;
    double throughputReqPerSec = 0.0;
    double meanLatencyMs = 0.0;
    double p50LatencyMs = 0.0;
    double p95LatencyMs = 0.0;
    double p99LatencyMs = 0.0;
    /** Nearest-rank p99.9 — the tail the 10^6-request soaks gate on. */
    double p999LatencyMs = 0.0;
    double maxLatencyMs = 0.0;
    /**
     * Mean time a request spent waiting (arrival/submission to the
     * start of its batch's device execution), excluding the batch's
     * own service time.
     */
    double meanQueueDelayMs = 0.0;
    /**
     * Fraction of requests whose arrival-relative latency met the
     * configured deadline SLO; 1 when no deadline is configured. In a
     * multi-variant cycle each request is judged against its own
     * variant's deadline.
     */
    double sloAttainment = 1.0;
    /** Makespan divided by requests: the bench's headline metric. */
    double msPerRequest = 0.0;
    /** Cumulative plan-cache stats at the end of the cycle. */
    std::uint64_t cacheHits = 0;
    std::uint64_t cacheMisses = 0;
    /** Eviction-forced recompiles (bounded plan cache). */
    std::uint64_t cacheRecompiles = 0;
    /** Plans evicted under the cache's byte budget so far. */
    std::uint64_t cacheEvictions = 0;
    /** Modeled bytes of the plans resident after the cycle. */
    std::size_t cacheResidentBytes = 0;
    /** Kernel launches issued during the cycle. */
    std::uint64_t launches = 0;
    /** Per-variant breakdown (one row per variant served). */
    std::vector<VariantReport> perVariant;
};

/**
 * Nearest-rank percentile of an ascending-sorted sample; @p q in
 * [0, 1]. Returns 0 on an empty sample.
 */
double percentileSorted(const std::vector<double> &sorted, double q);

/**
 * Whether a request served @p lat_sec after its arrival met a
 * @p deadline_ms SLO; always true when @p deadline_ms is 0 (none).
 * The one deadline test of every report. It compares in milliseconds:
 * the seconds form `lat_sec <= deadline_ms * 1e-3` rounds differently
 * at the boundary (1.3 * 1e-3 s meets 1.3 ms in seconds, not in ms).
 */
inline bool
metDeadline(double lat_sec, double deadline_ms)
{
    return deadline_ms <= 0.0 || lat_sec * 1e3 <= deadline_ms;
}

/**
 * Fill @p report's latency fields (mean/p50/p95/p99/max, mean queue
 * delay, SLO attainment against @p deadline_ms) from per-request
 * samples in seconds. The one place this arithmetic lives: the
 * single-device, sharded and engine drain paths all report through it.
 */
void fillLatencyStats(ServingReport &report,
                      const std::vector<double> &latencies_sec,
                      const std::vector<double> &queue_delays_sec,
                      double deadline_ms);

/** Copy @p stats into the report's cache* fields — the one place the
 *  plan-cache counters map onto reports, shared by every serving
 *  path (engine/session drain, sharded drain, all online modes). */
void fillCacheStats(ServingReport &report, const PlanCache::Stats &stats);

/**
 * Build one per-variant report row from that variant's latency
 * samples (seconds, any order; sorted in place) judged against its
 * own deadline — shared by Engine::drain and the multi-tenant online
 * loop so the two per-tenant reports cannot drift.
 */
VariantReport makeVariantReport(const std::string &name,
                                std::vector<double> &latencies_sec,
                                double deadline_ms);

/** Modeled cost of one micro-batch served by serveOldest(). */
struct BatchCost
{
    std::size_t requests = 0;
    /** Host-serialized time: launch overheads + host-side work. */
    double overheadSec = 0.0;
    /** Device-side execution time of the batch's kernels. */
    double execSec = 0.0;
    /**
     * Request ids served in this batch, queue order. The online loops
     * own the timeline (they know when the batch actually starts and
     * completes on the open-loop clock), so they need the ids to
     * attribute exec-start/completion flight-recorder events.
     */
    std::vector<std::uint64_t> servedIds;
};

/**
 * Deterministic dual-issue sampling for the ASPIS guard: error
 * diffusion over the duplication @p fraction with the caller's
 * accumulator @p acc, no RNG, so of the first k primary batches
 * exactly round(k * fraction) duplicate and a fault run replays
 * identically at any thread count.
 */
bool sampleDuplicate(double fraction, double &acc);

/** What guardBatch() ran for one batch. */
struct GuardedBatch
{
    /** Runs issued, in order: the primary, then the duplicate and the
     *  replay when they ran (1 to 3). */
    std::size_t runs = 1;
    /** The duplicate's checksum differed, so the batch was replayed. */
    bool detected = false;
    /** The batch's primary-batch ordinal on its device (0 without a
     *  fault injector). */
    std::uint64_t ordinal = 0;
};

/**
 * The ASPIS guard on one served batch — the one copy of it that both
 * drains and the shared incremental serve (ServingCore::serveOldestOf)
 * use. Arms @p device's next primary-batch ordinal on
 * @p fi (nullable), runs the primary into @p outs, and corrupts it when
 * a scheduled transient targets this batch. With @p duplicate it runs
 * the batch again, compares output checksums, and on a mismatch replays
 * into @p outs: the replay is what is served, bit-identical to a
 * fault-free run because execution is deterministic. An armed transient
 * without a duplicate escapes. Every step is noted on @p fi at
 * @p t_sec. @p run executes the batch once into its argument.
 */
GuardedBatch
guardBatch(sim::FaultInjector *fi, int device, double t_sec,
           bool duplicate, std::vector<tensor::Tensor> &outs,
           const std::function<void(std::vector<tensor::Tensor> &)> &run);

/**
 * Per-variant compile closure shared by the Engine and ShardedSession:
 * parses the model, optionally autotunes the GEMM schedule on a
 * representative sampled subgraph (memoized, so an evicted plan
 * recompiles to the identical schedule without re-tuning), compiles
 * with the effective schedule, and prices the plan's modeled resident
 * cost (generated plan + packed arena + weight bytes) for the bounded
 * PlanCache.
 */
class PlanCompiler
{
  public:
    /**
     * @param label variant name, prefixed onto the schedule key
     * @param autotune_schedules sweep core::autotuneSchedules on the
     *        first compile; off keeps the config's schedule verbatim
     */
    PlanCompiler(const graph::HeteroGraph &g, std::string label,
                 ServingConfig cfg, bool autotune_schedules);

    /**
     * CompileFn body for @p key. @p host_features and @p weights
     * belong to the variant: features feed the tuning run, weight
     * bytes enter the plan's modeled cost.
     */
    PlanCache::Compiled compile(const PlanKey &key,
                                const tensor::Tensor &host_features,
                                const models::WeightMap &weights);

    /** "<variant>/n<shape bucket>/<schedule>" once tuned; "" before
     *  the first compile or with tuning off. */
    const std::string &scheduleKey() const { return scheduleKey_; }

    /** The memoized tuned schedule (valid once scheduleKey() != ""). */
    const core::GemmSchedule &tunedSchedule() const { return tunedSched_; }

  private:
    const graph::HeteroGraph *g_;
    std::string label_;
    ServingConfig cfg_;
    bool autotune_;
    bool tuned_ = false;
    core::GemmSchedule tunedSched_{};
    std::string scheduleKey_;
};

/**
 * One served model: what its plans compile from and what every run of
 * them reads. The Engine keeps one per registered variant; a
 * ShardedSession keeps one, replicated on every device of its group.
 */
struct ServedModel
{
    std::string name;
    tensor::Tensor hostFeatures;
    std::string modelSource;
    ServingConfig cfg;
    /** The plan-cache key every lookup of this model uses. */
    PlanKey key;
    /** Seeded by cfg.seed: the weights are drawn first, then every
     *  request is sampled from the same stream — the seeding order
     *  every serving session shares. */
    std::mt19937_64 rng;
    models::WeightMap weights;
    PlanCompiler compiler;
    /** Error-diffusion accumulator of the ASPIS dual-issue sampler
     *  (cfg.duplicationFraction); one per model, so one tenant's
     *  sampling never perturbs another's. */
    double dupAccum = 0.0;

    /** @param scope PlanKey::scope of this model's plans */
    ServedModel(const graph::HeteroGraph &g, std::string name_,
                tensor::Tensor features, std::string source,
                ServingConfig cfg_, std::string scope, bool autotune);
};

/** One FIFO of queued requests and the pooled state its batches run
 *  in: arena buffers survive across batches, so steady-state serving
 *  never allocates. */
struct ServeQueue
{
    std::vector<Request> requests;
    core::ExecutionContext ctx;
    models::WeightMap grads;
};

/**
 * The host-transfer clock of one device — the one rule both session
 * kinds follow. Queued requests' host transfers serialize on the
 * device's host path: hostSec is their cumulative time, never rebased,
 * and every queued request's submitSec is an absolute point on it.
 * chargedSec is the prefix already charged — to served or dropped
 * requests, or to an earlier drain — so a drain pays only pendingSec()
 * before its launches, and popping one queue never erases the queue
 * time another queue's requests have accrued on the same clock.
 */
struct TransferClock
{
    double hostSec = 0.0;
    double chargedSec = 0.0;

    double pendingSec() const { return hostSec - chargedSec; }
};

/**
 * What the Engine and the ShardedSession share: the plan cache, the
 * retained results, request ids, the flight recorder, the brownout
 * duplication scale, and the per-device primitives their incremental
 * serve, drop and hedge calls and their drains are built from. The
 * Engine runs one queue per variant on one device; the ShardedSession
 * runs one queue per device of its group.
 */
class ServingCore
{
  public:
    ServingCore(const ServingCore &) = delete;
    ServingCore &operator=(const ServingCore &) = delete;

    PlanCache &planCache() { return cache_; }

    /** Output of a served request, [its subgraph nodes, dout]; nullptr
     *  until served. A drain retains results for one cycle only. */
    const tensor::Tensor *result(std::uint64_t id) const;

    /** Drop all retained request results (bounded-memory serving). */
    void clearResults() { results_.clear(); }

    /**
     * Consume one request id WITHOUT enqueuing anything. Shed arrivals
     * draw their id here so their flight-recorder lifecycle ("arrival"
     * -> "shed") never aliases a served request; ids stay unique and
     * sequential across admitted and shed requests alike.
     */
    std::uint64_t reserveId() { return nextId_++; }

    /**
     * Scale every model's duplicationFraction by @p scale in [0, 1]
     * (brownout degradation: redundancy is shed before requests are).
     * 1 restores the configured fractions; the error-diffusion
     * accumulators are preserved, so scale 1 -> identical sampling.
     */
    void setDuplicationScale(double scale) { dupScale_ = scale; }
    double duplicationScale() const { return dupScale_; }

    /**
     * Attach a per-request flight recorder (nullptr detaches). While
     * attached — independent of the obs::enabled() tracer switch —
     * every request accrues its lifecycle events (enqueue, plan
     * lookup, batch-join, exec, completion) at modeled timestamps.
     * The recorder must outlive the session or be detached first.
     */
    void setFlightRecorder(obs::FlightRecorder *fr) { flight_ = fr; }
    obs::FlightRecorder *flightRecorder() const { return flight_; }

  protected:
    explicit ServingCore(std::size_t plan_budget_bytes)
        : cache_(plan_budget_bytes)
    {}
    ~ServingCore() = default;

    /** The runtimes and clocks one primitive reads. */
    struct Site
    {
        /** Runtime the batch runs on. */
        sim::Runtime &rt;
        /** Clock of the batch's ASPIS guard and flight events. */
        double nowSec;
        /** Runtime whose PlanEvents record the plan lookup; its device
         *  labels the lookup's flight events. */
        sim::Runtime &planRt;
        /** Clock of the plan cache's trace instants. */
        double planSec;
    };

    /**
     * The one plan lookup: @p m's plan from the cache (compiling
     * through its PlanCompiler on a miss), its plan-lifecycle events
     * recorded on site.planRt, and one "plan-lookup" flight event per
     * request in @p stamped: a served batch stamps the requests it
     * serves, a hedge none.
     */
    std::shared_ptr<const core::CompiledModel>
    lookupPlan(ServedModel &m, const Site &site,
               const std::vector<const Request *> &stamped);

    /** Re-enforce the plan cache's byte budget once the caller has
     *  dropped its plan pins, recording the evictions on @p rt. */
    void enforcePlanBudget(sim::Runtime &rt);

    /**
     * Serve the min(n, queue length) oldest requests of @p q as ONE
     * ASPIS-guarded micro-batch on @p stream of site.rt, retain their
     * results and pop them (popOldest). The duplicate and the replay
     * serialize on the same stream, so their cost folds into the
     * returned batch cost. No timeline is imposed: the caller owns the
     * clock. Zeroed on an empty queue.
     */
    BatchCost serveOldestOf(ServedModel &m, ServeQueue &q,
                            TransferClock &clock, const Site &site,
                            std::size_t n, int stream);

    /**
     * Run @p head once more as a batch-of-1 on @p stream of site.rt,
     * in @p runner's pooled state, storing no result — the hedge
     * backup. By batch invariance its output equals the primary's, so
     * "first completion wins" moves only the modeled timeline. No
     * ASPIS guard: the hedge is itself the backup path.
     */
    BatchCost hedgeHead(ServedModel &m, const Request &head,
                        ServeQueue &runner, const Site &site, int stream);

    /**
     * Pop the min(n, queue length) oldest requests of @p q and charge
     * @p clock through the last of them: their transfers happened at
     * submit and leave with them, so a later drain charges only the
     * transfers of the requests it serves. Returns the popped ids in
     * queue order.
     */
    static std::vector<std::uint64_t>
    popOldest(ServeQueue &q, TransferClock &clock, std::size_t n);

    /** Execute @p reqs as one micro-batch of @p plan on @p rt, in
     *  @p q's pooled state. */
    static std::vector<tensor::Tensor>
    runBatch(const core::CompiledModel &plan, ServedModel &m, ServeQueue &q,
             sim::Runtime &rt, const std::vector<const Request *> &reqs);

    /** Retain @p outs as the results of @p reqs, detached from device
     *  memory scopes so they outlive the batch. */
    void storeResults(const std::vector<const Request *> &reqs,
                      const std::vector<tensor::Tensor> &outs);

    PlanCache cache_;
    std::map<std::uint64_t, tensor::Tensor> results_;
    double dupScale_ = 1.0;
    std::uint64_t nextId_ = 1;
    obs::FlightRecorder *flight_ = nullptr;
};

/** Engine-wide knobs (the per-variant knobs live in ServingConfig). */
struct EngineConfig
{
    /** Simulated device streams shared by every variant's batches. */
    int numStreams = 1;
    /** PlanCache resident-byte budget; 0 = unbounded. */
    std::size_t planBudgetBytes = 0;
    /** Autotune each variant's GEMM schedule on first compile. */
    bool autotuneSchedules = false;
};

/**
 * The multi-tenant serving engine. One host graph, one simulated
 * device, N registered model variants served through one bounded
 * PlanCache. See the file comment for the design; ServingSession is
 * the single-variant façade.
 */
class Engine : public ServingCore
{
  public:
    /** @param g host-resident full graph (outlives the engine). */
    Engine(const graph::HeteroGraph &g, EngineConfig cfg,
           sim::Runtime &rt);

    /**
     * Register a model variant under @p name. @p host_features is the
     * host-resident [nodes, cfg.din] feature tensor this variant
     * samples from (variants may disagree on din). Throws
     * std::invalid_argument on invalid @p cfg or a duplicate name.
     * Returns the dense variant id every request carries.
     */
    int registerVariant(const std::string &name,
                        tensor::Tensor host_features,
                        std::string model_source, ServingConfig cfg);

    int numVariants() const { return static_cast<int>(variants_.size()); }
    /** Id of @p name, or -1. */
    int variantIndex(const std::string &name) const;
    const std::string &variantName(int v) const;
    const ServingConfig &variantConfig(int v) const;

    /**
     * Sample a neighborhood query on variant @p v's seeded stream, pay
     * its host-to-device transfer, and enqueue it. Returns the
     * engine-wide request id.
     */
    std::uint64_t submit(int v);

    /** Enqueue an externally prepared request on variant @p v. */
    std::uint64_t submit(int v, graph::Minibatch mb,
                         tensor::Tensor feature);

    /**
     * Serve every queued request of every variant: per-variant FIFO
     * micro-batches (never mixing variants), interleaved over the
     * shared streams in global submission order. Returns the cycle's
     * metrics with a per-variant breakdown.
     */
    ServingReport drain();

    /**
     * Serve the min(n, queuedOn(v)) oldest queued requests of variant
     * @p v as ONE micro-batch issued to @p stream, retaining their
     * results. No timeline is imposed: the online serving layer owns
     * the clock. Returns the batch's modeled cost.
     */
    BatchCost serveOldest(int v, std::size_t n, int stream = 0);

    /**
     * Drop the min(n, queuedOn(v)) oldest queued requests of variant
     * @p v WITHOUT serving them (deadline fail-fast cancellation by
     * the resilience layer). Their transfers are charged exactly as if
     * they were served (TransferClock), so a later drain charges only
     * surviving requests' transfers. Returns the dropped request ids
     * in queue order.
     */
    std::vector<std::uint64_t> dropOldest(int v, std::size_t n);

    /**
     * Execute variant @p v's OLDEST queued request as a duplicate
     * batch-of-1 on @p stream without popping it or storing results —
     * the hedged-request backup run (ServingCore::hedgeHead). Returns
     * the run's modeled cost; zeroed when the queue is empty.
     */
    BatchCost hedgeOldest(int v, int stream = 0);

    /** The cache key variant @p v compiles under (scoped by variant
     *  name — same-model tenants never alias). */
    PlanKey planKey(int v) const { return at(v).key; }
    models::WeightMap &weights(int v);
    std::size_t queued() const;
    std::size_t queuedOn(int v) const;
    /** Modeled per-request latencies of the last drain cycle, ms, in
     *  batch completion order. */
    const std::vector<double> &lastLatenciesMs() const
    {
        return lastLatenciesMs_;
    }
    /** The (variant, shape bucket, schedule) key of @p v's autotuned
     *  plan; "" before its first compile or with tuning off. */
    const std::string &scheduleKey(int v) const;
    const EngineConfig &config() const { return cfg_; }
    sim::Runtime &runtime() { return rt_; }

  private:
    const ServedModel &at(int v) const;
    ServeQueue &queueOf(int v);
    /** The engine's one device, as every primitive reads it. */
    Site site();
    /** Variant @p v's queued requests (the plan lookup stamps them). */
    std::vector<const Request *> queuedOf(int v) const;

    const graph::HeteroGraph &g_;
    EngineConfig cfg_;
    sim::Runtime &rt_;

    /** Registered variants and their queues, by variant id. */
    std::vector<ServedModel> variants_;
    std::vector<ServeQueue> queues_;
    std::vector<double> lastLatenciesMs_;
    /** One clock for every variant: they share the one host thread. */
    TransferClock clock_;
};

/**
 * Absorb a ServingReport into the obs metrics registry under
 * @p prefix: latency percentiles land in a histogram-free gauge set
 * (the report's percentiles are already exact), cache stats reuse
 * absorbStats. One emitter path for every bench that snapshots.
 */
void absorbReport(obs::Registry &reg, const ServingReport &report,
                  const std::string &prefix);

} // namespace hector::serve

#endif // HECTOR_SERVE_ENGINE_HH
