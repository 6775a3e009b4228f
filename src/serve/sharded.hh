/**
 * @file
 * Multi-device sharded serving.
 *
 * A ShardedSession is the multi-device counterpart of ServingSession:
 * one model, one host-resident graph, N simulated devices. At
 * construction the host graph is cut into N shards by the
 * deterministic edge-cut partitioner (graph::partitionGraph) and the
 * replicated weights are broadcast over the modeled interconnect. Each
 * submitted request is routed to its *home shard* — the device owning
 * the plurality of its sampled subgraph's vertices — and served there
 * whole, so per-request arithmetic never crosses a device boundary and
 * results stay bit-identical to the single-device path (the same
 * batch-invariance property micro-batching rests on). What scaling out
 * costs is modeled explicitly:
 *
 *  - halo exchange: feature rows of subgraph vertices the home shard
 *    does not own travel owner -> home over the interconnect before
 *    the batch's kernels may start;
 *  - result gather: every batch's outputs travel home -> the
 *    all-gather root (root()) after execution.
 *
 * The feature store is *sharded and device-resident*: at construction
 * each device bulk-loads its shard's feature rows over its own PCIe
 * lanes (charged once), so a request's PCIe cost is only its subgraph
 * structure — the batch's kernels read home-owned rows in place from
 * device memory, remote rows are the halo above. In drain()
 * each device's queued structure transfers serialize on its own DMA
 * path while devices overlap (pendingHostSec_); the online loop
 * instead admits every arrival on the host's single admission thread,
 * so there structure transfers serialize globally (see OnlineServer's
 * GroupDevices in online.cc).
 *
 * Compute parallelizes the same way: each device runs its own
 * StreamScheduler (own driver thread, own streams) on the shared
 * virtual clock, which is where the multi-device speedup comes from.
 *
 * drain() serves a cycle in waves of one per-device routine: wave 1
 * serves each device's own queue; after every wave the failures that
 * struck so far are quarantined and the batches it lost replay on the
 * survivors in another wave, until a wave loses nothing.
 */

#ifndef HECTOR_SERVE_SHARDED_HH
#define HECTOR_SERVE_SHARDED_HH

#include <cstdint>
#include <map>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "graph/partition.hh"
#include "obs/flight_recorder.hh"
#include "serve/session.hh"
#include "sim/device_group.hh"

namespace hector::serve
{

/** Serving-time knobs of a sharded session. */
struct ShardedConfig
{
    /** Per-device serving knobs (maxBatch, numStreams, sample, ...). */
    ServingConfig serving;
    /**
     * Partitioner knobs; numShards is overridden by the device-group
     * size, so only tolerance and seed matter here.
     */
    graph::PartitionSpec partition;
};

/** One sharded drain cycle's metrics. */
struct ShardedReport : ServingReport
{
    int devices = 1;
    /** Requests served by each device this cycle. */
    std::vector<std::size_t> perDeviceRequests;
    /** Edge cut of the partition (whole graph, not per cycle). */
    std::int64_t cutEdges = 0;
    /** Cut edges / total edges of the host graph. */
    double cutRatio = 0.0;
    /** Halo-exchange bytes moved for this cycle's batches. */
    double haloBytes = 0.0;
    /** Result all-gather bytes moved onto the root this cycle. */
    double gatherBytes = 0.0;
    /** Link-seconds the interconnect was busy this cycle, as ms. */
    double interconnectMs = 0.0;
    /** Devices quarantined as failed by the end of the cycle. */
    int devicesFailed = 0;
    /** Requests re-executed on survivors after a mid-cycle device
     *  failure or a detected transient corruption. */
    std::size_t requestsReplayed = 0;
    /** Requests re-routed off failed devices (quarantine + in-cycle). */
    std::size_t requestsRerouted = 0;
    /** Redundant (dual-issue) batch executions this cycle. */
    std::uint64_t duplicatesIssued = 0;
    /** Output-checksum mismatches the redundant executions caught. */
    std::uint64_t transientsDetected = 0;
    /** Redundant + replay execution seconds as a percentage of the
     *  primary execution seconds: what detection coverage costs. */
    double duplicationOverheadPct = 0.0;
};

/** Accounting of one micro-batch served by serveOldestOn(). */
struct ShardBatch
{
    /** Host-issue overhead + device execution, like BatchCost. */
    BatchCost cost;
    /** Home device the batch ran on. */
    int device = 0;
    /** Halo bytes owed per owner shard: (owner, bytes) pairs. Only
     *  surviving owners appear; rows owned by failed shards fall back
     *  to the host store (hostFallbackBytes). */
    std::vector<std::pair<int, double>> haloBytesByOwner{};
    /** Output bytes to all-gather onto root() (0 on the root). */
    double gatherBytes = 0.0;
    /** Halo rows whose owner shard has failed, re-gathered from the
     *  host feature store over PCIe instead of the interconnect. */
    double hostFallbackBytes = 0.0;
};

class ShardedSession
{
  public:
    /**
     * @param g             host-resident full graph (outlives session)
     * @param host_features host-resident node features, [nodes, din]
     * @param model_source  model in the textual DSL (model_sources.hh)
     * @param group         simulated devices; group.size() shards
     *
     * Seeding matches ServingSession exactly (weights first, then the
     * request-sampling stream), so a ShardedSession with the same
     * config serves the identical request stream with identical
     * weights — the basis of the golden determinism tests.
     */
    ShardedSession(const graph::HeteroGraph &g,
                   tensor::Tensor host_features, std::string model_source,
                   ShardedConfig cfg, sim::DeviceGroup &group);

    /** Routing outcome of one submit. */
    struct SubmitInfo
    {
        std::uint64_t id = 0;
        /** Home device the request was routed to. */
        int device = 0;
        /** Host-transfer seconds this submit charged (structure
         *  bytes over the home device's PCIe lanes; 0 for externally
         *  prepared requests). */
        double transferSec = 0.0;
    };

    /**
     * Sample a neighborhood query (same seeded stream as the
     * single-device session), pay its host transfer, and enqueue it on
     * its home shard. Returns the id and the routing decision.
     */
    SubmitInfo submitRouted();

    /** submitRouted() discarding the routing info. */
    std::uint64_t submit() { return submitRouted().id; }

    /** Consume one request id without sampling, routing, or enqueuing
     *  (shed arrivals keep a unique flight-recorder identity). */
    std::uint64_t reserveId() { return nextId_++; }

    /** Enqueue an externally prepared request; routes like submit(). */
    SubmitInfo submitRouted(graph::Minibatch mb, tensor::Tensor feature);

    /** Serve every queued request on every device; cycle metrics. */
    ShardedReport drain();

    /**
     * Serve the min(n, queuedOn(device)) oldest requests of @p device
     * as ONE micro-batch on @p stream, retaining results. Like
     * ServingSession::serveOldest, no timeline is imposed: the online
     * layer owns the clock and charges the returned halo/gather bytes
     * on the group interconnect itself. Also like serveOldest, the
     * device's transfer bookkeeping is rebased after the pop, so a
     * later drain() charges only the remaining requests' transfers.
     */
    ShardBatch serveOldestOn(int device, std::size_t n, int stream = 0);

    /**
     * Fail-fast cancel the min(n, queuedOn(device)) oldest requests of
     * @p device without serving them (timeout cancellation); returns
     * the dropped ids in queue order. The device's transfer
     * bookkeeping is rebased exactly as if the requests were served,
     * so later batches charge only their own submit transfers.
     */
    std::vector<std::uint64_t> dropOldestOn(int device, std::size_t n);

    /**
     * Remove one queued request by id (retry-budget exhaustion after a
     * re-route); true when found. Mid-queue removal is safe: submitSec
     * stays non-decreasing along the queue and the request's submit
     * transfer already happened, so no rebase is needed.
     */
    bool dropQueued(std::uint64_t id);

    /**
     * Re-issue the oldest queued request of @p from as a hedge
     * batch-of-1 on alive device @p to (stream @p stream) WITHOUT
     * popping it from @p from's queue and without storing a result —
     * the primary copy remains authoritative, so outputs are
     * bit-identical to the unhedged run by construction; only the
     * modeled timeline can move. The returned ShardBatch carries the
     * backup's exec cost, the structure re-send over @p to's PCIe
     * lanes (transferSec-style, folded into overheadSec), and @p to's
     * halo/gather bytes for the caller's clock. No ASPIS sandwich: the
     * hedge IS the backup path. Returns an empty batch when @p from
     * has nothing queued.
     */
    ShardBatch hedgeOldestOn(int from, int to, int stream = 0);

    /** Drop all retained request results (bounded-memory serving). */
    void clearResults() { results_.clear(); }

    /** Output of a served request; nullptr until served (drain()
     *  retains results for one cycle, like the single-device path). */
    const tensor::Tensor *result(std::uint64_t id) const;

    /// @name Fault tolerance.
    ///
    /// A device failure (sim::FaultInjector attached to the group, or
    /// an explicit quarantine() call) removes the device from service:
    /// its queued requests are re-routed to surviving shards — the
    /// subgraph structure is re-sent over the survivor's PCIe lanes,
    /// and at serve time any halo row the dead shard owned is
    /// re-gathered from the host feature store instead of the
    /// interconnect — and drain() replays work the failure lost
    /// mid-cycle on the survivors, in as many waves as it takes (a
    /// survivor that fails in a replay wave loses its replays to the
    /// next). Recovered outputs are bit-identical to the fault-free run
    /// (re-execution of the same requests with the same weights; the
    /// batch-invariance property). With every device failed, serving
    /// throws rather than hanging or dividing by zero.
    /// @{

    /** One re-routed request of a quarantine. */
    struct Rerouted
    {
        std::uint64_t id = 0;
        int from = 0;
        int to = 0;
        /** Structure re-send charged on the new home's PCIe lanes. */
        double transferSec = 0.0;
    };

    /**
     * Quarantine @p device at virtual time @p t_sec: mark it failed
     * (firing the injector's failure event if one is pending) and
     * re-route its queued requests to surviving shards, preserving
     * request ids and FIFO order. Throws when requests are queued and
     * no survivor remains. Idempotent once the device is dead.
     */
    std::vector<Rerouted> quarantine(int device, double t_sec);

    bool isDead(int device) const;
    int aliveCount() const;
    /** The all-gather root: the lowest alive device (0 when none
     *  survives). Every batch's outputs gather onto it. */
    int root() const;

    /// @}

    /**
     * Attach a per-request flight recorder: enqueue events are
     * recorded at submit, batch-join/exec/halo/gather/completion
     * events during drain()/serveOldestOn(). nullptr detaches. The
     * recorder must outlive the session or be detached.
     */
    void setFlightRecorder(obs::FlightRecorder *fr) { flight_ = fr; }
    obs::FlightRecorder *flightRecorder() const { return flight_; }

    /**
     * Devices the resilience layer's circuit breakers want routing to
     * avoid (index -> avoid). Softer than quarantine: homeShard skips
     * avoided devices while at least one alive device is not avoided,
     * and ignores the mask entirely otherwise (routing must always
     * make progress). Empty vector clears the mask.
     */
    void setRouteAvoid(std::vector<char> avoid);

    /** Scale applied to cfg.serving.duplicationFraction by the
     *  brownout path (0 disables ASPIS dual-issue, 1 is nominal). */
    void setDuplicationScale(double scale) { dupScale_ = scale; }
    double duplicationScale() const { return dupScale_; }

    const graph::Partition &partition() const { return partition_; }
    PlanCache &planCache() { return cache_; }
    models::WeightMap &weights() { return weights_; }
    const ShardedConfig &config() const { return cfg_; }
    sim::DeviceGroup &group() { return group_; }

    std::size_t queued() const;
    std::size_t queuedOn(int device) const;

  private:
    /** One cached-plan lookup through the shared PlanCompiler. */
    std::shared_ptr<const core::CompiledModel> compiledPlan();
    int homeShard(const graph::Minibatch &mb) const;
    /** Affinity x headroom pick for @p mb among alive devices (with
     *  @p use_avoid, those the breaker mask leaves open), scoring
     *  (owned vertices + 1) x (@p cap - queue length in @p loads). */
    int pickShard(const graph::Minibatch &mb,
                  const std::vector<std::vector<Request>> &loads,
                  std::int64_t cap, bool use_avoid) const;
    SubmitInfo enqueue(int home, graph::Minibatch mb,
                       tensor::Tensor feature, double submit_sec);
    /**
     * Per-owner halo bytes of a batch served on @p home. Rows owned by
     * failed shards are excluded from the pairs and accumulated into
     * @p host_fallback_bytes instead (host-store re-gather over PCIe).
     */
    std::vector<std::pair<int, double>>
    batchHaloBytes(const std::vector<const Request *> &reqs, int home,
                   double *host_fallback_bytes) const;
    /** Pop the @p n (>= 1) oldest requests of @p device's queue and
     *  rebase its transfer bookkeeping onto what remains. */
    void popOldest(int device, std::size_t n);
    /** Charge @p mb's subgraph structure over @p device's PCIe lanes;
     *  returns the transfer seconds. */
    double sendStructure(const graph::Minibatch &mb, int device);
    /** Execute @p reqs as one micro-batch on device @p d. */
    std::vector<tensor::Tensor>
    runBatch(const core::CompiledModel &plan,
             const std::vector<const Request *> &reqs, int d);

    const graph::HeteroGraph &g_;
    tensor::Tensor hostFeatures_;
    std::string modelSource_;
    ShardedConfig cfg_;
    sim::DeviceGroup &group_;

    graph::Partition partition_;
    /** Bounded like the engine's: cfg.serving.planBudgetBytes. */
    PlanCache cache_;
    /** Parse + autotune + price closure shared with serve::Engine, so
     *  the sharded path compiles plans exactly one way. */
    PlanCompiler compiler_;
    models::WeightMap weights_;
    std::mt19937_64 rng_;

    /** Pooled per-device execution contexts: each device's arena
     *  buffers survive across cycles (zero steady-state allocation),
     *  and its tracked memory stays on its own runtime. */
    std::vector<core::ExecutionContext> execCtxs_;
    std::vector<models::WeightMap> execGrads_;

    /** FIFO queue per device. */
    std::vector<std::vector<Request>> queues_;
    std::map<std::uint64_t, tensor::Tensor> results_;
    /** Per-device host-transfer time accrued by queued submits:
     *  transfers to one device serialize, devices overlap. */
    std::vector<double> pendingHostSec_;
    /** Quarantined devices (failed; never routed to again). */
    std::vector<char> dead_;
    /** Breaker-avoided devices (soft: ignored when all alive devices
     *  are avoided); empty = no mask. */
    std::vector<char> routeAvoid_;
    /** Error-diffusion accumulator of the dual-issue sampler. */
    double dupAccum_ = 0.0;
    /** Brownout scale on duplicationFraction (1 = nominal). */
    double dupScale_ = 1.0;
    std::uint64_t nextId_ = 1;
    obs::FlightRecorder *flight_ = nullptr;
};

} // namespace hector::serve

#endif // HECTOR_SERVE_SHARDED_HH
