#include "serve/sharded.hh"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <unordered_set>

#include "core/frontend.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "sim/fault.hh"

namespace hector::serve
{

using tensor::Tensor;

ShardedSession::ShardedSession(const graph::HeteroGraph &g,
                               Tensor host_features,
                               std::string model_source, ShardedConfig cfg,
                               sim::DeviceGroup &group)
    : g_(g), hostFeatures_(std::move(host_features)),
      modelSource_(std::move(model_source)), cfg_(cfg), group_(group),
      partition_([&] {
          validateServingConfig(cfg.serving, "ShardedSession");
          graph::PartitionSpec ps = cfg.partition;
          ps.numShards = group.size();
          return graph::partitionGraph(g, ps);
      }()),
      cache_(cfg.serving.planBudgetBytes),
      compiler_(g, "default", cfg.serving,
                cfg.serving.autotuneSchedules),
      rng_(cfg.serving.seed),
      execCtxs_(static_cast<std::size_t>(group.size())),
      execGrads_(static_cast<std::size_t>(group.size())),
      queues_(static_cast<std::size_t>(group.size())),
      pendingHostSec_(static_cast<std::size_t>(group.size()), 0.0),
      dead_(static_cast<std::size_t>(group.size()), 0)
{
    if (hostFeatures_.dim(1) != cfg_.serving.din)
        throw std::runtime_error(
            "ShardedSession: host feature dim != config din");
    // Same seeding order as ServingSession / the engine registry:
    // weights are drawn from the pristine program *before* any
    // sampling, so the single-device and sharded sessions consume
    // identical RNG streams (initVariantWeights is the one
    // construction path for per-variant weights).
    weights_ = initVariantWeights(modelSource_, cfg_.serving.din,
                                  cfg_.serving.dout, g_, rng_);

    // Replicate the weights: one broadcast from the all-gather root to
    // every other device over the interconnect, paid once per session.
    double weight_bytes = 0.0;
    for (const auto &[name, w] : weights_)
        weight_bytes += static_cast<double>(w.bytes());
    for (int d = 1; d < group_.size(); ++d)
        group_.interconnect().transfer(0, d, weight_bytes,
                                       group_.nowSec());

    // Load the sharded feature store: each device bulk-transfers its
    // own shard's feature rows over its own PCIe lanes, paid once per
    // session (the rows stay resident; requests only move structure).
    const double row_bytes =
        static_cast<double>(cfg_.serving.din) * sizeof(float);
    for (int d = 0; d < group_.size(); ++d) {
        sim::Runtime &rt = group_.device(d);
        rt.hostOverhead(graph::hostTransferSec(
            static_cast<double>(
                partition_.shardSizes[static_cast<std::size_t>(d)]) *
                row_bytes,
            rt.spec()));
    }
}

std::shared_ptr<const core::CompiledModel>
ShardedSession::compiledPlan()
{
    // One lookup per cycle/batch through the shared PlanCompiler
    // (autotuned schedule, modeled plan cost); plan-lifecycle events
    // are recorded against the all-gather root's runtime.
    const PlanKey key =
        makePlanKey(modelSource_, cfg_.serving.din, cfg_.serving.dout,
                    cfg_.serving.compile, g_);
    // Timestamp the cache's trace instants with the group clock (the
    // cache itself holds no runtime reference).
    obs::setVirtualNow(group_.nowSec());
    const PlanCache::Stats before = cache_.stats();
    auto plan = cache_.get(key, [&]() {
        return compiler_.compile(key, hostFeatures_, weights_);
    });
    recordPlanEvents(group_.device(0).planEvents(), before,
                     cache_.stats());
    return plan;
}

int
ShardedSession::homeShard(const graph::Minibatch &mb) const
{
    const std::int64_t alive = aliveCount();
    if (alive == 0)
        throw std::runtime_error(
            "ShardedSession: no surviving devices to route to");
    const std::int64_t total =
        static_cast<std::int64_t>(queued()) + 1;
    // The breaker mask is advisory: honored only while some alive
    // device is unmasked, so routing always makes progress.
    bool use_avoid = false;
    if (!routeAvoid_.empty())
        for (int s = 0; s < group_.size(); ++s)
            if (!dead_[static_cast<std::size_t>(s)] &&
                !routeAvoid_[static_cast<std::size_t>(s)])
                use_avoid = true;
    return pickShard(mb, queues_, (total + alive - 1) / alive + 1,
                     use_avoid);
}

int
ShardedSession::pickShard(const graph::Minibatch &mb,
                          const std::vector<std::vector<Request>> &loads,
                          std::int64_t cap, bool use_avoid) const
{
    // Affinity x headroom routing. Placement cannot change any output
    // bit (per-request arithmetic is batch- and device-invariant), so
    // the router trades the two things placement *does* change: halo
    // bytes (maximized ownership -> minimized cut traffic) and load
    // balance (hub shards would otherwise swallow most neighborhoods
    // — the plurality owner alone routes ~40% of bgs requests to one
    // device). Scoring owned_vertices x queue_headroom with a hard
    // per-device queue cap keeps both bounded, deterministically; by
    // pigeonhole some shard is always below the cap. Quarantined
    // devices are never candidates; with every device alive the math
    // is exactly the pre-fault-tolerance formula, so routing (and the
    // whole timeline) stays bit-identical on fault-free runs.
    const int k = group_.size();
    std::vector<std::int64_t> owned(static_cast<std::size_t>(k), 0);
    for (std::int64_t v : mb.nodeMap)
        ++owned[static_cast<std::size_t>(
            partition_.shardOf[static_cast<std::size_t>(v)])];
    auto eligible = [&](int s) {
        return !dead_[static_cast<std::size_t>(s)] &&
               (!use_avoid || !routeAvoid_[static_cast<std::size_t>(s)]);
    };
    int best = -1;
    std::int64_t best_score = -1;
    for (int s = 0; s < k; ++s) {
        if (!eligible(s))
            continue;
        const std::int64_t headroom =
            cap - static_cast<std::int64_t>(
                      loads[static_cast<std::size_t>(s)].size());
        if (headroom <= 0)
            continue;
        const std::int64_t score =
            (owned[static_cast<std::size_t>(s)] + 1) * headroom;
        if (score > best_score) {
            best = s;
            best_score = score;
        }
    }
    if (best >= 0)
        return best;
    for (int s = 0; s < k; ++s)
        if (eligible(s))
            return s;
    for (int s = 0; s < k; ++s)
        if (!dead_[static_cast<std::size_t>(s)])
            return s;
    return 0;
}

void
ShardedSession::setRouteAvoid(std::vector<char> avoid)
{
    if (!avoid.empty() &&
        avoid.size() != static_cast<std::size_t>(group_.size()))
        throw std::runtime_error(
            "ShardedSession::setRouteAvoid: mask must be empty or one "
            "entry per device");
    routeAvoid_ = std::move(avoid);
}

bool
ShardedSession::isDead(int device) const
{
    if (device < 0 || device >= group_.size())
        throw std::runtime_error("ShardedSession: device out of range");
    return dead_[static_cast<std::size_t>(device)] != 0;
}

int
ShardedSession::root() const
{
    for (int d = 0; d < group_.size(); ++d)
        if (!dead_[static_cast<std::size_t>(d)])
            return d;
    return 0;
}

int
ShardedSession::aliveCount() const
{
    int n = 0;
    for (char d : dead_)
        if (!d)
            ++n;
    return n;
}

double
ShardedSession::sendStructure(const graph::Minibatch &mb, int device)
{
    sim::Runtime &rt = group_.device(device);
    const double t = graph::hostTransferSec(
        static_cast<double>(mb.subgraph.structureBytes()), rt.spec());
    rt.hostOverhead(t);
    return t;
}

std::vector<Tensor>
ShardedSession::runBatch(const core::CompiledModel &plan,
                         const std::vector<const Request *> &reqs, int d)
{
    sim::Runtime &rt = group_.device(d);
    MicroBatch batch = coalesce(reqs, rt);
    return executeBatch(plan, batch, weights_, rt,
                        execCtxs_[static_cast<std::size_t>(d)],
                        execGrads_[static_cast<std::size_t>(d)],
                        cfg_.serving.useArena);
}

std::vector<ShardedSession::Rerouted>
ShardedSession::quarantine(int device, double t_sec)
{
    if (device < 0 || device >= group_.size())
        throw std::runtime_error("ShardedSession: device out of range");
    std::vector<Rerouted> moved;
    if (dead_[static_cast<std::size_t>(device)])
        return moved;
    dead_[static_cast<std::size_t>(device)] = 1;
    sim::FaultInjector *fi = group_.faultInjector();
    if (fi && !fi->isFailed(device))
        fi->markFailed(device, t_sec);

    auto &q = queues_[static_cast<std::size_t>(device)];
    if (!q.empty() && aliveCount() == 0)
        throw std::runtime_error(
            "ShardedSession::quarantine: requests queued but no "
            "surviving devices");
    moved.reserve(q.size());
    for (Request &r : q) {
        // The dead device's resident copies are gone: the subgraph
        // structure re-sends over the new home's PCIe lanes, exactly
        // like a fresh submit (features re-gather at serve time, the
        // dead shard's rows via the host-fallback halo path).
        const int to = homeShard(r.mb);
        const double transfer = sendStructure(r.mb, to);
        pendingHostSec_[static_cast<std::size_t>(to)] += transfer;
        Rerouted rr;
        rr.id = r.id;
        rr.from = device;
        rr.to = to;
        rr.transferSec = transfer;
        moved.push_back(rr);
        if (fi)
            fi->noteReroute(r.id, device, to, t_sec);
        if (flight_)
            flight_->event(r.id, "reroute", t_sec, to,
                           "from=" + std::to_string(device));
        r.submitSec = pendingHostSec_[static_cast<std::size_t>(to)];
        queues_[static_cast<std::size_t>(to)].push_back(std::move(r));
    }
    q.clear();
    pendingHostSec_[static_cast<std::size_t>(device)] = 0.0;
    if (obs::enabled())
        obs::tracer().instant(
            "device.quarantine", "serve", t_sec, device, 0,
            "\"rerouted\":" + std::to_string(moved.size()));
    return moved;
}

ShardedSession::SubmitInfo
ShardedSession::enqueue(int home, graph::Minibatch mb, Tensor feature,
                        double submit_sec)
{
    SubmitInfo info;
    info.id = nextId_++;
    info.device = home;
    auto &q = queues_[static_cast<std::size_t>(home)];
    q.emplace_back(info.id, std::move(mb), std::move(feature));
    q.back().submitSec = submit_sec;
    if (flight_)
        flight_->event(info.id, "enqueue", group_.nowSec(), home,
                       "home=" + std::to_string(home));
    if (obs::enabled())
        obs::tracer().instant("submit", "serve", group_.nowSec(), home,
                              0,
                              "\"home\":" + std::to_string(home));
    return info;
}

ShardedSession::SubmitInfo
ShardedSession::submitRouted()
{
    // Sample first (advancing the shared request stream), then route.
    // With the feature store device-resident, PCIe only carries the
    // subgraph structure; the request's feature tensor stands for the
    // device-resident store rows, which the batch's kernels read in
    // place through its input row table (coalesce()), so it is
    // neither a host transfer nor a copy kernel.
    graph::Minibatch mb =
        graph::sampleNeighbors(g_, cfg_.serving.sample, rng_);
    const int home = homeShard(mb);
    sim::Runtime &rt = group_.device(home);
    Tensor feature;
    {
        auto scope = rt.memoryScope();
        feature = graph::gatherFeatures(mb, hostFeatures_);
    }
    const double transfer = sendStructure(mb, home);
    pendingHostSec_[static_cast<std::size_t>(home)] += transfer;
    SubmitInfo info = enqueue(
        home, std::move(mb), std::move(feature),
        pendingHostSec_[static_cast<std::size_t>(home)]);
    info.transferSec = transfer;
    return info;
}

ShardedSession::SubmitInfo
ShardedSession::submitRouted(graph::Minibatch mb, Tensor feature)
{
    if (feature.ndim() != 2 ||
        feature.dim(0) != mb.subgraph.numNodes() ||
        feature.dim(1) != cfg_.serving.din)
        throw std::runtime_error(
            "ShardedSession::submitRouted: feature must be [subgraph "
            "nodes, din]");
    const int home = homeShard(mb);
    return enqueue(
        home, std::move(mb), std::move(feature),
        pendingHostSec_[static_cast<std::size_t>(home)]);
}

std::size_t
ShardedSession::queued() const
{
    std::size_t n = 0;
    for (const auto &q : queues_)
        n += q.size();
    return n;
}

std::size_t
ShardedSession::queuedOn(int device) const
{
    if (device < 0 || device >= group_.size())
        throw std::runtime_error("ShardedSession: device out of range");
    return queues_[static_cast<std::size_t>(device)].size();
}

std::vector<std::pair<int, double>>
ShardedSession::batchHaloBytes(const std::vector<const Request *> &reqs,
                               int home,
                               double *host_fallback_bytes) const
{
    // Unique full-graph vertices across the batch (the union gather
    // deduplicates them), grouped by owner shard. Each non-home row
    // crosses the owner -> home link once; rows whose owner has failed
    // can't — they re-gather from the host store instead.
    const double row_bytes =
        static_cast<double>(cfg_.serving.din) * sizeof(float);
    std::unordered_set<std::int64_t> seen;
    std::vector<double> per_owner(
        static_cast<std::size_t>(group_.size()), 0.0);
    for (const Request *r : reqs)
        for (std::int64_t v : r->mb.nodeMap)
            if (seen.insert(v).second) {
                const std::int32_t owner =
                    partition_.shardOf[static_cast<std::size_t>(v)];
                if (owner == home)
                    continue;
                if (dead_[static_cast<std::size_t>(owner)]) {
                    if (host_fallback_bytes)
                        *host_fallback_bytes += row_bytes;
                } else {
                    per_owner[static_cast<std::size_t>(owner)] +=
                        row_bytes;
                }
            }
    std::vector<std::pair<int, double>> halo;
    for (int s = 0; s < group_.size(); ++s)
        if (per_owner[static_cast<std::size_t>(s)] > 0.0)
            halo.emplace_back(s, per_owner[static_cast<std::size_t>(s)]);
    return halo;
}

ShardedReport
ShardedSession::drain()
{
    ShardedReport report;
    report.devices = group_.size();
    report.perDeviceRequests.assign(
        static_cast<std::size_t>(group_.size()), 0);
    report.cutEdges = partition_.cutEdges;
    report.cutRatio = partition_.cutRatio();

    sim::FaultInjector *fi = group_.faultInjector();

    // Phase 0: failures already due on the group clock fire before any
    // work is placed — the dead device's queue re-routes to survivors.
    if (fi)
        for (int d = 0; d < group_.size(); ++d)
            if (!dead_[static_cast<std::size_t>(d)] &&
                fi->failureDue(d, group_.nowSec()))
                report.requestsRerouted +=
                    quarantine(d, fi->failureTimeSec(d)).size();
    report.devicesFailed = group_.size() - aliveCount();

    if (queued() == 0)
        return report;
    if (aliveCount() == 0)
        throw std::runtime_error(
            "ShardedSession::drain: requests queued but no surviving "
            "devices");

    results_.clear();

    const std::uint64_t launches_before = group_.totalLaunches();
    const double ic_busy_before = group_.interconnect().totalBusySec();

    const auto plan = compiledPlan();

    // Cycle timeline: each device's queued structure transfers
    // serialize on its own PCIe lanes (devices overlap), then the
    // device pulls its halo over the interconnect and computes, and
    // every batch's outputs gather onto the all-gather root (root()).
    // Times below are on the cycle's own clock, in seconds since `base`
    // on the group clock, so a cycle reports the same timeline wherever
    // on the group clock it starts; traces, failures and the group
    // clock add `base` back.
    const double base = group_.nowSec();
    obs::Span drain_span("sharded.drain", "serve", base, 0, 0);

    // A link carries the cycle's transfers one after another, from when
    // it was last free; the interconnect books each on the group clock.
    std::map<std::pair<int, int>, double> link_free;
    const auto transfer = [&](int src, int dst, double bytes,
                              double ready) {
        sim::Interconnect &ic = group_.interconnect();
        if (src == dst) {
            ic.transfer(src, dst, bytes, base + ready); // range check
            return ready;
        }
        auto [it, fresh] = link_free.try_emplace({src, dst}, 0.0);
        if (fresh)
            it->second =
                std::max(0.0, ic.linkBusyUntilSec(src, dst) - base);
        const double start = std::max(ready, it->second);
        it->second = start + ic.transferSec(bytes);
        ic.transfer(src, dst, bytes, base + start);
        return it->second;
    };

    const std::size_t cap =
        std::max<std::size_t>(1, cfg_.serving.maxBatch);
    const double dout_bytes =
        static_cast<double>(cfg_.serving.dout) * sizeof(float);

    std::vector<double> latencies;
    std::vector<double> queue_delays;
    latencies.reserve(queued());
    queue_delays.reserve(queued());
    double cycle_end = 0.0;
    double halo_bytes = 0.0;
    double gather_bytes = 0.0;
    double primary_exec_sec = 0.0;
    double redundant_exec_sec = 0.0;

    // A batch whose modeled compute finishes after its device's
    // failure instant is lost with the device; copies of its requests
    // replay on survivors in the next wave.
    struct Lost
    {
        Request req;
        int from = 0;
        double tFail = 0.0;
    };
    std::vector<Lost> lost;
    std::vector<double> dev_end(static_cast<std::size_t>(group_.size()),
                                0.0);

    // One wave: every alive device serves its queue in @p queues from
    // its start time in @p start (cycle clock). A replay wave serves
    // work an earlier wave lost and differs from the first in three
    // ways only: no ASPIS guard and no dual-issue sampling, a
    // device-failure replay noted per batch, and its execution time
    // booked as redundant.
    const auto serve_wave = [&](std::vector<std::vector<Request>> &queues,
                                const std::vector<double> &start,
                                bool replay) {
        const int gather_root = root();
        for (int d = 0; d < group_.size(); ++d) {
            auto &q = queues[static_cast<std::size_t>(d)];
            if (dead_[static_cast<std::size_t>(d)] || q.empty())
                continue;
            sim::Runtime &rt = group_.device(d);
            StreamScheduler sched(rt, cfg_.serving.numStreams);
            auto scope = rt.memoryScope();

            const double host_end = start[static_cast<std::size_t>(d)];
            cycle_end = std::max(cycle_end, host_end);
            const double t_fail =
                fi ? fi->failureTimeSec(d)
                   : std::numeric_limits<double>::infinity();

            // Halo exchange for everything this device is about to
            // serve: surviving owners charge the owner -> home links
            // per batch, rows of failed owners re-gather from the host
            // store over this device's PCIe lanes (serialized after its
            // structure transfers).
            double comm_done = host_end;
            double device_halo = 0.0;
            double fallback_sec = 0.0;
            std::vector<std::vector<const Request *>> batches;
            for (std::size_t lo = 0; lo < q.size(); lo += cap) {
                const std::size_t hi = std::min(q.size(), lo + cap);
                std::vector<const Request *> reqs;
                reqs.reserve(hi - lo);
                for (std::size_t i = lo; i < hi; ++i)
                    reqs.push_back(&q[i]);
                double fb = 0.0;
                for (const auto &[owner, bytes] :
                     batchHaloBytes(reqs, d, &fb)) {
                    comm_done = std::max(
                        comm_done, transfer(owner, d, bytes, host_end));
                    halo_bytes += bytes;
                    device_halo += bytes;
                }
                if (fb > 0.0) {
                    const double t = graph::hostTransferSec(fb, rt.spec());
                    rt.hostOverhead(t);
                    fallback_sec += t;
                }
                batches.push_back(std::move(reqs));
            }
            comm_done = std::max(comm_done, host_end + fallback_sec);
            if (obs::enabled() && comm_done > host_end)
                obs::tracer().complete(
                    "halo", "comm", base + host_end, comm_done - host_end,
                    d, 0, "\"bytes\":" + obs::jsonNum(device_halo));

            // Compute: this device's own driver thread and streams, on
            // the shared overlap rule, starting once the halo is
            // resident. A primary batch is ASPIS-guarded (guardBatch):
            // the primary run, and the sampled duplicate and the replay
            // when they run. Batch b's runs are scheduled batches
            // first[b] to first[b + 1] - 1.
            std::vector<std::size_t> first(batches.size() + 1, 0);
            std::vector<std::vector<Tensor>> outs(batches.size());
            for (std::size_t b = 0; b < batches.size(); ++b) {
                const auto run = [&](std::vector<Tensor> &dst) {
                    sched.run(
                        [&]() { dst = runBatch(*plan, batches[b], d); });
                };
                std::size_t count = 1;
                if (replay) {
                    run(outs[b]);
                    if (fi)
                        fi->noteReplay(d, base + host_end,
                                       "device-failure");
                    if (flight_)
                        for (const Request *r : batches[b])
                            flight_->event(r->id, "replay",
                                           base + host_end, d,
                                           "why=device-failure");
                } else {
                    const bool dup = sampleDuplicate(
                        cfg_.serving.duplicationFraction * dupScale_,
                        dupAccum_);
                    const GuardedBatch g = guardBatch(
                        fi, d, base + host_end, dup, outs[b], run);
                    count = g.runs;
                    if (dup)
                        ++report.duplicatesIssued;
                    if (g.detected) {
                        ++report.transientsDetected;
                        if (obs::enabled())
                            obs::tracer().instant(
                                "fault.detect", "serve", base + host_end,
                                d, 0,
                                "\"batch\":" + std::to_string(g.ordinal));
                        report.requestsReplayed += batches[b].size();
                        if (flight_)
                            for (const Request *r : batches[b])
                                flight_->event(r->id, "replay",
                                               base + host_end, d,
                                               "why=transient");
                    }
                }
                first[b + 1] = first[b] + count;
            }

            const std::vector<double> completions =
                sched.completionTimes();
            double device_end = host_end;
            for (std::size_t b = 0; b < batches.size(); ++b) {
                const ScheduledBatch &sb = sched.batches()[first[b]];
                (replay ? redundant_exec_sec : primary_exec_sec) +=
                    sb.execSec;
                double compute_done = comm_done + completions[first[b]];
                for (std::size_t r = first[b] + 1; r < first[b + 1]; ++r) {
                    redundant_exec_sec += sched.batches()[r].execSec;
                    compute_done =
                        std::max(compute_done, comm_done + completions[r]);
                }
                if (compute_done > t_fail - base) {
                    // Lost with the device: the outputs never left it,
                    // and the failure falls inside this cycle.
                    cycle_end = std::max(cycle_end, t_fail - base);
                    for (const Request *r : batches[b]) {
                        lost.push_back({*r, d, t_fail});
                        if (flight_)
                            flight_->event(r->id, "lost", t_fail, d,
                                           "batch=" + std::to_string(b));
                    }
                    continue;
                }
                {
                    tensor::TrackerScope untracked(nullptr);
                    for (std::size_t i = 0; i < batches[b].size(); ++i)
                        results_.insert_or_assign(batches[b][i]->id,
                                                  outs[b][i].clone());
                }
                // All-gather this batch's outputs onto the root.
                double out_bytes = 0.0;
                for (const Request *r : batches[b])
                    out_bytes += static_cast<double>(
                                     r->mb.subgraph.numNodes()) *
                                 dout_bytes;
                double final_done = compute_done;
                if (d != gather_root) {
                    final_done =
                        transfer(d, gather_root, out_bytes, compute_done);
                    gather_bytes += out_bytes;
                }
                cycle_end = std::max(cycle_end, final_done);
                device_end = std::max(device_end, final_done);

                const double service = sb.overheadSec + sb.execSec;
                const double exec_start =
                    comm_done + completions[first[b]] - sb.execSec;
                if (obs::enabled()) {
                    obs::tracer().complete(
                        "batch", "serve", base + exec_start, sb.execSec, d,
                        sb.stream,
                        "\"requests\":" +
                            std::to_string(batches[b].size()));
                    if (d != gather_root)
                        obs::tracer().complete(
                            "gather", "comm", base + compute_done,
                            final_done - compute_done, d, sb.stream,
                            "\"bytes\":" + obs::jsonNum(out_bytes));
                }
                for (const Request *r : batches[b]) {
                    const double lat = final_done - r->submitSec;
                    latencies.push_back(lat);
                    queue_delays.push_back(std::max(0.0, lat - service));
                    if (!flight_)
                        continue;
                    flight_->event(r->id, "batch-join", base + host_end, d,
                                   "batch=" + std::to_string(b) +
                                       " size=" +
                                       std::to_string(batches[b].size()));
                    if (comm_done > host_end)
                        flight_->event(
                            r->id, "halo", base + comm_done, d,
                            "bytes=" + obs::jsonNum(device_halo));
                    flight_->event(r->id, "exec-start", base + exec_start,
                                   d,
                                   "stream=" + std::to_string(sb.stream));
                    if (d != gather_root)
                        flight_->event(r->id, "all-gather",
                                       base + final_done, d,
                                       "bytes=" + obs::jsonNum(out_bytes));
                    flight_->event(r->id, "completion", base + final_done,
                                   d,
                                   "latency_ms=" + obs::jsonNum(lat * 1e3));
                }
                report.perDeviceRequests[static_cast<std::size_t>(d)] +=
                    batches[b].size();
                report.batches += 1;
                report.requests += batches[b].size();
            }
            dev_end[static_cast<std::size_t>(d)] = device_end;
        }
    };

    // Wave 1 serves every alive device's own queue. After each wave,
    // failures that struck inside the cycle window so far fire (the
    // device is quarantined for the waves and cycles to come; phase 0
    // above handles failures already due at entry), and the batches the
    // wave lost replay on the survivors in another wave.
    serve_wave(queues_, pendingHostSec_, false);
    double t_fail_max = base;
    for (;;) {
        for (int d = 0; fi && d < group_.size(); ++d) {
            const double tf = fi->failureTimeSec(d);
            if (dead_[static_cast<std::size_t>(d)] || tf > base + cycle_end)
                continue;
            dead_[static_cast<std::size_t>(d)] = 1;
            fi->markFailed(d, tf);
            t_fail_max = std::max(t_fail_max, tf);
        }
        report.devicesFailed = group_.size() - aliveCount();
        if (lost.empty())
            break;
        if (aliveCount() == 0)
            throw std::runtime_error(
                "ShardedSession::drain: device failure with no "
                "survivors to replay on");

        // Route each lost request to a survivor through homeShard's
        // scoring, over the replay load alone with its own cap.
        std::vector<Lost> wave_lost;
        wave_lost.swap(lost);
        std::vector<std::vector<Request>> replay_q(
            static_cast<std::size_t>(group_.size()));
        const std::int64_t alive = aliveCount();
        const auto n_lost = static_cast<std::int64_t>(wave_lost.size());
        const std::int64_t rcap = (n_lost + alive - 1) / alive + 1;
        for (Lost &l : wave_lost) {
            const int best = pickShard(l.req.mb, replay_q, rcap, false);
            if (fi)
                fi->noteReroute(l.req.id, l.from, best, l.tFail);
            ++report.requestsRerouted;
            if (flight_)
                flight_->event(l.req.id, "reroute", l.tFail, best,
                               "from=" + std::to_string(l.from));
            replay_q[static_cast<std::size_t>(best)].push_back(
                std::move(l.req));
        }
        report.requestsReplayed += wave_lost.size();

        // A survivor starts once the last failure has happened and its
        // own earlier work is done; the lost requests' subgraph
        // structures re-send serialized on its PCIe lanes, and the dead
        // shards' feature rows re-gather from the host store
        // (host-fallback halo).
        std::vector<double> start(static_cast<std::size_t>(group_.size()),
                                  0.0);
        for (int s = 0; s < group_.size(); ++s) {
            double &t0 = start[static_cast<std::size_t>(s)];
            t0 = std::max(t_fail_max - base,
                          dev_end[static_cast<std::size_t>(s)]);
            for (const Request &r : replay_q[static_cast<std::size_t>(s)])
                t0 += sendStructure(r.mb, s);
        }
        serve_wave(replay_q, start, true);
    }

    group_.advanceTo(base + cycle_end);

    drain_span.arg("requests",
                   static_cast<std::uint64_t>(report.requests));
    drain_span.arg("devices", static_cast<std::uint64_t>(
                                  static_cast<unsigned>(group_.size())));
    drain_span.endAt(base + cycle_end);

    const double makespan_sec = cycle_end;
    report.makespanMs = makespan_sec * 1e3;
    report.throughputReqPerSec =
        makespan_sec > 0.0
            ? static_cast<double>(report.requests) / makespan_sec
            : 0.0;
    report.msPerRequest =
        report.requests
            ? report.makespanMs / static_cast<double>(report.requests)
            : 0.0;

    fillLatencyStats(report, latencies, queue_delays,
                     cfg_.serving.deadlineMs);

    report.haloBytes = halo_bytes;
    report.gatherBytes = gather_bytes;
    report.interconnectMs =
        (group_.interconnect().totalBusySec() - ic_busy_before) * 1e3;
    report.duplicationOverheadPct =
        primary_exec_sec > 0.0
            ? redundant_exec_sec / primary_exec_sec * 100.0
            : 0.0;
    fillCacheStats(report, cache_.stats());
    report.launches = group_.totalLaunches() - launches_before;
    if (fi && obs::enabled())
        absorbFaultStats(obs::metrics(), fi->stats(), "fault");

    for (auto &q : queues_)
        q.clear();
    std::fill(pendingHostSec_.begin(), pendingHostSec_.end(), 0.0);
    return report;
}

ShardBatch
ShardedSession::serveOldestOn(int device, std::size_t n, int stream)
{
    if (device < 0 || device >= group_.size())
        throw std::runtime_error("ShardedSession: device out of range");
    if (dead_[static_cast<std::size_t>(device)])
        throw std::runtime_error(
            "ShardedSession::serveOldestOn: device is quarantined");
    ShardBatch out;
    out.device = device;
    auto &q = queues_[static_cast<std::size_t>(device)];
    n = std::min(n, q.size());
    if (n == 0)
        return out;
    out.cost.requests = n;
    out.cost.servedIds.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        out.cost.servedIds.push_back(q[i].id);
    if (flight_)
        for (std::size_t i = 0; i < n; ++i)
            flight_->event(q[i].id, "batch-join", group_.nowSec(),
                           device,
                           "size=" + std::to_string(n) +
                               " stream=" + std::to_string(stream));

    const auto plan = compiledPlan();

    std::vector<const Request *> reqs;
    reqs.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        reqs.push_back(&q[i]);
    out.haloBytesByOwner =
        batchHaloBytes(reqs, device, &out.hostFallbackBytes);
    const double dout_bytes =
        static_cast<double>(cfg_.serving.dout) * sizeof(float);
    if (device != root())
        for (const Request *r : reqs)
            out.gatherBytes += static_cast<double>(
                                   r->mb.subgraph.numNodes()) *
                               dout_bytes;

    // ASPIS guard, same semantics as drain(). All runs serialize on
    // this stream, so their cost folds into the batch's cost the
    // online layer charges.
    sim::Runtime &rt = group_.device(device);
    std::vector<Tensor> outs;
    const GuardedBatch g = guardBatch(
        group_.faultInjector(), device, group_.nowSec(),
        sampleDuplicate(cfg_.serving.duplicationFraction * dupScale_,
                        dupAccum_),
        outs, [&](std::vector<Tensor> &dst) {
            const StreamRunCost run = runOnStream(rt, stream, [&]() {
                auto scope = rt.memoryScope();
                dst = runBatch(*plan, reqs, device);
            });
            out.cost.execSec += run.execSec;
            out.cost.overheadSec += run.overheadSec;
        });
    if (g.detected && flight_)
        for (const Request *r : reqs)
            flight_->event(r->id, "replay", group_.nowSec(), device,
                           "why=transient");
    {
        tensor::TrackerScope untracked(nullptr);
        for (std::size_t i = 0; i < n; ++i)
            results_.insert_or_assign(q[i].id, outs[i].clone());
    }
    popOldest(device, n);
    return out;
}

void
ShardedSession::popOldest(int device, std::size_t n)
{
    // Rebase this device's transfer bookkeeping exactly like
    // ServingSession::serveOldest: the popped requests' cumulative
    // transfer time leaves this submit epoch with them, so a later
    // drain() only charges the transfers of the requests it actually
    // serves. submitSec is non-decreasing along the queue, so the
    // remaining entries stay non-negative.
    auto &q = queues_[static_cast<std::size_t>(device)];
    const double served_host_sec = q[n - 1].submitSec;
    q.erase(q.begin(), q.begin() + static_cast<std::ptrdiff_t>(n));
    double &pending = pendingHostSec_[static_cast<std::size_t>(device)];
    pending = std::max(0.0, pending - served_host_sec);
    for (Request &r : q)
        r.submitSec = std::max(0.0, r.submitSec - served_host_sec);
}

std::vector<std::uint64_t>
ShardedSession::dropOldestOn(int device, std::size_t n)
{
    if (device < 0 || device >= group_.size())
        throw std::runtime_error("ShardedSession: device out of range");
    auto &q = queues_[static_cast<std::size_t>(device)];
    n = std::min(n, q.size());
    std::vector<std::uint64_t> ids;
    if (n == 0)
        return ids;
    ids.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        ids.push_back(q[i].id);
    // The cancelled requests' submit transfers already happened and
    // leave with them.
    popOldest(device, n);
    return ids;
}

bool
ShardedSession::dropQueued(std::uint64_t id)
{
    for (auto &q : queues_)
        for (auto it = q.begin(); it != q.end(); ++it)
            if (it->id == id) {
                q.erase(it);
                return true;
            }
    return false;
}

ShardBatch
ShardedSession::hedgeOldestOn(int from, int to, int stream)
{
    if (from < 0 || from >= group_.size() || to < 0 ||
        to >= group_.size())
        throw std::runtime_error("ShardedSession: device out of range");
    if (dead_[static_cast<std::size_t>(to)])
        throw std::runtime_error(
            "ShardedSession::hedgeOldestOn: backup device is "
            "quarantined");
    ShardBatch out;
    out.device = to;
    auto &q = queues_[static_cast<std::size_t>(from)];
    if (q.empty())
        return out;
    Request &head = q.front();
    out.cost.requests = 1;
    out.cost.servedIds.push_back(head.id);
    if (flight_)
        flight_->event(head.id, "hedge-exec", group_.nowSec(), to,
                       "from=" + std::to_string(from) +
                           " stream=" + std::to_string(stream));

    const auto plan = compiledPlan();
    std::vector<const Request *> reqs{&head};

    // The backup copy's subgraph structure re-sends over the backup
    // device's PCIe lanes (the primary's resident copy is elsewhere),
    // like a quarantine re-route; charged as batch overhead, not as a
    // queued submit — the hedge never joins a queue.
    sim::Runtime &rt = group_.device(to);
    const double transfer = sendStructure(head.mb, to);

    out.haloBytesByOwner =
        batchHaloBytes(reqs, to, &out.hostFallbackBytes);
    if (to != root())
        out.gatherBytes += static_cast<double>(
                               head.mb.subgraph.numNodes()) *
                           static_cast<double>(cfg_.serving.dout) *
                           sizeof(float);

    std::vector<Tensor> outs;
    const StreamRunCost run = runOnStream(rt, stream, [&]() {
        auto scope = rt.memoryScope();
        outs = runBatch(*plan, reqs, to);
    });
    out.cost.execSec = run.execSec;
    out.cost.overheadSec = run.overheadSec + transfer;
    // No ASPIS sandwich and no result store: the hedge IS the backup
    // path, and the primary copy stays authoritative for outputs.
    return out;
}

const Tensor *
ShardedSession::result(std::uint64_t id) const
{
    auto it = results_.find(id);
    return it == results_.end() ? nullptr : &it->second;
}

} // namespace hector::serve
