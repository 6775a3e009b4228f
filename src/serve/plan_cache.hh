/**
 * @file
 * Compiled-plan cache for the serving runtime.
 *
 * compile() is graph-independent (the paper's compile-once /
 * execute-anywhere property), so a serving system only ever needs one
 * compilation per (model source, compile options, graph schema). The
 * cache memoizes CompiledModels under exactly that key: a hit skips
 * parsing, every inter-operator pass, lowering, and code generation,
 * and returns the very same plan object, so cached execution is
 * bit-identical to a fresh compile. Pass work actually performed is
 * accumulated in Stats::passWork, which is how tests assert that a
 * hit performs zero pass work.
 *
 * Multi-tenant serving (serve::Engine) keeps many plans resident at
 * once, so the cache is byte-budgeted: every entry carries a modeled
 * resident cost (generated plan + packed arena + variant weights, as
 * priced by the caller's CompileFn) and, when a budget is set,
 * least-recently-used unpinned entries are evicted until the resident
 * total fits. A plan is pinned while in flight — the cache never drops
 * an entry some caller still holds a shared_ptr to — and the entry
 * being inserted or hit is never the eviction victim. Stats separate
 * first-time `misses` from `recompiles` (misses of keys that were
 * compiled before and evicted since), so a hot working set that fits
 * its budget provably never recompiles.
 */

#ifndef HECTOR_SERVE_PLAN_CACHE_HH
#define HECTOR_SERVE_PLAN_CACHE_HH

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "core/compiler.hh"
#include "graph/hetero_graph.hh"

namespace hector::obs
{
class Registry;
}

namespace hector::serve
{

/** Everything a compiled plan depends on. */
struct PlanKey
{
    /** Model definition in the textual inter-operator DSL. */
    std::string modelSource;
    std::int64_t din = 0;
    std::int64_t dout = 0;
    core::CompileOptions options;
    /** HeteroGraph::schemaSignature() of the graphs to serve. */
    std::string graphSchema;
    /**
     * Cache scope ("" = shared). The engine scopes keys by variant
     * name: two tenants registering the same model under the same
     * options still compile, price (weights differ) and autotune
     * independently, so an eviction can never swap one variant's plan
     * for another's compile closure.
     */
    std::string scope;

    /** Canonical string form (the cache's hash key). */
    std::string canonical() const;
};

/** Build a PlanKey for serving @p g with @p source under @p options. */
PlanKey makePlanKey(const std::string &source, std::int64_t din,
                    std::int64_t dout, const core::CompileOptions &options,
                    const graph::HeteroGraph &g);

/**
 * ASPIS-style integrity signature of a compiled plan: an FNV-1a
 * fingerprint of the generated sources. Recorded when a plan enters
 * the cache and re-verified on every hit, so a plan corrupted while
 * resident is caught before it serves a request (the same
 * signature-compare idea the redundant-execution path applies to
 * outputs).
 */
std::uint64_t planSignature(const core::CompiledModel &plan);

/** Memoizes core::compile() results; single-threaded like the sim. */
class PlanCache
{
  public:
    struct Stats
    {
        std::uint64_t hits = 0;
        /** First-time misses: the key was never compiled before. */
        std::uint64_t misses = 0;
        /** Misses of previously compiled keys (evicted since), i.e.
         *  recompiles forced by the byte budget. */
        std::uint64_t recompiles = 0;
        /** Entries dropped by the LRU eviction policy. */
        std::uint64_t evictions = 0;
        /** Modeled bytes of the currently resident plans. */
        std::size_t residentBytes = 0;
        /** Plan-signature verifications performed (one per hit). */
        std::uint64_t signatureChecks = 0;
        /** Resident plans whose recomputed signature no longer matched
         *  the one recorded at insert (in-memory corruption); the
         *  entry is discarded and recompiled. */
        std::uint64_t signatureMismatches = 0;
        /** Pass work actually performed (misses + recompiles). */
        core::PassStats passWork;
    };

    /**
     * Result of a caller-supplied compilation: the plan, its modeled
     * resident cost, and an optional autotuned-schedule key recorded
     * for observability (scheduleKeyOf).
     */
    struct Compiled
    {
        std::shared_ptr<const core::CompiledModel> plan;
        /** Modeled resident bytes (plan + arena + weights); 0 means
         *  "derive from the generated code alone". */
        std::size_t costBytes = 0;
        std::string scheduleKey;
    };

    /** Produces the plan on a miss (serve::PlanCompiler is the
     *  engine's implementation; the default parses + compiles the key
     *  verbatim). */
    using CompileFn = std::function<Compiled()>;

    /** @param budget_bytes resident-byte budget; 0 = unbounded. */
    explicit PlanCache(std::size_t budget_bytes = 0)
        : budgetBytes_(budget_bytes)
    {}

    /**
     * Return the plan for @p key, compiling it on first use. The
     * returned pointer is shared with the cache: repeated calls with
     * an equal key return the same object (until the entry is evicted
     * and recompiled, in which case the recompile must be
     * deterministic — same key, same CompileFn inputs — so the new
     * object is semantically identical).
     */
    std::shared_ptr<const core::CompiledModel> get(const PlanKey &key);

    /** get() with a caller-supplied compilation (autotuned schedules,
     *  modeled plan cost). @p compile runs only on a miss. */
    std::shared_ptr<const core::CompiledModel> get(const PlanKey &key,
                                                   const CompileFn &compile);

    /** Change the budget; evicts immediately if the residents no
     *  longer fit (0 = unbounded). */
    void setBudgetBytes(std::size_t budget_bytes);

    /** Re-apply the budget now. Callers that pinned plans across a
     *  serving cycle invoke this after releasing them, so
     *  residentBytes is bounded at every cycle boundary. */
    void enforceBudget() { enforceBudget(std::string()); }
    std::size_t budgetBytes() const { return budgetBytes_; }

    /** Modeled resident bytes of @p key's entry; 0 when not resident. */
    std::size_t costOf(const PlanKey &key) const;

    /** Schedule key recorded for @p key; "" when not resident or the
     *  compile recorded none. */
    std::string scheduleKeyOf(const PlanKey &key) const;

    /** Signature recorded for @p key at insert; 0 when not resident. */
    std::uint64_t signatureOf(const PlanKey &key) const;

    /**
     * Fault-injection seam for the signature check: flip one byte of
     * @p key's resident generated code, simulating in-memory plan
     * corruption. The next get() of the key recomputes the signature,
     * counts the mismatch, discards the entry and recompiles. Returns
     * false when the key is not resident. Test-only by design — the
     * one place the cache mutates a plan.
     */
    bool tamperForTest(const PlanKey &key);

    const Stats &stats() const { return stats_; }
    std::size_t size() const { return plans_.size(); }
    void clear();

  private:
    struct Entry
    {
        std::shared_ptr<const core::CompiledModel> plan;
        std::size_t costBytes = 0;
        std::string scheduleKey;
        /** planSignature() at insert, verified on every hit. */
        std::uint64_t signature = 0;
        /** Position in lru_ (front = most recently used). */
        std::list<std::string>::iterator lruIt;
    };

    /** Evict LRU unpinned entries (never @p keep) until the budget
     *  holds or nothing is evictable. */
    void enforceBudget(const std::string &keep);

    std::size_t budgetBytes_ = 0;
    std::unordered_map<std::string, Entry> plans_;
    /** Recency order, front = most recently used. */
    std::list<std::string> lru_;
    /** Every key ever compiled, to tell recompiles from misses. */
    std::unordered_set<std::string> everCompiled_;
    Stats stats_;
};

/**
 * Absorb a PlanCache stat snapshot into the obs metrics registry
 * under @p prefix (e.g. "plan_cache"): the registry's snapshotJson()
 * supersedes the ad-hoc per-bench cache stat plumbing. Gauges are
 * overwritten, so repeated absorption of the same cache is idempotent.
 */
void absorbStats(obs::Registry &reg, const PlanCache::Stats &stats,
                 const std::string &prefix);

} // namespace hector::serve

#endif // HECTOR_SERVE_PLAN_CACHE_HH
