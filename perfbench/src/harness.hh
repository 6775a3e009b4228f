/**
 * @file
 * Measurement helpers of the repository benchmark: the tail-percentile
 * rule, op accounting, windowed throughput, output digests, the
 * in-memory span log of the traced run, and the metric table that ends
 * in the one-line JSON result.
 */

#ifndef PERFBENCH_HARNESS_HH
#define PERFBENCH_HARNESS_HH

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench
{

/** Host wall clock in milliseconds (steady_clock). */
inline double
nowMs()
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Nearest-rank quantile of an ascending-sorted sample, q in [0, 1];
 *  0 on an empty sample. */
double nearestRank(const std::vector<double> &sorted, double q);

/** Median (nearest rank) of an unsorted sample. */
double median(std::vector<double> samples);

/**
 * The tail percentile a sample supports: the highest percentile with
 * at least kTailBeyond samples beyond it, i.e. q = 1 - 10 / n read at
 * nearest rank, so exactly ten samples lie above the reported rank.
 * Samples too small to leave ten beyond the median report the median
 * (q = 0.5).
 */
struct Tail
{
    double value = 0.0;
    /** The percentile reported, in [50, 100). */
    double percentile = 50.0;
    std::size_t samples = 0;
};
constexpr std::size_t kTailBeyond = 10;
Tail tailOf(std::vector<double> samples);

/**
 * The tail of a run of any length, read at a fixed window length so
 * that its percentile does not climb with the run and one stall of a
 * shared host does not decide it: the samples (in time order) are split
 * into consecutive windows of at least kTailWindowSamples each, and the
 * median of the windows' tailOf() values is reported. Tail::samples is
 * then the per-window sample count and Tail::windows the window count.
 */
constexpr std::size_t kTailWindowSamples = 1000;
struct WindowedTail : Tail
{
    std::size_t windows = 1;
};
WindowedTail windowedTail(const std::vector<double> &samples);

/**
 * Ops attempted and failed. An op fails when it throws, when its
 * output differs from the seed interpreter, or when the serving layer
 * sheds, times out or fails it.
 */
struct OpCount
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    void
    add(std::uint64_t ops, std::uint64_t failed_ops)
    {
        attempted += ops;
        failed += failed_ops;
    }
    void
    add(const OpCount &o)
    {
        add(o.attempted, o.failed);
    }
};

/** One timed unit of a phase: ops it completed and its wall time. */
struct Chunk
{
    double ops = 0.0;
    double wallMs = 0.0;
};

/**
 * Ops per second of the timed units: all their ops over all their wall
 * time (0 when none was measured). A whole-run mean rather than a
 * median of windows: a shared host's speed changes in spells of about
 * a second, and the mean over a run's dozen spells varies less between
 * runs (README.md).
 */
double throughputOf(const std::vector<Chunk> &chunks);

/**
 * Throughput of a phase run in epochs of @p per_epoch units: the
 * median (nearest rank) of each epoch's throughputOf(), so one epoch
 * that a shared host slowed does not move the result. A trailing
 * partial epoch counts as one; 0 makes the whole phase one epoch.
 */
double epochThroughput(const std::vector<Chunk> &chunks,
                       std::size_t per_epoch);

/** FNV-1a 64 over @p n raw bytes, continuing @p h. */
std::uint64_t digestBytes(const void *data, std::size_t n,
                          std::uint64_t h = 0xcbf29ce484222325ull);

/**
 * Wall-clock spans of the traced run, kept in memory until exit.
 * Each span is one timed call into a layer's public function.
 */
class SpanLog
{
  public:
    struct Span
    {
        int layer = 0;
        double startMs = 0.0;
        double endMs = 0.0;
    };

    /** Id of @p layer's name (registered on first use). */
    int layer(const std::string &name);
    void
    record(int layer, double start_ms, double end_ms)
    {
        spans_.push_back({layer, start_ms, end_ms});
    }
    /** Total and count of the spans of @p name (0 when none). */
    double totalMs(const std::string &name) const;
    std::size_t calls(const std::string &name) const;
    /** Mean ms per call of @p name; 0 when never called. */
    double meanMs(const std::string &name) const;
    /** Summed duration of every span. */
    double allMs() const;

  private:
    std::vector<std::string> names_;
    std::vector<Span> spans_;
};

/** RAII span: times the enclosing scope into @p log (nullptr: off). */
class ScopedSpan
{
  public:
    ScopedSpan(SpanLog *log, int layer)
        : log_(log), layer_(layer), start_(log ? nowMs() : 0.0)
    {}
    ~ScopedSpan()
    {
        if (log_)
            log_->record(layer_, start_, nowMs());
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    SpanLog *log_;
    int layer_;
    double start_;
};

/** Which clock a metric was read from. */
enum class Clock
{
    Wall,
    Modeled,
    Count,
};

/**
 * The metrics of one run, printed as a labelled table and as the
 * final JSON line. Deterministic metrics (modeled values and counts)
 * are also printed at full precision so repeated runs can be diffed.
 */
class MetricSet
{
  public:
    struct Metric
    {
        double value = 0.0;
        std::string unit;
        Clock clock = Clock::Wall;
        bool deterministic = false;
        /** Why the value is absent or how it was read. */
        std::string note;
    };

    void set(const std::string &name, double value,
             const std::string &unit, Clock clock,
             bool deterministic = false, const std::string &note = "");
    bool has(const std::string &name) const;
    const Metric &at(const std::string &name) const;
    const std::map<std::string, Metric> &
    all() const
    {
        return metrics_;
    }

    /** `{"name": {"value": v, "unit": u}, ...}` at full precision. */
    std::string metricsJson() const;
    /** `{"name": v, ...}` of the deterministic metrics only. */
    std::string deterministicJson() const;
    /** Human-readable table: name, value, unit, clock, note. */
    std::string table() const;

  private:
    std::map<std::string, Metric> metrics_;
};

/** Full-precision JSON number (NaN and infinities print as 0). */
std::string jsonNumber(double v);
/** JSON string literal with the minimal escapes. */
std::string jsonString(const std::string &s);

/** Peak resident set of this process so far, MiB (getrusage). */
double peakRssMiB();

} // namespace perfbench

#endif // PERFBENCH_HARNESS_HH
