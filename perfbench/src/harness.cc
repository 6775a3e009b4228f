#include "harness.hh"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <stdexcept>

namespace perfbench
{

double
nearestRank(const std::vector<double> &sorted, double q)
{
    if (sorted.empty())
        return 0.0;
    q = std::min(1.0, std::max(0.0, q));
    const double rank = std::ceil(q * static_cast<double>(sorted.size()));
    const std::size_t idx =
        rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
    return sorted[std::min(idx, sorted.size() - 1)];
}

double
median(std::vector<double> samples)
{
    std::sort(samples.begin(), samples.end());
    return nearestRank(samples, 0.5);
}

Tail
tailOf(std::vector<double> samples)
{
    Tail t;
    t.samples = samples.size();
    if (samples.empty())
        return t;
    std::sort(samples.begin(), samples.end());
    const std::size_t n = samples.size();
    if (n < 2 * kTailBeyond) {
        t.value = nearestRank(samples, 0.5);
        return t;
    }
    // Rank n - 10 (1-based) leaves exactly ten samples above it.
    t.value = samples[n - kTailBeyond - 1];
    t.percentile = 100.0 * static_cast<double>(n - kTailBeyond) /
                   static_cast<double>(n);
    return t;
}

WindowedTail
windowedTail(const std::vector<double> &samples)
{
    const std::size_t w =
        std::max<std::size_t>(1, samples.size() / kTailWindowSamples);
    std::vector<Tail> tails;
    for (std::size_t i = 0; i < w; ++i) {
        const std::size_t lo = i * samples.size() / w;
        const std::size_t hi = (i + 1) * samples.size() / w;
        tails.push_back(tailOf(std::vector<double>(
            samples.begin() + static_cast<std::ptrdiff_t>(lo),
            samples.begin() + static_cast<std::ptrdiff_t>(hi))));
    }
    std::sort(tails.begin(), tails.end(),
              [](const Tail &a, const Tail &b) { return a.value < b.value; });
    // Nearest-rank median window, as median() reads it.
    WindowedTail out;
    static_cast<Tail &>(out) = tails[(tails.size() + 1) / 2 - 1];
    out.windows = w;
    return out;
}

double
throughputOf(const std::vector<Chunk> &chunks)
{
    double ops = 0.0;
    double ms = 0.0;
    for (const Chunk &c : chunks) {
        ops += c.ops;
        ms += c.wallMs;
    }
    return ms > 0.0 ? ops / (ms * 1e-3) : 0.0;
}

double
epochThroughput(const std::vector<Chunk> &chunks, std::size_t per_epoch)
{
    if (per_epoch == 0 || chunks.size() <= per_epoch)
        return throughputOf(chunks);
    std::vector<double> epochs;
    for (std::size_t i = 0; i < chunks.size(); i += per_epoch)
        epochs.push_back(throughputOf(std::vector<Chunk>(
            chunks.begin() + static_cast<std::ptrdiff_t>(i),
            chunks.begin() + static_cast<std::ptrdiff_t>(
                                 std::min(chunks.size(), i + per_epoch)))));
    return median(epochs);
}

std::uint64_t
digestBytes(const void *data, std::size_t n, std::uint64_t h)
{
    const auto *bytes = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < n; ++i) {
        h ^= bytes[i];
        h *= 1099511628211ull;
    }
    return h;
}

// ------------------------------------------------------------------ SpanLog

int
SpanLog::layer(const std::string &name)
{
    for (std::size_t i = 0; i < names_.size(); ++i)
        if (names_[i] == name)
            return static_cast<int>(i);
    names_.push_back(name);
    return static_cast<int>(names_.size()) - 1;
}

double
SpanLog::totalMs(const std::string &name) const
{
    double total = 0.0;
    for (std::size_t i = 0; i < names_.size(); ++i) {
        if (names_[i] != name)
            continue;
        for (const Span &s : spans_)
            if (s.layer == static_cast<int>(i))
                total += s.endMs - s.startMs;
    }
    return total;
}

std::size_t
SpanLog::calls(const std::string &name) const
{
    std::size_t n = 0;
    for (std::size_t i = 0; i < names_.size(); ++i) {
        if (names_[i] != name)
            continue;
        for (const Span &s : spans_)
            if (s.layer == static_cast<int>(i))
                ++n;
    }
    return n;
}

double
SpanLog::meanMs(const std::string &name) const
{
    const std::size_t n = calls(name);
    return n ? totalMs(name) / static_cast<double>(n) : 0.0;
}

double
SpanLog::allMs() const
{
    double total = 0.0;
    for (const Span &s : spans_)
        total += s.endMs - s.startMs;
    return total;
}

// ---------------------------------------------------------------- MetricSet

void
MetricSet::set(const std::string &name, double value,
               const std::string &unit, Clock clock, bool deterministic,
               const std::string &note)
{
    Metric &m = metrics_[name];
    m.value = value;
    m.unit = unit;
    m.clock = clock;
    m.deterministic = deterministic;
    m.note = note;
}

bool
MetricSet::has(const std::string &name) const
{
    return metrics_.count(name) != 0;
}

const MetricSet::Metric &
MetricSet::at(const std::string &name) const
{
    auto it = metrics_.find(name);
    if (it == metrics_.end())
        throw std::out_of_range("perfbench: no metric " + name);
    return it->second;
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "0";
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
MetricSet::metricsJson() const
{
    std::string out = "{";
    bool first = true;
    for (const auto &[name, m] : metrics_) {
        if (!first)
            out += ", ";
        first = false;
        out += jsonString(name) + ": {\"value\": " + jsonNumber(m.value) +
               ", \"unit\": " + jsonString(m.unit) + "}";
    }
    return out + "}";
}

std::string
MetricSet::deterministicJson() const
{
    std::string out = "{";
    bool first = true;
    for (const auto &[name, m] : metrics_) {
        if (!m.deterministic)
            continue;
        if (!first)
            out += ", ";
        first = false;
        out += jsonString(name) + ": " + jsonNumber(m.value);
    }
    return out + "}";
}

std::string
MetricSet::table() const
{
    std::string out;
    char buf[512];
    for (const auto &[name, m] : metrics_) {
        const char *clock = m.clock == Clock::Wall      ? "wall"
                            : m.clock == Clock::Modeled ? "modeled"
                                                        : "count";
        std::snprintf(buf, sizeof(buf), "  %-30s %16.6g %-9s %-8s %s\n",
                      name.c_str(), m.value, m.unit.c_str(), clock,
                      m.note.c_str());
        out += buf;
    }
    return out;
}

double
peakRssMiB()
{
    struct rusage ru;
    std::memset(&ru, 0, sizeof(ru));
    if (getrusage(RUSAGE_SELF, &ru) != 0)
        return 0.0;
    // Linux reports ru_maxrss in KiB.
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

} // namespace perfbench
