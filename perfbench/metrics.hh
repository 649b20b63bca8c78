/**
 * @file
 * Reporting helpers of the benchmark: percentiles that refuse to
 * report a tail they have too few samples for, ratios printed with
 * their base, and the metric catalogue shared by the JSON result line
 * and `--list-metrics`.
 */

#ifndef PERFBENCH_METRICS_HH
#define PERFBENCH_METRICS_HH

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace gpufs {
namespace perfbench {

/** A percentile is reported only with at least this many samples
 *  strictly above its rank (so a p99 needs >= 1000 samples). */
constexpr uint64_t kMinTailSamples = 10;

/** Samples needed to report percentile @p permille (e.g. 990 = p99). */
inline uint64_t
samplesNeeded(unsigned permille)
{
    // Smallest n with n - ceil(n * q) >= kMinTailSamples.
    for (uint64_t n = 1;; ++n) {
        uint64_t rank = (permille * n + 999) / 1000;
        if (n - rank >= kMinTailSamples)
            return n;
    }
}

/**
 * Nearest-rank percentile of ascending @p sorted, @p permille in
 * (0, 1000). @return false, leaving *out alone, when fewer than
 * kMinTailSamples samples lie beyond the percentile's rank.
 */
template <typename T>
bool
percentile(const std::vector<T> &sorted, unsigned permille, double *out)
{
    uint64_t n = sorted.size();
    uint64_t rank = (permille * n + 999) / 1000;    // 1-based, ceil
    if (n == 0 || rank == 0 || n - rank < kMinTailSamples)
        return false;
    *out = static_cast<double>(sorted[rank - 1]);
    return true;
}

/** "p99 3821.1 us (n=45678)", or "p99 n/a (n=53, needs >= 1000)". */
template <typename T>
std::string
formatPercentile(const std::vector<T> &sorted, unsigned permille,
                 double scale, const char *unit)
{
    char buf[128];
    double v = 0;
    char label[16];
    if (permille % 10 == 0)
        std::snprintf(label, sizeof(label), "p%u", permille / 10);
    else
        std::snprintf(label, sizeof(label), "p%.1f", permille / 10.0);
    if (percentile(sorted, permille, &v)) {
        std::snprintf(buf, sizeof(buf), "%s %.4g %s (n=%zu)", label,
                      v * scale, unit, sorted.size());
    } else {
        std::snprintf(buf, sizeof(buf), "%s n/a (n=%zu, needs >= %llu)",
                      label, sorted.size(),
                      static_cast<unsigned long long>(
                          samplesNeeded(permille)));
    }
    return buf;
}

/** A ratio that always travels with its base. */
struct Ratio {
    double num = 0;
    double den = 0;

    /** num / den, or 0 when the base is empty. */
    double value() const { return den > 0 ? num / den : 0.0; }

    /** "0.8300 (415/500)". */
    std::string
    str() const
    {
        char buf[96];
        std::snprintf(buf, sizeof(buf), "%.4f (%.0f/%.0f)", value(), num,
                      den);
        return buf;
    }
};

/** Direction in which a metric improves. */
enum class Better { Higher, Lower };

/** One entry of the metric catalogue (mirrors BENCHMARK.json). */
struct MetricSpec {
    const char *name;
    const char *unit;
    Better better;
    /** Which clock the value is read from ("virtual", "host", "-"). */
    const char *clock;
    /** End-to-end metric (and workload) the layer metric should move;
     *  empty for end-to-end metrics. */
    const char *moves;
};

/** End-to-end metrics, printed by every untraced run. */
const std::vector<MetricSpec> &endToEndMetrics();
/** Per-layer metrics, printed by every traced run. */
const std::vector<MetricSpec> &perLayerMetrics();

/** Format a double as a JSON number with all its digits. */
inline std::string
jsonNumber(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

} // namespace perfbench
} // namespace gpufs

#endif // PERFBENCH_METRICS_HH
