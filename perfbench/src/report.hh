/**
 * @file
 * Reporting helpers: guarded percentiles, the host fingerprint, and
 * the result line the benchmark prints last.
 */
#ifndef VREX_PERFBENCH_REPORT_HH
#define VREX_PERFBENCH_REPORT_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace perfbench
{

/** Tail percentiles must have at least this many samples beyond
 *  them, or the benchmark refuses to publish them. */
inline constexpr uint64_t kMinTailSamples = 10;

/** Nearest-rank percentile @p q of @p values; nullopt when fewer than
 *  kMinTailSamples samples lie beyond it (q > 0.5 only) or there are
 *  no samples at all. */
std::optional<double> guardedPercentile(std::vector<double> values,
                                        double q);

/** Samples strictly beyond the nearest-rank percentile @p q. */
uint64_t samplesBeyond(size_t n, double q);

/** One named metric with its unit. */
struct Metric
{
    std::string name;
    std::string unit;
    double value = 0.0;
    /** Samples behind a percentile or median, frames or tokens
     *  behind a rate (0 = none). */
    uint64_t samples = 0;
    /** Computed from tensor sizes rather than measured. */
    bool computed = false;
};

/** CPU model, nproc, L2/L3, compiler and active DRE kernel ISA. */
std::string hostFingerprint();

/** ru_maxrss of this process, MiB. */
double peakRssMiB();

/** Print each metric as a human-readable report line. */
void printMetrics(const std::string &title,
                  const std::vector<Metric> &metrics);

/** The last stdout line: {"correct", "attempted", "failed",
 *  "metrics": {name: {"value", "unit"}}}. */
void printResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric> &metrics);

} // namespace perfbench

#endif // VREX_PERFBENCH_REPORT_HH
