#include "report.hh"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <sched.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "core/kernels.hh"

namespace perfbench
{

namespace
{

std::string
cpuModel()
{
#if defined(__x86_64__) || defined(__i386__)
    unsigned regs[12] = {};
    unsigned max_ext = __get_cpuid_max(0x80000000u, nullptr);
    if (max_ext >= 0x80000004u) {
        for (unsigned i = 0; i < 3; ++i)
            __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                        &regs[4 * i + 2], &regs[4 * i + 3]);
        char brand[49] = {};
        std::memcpy(brand, regs, 48);
        std::string s(brand);
        s.erase(0, s.find_first_not_of(' '));
        return s;
    }
#endif
    return "unknown";
}

std::string
cacheKiB(int name)
{
    const long bytes = sysconf(name);
    return bytes > 0 ? std::to_string(bytes / 1024) + "KiB" : "unknown";
}

/** JSON-safe copy: drop quotes, backslashes and control bytes. */
std::string
jsonSafe(const std::string &s)
{
    std::string out;
    for (char c : s)
        if (c != '"' && c != '\\' && static_cast<unsigned char>(c) >= 0x20)
            out += c;
    return out;
}

} // namespace

uint64_t
samplesBeyond(size_t n, double q)
{
    const auto rank = static_cast<size_t>(std::ceil(q * n));
    return n - std::min(n, rank);
}

std::optional<double>
guardedPercentile(std::vector<double> values, double q)
{
    const size_t n = values.size();
    if (n == 0 || (q > 0.5 && samplesBeyond(n, q) < kMinTailSamples))
        return std::nullopt;
    const size_t rank =
        std::max<size_t>(1, static_cast<size_t>(std::ceil(q * n)));
    std::nth_element(values.begin(), values.begin() + (rank - 1),
                     values.end());
    return values[rank - 1];
}

std::string
hostFingerprint()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    const int nproc =
        sched_getaffinity(0, sizeof(set), &set) == 0 ? CPU_COUNT(&set)
                                                     : 0;
#if defined(__clang__)
    const std::string compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
    const std::string compiler = "gcc " __VERSION__;
#else
    const std::string compiler = "unknown";
#endif
    return "cpu=\"" + jsonSafe(cpuModel()) +
           "\" nproc=" + std::to_string(nproc) +
           " l2=" + cacheKiB(_SC_LEVEL2_CACHE_SIZE) +
           " l3=" + cacheKiB(_SC_LEVEL3_CACHE_SIZE) + " compiler=\"" +
           jsonSafe(compiler) + "\" dre_isa=" +
           vrex::kernels::isaName(vrex::kernels::activeIsa());
}

double
peakRssMiB()
{
    rusage u{};
    getrusage(RUSAGE_SELF, &u);
    return static_cast<double>(u.ru_maxrss) / 1024.0;
}

void
printMetrics(const std::string &title, const std::vector<Metric> &metrics)
{
    std::printf("[%s]\n", title.c_str());
    for (const Metric &m : metrics) {
        std::printf("  %-36s %14.6g %-6s", m.name.c_str(), m.value,
                    m.unit.c_str());
        if (m.samples)
            std::printf("  (n=%llu)",
                        static_cast<unsigned long long>(m.samples));
        if (m.computed)
            std::printf("  (computed from tensor sizes)");
        std::printf("\n");
    }
}

void
printResult(bool correct, uint64_t attempted, uint64_t failed,
            const std::vector<Metric> &metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (size_t i = 0; i < metrics.size(); ++i) {
        const double v = std::isfinite(metrics[i].value)
                             ? metrics[i].value
                             : 0.0;
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(), v,
                    metrics[i].unit.c_str());
    }
    std::printf("}}\n");
    std::fflush(stdout);
}

} // namespace perfbench
