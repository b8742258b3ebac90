/**
 * @file
 * Micro-benchmarks of the DRE kernels behind the runtime dispatch
 * layer (core/kernels): XOR+popcount Hamming, hash-bit encoding,
 * WiCSum min/max + bucket-membership scan — the software-side
 * counterparts of the HCU and WTU — plus a continuity panel for the
 * surrounding operations (cosine similarity, HC-table insert, the
 * reference WiCSum sort).
 *
 * Unlike the figure/table harnesses, the ns/op numbers here are host
 * wall-clock timings, so they are excluded from the figure drift gate
 * (`bench/baseline.json`). Instead every kernel row reports the
 * scalar-vs-dispatched `speedup` ratio — machine-relative and far
 * more stable — and the warn-only `perf` gate of bench/gates.json
 * floor-gates those ratios against `bench/perf_baseline.json` (see
 * bench/README.md: rows with a measured speedup >= 2x get a floor at
 * half the measured value; everything else is recorded as `info`).
 *
 *   micro_core [--json PATH] [--csv PATH] [--quiet]
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "common/bench_report.hh"
#include "common/bits.hh"
#include "common/rng.hh"
#include "core/hash_encoder.hh"
#include "core/hc_table.hh"
#include "core/kernels.hh"
#include "core/wicsum.hh"
#include "tensor/ops.hh"

using namespace vrex;

namespace
{

/** Optimization sinks: every measured op feeds one of these. */
volatile uint64_t sinkU64 = 0;
volatile float sinkF32 = 0.0f;

/**
 * Best-of-3 ns per call of @p fn: batch size is calibrated until one
 * batch takes >= 1 ms, then the fastest of three batches wins (the
 * usual min-of-reps defense against scheduler noise).
 */
template <typename Fn>
double
nsPerOp(Fn &&fn)
{
    using Clock = std::chrono::steady_clock;
    auto batchNs = [&](uint64_t iters) {
        const auto t0 = Clock::now();
        for (uint64_t i = 0; i < iters; ++i)
            fn();
        return std::chrono::duration<double, std::nano>(
                   Clock::now() - t0)
            .count();
    };
    fn();  // Warm caches and the dispatch table.
    uint64_t iters = 1;
    while (batchNs(iters) < 1e6 && iters < (1ull << 28))
        iters *= 2;
    double best = batchNs(iters);
    for (int rep = 0; rep < 2; ++rep)
        best = std::min(best, batchNs(iters));
    return best / static_cast<double>(iters);
}

/** Non-scalar ISAs usable on this build + CPU. */
std::vector<kernels::Isa>
simdIsas()
{
    std::vector<kernels::Isa> out;
    for (kernels::Isa isa : kernels::compiledIsas()) {
        if (isa != kernels::Isa::Scalar && kernels::isaAvailable(isa))
            out.push_back(isa);
    }
    return out;
}

/** One kernel row: scalar + per-ISA ns/op and the speedup ratio. */
struct RowResult
{
    std::string panel;
    std::string row;
    double scalarNs = 0.0;
    std::vector<std::pair<kernels::Isa, double>> simdNs;
    double speedup = 1.0;  // scalar / best simd (1.0 without SIMD).
};

/**
 * Measure @p fn under the scalar table and under every available SIMD
 * table. @p fn must route through kernels::active() (directly or via
 * the rewired BitSig/HashEncoder/WiCSum paths).
 */
template <typename Fn>
RowResult
measureRow(const std::string &panel, const std::string &row, Fn &&fn)
{
    RowResult out;
    out.panel = panel;
    out.row = row;
    kernels::setActive(kernels::Isa::Scalar);
    out.scalarNs = nsPerOp(fn);
    double bestNs = out.scalarNs;
    for (kernels::Isa isa : simdIsas()) {
        kernels::setActive(isa);
        const double ns = nsPerOp(fn);
        out.simdNs.emplace_back(isa, ns);
        bestNs = std::min(bestNs, ns);
    }
    kernels::resetToAuto();
    out.speedup = out.scalarNs / bestNs;
    return out;
}

std::vector<uint64_t>
randomWords(Rng &rng, size_t n)
{
    std::vector<uint64_t> w(n);
    for (auto &v : w)
        v = rng.nextU64();
    return w;
}

std::vector<float>
randomKeys(uint32_t n, uint32_t dim, uint64_t seed)
{
    Rng rng(seed);
    std::vector<float> keys(static_cast<size_t>(n) * dim);
    rng.fillGaussian(keys.data(), keys.size(), 1.0f);
    return keys;
}

void
runKernelRows(std::vector<RowResult> &rows)
{
    // --- Hamming: XOR + popcount over packed signature words. ------
    Rng rng(0x11);
    for (uint32_t nbits : {64u, 256u, 512u, 4096u}) {
        const size_t nwords = bitWords(nbits);
        const auto a = randomWords(rng, nwords);
        const auto b = randomWords(rng, nwords);
        rows.push_back(measureRow(
            "hamming", "nbits=" + std::to_string(nbits), [&] {
                sinkU64 = sinkU64 +
                          kernels::hammingDistance(a.data(), b.data(),
                                                   nwords);
            }));
    }

    // --- Hash-bit encode (end-to-end HashEncoder::encode). ---------
    for (uint32_t nbits : {32u, 512u}) {
        const uint32_t dim = 128;
        HashEncoder enc(dim, nbits, 7);
        const auto keys = randomKeys(256, dim, 1);
        uint32_t i = 0;
        rows.push_back(measureRow(
            "encode",
            "dim=128,nbits=" + std::to_string(nbits), [&] {
                const BitSig sig =
                    enc.encode(keys.data() + (i++ % 256) * dim);
                sinkU64 = sinkU64 + sig.raw()[0];
            }));
    }

    // --- WiCSum: min/max scan and the early-exit selection. --------
    {
        const uint32_t n = 4096;
        Rng wrng(5);
        std::vector<float> scores(n);
        std::vector<uint32_t> counts(n);
        for (uint32_t i = 0; i < n; ++i) {
            scores[i] = static_cast<float>(wrng.uniform());
            counts[i] =
                1 + static_cast<uint32_t>(wrng.uniformInt(32));
        }
        rows.push_back(measureRow("wicsum", "minmax n=4096", [&] {
            float lo, hi;
            kernels::active().minMaxF32(scores.data(), scores.size(),
                                        &lo, &hi);
            sinkF32 = sinkF32 + lo + hi;
        }));
        rows.push_back(measureRow("wicsum", "select n=4096", [&] {
            const WicsumResult r =
                wicsumSelectEarlyExit(scores, counts, 0.3f, 16);
            sinkU64 = sinkU64 + r.scanned + r.bucketsVisited;
        }));
    }
}

/** Non-dispatched neighbours, for longitudinal context (info only). */
void
runContextRows(bench::Reporter &rep)
{
    rep.beginPanel("context",
                   "Non-dispatched neighbours (host ns, info only)");
    rep.note("Wall-clock of the operations the kernels replace or "
             "feed; no dispatch, no gating.");

    const auto keys = randomKeys(2, 128, 3);
    const double nsCosine = nsPerOp([&] {
        sinkF32 = sinkF32 + cosineSimilarity(keys.data(),
                                             keys.data() + 128, 128);
    });
    rep.add("cosine dim=128", "ns", nsCosine, "ns", 1);

    {
        const uint32_t n = 256, dim = 128;
        HashEncoder enc(dim, 32, 7);
        const auto tkeys = randomKeys(n, dim, 4);
        std::vector<BitSig> sigs;
        for (uint32_t t = 0; t < n; ++t)
            sigs.push_back(
                enc.encode(tkeys.data() + static_cast<size_t>(t) * dim));
        const double nsInsert = nsPerOp([&] {
            HCTable tab(dim, 32, 7);
            for (uint32_t t = 0; t < n; ++t)
                tab.insert(t,
                           tkeys.data() + static_cast<size_t>(t) * dim,
                           sigs[t]);
            sinkU64 = sinkU64 + tab.clusterCount();
        });
        rep.add("hc_insert n=256", "ns_per_token", nsInsert / n, "ns",
                1);
    }

    {
        const uint32_t n = 4096;
        Rng wrng(5);
        std::vector<float> scores(n);
        std::vector<uint32_t> counts(n);
        for (uint32_t i = 0; i < n; ++i) {
            scores[i] = static_cast<float>(wrng.uniform());
            counts[i] =
                1 + static_cast<uint32_t>(wrng.uniformInt(32));
        }
        const double nsRef = nsPerOp([&] {
            const WicsumResult r =
                wicsumSelectReference(scores, counts, 0.3f);
            sinkU64 = sinkU64 + r.scanned;
        });
        rep.add("wicsum_ref n=4096", "ns", nsRef, "ns", 1);
    }
}

void
reportRows(bench::Reporter &rep, const std::vector<RowResult> &rows)
{
    std::string curPanel;
    for (const auto &r : rows) {
        if (r.panel != curPanel) {
            curPanel = r.panel;
            rep.beginPanel(
                r.panel,
                "DRE kernel: " + r.panel +
                    " (ns/op per ISA + scalar/simd speedup)");
            rep.note("ns values are host wall-clock (info only); the "
                     "dimensionless speedup ratios are what "
                     "bench/perf_baseline.json floor-gates.");
        }
        rep.add(r.row, "scalar_ns", r.scalarNs, "ns", 1);
        for (const auto &[isa, ns] : r.simdNs)
            rep.add(r.row, std::string(kernels::isaName(isa)) + "_ns",
                    ns, "ns", 1);
        rep.add(r.row, "speedup", r.speedup, "x", 2);
    }
}

} // namespace

int
main(int argc, char **argv)
{
    return bench::runBench(
        "micro_core", argc, argv, [](bench::Reporter &rep) {
            std::vector<RowResult> rows;
            runKernelRows(rows);
            reportRows(rep, rows);
            runContextRows(rep);
        });
}
