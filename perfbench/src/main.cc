/**
 * @file
 * vrex_perfbench: closed-loop serving benchmark of vrex::serve::Engine.
 *
 *   vrex_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                  [--trace-out PATH]
 *
 * --trace 0 measures the end-to-end metrics with tracing off. --trace 1
 * runs the workload untraced and then traced, replays a pipeline pass,
 * and reports the per-layer metrics plus the tracing overhead (traced
 * minus untraced, per end-to-end metric). Both modes check outputs:
 * sampled sessions are replayed through a fresh StreamingSession and
 * must match byte for byte. The last stdout line is the JSON result.
 */
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "phase.hh"
#include "report.hh"

using namespace perfbench;

namespace
{

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string traceOut;
};

bool
parseArgs(int argc, char **argv, Args &a)
{
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        if (i + 1 >= argc)
            return false;
        const char *v = argv[++i];
        char *end = nullptr;
        if (k == "--workload") {
            a.workload = v;
            have_workload = true;
        } else if (k == "--seed") {
            a.seed = std::strtoull(v, &end, 10);
            if (*end)
                return false;
        } else if (k == "--seconds") {
            a.seconds = std::strtod(v, &end);
            if (*end || !(a.seconds > 0))
                return false;
        } else if (k == "--trace") {
            if (std::strcmp(v, "0") && std::strcmp(v, "1"))
                return false;
            a.trace = v[0] == '1';
        } else if (k == "--trace-out") {
            a.traceOut = v;
        } else {
            return false;
        }
    }
    return have_workload;
}

double
median(std::vector<double> v)
{
    return guardedPercentile(std::move(v), 0.5).value_or(0.0);
}

/** The latency samples of every epoch of @p p, pooled. */
Samples
pooled(const Phase &p)
{
    Samples all;
    for (const Epoch &e : p.epochs)
        for (auto [dst, src] :
             {std::pair{&all.frame, &e.samples.frame},
              std::pair{&all.resume, &e.samples.resume},
              std::pair{&all.ttft, &e.samples.ttft},
              std::pair{&all.tpot, &e.samples.tpot}})
            dst->insert(dst->end(), src->begin(), src->end());
    return all;
}

/** End-to-end metrics of one phase; false when a guard refused a
 *  tail percentile. */
bool
endToEnd(const Phase &p, uint64_t attempted, uint64_t failed,
         std::vector<Metric> &out)
{
    bool ok = true;
    const Samples s = pooled(p);
    // Set-up is a per-epoch value, reported as its median over epochs
    // so one noisy epoch cannot move it. The two rates divide all the
    // phase's frames (tokens) by all the wall time that produced them.
    std::vector<double> setup;
    uint64_t frames = 0, tokens = 0;
    double frame_ms = 0.0, token_ms = 0.0;
    for (const Epoch &e : p.epochs) {
        setup.push_back(e.setupS);
        frames += e.frames;
        tokens += e.tokens;
        frame_ms += e.frameWallMs;
        token_ms += e.tokenWallMs;
    }
    out.push_back({"setup_s", "s", median(setup), setup.size()});
    out.push_back({"peak_rss_mb", "MB", p.peakRssMiB});
    out.push_back({"ok_pct", "%",
                   attempted ? 100.0 * static_cast<double>(
                                           attempted - failed) /
                                   static_cast<double>(attempted)
                             : 0.0});
    out.push_back({"ingest_fps", "1/s",
                   frame_ms > 0 ? 1e3 * frames / frame_ms : 0.0, frames});
    auto pct = [&](const char *name, const std::vector<double> &v,
                   double q) {
        const std::optional<double> x = guardedPercentile(v, q);
        if (!x) {
            std::printf("refused: %s has %llu samples beyond it in "
                        "n=%zu (need %llu)\n",
                        name,
                        static_cast<unsigned long long>(
                            samplesBeyond(v.size(), q)),
                        v.size(),
                        static_cast<unsigned long long>(kMinTailSamples));
            ok = false;
            return;
        }
        out.push_back({name, "ms", *x, v.size()});
    };
    pct("frame_ms_p50", s.frame, 0.50);
    pct("frame_ms_p95", s.frame, 0.95);
    pct("ttft_ms_p50", s.ttft, 0.50);
    pct("ttft_ms_p90", s.ttft, 0.90);
    pct("tpot_ms_p50", s.tpot, 0.50);
    pct("tpot_ms_p95", s.tpot, 0.95);
    out.push_back({"decode_tok_s", "1/s",
                   token_ms > 0 ? 1e3 * tokens / token_ms : 0.0, tokens});
    pct("resume_ms_p50", s.resume, 0.50);
    pct("resume_ms_p90", s.resume, 0.90);
    return ok;
}

uint64_t
attemptedVerbs(const Phase &p, uint64_t *failed)
{
    uint64_t n = 0;
    for (const Epoch &e : p.epochs) {
        n += e.verbs;
        *failed += e.failedVerbs;
    }
    return n;
}

void
printPhase(const Workload &w, const char *label, const Phase &p)
{
    double timed = 0.0;
    for (const Epoch &e : p.epochs)
        timed += e.timedS;
    std::printf("%s: workload=%s epochs=%zu timed_s=%.3f sessions=%zu "
                "workers=%u\n",
                label, w.name.c_str(), p.epochs.size(), timed,
                w.sessions.size(), w.engine.workers);
}

std::vector<Metric>
perLayer(const Workload &w, const Phase &traced, const Tracer &tr,
         size_t engine_end, uint64_t blob_bytes)
{
    const std::map<std::string, double> &c =
        traced.epochs.front().counts;
    uint64_t slices = 0, items = 0, wait_ns = 0, service_ns = 0;
    for (const Epoch &e : traced.epochs) {
        slices += e.slices;
        items += e.items;
        wait_ns += e.waitNs;
        service_ns += e.serviceNs;
    }
    const double epochs = static_cast<double>(traced.epochs.size());
    auto span = [&](const char *name) {
        return tr.totals(name, 0, engine_end);
    };
    auto pass = [&](const char *name) {
        return tr.totals(name, engine_end);
    };
    auto under = [&](const char *name, const char *parent) {
        return tr.totalsUnder(name, parent, engine_end).ns;
    };
    const double mib = 1024.0 * 1024.0;

    SpanTotals enq = span("engine.feedFrame");
    for (const char *n : {"engine.ask", "engine.enqueue"}) {
        const SpanTotals t = span(n);
        enq.count += t.count;
        enq.ns += t.ns;
    }
    uint64_t turns = 0;
    for (const Round &r : w.timed)
        if (r.turnStart)
            turns += r.members.size();

    const SpanTotals pf = pass("pipeline.frame");
    const SpanTotals pq = pass("pipeline.question");
    const SpanTotals pt = pass("pipeline.token");
    const SpanTotals ps = pass("pipeline.serialize");
    const double pass_items = static_cast<double>(pf.count + pq.count +
                                                  pt.count);
    const double pass_ms_per_item =
        pass_items ? (pf.ns + pq.ns + pt.ns) / 1e6 / pass_items : 0.0;
    const double video_ms = pass("video.latents").meanMs() +
                            pass("video.encode").meanMs() +
                            pass("video.project").meanMs();
    const double resv_frame_ms =
        pf.count ? (under("resv.append", "pipeline.frame") +
                    under("resv.select.frame", "pipeline.frame")) /
                       1e6 / pf.count
                 : 0.0;
    const double resv_token_ms =
        pt.count ? (under("resv.append", "pipeline.token") +
                    under("resv.select.text", "pipeline.token")) /
                       1e6 / pt.count
                 : 0.0;
    auto ratio = [&](const char *sel, const char *past) {
        return c.at(past) > 0 ? c.at(sel) / c.at(past) : 0.0;
    };

    std::vector<Metric> m = {
        {"serve.slices", "count", c.at("serve.slices")},
        {"serve.wait_ms_mean", "ms",
         slices ? wait_ns / 1e6 / slices : 0.0},
        {"serve.service_ms_mean", "ms",
         slices ? service_ns / 1e6 / slices : 0.0},
        {"serve.batch.fused_steps", "count",
         c.at("serve.batch.fused_steps")},
        {"serve.batch.mean_size", "count",
         c.at("serve.batch.fused_steps") > 0
             ? c.at("serve.batch.fused_members") /
                   c.at("serve.batch.fused_steps")
             : 0.0},
        {"serve.batch.solo_steps", "count",
         c.at("serve.batch.solo_steps")},
        {"serve.enqueue_us_mean", "us", enq.meanMs() * 1e3},
        {"serve.kv.hibernates", "count", c.at("serve.kv.hibernates")},
        {"serve.kv.wakes", "count", c.at("serve.kv.wakes")},
        {"serve.kv.wake_share", "ratio",
         turns ? c.at("serve.kv.wakes") / turns : 0.0},
        {"serve.kv.resident_mb", "MB",
         c.at("serve.kv.resident_bytes") / mib},
        {"serve.kv.cold_mb", "MB", c.at("serve.kv.cold_bytes") / mib},
        {"kvstore.put_calls", "count", span("kvstore.put").count / epochs},
        {"kvstore.get_calls", "count", span("kvstore.get").count / epochs},
        {"kvstore.put_ms_mean", "ms", span("kvstore.put").meanMs()},
        {"kvstore.get_ms_mean", "ms", span("kvstore.get").meanMs()},
        {"kvstore.written_mb", "MB", c.at("kvstore.written_bytes") / mib},
        {"kvstore.read_mb", "MB", c.at("kvstore.read_bytes") / mib},
        {"pipeline.frame_ms_mean", "ms", pf.meanMs()},
        {"pipeline.question_ms_mean", "ms", pq.meanMs()},
        {"pipeline.token_ms_mean", "ms", pt.meanMs()},
        {"pipeline.serialize_ms_mean", "ms", ps.meanMs()},
        {"pipeline.restore_ms_mean", "ms",
         pass("pipeline.restore").meanMs()},
        {"pipeline.blob_mb", "MB",
         ps.count ? blob_bytes / mib / ps.count : 0.0},
        {"serve.overhead_ms_per_item", "ms",
         (items ? (wait_ns + service_ns) / 1e6 / items : 0.0) -
             pass_ms_per_item},
        {"video.latents_ms_mean", "ms", pass("video.latents").meanMs()},
        {"video.encode_ms_mean", "ms", pass("video.encode").meanMs()},
        {"video.project_ms_mean", "ms", pass("video.project").meanMs()},
        {"llm.self_ms_per_frame", "ms",
         pf.meanMs() - video_ms - resv_frame_ms},
        {"llm.self_ms_per_token", "ms", pt.meanMs() - resv_token_ms},
        {"llm.kv_tokens_end", "count", c.at("llm.kv_tokens_end")},
        {"llm.kv_mb_end", "MB", c.at("llm.kv_bytes_end") / mib},
        {"tensor.dense_mmacs_per_frame", "MMAC",
         c.at("tensor.dense_mmacs_per_frame"), 0, true},
        {"tensor.dense_mmacs_per_token", "MMAC",
         c.at("tensor.dense_mmacs_per_token"), 0, true},
        {"tensor.attn_mmacs_per_frame", "MMAC",
         c.at("tensor.attn_mmacs_per_frame"), 0, true},
        {"tensor.weight_mb_per_decode_step", "MB",
         c.at("tensor.weight_mb_per_decode_step"), 0, true},
        {"core.resv.append_ms_mean", "ms", span("resv.append").meanMs()},
        {"core.resv.select_ms_mean_frame", "ms",
         span("resv.select.frame").meanMs()},
        {"core.resv.select_ms_mean_text", "ms",
         span("resv.select.text").meanMs()},
        {"core.resv.select_calls", "count",
         c.at("core.resv.select_calls_frame") +
             c.at("core.resv.select_calls_text")},
        {"core.resv.selected_ratio_frame", "ratio",
         ratio("core.resv.tokens_selected_frame",
               "core.resv.past_tokens_frame")},
        {"core.resv.selected_ratio_text", "ratio",
         ratio("core.resv.tokens_selected_text",
               "core.resv.past_tokens_text")},
        {"core.resv.clusters_scanned", "count",
         c.at("core.resv.clusters_scanned")},
        {"core.resv.wicsum_scanned", "count",
         c.at("core.resv.wicsum_scanned")},
    };
    return m;
}

bool
allFinite(const std::vector<Metric> &metrics)
{
    for (const Metric &m : metrics)
        if (!std::isfinite(m.value))
            return false;
    return true;
}

int
runBenchmark(const Args &a)
{
    const Workload w = makeWorkload(a.workload, a.seed);
    std::printf("host: %s\n", hostFingerprint().c_str());
    std::printf("run: workload=%s seed=%llu seconds=%g trace=%d\n",
                w.name.c_str(), static_cast<unsigned long long>(a.seed),
                a.seconds, a.trace ? 1 : 0);

    const Phase plain = runPhase(w, a.seconds, nullptr, a.trace);
    printPhase(w, "untraced", plain);
    uint64_t failed = 0;
    const uint64_t attempted = attemptedVerbs(plain, &failed);

    if (!a.trace) {
        uint64_t mismatches = 0;
        failed +=
            checkOutputs(w, {&plain}, nullptr, nullptr, &mismatches)[0];
        std::vector<Metric> e2e;
        bool ok = endToEnd(plain, attempted, failed, e2e);
        printMetrics("end-to-end, tracing off", e2e);
        ok = ok && mismatches == 0 && failed == 0 && allFinite(e2e);
        printResult(ok, attempted, failed, e2e);
        return ok ? 0 : 1;
    }

    Tracer tracer;
    tracer.setClientThread();
    const Phase traced = runPhase(w, a.seconds, &tracer, true);
    printPhase(w, "traced", traced);
    const size_t engine_end = tracer.mark();

    uint64_t traced_failed = 0;
    const uint64_t traced_attempted =
        attemptedVerbs(traced, &traced_failed);
    uint64_t mismatches = 0, blob_bytes = 0;
    const std::vector<uint64_t> check_failed = checkOutputs(
        w, {&plain, &traced}, &tracer, &blob_bytes, &mismatches);
    failed += check_failed[0];
    traced_failed += check_failed[1];
    const bool counts_ok = checkCounts(w, {&plain, &traced});

    std::vector<Metric> e2e_plain, e2e_traced;
    bool ok = endToEnd(plain, attempted, failed, e2e_plain);
    ok = endToEnd(traced, traced_attempted, traced_failed, e2e_traced) &&
         ok;
    printMetrics("end-to-end, tracing off", e2e_plain);
    printMetrics("end-to-end, tracing on", e2e_traced);

    std::vector<Metric> layers =
        perLayer(w, traced, tracer, engine_end, blob_bytes);
    for (const Metric &p : e2e_plain)
        for (const Metric &t : e2e_traced)
            if (t.name == p.name)
                layers.push_back({"trace.overhead." + p.name, p.unit,
                                  t.value - p.value});
    printMetrics("per-layer, traced run; trace.overhead.* = traced - "
                 "untraced",
                 layers);

    if (!a.traceOut.empty()) {
        if (tracer.writeJsonLines(a.traceOut))
            std::printf("spans: %zu written to %s\n", tracer.mark(),
                        a.traceOut.c_str());
        else
            std::printf("spans: could not write %s\n",
                        a.traceOut.c_str());
    }
    const uint64_t all_failed = failed + traced_failed;
    ok = ok && counts_ok && mismatches == 0 && all_failed == 0 &&
         allFinite(layers);
    printResult(ok, attempted + traced_attempted, all_failed, layers);
    return ok ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    Args a;
    if (!parseArgs(argc, argv, a)) {
        std::fprintf(stderr,
                     "usage: %s --workload NAME --seed N --seconds S "
                     "--trace 0|1 [--trace-out PATH]\n",
                     argv[0]);
        return 2;
    }
    try {
        return runBenchmark(a);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "vrex_perfbench: %s\n", e.what());
        return 1;
    }
}
