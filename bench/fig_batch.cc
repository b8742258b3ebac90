/**
 * @file
 * Cross-session batched-generation throughput panel (PR 10; beyond
 * the paper's figures, supporting the serving story of §VI): N
 * same-geometry sessions each enqueue one long Generate script, the
 * burst is staged behind pause()/resume(), and a single worker
 * replays it with `EngineConfig::batching` off (sequential
 * round-robin, one session per step) and on (fused forward passes,
 * one shared weight stream per step). The headline metric is the
 * dimensionless batched/sequential throughput multiplier.
 *
 * Throughput is host wall-clock, so this bench is excluded from the
 * figure drift gate (`bench/baseline.json`). It has its own warn-only
 * gate in bench/gates.json, `batch` (baseline
 * `bench/batch_baseline.json`): multipliers on the rows the batching
 * contract promises (>= 8 same-geometry sessions measuring >= 1.5x
 * on the refresh machine) get a *floor* at the measured value with
 * 25% relative headroom, raw steps/s stay informational, and the
 * fused-step shape counters (coalesced steps/members, fill ratio —
 * exact logical counts under a staged single-worker burst) band-gate
 * at the default tolerance.
 *
 *   fig_batch [--json PATH] [--csv PATH] [--quiet]
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "common/bench_report.hh"
#include "serve/engine.hh"

using namespace vrex;

namespace
{

/**
 * The benchmark geometry. ModelConfig::tiny() streams ~2 MB of
 * weights per step — cache-resident on any modern host, so the
 * fused path's weight-stream reuse has nothing to amortize and the
 * multiplier saturates near 1x. This preset pushes the per-step
 * weight stream to ~16 MB (past typical L2, rivalling L3), which is
 * the regime batched serving actually lives in: sequential replay
 * re-streams the stack once per session per token, the fused pass
 * streams it once per token.
 */
ModelConfig
benchModel()
{
    ModelConfig c;
    c.name = "bench-batch";
    c.nLayers = 4;
    c.dModel = 256;
    c.nHeads = 8;
    c.nKvHeads = 4;
    c.ffnDim = 1024;
    c.vocabSize = 8192;
    return c;
}

/** Generation steps per session; every sweep point replays the same
 *  per-session script so throughputs are comparable across rows. */
constexpr uint32_t kSteps = 24;

/** The concurrency sweep; 8+ is where the acceptance floor lives. */
constexpr uint32_t kSessionSweep[] = {1, 2, 4, 8, 16};

struct RunOutcome
{
    double stepsPerSec = 0.0;
    serve::BatchStats batch;
};

/**
 * One staged burst: @p sessions equal-geometry sessions, each with a
 * single Generate{kSteps} script, drained on one worker. Only the
 * resume()..waitAll() window is timed — session/model construction
 * stays outside. With @p shared_seed every session uses the engine
 * default master seed (identical weights, so fused steps run the
 * grouped weight-row-outer matmuls); otherwise seeds are distinct
 * and every fused member is its own weight group.
 */
RunOutcome
runOnce(uint32_t sessions, bool batching, bool shared_seed)
{
    serve::EngineConfig cfg;
    cfg.model = benchModel();
    cfg.policy = serve::PolicySpec::resv();
    cfg.workers = 1;
    cfg.batching.enabled = batching;
    cfg.batching.maxBatch = 16;

    serve::Engine engine(cfg);
    engine.pause();
    for (uint32_t i = 0; i < sessions; ++i) {
        serve::SessionOptions o;
        o.name = "b" + std::to_string(i);
        if (!shared_seed)
            o.sessionSeed = 1000 + i;
        const serve::SessionId id = engine.createSession(o);
        engine.enqueue(id, {{SessionEvent::Type::Generate, kSteps}});
    }

    const auto t0 = std::chrono::steady_clock::now();
    engine.resume();
    engine.waitAll();
    const double sec = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - t0)
                           .count();

    RunOutcome out;
    out.stepsPerSec =
        static_cast<double>(sessions) * kSteps / sec;
    out.batch = engine.stats().batch;
    return out;
}

/** Best-of-@p reps throughput (the usual defense against scheduler
 *  noise); the fused-step counters are identical across reps. */
RunOutcome
bestOf(int reps, uint32_t sessions, bool batching, bool shared_seed)
{
    RunOutcome best = runOnce(sessions, batching, shared_seed);
    for (int r = 1; r < reps; ++r) {
        RunOutcome next = runOnce(sessions, batching, shared_seed);
        if (next.stepsPerSec > best.stepsPerSec)
            best = next;
    }
    return best;
}

struct SweepPoint
{
    uint32_t sessions = 0;
    double seqSps = 0.0;
    double batSps = 0.0;
    double multiplier = 0.0;
    serve::BatchStats batch;
};

void
runSweep(std::vector<SweepPoint> &points, double &distinctMultiplier)
{
    constexpr int kReps = 2;
    for (uint32_t n : kSessionSweep) {
        SweepPoint p;
        p.sessions = n;
        const RunOutcome seq = bestOf(kReps, n, false, true);
        const RunOutcome bat = bestOf(kReps, n, true, true);
        p.seqSps = seq.stepsPerSec;
        p.batSps = bat.stepsPerSec;
        p.multiplier = bat.stepsPerSec / seq.stepsPerSec;
        p.batch = bat.batch;
        points.push_back(p);
    }
    // Distinct-seed control: fused steps still coalesce (geometry
    // always matches) but every member is its own weight group, so
    // there is no shared weight stream to amortize.
    const RunOutcome seq = bestOf(kReps, 8, false, false);
    const RunOutcome bat = bestOf(kReps, 8, true, false);
    distinctMultiplier = bat.stepsPerSec / seq.stepsPerSec;
}

std::string
rowLabel(uint32_t sessions)
{
    return "sessions=" + std::to_string(sessions);
}

void
report(bench::Reporter &rep, const std::vector<SweepPoint> &points,
       double distinctMultiplier)
{
    rep.beginPanel("shared",
                   "equal-seed sessions: fused vs sequential "
                   "generation throughput (workers=1)");
    rep.note("steps/s are host wall-clock (info only); the "
             "dimensionless multiplier is what "
             "bench/batch_baseline.json floor-gates.");
    for (const SweepPoint &p : points) {
        const std::string row = rowLabel(p.sessions);
        rep.add(row, "seq_steps_per_sec", p.seqSps, "steps/s", 0);
        rep.add(row, "batched_steps_per_sec", p.batSps, "steps/s", 0);
        rep.add(row, "multiplier", p.multiplier, "x", 2);
    }

    rep.beginPanel("fusion",
                   "fused-step shape of the batched runs (exact "
                   "logical counters)");
    rep.note("staged burst on one worker: every counter is a pure "
             "function of (sessions, steps, maxBatch=16).");
    for (const SweepPoint &p : points) {
        const std::string row = rowLabel(p.sessions);
        rep.add(row, "coalesced_steps",
                static_cast<double>(p.batch.coalescedSteps), "", 0);
        rep.add(row, "coalesced_members",
                static_cast<double>(p.batch.coalescedMembers), "", 0);
        rep.add(row, "solo_units",
                static_cast<double>(p.batch.soloSteps), "", 0);
        rep.add(row, "mean_batch", p.batch.meanBatchSize(), "", 2);
        rep.add(row, "fill_ratio", 100.0 * p.batch.fillRatio(), "%",
                1);
    }

    rep.beginPanel("distinct",
                   "distinct-seed control at 8 sessions (no shared "
                   "weight stream)");
    rep.note("fusion still happens, but with per-member weight "
             "groups the multiplier should sit near 1x — a large "
             "value here would mean the sequential path regressed.");
    rep.add("sessions=8", "multiplier", distinctMultiplier, "x", 2);
}

} // namespace

int
main(int argc, char **argv)
{
    return bench::runBench("batch", argc, argv, [](bench::Reporter &rep) {
        std::vector<SweepPoint> points;
        double distinctMultiplier = 0.0;
        runSweep(points, distinctMultiplier);
        report(rep, points, distinctMultiplier);
    });
}
