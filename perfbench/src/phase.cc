#include "phase.hh"

#include <cstdio>
#include <map>
#include <string>

#include "report.hh"

namespace perfbench
{

Phase
runPhase(const Workload &w, double seconds, Tracer *tracer,
         bool collect)
{
    Phase p;
    double timed = 0.0;
    while (p.epochs.size() < w.minEpochs || timed < seconds) {
        p.epochs.push_back(runEpoch(w, tracer, collect));
        timed += p.epochs.back().timedS;
    }
    p.peakRssMiB = peakRssMiB();
    return p;
}

uint64_t
verbsOf(const Workload &w, uint32_t s)
{
    uint64_t n = 0;
    for (const Round &r : w.timed)
        for (uint32_t m : r.members)
            n += m == s;
    return n;
}

std::vector<uint64_t>
checkOutputs(const Workload &w, const std::vector<const Phase *> &phases,
             Tracer *tracer, uint64_t *blob_bytes, uint64_t *mismatches)
{
    std::vector<uint64_t> failed(phases.size(), 0);
    for (size_t i = 0; i < w.checkSessions.size(); ++i) {
        const uint32_t s = w.checkSessions[i];
        const vrex::SessionRunResult ref =
            replaySession(w, s, tracer, blob_bytes);
        bool all_same = true;
        for (size_t p = 0; p < phases.size(); ++p)
            for (const Epoch &e : phases[p]->epochs)
                if (!sameOutputs(ref, e.checked[i])) {
                    failed[p] += verbsOf(w, s);
                    all_same = false;
                }
        *mismatches += !all_same;
        std::printf("check: session %u (%zu tokens) %s\n", s,
                    ref.generated.size(),
                    all_same ? "identical to sequential replay"
                             : "MISMATCH");
    }
    return failed;
}

bool
checkCounts(const Workload &w, const std::vector<const Phase *> &phases)
{
    const std::map<std::string, double> &ref =
        phases.front()->epochs.front().counts;
    bool same = true;
    size_t epochs = 0;
    for (const Phase *p : phases)
        for (const Epoch &e : p->epochs) {
            same = same && e.counts == ref;
            ++epochs;
        }
    bool isolated = true;
    if (!w.engine.batching.enabled)
        isolated = isolated && ref.at("serve.batch.fused_steps") == 0;
    if (w.engine.kvBudget.budgetBytes == 0)
        isolated = isolated && ref.at("serve.kv.hibernates") == 0;
    std::printf("exact-count check: %zu counts x %zu epochs %s; "
                "mechanism isolation %s\n",
                ref.size(), epochs, same ? "identical" : "DIFFER",
                isolated ? "holds" : "BROKEN");
    return same && isolated;
}

} // namespace perfbench
