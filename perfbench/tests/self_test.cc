/**
 * @file
 * perfbench self-test, on a short configuration of every workload:
 *
 *  - the traced run's outputs are byte-identical to the untraced
 *    run's (and both to a sequential StreamingSession replay), so the
 *    tracing decorators forward every call unchanged;
 *  - two traced epochs and one untraced epoch with one seed give
 *    identical exact per-layer counts;
 *  - mechanism isolation: fused steps are 0 on edge-live and
 *    oversub-resume, hibernates are 0 on edge-live and multi-stream,
 *    and each mechanism does run on the workload built for it.
 *
 * Exits 0 when every check passes.
 */
#include <cstdio>
#include <exception>

#include "phase.hh"

using namespace perfbench;

namespace
{

bool
selfTest(const std::string &name)
{
    const Workload w = makeWorkload(name, 7, true);
    Phase plain, traced;
    plain.epochs.push_back(runEpoch(w, nullptr, true));
    Tracer tracer;
    tracer.setClientThread();
    for (int i = 0; i < 2; ++i)
        traced.epochs.push_back(runEpoch(w, &tracer, true));

    uint64_t mismatches = 0;
    checkOutputs(w, {&plain, &traced}, nullptr, nullptr, &mismatches);
    const auto &c = traced.epochs.front().counts;
    const bool exercised =
        (!w.engine.batching.enabled ||
         c.at("serve.batch.fused_steps") > 0) &&
        (w.engine.kvBudget.budgetBytes == 0 ||
         (c.at("serve.kv.hibernates") > 0 && c.at("serve.kv.wakes") > 0));
    const bool ok = checkCounts(w, {&plain, &traced}) && mismatches == 0 &&
                    exercised && tracer.mark() > 0;
    std::printf("self-test %s: %s\n", name.c_str(), ok ? "PASS" : "FAIL");
    return ok;
}

} // namespace

int
main()
{
    try {
        bool ok = true;
        for (const std::string &name : workloadNames())
            ok = selfTest(name) && ok;
        return ok ? 0 : 1;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench_self_test: %s\n", e.what());
        return 1;
    }
}
