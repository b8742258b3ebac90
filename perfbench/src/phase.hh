/**
 * @file
 * A measured phase (epochs repeated for a time budget) and the two
 * correctness checks every run makes: outputs against a sequential
 * replay, and exact per-layer counts across epochs.
 */
#ifndef VREX_PERFBENCH_PHASE_HH
#define VREX_PERFBENCH_PHASE_HH

#include <cstdint>
#include <vector>

#include "trace.hh"
#include "workloads.hh"

namespace perfbench
{

/** Epochs of one workload under one tracing setting. */
struct Phase
{
    std::vector<Epoch> epochs;
    /** Process peak RSS (MiB) read as the phase ends. Peak RSS only
     *  grows, so a later phase's reading covers earlier phases too. */
    double peakRssMiB = 0.0;
};

/** Run epochs until `seconds` of timed work and w.minEpochs. */
Phase runPhase(const Workload &w, double seconds, Tracer *tracer,
               bool collect);

/** Timed verbs of session @p s in one epoch. */
uint64_t verbsOf(const Workload &w, uint32_t s);

/**
 * The output check: every epoch's sampled sessions against a fresh
 * sequential replay (see replaySession; @p tracer and @p blob_bytes
 * are passed on). Counts sessions that differ in @p mismatches and
 * returns, per phase, their timed verbs: they completed, but wrongly.
 */
std::vector<uint64_t> checkOutputs(const Workload &w,
                                   const std::vector<const Phase *> &phases,
                                   Tracer *tracer, uint64_t *blob_bytes,
                                   uint64_t *mismatches);

/**
 * The exact-count check over epochs that collected counts: every
 * epoch must give identical counts, and a mechanism the engine
 * config leaves off must read zero (fused steps without batching,
 * hibernates without a KV budget).
 */
bool checkCounts(const Workload &w,
                 const std::vector<const Phase *> &phases);

} // namespace perfbench

#endif // VREX_PERFBENCH_PHASE_HH
