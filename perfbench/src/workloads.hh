/**
 * @file
 * The benchmark's three closed-loop workloads and the epoch runner.
 *
 * A workload is a fixed *epoch* script built from the seed: engine
 * knobs, the sessions it admits, warm-up rounds (part of set-up) and
 * timed rounds. A run repeats the epoch on a fresh engine until the
 * timed phases add up to the requested seconds (and at least
 * `minEpochs`, which makes every reported percentile tail hold ten
 * samples). Every epoch of a run is identical, so the latency
 * distribution does not depend on how many epochs fit: a faster
 * program gets more samples of the same contexts, never longer ones.
 *
 * The seed sets each session's script seed and the oversub-resume
 * return order; the engine sees only the generated verbs.
 */
#ifndef VREX_PERFBENCH_WORKLOADS_HH
#define VREX_PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "serve/engine.hh"
#include "trace.hh"

namespace perfbench
{

/** Question length of every QA turn (tokens). */
inline constexpr uint32_t kQuestionTokens = 12;

/** What one round enqueues for each member session. */
enum class RoundKind : uint8_t
{
    Frame,    //!< feedFrame(id, 1)
    Question, //!< ask(id, kQuestionTokens, 1): prefill + first token
    Token,    //!< enqueue(id, {Generate{1}})
};

/**
 * One closed-loop step of the client. A single-member round is fed
 * and waited on; a multi-member round is staged with pause() ->
 * enqueue for all members -> resume() -> waitAll(), so batch
 * composition is a property of the workload, not of thread timing.
 */
struct Round
{
    RoundKind kind = RoundKind::Frame;
    std::vector<uint32_t> members; //!< Session indices.
    bool turnStart = false;        //!< First frame of a user's turn.
};

struct Workload
{
    std::string name;
    /** Engine knobs (the traced run adds its decorators). */
    vrex::serve::EngineConfig engine;
    std::vector<vrex::serve::SessionOptions> sessions;
    std::vector<Round> warmup; //!< Part of set-up.
    std::vector<Round> timed;
    uint32_t minEpochs = 1;
    /** Seeded sample of sessions the output check replays
     *  (ascending). */
    std::vector<uint32_t> checkSessions;
};

/** Workload names, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/**
 * Build @p name's epoch script from @p seed. @p small shrinks it to a
 * short configuration (fewer turns and sessions) for the self-test.
 * @throws std::invalid_argument on an unknown name.
 */
Workload makeWorkload(const std::string &name, uint64_t seed,
                      bool small = false);

/** One unit of a session's event sequence, for replay. */
struct ScriptItem
{
    vrex::SessionEvent event;
    bool turnStart = false;
    bool timed = false; //!< Part of the timed rounds, not warm-up.
};

/** Session @p s's full event sequence (warm-up, then timed). */
std::vector<ScriptItem> sessionScript(const Workload &w, uint32_t s);

/** Latency samples of one timed phase (milliseconds). */
struct Samples
{
    std::vector<double> frame, resume, ttft, tpot;
};

/** Everything one epoch measured. */
struct Epoch
{
    double setupS = 0.0;
    double timedS = 0.0;
    uint64_t verbs = 0;
    uint64_t failedVerbs = 0;
    /** Frames and decode tokens of the timed phase, and the client
     *  wall time of the rounds that produced them. */
    uint64_t frames = 0, tokens = 0;
    double frameWallMs = 0.0, tokenWallMs = 0.0;
    Samples samples;
    /** Engine Stats deltas over the timed phase. */
    uint64_t slices = 0, items = 0, waitNs = 0, serviceNs = 0;
    uint64_t fusedSteps = 0, fusedMembers = 0, soloSteps = 0;
    uint64_t hibernates = 0, wakes = 0;
    uint64_t hibernatedBytes = 0, wokenBytes = 0;
    uint64_t residentBytes = 0, coldBytes = 0;
    /** Exact per-layer counts (collected when asked; see runEpoch). */
    std::map<std::string, double> counts;
    /** Results of the workload's check sessions. */
    std::vector<vrex::SessionRunResult> checked;
};

/**
 * Run one epoch on a fresh engine. With a non-null @p tracer the engine gets
 * the tracing decorators and the timed phase records spans. With
 * @p collect the epoch also reads the exact counts (ReSV counters,
 * KV cache sizes) after timing. Every session is closed once read.
 */
Epoch runEpoch(const Workload &w, Tracer *tracer, bool collect);

/**
 * Replay session @p s of @p w through a fresh StreamingSession with
 * the same event sequence, serializing and restoring it in place at
 * every turn start (a pipeline-level hibernation). With a tracer,
 * times every timed-round verb, serialize/restore, and the video
 * stages on the same frames, so the pass covers the items the
 * engine's timed phase ran. Returns the session's results.
 * @throws std::runtime_error when the timed copy of the vision stack
 *         does not project frames as StreamingSession does.
 */
vrex::SessionRunResult replaySession(const Workload &w, uint32_t s,
                                     Tracer *tracer,
                                     uint64_t *blob_bytes = nullptr);

/** Byte-for-byte equality of generated tokens and step logits. */
bool sameOutputs(const vrex::SessionRunResult &a,
                 const vrex::SessionRunResult &b);

} // namespace perfbench

#endif // VREX_PERFBENCH_WORKLOADS_HH
