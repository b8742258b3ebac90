/**
 * @file
 * vrex::serve::Engine — the session-oriented serving facade.
 *
 * An Engine owns a pool of worker threads and any number of
 * independent streaming-QA sessions. Each session bundles its own
 * Model, an *owned* retrieval policy built from a declarative
 * PolicySpec, and its own RNG streams, so sessions share no mutable
 * state: an N-way concurrent run is byte-identical to N sequential
 * StreamingSession runs (locked by tests/serve_test.cc and
 * tests/serve_sched_test.cc).
 *
 * Lifecycle:
 *
 *     Engine engine({.model = ModelConfig::tiny(),
 *                    .policy = PolicySpec::resv()});
 *     SessionId id = engine.createSession(opts);
 *     engine.feedFrame(id, 12);       // async: queued per session
 *     engine.ask(id, 10, 12);         // question + answer round
 *     SessionRunResult r = engine.result(id);  // drains, snapshots
 *     engine.closeSession(id);
 *
 * Scheduling (PR 4): verbs enqueue work measured in *unit work
 * items* (a Generate{n} weighs n single-token steps, split lazily at
 * slice boundaries; see SessionEvent::unitCount and
 * StreamingSession::unitEvents) into a per-session queue managed by
 * the Scheduler. A fair
 * round-robin dispatcher time-slices the queues onto the pool —
 * `EngineConfig::sched.sliceEvents` items per turn — so one chatty
 * session cannot starve the rest, and one session's frame ingest
 * interleaves with another's generation steps at item granularity.
 * Admission control (`sched.maxLiveSessions`) and bounded queues
 * (`sched.maxQueuedPerSession`) turn overload into explicit
 * backpressure results (tryCreateSession / tryFeedFrame / tryAsk /
 * tryEnqueue) or typed exceptions (AdmissionError / QueueFullError
 * from the classic verbs) instead of silent blocking. Scheduler
 * observability is exported via stats() / sessionStats().
 *
 * Priority classes (PR 5): each session carries a SchedClass
 * (`SessionOptions::schedClass`, default Interactive; mutable via
 * setClass()) and the dispatcher serves the per-class ready lists
 * weighted round-robin (`sched.classWeights`), optionally clamped by
 * per-session rate limits (`sched.maxItemsPerRound` /
 * `SessionOptions::maxItemsPerRound`) and deadline-aware slicing
 * (`sched.deadlineSlices` promotes a session whose oldest queued
 * item aged past the deadline to the front of its class). Defaults
 * (one class in use, weights {1,1}, no limits) are byte-identical to
 * the PR-4 round-robin. stats() additionally reports per-class
 * p50/p95/p99 wait and service latency histograms.
 *
 * A session's items still execute in order on one worker at a time
 * (actor style), so per-session determinism is independent of the
 * slice size, worker count, and cross-session interleaving.
 * result()/model()/policy() block until the session is drained.
 *
 * Session hibernation (PR 7): when `EngineConfig::kvBudget.budgetBytes`
 * is non-zero, the engine tracks every session's KV working set and,
 * whenever the resident total overflows the budget, hibernates idle
 * sessions — serializing their full state (StreamingSession::
 * serialize) into a ColdStore and releasing model, policy and KV
 * cache. Victims are picked least-recently-executed first, Bulk class
 * before Interactive; busy sessions are skipped, never waited for.
 * The next verb (or drained accessor) wakes the session
 * transparently: the blob is fetched, the model/policy rebuilt from
 * config + seed, and state restored bit-exactly, so a hibernated
 * session's results are byte-identical to an uninterrupted run
 * (locked by tests/hibernate_test.cc). With the default budget of 0
 * nothing changes: no accounting, no hibernation, the pre-PR-7
 * engine. Stats::kv reports resident/cold bytes, transition counts
 * and hibernate/wake latency percentiles.
 */

#ifndef VREX_SERVE_ENGINE_HH
#define VREX_SERVE_ENGINE_HH

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/thread_annotations.hh"
#include "kvstore/cold_store.hh"
#include "pipeline/accuracy_eval.hh"
#include "pipeline/streaming_session.hh"
#include "serve/kv_budget.hh"
#include "serve/policy_factory.hh"
#include "serve/scheduler.hh"
#include "serve/stats.hh"
#include "serve/thread_pool.hh"
#include "video/workload.hh"

namespace vrex::serve
{

/** Opaque handle of one open session. 0 is never a valid id. */
using SessionId = uint64_t;

/** createSession() at the live-session cap. */
class AdmissionError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** A queueing verb overflowed a bounded per-session queue. */
class QueueFullError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** Outcome of tryCreateSession(). */
struct Admission
{
    enum class Status : uint8_t
    {
        Admitted,
        RejectedSessionLimit,
    };

    /** Valid only when admitted (0 otherwise). */
    SessionId id = 0;
    Status status = Status::Admitted;

    bool admitted() const { return status == Status::Admitted; }
    explicit operator bool() const { return admitted(); }
};

/** Engine-wide configuration: geometry, default policy, pool size. */
struct EngineConfig
{
    /** Backbone geometry shared by all sessions. */
    ModelConfig model = ModelConfig::tiny();
    /** Default retrieval policy of new sessions. */
    PolicySpec policy;
    /** Worker threads; 0 picks from hardware concurrency. */
    uint32_t workers = 0;
    /** Default per-session master seed (weights + streams). */
    uint64_t sessionSeed = 42;
    /** Admission + dispatch knobs (defaults: unlimited sessions,
     *  unbounded queues, 4-item round-robin slices). */
    SchedulerConfig sched;
    /** Policy registry override; PolicyFactory::global() when null.
     *  Must outlive the engine. */
    const PolicyFactory *factory = nullptr;
    /** KV working-set budget + hibernation knobs. Default (budget 0)
     *  disables hibernation entirely. */
    KvBudgetConfig kvBudget;
    /** Cross-session batched generation: when enabled, a dispatch
     *  round whose next item is a single-token Generate step
     *  coalesces with other sessions' ready Generate steps into one
     *  StreamingSession::generateStep() call over all of them — the
     *  same forward path a solo step takes with one session, so
     *  every session shares one weight stream per fused step. All
     *  sessions share the engine's ModelConfig, which that forward
     *  requires; sessions with equal master seeds additionally share
     *  weight *values* and run under grouped matmuls. Per-session
     *  results are byte-identical to solo execution whether or not
     *  steps coalesce; with the default (disabled) the dispatch path
     *  is byte-identical to the pre-batching engine. Stats::batch
     *  reports fused-step counters. */
    BatchConfig batching;
};

/** Per-session creation parameters. */
struct SessionOptions
{
    std::string name = "session";
    VideoConfig video;
    /** Per-stream seed (mixed into video + question randomness),
     *  mirroring SessionScript::seed. */
    uint64_t scriptSeed = 0;
    /** Master seed override; engine default when unset. */
    std::optional<uint64_t> sessionSeed;
    /** Policy override; engine default when unset. */
    std::optional<PolicySpec> policy;
    /** Teacher forcing: generation consumes these token ids. */
    std::vector<uint32_t> forcedTokens;
    /** Scheduling class the session dispatches under (weighted
     *  round-robin across classes; see SchedulerConfig). Mutable
     *  mid-stream via Engine::setClass. */
    SchedClass schedClass = SchedClass::Interactive;
    /** Per-session rate limit override (max unit items per dispatch
     *  slice); engine default `sched.maxItemsPerRound` when unset,
     *  0 = no cap. */
    std::optional<uint32_t> maxItemsPerRound;

    /** Options matching a scripted session's stream parameters. */
    static SessionOptions fromScript(const SessionScript &script);
};

/** One fidelity evaluation: a script run under a policy spec. */
struct FidelityJob
{
    SessionScript script;
    PolicySpec policy;
};

class Engine
{
  public:
    explicit Engine(EngineConfig config);

    /** Drains every open session, then stops the pool. */
    ~Engine();

    Engine(const Engine &) = delete;
    Engine &operator=(const Engine &) = delete;

    const EngineConfig &config() const { return cfg; }
    uint32_t workerCount() const { return pool.workerCount(); }

    // ---- session lifecycle -------------------------------------

    /**
     * Open a session; its model/policy are built on admission.
     * @throws AdmissionError at the live-session cap.
     */
    SessionId createSession(const SessionOptions &options = {});

    /** createSession() that reports rejection as a result instead
     *  of throwing. The model is not built on rejection. */
    Admission tryCreateSession(const SessionOptions &options = {});

    /** createSession(fromScript(script)) + enqueue all its events. */
    SessionId submit(const SessionScript &script);

    /**
     * submit() with policy/sessionSeed/forcedTokens overrides. The
     * script remains the source of truth for stream identity:
     * options.name/video/scriptSeed are taken from it.
     */
    SessionId submit(const SessionScript &script,
                     SessionOptions options);

    /** Stream @p frames video frames into the session (async).
     *  @throws QueueFullError when a bounded queue overflows. */
    void feedFrame(SessionId id, uint32_t frames = 1);

    /** One QA round: @p question_tokens prefilled, then
     *  @p answer_tokens generated (async; the answer is enqueued as
     *  answer_tokens unit steps).
     *  @throws QueueFullError when a bounded queue overflows. */
    void ask(SessionId id, uint32_t question_tokens,
             uint32_t answer_tokens);

    /** Enqueue scripted events (async, expanded to unit items).
     *  @throws QueueFullError when a bounded queue overflows. */
    void enqueue(SessionId id, const std::vector<SessionEvent> &events);

    // Backpressure-reporting twins of the verbs above. All-or-
    // nothing: on RejectedQueueFull nothing was enqueued. Unknown /
    // closed ids still throw std::out_of_range — that is a usage
    // error, not backpressure.

    EnqueueResult tryFeedFrame(SessionId id, uint32_t frames = 1);
    EnqueueResult tryAsk(SessionId id, uint32_t question_tokens,
                         uint32_t answer_tokens);
    EnqueueResult tryEnqueue(SessionId id,
                             const std::vector<SessionEvent> &events);

    /** Block until the session's queue is drained. */
    void wait(SessionId id);

    /** Block until every open session is drained. */
    void waitAll();

    /** Drain the session and aggregate its results so far. The
     *  session stays open and can keep receiving events. */
    SessionRunResult result(SessionId id);

    /** Drain and destroy the session (model, policy, cache). */
    void closeSession(SessionId id);

    size_t openSessions() const;

    // ---- scheduling control / observability --------------------

    /** Move the session to scheduling class @p cls mid-stream (it
     *  re-queues at the back of the new class's ready list; queued
     *  work and results are unaffected — only dispatch order and
     *  subsequent per-class accounting change).
     *  @throws std::out_of_range on an unknown or closed id. */
    void setClass(SessionId id, SchedClass cls);

    /** Stop dispatching new work (in-flight slices finish; verbs
     *  still enqueue). Useful to stage a deterministic burst.
     *  Caution: the draining verbs (result/wait/model/policy/
     *  memoryStats/closeSession/waitAll) block until the queue
     *  empties, which cannot happen while paused — call resume()
     *  first (or from another thread). */
    void pause();

    /** Undo pause() and dispatch everything that became ready. */
    void resume();

    /** Engine-wide scheduler snapshot: admissions, rejections,
     *  queue depths, wait/service times. */
    Stats stats() const;

    /** One open session's queue counters. */
    QueueStats sessionStats(SessionId id) const;

    // ---- drained-session accessors -----------------------------
    // Each drains the session first. The returned reference/pointer
    // stays valid until further events are fed or the session closes.

    /** The session's model (KV cache inspection etc.). */
    const Model &model(SessionId id);

    /** The session's owned policy stack. */
    const PolicyInstance &policy(SessionId id);

    /** Replay stats when the spec enabled memory tracking. */
    const MemoryReplayStats *memoryStats(SessionId id);

    // ---- fidelity evaluation -----------------------------------

    /**
     * Accuracy-proxy evaluation of @p spec on @p script against the
     * full-attention reference (pipeline/accuracy_eval semantics,
     * executed through engine sessions).
     */
    FidelityResult evaluateFidelity(const SessionScript &script,
                                    const PolicySpec &spec);

    /**
     * Evaluate many (script, policy) pairs, running the reference
     * pass and the teacher-forced pass of all jobs concurrently on
     * the pool. Results are returned in job order and are identical
     * to calling evaluateFidelity() sequentially. Opens jobs.size()
     * sessions at once: needs headroom under maxLiveSessions.
     */
    std::vector<FidelityResult>
    evaluateFidelityBatch(const std::vector<FidelityJob> &jobs);

  private:
    struct Session
    {
        SessionOptions options;
        PolicyInstance policy;
        std::unique_ptr<StreamingSession> exec;
        /** True while the session state lives in the cold store
         *  (exec and policy are released). Only touched with
         *  exclusive access to the session (running or pinned). */
        bool hibernated = false;
    };

    /** Executes one dispatch slice (Scheduler callback). */
    void runItems(SessionId id,
                  const std::vector<SessionEvent> &batch);
    /** Executes one fused generation step for every listed session
     *  (Scheduler batch callback; each member advances one token). */
    void runBatch(const std::vector<SessionId> &ids);
    Session *sessionFor(SessionId id);
    Session &pinnedSession(SessionId id);
    /** pinWhenIdle or std::out_of_range for unknown/closed ids. */
    void pinOrThrow(SessionId id);
    /** Pin @p id once drained, wake it if hibernated, and return
     *  fn(session) — the preamble of every drained-session accessor.
     *  The pin is released on return or throw. */
    template <typename Fn>
    decltype(auto) withAwakeSession(SessionId id, Fn &&fn);

    // Hibernation transitions. Callers hold exclusive access to the
    // session (it is running on this worker, or pinned by us).
    /** Build s.policy and s.exec from s.options (policy spec, seed,
     *  factory) — shared by tryCreateSession and wakeSession. */
    void buildExec(Session &s);
    /** Rebuild model/policy from config + seed and restore the cold
     *  blob bit-exactly; erases the blob on success. */
    void wakeSession(SessionId id, Session &s);
    /** Serialize into the cold store, release exec + policy. */
    void hibernateSession(SessionId id, Session &s);
    /** Hibernate idle victims (skipping @p self and busy sessions)
     *  until the resident set fits the budget or no candidate can be
     *  pinned. */
    void enforceBudget(SessionId self);

    EngineConfig cfg;
    ThreadPool pool;
    Scheduler sched;
    /** Cold store for hibernated blobs (config's, or an owned
     *  MemoryColdStore). */
    std::shared_ptr<ColdStore> coldStore;
    KvBudget budget;

    mutable Mutex smu; //!< Guards `sessions` and `nextId` only.
    std::map<SessionId, std::unique_ptr<Session>> sessions
        VREX_GUARDED_BY(smu);
    SessionId nextId VREX_GUARDED_BY(smu) = 1;
};

} // namespace vrex::serve

#endif // VREX_SERVE_ENGINE_HH
