/**
 * @file
 * Deterministic scheduler stress harness for the serve layer.
 *
 * Locks down the PR-4 scheduler guarantees:
 *  - N sessions under seeded-random verb interleavings produce
 *    results byte-identical to sequential StreamingSession replays,
 *    for every (worker count, slice size) combination;
 *  - round-robin fairness: a session waits at most live-1 other
 *    slices between becoming ready and being dispatched;
 *  - admission control (live-session cap) and bounded per-session
 *    queues reject with explicit backpressure results, and the
 *    rejections are exactly countable via serve::Stats;
 *  - Engine error/edge paths: ask before any frame, result on a
 *    rejected admission, double close, verbs after close;
 *  - PolicyFactory::registerMaker with a custom instrumented policy
 *    kind, used to count scheduled unit work items.
 *
 * The seeded-random verb-script generator, the sequential ground
 * truth, and the instrumented CountingPolicy live in testutil.hh so
 * serve_prio_test (priority classes) shares the same deterministic
 * stress harness.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/rng.hh"
#include "pipeline/streaming_session.hh"
#include "retrieval/policies.hh"
#include "serve/engine.hh"
#include "serve/policy_factory.hh"
#include "serve/scheduler.hh"
#include "serve/stats.hh"
#include "testutil.hh"
#include "video/workload.hh"

using namespace vrex;
using namespace vrex::serve;
using testutil::CountingPolicy;
using testutil::expectIdenticalRuns;
using testutil::sequentialReplay;

namespace
{

/** The shared generator under this suite's historical name. */
SessionScript
randomScript(uint64_t seed, size_t index)
{
    return testutil::randomVerbScript(seed, index);
}

std::vector<PolicySpec>
specZoo()
{
    return testutil::policySpecZoo();
}

} // namespace

// ---------------------------------------------------------------
// Unit work items
// ---------------------------------------------------------------

TEST(SchedUnits, GenerateExpandsToSingleSteps)
{
    auto frame = StreamingSession::unitEvents(
        {SessionEvent::Type::Frame, 0});
    ASSERT_EQ(frame.size(), 1u);
    EXPECT_EQ(frame[0].type, SessionEvent::Type::Frame);

    auto question = StreamingSession::unitEvents(
        {SessionEvent::Type::Question, 7});
    ASSERT_EQ(question.size(), 1u);
    EXPECT_EQ(question[0].tokens, 7u);

    auto gen = StreamingSession::unitEvents(
        {SessionEvent::Type::Generate, 5});
    ASSERT_EQ(gen.size(), 5u);
    for (const SessionEvent &e : gen) {
        EXPECT_EQ(e.type, SessionEvent::Type::Generate);
        EXPECT_EQ(e.tokens, 1u);
    }

    EXPECT_TRUE(StreamingSession::unitEvents(
                    {SessionEvent::Type::Generate, 0})
                    .empty());
}

TEST(SchedUnits, UnitReplayIsByteIdenticalToScriptedRun)
{
    ModelConfig model = ModelConfig::tiny();
    SessionScript script = randomScript(901, 0);

    SessionRunResult whole =
        sequentialReplay(model, script, PolicySpec::resv(), 42);

    PolicyInstance inst = makePolicy(model, PolicySpec::resv());
    StreamingSession unit(model, inst.active(), 42);
    unit.begin(script.name, script.video, script.seed);
    for (const SessionEvent &event : script.events)
        for (const SessionEvent &u : StreamingSession::unitEvents(event))
            unit.apply(u);
    expectIdenticalRuns(whole, unit.snapshot());
}

// ---------------------------------------------------------------
// Stress: seeded-random interleavings, concurrent == sequential
// ---------------------------------------------------------------

TEST(SchedStress, SeededRandomInterleavingsMatchSequential)
{
    // 5 sessions with per-session random scripts and mixed policies,
    // fed in seeded-random chunk interleavings, across three
    // scheduler shapes (including slice 0 = no time-slicing). Every
    // concurrent result must equal its sequential replay.
    const ModelConfig model = ModelConfig::tiny();
    const std::vector<PolicySpec> specs = specZoo();
    const size_t kSessions = 5;

    for (const auto &[workers, slice] : testutil::schedShapeZoo()) {
        EngineConfig cfg;
        cfg.model = model;
        cfg.workers = workers;
        cfg.sched.sliceEvents = slice;
        Engine engine(cfg);

        std::vector<SessionScript> scripts;
        std::vector<SessionId> ids;
        for (size_t i = 0; i < kSessions; ++i) {
            scripts.push_back(randomScript(700 + i, i));
            SessionOptions o = SessionOptions::fromScript(scripts[i]);
            o.policy = specs[i % specs.size()];
            o.sessionSeed = 1000 + i;
            ids.push_back(engine.createSession(o));
        }

        // Interleaved feeding: rotate over the sessions, pushing a
        // seeded-random 1..3-event chunk from each script per turn,
        // while earlier chunks are already executing.
        Rng feed(7000 + workers * 31 + slice, "sched-stress-feed");
        std::vector<size_t> cursor(kSessions, 0);
        bool remaining = true;
        while (remaining) {
            remaining = false;
            for (size_t i = 0; i < kSessions; ++i) {
                const auto &events = scripts[i].events;
                if (cursor[i] >= events.size())
                    continue;
                const size_t k = std::min<size_t>(
                    1 + feed.nextU64() % 3,
                    events.size() - cursor[i]);
                engine.enqueue(
                    ids[i],
                    {events.begin() +
                         static_cast<ptrdiff_t>(cursor[i]),
                     events.begin() +
                         static_cast<ptrdiff_t>(cursor[i] + k)});
                cursor[i] += k;
                remaining |= cursor[i] < events.size();
            }
        }

        for (size_t i = 0; i < kSessions; ++i) {
            SessionRunResult concurrent = engine.result(ids[i]);
            engine.closeSession(ids[i]);
            expectIdenticalRuns(
                concurrent,
                sequentialReplay(model, scripts[i],
                                 specs[i % specs.size()], 1000 + i));
        }

        Stats st = engine.stats();
        EXPECT_EQ(st.itemsEnqueued, st.itemsExecuted);
        EXPECT_EQ(st.itemsRejected, 0u);
        EXPECT_EQ(st.rejectedAdmissions, 0u);
        EXPECT_EQ(st.admitted, kSessions);
        EXPECT_EQ(st.liveSessions, 0u);
        EXPECT_EQ(st.maxLiveObserved, kSessions);
        if (slice != 0) {
            EXPECT_LE(st.maxWaitSlices, kSessions - 1);
        }
    }
}

// ---------------------------------------------------------------
// Fairness
// ---------------------------------------------------------------

TEST(SchedFairness, RoundRobinWaitBoundIsExactlyLiveMinusOne)
{
    // Stage a saturated symmetric burst: 4 sessions x 6 frames,
    // slice 1, released at once. FIFO rotation guarantees a session
    // waits at most live-1 = 3 other slices — and the initial burst
    // makes the bound tight, independent of worker count or timing.
    const uint32_t kSessions = 4, kFrames = 6;
    EngineConfig cfg;
    cfg.model = ModelConfig::tiny();
    cfg.workers = 2;
    cfg.sched.sliceEvents = 1;
    Engine engine(cfg);

    engine.pause();
    std::vector<SessionId> ids;
    for (uint32_t i = 0; i < kSessions; ++i) {
        SessionOptions o;
        o.name = "fair-" + std::to_string(i);
        ids.push_back(engine.createSession(o));
        engine.feedFrame(ids[i], kFrames);
    }
    engine.resume();
    engine.waitAll();

    for (SessionId id : ids) {
        QueueStats qs = engine.sessionStats(id);
        EXPECT_EQ(qs.itemsEnqueued, kFrames);
        EXPECT_EQ(qs.itemsExecuted, kFrames);
        EXPECT_EQ(qs.slices, kFrames); // slice 1 => one item each
        EXPECT_EQ(qs.depth, 0u);
        EXPECT_EQ(qs.maxDepth, kFrames);
        EXPECT_LE(qs.maxWaitSlices, kSessions - 1);
    }
    Stats st = engine.stats();
    EXPECT_EQ(st.maxWaitSlices, kSessions - 1);
    EXPECT_EQ(st.slices, uint64_t{kSessions} * kFrames);
    EXPECT_EQ(st.maxQueueDepth, kFrames);
    for (SessionId id : ids)
        engine.closeSession(id);
}

TEST(SchedFairness, ChattySessionCannotStarvePeers)
{
    // One session floods 32 items; two light peers enqueue behind
    // it. Round-robin still bounds every wait by live-1 = 2 — the
    // chatty session only advances one slice per rotation.
    EngineConfig cfg;
    cfg.model = ModelConfig::tiny();
    cfg.workers = 1; // one worker: worst case for starvation
    cfg.sched.sliceEvents = 2;
    Engine engine(cfg);

    engine.pause();
    SessionId chatty = engine.createSession();
    SessionId peer_a = engine.createSession();
    SessionId peer_b = engine.createSession();
    engine.feedFrame(chatty, 32);
    engine.feedFrame(peer_a, 3);
    engine.ask(peer_b, 4, 3);
    engine.resume();
    engine.waitAll();

    EXPECT_LE(engine.sessionStats(peer_a).maxWaitSlices, 2u);
    EXPECT_LE(engine.sessionStats(peer_b).maxWaitSlices, 2u);
    EXPECT_LE(engine.sessionStats(chatty).maxWaitSlices, 2u);
    EXPECT_EQ(engine.sessionStats(chatty).slices, 16u); // 32 / 2
    EXPECT_EQ(engine.stats().maxWaitSlices, 2u);
    EXPECT_EQ(engine.result(peer_b).generated.size(), 3u);
    for (SessionId id : {chatty, peer_a, peer_b})
        engine.closeSession(id);
}

// ---------------------------------------------------------------
// Admission control
// ---------------------------------------------------------------

TEST(SchedAdmission, LiveSessionCapRejectsAndReadmits)
{
    EngineConfig cfg;
    cfg.model = ModelConfig::tiny();
    cfg.workers = 2;
    cfg.sched.maxLiveSessions = 2;
    Engine engine(cfg);

    SessionId a = engine.createSession();
    SessionId b = engine.createSession();
    EXPECT_EQ(engine.openSessions(), 2u);

    Admission rejected = engine.tryCreateSession();
    EXPECT_FALSE(rejected.admitted());
    EXPECT_FALSE(static_cast<bool>(rejected));
    EXPECT_EQ(rejected.status, Admission::Status::RejectedSessionLimit);
    EXPECT_EQ(rejected.id, 0u);
    EXPECT_THROW(engine.createSession(), AdmissionError);

    Stats st = engine.stats();
    EXPECT_EQ(st.admitted, 2u);
    EXPECT_EQ(st.rejectedAdmissions, 2u);
    EXPECT_EQ(st.liveSessions, 2u);
    EXPECT_EQ(st.maxLiveObserved, 2u);
    EXPECT_EQ(st.config.maxLiveSessions, 2u);

    // Re-admission after a close, and the readmitted session still
    // computes the right answer.
    engine.feedFrame(a, 2);
    engine.closeSession(a);
    Admission readmitted = engine.tryCreateSession();
    ASSERT_TRUE(readmitted.admitted());
    EXPECT_NE(readmitted.id, 0u);
    engine.feedFrame(readmitted.id, 3);
    engine.ask(readmitted.id, 4, 2);
    SessionRunResult r = engine.result(readmitted.id);
    EXPECT_EQ(r.frames, 3u);
    EXPECT_EQ(r.generated.size(), 2u);
    EXPECT_EQ(engine.stats().admitted, 3u);
    engine.closeSession(b);
    engine.closeSession(readmitted.id);
}

TEST(SchedAdmission, ThrowingPolicyMakerReleasesSlot)
{
    // A maker that throws during session construction must release
    // the reserved admission slot, or the cap leaks capacity.
    PolicyFactory factory;
    factory.registerMaker(
        PolicyKind::ReKV,
        [](const ModelConfig &,
           const PolicySpec &) -> std::unique_ptr<SelectionPolicy> {
            throw std::runtime_error("maker boom");
        });

    EngineConfig cfg;
    cfg.model = ModelConfig::tiny();
    cfg.workers = 1;
    cfg.sched.maxLiveSessions = 1;
    cfg.factory = &factory;
    Engine engine(cfg);

    SessionOptions bad;
    bad.policy = PolicySpec::rekv(0.5f);
    for (int attempt = 0; attempt < 3; ++attempt)
        EXPECT_THROW(engine.createSession(bad), std::runtime_error);
    EXPECT_EQ(engine.openSessions(), 0u);

    // The failed constructions released their slots: a session with
    // a working policy still fits under maxLiveSessions = 1.
    SessionId ok = engine.createSession();
    engine.ask(ok, 2, 2);
    EXPECT_EQ(engine.result(ok).generated.size(), 2u);
    EXPECT_EQ(engine.stats().liveSessions, 1u);
    engine.closeSession(ok);
}

// ---------------------------------------------------------------
// Bounded queues / backpressure
// ---------------------------------------------------------------

TEST(SchedBackpressure, HugeGenerateIsWeighedNotMaterialized)
{
    // Generate{n} is weighed as n units against the bound but stored
    // as one compressed event: a pathological n is rejected without
    // any expansion-sized allocation, and an in-bound one is split
    // lazily at slice boundaries.
    EngineConfig cfg;
    cfg.model = ModelConfig::tiny();
    cfg.workers = 2;
    cfg.sched.maxQueuedPerSession = 8;
    cfg.sched.sliceEvents = 4;
    Engine engine(cfg);
    SessionId id = engine.createSession();

    EnqueueResult r = engine.tryEnqueue(
        id, {{SessionEvent::Type::Generate, 1000000000u}});
    EXPECT_FALSE(r.accepted());
    EXPECT_EQ(r.items, 1000000000u);
    EXPECT_EQ(r.depth, 0u);

    // Question{2} + Generate{7} = 8 units: exactly at the bound,
    // dispatched as ceil(8/4) = 2 slices.
    EXPECT_TRUE(engine.tryEnqueue(
                        id, {{SessionEvent::Type::Question, 2},
                             {SessionEvent::Type::Generate, 7}})
                    .accepted());
    engine.wait(id);
    QueueStats qs = engine.sessionStats(id);
    EXPECT_EQ(qs.itemsExecuted, 8u);
    EXPECT_EQ(qs.slices, 2u);
    EXPECT_EQ(engine.result(id).generated.size(), 7u);
    engine.closeSession(id);
}

TEST(SchedBackpressure, OverflowingSubmitDoesNotLeakSession)
{
    // submit() opens a session before enqueueing the script; when
    // the script overflows a bounded queue, the session must be
    // closed again — the caller never got the id, so a survivor
    // would hold its admission slot forever.
    EngineConfig cfg;
    cfg.model = ModelConfig::tiny();
    cfg.workers = 1;
    cfg.sched.maxLiveSessions = 1;
    cfg.sched.maxQueuedPerSession = 4;
    Engine engine(cfg);

    SessionScript big = WorkloadGenerator::coinAverage(90);
    for (int attempt = 0; attempt < 3; ++attempt) {
        EXPECT_THROW(engine.submit(big), QueueFullError);
        EXPECT_EQ(engine.openSessions(), 0u);
    }

    // The admission slot is free: a small script still fits.
    SessionScript small = big;
    small.events = {{SessionEvent::Type::Question, 2},
                    {SessionEvent::Type::Generate, 2}};
    SessionId id = engine.submit(small);
    EXPECT_EQ(engine.result(id).generated.size(), 2u);
    engine.closeSession(id);
}

TEST(SchedBackpressure, BoundedQueueRejectsDeterministically)
{
    EngineConfig cfg;
    cfg.model = ModelConfig::tiny();
    cfg.workers = 2;
    cfg.sched.maxQueuedPerSession = 5;
    cfg.sched.sliceEvents = 2;
    Engine engine(cfg);

    SessionId id = engine.createSession();
    engine.pause(); // Freeze dispatch: queue depths are exact.

    EnqueueResult r = engine.tryFeedFrame(id, 3);
    EXPECT_TRUE(r.accepted());
    EXPECT_EQ(r.items, 3u);
    EXPECT_EQ(r.depth, 3u);

    r = engine.tryFeedFrame(id, 3); // 3 + 3 > 5
    EXPECT_FALSE(r.accepted());
    EXPECT_EQ(r.status, EnqueueResult::Status::RejectedQueueFull);
    EXPECT_EQ(r.depth, 3u); // all-or-nothing: nothing was queued

    r = engine.tryAsk(id, 2, 4); // units: 1 question + 4 steps = 5
    EXPECT_FALSE(r.accepted());
    EXPECT_EQ(r.items, 5u);

    r = engine.tryFeedFrame(id, 2); // exactly to the cap
    EXPECT_TRUE(r.accepted());
    EXPECT_EQ(r.depth, 5u);

    EXPECT_THROW(engine.feedFrame(id), QueueFullError);
    EXPECT_THROW(engine.ask(id, 1, 1), QueueFullError);

    QueueStats qs = engine.sessionStats(id);
    EXPECT_EQ(qs.itemsEnqueued, 5u);
    EXPECT_EQ(qs.itemsRejected, 3u + 5u + 1u + 2u);
    EXPECT_EQ(qs.depth, 5u);
    EXPECT_EQ(qs.maxDepth, 5u);

    engine.resume();
    engine.wait(id);
    EXPECT_EQ(engine.sessionStats(id).depth, 0u);

    // Drained: the previously rejected QA round now fits, and the
    // whole session equals its sequential replay.
    EXPECT_TRUE(engine.tryAsk(id, 2, 4).accepted());
    SessionRunResult concurrent = engine.result(id);
    EXPECT_EQ(concurrent.frames, 5u);
    ASSERT_EQ(concurrent.generated.size(), 4u);

    SessionScript script;
    script.name = "session";
    script.events.assign(5, {SessionEvent::Type::Frame, 0});
    script.events.push_back({SessionEvent::Type::Question, 2});
    script.events.push_back({SessionEvent::Type::Generate, 4});
    expectIdenticalRuns(
        concurrent, sequentialReplay(cfg.model, script,
                                     PolicySpec::full(), 42));
    engine.closeSession(id);
}

// ---------------------------------------------------------------
// Engine error / edge paths
// ---------------------------------------------------------------

TEST(SchedEdge, AskBeforeAnyFeedFrameMatchesSequential)
{
    EngineConfig cfg;
    cfg.model = ModelConfig::tiny();
    cfg.workers = 2;
    cfg.policy = PolicySpec::resv();
    Engine engine(cfg);

    SessionId id = engine.createSession();
    engine.ask(id, 5, 4); // No frame was ever fed.
    SessionRunResult r = engine.result(id);
    engine.closeSession(id);
    EXPECT_EQ(r.frames, 0u);
    ASSERT_EQ(r.generated.size(), 4u);

    SessionScript script;
    script.name = "session";
    script.events = {{SessionEvent::Type::Question, 5},
                     {SessionEvent::Type::Generate, 4}};
    expectIdenticalRuns(
        r, sequentialReplay(cfg.model, script, PolicySpec::resv(), 42));
}

TEST(SchedEdge, ZeroTokenQuestionIsANoOp)
{
    // ask(id, 0, n) is a legal verb: the empty question adds nothing
    // to the cache and the answer runs from the frame's state.
    EngineConfig cfg;
    cfg.model = ModelConfig::tiny();
    cfg.workers = 2;
    cfg.policy = PolicySpec::resv();
    Engine engine(cfg);

    SessionId id = engine.createSession();
    engine.feedFrame(id);
    engine.ask(id, 0, 2);
    SessionRunResult r = engine.result(id);
    engine.closeSession(id);
    ASSERT_EQ(r.generated.size(), 2u);

    SessionScript script;
    script.name = "session";
    script.events = {{SessionEvent::Type::Frame, 0},
                     {SessionEvent::Type::Question, 0},
                     {SessionEvent::Type::Generate, 2}};
    const SessionRunResult seq =
        sequentialReplay(cfg.model, script, PolicySpec::resv(), 42);
    EXPECT_EQ(r.totalTokens, seq.totalTokens);
    EXPECT_EQ(seq.totalTokens, script.video.tokensPerFrame + 2);
    expectIdenticalRuns(r, seq);
}

TEST(SchedEdge, ResultOnRejectedAdmissionThrows)
{
    EngineConfig cfg;
    cfg.model = ModelConfig::tiny();
    cfg.workers = 1;
    cfg.sched.maxLiveSessions = 1;
    Engine engine(cfg);

    SessionId live = engine.createSession();
    Admission rejected = engine.tryCreateSession();
    ASSERT_FALSE(rejected.admitted());
    EXPECT_THROW(engine.result(rejected.id), std::out_of_range);
    EXPECT_THROW(engine.wait(rejected.id), std::out_of_range);
    EXPECT_THROW(engine.sessionStats(rejected.id), std::out_of_range);
    engine.closeSession(live);
}

TEST(SchedEdge, DoubleCloseAndVerbsAfterClose)
{
    EngineConfig cfg;
    cfg.model = ModelConfig::tiny();
    cfg.workers = 1;
    Engine engine(cfg);

    SessionId id = engine.createSession();
    engine.feedFrame(id, 2);
    engine.closeSession(id);

    EXPECT_THROW(engine.closeSession(id), std::out_of_range);
    EXPECT_THROW(engine.feedFrame(id), std::out_of_range);
    EXPECT_THROW(engine.tryFeedFrame(id), std::out_of_range);
    // Zero-unit batches still validate the id.
    EXPECT_THROW(engine.feedFrame(id, 0), std::out_of_range);
    EXPECT_THROW(engine.tryEnqueue(id, {}), std::out_of_range);
    EXPECT_THROW(engine.tryAsk(id, 1, 1), std::out_of_range);
    EXPECT_THROW(engine.wait(id), std::out_of_range);
    EXPECT_THROW(engine.result(id), std::out_of_range);
    EXPECT_THROW(engine.sessionStats(id), std::out_of_range);

    // The engine stays serviceable after the error paths.
    SessionId next = engine.createSession();
    engine.ask(next, 3, 2);
    EXPECT_EQ(engine.result(next).generated.size(), 2u);
    engine.closeSession(next);
}

// ---------------------------------------------------------------
// Custom policy kinds (PolicyFactory::registerMaker)
// ---------------------------------------------------------------

TEST(SchedPolicy, RegisteredCustomKindCountsScheduledWorkItems)
{
    // Override the ReKV kind with an instrumented decorator in a
    // *local* registry (the global factory stays untouched), inject
    // it via EngineConfig::factory, and verify that the number of
    // executed model blocks equals the scheduler's unit-work-item
    // count — and that instrumentation does not perturb results.
    std::atomic<uint64_t> blocks{0};
    PolicyFactory factory;
    factory.registerMaker(
        PolicyKind::ReKV,
        [&blocks](const ModelConfig &m, const PolicySpec &spec) {
            ReKVConfig c;
            c.ratio = spec.ratio;
            return std::make_unique<CountingPolicy>(
                std::make_unique<ReKVPolicy>(m, c), &blocks);
        });

    EngineConfig cfg;
    cfg.model = ModelConfig::tiny();
    cfg.workers = 3;
    cfg.sched.sliceEvents = 2;
    cfg.factory = &factory;
    cfg.policy = PolicySpec::rekv(0.4f);
    Engine engine(cfg);

    uint64_t expected_items = 0;
    std::vector<SessionScript> scripts;
    std::vector<SessionId> ids;
    for (size_t i = 0; i < 3; ++i) {
        scripts.push_back(randomScript(820 + i, i));
        for (const SessionEvent &e : scripts[i].events)
            expected_items +=
                e.type == SessionEvent::Type::Generate ? e.tokens : 1;
        ids.push_back(engine.submit(scripts[i]));
    }
    engine.waitAll();

    EXPECT_EQ(blocks.load(), expected_items);
    EXPECT_EQ(engine.stats().itemsExecuted, expected_items);

    // The decorator forwards verbatim: results match the sequential
    // replay under the *plain* global-factory ReKV policy.
    for (size_t i = 0; i < ids.size(); ++i) {
        SessionRunResult concurrent = engine.result(ids[i]);
        engine.closeSession(ids[i]);
        expectIdenticalRuns(
            concurrent, sequentialReplay(cfg.model, scripts[i],
                                         PolicySpec::rekv(0.4f), 42));
    }
    EXPECT_EQ(blocks.load(), expected_items); // result() runs nothing
}

// ---------------------------------------------------------------
// Stats accounting / ingest-generation overlap granularity
// ---------------------------------------------------------------

TEST(SchedStats, SlicedGenerationAndExactAccounting)
{
    // One staged session: 7 frames + Question{6} + Generate{9} =
    // 17 unit items. With slice 4 the scheduler must run exactly
    // ceil(17/4) = 5 slices — proof that generation is dispatched as
    // single-token steps (the overlap grain), not one opaque event.
    EngineConfig cfg;
    cfg.model = ModelConfig::tiny();
    cfg.workers = 2;
    cfg.sched.sliceEvents = 4;
    Engine engine(cfg);

    SessionId id = engine.createSession();
    engine.pause();
    engine.feedFrame(id, 7);
    engine.ask(id, 6, 9);
    QueueStats staged = engine.sessionStats(id);
    EXPECT_EQ(staged.depth, 17u);
    EXPECT_EQ(staged.maxDepth, 17u);
    EXPECT_EQ(staged.itemsEnqueued, 17u);
    engine.resume();
    engine.wait(id);

    QueueStats qs = engine.sessionStats(id);
    EXPECT_EQ(qs.itemsExecuted, 17u);
    EXPECT_EQ(qs.slices, 5u);
    EXPECT_EQ(qs.depth, 0u);
    EXPECT_EQ(qs.maxWaitSlices, 0u); // nothing else ever queued

    Stats st = engine.stats();
    EXPECT_EQ(st.itemsEnqueued, 17u);
    EXPECT_EQ(st.itemsExecuted, 17u);
    EXPECT_EQ(st.slices, 5u);
    EXPECT_EQ(st.maxQueueDepth, 17u);
    EXPECT_EQ(st.config.sliceEvents, 4u);
    EXPECT_GE(st.meanServiceMs(), 0.0);
    EXPECT_GE(st.meanWaitMs(), 0.0);

    SessionRunResult r = engine.result(id);
    EXPECT_EQ(r.frames, 7u);
    EXPECT_EQ(r.generated.size(), 9u);
    engine.closeSession(id);
}
