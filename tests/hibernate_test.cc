/**
 * @file
 * Session hibernation tests (ctest label: hibernate).
 *
 * Locks the PR-7 contracts:
 *  - serial framing rejects truncation, corruption, foreign blobs and
 *    cross-version restores before any payload is interpreted;
 *  - StreamingSession::serialize/restore is bit-exact: a session
 *    restored at any event boundary continues byte-identically to one
 *    that never hibernated, for every policy kind (including the
 *    memory-tracking decorator), and re-serializing a restored
 *    session reproduces the original blob byte for byte;
 *  - the ColdStore implementations store/fetch/erase blobs and
 *    account traffic (FileColdStore persists across instances);
 *  - KvBudget selects victims Bulk-first / least-recently-executed
 *    and keeps resident-byte accounting through transitions;
 *  - the Engine hibernates under a tiny KV budget and wakes
 *    transparently on the next verb or drained accessor, with
 *    per-session results identical to sequential ground truth across
 *    the scheduler shape zoo; the default budget of 0 changes
 *    nothing.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "common/serial.hh"
#include "kvstore/cold_store.hh"
#include "serve/engine.hh"
#include "serve/kv_budget.hh"
#include "testutil.hh"

using namespace vrex;
using namespace vrex::testutil;

namespace
{

/** Every policy kind plus the replay-decorated ReSV variant. */
std::vector<serve::PolicySpec>
hibernateSpecZoo()
{
    std::vector<serve::PolicySpec> specs = policySpecZoo();
    TierConfig tiers;
    tiers.deviceKvCapacityBytes = 4096;
    specs.push_back(serve::PolicySpec::resv().withMemoryTracking(tiers));
    return specs;
}

/** Re-seal @p blob after editing: recompute the footer checksum. */
void
resealBlob(std::vector<uint8_t> &blob)
{
    const size_t body = blob.size() - sizeof(uint64_t);
    const uint64_t sum = serial::fnv1a64(blob.data(), body);
    std::memcpy(blob.data() + body, &sum, sizeof(sum));
}

/** A fresh (unbegun) session for (model, spec, seed); the policy
 *  instance must outlive the session. */
StreamingSession
freshSession(const ModelConfig &model, const serve::PolicySpec &spec,
             uint64_t seed, serve::PolicyInstance &holder)
{
    holder = serve::makePolicy(model, spec);
    return StreamingSession(model, holder.active(), seed);
}

} // namespace

// ---------------------------------------------------------------
// serial framing
// ---------------------------------------------------------------

TEST(Serial, PrimitiveRoundTrip)
{
    serial::ByteWriter w(7);
    w.put<uint32_t>(0xdeadbeefu);
    w.put<uint64_t>(0x0123456789abcdefull);
    w.put<double>(-0.1);
    w.putBool(true);
    w.putBool(false);
    w.putString("hibernate");
    w.putString("");
    w.putVec<float>({1.5f, -2.25f, 0.0f});
    w.putVec<uint32_t>({});
    std::vector<uint8_t> blob = w.finish();

    serial::ByteReader r(blob, 7);
    EXPECT_EQ(r.get<uint32_t>(), 0xdeadbeefu);
    EXPECT_EQ(r.get<uint64_t>(), 0x0123456789abcdefull);
    EXPECT_EQ(r.get<double>(), -0.1);
    EXPECT_TRUE(r.getBool());
    EXPECT_FALSE(r.getBool());
    EXPECT_EQ(r.getString(), "hibernate");
    EXPECT_EQ(r.getString(), "");
    EXPECT_EQ(r.getVec<float>(), (std::vector<float>{1.5f, -2.25f, 0.0f}));
    EXPECT_TRUE(r.getVec<uint32_t>().empty());
    r.expectEnd();
}

TEST(Serial, RejectsTruncation)
{
    serial::ByteWriter w(1);
    w.putVec<uint64_t>({1, 2, 3, 4});
    std::vector<uint8_t> blob = w.finish();
    for (size_t keep : {size_t(0), size_t(7), size_t(15),
                        blob.size() - 1}) {
        std::vector<uint8_t> cut(blob.begin(), blob.begin() + keep);
        EXPECT_THROW(serial::ByteReader(cut, 1), serial::SerialError)
            << "kept " << keep << " bytes";
    }
}

TEST(Serial, RejectsCorruption)
{
    serial::ByteWriter w(1);
    w.putString("payload-payload-payload");
    std::vector<uint8_t> blob = w.finish();
    // Any flipped byte — header, payload, or footer — must be caught
    // by the checksum (or the checksum itself no longer matches).
    for (size_t at = 0; at < blob.size(); at += 3) {
        std::vector<uint8_t> bad = blob;
        bad[at] ^= 0x40;
        EXPECT_THROW(serial::ByteReader(bad, 1), serial::SerialError)
            << "flipped byte " << at;
    }
}

TEST(Serial, RejectsForeignMagic)
{
    serial::ByteWriter w(1);
    w.put<uint32_t>(99);
    std::vector<uint8_t> blob = w.finish();
    std::memcpy(blob.data(), "JUNK", 4);
    resealBlob(blob); // Valid checksum, wrong magic.
    EXPECT_THROW(serial::ByteReader(blob, 1), serial::SerialError);
}

TEST(Serial, RejectsCrossVersion)
{
    serial::ByteWriter w(2);
    w.put<uint32_t>(99);
    std::vector<uint8_t> blob = w.finish();
    EXPECT_THROW(serial::ByteReader(blob, 1), serial::SerialError);
    EXPECT_NO_THROW(serial::ByteReader(blob, 2));
}

TEST(Serial, RejectsOversizedVectorLength)
{
    serial::ByteWriter w(1);
    w.put<uint64_t>(uint64_t(1) << 60); // Insane element count.
    std::vector<uint8_t> blob = w.finish();
    serial::ByteReader r(blob, 1);
    EXPECT_THROW((void)r.getVec<uint32_t>(), serial::SerialError);
}

TEST(Serial, ExpectEndCatchesTrailingPayload)
{
    serial::ByteWriter w(1);
    w.put<uint32_t>(1);
    w.put<uint32_t>(2);
    std::vector<uint8_t> blob = w.finish();
    serial::ByteReader r(blob, 1);
    EXPECT_EQ(r.get<uint32_t>(), 1u);
    EXPECT_THROW(r.expectEnd(), serial::SerialError);
    EXPECT_EQ(r.get<uint32_t>(), 2u);
    EXPECT_NO_THROW(r.expectEnd());
}

// ---------------------------------------------------------------
// StreamingSession serialize/restore
// ---------------------------------------------------------------

TEST(SessionSerialize, MidRunRestoreMatchesUninterrupted)
{
    const ModelConfig model = ModelConfig::tiny();
    const uint64_t seed = 77;
    const auto specs = hibernateSpecZoo();
    for (size_t i = 0; i < specs.size(); ++i) {
        SCOPED_TRACE("spec " + std::to_string(i));
        const serve::PolicySpec &spec = specs[i];
        SessionScript script = randomVerbScript(900 + i, i);
        const SessionRunResult ref =
            sequentialReplay(model, script, spec, seed);

        // Run half the script, hibernate, restore onto a fresh
        // equivalent session, finish there.
        const size_t cut = script.events.size() / 2;
        serve::PolicyInstance p1;
        StreamingSession s1 = freshSession(model, spec, seed, p1);
        s1.begin(script.name, script.video, script.seed);
        for (size_t e = 0; e < cut; ++e)
            s1.apply(script.events[e]);
        const std::vector<uint8_t> blob = s1.serialize();

        serve::PolicyInstance p2;
        StreamingSession s2 = freshSession(model, spec, seed, p2);
        s2.restore(blob);
        // A restored session re-serializes to the identical blob.
        EXPECT_EQ(s2.serialize(), blob);
        for (size_t e = cut; e < script.events.size(); ++e)
            s2.apply(script.events[e]);
        expectIdenticalRuns(s2.snapshot(), ref);
    }
}

TEST(SessionSerialize, EveryEventBoundaryIsARestorePoint)
{
    const ModelConfig model = ModelConfig::tiny();
    const uint64_t seed = 31;
    ResvConfig rc;
    rc.thrWics = 0.4f;
    const serve::PolicySpec spec = serve::PolicySpec::resv(rc);
    SessionScript script = randomVerbScript(333, 0);
    const SessionRunResult ref =
        sequentialReplay(model, script, spec, seed);

    for (size_t cut = 0; cut <= script.events.size(); ++cut) {
        SCOPED_TRACE("cut " + std::to_string(cut));
        serve::PolicyInstance p1;
        StreamingSession s1 = freshSession(model, spec, seed, p1);
        s1.begin(script.name, script.video, script.seed);
        for (size_t e = 0; e < cut; ++e)
            s1.apply(script.events[e]);
        const std::vector<uint8_t> blob = s1.serialize();

        serve::PolicyInstance p2;
        StreamingSession s2 = freshSession(model, spec, seed, p2);
        s2.restore(blob);
        for (size_t e = cut; e < script.events.size(); ++e)
            s2.apply(script.events[e]);
        expectIdenticalRuns(s2.snapshot(), ref);
    }
}

TEST(SessionSerialize, RestoredSessionKeepsTeacherForcing)
{
    const ModelConfig model = ModelConfig::tiny();
    const serve::PolicySpec spec = serve::PolicySpec::full();
    SessionScript script = randomVerbScript(555, 2);

    // Reference: forced run, uninterrupted.
    serve::PolicyInstance pr;
    StreamingSession sr = freshSession(model, spec, 9, pr);
    const std::vector<uint32_t> forced(24, 3);
    const SessionRunResult ref = sr.run(script, forced);

    serve::PolicyInstance p1;
    StreamingSession s1 = freshSession(model, spec, 9, p1);
    s1.begin(script.name, script.video, script.seed, forced);
    const size_t cut = script.events.size() / 2;
    for (size_t e = 0; e < cut; ++e)
        s1.apply(script.events[e]);
    const std::vector<uint8_t> blob = s1.serialize();

    serve::PolicyInstance p2;
    StreamingSession s2 = freshSession(model, spec, 9, p2);
    s2.restore(blob); // Forced tokens + position travel in the blob.
    for (size_t e = cut; e < script.events.size(); ++e)
        s2.apply(script.events[e]);
    expectIdenticalRuns(s2.snapshot(), ref);
}

TEST(SessionSerialize, RejectsCorruptionTruncationAndVersionSkew)
{
    const ModelConfig model = ModelConfig::tiny();
    const serve::PolicySpec spec = serve::PolicySpec::rekv(0.3f);
    SessionScript script = randomVerbScript(444, 1);

    serve::PolicyInstance p1;
    StreamingSession s1 = freshSession(model, spec, 5, p1);
    s1.begin(script.name, script.video, script.seed);
    for (size_t e = 0; e < script.events.size() / 2; ++e)
        s1.apply(script.events[e]);
    const std::vector<uint8_t> blob = s1.serialize();

    serve::PolicyInstance p2;
    StreamingSession s2 = freshSession(model, spec, 5, p2);

    // Corruption: flipped bytes across the blob.
    for (size_t at = 0; at < blob.size();
         at += std::max<size_t>(1, blob.size() / 13)) {
        std::vector<uint8_t> bad = blob;
        bad[at] ^= 0x01;
        EXPECT_THROW(s2.restore(bad), serial::SerialError)
            << "flipped byte " << at;
    }

    // Truncation at several points.
    for (size_t keep : {size_t(0), size_t(10), blob.size() / 2,
                        blob.size() - 1}) {
        std::vector<uint8_t> cut(blob.begin(), blob.begin() + keep);
        EXPECT_THROW(s2.restore(cut), serial::SerialError)
            << "kept " << keep << " bytes";
    }

    // Version skew: bump the version field, re-seal the checksum —
    // the reader must refuse on version, not checksum.
    std::vector<uint8_t> skewed = blob;
    const uint32_t next = StreamingSession::kBlobVersion + 1;
    std::memcpy(skewed.data() + sizeof(uint32_t), &next, sizeof(next));
    resealBlob(skewed);
    EXPECT_THROW(s2.restore(skewed), serial::SerialError);

    // The unmodified blob still restores fine afterwards.
    EXPECT_NO_THROW(s2.restore(blob));
}

TEST(SessionSerialize, RejectsIdentityMismatch)
{
    const ModelConfig model = ModelConfig::tiny();
    const serve::PolicySpec spec = serve::PolicySpec::flexgen();
    SessionScript script = randomVerbScript(666, 3);

    serve::PolicyInstance p1;
    StreamingSession s1 = freshSession(model, spec, 21, p1);
    s1.begin(script.name, script.video, script.seed);
    for (size_t e = 0; e < 4; ++e)
        s1.apply(script.events[e]);
    const std::vector<uint8_t> blob = s1.serialize();

    // Wrong master seed.
    serve::PolicyInstance p2;
    StreamingSession other_seed = freshSession(model, spec, 22, p2);
    EXPECT_THROW(other_seed.restore(blob), serial::SerialError);

    // Wrong model config: every field ModelConfig::operator==
    // compares is part of the blob identity, changed one at a time
    // (each variant is still a valid geometry).
    const std::vector<std::pair<const char *, void (*)(ModelConfig &)>>
        variants = {
            {"name", [](ModelConfig &c) { c.name += "-other"; }},
            {"nLayers", [](ModelConfig &c) { c.nLayers += 1; }},
            {"dModel", [](ModelConfig &c) { c.dModel *= 2; }},
            {"nHeads", [](ModelConfig &c) { c.nHeads /= 2; }},
            {"nKvHeads", [](ModelConfig &c) { c.nKvHeads /= 2; }},
            {"ffnDim", [](ModelConfig &c) { c.ffnDim += 64; }},
            {"vocabSize", [](ModelConfig &c) { c.vocabSize += 1; }},
            {"ropeTheta", [](ModelConfig &c) { c.ropeTheta *= 2.0f; }},
        };
    for (const auto &[field, mutate] : variants) {
        ModelConfig changed = model;
        mutate(changed);
        ASSERT_FALSE(changed == model) << field;
        serve::PolicyInstance p3;
        StreamingSession other_cfg = freshSession(changed, spec, 21, p3);
        EXPECT_THROW(other_cfg.restore(blob), serial::SerialError)
            << field;
    }

    // Policy-presence mismatch: blob carries policy state, the
    // restoring session runs full attention with no policy.
    StreamingSession no_policy(model, nullptr, 21);
    EXPECT_THROW(no_policy.restore(blob), serial::SerialError);

    // And the mirror image: policy-less blob into a policied session.
    StreamingSession bare(model, nullptr, 21);
    bare.begin(script.name, script.video, script.seed);
    bare.apply(script.events[0]);
    const std::vector<uint8_t> bare_blob = bare.serialize();
    serve::PolicyInstance p4;
    StreamingSession policied = freshSession(model, spec, 21, p4);
    EXPECT_THROW(policied.restore(bare_blob), serial::SerialError);
}

// ---------------------------------------------------------------
// ColdStore
// ---------------------------------------------------------------

TEST(ColdStore, MemoryStoreRoundTrip)
{
    MemoryColdStore store;
    EXPECT_EQ(store.tier(), Tier::CpuMem);
    EXPECT_EQ(store.count(), 0u);
    EXPECT_FALSE(store.contains(7));
    EXPECT_THROW((void)store.get(7), std::out_of_range);

    const std::vector<uint8_t> a{1, 2, 3}, b{4, 5, 6, 7};
    store.put(7, a);
    store.put(9, b);
    EXPECT_TRUE(store.contains(7));
    EXPECT_EQ(store.get(7), a);
    EXPECT_EQ(store.get(9), b);
    EXPECT_EQ(store.count(), 2u);
    EXPECT_EQ(store.totalBytes(), 7u);

    // Replacement: bytes update, count does not.
    store.put(7, b);
    EXPECT_EQ(store.count(), 2u);
    EXPECT_EQ(store.totalBytes(), 8u);

    store.erase(7);
    EXPECT_FALSE(store.contains(7));
    EXPECT_EQ(store.count(), 1u);
    store.erase(7); // No-op when absent.

    const TransferStats xs = store.stats();
    EXPECT_EQ(xs.offloadedBytes, 3u + 4u + 4u); // Three puts.
    EXPECT_EQ(xs.fetchedBytes, 3u + 4u);        // Two gets.
}

TEST(ColdStore, FileStorePersistsAcrossInstances)
{
    const std::string dir = ::testing::TempDir() + "/vrex-cold-" +
        std::to_string(::getpid());
    std::filesystem::remove_all(dir);

    const std::vector<uint8_t> blob{9, 8, 7, 6, 5};
    {
        FileColdStore store(dir);
        EXPECT_EQ(store.tier(), Tier::Storage);
        store.put(42, blob);
        EXPECT_TRUE(store.contains(42));
        EXPECT_EQ(store.totalBytes(), blob.size());
    }
    {
        // A new instance over the same directory sees the blob —
        // crash-surviving sessions can be recovered.
        FileColdStore store(dir);
        EXPECT_TRUE(store.contains(42));
        EXPECT_EQ(store.get(42), blob);
        EXPECT_EQ(store.count(), 1u);
        EXPECT_THROW((void)store.get(43), std::out_of_range);
        store.erase(42);
        EXPECT_FALSE(store.contains(42));
        EXPECT_EQ(store.count(), 0u);
    }
    std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------
// KvBudget accounting + victim selection
// ---------------------------------------------------------------

TEST(KvBudget, VictimOrderBulkFirstThenLru)
{
    serve::KvBudgetConfig cfg;
    cfg.budgetBytes = 100;
    serve::KvBudget b(cfg);
    EXPECT_TRUE(b.enabled());

    b.onAdmit(1, serve::SchedClass::Interactive);
    b.onAdmit(2, serve::SchedClass::Bulk);
    b.onAdmit(3, serve::SchedClass::Bulk);
    b.onAdmit(4, serve::SchedClass::Interactive);
    b.onExecuted(1, 50);
    b.onExecuted(2, 50);
    b.onExecuted(3, 50);
    b.onExecuted(4, 50);
    EXPECT_EQ(b.residentBytes(), 200u);
    EXPECT_TRUE(b.overBudget());

    // Bulk (2 then 3, execution order) before Interactive (1 then 4);
    // the excluded self never appears.
    EXPECT_EQ(b.victims(0),
              (std::vector<uint64_t>{2, 3, 1, 4}));
    EXPECT_EQ(b.victims(1), (std::vector<uint64_t>{2, 3, 4}));

    // Re-execution refreshes recency: 2 moves behind 3.
    b.onExecuted(2, 50);
    EXPECT_EQ(b.victims(0), (std::vector<uint64_t>{3, 2, 1, 4}));

    // A class change re-ranks immediately but preserves recency:
    // 1 (tick from its first execution) is now the oldest Bulk
    // session and jumps to the front of the victim list.
    b.setClass(1, serve::SchedClass::Bulk);
    EXPECT_EQ(b.victims(0), (std::vector<uint64_t>{1, 3, 2, 4}));
}

TEST(KvBudget, TransitionsMoveResidentBytes)
{
    serve::KvBudgetConfig cfg;
    cfg.budgetBytes = 80;
    serve::KvBudget b(cfg);
    b.onAdmit(1, serve::SchedClass::Interactive);
    b.onAdmit(2, serve::SchedClass::Interactive);
    b.onExecuted(1, 60);
    b.onExecuted(2, 60);
    EXPECT_TRUE(b.overBudget());

    b.markHibernated(1, /*blob_bytes=*/30, /*ns=*/1000);
    EXPECT_TRUE(b.hibernated(1));
    EXPECT_EQ(b.residentBytes(), 60u);
    EXPECT_FALSE(b.overBudget());
    // Hibernated sessions never appear as victims.
    EXPECT_EQ(b.victims(0), std::vector<uint64_t>{2});

    b.markWoken(1, /*kv_bytes=*/60, /*blob_bytes=*/30, /*ns=*/2000);
    EXPECT_FALSE(b.hibernated(1));
    EXPECT_EQ(b.residentBytes(), 120u);

    b.onClose(2);
    EXPECT_EQ(b.residentBytes(), 60u);

    MemoryColdStore store;
    const serve::KvBudgetStats s = b.snapshot(store);
    EXPECT_EQ(s.budgetBytes, 80u);
    EXPECT_EQ(s.residentBytes, 60u);
    EXPECT_EQ(s.residentSessions, 1u);
    EXPECT_EQ(s.hibernatedSessions, 0u);
    EXPECT_EQ(s.hibernates, 1u);
    EXPECT_EQ(s.wakes, 1u);
    EXPECT_EQ(s.hibernatedBytes, 30u);
    EXPECT_EQ(s.wokenBytes, 30u);
    EXPECT_EQ(s.hibernateLatency.samples(), 1u);
    EXPECT_EQ(s.wakeLatency.samples(), 1u);
}

// ---------------------------------------------------------------
// Engine hibernation
// ---------------------------------------------------------------

TEST(EngineHibernate, ResultsMatchSequentialUnderTinyBudget)
{
    const ModelConfig model = ModelConfig::tiny();
    const auto specs = hibernateSpecZoo();
    const auto scripts = randomVerbScripts(specs.size(), 7100);

    for (const SchedShape &shape : schedShapeZoo()) {
        SCOPED_TRACE("workers " + std::to_string(shape.workers) +
                     " slice " + std::to_string(shape.sliceEvents));
        serve::EngineConfig cfg;
        cfg.model = model;
        cfg.workers = shape.workers;
        cfg.sched.sliceEvents = shape.sliceEvents;
        // A budget every non-empty session overflows alone: maximal
        // hibernate/wake churn.
        cfg.kvBudget.budgetBytes = 1;
        serve::Engine engine(cfg);

        std::vector<serve::SessionId> ids;
        for (size_t i = 0; i < specs.size(); ++i) {
            serve::SessionOptions o;
            o.policy = specs[i];
            ids.push_back(engine.submit(scripts[i], o));
        }
        engine.waitAll();

        const serve::KvBudgetStats kv = engine.stats().kv;
        EXPECT_GT(kv.hibernates, 0u);
        EXPECT_EQ(kv.hibernates, kv.hibernateLatency.samples());
        // After the final sweep at most the sweeping session itself
        // is resident.
        EXPECT_LE(kv.residentSessions, 1u);

        // Despite the churn, every session is byte-identical to its
        // sequential ground truth (result() wakes hibernated ones).
        for (size_t i = 0; i < ids.size(); ++i) {
            SCOPED_TRACE("session " + std::to_string(i));
            expectIdenticalRuns(
                engine.result(ids[i]),
                sequentialReplay(model, scripts[i], specs[i],
                                 cfg.sessionSeed));
        }
        EXPECT_GT(engine.stats().kv.wakes, 0u);
        for (serve::SessionId id : ids)
            engine.closeSession(id);
    }
}

TEST(EngineHibernate, VerbWakesHibernatedSession)
{
    const ModelConfig model = ModelConfig::tiny();
    const serve::PolicySpec spec = serve::PolicySpec::resv();
    SessionScript script = randomVerbScript(8200, 0);
    const size_t cut = script.events.size() / 2;

    serve::EngineConfig cfg;
    cfg.model = model;
    cfg.workers = 1;
    cfg.policy = spec;
    cfg.kvBudget.budgetBytes = 1;
    serve::Engine engine(cfg);

    // A runs half its script, then B's slices find A idle and
    // hibernate it (both overflow the 1-byte budget).
    serve::SessionOptions oa = serve::SessionOptions::fromScript(script);
    serve::SessionId a = engine.createSession(oa);
    engine.enqueue(a, std::vector<SessionEvent>(
                          script.events.begin(),
                          script.events.begin() + cut));
    engine.waitAll();

    SessionScript other = randomVerbScript(8300, 1);
    serve::SessionId b = engine.submit(other);
    engine.waitAll();

    serve::KvBudgetStats kv = engine.stats().kv;
    EXPECT_GT(kv.hibernates, 0u);
    EXPECT_GE(kv.hibernatedSessions, 1u);
    EXPECT_GT(kv.coldBytes, 0u);

    // Feeding the second half wakes A transparently on dispatch.
    engine.enqueue(a, std::vector<SessionEvent>(
                          script.events.begin() + cut,
                          script.events.end()));
    engine.waitAll();
    kv = engine.stats().kv;
    EXPECT_GT(kv.wakes, 0u);
    EXPECT_EQ(kv.wakes, kv.wakeLatency.samples());

    expectIdenticalRuns(
        engine.result(a),
        sequentialReplay(model, script, spec, cfg.sessionSeed));
    engine.closeSession(a);
    engine.closeSession(b);
}

TEST(EngineHibernate, DrainedAccessorsWake)
{
    const ModelConfig model = ModelConfig::tiny();
    TierConfig tiers;
    tiers.deviceKvCapacityBytes = 4096;
    const serve::PolicySpec spec =
        serve::PolicySpec::resv().withMemoryTracking(tiers);

    serve::EngineConfig cfg;
    cfg.model = model;
    cfg.workers = 1;
    cfg.policy = spec;
    cfg.kvBudget.budgetBytes = 1;
    serve::Engine engine(cfg);

    SessionScript sa = randomVerbScript(8400, 0);
    SessionScript sb = randomVerbScript(8500, 1);
    serve::SessionId a = engine.submit(sa);
    engine.waitAll();
    serve::SessionId b = engine.submit(sb);
    engine.waitAll(); // B's slices hibernate the idle A.

    ASSERT_GE(engine.stats().kv.hibernatedSessions, 1u);
    const uint64_t wakes_before = engine.stats().kv.wakes;

    // model()/policy()/memoryStats() must transparently wake.
    EXPECT_GT(engine.model(a).cache().tokenCount(), 0u);
    EXPECT_NE(engine.memoryStats(a), nullptr);
    const serve::KvBudgetStats kv = engine.stats().kv;
    EXPECT_GT(kv.wakes, wakes_before);

    expectIdenticalRuns(
        engine.result(a),
        sequentialReplay(model, sa, spec, cfg.sessionSeed));
    engine.closeSession(a);
    engine.closeSession(b);
}

TEST(EngineHibernate, HibernatedSessionClosesWithoutWaking)
{
    serve::EngineConfig cfg;
    cfg.model = ModelConfig::tiny();
    cfg.workers = 1;
    cfg.kvBudget.budgetBytes = 1;
    serve::Engine engine(cfg);

    serve::SessionId a = engine.submit(randomVerbScript(8600, 0));
    engine.waitAll();
    serve::SessionId b = engine.submit(randomVerbScript(8700, 1));
    engine.waitAll();
    ASSERT_GE(engine.stats().kv.hibernatedSessions, 1u);
    const uint64_t wakes = engine.stats().kv.wakes;

    engine.closeSession(a);
    engine.closeSession(b);
    const serve::KvBudgetStats kv = engine.stats().kv;
    EXPECT_EQ(kv.wakes, wakes);           // Closing never wakes.
    EXPECT_EQ(kv.residentSessions, 0u);
    EXPECT_EQ(kv.hibernatedSessions, 0u);
    EXPECT_EQ(kv.coldBytes, 0u);          // Blobs are dropped.
}

TEST(EngineHibernate, DefaultBudgetChangesNothing)
{
    serve::EngineConfig cfg;
    cfg.model = ModelConfig::tiny();
    serve::Engine engine(cfg); // kvBudget.budgetBytes = 0 (default).

    serve::SessionId id = engine.submit(randomVerbScript(8800, 0));
    engine.waitAll();
    const serve::KvBudgetStats kv = engine.stats().kv;
    EXPECT_EQ(kv.budgetBytes, 0u);
    EXPECT_EQ(kv.hibernates, 0u);
    EXPECT_EQ(kv.wakes, 0u);
    EXPECT_EQ(kv.residentSessions, 0u); // No accounting at all.
    EXPECT_EQ(kv.residentBytes, 0u);
    EXPECT_EQ(kv.coldBytes, 0u);
    engine.closeSession(id);
}

TEST(EngineHibernate, OverSubscriptionStaysWithinBudget)
{
    const ModelConfig model = ModelConfig::tiny();
    const uint32_t kSessions = 40;

    // Price one session's working set, then grant a budget that fits
    // only ~2.5 of them: the engine must keep >90% hibernated.
    VideoConfig video;
    video.tokensPerFrame = 8;
    const std::vector<SessionEvent> events{
        {SessionEvent::Type::Frame, 0},
        {SessionEvent::Type::Question, 2},
        {SessionEvent::Type::Generate, 2}};
    uint64_t per_session;
    {
        StreamingSession probe(model, nullptr, 42);
        probe.begin("probe", video, 1);
        for (const SessionEvent &e : events)
            probe.apply(e);
        per_session = probe.kvBytes(2.0);
        ASSERT_GT(per_session, 0u);
    }

    serve::EngineConfig cfg;
    cfg.model = model;
    cfg.workers = 2;
    cfg.kvBudget.budgetBytes = per_session * 5 / 2;
    serve::Engine engine(cfg);

    std::vector<serve::SessionId> ids;
    for (uint32_t s = 0; s < kSessions; ++s) {
        serve::SessionOptions o;
        o.name = "over-" + std::to_string(s);
        o.video = video;
        o.scriptSeed = 100 + s;
        serve::SessionId id = engine.createSession(o);
        engine.enqueue(id, events);
        ids.push_back(id);
        if ((s + 1) % 8 == 0)
            engine.waitAll();
    }
    engine.waitAll();

    const serve::KvBudgetStats kv = engine.stats().kv;
    EXPECT_EQ(kv.residentSessions + kv.hibernatedSessions, kSessions);
    // <10% resident: the budget fits 2.5 sessions out of 40.
    EXPECT_LT(kv.residentSessions * 10, kSessions);
    EXPECT_LE(kv.residentBytes, cfg.kvBudget.budgetBytes);
    EXPECT_GT(kv.coldBytes, 0u);

    // Sampled wakes still produce correct sessions.
    for (uint32_t s = 0; s < kSessions; s += 13) {
        const SessionRunResult r = engine.result(ids[s]);
        EXPECT_EQ(r.frames, 1u);
        EXPECT_EQ(r.generated.size(), 2u);
    }
    EXPECT_GT(engine.stats().kv.wakes, 0u);
    for (serve::SessionId id : ids)
        engine.closeSession(id);
}

TEST(EngineHibernate, FileColdStoreBackend)
{
    const std::string dir = ::testing::TempDir() + "/vrex-engine-cold-" +
        std::to_string(::getpid());
    std::filesystem::remove_all(dir);
    auto store = std::make_shared<FileColdStore>(dir);

    const ModelConfig model = ModelConfig::tiny();
    serve::EngineConfig cfg;
    cfg.model = model;
    cfg.workers = 1;
    cfg.kvBudget.budgetBytes = 1;
    cfg.kvBudget.store = store;
    serve::Engine engine(cfg);

    SessionScript sa = randomVerbScript(9100, 0);
    serve::SessionId a = engine.submit(sa);
    engine.waitAll();
    serve::SessionId b = engine.submit(randomVerbScript(9200, 1));
    engine.waitAll();

    // The hibernated session's blob is an actual file on disk.
    ASSERT_GE(engine.stats().kv.hibernatedSessions, 1u);
    EXPECT_GT(store->count(), 0u);
    EXPECT_GT(store->totalBytes(), 0u);

    expectIdenticalRuns(
        engine.result(a),
        sequentialReplay(model, sa, cfg.policy, cfg.sessionSeed));
    engine.closeSession(a);
    engine.closeSession(b);
    EXPECT_EQ(store->count(), 0u);
    std::filesystem::remove_all(dir);
}
