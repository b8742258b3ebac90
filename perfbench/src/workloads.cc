#include "workloads.hh"

#include <algorithm>
#include <cstring>
#include <optional>
#include <stdexcept>

#include "llm/model.hh"
#include "pipeline/streaming_session.hh"
#include "video/frame_generator.hh"
#include "video/vision_tower.hh"

namespace perfbench
{

namespace
{

using vrex::SessionEvent;
using vrex::serve::Engine;
using vrex::serve::SessionId;

uint64_t
splitmix(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/** Deterministic stream of 64-bit draws from one seed. */
struct Draws
{
    uint64_t state;
    uint64_t next() { return splitmix(state++); }
    uint32_t below(uint32_t n)
    {
        return static_cast<uint32_t>(next() % n);
    }
};

std::vector<uint32_t>
allSessions(uint32_t n)
{
    std::vector<uint32_t> all(n);
    for (uint32_t i = 0; i < n; ++i)
        all[i] = i;
    return all;
}

std::vector<uint32_t>
permutation(uint32_t n, Draws &d)
{
    std::vector<uint32_t> p = allSessions(n);
    for (uint32_t i = n; i > 1; --i)
        std::swap(p[i - 1], p[d.below(i)]);
    return p;
}

std::vector<uint32_t>
sampleSessions(uint32_t n, uint32_t k, Draws &d)
{
    std::vector<uint32_t> p = permutation(n, d);
    p.resize(std::min(n, k));
    std::sort(p.begin(), p.end());
    return p;
}

/** One user turn: frames (the first starts the turn), a question
 *  with its first answer token, then the rest of the answer. */
void
appendTurn(std::vector<Round> &rounds,
           const std::vector<uint32_t> &members, uint32_t frames,
           uint32_t answer_tokens)
{
    for (uint32_t f = 0; f < frames; ++f)
        rounds.push_back({RoundKind::Frame, members, f == 0});
    rounds.push_back({RoundKind::Question, members, false});
    for (uint32_t t = 1; t < answer_tokens; ++t)
        rounds.push_back({RoundKind::Token, members, false});
}

Workload
baseWorkload(const std::string &name, uint64_t seed, uint32_t sessions,
             uint32_t workers)
{
    Workload w;
    w.name = name;
    w.engine.model = vrex::ModelConfig::tiny();
    w.engine.policy = vrex::serve::PolicySpec::resv();
    w.engine.workers = workers;
    for (uint32_t s = 0; s < sessions; ++s) {
        vrex::serve::SessionOptions o;
        o.name = name + "-" + std::to_string(s);
        o.scriptSeed = splitmix(seed ^ splitmix(s + 1));
        w.sessions.push_back(o);
    }
    return w;
}

/**
 * edge-live: one session on one worker, frames fed back to back and
 * each waited on; every third frame the user asks a question. The
 * context grows from 384 to ~2400 tokens per epoch, so nearly all the
 * work is frame prefill with ReSV insert + select over a long past.
 */
Workload
edgeLive(uint64_t seed, bool small)
{
    Workload w = baseWorkload("edge-live", seed, 1, 1);
    const uint32_t warm = small ? 4 : 24, turns = small ? 4 : 32;
    for (uint32_t f = 0; f < warm; ++f)
        w.warmup.push_back({RoundKind::Frame, {0}, false});
    for (uint32_t t = 0; t < turns; ++t)
        appendTurn(w.timed, {0}, 3, 4);
    // 32 questions and 96 frames per epoch: four epochs give the
    // ttft/resume p90 and frame/tpot p95 tails ten samples each.
    w.minEpochs = small ? 1 : 4;
    w.checkSessions = {0};
    return w;
}

/**
 * multi-stream: 16 sessions sharing one master seed on 2 workers with
 * fused batching (maxBatch 8), in lock-step staged rounds. Decode
 * rounds fuse 2 x 8 single-token steps into grouped matmuls.
 */
Workload
multiStream(uint64_t seed, bool small)
{
    const uint32_t n = small ? 8 : 16;
    Workload w = baseWorkload("multi-stream", seed, n, 2);
    w.engine.batching.enabled = true;
    w.engine.batching.maxBatch = 8;
    const std::vector<uint32_t> all = allSessions(n);
    w.warmup.push_back({RoundKind::Frame, all, false});
    const uint32_t turns = small ? 2 : 6;
    for (uint32_t t = 0; t < turns; ++t)
        appendTurn(w.timed, all, 2, 8);
    // 42 decode rounds per epoch: five epochs give the p95 tail of
    // lock-step tpot ten samples.
    w.minEpochs = small ? 1 : 5;
    Draws d{seed ^ 0x6d756c7469ull};
    w.checkSessions = sampleSessions(n, 3, d);
    return w;
}

/**
 * oversub-resume: 32 sessions on one worker under a KV budget that
 * holds about a quarter of them. One returning user per turn, drawn
 * from the seed: three frames, a question, a short answer, each
 * waited on. About three quarters of turns wake a cold session and
 * push an LRU victim out. Three frames per turn keep the frame median
 * on resident frames and the wakes in the tail, far from the middle
 * of a two-mode distribution.
 */
Workload
oversubResume(uint64_t seed, bool small)
{
    const uint32_t n = small ? 8 : 32;
    Workload w = baseWorkload("oversub-resume", seed, n, 1);
    const uint32_t warm_frames = 2, frames = 3, answer = 8;
    for (uint32_t s = 0; s < n; ++s)
        for (uint32_t f = 0; f < warm_frames; ++f)
            w.warmup.push_back({RoundKind::Frame, {s}, false});
    const uint32_t turns = small ? 8 : 48;
    Draws d{seed ^ 0x6f766572ull};
    std::vector<uint32_t> visited;
    for (uint32_t t = 0; t < turns; ++t) {
        const uint32_t user = d.below(n);
        appendTurn(w.timed, {user}, frames, answer);
        if (std::find(visited.begin(), visited.end(), user) ==
            visited.end())
            visited.push_back(user);
    }

    // Budget: a quarter of the sessions at their mid-epoch context
    // (warm-up plus half the visits each user gets per epoch).
    const vrex::ModelConfig &m = w.engine.model;
    const uint32_t tpf = w.sessions.front().video.tokensPerFrame;
    const uint64_t tokens_per_visit =
        tpf * frames + kQuestionTokens + answer;
    const uint64_t mid_tokens =
        tpf * warm_frames + tokens_per_visit * turns / (2 * n);
    w.engine.kvBudget.budgetBytes =
        (n / 4) * mid_tokens *
        m.kvBytesPerToken(w.engine.kvBudget.bytesPerElem);
    // 48 turns per epoch: three epochs give the ttft/resume p90 tail
    // ten samples (frames and tokens have more).
    w.minEpochs = small ? 1 : 3;
    // Check users the timed phase visits.
    for (uint32_t i : sampleSessions(
             static_cast<uint32_t>(visited.size()), 4, d))
        w.checkSessions.push_back(visited[i]);
    std::sort(w.checkSessions.begin(), w.checkSessions.end());
    return w;
}

/** Enqueue @p kind for one session (one offered verb). */
void
offer(Engine &engine, SessionId id, RoundKind kind, Tracer *tr)
{
    switch (kind) {
      case RoundKind::Frame: {
        Tracer::Scope s(tr, "engine.feedFrame", id);
        engine.feedFrame(id, 1);
        break;
      }
      case RoundKind::Question: {
        Tracer::Scope s(tr, "engine.ask", id);
        engine.ask(id, kQuestionTokens, 1);
        break;
      }
      case RoundKind::Token: {
        Tracer::Scope s(tr, "engine.enqueue", id);
        engine.enqueue(id, {{SessionEvent::Type::Generate, 1}});
        break;
      }
    }
}

const char *
roundSpanName(RoundKind kind)
{
    switch (kind) {
      case RoundKind::Frame:
        return "round.frame";
      case RoundKind::Question:
        return "round.question";
      default:
        return "round.token";
    }
}

double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return static_cast<double>(nsBetween(a, b)) / 1e6;
}

/**
 * Execute one round. Returns the client's wall time; @p member_ms
 * gets each member's own latency: the wall time for a single-member
 * round, and for a staged round the engine-observed ready-to-done
 * time (queue wait + service deltas of Engine::sessionStats).
 */
double
runRound(Engine &engine, const std::vector<SessionId> &ids,
         const Round &r, Tracer *tr, Epoch &e,
         std::vector<double> &member_ms)
{
    member_ms.clear();
    const bool staged = r.members.size() > 1;
    std::vector<uint64_t> before;
    if (staged)
        for (uint32_t m : r.members) {
            const vrex::serve::QueueStats q =
                engine.sessionStats(ids[m]);
            before.push_back(q.waitNs + q.serviceNs);
        }

    Tracer::Scope round(tr, roundSpanName(r.kind),
                        staged ? 0 : ids[r.members[0]]);
    const Clock::time_point t0 = Clock::now();
    try {
        if (staged) {
            {
                Tracer::Scope s(tr, "engine.pause", 0);
                engine.pause();
            }
            for (uint32_t m : r.members)
                offer(engine, ids[m], r.kind, tr);
            {
                Tracer::Scope s(tr, "engine.resume", 0);
                engine.resume();
            }
            Tracer::Scope s(tr, "engine.waitAll", 0);
            engine.waitAll();
        } else {
            const SessionId id = ids[r.members[0]];
            offer(engine, id, r.kind, tr);
            Tracer::Scope s(tr, "engine.wait", id);
            engine.wait(id);
        }
    } catch (const std::exception &) {
        e.failedVerbs += r.members.size();
        if (staged)
            engine.resume();
    }
    const double wall = msBetween(t0, Clock::now());
    e.verbs += r.members.size();

    if (!staged) {
        member_ms.push_back(wall);
        return wall;
    }
    for (size_t i = 0; i < r.members.size(); ++i) {
        const vrex::serve::QueueStats q =
            engine.sessionStats(ids[r.members[i]]);
        member_ms.push_back(
            static_cast<double>(q.waitNs + q.serviceNs - before[i]) /
            1e6);
    }
    return wall;
}

/**
 * Read what the epoch keeps from each session, then close it: the
 * check sessions' results and, with @p collect, the exact counts.
 * Reading a hibernated session wakes it outside the KV budget, so
 * closing each one before the next keeps the process peak RSS at
 * the timed phase's plus at most one session.
 */
void
drainSessions(const Workload &w, Engine &engine,
              const std::vector<SessionId> &ids, bool collect, Epoch &e)
{
    vrex::ResvCounters frame, text;
    uint64_t kv_tokens = 0, kv_bytes = 0;
    for (uint32_t s = 0; s < ids.size(); ++s) {
        const SessionId id = ids[s];
        if (std::binary_search(w.checkSessions.begin(),
                               w.checkSessions.end(), s))
            e.checked.push_back(engine.result(id));
        if (!collect) {
            engine.closeSession(id);
            continue;
        }
        const vrex::ResvPolicy &r = resvOf(engine.policy(id));
        for (auto [dst, src] : {std::pair{&frame, &r.frameCounters()},
                                std::pair{&text, &r.textCounters()}}) {
            dst->clustersScanned += src->clustersScanned;
            dst->tokensSelected += src->tokensSelected;
            dst->pastTokens += src->pastTokens;
            dst->wicsumScanned += src->wicsumScanned;
            dst->selectCalls += src->selectCalls;
        }
        const vrex::KVCache &cache = engine.model(id).cache();
        kv_tokens += cache.tokenCount();
        kv_bytes += cache.totalBytes(4.0);
        engine.closeSession(id);
    }
    if (!collect)
        return;
    const vrex::ModelConfig &m = w.engine.model;
    auto &c = e.counts;
    c["serve.slices"] = static_cast<double>(e.slices);
    c["serve.batch.fused_steps"] = static_cast<double>(e.fusedSteps);
    c["serve.batch.fused_members"] =
        static_cast<double>(e.fusedMembers);
    c["serve.batch.solo_steps"] = static_cast<double>(e.soloSteps);
    c["serve.kv.hibernates"] = static_cast<double>(e.hibernates);
    c["serve.kv.wakes"] = static_cast<double>(e.wakes);
    c["serve.kv.resident_bytes"] = static_cast<double>(e.residentBytes);
    c["serve.kv.cold_bytes"] = static_cast<double>(e.coldBytes);
    c["kvstore.written_bytes"] = static_cast<double>(e.hibernatedBytes);
    c["kvstore.read_bytes"] = static_cast<double>(e.wokenBytes);
    c["core.resv.select_calls_frame"] =
        static_cast<double>(frame.selectCalls);
    c["core.resv.select_calls_text"] =
        static_cast<double>(text.selectCalls);
    c["core.resv.tokens_selected_frame"] =
        static_cast<double>(frame.tokensSelected);
    c["core.resv.tokens_selected_text"] =
        static_cast<double>(text.tokensSelected);
    c["core.resv.past_tokens_frame"] =
        static_cast<double>(frame.pastTokens);
    c["core.resv.past_tokens_text"] =
        static_cast<double>(text.pastTokens);
    c["core.resv.clusters_scanned"] = static_cast<double>(
        frame.clustersScanned + text.clustersScanned);
    c["core.resv.wicsum_scanned"] =
        static_cast<double>(frame.wicsumScanned + text.wicsumScanned);
    c["llm.kv_tokens_end"] = static_cast<double>(kv_tokens);
    c["llm.kv_bytes_end"] = static_cast<double>(kv_bytes);

    // Computed from tensor sizes, not measured.
    const uint32_t tpf = w.sessions.front().video.tokensPerFrame;
    const double sel_per_head =
        frame.selectCalls
            ? static_cast<double>(frame.tokensSelected) /
                  (static_cast<double>(frame.selectCalls) * m.nKvHeads)
            : 0.0;
    c["tensor.dense_mmacs_per_frame"] = m.denseFlops(tpf) / 2e6;
    c["tensor.dense_mmacs_per_token"] = m.denseFlops(1) / 2e6;
    c["tensor.attn_mmacs_per_frame"] =
        m.attentionFlops(tpf, 1) * sel_per_head / 2e6;
    uint64_t decode_steps = 0;
    for (const Round &r : w.timed)
        if (r.kind != RoundKind::Frame)
            decode_steps += r.members.size();
    const double weight_streams = static_cast<double>(
        decode_steps - e.fusedMembers + e.fusedSteps);
    c["tensor.weight_mb_per_decode_step"] =
        decode_steps ? weight_streams *
                           static_cast<double>(m.paramBytes(4.0)) /
                           1e6 / static_cast<double>(decode_steps)
                     : 0.0;
}

/**
 * A separate copy of the vision stack StreamingSession::begin builds
 * (streaming_session.cc: width max(32, dModel / 4), generator seed
 * seed ^ scriptSeed, tower and projector seed `seed`), so the replay
 * can time each stage on the session's own frames.
 */
struct VisionCopy
{
    VisionCopy(const vrex::ModelConfig &m,
               const vrex::serve::SessionOptions &o, uint64_t seed)
        : gen(o.video, seed ^ o.scriptSeed, o.name),
          tower(o.video.latentDim, width(m), seed),
          projector(width(m), m.dModel, seed)
    {
    }

    static uint32_t width(const vrex::ModelConfig &m)
    {
        return std::max(32u, m.dModel / 4);
    }

    vrex::FrameGenerator gen;
    vrex::VisionTower tower;
    vrex::MlpProjector projector;
};

/**
 * Guard for VisionCopy: a full-attention Model prefilled with the
 * copy's first projected frame must give the same logits, bit for
 * bit, as a full-attention StreamingSession fed its first frame.
 * @throws std::runtime_error when they differ.
 */
void
checkVisionCopy(const vrex::ModelConfig &m,
                const vrex::serve::SessionOptions &o, uint64_t seed)
{
    vrex::StreamingSession real(m, nullptr, seed);
    real.begin(o.name, o.video, o.scriptSeed);
    real.feedFrame();

    VisionCopy copy(m, o, seed);
    vrex::Model model(m, seed);
    model.prefillFrame(copy.projector.project(copy.tower.encode(
                           copy.gen.nextFrameLatents())),
                       0);
    const std::vector<float> a = real.model().lastLogits();
    const std::vector<float> b = model.lastLogits();
    if (a.size() != b.size() ||
        std::memcmp(a.data(), b.data(), a.size() * sizeof(float)))
        throw std::runtime_error(
            "perfbench: the timed vision-stack copy no longer matches "
            "StreamingSession's; update VisionCopy");
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "edge-live", "multi-stream", "oversub-resume"};
    return names;
}

Workload
makeWorkload(const std::string &name, uint64_t seed, bool small)
{
    if (name == "edge-live")
        return edgeLive(seed, small);
    if (name == "multi-stream")
        return multiStream(seed, small);
    if (name == "oversub-resume")
        return oversubResume(seed, small);
    throw std::invalid_argument("unknown workload: " + name);
}

std::vector<ScriptItem>
sessionScript(const Workload &w, uint32_t s)
{
    std::vector<ScriptItem> items;
    for (const auto *rounds : {&w.warmup, &w.timed}) {
        const bool timed = rounds == &w.timed;
        for (const Round &r : *rounds) {
            if (std::find(r.members.begin(), r.members.end(), s) ==
                r.members.end())
                continue;
            switch (r.kind) {
              case RoundKind::Frame:
                items.push_back({{SessionEvent::Type::Frame, 0},
                                 r.turnStart, timed});
                break;
              case RoundKind::Question:
                items.push_back({{SessionEvent::Type::Question,
                                  kQuestionTokens},
                                 false, timed});
                items.push_back(
                    {{SessionEvent::Type::Generate, 1}, false, timed});
                break;
              case RoundKind::Token:
                items.push_back(
                    {{SessionEvent::Type::Generate, 1}, false, timed});
                break;
            }
        }
    }
    return items;
}

Epoch
runEpoch(const Workload &w, Tracer *tracer, bool collect)
{
    Epoch e;
    const Clock::time_point t0 = Clock::now();

    vrex::serve::EngineConfig cfg = w.engine;
    std::unique_ptr<TracingFactory> factory;
    if (tracer) {
        factory = std::make_unique<TracingFactory>(tracer);
        cfg.factory = &factory->factory();
        cfg.kvBudget.store = std::make_shared<TracingColdStore>(
            std::make_shared<vrex::MemoryColdStore>(), tracer);
    }
    auto engine = std::make_unique<Engine>(cfg);
    std::vector<SessionId> ids;
    for (const vrex::serve::SessionOptions &o : w.sessions) {
        ids.push_back(engine->createSession(o));
        if (factory)
            factory->tagLastCreated(ids.back());
    }
    Samples &samples = e.samples;
    std::vector<double> member_ms;
    Epoch warm; // warm-up verbs are set-up, not offered load
    for (const Round &r : w.warmup)
        runRound(*engine, ids, r, nullptr, warm, member_ms);
    e.setupS = msBetween(t0, Clock::now()) / 1e3;

    const vrex::serve::Stats s0 = engine->stats();
    if (tracer)
        tracer->enable(true);
    const Clock::time_point t1 = Clock::now();
    for (const Round &r : w.timed) {
        const double wall =
            runRound(*engine, ids, r, tracer, e, member_ms);
        switch (r.kind) {
          case RoundKind::Frame:
            samples.frame.insert(samples.frame.end(),
                                 member_ms.begin(), member_ms.end());
            if (r.turnStart)
                samples.resume.insert(samples.resume.end(),
                                      member_ms.begin(),
                                      member_ms.end());
            e.frames += r.members.size();
            e.frameWallMs += wall;
            break;
          case RoundKind::Question:
            samples.ttft.insert(samples.ttft.end(), member_ms.begin(),
                                member_ms.end());
            break;
          case RoundKind::Token:
            samples.tpot.push_back(wall);
            e.tokens += r.members.size();
            e.tokenWallMs += wall;
            break;
        }
    }
    e.timedS = msBetween(t1, Clock::now()) / 1e3;
    if (tracer)
        tracer->enable(false);

    const vrex::serve::Stats s1 = engine->stats();
    e.slices = s1.slices - s0.slices;
    e.items = s1.itemsExecuted - s0.itemsExecuted;
    e.waitNs = s1.waitNs - s0.waitNs;
    e.serviceNs = s1.serviceNs - s0.serviceNs;
    e.fusedSteps = s1.batch.coalescedSteps - s0.batch.coalescedSteps;
    e.fusedMembers =
        s1.batch.coalescedMembers - s0.batch.coalescedMembers;
    e.soloSteps = s1.batch.soloSteps - s0.batch.soloSteps;
    e.hibernates = s1.kv.hibernates - s0.kv.hibernates;
    e.wakes = s1.kv.wakes - s0.kv.wakes;
    e.hibernatedBytes = s1.kv.hibernatedBytes - s0.kv.hibernatedBytes;
    e.wokenBytes = s1.kv.wokenBytes - s0.kv.wokenBytes;
    e.residentBytes = s1.kv.residentBytes;
    e.coldBytes = s1.kv.coldBytes;

    drainSessions(w, *engine, ids, collect, e);
    engine.reset();
    return e;
}

vrex::SessionRunResult
replaySession(const Workload &w, uint32_t s, Tracer *tr,
              uint64_t *blob_bytes)
{
    const vrex::serve::SessionOptions &o = w.sessions[s];
    const vrex::ModelConfig &m = w.engine.model;
    const uint64_t seed = o.sessionSeed.value_or(w.engine.sessionSeed);
    // Spans carry s + 1: the id every epoch's engine gives session s,
    // since sessions are admitted in index order from id 1.
    const uint64_t tag = s + 1;
    TracingPolicy policy(std::make_unique<vrex::ResvPolicy>(
                             m, w.engine.policy.resvCfg),
                         tr, tag);
    vrex::StreamingSession session(m, &policy, seed);
    session.begin(o.name, o.video, o.scriptSeed);

    std::optional<VisionCopy> vision;
    if (tr) {
        checkVisionCopy(m, o, seed);
        vision.emplace(m, o, seed);
    }

    bool first = true;
    for (const ScriptItem &item : sessionScript(w, s)) {
        if (tr)
            tr->enable(item.timed);
        if (item.turnStart && !first) {
            std::vector<uint8_t> blob;
            {
                Tracer::Scope sp(tr, "pipeline.serialize", tag);
                blob = session.serialize();
            }
            if (blob_bytes && item.timed)
                *blob_bytes += blob.size();
            Tracer::Scope sp(tr, "pipeline.restore", tag);
            session.restore(blob);
        }
        first = false;
        switch (item.event.type) {
          case SessionEvent::Type::Frame: {
            {
                Tracer::Scope sp(tr, "pipeline.frame", tag);
                session.feedFrame();
            }
            if (vision) {
                vrex::Matrix latents, features;
                {
                    Tracer::Scope sp(tr, "video.latents", tag);
                    latents = vision->gen.nextFrameLatents();
                }
                {
                    Tracer::Scope sp(tr, "video.encode", tag);
                    features = vision->tower.encode(latents);
                }
                Tracer::Scope sp(tr, "video.project", tag);
                features = vision->projector.project(features);
            }
            break;
          }
          case SessionEvent::Type::Question: {
            Tracer::Scope sp(tr, "pipeline.question", tag);
            session.feedQuestion(item.event.tokens);
            break;
          }
          case SessionEvent::Type::Generate: {
            Tracer::Scope sp(tr, "pipeline.token", tag);
            session.generate(item.event.tokens);
            break;
          }
        }
    }
    if (tr)
        tr->enable(false);
    return session.snapshot();
}

bool
sameOutputs(const vrex::SessionRunResult &a,
            const vrex::SessionRunResult &b)
{
    if (a.generated != b.generated ||
        a.stepLogits.size() != b.stepLogits.size())
        return false;
    for (size_t i = 0; i < a.stepLogits.size(); ++i) {
        const auto &x = a.stepLogits[i], &y = b.stepLogits[i];
        if (x.size() != y.size() ||
            std::memcmp(x.data(), y.data(), x.size() * sizeof(float)))
            return false;
    }
    return true;
}

} // namespace perfbench
