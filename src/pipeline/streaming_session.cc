#include "pipeline/streaming_session.hh"

#include <algorithm>

#include "common/logging.hh"

namespace vrex
{

namespace
{

/** Blob identity of a model config: every field ModelConfig's
 *  operator== compares, in declaration order. */
void
putConfig(serial::ByteWriter &w, const ModelConfig &cfg)
{
    w.putString(cfg.name);
    w.put<uint32_t>(cfg.nLayers);
    w.put<uint32_t>(cfg.dModel);
    w.put<uint32_t>(cfg.nHeads);
    w.put<uint32_t>(cfg.nKvHeads);
    w.put<uint32_t>(cfg.ffnDim);
    w.put<uint32_t>(cfg.vocabSize);
    w.put<float>(cfg.ropeTheta);
}

ModelConfig
getConfig(serial::ByteReader &r)
{
    ModelConfig cfg;
    cfg.name = r.getString();
    cfg.nLayers = r.get<uint32_t>();
    cfg.dModel = r.get<uint32_t>();
    cfg.nHeads = r.get<uint32_t>();
    cfg.nKvHeads = r.get<uint32_t>();
    cfg.ffnDim = r.get<uint32_t>();
    cfg.vocabSize = r.get<uint32_t>();
    cfg.ropeTheta = r.get<float>();
    return cfg;
}

} // namespace

StreamingSession::StreamingSession(const ModelConfig &model_config,
                                   SelectionPolicy *policy,
                                   uint64_t seed_value)
    : seed(seed_value), llm(model_config, seed_value)
{
    llm.setPolicy(policy);
}

void
StreamingSession::begin(const std::string &name,
                        const VideoConfig &video, uint64_t script_seed,
                        std::vector<uint32_t> forced_tokens)
{
    llm.resetSession();
    streamName = name;
    streamVideo = video;
    scriptSeed = script_seed;
    openStream();

    forced = std::move(forced_tokens);
    forcedPos = 0;
    frameId = 0;
    questionNo = 0;

    generatedTokens.clear();
    logitsPerStep.clear();
    ratioSums.clear();
    ratioBlocks = 0;
    framesFed = 0;
    frameSum = textSum = 0.0;
    frameN = textN = 0;
}

void
StreamingSession::openStream()
{
    const uint32_t d_model = llm.config().dModel;
    stream = std::make_unique<Stream>(
        streamVideo, std::max(32u, d_model / 4), d_model,
        seed ^ scriptSeed, seed, streamName);
}

void
StreamingSession::accumulate(const BlockStats &stats)
{
    // Empty blocks (no-ops) and blocks without a past select nothing.
    if (stats.blockLen == 0 || stats.pastLen == 0)
        return;
    const double ratio = stats.meanRatio();
    if (stats.stage == TokenStage::VideoFrame) {
        frameSum += ratio;
        ++frameN;
    } else {
        textSum += ratio;
        ++textN;
    }
    // Per-layer / per-head accumulation (all stages).
    if (ratioSums.empty()) {
        ratioSums.assign(stats.selectedPerHead.size(),
                         std::vector<double>(
                             stats.selectedPerHead.empty()
                                 ? 0
                                 : stats.selectedPerHead[0].size(),
                             0.0));
    }
    for (size_t l = 0; l < stats.selectedPerHead.size(); ++l)
        for (size_t h = 0; h < stats.selectedPerHead[l].size(); ++h)
            ratioSums[l][h] +=
                static_cast<double>(stats.selectedPerHead[l][h]) /
                stats.pastLen;
    ++ratioBlocks;
}

void
StreamingSession::feedFrame()
{
    VREX_ASSERT(stream != nullptr, "feedFrame before begin()");
    Matrix latents = stream->gen.nextFrameLatents();
    Matrix embeds =
        stream->projector.project(stream->tower.encode(latents));
    accumulate(llm.prefillFrame(embeds, frameId++));
    ++framesFed;
}

void
StreamingSession::feedQuestion(uint32_t tokens)
{
    VREX_ASSERT(stream != nullptr, "feedQuestion before begin()");
    auto ids = WorkloadGenerator::questionTokens(
        tokens, llm.config().vocabSize,
        seed ^ scriptSeed ^ (0x9e37u + questionNo++));
    accumulate(llm.prefillText(ids));
}

void
StreamingSession::generate(uint32_t tokens)
{
    VREX_ASSERT(stream != nullptr, "generate before begin()");
    for (uint32_t i = 0; i < tokens; ++i)
        generateStep({this});
}

void
StreamingSession::generateStep(
    const std::vector<StreamingSession *> &sessions)
{
    const size_t n = sessions.size();
    std::vector<const Model *> models(n);
    for (size_t i = 0; i < n; ++i) {
        VREX_ASSERT(sessions[i]->stream != nullptr,
                    "generate before begin()");
        models[i] = &sessions[i]->llm;
    }

    // Argmax of each session's current state; advance with the
    // forced token when provided.
    std::vector<std::vector<float>> logits = Model::logits(models);
    std::vector<Model::Segment> segs(n);
    for (size_t i = 0; i < n; ++i) {
        StreamingSession &s = *sessions[i];
        const uint32_t best = static_cast<uint32_t>(
            std::max_element(logits[i].begin(), logits[i].end()) -
            logits[i].begin());
        s.generatedTokens.push_back(best);
        s.logitsPerStep.push_back(std::move(logits[i]));
        uint32_t next = best;
        if (s.forcedPos < s.forced.size())
            next = s.forced[s.forcedPos++];
        segs[i] = {&s.llm, s.llm.embedTokens({next})};
    }

    std::vector<BlockStats> stats =
        Model::forward(segs, -1, TokenStage::GeneratedText);
    for (size_t i = 0; i < n; ++i)
        sessions[i]->accumulate(stats[i]);
}

void
StreamingSession::apply(const SessionEvent &event)
{
    switch (event.type) {
      case SessionEvent::Type::Frame:
        feedFrame();
        break;
      case SessionEvent::Type::Question:
        feedQuestion(event.tokens);
        break;
      case SessionEvent::Type::Generate:
        generate(event.tokens);
        break;
    }
}

std::vector<SessionEvent>
StreamingSession::unitEvents(const SessionEvent &event)
{
    if (event.type != SessionEvent::Type::Generate)
        return {event};
    return std::vector<SessionEvent>(
        event.tokens, SessionEvent{SessionEvent::Type::Generate, 1});
}

SessionRunResult
StreamingSession::snapshot() const
{
    SessionRunResult out;
    out.generated = generatedTokens;
    out.stepLogits = logitsPerStep;
    out.frames = framesFed;
    out.frameRatio = frameN ? frameSum / frameN : 1.0;
    out.textRatio = textN ? textSum / textN : 1.0;
    if (ratioBlocks > 0) {
        out.layerHeadRatio = ratioSums;
        for (auto &layer : out.layerHeadRatio)
            for (auto &v : layer)
                v /= ratioBlocks;
    }
    out.totalTokens = llm.cache().tokenCount();
    return out;
}

SessionRunResult
StreamingSession::run(const SessionScript &script)
{
    return run(script, {});
}

SessionRunResult
StreamingSession::run(const SessionScript &script,
                      const std::vector<uint32_t> &forced_tokens)
{
    begin(script.name, script.video, script.seed, forced_tokens);
    for (const auto &event : script.events)
        apply(event);
    return snapshot();
}

std::vector<uint8_t>
StreamingSession::serialize() const
{
    serial::ByteWriter w(kBlobVersion);

    // Identity block: validated (not applied) by restore().
    w.put<uint64_t>(seed);
    putConfig(w, llm.config());
    w.putBool(llm.policy() != nullptr);

    // Stream block (absent before begin()).
    w.putBool(stream != nullptr);
    if (stream) {
        w.putString(streamName);
        w.put<uint32_t>(streamVideo.tokensPerFrame);
        w.put<uint32_t>(streamVideo.latentDim);
        w.put<double>(streamVideo.driftRate);
        w.put<double>(streamVideo.sceneCutProb);
        w.put<double>(streamVideo.tokenNoise);
        w.put<double>(streamVideo.tokenIdentity);
        w.put<uint64_t>(scriptSeed);
        stream->gen.serialize(w);
    }

    // Executor position.
    w.putVec(forced);
    w.put<uint32_t>(forcedPos);
    w.put<int32_t>(frameId);
    w.put<uint32_t>(questionNo);

    // Model mutable state (KV cache, last hidden, history).
    llm.serializeState(w);

    // Retrieval-policy state (the full decorator stack forwards).
    if (llm.policy())
        llm.policy()->serializeState(w);

    // Snapshot accumulators.
    w.putVec(generatedTokens);
    w.put<uint64_t>(logitsPerStep.size());
    for (const auto &step : logitsPerStep)
        w.putVec(step);
    w.put<uint64_t>(ratioSums.size());
    for (const auto &layer : ratioSums)
        w.putVec(layer);
    w.put<uint32_t>(ratioBlocks);
    w.put<uint32_t>(framesFed);
    w.put<double>(frameSum);
    w.put<double>(textSum);
    w.put<uint32_t>(frameN);
    w.put<uint32_t>(textN);

    return w.finish();
}

void
StreamingSession::restore(const std::vector<uint8_t> &blob)
{
    serial::ByteReader r(blob, kBlobVersion);

    // Identity block.
    const uint64_t blob_seed = r.get<uint64_t>();
    if (blob_seed != seed)
        throw serial::SerialError(
            "StreamingSession::restore: seed mismatch (blob " +
            std::to_string(blob_seed) + ", session " +
            std::to_string(seed) + ")");
    const ModelConfig blob_cfg = getConfig(r);
    if (!(blob_cfg == llm.config()))
        throw serial::SerialError(
            "StreamingSession::restore: model geometry mismatch "
            "(blob was serialized from model '" + blob_cfg.name +
            "')");
    const bool blob_has_policy = r.getBool();
    if (blob_has_policy != (llm.policy() != nullptr))
        throw serial::SerialError(
            "StreamingSession::restore: policy presence mismatch "
            "(blob and session must carry the same policy spec)");

    // Stream block: rebuild exactly as begin() does, then overlay
    // the serialized generator position.
    if (r.getBool()) {
        streamName = r.getString();
        streamVideo.tokensPerFrame = r.get<uint32_t>();
        streamVideo.latentDim = r.get<uint32_t>();
        streamVideo.driftRate = r.get<double>();
        streamVideo.sceneCutProb = r.get<double>();
        streamVideo.tokenNoise = r.get<double>();
        streamVideo.tokenIdentity = r.get<double>();
        scriptSeed = r.get<uint64_t>();
        openStream();
        stream->gen.restore(r);
    } else {
        stream.reset();
        streamName.clear();
        streamVideo = VideoConfig{};
        scriptSeed = 0;
    }

    // Executor position.
    forced = r.getVec<uint32_t>();
    forcedPos = r.get<uint32_t>();
    frameId = r.get<int32_t>();
    questionNo = r.get<uint32_t>();

    // Model mutable state.
    llm.restoreState(r);

    // Policy state.
    if (llm.policy())
        llm.policy()->restoreState(r);

    // Snapshot accumulators.
    generatedTokens = r.getVec<uint32_t>();
    const uint64_t n_steps = r.get<uint64_t>();
    logitsPerStep.clear();
    for (uint64_t i = 0; i < n_steps; ++i)
        logitsPerStep.push_back(r.getVec<float>());
    const uint64_t n_layers = r.get<uint64_t>();
    ratioSums.clear();
    for (uint64_t i = 0; i < n_layers; ++i)
        ratioSums.push_back(r.getVec<double>());
    ratioBlocks = r.get<uint32_t>();
    framesFed = r.get<uint32_t>();
    frameSum = r.get<double>();
    textSum = r.get<double>();
    frameN = r.get<uint32_t>();
    textN = r.get<uint32_t>();

    r.expectEnd();
}

} // namespace vrex
