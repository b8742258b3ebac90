/**
 * @file
 * Unit tests for the LLM runtime: config arithmetic, KV cache
 * bookkeeping, attention (full vs. selected), and the iterative
 * prefill / generation workflow.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "common/rng.hh"
#include "common/serial.hh"
#include "llm/attention.hh"
#include "llm/config.hh"
#include "llm/kv_cache.hh"
#include "llm/model.hh"
#include "testutil.hh"

using namespace vrex;

TEST(ModelConfig, Llama3Geometry)
{
    ModelConfig c = ModelConfig::llama3_8b();
    EXPECT_EQ(c.headDim(), 128u);
    EXPECT_EQ(c.groupSize(), 4u);
    // ~8B parameters.
    EXPECT_GT(c.paramCount(), 7'000'000'000ull);
    EXPECT_LT(c.paramCount(), 9'000'000'000ull);
    // GQA KV: 2 * 8 heads * 128 dims * 2 bytes = 4 KiB/token/layer.
    EXPECT_EQ(c.kvBytesPerTokenPerLayer(2.0), 4096u);
    EXPECT_EQ(c.kvBytesPerToken(2.0), 4096u * 32u);
}

TEST(ModelConfig, FlopsScaleLinearly)
{
    ModelConfig c = ModelConfig::tiny();
    EXPECT_DOUBLE_EQ(c.denseFlops(10), 10.0 * c.denseFlops(1));
    EXPECT_DOUBLE_EQ(c.attentionFlops(2, 6),
                     12.0 * c.attentionFlops(1, 1));
}

TEST(KVCache, AppendAndMeta)
{
    ModelConfig cfg = ModelConfig::tiny();
    KVCache kv(cfg);
    EXPECT_EQ(kv.tokenCount(), 0u);

    const uint32_t kv_dim = cfg.nKvHeads * cfg.headDim();
    Matrix k(3, kv_dim), v(3, kv_dim);
    kv.beginTokens(3, 0, TokenStage::VideoFrame);
    for (uint32_t l = 0; l < cfg.nLayers; ++l)
        kv.appendLayer(l, k, v);

    EXPECT_EQ(kv.tokenCount(), 3u);
    EXPECT_EQ(kv.frameCount(), 1u);
    EXPECT_EQ(kv.tokenMeta(0).frameId, 0);
    EXPECT_EQ(kv.tokenMeta(2).position, 2u);
    EXPECT_EQ(kv.layer(0).keys.rows(), 3u);

    kv.beginTokens(2, -1, TokenStage::QuestionText);
    Matrix k2(2, kv_dim), v2(2, kv_dim);
    for (uint32_t l = 0; l < cfg.nLayers; ++l)
        kv.appendLayer(l, k2, v2);
    EXPECT_EQ(kv.tokenCount(), 5u);
    EXPECT_EQ(kv.tokenMeta(3).frameId, -1);
    EXPECT_EQ(kv.frameCount(), 1u);
}

TEST(KVCache, FrameTokenRange)
{
    ModelConfig cfg = ModelConfig::tiny();
    KVCache kv(cfg);
    const uint32_t kv_dim = cfg.nKvHeads * cfg.headDim();
    Matrix blk(4, kv_dim);
    for (int f = 0; f < 3; ++f) {
        kv.beginTokens(4, f, TokenStage::VideoFrame);
        for (uint32_t l = 0; l < cfg.nLayers; ++l)
            kv.appendLayer(l, blk, blk);
    }
    auto [first, last] = kv.frameTokenRange(1);
    EXPECT_EQ(first, 4u);
    EXPECT_EQ(last, 8u);
    auto [f0, l0] = kv.frameTokenRange(99);
    EXPECT_EQ(f0, 0u);
    EXPECT_EQ(l0, 0u);
}

TEST(KVCache, TotalBytesAndClear)
{
    ModelConfig cfg = ModelConfig::tiny();
    KVCache kv(cfg);
    const uint32_t kv_dim = cfg.nKvHeads * cfg.headDim();
    Matrix blk(5, kv_dim);
    kv.beginTokens(5, 0, TokenStage::VideoFrame);
    for (uint32_t l = 0; l < cfg.nLayers; ++l)
        kv.appendLayer(l, blk, blk);
    EXPECT_EQ(kv.totalBytes(2.0), 5u * cfg.kvBytesPerToken(2.0));
    kv.clear();
    EXPECT_EQ(kv.tokenCount(), 0u);
    EXPECT_EQ(kv.frameCount(), 0u);
}

using testutil::fillLayer;

TEST(Attention, SelectAllMatchesNullSelection)
{
    ModelConfig cfg = ModelConfig::tiny();
    KVCache kv(cfg);
    Rng rng(1);
    fillLayer(kv, cfg, 6, rng);

    Matrix q(2, cfg.nHeads * cfg.headDim());
    rng.fillGaussian(q.raw(), q.size(), 1.0f);

    Matrix out1, out2;
    LayerSelection all = LayerSelection::full(cfg.nKvHeads);
    attentionForward(cfg, q, {{&kv.layer(0), 4, nullptr, q.rows()}}, out1);
    attentionForward(cfg, q, {{&kv.layer(0), 4, &all, q.rows()}}, out2);
    for (uint32_t i = 0; i < out1.size(); ++i)
        EXPECT_FLOAT_EQ(out1.raw()[i], out2.raw()[i]);
}

TEST(Attention, ExplicitFullIndicesMatchSelectAll)
{
    ModelConfig cfg = ModelConfig::tiny();
    KVCache kv(cfg);
    Rng rng(2);
    fillLayer(kv, cfg, 7, rng);

    Matrix q(1, cfg.nHeads * cfg.headDim());
    rng.fillGaussian(q.raw(), q.size(), 1.0f);

    LayerSelection explicit_sel;
    explicit_sel.kvHeads.resize(cfg.nKvHeads);
    for (auto &h : explicit_sel.kvHeads) {
        h.selectAll = false;
        for (uint32_t i = 0; i < 6; ++i)
            h.indices.push_back(i);
    }
    Matrix out1, out2;
    attentionForward(cfg, q, {{&kv.layer(0), 6, nullptr, q.rows()}}, out1);
    attentionForward(cfg, q, {{&kv.layer(0), 6, &explicit_sel, q.rows()}},
                     out2);
    for (uint32_t i = 0; i < out1.size(); ++i)
        EXPECT_NEAR(out1.raw()[i], out2.raw()[i], 1e-5f);
}

TEST(Attention, EmptySelectionAttendsOnlyBlock)
{
    ModelConfig cfg = ModelConfig::tiny();
    KVCache kv(cfg);
    Rng rng(3);
    fillLayer(kv, cfg, 5, rng);

    Matrix q(1, cfg.nHeads * cfg.headDim());
    rng.fillGaussian(q.raw(), q.size(), 1.0f);

    LayerSelection none;
    none.kvHeads.resize(cfg.nKvHeads);
    for (auto &h : none.kvHeads)
        h.selectAll = false;

    Matrix out;
    attentionForward(cfg, q, {{&kv.layer(0), 4, &none, q.rows()}}, out);
    // The single block token attends only itself: output head h
    // equals V row 4 for that head.
    for (uint32_t h = 0; h < cfg.nHeads; ++h) {
        uint32_t kv_head = h / cfg.groupSize();
        const float *vvec =
            kv.layer(0).values.row(4) + kv_head * cfg.headDim();
        for (uint32_t d = 0; d < cfg.headDim(); ++d)
            EXPECT_NEAR(out.at(0, h * cfg.headDim() + d), vvec[d],
                        1e-5f);
    }
}

TEST(Attention, ZeroLengthQueryBlockYieldsEmptyOutput)
{
    ModelConfig cfg = ModelConfig::tiny();
    KVCache kv(cfg); // Empty: T == 0 must not read the cache.
    Matrix q(0, cfg.nHeads * cfg.headDim());
    Matrix out(3, 3); // Stale shape, must be replaced.
    attentionForward(cfg, q, {{&kv.layer(0), 0, nullptr, q.rows()}}, out);
    EXPECT_EQ(out.rows(), 0u);
    EXPECT_EQ(out.cols(), cfg.dModel);
}

TEST(AttentionDeathTest, RejectsCacheMissingTheBlock)
{
    ModelConfig cfg = ModelConfig::tiny();
    KVCache kv(cfg);
    Rng rng(20);
    fillLayer(kv, cfg, 5, rng);
    Matrix q(1, cfg.nHeads * cfg.headDim());
    rng.fillGaussian(q.raw(), q.size(), 1.0f);
    Matrix out;
    // The cache holds 5 rows; past_len 5 + block 1 claims 6.
    EXPECT_DEATH(
        attentionForward(cfg, q, {{&kv.layer(0), 5, nullptr, q.rows()}}, out),
        "block appended to the cache");
    // And past_len 2 + block 1 leaves 2 unexplained trailing rows.
    EXPECT_DEATH(
        attentionForward(cfg, q, {{&kv.layer(0), 2, nullptr, q.rows()}}, out),
        "block appended to the cache");
}

TEST(AttentionDeathTest, RejectsMalformedSelection)
{
    ModelConfig cfg = ModelConfig::tiny();
    KVCache kv(cfg);
    Rng rng(21);
    fillLayer(kv, cfg, 1, rng);
    Matrix q(1, cfg.nHeads * cfg.headDim());
    rng.fillGaussian(q.raw(), q.size(), 1.0f);
    Matrix out;

    LayerSelection wrong_heads;
    wrong_heads.kvHeads.resize(cfg.nKvHeads + 1);
    EXPECT_DEATH(
        attentionForward(cfg, q, {{&kv.layer(0), 0, &wrong_heads, q.rows()}},
                         out),
        "wrong head count");

    // past_len == 0: only selectAll or an empty index list is legal.
    LayerSelection stale;
    stale.kvHeads.resize(cfg.nKvHeads);
    for (auto &h : stale.kvHeads) {
        h.selectAll = false;
        h.indices = {0};
    }
    EXPECT_DEATH(
        attentionForward(cfg, q, {{&kv.layer(0), 0, &stale, q.rows()}}, out),
        "beyond the past");
}

TEST(Attention, SegmentsMatchPerSegmentCallsBitExact)
{
    ModelConfig cfg = ModelConfig::tiny();
    Rng rng(22);
    // Three sessions with distinct cache depths, block lengths and
    // selections: a 3-row block after 5 past tokens, a 1-row decode
    // step after 9, and a 16-row block on a fresh cache.
    KVCache kv_a(cfg), kv_b(cfg), kv_c(cfg);
    fillLayer(kv_a, cfg, 8, rng);
    fillLayer(kv_b, cfg, 10, rng);
    fillLayer(kv_c, cfg, 16, rng);

    LayerSelection partial;
    partial.kvHeads.resize(cfg.nKvHeads);
    for (auto &h : partial.kvHeads) {
        h.selectAll = false;
        h.indices = {0, 2, 4};
    }
    LayerSelection all = LayerSelection::full(cfg.nKvHeads);

    const std::vector<AttentionSegment> segs = {
        {&kv_a.layer(0), 5, nullptr, 3},
        {&kv_b.layer(0), 9, &partial, 1},
        {&kv_c.layer(0), 0, &all, 16},
    };
    Matrix q(20, cfg.nHeads * cfg.headDim());
    rng.fillGaussian(q.raw(), q.size(), 1.0f);
    Matrix fused;
    attentionForward(cfg, q, segs, fused);
    ASSERT_EQ(fused.rows(), 20u);
    ASSERT_EQ(fused.cols(), cfg.dModel);

    uint32_t row = 0;
    for (size_t i = 0; i < segs.size(); ++i) {
        Matrix qi(segs[i].rows, q.cols());
        for (uint32_t t = 0; t < segs[i].rows; ++t)
            for (uint32_t c = 0; c < q.cols(); ++c)
                qi.at(t, c) = q.at(row + t, c);
        Matrix solo;
        attentionForward(cfg, qi, {segs[i]}, solo);
        for (uint32_t t = 0; t < segs[i].rows; ++t)
            for (uint32_t c = 0; c < cfg.dModel; ++c)
                EXPECT_EQ(fused.at(row + t, c), solo.at(t, c))
                    << "segment " << i << " row " << t << " col " << c;
        row += segs[i].rows;
    }
}

TEST(LayerSelection, SelectedRatio)
{
    LayerSelection sel;
    sel.kvHeads.resize(2);
    sel.kvHeads[0].selectAll = true;
    sel.kvHeads[1].selectAll = false;
    sel.kvHeads[1].indices = {0, 1};
    EXPECT_DOUBLE_EQ(sel.selectedRatio(4), (1.0 + 0.5) / 2.0);
    EXPECT_DOUBLE_EQ(sel.selectedRatio(0), 1.0);
}

TEST(Model, IterativePrefillGrowsCache)
{
    ModelConfig cfg = ModelConfig::tiny();
    Model model(cfg, 42);
    Rng rng(4);

    Matrix frame(3, cfg.dModel);
    rng.fillGaussian(frame.raw(), frame.size(), 1.0f);
    model.prefillFrame(frame, 0);
    EXPECT_EQ(model.cache().tokenCount(), 3u);
    model.prefillFrame(frame, 1);
    EXPECT_EQ(model.cache().tokenCount(), 6u);
    EXPECT_EQ(model.cache().frameCount(), 2u);

    model.prefillText({1, 2, 3});
    EXPECT_EQ(model.cache().tokenCount(), 9u);

    auto ids = model.generate(4);
    EXPECT_EQ(ids.size(), 4u);
    EXPECT_EQ(model.cache().tokenCount(), 13u);
    for (uint32_t id : ids)
        EXPECT_LT(id, cfg.vocabSize);
}

TEST(Model, DeterministicAcrossInstances)
{
    ModelConfig cfg = ModelConfig::tiny();
    Model m1(cfg, 42), m2(cfg, 42);
    Rng rng(5);
    Matrix frame(2, cfg.dModel);
    rng.fillGaussian(frame.raw(), frame.size(), 1.0f);
    m1.prefillFrame(frame, 0);
    m2.prefillFrame(frame, 0);
    m1.prefillText({7});
    m2.prefillText({7});
    auto a = m1.generate(3);
    auto b = m2.generate(3);
    EXPECT_EQ(a, b);
}

TEST(Model, HistoryRecordsStats)
{
    ModelConfig cfg = ModelConfig::tiny();
    Model model(cfg, 42);
    Rng rng(6);
    Matrix frame(2, cfg.dModel);
    rng.fillGaussian(frame.raw(), frame.size(), 1.0f);
    model.prefillFrame(frame, 0);
    model.prefillFrame(frame, 1);
    ASSERT_EQ(model.history().size(), 2u);
    EXPECT_EQ(model.history()[0].pastLen, 0u);
    EXPECT_EQ(model.history()[1].pastLen, 2u);
    EXPECT_EQ(model.history()[1].layerRatios.size(), cfg.nLayers);
    model.clearHistory();
    EXPECT_TRUE(model.history().empty());
}

TEST(Model, ResetSessionClearsState)
{
    ModelConfig cfg = ModelConfig::tiny();
    Model model(cfg, 42);
    Rng rng(7);
    Matrix frame(2, cfg.dModel);
    rng.fillGaussian(frame.raw(), frame.size(), 1.0f);
    model.prefillFrame(frame, 0);
    model.resetSession();
    EXPECT_EQ(model.cache().tokenCount(), 0u);
    EXPECT_TRUE(model.history().empty());
}

TEST(Model, LogitsMatchVocab)
{
    ModelConfig cfg = ModelConfig::tiny();
    Model model(cfg, 42);
    Rng rng(8);
    Matrix frame(1, cfg.dModel);
    rng.fillGaussian(frame.raw(), frame.size(), 1.0f);
    model.prefillFrame(frame, 0);
    auto logits = model.lastLogits();
    EXPECT_EQ(logits.size(), cfg.vocabSize);
}

namespace
{

/** Serialized model + policy state: equal bytes mean equal caches,
 *  last hidden state, history and retrieval-policy state. */
std::vector<uint8_t>
stateBytes(const Model &m)
{
    serial::ByteWriter w(1);
    m.serializeState(w);
    if (m.policy())
        m.policy()->serializeState(w);
    return w.finish();
}

} // namespace

TEST(Model, SegmentsOfUnequalLengthMatchSeparateBlocks)
{
    // Four models in one forward: seeds {7, 9, 7, 7} (two weight
    // groups, not adjacent in call order), frame blocks of 5, 3, 1
    // and 0 rows, over caches of different depth. Each model must end
    // byte-identical to a twin that forwarded its block alone, and
    // the zero-row segment must leave its model untouched.
    ModelConfig cfg = ModelConfig::tiny();
    const uint64_t seeds[4] = {7, 9, 7, 7};
    const uint32_t rows[4] = {5, 3, 1, 0};
    Rng rng(9);
    std::vector<serve::PolicyInstance> pols;
    std::vector<std::unique_ptr<Model>> fused, solo;
    for (uint32_t i = 0; i < 4; ++i) {
        Matrix warm = testutil::randomMatrix(rng, 2 + i, cfg.dModel);
        for (auto *models : {&fused, &solo}) {
            pols.push_back(
                serve::makePolicy(cfg, serve::PolicySpec::rekv(0.5f)));
            models->push_back(std::make_unique<Model>(cfg, seeds[i]));
            models->back()->setPolicy(pols.back().active());
            models->back()->prefillFrame(warm, 0);
        }
    }

    std::vector<Model::Segment> segs;
    for (uint32_t i = 0; i < 4; ++i)
        segs.push_back({fused[i].get(),
                        testutil::randomMatrix(rng, rows[i], cfg.dModel)});
    const std::vector<uint8_t> untouched = stateBytes(*fused[3]);
    const std::vector<BlockStats> stats =
        Model::forward(segs, 1, TokenStage::VideoFrame);
    ASSERT_EQ(stats.size(), 4u);

    std::vector<const Model *> fused_models;
    for (uint32_t i = 0; i < 4; ++i) {
        const BlockStats one =
            solo[i]->prefillFrame(segs[i].x, 1);
        EXPECT_EQ(stats[i].blockLen, rows[i]);
        EXPECT_EQ(stats[i].pastLen, one.pastLen);
        EXPECT_EQ(stats[i].layerRatios, one.layerRatios);
        EXPECT_EQ(stats[i].selectedPerHead, one.selectedPerHead);
        EXPECT_EQ(stateBytes(*fused[i]), stateBytes(*solo[i]))
            << "model " << i;
        fused_models.push_back(fused[i].get());
    }
    EXPECT_EQ(stateBytes(*fused[3]), untouched);
    EXPECT_TRUE(stats[3].layerRatios.empty());

    const std::vector<std::vector<float>> logits =
        Model::logits(fused_models);
    for (uint32_t i = 0; i < 4; ++i)
        EXPECT_EQ(logits[i], solo[i]->lastLogits()) << "model " << i;
}

TEST(ModelDeathTest, ForwardRejectsMixedConfigs)
{
    // Weights derive from (config name, seed) and RoPE from the
    // config: same-seed models whose configs differ only in name
    // hold different weights, so they may not share one forward.
    ModelConfig a = ModelConfig::tiny();
    ModelConfig b = a;
    b.name = "tiny-renamed";
    Model ma(a, 7), mb(b, 7);
    Matrix x(1, a.dModel);
    EXPECT_DEATH(Model::forward({{&ma, x}, {&mb, x}}, -1,
                                TokenStage::GeneratedText),
                 "one model config");
    EXPECT_DEATH(Model::logits({&ma, &mb}), "one model config");
}
