#include "llm/decoder_layer.hh"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "tensor/ops.hh"

namespace vrex
{

namespace
{

Matrix
randomWeight(uint32_t out_dim, uint32_t in_dim, Rng &rng)
{
    Matrix w(out_dim, in_dim);
    const float scale = 1.0f / std::sqrt(static_cast<float>(in_dim));
    rng.fillGaussian(w.raw(), w.size(), scale);
    return w;
}

/** Copy of rows [begin, begin + count) of @p m. */
Matrix
rowsOf(const Matrix &m, uint32_t begin, uint32_t count)
{
    Matrix out(count, m.cols());
    std::copy_n(m.row(begin), static_cast<size_t>(count) * m.cols(),
                out.raw());
    return out;
}

} // namespace

DecoderLayer::DecoderLayer(const ModelConfig &config, uint32_t index,
                           uint64_t seed)
    : cfg(config), layerIndex(index)
{
    Rng rng(seed, cfg.name + "/layer" + std::to_string(index));
    const uint32_t d = cfg.dModel;
    const uint32_t kv_dim = cfg.nKvHeads * cfg.headDim();
    wq = randomWeight(d, d, rng);
    wk = randomWeight(kv_dim, d, rng);
    wv = randomWeight(kv_dim, d, rng);
    wo = randomWeight(d, d, rng);
    w1 = randomWeight(cfg.ffnDim, d, rng);
    w3 = randomWeight(cfg.ffnDim, d, rng);
    w2 = randomWeight(d, cfg.ffnDim, rng);
    attnNorm.assign(d, 1.0f);
    ffnNorm.assign(d, 1.0f);
    // Mildly varied norm gains so layers are not identical maps.
    for (uint32_t i = 0; i < d; ++i) {
        attnNorm[i] += 0.05f * static_cast<float>(rng.gaussian());
        ffnNorm[i] += 0.05f * static_cast<float>(rng.gaussian());
    }
}

std::vector<LayerSelection>
DecoderLayer::forward(Matrix &x, const std::vector<Segment> &segs,
                      TokenStage stage)
{
    const uint32_t n = static_cast<uint32_t>(segs.size());
    VREX_ASSERT(n > 0, "layer forward needs segments");
    const ModelConfig &cfg = segs[0].layer->cfg;
    const uint32_t layer_index = segs[0].layer->layerIndex;
    const uint32_t d = cfg.dModel;
    const uint32_t head_dim = cfg.headDim();

    // Segment i owns rows [row0[i], row0[i + 1]) of x.
    std::vector<uint32_t> row0(n + 1, 0);
    for (uint32_t i = 0; i < n; ++i) {
        const Segment &seg = segs[i];
        VREX_ASSERT(seg.layer->cfg == cfg &&
                        seg.layer->layerIndex == layer_index,
                    "one layer forward needs one config and layer");
        VREX_ASSERT(seg.cache != nullptr && seg.rows > 0,
                    "layer segment needs a cache and rows");
        row0[i + 1] = row0[i] + seg.rows;
    }
    VREX_ASSERT(row0[n] == x.rows() && x.cols() == d,
                "layer segments must tile the block");

    // Adjacent segments on one layer object share its weight stream.
    auto groupsFor = [&](const Matrix DecoderLayer::*w) {
        std::vector<RowGroup> gs;
        for (uint32_t i = 0; i < n; ++i) {
            if (i > 0 && segs[i].layer == segs[i - 1].layer)
                gs.back().rowEnd = row0[i + 1];
            else
                gs.push_back({row0[i], row0[i + 1], &(segs[i].layer->*w)});
        }
        return gs;
    };

    // Attention sub-block.
    Matrix h = x;
    for (uint32_t i = 0; i < n; ++i)
        for (uint32_t t = row0[i]; t < row0[i + 1]; ++t)
            rmsNorm(h.row(t), segs[i].layer->attnNorm.data(), d);

    Matrix q, k, v;
    matmulTransposedGrouped(h, groupsFor(&DecoderLayer::wq), q);
    matmulTransposedGrouped(h, groupsFor(&DecoderLayer::wk), k);
    matmulTransposedGrouped(h, groupsFor(&DecoderLayer::wv), v);

    for (uint32_t i = 0; i < n; ++i) {
        for (uint32_t t = row0[i]; t < row0[i + 1]; ++t) {
            const uint32_t pos = segs[i].basePos + (t - row0[i]);
            for (uint32_t hh = 0; hh < cfg.nHeads; ++hh)
                applyRope(q.row(t) + hh * head_dim, head_dim, pos,
                          cfg.ropeTheta);
            for (uint32_t hh = 0; hh < cfg.nKvHeads; ++hh)
                applyRope(k.row(t) + hh * head_dim, head_dim, pos,
                          cfg.ropeTheta);
        }
    }

    // Cache append and policy consultation touch session-private
    // state: per segment, on that segment's rows only.
    std::vector<LayerSelection> sels;
    sels.reserve(n);
    for (uint32_t i = 0; i < n; ++i) {
        const Segment &seg = segs[i];
        seg.cache->appendLayer(layer_index, rowsOf(k, row0[i], seg.rows),
                               rowsOf(v, row0[i], seg.rows));
        LayerSelection sel = LayerSelection::full(cfg.nKvHeads);
        if (seg.policy) {
            seg.policy->onBlockAppended(layer_index, *seg.cache,
                                        seg.basePos, seg.rows, stage);
            sel = seg.policy->select(layer_index,
                                     rowsOf(q, row0[i], seg.rows),
                                     *seg.cache, seg.basePos, stage);
        }
        sels.push_back(std::move(sel));
    }
    std::vector<AttentionSegment> attn(n);
    for (uint32_t i = 0; i < n; ++i)
        attn[i] = {&segs[i].cache->layer(layer_index), segs[i].basePos,
                   &sels[i], segs[i].rows};

    Matrix attn_out;
    attentionForward(cfg, q, attn, attn_out);

    Matrix proj;
    matmulTransposedGrouped(attn_out, groupsFor(&DecoderLayer::wo),
                            proj);
    for (uint32_t t = 0; t < x.rows(); ++t)
        addInPlace(x.row(t), proj.row(t), d);

    // FFN sub-block.
    Matrix h2 = x;
    for (uint32_t i = 0; i < n; ++i)
        for (uint32_t t = row0[i]; t < row0[i + 1]; ++t)
            rmsNorm(h2.row(t), segs[i].layer->ffnNorm.data(), d);
    Matrix gate, up, down;
    matmulTransposedGrouped(h2, groupsFor(&DecoderLayer::w1), gate);
    matmulTransposedGrouped(h2, groupsFor(&DecoderLayer::w3), up);
    for (uint32_t t = 0; t < x.rows(); ++t) {
        silu(gate.row(t), cfg.ffnDim);
        hadamard(gate.row(t), up.row(t), cfg.ffnDim);
    }
    matmulTransposedGrouped(gate, groupsFor(&DecoderLayer::w2), down);
    for (uint32_t t = 0; t < x.rows(); ++t)
        addInPlace(x.row(t), down.row(t), d);

    return sels;
}

} // namespace vrex
