#include "llm/model.hh"

#include <algorithm>
#include <numeric>

#include "common/rng.hh"
#include "tensor/ops.hh"

namespace vrex
{

double
BlockStats::meanRatio() const
{
    if (layerRatios.empty())
        return 1.0;
    double s = 0.0;
    for (double r : layerRatios)
        s += r;
    return s / static_cast<double>(layerRatios.size());
}

Model::Model(const ModelConfig &config, uint64_t seed)
    : cfg(config), weightSeed(seed), kv(config)
{
    layers.reserve(cfg.nLayers);
    for (uint32_t l = 0; l < cfg.nLayers; ++l)
        layers.emplace_back(cfg, l, seed);
    Rng rng(seed, cfg.name + "/embedding");
    embedding = Matrix(cfg.vocabSize, cfg.dModel);
    rng.fillGaussian(embedding.raw(), embedding.size(), 1.0f);
    finalNorm.assign(cfg.dModel, 1.0f);
    lastHid.assign(cfg.dModel, 0.0f);
}

Matrix
Model::embedTokens(const std::vector<uint32_t> &ids) const
{
    Matrix x(static_cast<uint32_t>(ids.size()), cfg.dModel);
    for (uint32_t t = 0; t < ids.size(); ++t) {
        VREX_ASSERT(ids[t] < cfg.vocabSize, "token id out of range");
        std::copy_n(embedding.row(ids[t]), cfg.dModel, x.row(t));
    }
    return x;
}

std::vector<std::vector<uint32_t>>
Model::weightGroups(const std::vector<const Model *> &models)
{
    VREX_ASSERT(!models.empty(), "forward needs models");
    for (const Model *m : models)
        VREX_ASSERT(m->cfg == models[0]->cfg,
                    "one forward needs one model config");
    std::vector<uint32_t> order(models.size());
    std::iota(order.begin(), order.end(), 0u);
    std::stable_sort(order.begin(), order.end(),
                     [&](uint32_t a, uint32_t b) {
                         return models[a]->weightSeed <
                             models[b]->weightSeed;
                     });
    std::vector<std::vector<uint32_t>> groups;
    for (uint32_t i : order) {
        if (groups.empty() ||
            models[groups.back()[0]]->weightSeed != models[i]->weightSeed)
            groups.emplace_back();
        groups.back().push_back(i);
    }
    return groups;
}

BlockStats
Model::forwardBlock(Matrix x, int32_t frame_id, TokenStage stage)
{
    return forward({{this, std::move(x)}}, frame_id, stage)[0];
}

std::vector<BlockStats>
Model::forward(const std::vector<Segment> &segs, int32_t frame_id,
               TokenStage stage)
{
    std::vector<const Model *> models;
    std::vector<BlockStats> stats(segs.size());
    for (size_t i = 0; i < segs.size(); ++i) {
        models.push_back(segs[i].model);
        stats[i].stage = stage;
        stats[i].blockLen = segs[i].x.rows();
        stats[i].pastLen = segs[i].model->kv.tokenCount();
    }
    const std::vector<std::vector<uint32_t>> groups = weightGroups(models);
    const ModelConfig &cfg = models[0]->cfg;

    // Rows are laid out weight group by weight group, so models
    // sharing weights own adjacent rows and one layer object. A
    // zero-row segment is left out: it touches nothing of its model.
    Matrix x(0, cfg.dModel);
    std::vector<uint32_t> order;
    std::vector<const Model *> lender;
    for (const std::vector<uint32_t> &g : groups) {
        for (uint32_t i : g) {
            const Matrix &xi = segs[i].x;
            if (xi.rows() == 0)
                continue;
            VREX_ASSERT(xi.cols() == cfg.dModel, "bad block width");
            for (uint32_t t = 0; t < xi.rows(); ++t)
                x.appendRow(xi.row(t));
            order.push_back(i);
            lender.push_back(models[g[0]]);
        }
    }
    if (order.empty())
        return stats;

    std::vector<DecoderLayer::Segment> layer_segs;
    for (uint32_t i : order) {
        Model &m = *segs[i].model;
        m.kv.beginTokens(stats[i].blockLen, frame_id, stage);
        layer_segs.push_back({nullptr, &m.kv, m.selPolicy,
                              stats[i].pastLen, stats[i].blockLen});
    }
    for (uint32_t l = 0; l < cfg.nLayers; ++l) {
        for (size_t k = 0; k < order.size(); ++k)
            layer_segs[k].layer = &lender[k]->layers[l];
        const std::vector<LayerSelection> sels =
            DecoderLayer::forward(x, layer_segs, stage);
        for (size_t k = 0; k < order.size(); ++k) {
            BlockStats &st = stats[order[k]];
            st.layerRatios.push_back(sels[k].selectedRatio(st.pastLen));
            std::vector<uint32_t> per_head;
            per_head.reserve(sels[k].kvHeads.size());
            for (const auto &h : sels[k].kvHeads)
                per_head.push_back(h.selectedCount(st.pastLen));
            st.selectedPerHead.push_back(std::move(per_head));
        }
    }

    // Final norm of each segment's last row becomes its decoding
    // state.
    uint32_t row = 0;
    for (uint32_t i : order) {
        Model &m = *segs[i].model;
        row += stats[i].blockLen;
        m.lastHid.assign(x.row(row - 1), x.row(row - 1) + cfg.dModel);
        rmsNorm(m.lastHid.data(), m.finalNorm.data(), cfg.dModel);
        m.blockHistory.push_back(stats[i]);
    }
    return stats;
}

std::vector<std::vector<float>>
Model::logits(const std::vector<const Model *> &models)
{
    // logits = lastHid · embedding^T as one grouped matmul, so one
    // streamed embedding row serves every model of a weight group.
    // Each element is the single dot() of that model's hidden state
    // and embedding row.
    const std::vector<std::vector<uint32_t>> groups = weightGroups(models);
    const ModelConfig &cfg = models[0]->cfg;
    Matrix hid(0, cfg.dModel);
    std::vector<RowGroup> row_groups;
    std::vector<uint32_t> order;
    for (const std::vector<uint32_t> &g : groups) {
        const uint32_t begin = hid.rows();
        row_groups.push_back({begin, begin + static_cast<uint32_t>(g.size()),
                              &models[g[0]]->embedding});
        for (uint32_t i : g) {
            hid.appendRow(models[i]->lastHid.data());
            order.push_back(i);
        }
    }

    Matrix prod;
    matmulTransposedGrouped(hid, row_groups, prod);
    std::vector<std::vector<float>> out(models.size());
    for (uint32_t r = 0; r < order.size(); ++r)
        out[order[r]].assign(prod.row(r), prod.row(r) + cfg.vocabSize);
    return out;
}

BlockStats
Model::prefillFrame(const Matrix &frame_embeds, int32_t frame_id)
{
    return forwardBlock(frame_embeds, frame_id, TokenStage::VideoFrame);
}

BlockStats
Model::prefillText(const std::vector<uint32_t> &ids)
{
    return forwardBlock(embedTokens(ids), -1, TokenStage::QuestionText);
}

std::vector<float>
Model::lastLogits() const
{
    return logits({this})[0];
}

std::vector<uint32_t>
Model::generate(uint32_t max_tokens)
{
    std::vector<uint32_t> out;
    out.reserve(max_tokens);
    for (uint32_t i = 0; i < max_tokens; ++i) {
        std::vector<float> logits = lastLogits();
        uint32_t best = static_cast<uint32_t>(
            std::max_element(logits.begin(), logits.end()) -
            logits.begin());
        out.push_back(best);
        forwardBlock(embedTokens({best}), -1, TokenStage::GeneratedText);
    }
    return out;
}

void
Model::resetSession()
{
    kv.clear();
    if (selPolicy)
        selPolicy->reset();
    blockHistory.clear();
    lastHid.assign(cfg.dModel, 0.0f);
}

void
Model::serializeState(serial::ByteWriter &w) const
{
    kv.serialize(w);
    w.putVec(lastHid);
    w.put<uint64_t>(blockHistory.size());
    for (const auto &b : blockHistory) {
        w.put<uint8_t>(static_cast<uint8_t>(b.stage));
        w.put<uint32_t>(b.blockLen);
        w.put<uint32_t>(b.pastLen);
        w.putVec(b.layerRatios);
        w.put<uint64_t>(b.selectedPerHead.size());
        for (const auto &heads : b.selectedPerHead)
            w.putVec(heads);
    }
}

void
Model::restoreState(serial::ByteReader &r)
{
    kv.restore(r);
    lastHid = r.getVec<float>();
    if (lastHid.size() != cfg.dModel)
        throw serial::SerialError(
            "Model::restoreState: lastHidden size mismatch");
    const uint64_t n_blocks = r.get<uint64_t>();
    blockHistory.clear();
    for (uint64_t i = 0; i < n_blocks; ++i) {
        BlockStats b;
        b.stage = static_cast<TokenStage>(r.get<uint8_t>());
        b.blockLen = r.get<uint32_t>();
        b.pastLen = r.get<uint32_t>();
        b.layerRatios = r.getVec<double>();
        const uint64_t n_layers = r.get<uint64_t>();
        b.selectedPerHead.clear();
        for (uint64_t l = 0; l < n_layers; ++l)
            b.selectedPerHead.push_back(r.getVec<uint32_t>());
        blockHistory.push_back(std::move(b));
    }
}

} // namespace vrex
