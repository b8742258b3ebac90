#include "llm/attention.hh"

#include <cmath>
#include <vector>

#include "tensor/ops.hh"

namespace vrex
{

double
LayerSelection::selectedRatio(uint32_t past_len) const
{
    if (past_len == 0 || kvHeads.empty())
        return 1.0;
    double sum = 0.0;
    for (const auto &h : kvHeads)
        sum += static_cast<double>(h.selectedCount(past_len)) / past_len;
    return sum / static_cast<double>(kvHeads.size());
}

namespace
{

/** Shared per-(head, token) scratch for the attention kernels. */
struct AttendScratch
{
    std::vector<float> scores;
    std::vector<uint32_t> attended;
};

/** Check the degenerate-input contract of one segment (see
 *  attentionForward() docs). O(nKvHeads). */
void
checkSegment(const ModelConfig &cfg, const AttentionSegment &seg)
{
    VREX_ASSERT(seg.kv != nullptr, "attention segment without a cache");
    const LayerKV &kv = *seg.kv;
    VREX_ASSERT(kv.keys.rows() == seg.pastLen + seg.rows,
                "attention expects the block appended to the cache");
    VREX_ASSERT(kv.values.rows() == kv.keys.rows(),
                "attention cache keys/values row mismatch");
    VREX_ASSERT(seg.sel == nullptr ||
                seg.sel->kvHeads.size() == cfg.nKvHeads,
                "selection has wrong head count");
    if (seg.sel != nullptr) {
        for (const HeadSelection &h : seg.sel->kvHeads)
            // Indices are ascending, so the back is the max: every
            // explicit selection must point below pastLen (which
            // at pastLen == 0 means it must be empty).
            VREX_ASSERT(h.selectAll || h.indices.empty() ||
                            h.indices.back() < seg.pastLen,
                        "selection index beyond the past");
    }
}

/**
 * Attend one query token of one head: @p qv against the selected
 * past tokens plus the causal block prefix ending at block offset
 * @p t. Every row of every segment funnels through here, which
 * is what makes a segment's bytes independent of its neighbours.
 */
void
attendToken(const float *qv, const LayerKV &kv, uint32_t kv_off,
            uint32_t head_dim, uint32_t past_len, uint32_t t,
            const HeadSelection *hsel, float *ov, AttendScratch &s)
{
    // Tokens this query may attend: selected past tokens plus
    // the causal prefix of the current block.
    s.attended.clear();
    if (!hsel || hsel->selectAll) {
        for (uint32_t i = 0; i < past_len; ++i)
            s.attended.push_back(i);
    } else {
        s.attended.assign(hsel->indices.begin(),
                          hsel->indices.end());
    }
    for (uint32_t i = 0; i <= t; ++i)
        s.attended.push_back(past_len + i);

    s.scores.resize(s.attended.size());
    const float scale = 1.0f / std::sqrt((float)head_dim);
    for (size_t i = 0; i < s.attended.size(); ++i) {
        const float *kvec = kv.keys.row(s.attended[i]) + kv_off;
        s.scores[i] = dot(qv, kvec, head_dim) * scale;
    }
    softmax(s.scores.data(),
            static_cast<uint32_t>(s.scores.size()));

    for (size_t i = 0; i < s.attended.size(); ++i) {
        const float p = s.scores[i];
        if (p == 0.0f)
            continue;
        const float *vvec = kv.values.row(s.attended[i]) + kv_off;
        for (uint32_t d = 0; d < head_dim; ++d)
            ov[d] += p * vvec[d];
    }
}

} // namespace

void
attentionForward(const ModelConfig &cfg, const Matrix &q,
                 const std::vector<AttentionSegment> &segs,
                 Matrix &out)
{
    const uint32_t head_dim = cfg.headDim();
    const uint32_t group = cfg.groupSize();
    uint32_t total = 0;
    for (const AttentionSegment &seg : segs) {
        // An empty segment reads neither its cache nor its selection.
        if (seg.rows > 0)
            checkSegment(cfg, seg);
        total += seg.rows;
    }
    VREX_ASSERT(q.rows() == total, "attention segments must tile q");

    out = Matrix(total, cfg.dModel);
    AttendScratch scratch;

    // Head outer, then segment and token: each (head, token) call is
    // independent of every other, so this order is merely a walk.
    for (uint32_t h = 0; h < cfg.nHeads; ++h) {
        const uint32_t kv_head = h / group;
        const uint32_t q_off = h * head_dim;
        const uint32_t kv_off = kv_head * head_dim;
        uint32_t row = 0;
        for (const AttentionSegment &seg : segs) {
            const HeadSelection *hsel =
                seg.sel ? &seg.sel->kvHeads[kv_head] : nullptr;
            for (uint32_t t = 0; t < seg.rows; ++t, ++row)
                attendToken(q.row(row) + q_off, *seg.kv, kv_off,
                            head_dim, seg.pastLen, t, hsel,
                            out.row(row) + q_off, scratch);
        }
    }
}

} // namespace vrex
