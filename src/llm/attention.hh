/**
 * @file
 * Grouped-query attention over the KV cache, with optional per-head
 * sparse token selection (the "light attention" of ReSV's execution
 * stage).
 */

#ifndef VREX_LLM_ATTENTION_HH
#define VREX_LLM_ATTENTION_HH

#include <vector>

#include "llm/config.hh"
#include "llm/kv_cache.hh"
#include "llm/selection.hh"
#include "tensor/matrix.hh"

namespace vrex
{

/**
 * One session's contiguous run of query rows in an attention call:
 * those rows attend that session's own cache under its own
 * selection.
 */
struct AttentionSegment
{
    /** One layer's cache; must already contain the segment's rows,
     *  i.e. kv->keys.rows() == pastLen + rows. */
    const LayerKV *kv = nullptr;
    /** Tokens preceding the segment's rows. */
    uint32_t pastLen = 0;
    /** Per-KV-head past-token selection; nullptr = full. The
     *  segment's own rows are always attended causally. */
    const LayerSelection *sel = nullptr;
    /** Query rows of the segment (0 = nothing to attend). */
    uint32_t rows = 0;
};

/**
 * Compute attention output for a block of query rows made of
 * consecutive segments (one session's T-token block is one segment;
 * a fused decode step over N sessions is N segments of one row).
 *
 * Degenerate-input contract, per segment (asserted, not silently
 * tolerated):
 *  - kv->keys and kv->values must both hold exactly pastLen + rows
 *    rows (the segment must already be appended to the cache);
 *  - a non-null selection must carry cfg.nKvHeads head entries, and
 *    every explicit (selectAll == false) index list must stay below
 *    pastLen — in particular, at pastLen == 0 only selectAll or an
 *    empty index list is legal;
 *  - rows == 0 is a no-op: that segment's cache and selection are
 *    not read, so an all-empty call yields a 0 x dModel result.
 *
 * @param cfg   Model geometry shared by every segment.
 * @param q     Post-RoPE queries, (sum of rows) x (nHeads*headDim);
 *              segments own consecutive row ranges in order.
 * @param segs  The segments tiling q's rows.
 * @param out   Result, q.rows() x dModel (heads concatenated). Each
 *              row depends only on its own segment, so a segment's
 *              rows are bit-identical whatever segments surround it.
 */
void attentionForward(const ModelConfig &cfg, const Matrix &q,
                      const std::vector<AttentionSegment> &segs,
                      Matrix &out);

} // namespace vrex

#endif // VREX_LLM_ATTENTION_HH
