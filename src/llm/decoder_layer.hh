/**
 * @file
 * One llama-style decoder layer: RMSNorm -> GQA attention (with the
 * retrieval hook) -> residual -> RMSNorm -> SwiGLU FFN -> residual.
 */

#ifndef VREX_LLM_DECODER_LAYER_HH
#define VREX_LLM_DECODER_LAYER_HH

#include <vector>

#include "common/rng.hh"
#include "llm/attention.hh"
#include "llm/config.hh"
#include "llm/kv_cache.hh"
#include "llm/selection.hh"
#include "tensor/matrix.hh"

namespace vrex
{

/** Decoder layer with synthetic (deterministic random) weights. */
class DecoderLayer
{
  public:
    /** Build layer @p index with weights from a named RNG stream. */
    DecoderLayer(const ModelConfig &config, uint32_t index,
                 uint64_t seed);

    /**
     * One session's contiguous run of rows in a forwarded block.
     * Segments whose @p layer is the same object share that layer's
     * weight stream (one grouped matmul run); the caller decides
     * which sessions may share (Model::forward()).
     */
    struct Segment
    {
        const DecoderLayer *layer = nullptr; //!< Weights and norms.
        KVCache *cache = nullptr;  //!< beginTokens already called.
        SelectionPolicy *policy = nullptr; //!< nullptr = full.
        uint32_t basePos = 0; //!< Past length = first row's position.
        uint32_t rows = 0;    //!< Block rows of this session (>= 1).
    };

    /**
     * Forward a block of hidden states in place: @p x holds the
     * segments' rows back to back, in order. Every segment must be
     * built on one config and one layer index.
     *
     * Per segment this appends the layer's K/V to its cache, consults
     * its policy for past-token selection and attends its own cache;
     * the projections run through the row-grouped matmul. Every
     * per-row result is the same dot() and per-row op whatever the
     * segments around it, so each segment's bytes equal a call with
     * that segment alone.
     *
     * @return The selection each segment used (ratio accounting).
     */
    static std::vector<LayerSelection>
    forward(Matrix &x, const std::vector<Segment> &segs,
            TokenStage stage);

    uint32_t index() const { return layerIndex; }

  private:
    ModelConfig cfg;
    uint32_t layerIndex;

    // Weights stored as [out_features x in_features] for matmulT.
    Matrix wq, wk, wv, wo;
    Matrix w1, w2, w3;
    std::vector<float> attnNorm, ffnNorm;
};

} // namespace vrex

#endif // VREX_LLM_DECODER_LAYER_HH
