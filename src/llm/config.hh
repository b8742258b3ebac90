/**
 * @file
 * Transformer model configuration.
 *
 * Two presets matter for the reproduction: `tiny()` is a small model
 * that runs functionally in milliseconds for accuracy-proxy and
 * clustering experiments; `llama3_8b()` carries the real geometry of
 * the paper's backbone and parameterizes the analytic timing model.
 */

#ifndef VREX_LLM_CONFIG_HH
#define VREX_LLM_CONFIG_HH

#include <cstdint>
#include <string>

namespace vrex
{

/** Llama-style decoder configuration (GQA + SwiGLU + RoPE). */
struct ModelConfig
{
    std::string name;
    uint32_t nLayers = 0;
    uint32_t dModel = 0;
    uint32_t nHeads = 0;
    uint32_t nKvHeads = 0;
    uint32_t ffnDim = 0;
    uint32_t vocabSize = 0;
    float ropeTheta = 10000.0f;

    /** Field-wise equality. Weights derive from (name, seed) and the
     *  shapes, RoPE from ropeTheta, so only equal configs may share
     *  one forward pass. */
    bool operator==(const ModelConfig &) const = default;

    uint32_t headDim() const { return dModel / nHeads; }

    /** Queries per KV head under grouped-query attention. */
    uint32_t groupSize() const { return nHeads / nKvHeads; }

    /** KV bytes per token per layer at @p bytesPerElem precision. */
    uint64_t
    kvBytesPerTokenPerLayer(double bytesPerElem = 2.0) const
    {
        double b = 2.0 * nKvHeads * headDim() * bytesPerElem;
        return static_cast<uint64_t>(b);
    }

    /** KV bytes per token across all layers. */
    uint64_t
    kvBytesPerToken(double bytesPerElem = 2.0) const
    {
        return kvBytesPerTokenPerLayer(bytesPerElem) * nLayers;
    }

    /** Parameter count of the decoder stack + embeddings. */
    uint64_t paramCount() const;

    /** Parameter bytes at @p bytesPerElem precision. */
    uint64_t
    paramBytes(double bytesPerElem = 2.0) const
    {
        return static_cast<uint64_t>(paramCount() * bytesPerElem);
    }

    /** FLOPs for one forward pass of @p tokens new tokens, ignoring
     *  attention-vs-cache terms (2 * params * tokens). */
    double denseFlops(uint64_t tokens) const;

    /** FLOPs of attention score+value computation of @p qTokens
     *  queries against @p kvTokens cached tokens (all layers). */
    double attentionFlops(uint64_t qTokens, uint64_t kvTokens) const;

    /** The paper's Llama-3-8B backbone geometry. */
    static ModelConfig llama3_8b();

    /** Small functional model for fast experiments. */
    static ModelConfig tiny();

    /** Mid-size functional model (accuracy-proxy experiments). */
    static ModelConfig smallVideo();
};

} // namespace vrex

#endif // VREX_LLM_CONFIG_HH
