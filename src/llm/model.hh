/**
 * @file
 * The streaming video LLM backbone: a stack of decoder layers driven
 * in the paper's two stages — the *iterative prefill* stage (frames
 * and question tokens arrive block by block and accumulate KV) and
 * the *generation* stage (greedy decoding against the accumulated
 * cache).
 */

#ifndef VREX_LLM_MODEL_HH
#define VREX_LLM_MODEL_HH

#include <memory>
#include <vector>

#include "llm/decoder_layer.hh"
#include "llm/kv_cache.hh"
#include "llm/selection.hh"
#include "tensor/matrix.hh"

namespace vrex
{

/** Selection accounting for one forwarded block. */
struct BlockStats
{
    TokenStage stage;
    uint32_t blockLen = 0;
    uint32_t pastLen = 0;
    /** Mean selected-token ratio per layer. */
    std::vector<double> layerRatios;
    /** Selected token count per [layer][kvHead]. */
    std::vector<std::vector<uint32_t>> selectedPerHead;

    double meanRatio() const;
};

/** The decoder-only backbone with synthetic deterministic weights. */
class Model
{
  public:
    Model(const ModelConfig &config, uint64_t seed = 42);

    const ModelConfig &config() const { return cfg; }
    KVCache &cache() { return kv; }
    const KVCache &cache() const { return kv; }

    /** Install the retrieval policy (not owned); nullptr = full. */
    void setPolicy(SelectionPolicy *policy) { selPolicy = policy; }

    /** Embed token ids into model space. */
    Matrix embedTokens(const std::vector<uint32_t> &ids) const;

    /**
     * Run one block through all layers (iterative prefill step or a
     * generation step). @p x rows become KV entries; returns selection
     * accounting and records it in history(). forward() with this
     * model as the only segment.
     */
    BlockStats forwardBlock(Matrix x, int32_t frame_id, TokenStage stage);

    /** One model's block in a forward() call. */
    struct Segment
    {
        Model *model = nullptr;
        Matrix x; //!< Embeddings, rows x dModel.
    };

    /**
     * Run one block per model through all layers in one pass: the
     * single forward path. A solo block is one segment of T rows; a
     * fused decode step is N segments of one row each. Models must
     * be distinct and share one config (asserted). Models with equal
     * seeds share one weight stream per projection (weightGroups());
     * caches, policies, history and hidden state advance per model,
     * so each model's bytes equal a call with its segment alone.
     *
     * A segment of zero rows is a no-op: its model's cache, policy,
     * last hidden state and history stay untouched, and its stats
     * report blockLen 0 with no layer entries.
     *
     * @return Stats per segment, in segment order.
     */
    static std::vector<BlockStats>
    forward(const std::vector<Segment> &segs, int32_t frame_id,
            TokenStage stage);

    /** Logits of each model's most recent token (tied embedding), in
     *  one grouped matmul: element i equals models[i]->lastLogits()
     *  bit for bit. */
    static std::vector<std::vector<float>>
    logits(const std::vector<const Model *> &models);

    /** Prefill one video frame's projected embeddings. */
    BlockStats prefillFrame(const Matrix &frame_embeds, int32_t frame_id);

    /** Prefill question text tokens. */
    BlockStats prefillText(const std::vector<uint32_t> &ids);

    /** Greedy-decode @p max_tokens; returns generated token ids. */
    std::vector<uint32_t> generate(uint32_t max_tokens);

    /** Hidden state of the most recent token (post final norm). */
    const std::vector<float> &lastHidden() const { return lastHid; }

    /** Logits of the most recent token (tied embedding): logits()
     *  over this model alone. */
    std::vector<float> lastLogits() const;

    /** All block stats since the last clearHistory(). */
    const std::vector<BlockStats> &history() const { return blockHistory; }
    void clearHistory() { blockHistory.clear(); }

    /** Reset the cache, the policy state, and history. */
    void resetSession();

    /** The installed retrieval policy (nullptr = full attention). */
    SelectionPolicy *policy() const { return selPolicy; }

    /**
     * Serialize the mutable model state: KV cache, last hidden
     * state, and block history. Weights are NOT serialized — they
     * are deterministic from (config, seed) and the restoring model
     * must be constructed with the same pair. Policy state is
     * serialized separately by the owner (the policy object lives
     * outside the model).
     */
    void serializeState(serial::ByteWriter &w) const;
    void restoreState(serial::ByteReader &r);

  private:
    /**
     * The one weight-sharing decision of the forward path. Weights
     * are a pure function of (config, seed), so models with equal
     * pairs hold byte-identical matrices and may share one weight
     * stream. Asserts that every model has one config, then returns
     * the indices of @p models stably sorted by seed and split into
     * groups of equal seed (the first member lends its weights).
     */
    static std::vector<std::vector<uint32_t>>
    weightGroups(const std::vector<const Model *> &models);

    ModelConfig cfg;
    uint64_t weightSeed;
    KVCache kv;
    std::vector<DecoderLayer> layers;
    Matrix embedding;             //!< vocab x dModel (tied output).
    std::vector<float> finalNorm;
    SelectionPolicy *selPolicy = nullptr;
    std::vector<float> lastHid;
    std::vector<BlockStats> blockHistory;
};

} // namespace vrex

#endif // VREX_LLM_MODEL_HH
