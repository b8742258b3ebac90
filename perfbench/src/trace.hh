/**
 * @file
 * Span tracing for the serving benchmark's traced run.
 *
 * Spans are recorded only from the benchmark's own files, around the
 * calls it makes into each layer: the client's Engine verbs, a
 * forwarding SelectionPolicy decorator around ReSV (installed through
 * a bench-owned PolicyFactory), a forwarding ColdStore decorator
 * (installed through KvBudgetConfig::store), and the direct pipeline
 * pass. Spans stay in memory and are written out once, at exit.
 *
 * Both decorators forward every virtual unchanged, so a traced run
 * computes exactly the bytes an untraced run computes.
 */
#ifndef VREX_PERFBENCH_TRACE_HH
#define VREX_PERFBENCH_TRACE_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/resv.hh"
#include "kvstore/cold_store.hh"
#include "serve/policy_factory.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Nanoseconds between two clock readings. */
inline uint64_t
nsBetween(Clock::time_point a, Clock::time_point b)
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(b - a)
            .count());
}

/** One recorded span: times are ns since the tracer's origin. */
struct Span
{
    const char *name = "";
    uint64_t start = 0;
    uint64_t end = 0;
    uint64_t id = 0;
    uint64_t parent = 0;
    uint64_t session = 0;
};

/** Count and total duration of the spans sharing one name. */
struct SpanTotals
{
    uint64_t count = 0;
    uint64_t ns = 0;

    double
    meanMs() const
    {
        return count ? static_cast<double>(ns) / 1e6 / count : 0.0;
    }
};

/**
 * In-memory span store, safe to record into from engine workers.
 * A span's parent is the innermost open span of the recording
 * thread; a worker thread with no open span of its own takes the
 * client's innermost open span, since the client is waiting on the
 * work the worker does.
 */
class Tracer
{
  public:
    Tracer();

    /** RAII span: records [construction, destruction). */
    class Scope
    {
      public:
        Scope(Tracer *tracer, const char *name, uint64_t session);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer *tr;
        Span span;
        uint64_t savedCurrent = 0;
        bool client = false;
    };

    /** Mark the calling thread as the client that drives the engine. */
    void setClientThread();
    /** Spans are recorded only while enabled (off at start). */
    void enable(bool on) { recording.store(on); }

    /** Spans recorded so far; a mark for the range queries below. */
    size_t mark() const;
    /** Totals of the spans named @p name recorded in [from, to). */
    SpanTotals totals(const std::string &name, size_t from = 0,
                      size_t to = SIZE_MAX) const;
    /** Totals of the spans named @p name, recorded from @p from on,
     *  whose parent span is named @p parent_name. */
    SpanTotals totalsUnder(const std::string &name,
                           const std::string &parent_name,
                           size_t from = 0) const;

    /** Write every span as one JSON object per line. */
    bool writeJsonLines(const std::string &path) const;

  private:
    void record(const Span &span);

    Clock::time_point origin;
    std::atomic<uint64_t> nextId{1};
    std::atomic<uint64_t> clientOpen{0};
    std::atomic<bool> recording{false};
    mutable std::mutex mu;
    std::vector<Span> spans; // guarded by mu
};

/**
 * Forwarding SelectionPolicy decorator: times onBlockAppended and
 * select (split by stage) and forwards every virtual, including the
 * hibernation pair serializeState/restoreState, to the wrapped ReSV.
 */
class TracingPolicy : public vrex::SelectionPolicy
{
  public:
    TracingPolicy(std::unique_ptr<vrex::ResvPolicy> inner,
                  Tracer *tracer, uint64_t session);

    void onBlockAppended(uint32_t layer, const vrex::KVCache &cache,
                         uint32_t block_start, uint32_t block_len,
                         vrex::TokenStage stage) override;
    vrex::LayerSelection select(uint32_t layer, const vrex::Matrix &q,
                                const vrex::KVCache &cache,
                                uint32_t past_len,
                                vrex::TokenStage stage) override;
    void reset() override;
    void serializeState(vrex::serial::ByteWriter &w) const override;
    void restoreState(vrex::serial::ByteReader &r) override;

    const vrex::ResvPolicy &resv() const { return *inner; }
    void setSession(uint64_t session) { sessionTag = session; }

  private:
    std::unique_ptr<vrex::ResvPolicy> inner;
    Tracer *tr;
    uint64_t sessionTag;
};

/** Forwarding ColdStore decorator: times and forwards every call. */
class TracingColdStore : public vrex::ColdStore
{
  public:
    TracingColdStore(std::shared_ptr<vrex::ColdStore> inner,
                     Tracer *tracer);

    void put(uint64_t key, const std::vector<uint8_t> &blob) override;
    std::vector<uint8_t> get(uint64_t key) const override;
    bool contains(uint64_t key) const override;
    void erase(uint64_t key) override;
    uint64_t totalBytes() const override;
    uint64_t count() const override;
    vrex::Tier tier() const override;
    vrex::TransferStats stats() const override;

  private:
    std::shared_ptr<vrex::ColdStore> inner;
    Tracer *tr;
};

/**
 * PolicyFactory whose ReSV maker wraps each policy in a
 * TracingPolicy. The engine builds a policy in two places: on
 * admission, in the client's createSession call (the client tags it
 * with the returned id through tagLastCreated), and on wake, on a
 * worker right after ColdStore::get of the session's key (which
 * TracingColdStore notes for that thread).
 */
class TracingFactory
{
  public:
    explicit TracingFactory(Tracer *tracer);

    const vrex::serve::PolicyFactory &factory() const { return fac; }
    /** Tag the policy built by the last createSession call. */
    void tagLastCreated(uint64_t session);

  private:
    Tracer *tr;
    vrex::serve::PolicyFactory fac;
    std::mutex mu;
    TracingPolicy *lastCreated = nullptr; // guarded by mu
};

/** The ReSV policy of an engine session, decorated or not. */
const vrex::ResvPolicy &resvOf(const vrex::serve::PolicyInstance &p);

} // namespace perfbench

#endif // VREX_PERFBENCH_TRACE_HH
