#include "trace.hh"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

namespace perfbench
{

namespace
{

/** Innermost open span of this thread (0 = none). */
thread_local uint64_t tlsCurrent = 0;
thread_local bool tlsIsClient = false;
/** Session key of the blob this thread last fetched from the cold
 *  store: the engine rebuilds that session's policy next. */
thread_local uint64_t tlsWakingKey = 0;

} // namespace

Tracer::Tracer() : origin(Clock::now()) {}

void
Tracer::setClientThread()
{
    tlsIsClient = true;
}

Tracer::Scope::Scope(Tracer *tracer, const char *name,
                     uint64_t session)
    : tr(tracer && tracer->recording.load() ? tracer : nullptr)
{
    if (!tr)
        return;
    client = tlsIsClient;
    span.name = name;
    span.session = session;
    span.id = tr->nextId.fetch_add(1, std::memory_order_relaxed);
    span.parent = tlsCurrent ? tlsCurrent : tr->clientOpen.load();
    savedCurrent = tlsCurrent;
    tlsCurrent = span.id;
    if (client)
        tr->clientOpen.store(span.id);
    span.start = nsBetween(tr->origin, Clock::now());
}

Tracer::Scope::~Scope()
{
    if (!tr)
        return;
    span.end = nsBetween(tr->origin, Clock::now());
    tlsCurrent = savedCurrent;
    if (client)
        tr->clientOpen.store(savedCurrent);
    tr->record(span);
}

void
Tracer::record(const Span &s)
{
    std::lock_guard<std::mutex> lock(mu);
    spans.push_back(s);
}

size_t
Tracer::mark() const
{
    std::lock_guard<std::mutex> lock(mu);
    return spans.size();
}

SpanTotals
Tracer::totals(const std::string &name, size_t from, size_t to) const
{
    std::lock_guard<std::mutex> lock(mu);
    SpanTotals t;
    for (size_t i = from; i < std::min(to, spans.size()); ++i)
        if (const Span &s = spans[i]; name == s.name) {
            ++t.count;
            t.ns += s.end - s.start;
        }
    return t;
}

SpanTotals
Tracer::totalsUnder(const std::string &name,
                    const std::string &parent_name, size_t from) const
{
    std::lock_guard<std::mutex> lock(mu);
    std::unordered_map<uint64_t, const char *> names;
    for (const Span &s : spans)
        names[s.id] = s.name;
    SpanTotals t;
    for (size_t i = from; i < spans.size(); ++i) {
        const Span &s = spans[i];
        auto it = names.find(s.parent);
        if (name == s.name && it != names.end() &&
            parent_name == it->second) {
            ++t.count;
            t.ns += s.end - s.start;
        }
    }
    return t;
}

bool
Tracer::writeJsonLines(const std::string &path) const
{
    std::lock_guard<std::mutex> lock(mu);
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    for (const Span &s : spans)
        std::fprintf(f,
                     "{\"name\":\"%s\",\"start_ns\":%llu,\"end_ns\":%llu,"
                     "\"id\":%llu,\"parent\":%llu,\"session\":%llu}\n",
                     s.name, static_cast<unsigned long long>(s.start),
                     static_cast<unsigned long long>(s.end),
                     static_cast<unsigned long long>(s.id),
                     static_cast<unsigned long long>(s.parent),
                     static_cast<unsigned long long>(s.session));
    return std::fclose(f) == 0;
}

// ---- TracingPolicy ---------------------------------------------------

TracingPolicy::TracingPolicy(std::unique_ptr<vrex::ResvPolicy> policy,
                             Tracer *tracer, uint64_t session)
    : inner(std::move(policy)), tr(tracer), sessionTag(session)
{
}

void
TracingPolicy::onBlockAppended(uint32_t layer, const vrex::KVCache &cache,
                               uint32_t block_start, uint32_t block_len,
                               vrex::TokenStage stage)
{
    Tracer::Scope s(tr, "resv.append", sessionTag);
    inner->onBlockAppended(layer, cache, block_start, block_len, stage);
}

vrex::LayerSelection
TracingPolicy::select(uint32_t layer, const vrex::Matrix &q,
                      const vrex::KVCache &cache, uint32_t past_len,
                      vrex::TokenStage stage)
{
    Tracer::Scope s(tr,
                    stage == vrex::TokenStage::VideoFrame
                        ? "resv.select.frame"
                        : "resv.select.text",
                    sessionTag);
    return inner->select(layer, q, cache, past_len, stage);
}

void
TracingPolicy::reset()
{
    Tracer::Scope s(tr, "resv.reset", sessionTag);
    inner->reset();
}

void
TracingPolicy::serializeState(vrex::serial::ByteWriter &w) const
{
    Tracer::Scope s(tr, "resv.serialize", sessionTag);
    inner->serializeState(w);
}

void
TracingPolicy::restoreState(vrex::serial::ByteReader &r)
{
    Tracer::Scope s(tr, "resv.restore", sessionTag);
    inner->restoreState(r);
}

// ---- TracingColdStore ------------------------------------------------

TracingColdStore::TracingColdStore(std::shared_ptr<vrex::ColdStore> store,
                                   Tracer *tracer)
    : inner(std::move(store)), tr(tracer)
{
}

void
TracingColdStore::put(uint64_t key, const std::vector<uint8_t> &blob)
{
    Tracer::Scope s(tr, "kvstore.put", key);
    inner->put(key, blob);
}

std::vector<uint8_t>
TracingColdStore::get(uint64_t key) const
{
    tlsWakingKey = key;
    Tracer::Scope s(tr, "kvstore.get", key);
    return inner->get(key);
}

bool
TracingColdStore::contains(uint64_t key) const
{
    Tracer::Scope s(tr, "kvstore.contains", key);
    return inner->contains(key);
}

void
TracingColdStore::erase(uint64_t key)
{
    Tracer::Scope s(tr, "kvstore.erase", key);
    inner->erase(key);
}

uint64_t
TracingColdStore::totalBytes() const
{
    return inner->totalBytes();
}

uint64_t
TracingColdStore::count() const
{
    return inner->count();
}

vrex::Tier
TracingColdStore::tier() const
{
    return inner->tier();
}

vrex::TransferStats
TracingColdStore::stats() const
{
    return inner->stats();
}

// ---- TracingFactory --------------------------------------------------

TracingFactory::TracingFactory(Tracer *tracer) : tr(tracer)
{
    fac.registerMaker(
        vrex::serve::PolicyKind::ReSV,
        [this](const vrex::ModelConfig &model,
               const vrex::serve::PolicySpec &spec)
            -> std::unique_ptr<vrex::SelectionPolicy> {
            auto policy = std::make_unique<TracingPolicy>(
                std::make_unique<vrex::ResvPolicy>(model, spec.resvCfg),
                tr, tlsWakingKey);
            if (tlsWakingKey == 0) {
                std::lock_guard<std::mutex> lock(mu);
                lastCreated = policy.get();
            }
            tlsWakingKey = 0;
            return policy;
        });
}

void
TracingFactory::tagLastCreated(uint64_t session)
{
    std::lock_guard<std::mutex> lock(mu);
    if (lastCreated)
        lastCreated->setSession(session);
    lastCreated = nullptr;
}

const vrex::ResvPolicy &
resvOf(const vrex::serve::PolicyInstance &p)
{
    if (const vrex::ResvPolicy *r = p.resv())
        return *r;
    return dynamic_cast<const TracingPolicy &>(*p.basePolicy()).resv();
}

} // namespace perfbench
