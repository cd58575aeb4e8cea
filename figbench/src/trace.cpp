#include "trace.h"

#include <algorithm>
#include <chrono>
#include <ostream>
#include <unordered_map>

namespace figbench {

namespace {

int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Open spans of this thread, innermost last. */
struct OpenSpan {
    uint32_t id;
    int32_t cell;
};
thread_local std::vector<OpenSpan> tlsStack;

uint32_t
threadIndex()
{
    static std::atomic<uint32_t> next{0};
    thread_local uint32_t idx = next.fetch_add(1);
    return idx;
}

} // namespace

Tracer::Tracer() : epochNs_(nowNs()) {}

void
Tracer::count(const std::string &key, double v)
{
    std::lock_guard<std::mutex> lock(mu_);
    counts_[round_.load()][key] += v;
}

std::map<std::string, double>
Tracer::counts(uint32_t round) const
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = counts_.find(round);
    return it == counts_.end() ? std::map<std::string, double>{}
                               : it->second;
}

std::vector<Span>
Tracer::spans() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
}

uint32_t
Tracer::open(const char *layer, const char *name, int32_t cell,
             uint32_t parent, Span *out)
{
    Span &s = *out;
    s.layer = layer;
    s.name = name;
    s.id = nextId_.fetch_add(1);
    s.round = round_.load();
    s.tid = threadIndex();
    if (!tlsStack.empty()) {
        if (!parent)
            parent = tlsStack.back().id;
        if (cell < 0)
            cell = tlsStack.back().cell;
    }
    s.parent = parent;
    s.cell = cell;
    tlsStack.push_back({s.id, cell});
    s.startNs = nowNs() - epochNs_;
    return s.id;
}

void
Tracer::close(Span &s)
{
    s.endNs = nowNs() - epochNs_;
    if (!tlsStack.empty() && tlsStack.back().id == s.id)
        tlsStack.pop_back();
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(s);
}

void
Tracer::writeChromeTrace(std::ostream &os, uint32_t lastRound) const
{
    std::vector<Span> all = spans();
    std::erase_if(all, [&](const Span &s) { return s.round > lastRound; });
    std::sort(all.begin(), all.end(), [](const Span &a, const Span &b) {
        return a.startNs < b.startNs;
    });
    os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
    for (size_t i = 0; i < all.size(); ++i) {
        const Span &s = all[i];
        char buf[512];
        snprintf(buf, sizeof buf,
                 "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                 "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %u, "
                 "\"args\": {\"id\": %u, \"parent\": %u, \"round\": %u, "
                 "\"cell\": %d}}%s\n",
                 s.name, s.layer, s.startNs / 1000.0,
                 (s.endNs - s.startNs) / 1000.0, s.tid, s.id, s.parent,
                 s.round, s.cell, i + 1 < all.size() ? "," : "");
        os << buf;
    }
    os << "]}\n";
}

SpanScope::SpanScope(Tracer *t, const char *layer, const char *name,
                     int32_t cell, uint32_t parent)
    : t_(t)
{
    if (t_)
        t_->open(layer, name, cell, parent, &span_);
}

SpanScope::~SpanScope()
{
    if (t_)
        t_->close(span_);
}

std::vector<int64_t>
selfTimes(const std::vector<Span> &spans)
{
    std::unordered_map<uint32_t, size_t> byId;
    for (size_t i = 0; i < spans.size(); ++i)
        byId[spans[i].id] = i;
    std::vector<std::vector<std::pair<int64_t, int64_t>>> kids(
        spans.size());
    for (const Span &s : spans) {
        auto it = byId.find(s.parent);
        if (s.parent && it != byId.end())
            kids[it->second].push_back({s.startNs, s.endNs});
    }
    std::vector<int64_t> self(spans.size());
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span &p = spans[i];
        auto &iv = kids[i];
        std::sort(iv.begin(), iv.end());
        int64_t covered = 0, curLo = 0, curHi = 0;
        bool open = false;
        for (auto [lo, hi] : iv) {
            lo = std::max(lo, p.startNs);
            hi = std::min(hi, p.endNs);
            if (hi <= lo)
                continue;
            if (open && lo <= curHi) {
                curHi = std::max(curHi, hi);
                continue;
            }
            if (open)
                covered += curHi - curLo;
            curLo = lo;
            curHi = hi;
            open = true;
        }
        if (open)
            covered += curHi - curLo;
        self[i] = (p.endNs - p.startNs) - covered;
    }
    return self;
}

} // namespace figbench
