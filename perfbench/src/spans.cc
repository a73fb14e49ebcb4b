#include "spans.hh"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>

#include "common.hh"
#include "support/telemetry.hh"

namespace perfbench {

namespace {

/** Spans this thread has open, innermost last. One recorder is
 *  live per process, so the stack needs no recorder key. */
thread_local std::vector<int> openSpans;

uint32_t
threadNumber()
{
    static std::atomic<uint32_t> next{1};
    thread_local const uint32_t mine = next.fetch_add(1);
    return mine;
}

} // namespace

int
SpanRecorder::begin(const char *name, int64_t request)
{
    if (!on)
        return -1;
    Span s;
    s.name = name;
    s.parent = openSpans.empty() ? -1 : openSpans.back();
    s.thread = threadNumber();
    s.request = request;
    s.startNs = nowNs();
    std::lock_guard<std::mutex> lock(mu);
    spans.push_back(s);
    const int index = static_cast<int>(spans.size()) - 1;
    openSpans.push_back(index);
    return index;
}

void
SpanRecorder::end(int index)
{
    if (index < 0)
        return;
    const uint64_t stop = nowNs();
    if (!openSpans.empty() && openSpans.back() == index)
        openSpans.pop_back();
    std::lock_guard<std::mutex> lock(mu);
    spans[static_cast<size_t>(index)].endNs = stop;
}

void
SpanRecorder::add(const char *name, uint64_t start_ns, uint64_t end_ns,
                  int64_t request)
{
    if (!on)
        return;
    Span s;
    s.name = name;
    s.startNs = start_ns;
    s.endNs = end_ns;
    s.thread = threadNumber();
    s.request = request;
    std::lock_guard<std::mutex> lock(mu);
    spans.push_back(s);
}

std::map<std::string, LayerTime>
SpanRecorder::layerTimes() const
{
    std::lock_guard<std::mutex> lock(mu);
    std::vector<uint64_t> childNs(spans.size(), 0);
    for (const Span &s : spans) {
        if (s.parent >= 0)
            childNs[static_cast<size_t>(s.parent)] += s.endNs - s.startNs;
    }
    std::map<std::string, LayerTime> out;
    for (size_t i = 0; i < spans.size(); ++i) {
        const uint64_t dur = spans[i].endNs - spans[i].startNs;
        LayerTime &t = out[spans[i].name];
        t.count++;
        t.totalNs += dur;
        t.selfNs += dur - std::min(dur, childNs[i]);
    }
    return out;
}

bool
SpanRecorder::writeChromeTrace(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    std::lock_guard<std::mutex> lock(mu);
    uint64_t origin = UINT64_MAX;
    for (const Span &s : spans)
        origin = std::min(origin, s.startNs);
    out << "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [";
    char buf[128];
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        std::snprintf(buf, sizeof(buf), "%.3f, \"dur\": %.3f",
                      static_cast<double>(s.startNs - origin) / 1e3,
                      static_cast<double>(s.endNs - s.startNs) / 1e3);
        out << (i ? ",\n" : "\n") << "{\"name\": "
            << aregion::telemetry::jsonQuote(s.name)
            << ", \"ph\": \"X\", \"pid\": 1, \"tid\": " << s.thread
            << ", \"ts\": " << buf << ", \"args\": {\"id\": " << i
            << ", \"parent\": " << s.parent
            << ", \"request\": " << s.request << "}}";
    }
    out << "\n]}\n";
    return out.good();
}

bool
SpanRecorder::writeSelfTimeTable(const std::string &path) const
{
    const std::map<std::string, LayerTime> layers = layerTimes();
    uint64_t all_self = 0;
    for (const auto &[name, t] : layers)
        all_self += t.selfNs;
    std::ofstream out(path);
    if (!out)
        return false;
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%-34s %10s %12s %12s %8s\n",
                  "span", "count", "total ms", "self ms", "self %");
    out << buf;
    for (const auto &[name, t] : layers) {
        std::snprintf(buf, sizeof(buf),
                      "%-34s %10llu %12.3f %12.3f %7.2f%%\n",
                      name.c_str(),
                      static_cast<unsigned long long>(t.count),
                      static_cast<double>(t.totalNs) / 1e6,
                      static_cast<double>(t.selfNs) / 1e6,
                      all_self ? 100.0 * static_cast<double>(t.selfNs) /
                                     static_cast<double>(all_self)
                               : 0.0);
        out << buf;
    }
    return out.good();
}

} // namespace perfbench
