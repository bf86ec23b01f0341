#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "core/detector.hpp"
#include "core/hybrid.hpp"

namespace perfbench {

double seconds_between(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
}

double peak_rss_mib() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux reports KiB
}

double median(std::vector<double> values) {
    if (values.empty()) return 0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

void Digest::add(std::string_view bytes) {
    for (const char c : bytes) {
        h_ ^= static_cast<unsigned char>(c);
        h_ *= 1099511628211ull;
    }
}

std::string Digest::hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h_));
    return buf;
}

SpanLog::Scope::Scope(SpanLog& log, const char* name) : log_(log), start_(Clock::now()) {
    if (!log_.recording_) return;
    Span span;
    span.name = name;
    span.start_s = seconds_between(log_.origin_, start_);
    span.parent = log_.open_.empty() ? -1 : log_.open_.back();
    index_ = static_cast<int>(log_.spans_.size());
    log_.spans_.push_back(std::move(span));
    log_.open_.push_back(index_);
}

SpanLog::Scope::~Scope() { stop(); }

double SpanLog::Scope::stop() {
    if (!open_) return seconds_;
    open_ = false;
    const Clock::time_point end = Clock::now();
    seconds_ = seconds_between(start_, end);
    if (index_ >= 0) {
        log_.spans_[static_cast<std::size_t>(index_)].end_s = seconds_between(log_.origin_, end);
        // Scopes nest lexically, so this span is the innermost open one.
        if (!log_.open_.empty() && log_.open_.back() == index_) log_.open_.pop_back();
    }
    return seconds_;
}

std::map<std::string, SpanLog::Totals> SpanLog::totals() const {
    std::vector<double> child_s(spans_.size(), 0.0);
    for (const Span& span : spans_)
        if (span.parent >= 0)
            child_s[static_cast<std::size_t>(span.parent)] += span.end_s - span.start_s;
    std::map<std::string, Totals> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const double duration = spans_[i].end_s - spans_[i].start_s;
        Totals& t = out[spans_[i].name];
        t.total_s += duration;
        t.self_s += duration - child_s[i];
        ++t.count;
    }
    return out;
}

bool SpanLog::write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        char line[256];
        std::snprintf(line, sizeof line,
                      "{\"id\":%zu,\"name\":\"%s\",\"start_s\":%.9f,\"end_s\":%.9f,\"parent\":%d}\n",
                      i, s.name.c_str(), s.start_s, s.end_s, s.parent);
        out << line;
    }
    return static_cast<bool>(out);
}

double Samples::median_of(const std::string& name) const {
    const auto it = values_.find(name);
    return it == values_.end() ? 0.0 : median(it->second);
}

void probe_detectors(const hc::pbs::PbsServer& server, Samples& m) {
    m.add("core.poll_fulltext_ms", median_ms(5, [&] {
              hc::core::PbsDetector full(server);
              (void)full.check();
          }));
    hc::core::PbsDetector streaming(server, true);
    (void)streaming.check();
    m.add("core.poll_streaming_ms", median_ms(9, [&] { (void)streaming.check(); }));
}

void probe_hybrid_build(int nodes, Samples& m) {
    hc::sim::Engine engine;
    hc::core::HybridConfig config;
    config.cluster.node_count = nodes;
    const Clock::time_point t0 = Clock::now();
    hc::core::HybridCluster cluster(engine, config);
    cluster.start();
    const Clock::time_point t1 = Clock::now();
    cluster.settle();
    m.add("core.build_s", seconds_between(t0, t1));
    m.add("core.settle_s", seconds_between(t1, Clock::now()));
}

double overhead_pct(const std::vector<double>& traced, const std::vector<double>& untraced) {
    const double base = median(untraced);
    return base > 0 ? (median(traced) - base) / base * 100.0 : 0.0;
}

const std::vector<MetricDef> kEndToEnd = {
    {"setup_s", "s"},
    {"sim_hours_per_s", "sim-h/s"},
    {"peak_rss_mib", "MiB"},
};

const std::vector<MetricDef> kPerLayer = {
    {"workload.generate_s", "s"},
    {"core.warm_start_s", "s"},
    {"core.build_s", "s"},
    {"core.settle_s", "s"},
    {"core.poll_fulltext_ms", "ms"},
    {"core.poll_streaming_ms", "ms"},
    {"pbs.scheduler_cycles", "count"},
    {"pbs.stanza_renders", "count"},
    {"pbs.pbsnodes_kib", "KiB"},
    {"sim.events", "count"},
    {"sim.us_per_event", "us"},
    {"grid.start_s", "s"},
    {"grid.run_s", "s"},
    {"grid.epochs", "count"},
    {"grid.messages", "count"},
    {"grid.member_load_us", "us"},
    {"sweep.snapshot_ms", "ms"},
    {"sweep.restore_ms", "ms"},
    {"sweep.campaign_s", "s"},
    {"sweep.steals", "count"},
    {"sweep.snapshot_kib", "KiB"},
    {"serve.build_s", "s"},
    {"serve.requests", "count"},
    {"serve.cycles", "count"},
    {"serve.polls", "count"},
    {"fault.injected", "count"},
    {"fault.recoveries", "count"},
    {"mem.setup_rss_mib", "MiB"},
    {"trace.overhead_pct", "%"},
};

}  // namespace perfbench
