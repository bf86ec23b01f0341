// Shared plumbing of the benchmark driver: wall-clock spans, per-round
// samples, the metric catalogue, process memory and the output digest.
//
// Spans are recorded by the benchmark around the calls it makes into the
// simulator's public API (never inside the simulator), on the driver's own
// thread. They stay in memory and are written out when the run ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace hc::pbs {
class PbsServer;
}

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] double seconds_between(Clock::time_point a, Clock::time_point b);

/// Peak resident set of this process so far, in MiB.
[[nodiscard]] double peak_rss_mib();

[[nodiscard]] double median(std::vector<double> values);

/// FNV-1a over everything added; printed as 16 hex digits.
class Digest {
public:
    void add(std::string_view bytes);
    [[nodiscard]] std::string hex() const;

private:
    std::uint64_t h_ = 14695981039346656037ull;
};

struct Span {
    std::string name;
    double start_s = 0;  ///< since the log was created
    double end_s = 0;
    int parent = -1;     ///< index of the enclosing span, -1 at top level
};

/// In-memory span recorder. Scopes always measure their own duration (the
/// end-to-end timings use them with recording off); only when recording is
/// on do they also append a Span.
class SpanLog {
public:
    class Scope {
    public:
        Scope(SpanLog& log, const char* name);
        ~Scope();
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;
        /// End the span now; returns its duration in seconds. Idempotent.
        double stop();

    private:
        SpanLog& log_;
        Clock::time_point start_;
        int index_ = -1;
        bool open_ = true;
        double seconds_ = 0;
    };

    SpanLog() = default;
    [[nodiscard]] bool recording() const { return recording_; }
    void set_recording(bool on) { recording_ = on; }
    [[nodiscard]] Scope scope(const char* name) { return Scope(*this, name); }

    /// Per span name: total duration and self time (duration minus the part
    /// covered by its child spans), in seconds.
    struct Totals {
        double total_s = 0;
        double self_s = 0;
        std::size_t count = 0;
    };
    [[nodiscard]] std::map<std::string, Totals> totals() const;

    /// Write every span as JSON lines. Returns false when the file cannot be
    /// written.
    [[nodiscard]] bool write(const std::string& path) const;

private:
    Clock::time_point origin_ = Clock::now();
    bool recording_ = false;
    std::vector<Span> spans_;
    std::vector<int> open_;  ///< stack of open span indices
};

/// Repeated measurements of one metric across rounds; reported as a median.
class Samples {
public:
    void add(const std::string& name, double value) { values_[name].push_back(value); }
    [[nodiscard]] double median_of(const std::string& name) const;

private:
    std::map<std::string, std::vector<double>> values_;
};

struct MetricDef {
    const char* name;
    const char* unit;
};

/// The end-to-end metrics, printed with tracing off.
extern const std::vector<MetricDef> kEndToEnd;
/// The per-layer metrics, printed by the traced run. A metric whose layer a
/// workload does not exercise reads 0 there.
extern const std::vector<MetricDef> kPerLayer;

struct RunOptions {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string spans_out;  ///< where the traced run writes its spans ("" = nowhere)
};

/// Everything one workload run reports back to main().
struct RunReport {
    std::vector<std::string> failures;  ///< failed output checks (empty = correct)
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::string digest;                 ///< of the simulated outputs
    int rounds = 0;
    std::vector<std::string> notes;     ///< human-readable context lines
    Samples metrics;                    ///< keyed by the names in kEndToEnd / kPerLayer

    void check(const std::string& failure) {
        if (!failure.empty()) failures.push_back(failure);
    }
};

/// Run `round(i)` for i = 0, 1, ... until `seconds` of wall time have passed
/// and at least `min_rounds` rounds ran. Returns the number of rounds.
template <class RoundFn>
int run_rounds(double seconds, int min_rounds, RoundFn&& round) {
    const Clock::time_point t0 = Clock::now();
    int i = 0;
    while (i < min_rounds || seconds_between(t0, Clock::now()) < seconds) round(i++);
    return i;
}

/// Median wall time of `reps` calls of `fn`, in milliseconds.
template <class Fn>
double median_ms(int reps, Fn&& fn) {
    std::vector<double> ms;
    for (int i = 0; i < reps; ++i) {
        const Clock::time_point t0 = Clock::now();
        fn();
        ms.push_back(seconds_between(t0, Clock::now()) * 1e3);
    }
    return median(ms);
}

/// Probe `server` with both PbsDetector paths: a fresh full-text detector's
/// poll (core.poll_fulltext_ms) and a streaming detector's steady poll after
/// a first one (core.poll_streaming_ms).
void probe_detectors(const hc::pbs::PbsServer& server, Samples& m);

/// Build one default-configured HybridCluster of `nodes` nodes: constructor
/// and start() (core.build_s), then settle() (core.settle_s).
void probe_hybrid_build(int nodes, Samples& m);

/// traced-minus-untraced measured phase, as a percentage of the untraced one.
[[nodiscard]] double overhead_pct(const std::vector<double>& traced,
                                  const std::vector<double>& untraced);

RunReport run_eridani_campaign(const RunOptions& options, SpanLog& spans);
RunReport run_campus_federation(const RunOptions& options, SpanLog& spans);
RunReport run_serve_100k(const RunOptions& options, SpanLog& spans);

}  // namespace perfbench
