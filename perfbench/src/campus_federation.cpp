// campus-federation: a grid::FederatedGrid of mixed members with thousands
// of nodes each, round-robin routing and 10-minute epochs.
//
// Building and settling large HybridClusters dominates set-up; full-text
// detector polls of large pbsnodes text and placement dominate the run,
// beside routing, member load snapshots and mailboxes. Round-robin rather
// than least-pressure because least-pressure spreads an even mix so well
// that no hybrid member ever switches OS, and because it lets each member's
// share of the jobs be computed from the trace alone.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "checks.hpp"
#include "core/detector.hpp"
#include "grid/federation.hpp"
#include "harness.hpp"
#include "workload/catalog.hpp"
#include "workload/generator.hpp"

namespace perfbench {

namespace {

using namespace hc;
using Kind = grid::GridMember::Kind;

// No more threads than the 4-core reference host has cores.
constexpr int kThreads = 2;
const sim::Duration kHorizon = sim::hours(12);
/// The cross-thread-count ledger check covers the epochs before this.
const sim::Duration kPrefix = sim::hours(2);
constexpr double kJobsPerHour = 4800;
constexpr std::size_t kProbeMember = 2;  ///< the first hybrid member

struct Member {
    const char* name;
    Kind kind;
    int nodes;
};
const Member kMembers[] = {
    {"tauceti", Kind::kDedicatedLinux, 8192},
    {"vega", Kind::kDedicatedWindows, 4096},
    {"eridani", Kind::kHybrid, 8192},
    {"procyon", Kind::kHybrid, 8192},
};

std::vector<workload::JobSpec> make_trace(std::uint64_t seed) {
    workload::GeneratorConfig cfg;
    cfg.arrival.rate_per_hour = kJobsPerHour;
    cfg.horizon = kHorizon;
    cfg.max_nodes = 4;
    cfg.runtime_scale = 0.25;
    workload::WorkloadGenerator gen(workload::AppCatalog::huddersfield(), cfg, seed);
    std::vector<workload::JobSpec> trace = gen.generate();
    workload::sort_trace(trace);
    return trace;
}

std::unique_ptr<grid::FederatedGrid> build_grid(int threads) {
    grid::FederationConfig config;
    config.rule = grid::RoutingRule::kRoundRobin;
    config.epoch = sim::minutes(10);
    config.threads = threads;
    auto fed = std::make_unique<grid::FederatedGrid>(config);
    for (const Member& m : kMembers) fed->add_member({m.name, m.kind, m.nodes});
    return fed;
}

std::string ledger(grid::FederatedGrid& fed, sim::Duration horizon) {
    return grid::render_grid_ledger(fed.report(horizon.seconds()));
}

std::string snapshot_text(const core::QueueSnapshot& s) {
    return s.record.encode() + " running=" + std::to_string(s.running) +
           " queued=" + std::to_string(s.queued) + " idle=" + std::to_string(s.idle_nodes) +
           " at=" + std::to_string(s.checked_unix) + "\n" + s.debug_text;
}

std::uint64_t engine_events(grid::FederatedGrid& fed) {
    std::uint64_t n = 0;
    for (std::size_t i = 0; i < fed.member_count(); ++i)
        n += fed.member(i).engine().stats().dispatched;
    return n;
}

}  // namespace

RunReport run_campus_federation(const RunOptions& options, SpanLog& spans) {
    RunReport report;
    Samples& m = report.metrics;
    spans.set_recording(options.trace);

    std::vector<workload::JobSpec> trace;
    {
        auto s = spans.scope("workload.generate");
        trace = make_trace(options.seed);
        m.add("workload.generate_s", s.stop());
    }
    std::vector<workload::JobSpec> prefix, suffix;
    double offered_core_s = 0;
    for (const workload::JobSpec& job : trace) {
        (job.submit < sim::TimePoint{} + kPrefix ? prefix : suffix).push_back(job);
        offered_core_s += job.core_seconds();
    }
    int total_cores = 0;
    for (const Member& mem : kMembers) total_cores += mem.nodes * 4;
    report.notes.push_back("campus-federation: 4 members, " + std::to_string(total_cores / 4) +
                           " nodes, " + std::to_string(trace.size()) + " jobs, offered load " +
                           std::to_string(offered_core_s / (total_cores * kHorizon.seconds())) +
                           ", " + std::to_string(kThreads) + " threads");

    std::unique_ptr<grid::FederatedGrid> fed;
    std::string first_digest, prefix_ledger;
    std::vector<double> traced_s, untraced_s;
    const int min_rounds = options.trace ? 4 : 3;
    report.rounds = run_rounds(options.seconds, min_rounds, [&](int round) {
        spans.set_recording(options.trace && round % 2 == 0);
        fed.reset();
        {
            auto s = spans.scope("grid.setup");
            fed = build_grid(kThreads);
            auto start = spans.scope("grid.start");
            fed->start();
            m.add("grid.start_s", start.stop());
            m.add("setup_s", s.stop());
        }
        if (round == 0) m.add("mem.setup_rss_mib", peak_rss_mib());
        const sim::TimePoint clock0 = fed->now();
        const std::uint64_t events0 = engine_events(*fed);

        double wall = 0;
        {
            auto s = spans.scope("grid.run");
            fed->run(prefix, sim::TimePoint{} + kPrefix);
            wall += s.stop();
        }
        if (round == 0) prefix_ledger = ledger(*fed, kPrefix);
        {
            auto s = spans.scope("grid.run");
            fed->run(suffix, sim::TimePoint{} + kHorizon);
            wall += s.stop();
        }
        (spans.recording() ? traced_s : untraced_s).push_back(wall);
        const double sim_h = (fed->now() - clock0).seconds() / 3600.0;
        m.add("sim_hours_per_s", sim_h / wall);
        m.add("grid.run_s", wall);
        const std::uint64_t events = engine_events(*fed) - events0;
        m.add("sim.events", static_cast<double>(events));
        m.add("sim.us_per_event", wall * 1e6 / static_cast<double>(events));

        Digest d;
        d.add(ledger(*fed, kHorizon));
        if (round == 0) first_digest = d.hex();
        report.check(check_identical("digest of round " + std::to_string(round), first_digest,
                                     d.hex()));
        report.attempted += trace.size();
        report.failed += fed->stats().rejected;
        for (std::size_t i = 0; i < fed->member_count(); ++i)
            for (const workload::JobOutcome& o : fed->member(i).metrics().outcomes())
                if (!o.completed) ++report.failed;
        // One round is what a user running the workload once would see;
        // later rounds only add allocator reuse and fragmentation.
        if (round == 0) m.add("peak_rss_mib", peak_rss_mib());
    });
    spans.set_recording(false);
    report.digest = first_digest;

    // ---- output checks (outside the timed phase) ----------------------------
    const grid::FederationStats& st = fed->stats();
    report.check(check_routing_totals(st.routed, st.rejected, trace.size()));
    std::vector<int> job_os;
    for (const workload::JobSpec& job : trace)
        job_os.push_back(job.os == cluster::OsType::kWindows ? 1 : 0);
    std::vector<std::vector<bool>> capable;
    std::vector<bool> is_hybrid;
    for (const Member& mem : kMembers) {
        capable.push_back({mem.kind != Kind::kDedicatedWindows, mem.kind != Kind::kDedicatedLinux});
        is_hybrid.push_back(mem.kind == Kind::kHybrid);
    }
    std::vector<std::uint64_t> received, switches;
    const grid::GridSummary summary = fed->report(kHorizon.seconds());
    for (std::size_t i = 0; i < fed->member_count(); ++i) {
        received.push_back(fed->member(i).jobs_received());
        switches.push_back(summary.members[i].summary.os_switches);
    }
    report.check(check_member_shares(received, round_robin_shares(job_os, capable), st.routed));
    report.check(check_hybrid_switches(is_hybrid, switches));
    pbs::PbsServer& server = fed->member(kProbeMember).cluster().pbs();

    if (options.trace) {
        m.add("grid.epochs", static_cast<double>(st.epochs));
        m.add("grid.messages", static_cast<double>(st.messages));
        m.add("trace.overhead_pct", overhead_pct(traced_s, untraced_s));
        double cycles = 0, renders = 0, pbsnodes_bytes = 0;
        std::vector<double> load_us;
        for (std::size_t i = 0; i < fed->member_count(); ++i) {
            grid::GridMember& member = fed->member(i);
            pbs::PbsServer& s = member.cluster().pbs();
            cycles += static_cast<double>(s.stats().scheduler_cycles);
            renders += static_cast<double>(s.text_stats().node_stanza_renders +
                                           s.text_stats().job_stanza_renders);
            pbsnodes_bytes += static_cast<double>(s.pbsnodes_output().size());
            for (const cluster::OsType os : {cluster::OsType::kLinux, cluster::OsType::kWindows})
                load_us.push_back(median_ms(9, [&] { (void)member.load(os); }) * 1e3);
        }
        double load_sum = 0;
        for (const double v : load_us) load_sum += v;
        m.add("grid.member_load_us", load_sum / static_cast<double>(load_us.size()));
        m.add("pbs.scheduler_cycles", cycles);
        m.add("pbs.stanza_renders", renders);
        m.add("pbs.pbsnodes_kib", pbsnodes_bytes / 1024.0);
        probe_detectors(server, m);
        int largest_hybrid = 0;
        for (const Member& mem : kMembers)
            if (mem.kind == Kind::kHybrid) largest_hybrid = std::max(largest_hybrid, mem.nodes);
        probe_hybrid_build(largest_hybrid, m);
    }

    {
        // Full-text and streaming detectors must agree on a hybrid member's
        // live server: on the streaming detector's first (full) walk, and
        // after each of three more epochs, which it follows incrementally.
        // The trace's first half hour is replayed over those epochs so that
        // nodes go busy as well as idle.
        std::vector<workload::JobSpec> replay;
        for (const workload::JobSpec& job : prefix) {
            if (job.submit >= sim::TimePoint{} + sim::minutes(30)) break;
            replay.push_back(job);
            replay.back().submit = fed->now() + (job.submit - sim::TimePoint{});
        }
        core::PbsDetector streaming(server, true);
        for (int epoch = 0; epoch < 4; ++epoch) {
            if (epoch == 1) fed->run(replay, fed->now() + sim::minutes(10));
            if (epoch > 1) fed->run({}, fed->now() + sim::minutes(10));
            report.check(check_identical(
                "full-text vs streaming detector snapshot, epoch " + std::to_string(epoch),
                snapshot_text(core::PbsDetector(server).check()),
                snapshot_text(streaming.check())));
        }
        const core::PbsDetector::PollStats& ps = streaming.poll_stats();
        if (ps.resyncs >= ps.polls)
            report.check("streaming detector never polled incrementally on the drained server");
    }

    // Same routing and shards on one thread: the ledger over the prefix
    // epochs must be byte-identical.
    fed.reset();
    std::unique_ptr<grid::FederatedGrid> serial = build_grid(1);
    serial->start();
    serial->run(prefix, sim::TimePoint{} + kPrefix);
    report.check(check_identical("ledger at 1 vs " + std::to_string(kThreads) + " threads",
                                 ledger(*serial, kPrefix), prefix_ledger));
    return report;
}

}  // namespace perfbench
