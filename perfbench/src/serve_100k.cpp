// serve-100k: hc::serve on 100k PBS nodes with 10k clients, shaped like
// examples/serve_spec.json but over a whole day of its diurnal arrival curve,
// at a quarter of its per-client rate so that the peak hours stay below
// capacity (at the example's rate the backend queue grows through the
// afternoon peak and admission starts shedding).
//
// It uses the pbs layer differently from the HybridCluster workloads: query
// reads run beside submission writes, the streaming detector does the
// polling, and there is no HybridCluster. That makes it the control for
// HybridCluster fixes (settle, full-text detector) and the only workload
// for admission and batching.
#include <memory>
#include <string>
#include <vector>

#include "checks.hpp"
#include "cluster/cluster.hpp"
#include "harness.hpp"
#include "pbs/server.hpp"
#include "serve/runner.hpp"

namespace perfbench {

namespace {

using namespace hc;

constexpr double kHours = 24.0;

serve::ServeSpec make_spec(std::uint64_t seed) {
    serve::ServeSpec spec;
    spec.clients = 10000;
    spec.nodes = 100000;
    spec.hours = kHours;
    spec.seed = seed;
    spec.backend = serve::BackendKind::kPbs;
    spec.cycle_seconds = 1.0;
    spec.poll_minutes = 5.0;
    spec.retention = 1024;
    spec.admission.queue_capacity = 8192;
    spec.admission.max_batch = 4096;
    spec.admission.per_client_rate_per_min = 30;
    spec.admission.burst_tokens = 10;
    spec.admission.max_backend_queue = 20000;
    spec.arrival.rate_per_hour = 0.5;
    spec.arrival.diurnal = {0.4, 0.3, 0.2, 0.2, 0.2, 0.3, 0.5, 0.8, 1.2, 1.6, 1.8, 1.9,
                            1.8, 1.7, 1.8, 1.7, 1.5, 1.2, 1.0, 0.9, 0.8, 0.7, 0.6, 0.5};
    spec.query_ratio = 0.5;
    spec.checkqueue_ratio = 0.1;
    spec.max_job_nodes = 4;
    spec.runtime_scale = 0.25;
    return spec;
}

double counter_or_gauge(const obs::MetricsSnapshot& snap, const std::string& name) {
    for (const auto& c : snap.counters)
        if (c.name == name) return static_cast<double>(c.value);
    for (const auto& g : snap.gauges)
        if (g.name == name) return g.value;
    return 0;
}

}  // namespace

RunReport run_serve_100k(const RunOptions& options, SpanLog& spans) {
    RunReport report;
    Samples& m = report.metrics;
    const serve::ServeSpec spec = make_spec(options.seed);
    serve::ServeSpec one_cycle = spec;
    one_cycle.hours = spec.cycle_seconds / 3600.0;
    report.notes.push_back("serve-100k: 100000 nodes, 10000 clients, " +
                           std::to_string(static_cast<int>(kHours)) + " h, 1 thread");

    std::vector<double> setup_s, full_s, traced_s, untraced_s;
    std::string first_digest;
    serve::ServeResult setup_result, last;
    const int min_rounds = options.trace ? 4 : 3;
    report.rounds = run_rounds(options.seconds, min_rounds, [&](int round) {
        spans.set_recording(options.trace && round % 2 == 0);
        {
            // run_serve has no separate build call: the same spec cut to one
            // service cycle is its set-up.
            auto s = spans.scope("serve.build");
            setup_result = serve::run_serve(one_cycle);
            setup_s.push_back(s.stop());
        }
        if (round == 0) m.add("mem.setup_rss_mib", peak_rss_mib());
        {
            auto s = spans.scope("serve.run");
            last = serve::run_serve(spec);
            full_s.push_back(s.stop());
        }
        (spans.recording() ? traced_s : untraced_s).push_back(full_s.back());

        Digest d;
        d.add(last.render_report(false));
        if (round == 0) first_digest = d.hex();
        report.check(check_identical("digest of round " + std::to_string(round), first_digest,
                                     d.hex()));
        report.attempted += last.counters.fleet.requests();
        report.failed += last.counters.service.rejected();
        // One round is what a user running the workload once would see;
        // later rounds only add allocator reuse and fragmentation.
        if (round == 0) m.add("peak_rss_mib", peak_rss_mib());
    });
    spans.set_recording(false);
    report.digest = first_digest;

    // The measured phase is the full run less the set-up it contains.
    const double setup = median(setup_s);
    for (const double s : setup_s) m.add("setup_s", s);
    for (const double s : full_s) m.add("sim_hours_per_s", kHours / (s - setup));

    // ---- output checks -------------------------------------------------------
    const serve::ServeCounters& c = last.counters;
    ServeTally t;
    t.requests = c.service.requests;
    t.submits = c.fleet.submits;
    t.status_queries = c.fleet.status_queries;
    t.checkqueues = c.fleet.checkqueues;
    t.accepted = c.service.accepted;
    t.rejected = c.service.rejected();
    t.backend_submitted = c.backend.submitted;
    t.backend_started = c.backend.started;
    t.backend_queued = c.backend_queued_final;
    t.submit_p99_ms = last.submit_latency_ms(0.99);
    t.cycle_ms = spec.cycle_seconds * 1000.0;
    t.staleness_mean_s = last.staleness_mean_s();
    t.poll_s = spec.poll_minutes * 60.0;
    for (const std::string& failure : check_serve(t)) report.check(failure);

    if (options.trace) {
        m.add("trace.overhead_pct", overhead_pct(traced_s, untraced_s));
        for (const double s : setup_s) m.add("serve.build_s", s);
        m.add("serve.requests", static_cast<double>(c.service.requests));
        m.add("serve.cycles", static_cast<double>(c.service.cycles));
        m.add("serve.polls", static_cast<double>(c.service.polls));
        // Events and cycles past the set-up, which the one-cycle run measures.
        const double events = counter_or_gauge(last.metrics, "sim.events.dispatched") -
                              counter_or_gauge(setup_result.metrics, "sim.events.dispatched");
        m.add("sim.events", events);
        m.add("sim.us_per_event", (median(full_s) - setup) * 1e6 / events);
        m.add("pbs.scheduler_cycles",
              counter_or_gauge(last.metrics, "pbs.sched.cycles") -
                  counter_or_gauge(setup_result.metrics, "pbs.sched.cycles"));
        // run_serve keeps its server to itself, so the detector probes run on
        // a server of the same size booted the way run_serve boots it.
        sim::Engine engine;
        cluster::ClusterConfig cluster_cfg;
        cluster_cfg.node_count = spec.nodes;
        cluster_cfg.timing.jitter = 0;
        cluster::Cluster cluster(engine, cluster_cfg);
        pbs::PbsServerConfig server_cfg;
        server_cfg.completed_retention = spec.retention;
        pbs::PbsServer server(engine, server_cfg);
        for (cluster::Node* node : cluster.nodes()) {
            node->set_boot_resolver([](const cluster::Node&) {
                cluster::BootDecision decision;
                decision.os = cluster::OsType::kLinux;
                return decision;
            });
            server.attach_node(*node);
            node->power_on();
        }
        engine.run_all();
        probe_detectors(server, m);
    }
    return report;
}

}  // namespace perfbench
