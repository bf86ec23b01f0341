// eridani-campaign: the paper's 16-node x 4-core v2 cluster in a
// warm-started fork campaign through sweep::run_forked_scenarios.
//
// Engine dispatch, detector parsing of small text, policy and controller,
// snapshot/restore and the sweep pool do the work; settle, placement at
// scale, routing and serve do almost none, which makes this the control for
// every scale fix.
#include <cstdio>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "checks.hpp"
#include "core/scenario.hpp"
#include "fault/plan.hpp"
#include "harness.hpp"
#include "sweep/runner.hpp"
#include "workload/catalog.hpp"
#include "workload/generator.hpp"

namespace perfbench {

namespace {

using namespace hc;

// Fewer threads than the 4-core reference host has cores.
constexpr int kThreads = 2;
const sim::Duration kHorizon = sim::hours(1200);
const sim::Duration kForkAt = sim::hours(300);
constexpr double kJobsPerHour = 4.0;
constexpr std::size_t kFaultSlot = 5;

std::vector<workload::JobSpec> make_trace(std::uint64_t seed) {
    workload::GeneratorConfig cfg;
    cfg.arrival.rate_per_hour = kJobsPerHour;
    cfg.horizon = kHorizon;
    cfg.max_nodes = 8;
    cfg.runtime_scale = 0.25;
    workload::WorkloadGenerator gen(workload::AppCatalog::huddersfield(), cfg, seed);
    std::vector<workload::JobSpec> trace = gen.generate();
    workload::sort_trace(trace);
    return trace;
}

core::ScenarioConfig base_config(std::uint64_t seed) {
    core::ScenarioConfig cfg;
    cfg.kind = core::ScenarioKind::kBiStableHybrid;
    cfg.node_count = 16;
    cfg.cores_per_node = 4;
    cfg.linux_nodes = 12;
    cfg.version = deploy::MiddlewareVersion::kV2;
    cfg.policy = core::PolicyKind::kFcfs;
    cfg.horizon = kHorizon;
    cfg.recovery.enabled = true;
    cfg.seed = seed;
    return cfg;
}

/// A fixed plan (independent of the seed) of faults the recovery machinery
/// must absorb: a surprise power cycle, a hang and a PXE outage. Offsets are
/// relative to the fork instant. The hang is on a Linux-side node. A hang on
/// a Windows-side node makes the FCFS controller move Linux nodes to Windows
/// and never move them back, because the PBS detector counts a queue as
/// stuck only while nothing in it runs; the Linux queue then grows without
/// bound (a FOUND entry in CHANGES.md) and the cost per simulated hour would
/// depend on the seed.
fault::FaultPlan fault_plan() {
    fault::FaultPlan plan;
    plan.seed = 11;
    auto add = [&](double hours, fault::FaultKind kind, int node, double minutes) {
        fault::FaultEvent e;
        e.at = sim::Duration{static_cast<std::int64_t>(hours * 3'600'000)};
        e.kind = kind;
        e.node = node;
        e.duration = sim::Duration{static_cast<std::int64_t>(minutes * 60'000)};
        plan.events.push_back(e);
    };
    add(30, fault::FaultKind::kPowerCycle, 9, 0);
    add(60, fault::FaultKind::kBootHang, 13, 0);
    add(90, fault::FaultKind::kPxeOutage, -1, 30);
    return plan;
}

/// Work counters read from a world at one instant.
struct LayerCounts {
    std::uint64_t events = 0;
    std::uint64_t scheduler_cycles = 0;
    std::uint64_t stanza_renders = 0;
};

LayerCounts read_counts(core::ScenarioWorld& w) {
    LayerCounts c;
    c.events = w.engine().stats().dispatched;
    c.scheduler_cycles = w.hybrid().pbs().stats().scheduler_cycles;
    const pbs::TextStats& t = w.hybrid().pbs().text_stats();
    c.stanza_renders = t.node_stanza_renders + t.job_stanza_renders;
    return c;
}

/// What a variant's horizon probe saw.
struct Probe {
    bool fired = false;
    JobTally tally;
    LayerCounts counts;
};

/// Count where every trace job stands, from the world's schedulers. Trace
/// jobs are told apart from the controller's switch jobs by name.
Probe probe_world(core::ScenarioWorld& w, const std::set<std::string>& job_names) {
    Probe p;
    p.fired = true;
    for (const workload::JobOutcome& o : w.hybrid().metrics().outcomes())
        ++(o.completed ? p.tally.completed : p.tally.lost);
    for (const auto& list : {w.hybrid().pbs().queued_jobs(), w.hybrid().pbs().running_jobs()})
        for (const pbs::Job* job : list)
            if (job_names.count(job->name) > 0) ++p.tally.in_system;
    for (const winhpc::HpcJob* job : w.hybrid().winhpc().get_jobs()) {
        const bool live = job->state == winhpc::HpcJobState::kConfiguring ||
                          job->state == winhpc::HpcJobState::kQueued ||
                          job->state == winhpc::HpcJobState::kRunning;
        if (live && job_names.count(job->name) > 0) ++p.tally.in_system;
    }
    p.counts = read_counts(w);
    return p;
}

/// The campaign's divergences, each followed by a read-only probe at the
/// horizon that writes into probes[slot].
sweep::ForkCampaign make_campaign(std::uint64_t seed,
                                  std::shared_ptr<const std::vector<workload::JobSpec>> trace,
                                  std::vector<Probe>& probes,
                                  const std::set<std::string>& job_names) {
    sweep::ForkCampaign c;
    c.base = base_config(seed);
    c.trace = std::move(trace);
    c.fork_at = sim::TimePoint{} + kForkAt;
    const struct {
        core::PolicyKind policy;
        int cooldown;
        const char* label;
    } kPolicies[] = {
        {core::PolicyKind::kFcfs, -1, "policy/fcfs"},
        {core::PolicyKind::kThreshold, -1, "policy/threshold"},
        {core::PolicyKind::kFairShare, -1, "policy/fair_share"},
        {core::PolicyKind::kFairShare, 3, "policy/fair_share_cooldown"},
        {core::PolicyKind::kPredictive, -1, "policy/predictive"},
    };
    std::vector<std::function<void(core::ScenarioWorld&)>> diverge;
    for (const auto& p : kPolicies) {
        diverge.push_back([policy = p.policy, cooldown = p.cooldown](core::ScenarioWorld& w) {
            w.hybrid().set_policy(policy, cooldown);
        });
        c.labels.push_back(p.label);
    }
    diverge.push_back([](core::ScenarioWorld& w) { w.hybrid().arm_faults(fault_plan(), 7); });
    c.labels.push_back("faults/fixed-plan");

    probes.assign(diverge.size(), Probe{});
    for (std::size_t slot = 0; slot < diverge.size(); ++slot) {
        Probe* out = &probes[slot];
        const std::set<std::string>* names = &job_names;
        c.variants.push_back([d = diverge[slot], out, names](core::ScenarioWorld& w) {
            d(w);
            core::ScenarioWorld* world = &w;
            w.engine().schedule_at(w.horizon_end(),
                                   [world, out, names] { *out = probe_world(*world, *names); });
        });
    }
    return c;
}

std::string scenario_text(const core::ScenarioResult& r) {
    const workload::Summary& s = r.summary;
    char buf[1024];
    std::snprintf(buf, sizeof buf,
                  "%s submitted=%zu completed=%zu wait=%.17g/%.17g/%.17g/%.17g "
                  "wait_os=%.17g/%.17g turnaround=%.17g makespan=%.17g util=%.17g "
                  "delivered=%.17g switches=%llu reboots=%llu downtime=%.17g overhead=%.17g "
                  "decisions=%llu injected=%llu recoveries=%llu power_cycles=%llu\n",
                  r.label.c_str(), s.submitted, s.completed, s.mean_wait_s, s.median_wait_s,
                  s.p95_wait_s, s.max_wait_s, s.mean_wait_linux_s, s.mean_wait_windows_s,
                  s.mean_turnaround_s, s.makespan_s, s.utilisation, s.delivered_core_seconds,
                  static_cast<unsigned long long>(s.os_switches),
                  static_cast<unsigned long long>(s.reboots), s.reboot_downtime_s,
                  s.switch_overhead,
                  static_cast<unsigned long long>(r.controller.decisions_executed),
                  static_cast<unsigned long long>(r.fault_stats.injected),
                  static_cast<unsigned long long>(r.recovery_stats.recoveries),
                  static_cast<unsigned long long>(r.recovery_stats.power_cycles));
    return buf;
}

std::string tally_text(const JobTally& t) {
    return std::to_string(t.completed) + "/" + std::to_string(t.lost) + "/" +
           std::to_string(t.in_system);
}

}  // namespace

RunReport run_eridani_campaign(const RunOptions& options, SpanLog& spans) {
    RunReport report;
    Samples& m = report.metrics;
    spans.set_recording(options.trace);

    std::vector<workload::JobSpec> generated;
    {
        auto s = spans.scope("workload.generate");
        generated = make_trace(options.seed);
        m.add("workload.generate_s", s.stop());
    }
    const auto trace = std::make_shared<const std::vector<workload::JobSpec>>(std::move(generated));
    std::set<std::string> job_names;
    double offered_core_s = 0, windows_core_s = 0;
    for (const workload::JobSpec& job : *trace) {
        if (job.os == cluster::OsType::kWindows) windows_core_s += job.core_seconds();
        job_names.insert(job.app);
        std::string pbs_name = job.app;
        for (char& ch : pbs_name)
            if (ch == ' ') ch = '_';
        job_names.insert(pbs_name);
        offered_core_s += job.core_seconds();
    }
    report.notes.push_back("eridani-campaign: 16 nodes x 4 cores, " + std::to_string(trace->size()) +
                           " jobs, offered load " +
                           std::to_string(offered_core_s / (64.0 * kHorizon.seconds())) +
                           " (windows " + std::to_string(windows_core_s / (64.0 * kHorizon.seconds())) + ")" +
                           ", 6 variants, " + std::to_string(kThreads) + " threads");

    std::vector<Probe> probes;
    const sweep::ForkCampaign campaign = make_campaign(options.seed, trace, probes, job_names);
    const std::size_t variants = campaign.variants.size();

    std::unique_ptr<core::ScenarioWorld> warm;
    LayerCounts fork_counts;
    std::vector<double> traced_s, untraced_s;
    std::string first_digest;
    sweep::ScenarioSweepResult last;
    std::vector<Probe> last_probes;
    const int min_rounds = options.trace ? 4 : 3;
    report.rounds = run_rounds(options.seconds, min_rounds, [&](int round) {
        spans.set_recording(options.trace && round % 2 == 0);
        {
            // The warm start each worker of run_forked_scenarios performs.
            warm.reset();
            auto s = spans.scope("core.warm_start");
            warm = std::make_unique<core::ScenarioWorld>(campaign.base, *trace);
            warm->run_until(campaign.fork_at);
            const double t = s.stop();
            m.add("setup_s", t);
            m.add("core.warm_start_s", t);
        }
        if (round == 0) m.add("mem.setup_rss_mib", peak_rss_mib());
        fork_counts = read_counts(*warm);

        sweep::ForkStats fs;
        double wall = 0;
        {
            auto s = spans.scope("sweep.campaign");
            last = sweep::run_forked_scenarios(campaign, kThreads, &fs);
            wall = s.stop();
        }
        (spans.recording() ? traced_s : untraced_s).push_back(wall);
        const double sim_h = (fs.prefix_sim_s * fs.prefixes +
                              fs.suffix_sim_s * static_cast<double>(fs.forks)) / 3600.0;
        m.add("sim_hours_per_s", sim_h / wall);
        m.add("sweep.campaign_s", wall);
        m.add("sweep.steals", static_cast<double>(last.stats.steals));
        m.add("sweep.snapshot_kib", static_cast<double>(fs.snapshot_bytes) / 1024.0);

        // Prefix work ran once per worker; each suffix adds what it did past
        // the fork.
        LayerCounts total{fork_counts.events * static_cast<std::uint64_t>(fs.prefixes),
                          fork_counts.scheduler_cycles * static_cast<std::uint64_t>(fs.prefixes),
                          fork_counts.stanza_renders * static_cast<std::uint64_t>(fs.prefixes)};
        for (const Probe& p : probes) {
            total.events += p.counts.events - fork_counts.events;
            total.scheduler_cycles += p.counts.scheduler_cycles - fork_counts.scheduler_cycles;
            total.stanza_renders += p.counts.stanza_renders - fork_counts.stanza_renders;
        }
        m.add("sim.events", static_cast<double>(total.events));
        m.add("sim.us_per_event", wall * 1e6 / static_cast<double>(total.events));
        m.add("pbs.scheduler_cycles", static_cast<double>(total.scheduler_cycles));
        m.add("pbs.stanza_renders", static_cast<double>(total.stanza_renders));

        Digest d;
        for (std::size_t slot = 0; slot < variants; ++slot) {
            d.add(scenario_text(last.results[slot]));
            d.add(tally_text(probes[slot].tally));
        }
        if (round == 0) first_digest = d.hex();
        report.check(check_identical("digest of round " + std::to_string(round), first_digest,
                                     d.hex()));
        report.attempted += variants * trace->size();
        for (const Probe& p : probes) report.failed += p.tally.lost;
        last_probes = probes;
        // One round is what a user running the workload once would see;
        // later rounds only add allocator reuse and fragmentation.
        if (round == 0) m.add("peak_rss_mib", peak_rss_mib());
    });
    spans.set_recording(false);
    report.digest = first_digest;

    // ---- output checks (outside the timed phase) ----------------------------
    for (std::size_t slot = 0; slot < variants; ++slot) {
        const std::string& label = campaign.labels[slot];
        if (!last_probes[slot].fired) report.check(label + ": horizon probe never ran");
        report.check(check_job_conservation(label, last_probes[slot].tally, trace->size()));
        report.check(check_utilisation(label, last.results[slot].summary.utilisation));
    }
    const core::ScenarioResult& faulted = last.results[kFaultSlot];
    report.check(check_fault_recovery(faulted.fault_stats.injected,
                                      faulted.recovery_stats.recoveries));
    {
        // Cold control: the fault variant from t = 0, diverging at the fork
        // instant, must reproduce its forked result exactly. Its horizon
        // probe overwrites probes[kFaultSlot]; the forked one is in last_probes.
        core::ScenarioWorld cold(campaign.base, *trace);
        cold.run_until(campaign.fork_at);
        campaign.variants[kFaultSlot](cold);
        cold.run_until(cold.horizon_end());
        core::ScenarioResult result = cold.finish();
        result.label = campaign.labels[kFaultSlot];
        report.check(check_identical(
            "forked suffix vs cold re-run",
            scenario_text(faulted) + tally_text(last_probes[kFaultSlot].tally),
            scenario_text(result) + tally_text(probes[kFaultSlot].tally)));
    }

    if (options.trace) {
        m.add("fault.injected", static_cast<double>(faulted.fault_stats.injected));
        m.add("fault.recoveries", static_cast<double>(faulted.recovery_stats.recoveries));
        m.add("trace.overhead_pct", overhead_pct(traced_s, untraced_s));
        // Probes on the live warm-started world.
        m.add("sweep.snapshot_ms", median_ms(9, [&] { (void)warm->snapshot(); }));
        const core::ScenarioWorld::Snapshot snap = warm->snapshot();
        m.add("sweep.restore_ms", median_ms(9, [&] { warm->restore(snap); }));
        pbs::PbsServer& server = warm->hybrid().pbs();
        probe_detectors(server, m);
        m.add("pbs.pbsnodes_kib", static_cast<double>(server.pbsnodes_output().size()) / 1024.0);
        probe_hybrid_build(16, m);
    }
    return report;
}

}  // namespace perfbench
