// HybridCluster's scale path: the Linux head polls PBS through the streaming
// detector, and settle() tracks the first node still down with a forward
// cursor plus one confirming pass.
//
// The streaming detector must report exactly what a whole-string scrape of
// the same server reports, under every scheduled fault kind the cluster's
// middleware can meet and across a snapshot/restore fork. settle() must
// stop at the same sim instant it always has.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/hybrid.hpp"
#include "core/scenario.hpp"
#include "workload/catalog.hpp"
#include "workload/generator.hpp"

namespace hc::core {
namespace {

using fault::FaultEvent;
using fault::FaultKind;

std::string render(const QueueSnapshot& s) {
    return s.record.encode() + " running=" + std::to_string(s.running) +
           " queued=" + std::to_string(s.queued) + " idle=" + std::to_string(s.idle_nodes) +
           " at=" + std::to_string(s.checked_unix) + "\n" + s.debug_text;
}

/// Sits between the Linux daemon and the cluster's own policy. The daemon
/// hands the policy the snapshot its detector has just produced, before any
/// order runs, so a fresh whole-string detector polled here sees the same
/// server state.
class ProbePolicy : public SwitchPolicy {
public:
    ProbePolicy(SwitchPolicy& inner, const pbs::PbsServer& server)
        : inner_(inner), server_(server) {}

    SwitchDecision decide(const SwitchContext& ctx) override {
        const std::string streamed = render(ctx.linux_snap);
        const std::string whole = render(PbsDetector(server_).check());
        if (streamed != whole)
            mismatches.push_back("poll " + std::to_string(polls.size()) + "\n  streaming: " +
                                 streamed + "\n  whole-string: " + whole);
        polls.push_back(streamed);
        return inner_.decide(ctx);
    }
    [[nodiscard]] std::string name() const override { return inner_.name(); }

    std::vector<std::string> polls;
    std::vector<std::string> mismatches;

private:
    SwitchPolicy& inner_;
    const pbs::PbsServer& server_;
};

std::vector<workload::JobSpec> mixed_trace(std::uint64_t seed) {
    workload::GeneratorConfig cfg;
    cfg.arrival.rate_per_hour = 8;
    cfg.horizon = sim::hours(9);
    cfg.max_nodes = 4;
    cfg.runtime_scale = 0.25;
    cfg.flexible_policy = workload::FlexiblePolicy::kPreferWindows;
    workload::WorkloadGenerator gen(workload::AppCatalog::huddersfield(), cfg, seed);
    return gen.generate();
}

FaultEvent fault_at(sim::Duration at, FaultKind kind) {
    FaultEvent ev;
    ev.at = at;
    ev.kind = kind;
    return ev;
}

/// One of each scheduled fault kind the v2 middleware meets: node crash,
/// power cycle, a head crash and restart on each side, PXE outage and a torn
/// write of the flag menu.
std::vector<FaultEvent> fault_events() {
    std::vector<FaultEvent> events;
    events.push_back(fault_at(sim::hours(1), FaultKind::kNodeCrash));
    events.push_back(fault_at(sim::minutes(95), FaultKind::kPowerCycle));
    FaultEvent linux_head = fault_at(sim::hours(2), FaultKind::kHeadCrash);
    linux_head.side = "linux";
    linux_head.duration = sim::minutes(20);
    events.push_back(linux_head);
    FaultEvent windows_head = fault_at(sim::minutes(170), FaultKind::kHeadCrash);
    windows_head.side = "windows";
    windows_head.duration = sim::minutes(15);
    events.push_back(windows_head);
    FaultEvent pxe = fault_at(sim::hours(4), FaultKind::kPxeOutage);
    pxe.duration = sim::minutes(30);
    events.push_back(pxe);
    events.push_back(fault_at(sim::minutes(290), FaultKind::kControlTornWrite));
    return events;
}

ScenarioConfig faulted_config(std::vector<FaultEvent> events) {
    ScenarioConfig cfg;
    cfg.node_count = 8;
    cfg.linux_nodes = 6;  // two Windows-first nodes: one-shot pins in play
    cfg.version = deploy::MiddlewareVersion::kV2;
    cfg.policy = PolicyKind::kFcfs;
    cfg.poll_interval = sim::minutes(5);
    cfg.horizon = sim::hours(10);
    cfg.faults.events = std::move(events);
    cfg.recovery.enabled = true;
    cfg.seed = 7;
    return cfg;
}

/// Polls whose debug block carries `line` (the Fig 6 state headings).
std::size_t polls_reading(const std::vector<std::string>& polls, const std::string& line) {
    std::size_t n = 0;
    for (const std::string& p : polls) n += p.find("\n" + line + "\n") != std::string::npos;
    return n;
}

void expect_streamed_every_poll(const HybridCluster& hybrid) {
    const PbsDetector::PollStats& ps = hybrid.pbs_detector().poll_stats();
    EXPECT_GT(ps.stanza_parses, 0u) << "the cluster polled through whole strings";
    EXPECT_LT(ps.resyncs, ps.polls) << "the streaming detector never followed the journal";
}

TEST(HybridStreamingDetector, MatchesWholeStringUnderEachFaultKind) {
    const auto trace = mixed_trace(7);
    for (const FaultEvent& ev : fault_events()) {
        SCOPED_TRACE(fault::fault_kind_name(ev.kind) + std::string(" ") + ev.side);
        ScenarioWorld world(faulted_config({ev}), trace);
        HybridCluster& hybrid = world.hybrid();
        ProbePolicy probe(hybrid.policy(), hybrid.pbs());
        hybrid.linux_daemon().set_policy(probe);
        world.run_until(world.horizon_end());
        EXPECT_EQ(hybrid.fault_injector()->stats().injected, 1u);
        EXPECT_GE(probe.polls.size(), 90u);
        EXPECT_GT(polls_reading(probe.polls, "Queue stuck"), 0u);
        EXPECT_GT(polls_reading(probe.polls, "Job running, no queuing."), 0u);
        EXPECT_GT(polls_reading(probe.polls, "Other state"), 0u);
        EXPECT_TRUE(probe.mismatches.empty()) << probe.mismatches.front();
        EXPECT_GT(hybrid.controller().stats().decisions_executed, 0u);
        expect_streamed_every_poll(hybrid);
    }
}

TEST(HybridStreamingDetector, MatchesWholeStringAcrossAFork) {
    const auto trace = mixed_trace(11);
    ScenarioWorld world(faulted_config(fault_events()), trace);
    HybridCluster& hybrid = world.hybrid();
    const auto fork_at = sim::TimePoint{} + sim::minutes(130);  // the Linux head is down

    ProbePolicy prefix(hybrid.policy(), hybrid.pbs());
    hybrid.linux_daemon().set_policy(prefix);
    world.run_until(fork_at);
    const ScenarioWorld::Snapshot snap = world.snapshot();
    const PbsDetector::PollStats at_fork = hybrid.pbs_detector().poll_stats();

    ProbePolicy cold(hybrid.policy(), hybrid.pbs());
    hybrid.linux_daemon().set_policy(cold);
    world.run_until(world.horizon_end());
    const PbsDetector::PollStats cold_end = hybrid.pbs_detector().poll_stats();

    // restore() rebuilds the cluster's policy, which unhooks the probe. The
    // Linux head, back up by the horizon, is down again at the fork instant.
    world.restore(snap);
    EXPECT_FALSE(hybrid.cluster().network().is_bound(hybrid.cluster().linux_head_host(),
                                                     kCommunicatorPort));
    EXPECT_EQ(hybrid.pbs_detector().poll_stats().polls, at_fork.polls);
    ProbePolicy forked(hybrid.policy(), hybrid.pbs());
    hybrid.linux_daemon().set_policy(forked);
    world.run_until(world.horizon_end());

    EXPECT_EQ(hybrid.fault_injector()->stats().injected, fault_events().size());
    for (const ProbePolicy* probe : {&prefix, &cold, &forked})
        EXPECT_TRUE(probe->mismatches.empty()) << probe->mismatches.front();
    EXPECT_GE(prefix.polls.size(), 20u);
    EXPECT_GE(cold.polls.size(), 60u);
    // The restored cursor carries on streaming where the saved one left off:
    // the forked suffix parses and resyncs exactly what the first one did.
    EXPECT_EQ(forked.polls, cold.polls);
    const PbsDetector::PollStats& forked_end = hybrid.pbs_detector().poll_stats();
    EXPECT_EQ(forked_end.polls, cold_end.polls);
    EXPECT_EQ(forked_end.stanza_parses, cold_end.stanza_parses);
    EXPECT_EQ(forked_end.resyncs, cold_end.resyncs);
    expect_streamed_every_poll(hybrid);
}

// ---- settle ---------------------------------------------------------------

std::int64_t settle_end_ms(const HybridConfig& cfg) {
    sim::Engine engine;
    HybridCluster hybrid(engine, cfg);
    hybrid.start();
    hybrid.settle();
    for (auto* node : hybrid.cluster().nodes()) EXPECT_TRUE(node->is_up());
    return engine.now().ms;
}

// Reference instants recorded from a settle() that rescanned every node after
// each engine step; the cursor must return at exactly the same step.
TEST(HybridSettle, EndsWhereTheRescanningSettleEnded) {
    HybridConfig e1;  // E1's boot path: v1 local GRUB, half the nodes Windows-first
    e1.cluster.node_count = 16;
    e1.version = deploy::MiddlewareVersion::kV1;
    e1.initial_windows_nodes = 8;
    EXPECT_EQ(settle_end_ms(e1), 227'486);

    const std::int64_t fig11_ms[] = {156'419, 157'036, 160'568};
    for (int seed = 1; seed <= 3; ++seed) {
        HybridConfig fig11;  // bench_fig11_v2_system's cluster
        fig11.cluster.node_count = 16;
        fig11.cluster.seed = static_cast<std::uint64_t>(seed);
        fig11.version = deploy::MiddlewareVersion::kV2;
        fig11.poll_interval = sim::minutes(10);
        EXPECT_EQ(settle_end_ms(fig11), fig11_ms[seed - 1]) << "seed " << seed;
    }
}

TEST(HybridSettle, WaitsForANodeThatWentDownBehindTheCursor) {
    // Without jitter all four nodes first come up at 144 s. Power cycling
    // node 3 at 120 s pushes its first boot past 200 s, when node 0, already
    // up, crashes. settle() must wait for the sweeper to bring node 0 back.
    HybridConfig cfg;
    cfg.cluster.node_count = 4;
    cfg.cluster.timing.jitter = 0;
    FaultEvent cycle = fault_at(sim::seconds(120), FaultKind::kPowerCycle);
    cycle.node = 3;
    FaultEvent crash = fault_at(sim::seconds(200), FaultKind::kNodeCrash);
    crash.node = 0;
    cfg.fault_plan.events = {cycle, crash};
    cfg.recovery.enabled = true;
    cfg.recovery.hang_grace = sim::minutes(1);
    cfg.recovery.sweep_interval = sim::minutes(1);

    sim::Engine engine;
    HybridCluster hybrid(engine, cfg);
    hybrid.start();
    hybrid.settle(sim::minutes(30));
    EXPECT_EQ(hybrid.fault_injector()->stats().node_crashes, 1u);
    EXPECT_EQ(hybrid.cluster().node(0).stats().hangs, 1u);
    EXPECT_EQ(hybrid.cluster().node(3).stats().hard_power_cycles, 1u);
    for (auto* node : hybrid.cluster().nodes()) EXPECT_TRUE(node->is_up());
    EXPECT_EQ(hybrid.cluster().node(0).stats().boots, 2u);
    EXPECT_EQ(engine.now().ms, 444'000);
}

TEST(HybridSettle, ReturnsAtTheDeadline) {
    HybridConfig cfg;
    cfg.cluster.node_count = 4;
    cfg.cluster.timing.jitter = 0;
    sim::Engine engine;
    HybridCluster hybrid(engine, cfg);
    hybrid.start();
    hybrid.settle(sim::seconds(30));
    // The step that crosses the deadline is the last one: firmware at 35 s.
    EXPECT_EQ(engine.now().ms, 35'000);
    for (auto* node : hybrid.cluster().nodes()) EXPECT_FALSE(node->is_up());
}

TEST(HybridSettle, ReturnsWhenTheCalendarEmpties) {
    // Every boot hangs and no daemon runs, so the calendar drains long
    // before the deadline with no node up.
    HybridConfig cfg;
    cfg.cluster.node_count = 4;
    cfg.boot_hang_probability = 1.0;
    sim::Engine engine;
    HybridCluster hybrid(engine, cfg);
    for (auto* node : hybrid.cluster().nodes()) node->power_on();
    hybrid.settle(sim::hours(10));
    EXPECT_FALSE(engine.step());
    EXPECT_LT(engine.now(), sim::TimePoint{} + sim::hours(1));
    for (auto* node : hybrid.cluster().nodes()) {
        EXPECT_FALSE(node->is_up());
        EXPECT_EQ(node->stats().hangs, 1u);
    }
}

}  // namespace
}  // namespace hc::core
