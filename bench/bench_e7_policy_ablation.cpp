// E7 — §V future work: "Currently the daemons for queue monitoring are still
// following the rule 'first-come first-serve'. This could be improved to
// adapt the rules from diverse administration requirements."
//
// Ablates the switch policy on the same mixed trace: never / fcfs (paper) /
// threshold / fair-share / predictive, plus the reboot-as-job design choice
// itself (scheduler-mediated switching protects running jobs by
// construction; `never` shows the cost of not switching at all).
//
// Execution is warm-started: per trace seed, one ForkCampaign runs the
// shared prefix (cluster construction + first boot + settling) once per
// worker, snapshots it, and installs each policy on a restored fork just
// after settling — before any queue poll has seen a job, so every variant
// makes its first decision from the same world. Slot-order aggregation
// keeps tables and `--json` records thread-count-invariant.
#include <cstdio>
#include <memory>

#include "bench_common.hpp"

using namespace hc;

int main(int argc, char** argv) {
    bench::print_header("E7 (§V future work)", "switch-policy ablation",
                        "the shipped rule is FCFS; better rules are future work");

    const struct {
        core::PolicyKind policy;
        int cooldown;
        const char* label;
        const char* key;  ///< stable param value for JSON records
    } kPolicies[] = {
        {core::PolicyKind::kNever, 0, "never (no switching)", "never"},
        {core::PolicyKind::kFcfs, 0, "fcfs (paper)", "fcfs"},
        {core::PolicyKind::kThreshold, 0, "threshold(2) hysteresis", "threshold"},
        {core::PolicyKind::kFairShare, 0, "fair-share", "fair_share"},
        {core::PolicyKind::kFairShare, 3, "fair-share + cooldown(3)", "fair_share_cooldown"},
        {core::PolicyKind::kPredictive, 0, "predictive ewma", "predictive"},
    };
    const std::uint64_t kSeeds[] = {3, 9};
    const int threads = bench::threads_from_args(argc, argv);

    bench::JsonReport report("E7");
    sweep::SweepStats sweep_total;
    sweep::ForkStats fork_total;
    for (std::uint64_t seed : kSeeds) {
        sweep::ForkCampaign campaign;
        campaign.base.kind = core::ScenarioKind::kBiStableHybrid;
        campaign.base.policy = core::PolicyKind::kFcfs;  // prefix runs the paper's rule
        campaign.base.linux_nodes = 16;
        campaign.base.horizon = sim::hours(40);
        campaign.base.seed = seed;
        campaign.trace = std::make_shared<const std::vector<workload::JobSpec>>(
            bench::mixed_trace(0.3, seed, 8.0));
        // Fork right after settling (run_until clamps to construction end):
        // no variant has missed a job-bearing poll yet.
        campaign.fork_at = sim::TimePoint{} + sim::minutes(1);
        for (const auto& entry : kPolicies) {
            campaign.variants.push_back([policy = entry.policy, cooldown = entry.cooldown](
                                            core::ScenarioWorld& world) {
                world.hybrid().set_policy(policy, cooldown);
            });
            campaign.labels.push_back(entry.label);
        }

        sweep::ForkStats fork_stats;
        auto sweep_out = sweep::run_forked_scenarios(campaign, threads, &fork_stats);
        sweep_total.replicas += sweep_out.stats.replicas;
        sweep_total.threads = sweep_out.stats.threads;
        sweep_total.wall_ms += sweep_out.stats.wall_ms;
        fork_total.prefixes += fork_stats.prefixes;
        fork_total.forks += fork_stats.forks;
        if (fork_stats.snapshot_bytes > fork_total.snapshot_bytes)
            fork_total.snapshot_bytes = fork_stats.snapshot_bytes;
        fork_total.prefix_sim_s = fork_stats.prefix_sim_s;
        fork_total.suffix_sim_s = fork_stats.suffix_sim_s;

        const auto stats = workload::compute_trace_stats(*campaign.trace);
        std::printf("\ntrace seed %llu: %zu jobs, %.0f%% Windows demand\n",
                    static_cast<unsigned long long>(seed), stats.jobs,
                    stats.windows_share() * 100.0);
        auto table = bench::scenario_table();
        for (std::size_t slot = 0; slot < sweep_out.results.size(); ++slot) {
            const auto& result = sweep_out.results[slot];
            table.add_row(bench::scenario_row(result));
            bench::add_scenario_records(
                report, result,
                {{"policy", kPolicies[slot].key}, {"seed", std::to_string(seed)}});
        }
        std::printf("%s", table.render().c_str());
    }
    sweep_total.replicas_per_sec =
        sweep_total.wall_ms > 0
            ? static_cast<double>(sweep_total.replicas) / (sweep_total.wall_ms / 1e3)
            : 0.0;
    std::printf(
        "\nshape check: `never` starves the Windows side entirely (wait(W) is 0 only\n"
        "because no Windows job ever ran); FCFS serves it conservatively — one stuck\n"
        "job at a time — and converges to a sensible split; fair-share and predictive\n"
        "move blocks of nodes, completing more work at higher utilisation, but under\n"
        "sustained load they flap (high switch counts), which is exactly why the paper\n"
        "lists policy refinement as future work.\n");
    bench::print_sweep_stats(sweep_total);
    bench::print_fork_stats(fork_total);

    report.set_sweep(sweep_total);
    report.set_fork(fork_total);
    const std::string json_path = bench::json_path_from_args(argc, argv);
    if (!json_path.empty() && !report.write(json_path)) return 1;
    return 0;
}
