// A3 — the Queensgate campus grid, sharded and parallel (§I, ref [2]).
//
// "This hybrid cluster is utilised as part of the University of Huddersfield
// campus grid." Three sections:
//   1. paper shape — a three-member QGG (dedicated Linux, dedicated Windows,
//      Eridani) rides out a render-week surge with Eridani as (a) a plain
//      extra Linux cluster vs (b) the dualboot-oscar hybrid, driven through
//      grid::FederatedGrid (epoch-synchronised routing);
//   2. determinism — the same federation run at several --threads counts
//      must produce byte-identical grid ledgers; a divergence writes both
//      ledgers next to the binary as a3_mismatch_t*_{base,run}.txt repro
//      artifacts and fails the bench (the golden-path check running on a
//      real bench workload, not a test fixture);
//   3. scale — eight 100k-node members (800k nodes, 3.2M cores) advanced in
//      parallel at 1/2/4/8 threads, recording epoch-advance and routing
//      throughput plus scaling efficiency. Quick mode shrinks the members
//      (the record identity stays that of a full run for bench_check).
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "grid/federation.hpp"

using namespace hc;

namespace {

std::vector<workload::JobSpec> qgg_week(std::uint64_t seed) {
    // Steady campus demand plus a Friday render surge that swamps the
    // dedicated Windows cluster.
    workload::GeneratorConfig cfg;
    cfg.arrival.rate_per_hour = 6;
    cfg.horizon = sim::days(5);
    cfg.max_nodes = 4;
    cfg.runtime_scale = 0.25;
    workload::WorkloadGenerator gen(workload::AppCatalog::huddersfield(), cfg, seed);
    auto trace = gen.generate();
    auto surge = gen.burst("Backburner", 24, sim::TimePoint{} + sim::days(3.5),
                           sim::hours(3));
    trace.insert(trace.end(), surge.begin(), surge.end());
    workload::sort_trace(trace);
    return trace;
}

struct QggRun {
    grid::GridSummary report;
    std::string ledger;
    std::size_t eridani_jobs = 0;
    grid::FederationStats stats;
};

QggRun run_qgg(bool eridani_is_hybrid, std::uint64_t seed, int threads) {
    grid::FederationConfig config;
    config.rule = grid::RoutingRule::kLeastPressure;
    config.epoch = sim::minutes(10);
    config.threads = threads;
    grid::FederatedGrid fed(config);
    fed.add_member({"tauceti", grid::GridMember::Kind::kDedicatedLinux, 16});
    fed.add_member({"vega", grid::GridMember::Kind::kDedicatedWindows, 8});
    fed.add_member({"eridani",
                    eridani_is_hybrid ? grid::GridMember::Kind::kHybrid
                                      : grid::GridMember::Kind::kDedicatedLinux,
                    16});
    fed.start();
    const auto trace = qgg_week(seed);
    fed.run(trace, sim::TimePoint{} + sim::days(6));
    QggRun out;
    out.report = fed.report(sim::days(6).seconds());
    out.ledger = grid::render_grid_ledger(out.report);
    out.eridani_jobs = fed.member(2).jobs_received();
    out.stats = fed.stats();
    return out;
}

/// On divergence, persist both ledgers so the failure is a one-file diff
/// rather than a vanished CI run.
void write_mismatch_artifacts(const std::string& base, const std::string& run,
                              int threads, const char* section) {
    const std::string stem = "a3_mismatch_t" + std::to_string(threads);
    std::ofstream(stem + "_base.txt") << base;
    std::ofstream(stem + "_run.txt") << run;
    std::fprintf(stderr,
                 "LEDGER MISMATCH at --threads %d (%s): byte-identical outcomes "
                 "violated.\n  repro artifacts: %s_base.txt / %s_run.txt\n",
                 threads, section, stem.c_str(), stem.c_str());
}

}  // namespace

int main(int argc, char** argv) {
    // A full run takes minutes; line-buffer so a redirected log shows
    // progress as it goes.
    std::setvbuf(stdout, nullptr, _IOLBF, 0);
    const bool quick = bench::quick_mode(argc, argv);
    const std::string json_path = bench::json_path_from_args(argc, argv);
    bench::JsonReport report("A3");
    bool mismatch = false;

    bench::print_header("A3 (campus grid)", "Eridani inside the Queensgate campus grid",
                        "\"This hybrid cluster is utilised as part of the University of "
                        "Huddersfield campus grid.\"");
    std::printf("grid: tauceti (16 nodes, Linux) + vega (8 nodes, Windows) + eridani "
                "(16 nodes)\nworkload: 5-day campus trace + 24-job Backburner render "
                "surge on day 3.5\nrouting: least-pressure, 10-minute epochs "
                "(grid::FederatedGrid)\n\n");

    // ---- 1. paper shape: plain vs hybrid Eridani ---------------------------
    util::Table table({"eridani role", "done", "grid util", "mean wait", "wait(W)",
                       "eridani jobs"});
    for (const bool hybrid : {false, true}) {
        double done = 0, submitted = 0, util_sum = 0, wait = 0, wait_w = 0, jobs = 0;
        const int kSeeds = 3;
        for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
            const QggRun run = run_qgg(hybrid, seed, /*threads=*/1);
            const auto& s = run.report.total;
            done += static_cast<double>(s.completed);
            submitted += static_cast<double>(s.submitted);
            util_sum += s.utilisation;
            wait += s.mean_wait_s;
            wait_w += s.mean_wait_windows_s;
            jobs += static_cast<double>(run.eridani_jobs);
        }
        const char* role = hybrid ? "hybrid" : "plain";
        table.add_row({hybrid ? "dualboot-oscar hybrid" : "plain Linux cluster",
                       util::format_fixed(done / kSeeds, 0) + "/" +
                           util::format_fixed(submitted / kSeeds, 0),
                       util::format_fixed(util_sum / kSeeds * 100.0, 1) + "%",
                       util::format_duration(static_cast<std::int64_t>(wait / kSeeds)),
                       util::format_duration(static_cast<std::int64_t>(wait_w / kSeeds)),
                       util::format_fixed(jobs / kSeeds, 0)});
        report.add("completed_jobs", done / kSeeds, "jobs", {{"eridani", role}});
        report.add("utilisation", util_sum / kSeeds, "fraction", {{"eridani", role}});
        report.add("mean_wait_s", wait / kSeeds, "s", {{"eridani", role}});
        report.add("mean_wait_windows_s", wait_w / kSeeds, "s", {{"eridani", role}});
        report.add("eridani_jobs", jobs / kSeeds, "jobs", {{"eridani", role}});
    }
    std::printf("%s", table.render().c_str());
    std::printf(
        "\nshape check: with Eridani as a plain Linux cluster the render surge piles\n"
        "onto vega's 8 Windows nodes; as a hybrid, the federation overflows Windows\n"
        "work onto Eridani and the middleware reboots capacity to meet it — the\n"
        "campus-grid payoff the paper's conclusion describes.\n");

    // ---- 2. determinism: byte-identical ledgers at any --threads -----------
    const std::vector<int> kEqualityThreads = quick ? std::vector<int>{1, 2}
                                                    : std::vector<int>{1, 4, 8};
    std::printf("\ndeterminism (QGG run, hybrid, seed 1):\n");
    const QggRun base = run_qgg(true, 1, kEqualityThreads.front());
    for (std::size_t i = 1; i < kEqualityThreads.size(); ++i) {
        const int threads = kEqualityThreads[i];
        const QggRun run = run_qgg(true, 1, threads);
        const bool equal = run.ledger == base.ledger;
        std::printf("  --threads %d vs %d: ledger %s (%zu B)\n", threads,
                    kEqualityThreads.front(), equal ? "byte-identical" : "DIVERGED",
                    run.ledger.size());
        if (!equal) {
            write_mismatch_artifacts(base.ledger, run.ledger, threads, "qgg");
            mismatch = true;
        }
    }

    // ---- 3. scale: eight 100k-node members, 1/2/4/8 threads ----------------
    const int kMembers = 8;
    const int kNodes = quick ? 256 : 100000;
    const double kRate = quick ? 50.0 : 1000.0;
    const sim::Duration kHorizon = sim::hours(4);
    std::printf("\nscale: %d members x %d nodes (%d cores), %.0f jobs/h, "
                "5-minute epochs, %lld h horizon:\n",
                kMembers, kNodes, kMembers * kNodes * 4, kRate * kMembers,
                static_cast<long long>(kHorizon.ms / 3'600'000));

    workload::GeneratorConfig wl;
    wl.arrival.rate_per_hour = kRate * kMembers;
    wl.horizon = kHorizon;
    wl.max_nodes = 4;
    wl.runtime_scale = 0.25;
    workload::WorkloadGenerator gen(workload::AppCatalog::huddersfield(), wl, 42);
    auto scale_trace = gen.generate();
    workload::sort_trace(scale_trace);

    std::string scale_base_ledger;
    double wall_1t = 0;
    for (const int threads : {1, 2, 4, 8}) {
        grid::FederationConfig config;
        config.rule = grid::RoutingRule::kLeastPressure;
        config.epoch = sim::minutes(5);
        config.threads = threads;
        grid::FederatedGrid fed(config);
        for (int m = 0; m < kMembers; ++m)
            fed.add_member({"qgg" + std::to_string(m),
                            m % 2 == 0 ? grid::GridMember::Kind::kHybrid
                                       : grid::GridMember::Kind::kDedicatedLinux,
                            kNodes});
        const auto t0 = std::chrono::steady_clock::now();
        fed.start();
        const double start_ms =
            std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                      t0)
                .count();
        fed.run(scale_trace, sim::TimePoint{} + kHorizon);
        const grid::FederationStats& st = fed.stats();
        const std::string ledger =
            grid::render_grid_ledger(fed.report(kHorizon.seconds()));
        if (scale_base_ledger.empty()) {
            scale_base_ledger = ledger;
            wall_1t = st.wall_ms;
        } else if (ledger != scale_base_ledger) {
            write_mismatch_artifacts(scale_base_ledger, ledger, threads, "scale");
            mismatch = true;
        }

        const double wall_s = st.wall_ms / 1000.0;
        const double epochs_per_s = wall_s > 0 ? static_cast<double>(st.epochs) / wall_s : 0;
        const double routed_per_s = wall_s > 0 ? static_cast<double>(st.routed) / wall_s : 0;
        const double speedup = st.wall_ms > 0 ? wall_1t / st.wall_ms : 0;
        const double efficiency = speedup / threads;
        std::printf("  %d thread(s): build+settle %8.1f ms, run %8.1f ms -> "
                    "%7.1f epochs/s, %8.1f routed jobs/s, speedup %5.2fx "
                    "(efficiency %4.0f%%)%s\n",
                    threads, start_ms, st.wall_ms, epochs_per_s, routed_per_s, speedup,
                    efficiency * 100.0,
                    ledger == scale_base_ledger ? "" : "  [MISMATCH]");
        const std::string t = std::to_string(threads);
        report.add("epoch_advances_per_sec", epochs_per_s, "epochs/s", {{"threads", t}});
        report.add("routed_jobs_per_sec", routed_per_s, "jobs/s", {{"threads", t}});
        report.add("scaling_speedup", speedup, "x", {{"threads", t}});
        report.add("scaling_efficiency", efficiency, "fraction", {{"threads", t}});
        report.add("fed_wall_ms", st.wall_ms, "ms", {{"threads", t}});
    }
    std::printf("\nshape check: shards share nothing between epoch barriers, so the\n"
                "federation's wall-clock divides by the worker count until the per-epoch\n"
                "barrier + routing cost dominates; the ledger bytes never change.\n"
                "(On a single-core host every thread count serialises — the speedup\n"
                "column shows ~1x there and the scaling run is a determinism check.)\n");

    if (!json_path.empty() && !report.write(json_path)) return 1;
    return mismatch ? 1 : 0;
}
