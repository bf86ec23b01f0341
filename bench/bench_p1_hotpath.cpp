// P1 — hot-path microbenchmarks: the perf trajectory record.
//
// Three costs dominate simulated wall-clock at campus-grid scale (§V
// extrapolation): the event calendar's per-event overhead, the PBS
// scheduler's per-cycle placement scan, and the detector's poll (text render
// + parse). This bench measures all three at several scales and — with
// `--json <path>` — emits a machine-readable record so successive PRs can
// be compared (`--quick` shrinks problem sizes for CI smoke runs).
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "cluster/cluster.hpp"
#include "core/detector.hpp"
#include "obs/obs.hpp"
#include "pbs/server.hpp"
#include "sim/engine.hpp"

using namespace hc;

namespace {

using Clock = std::chrono::steady_clock;

template <class F>
double time_s(F&& f) {
    const auto t0 = Clock::now();
    f();
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

constexpr std::uint64_t kLcgMul = 6364136223846793005ULL;
constexpr std::uint64_t kLcgAdd = 1442695040888963407ULL;

// ---- engine event throughput -----------------------------------------------

// A self-rescheduling event chain. The callback captures `this` plus a
// 16-byte payload — the shape of the repo's real callbacks (a daemon pointer
// and a couple of ids), deliberately larger than std::function's inline
// buffer so the bench reflects what the servers actually schedule.
struct Chain {
    sim::Engine& engine;
    std::uint64_t remaining;
    std::uint64_t seed;
    std::uint64_t sink = 0;

    void pump() {
        if (remaining == 0) return;
        --remaining;
        seed = seed * kLcgMul + kLcgAdd;
        const auto delay_ms = static_cast<std::int64_t>(1 + (seed >> 59));  // 1..32 ms
        engine.schedule_after(sim::Duration{delay_ms},
                              [this, a = seed, b = seed ^ kLcgAdd] {
                                  sink += a ^ b;
                                  pump();
                              });
    }
};

double engine_events_per_sec(std::uint64_t total_events) {
    sim::Engine engine;
    engine.logger().set_min_level(util::LogLevel::kError);
    constexpr std::uint64_t kChains = 256;
    std::vector<Chain> chains;
    chains.reserve(kChains);
    for (std::uint64_t c = 0; c < kChains; ++c)
        chains.push_back(Chain{engine, total_events / kChains, c * 977 + 1});
    const double elapsed = time_s([&] {
        for (auto& chain : chains) chain.pump();
        engine.run_all();
    });
    return static_cast<double>(engine.stats().dispatched) / elapsed;
}

// Cancel churn: every step schedules two events and cancels one immediately,
// so half the calendar entries are tombstones (the walltime-timer pattern:
// armed for every job, cancelled for almost all of them).
struct ChurnChain {
    sim::Engine& engine;
    std::uint64_t remaining;
    std::uint64_t seed;
    std::uint64_t sink = 0;

    void pump() {
        if (remaining == 0) return;
        --remaining;
        seed = seed * kLcgMul + kLcgAdd;
        const auto delay_ms = static_cast<std::int64_t>(1 + (seed >> 59));
        const sim::EventId victim =
            engine.schedule_after(sim::Duration{delay_ms + 7}, [this] { sink += 1; });
        engine.schedule_after(sim::Duration{delay_ms}, [this, a = seed, b = seed ^ kLcgMul] {
            sink += a ^ b;
            pump();
        });
        engine.cancel(victim);
    }
};

double engine_churn_events_per_sec(std::uint64_t steps) {
    sim::Engine engine;
    engine.logger().set_min_level(util::LogLevel::kError);
    constexpr std::uint64_t kChains = 256;
    std::vector<ChurnChain> chains;
    chains.reserve(kChains);
    for (std::uint64_t c = 0; c < kChains; ++c)
        chains.push_back(ChurnChain{engine, steps / kChains, c * 977 + 1});
    const double elapsed = time_s([&] {
        for (auto& chain : chains) chain.pump();
        engine.run_all();
    });
    // Count scheduled events (dispatched + cancelled): both sides paid for.
    return static_cast<double>(engine.stats().scheduled) / elapsed;
}

// ---- scheduler cycle latency -----------------------------------------------

struct Testbed {
    sim::Engine engine;
    // Runs between engine and cluster construction: obs handles latch
    // enabled-ness when components register, so the hub must be configured
    // first (declaration order is initialization order).
    bool obs_init;
    cluster::Cluster cluster;
    pbs::PbsServer server;

    explicit Testbed(int node_count, bool obs_on = false)
        : obs_init([&] {
              if (obs_on) {
                  hc::obs::ObsOptions opts;
                  opts.metrics = true;
                  opts.trace = true;
                  opts.journal = true;
                  engine.obs().configure(opts);
              }
              return obs_on;
          }()),
          cluster(engine,
                  [&] {
                      cluster::ClusterConfig cfg;
                      cfg.node_count = node_count;
                      cfg.timing.jitter = 0;
                      return cfg;
                  }()),
          server(engine) {
        engine.logger().set_min_level(util::LogLevel::kError);
        for (auto* node : cluster.nodes()) {
            node->set_boot_resolver([](const cluster::Node&) {
                cluster::BootDecision d;
                d.os = cluster::OsType::kLinux;
                return d;
            });
            server.attach_node(*node);
            node->power_on();
        }
        engine.run_all();
    }

    void submit(int nodes, int ppn, sim::Duration run_time) {
        pbs::JobScript script;
        script.resources.nodes = nodes;
        script.resources.ppn = ppn;
        script.name = "bench";
        pbs::JobBehavior behavior;
        behavior.run_time = run_time;
        auto id = server.submit(script, "bench", std::move(behavior));
        if (!id.ok()) std::fprintf(stderr, "submit failed: %s\n", id.error_message().c_str());
    }
};

/// Per-cycle latency (us) with every core busy and a blocked queue — the
/// Fig 5 "stuck" steady state the daemons poll through for hours. With
/// `obs_on` every telemetry channel records; the default leaves the hub
/// disabled, which must cost nothing (the PR-over-PR guardrail).
double scheduler_cycle_us(int node_count, int reps, bool obs_on = false) {
    Testbed bed(node_count, obs_on);
    for (int i = 0; i < node_count; ++i) bed.submit(1, 4, sim::hours(2000));
    for (int i = 0; i < 64; ++i) bed.submit(1, 4, sim::hours(1));
    const double elapsed = time_s([&] {
        for (int i = 0; i < reps; ++i) bed.server.schedule_cycle();
    });
    return elapsed / reps * 1e6;
}

// ---- detector poll cost ----------------------------------------------------

double detector_poll_us(bool advance_time, int reps) {
    Testbed bed(16);
    for (int i = 0; i < 16; ++i) bed.submit(1, 4, sim::hours(5000));
    for (int i = 0; i < 48; ++i) bed.submit(1, 4, sim::hours(1));
    core::PbsDetector detector(bed.server, /*incremental=*/true);
    int queued_sink = 0;
    const double elapsed = time_s([&] {
        for (int i = 0; i < reps; ++i) {
            if (advance_time) bed.engine.run_for(sim::minutes(10));
            queued_sink += detector.check().queued;
        }
    });
    if (queued_sink == 0) std::fprintf(stderr, "detector bench: unexpected empty queue\n");
    return elapsed / reps * 1e6;
}

// ---- replica sweep throughput ----------------------------------------------

// Whole-scenario replicas through the hc::sweep pool: the unit of work for
// E5 campaigns and the fuzz sweep. Measures end-to-end replicas/s at a given
// thread count — the number that should scale with cores, since replicas
// share nothing and each worker's engine calendar rides a recycled arena.
hc::sweep::SweepStats replica_sweep(std::size_t replica_count, int threads) {
    auto trace = std::make_shared<const std::vector<workload::JobSpec>>(
        hc::bench::mixed_trace(0.2, /*seed=*/1, /*rate_per_hour=*/8.0, sim::hours(8)));
    std::vector<hc::sweep::ScenarioReplica> replicas;
    replicas.reserve(replica_count);
    for (std::size_t slot = 0; slot < replica_count; ++slot) {
        core::ScenarioConfig cfg;
        cfg.kind = core::ScenarioKind::kBiStableHybrid;
        cfg.policy = core::PolicyKind::kFairShare;
        cfg.linux_nodes = 16;
        cfg.horizon = sim::hours(10);
        cfg.seed = static_cast<std::uint64_t>(slot) + 1;  // caller-forked seeds
        replicas.push_back({cfg, trace, ""});
    }
    return hc::sweep::run_scenarios(std::move(replicas), threads).stats;
}

// Host calibration for the sweep figure: the same pool fanning out a fixed
// CPU-only spin per slot. Its 8-vs-1-thread speedup is the parallelism the
// host actually gave in this run, which `nproc` does not tell.
double spin_units_per_sec(std::size_t units, int threads) {
    std::vector<std::uint64_t> sinks(units);
    const auto stats = hc::sweep::run_indexed(
        units, threads, [&](std::size_t slot, hc::sweep::WorkerContext&) {
            std::uint64_t x = slot + 1;
            for (int i = 0; i < 2'000'000; ++i) x = x * kLcgMul + kLcgAdd;
            sinks[slot] = x;
        });
    std::uint64_t folded = 0;
    for (const std::uint64_t x : sinks) folded ^= x;
    if (folded == 0) std::fprintf(stderr, "spin calibration: degenerate sink\n");
    return stats.replicas_per_sec;
}

}  // namespace

int main(int argc, char** argv) {
    const bool quick = hc::bench::quick_mode(argc, argv);
    const std::string json_path = hc::bench::json_path_from_args(argc, argv);
    hc::bench::JsonReport report("P1");

    hc::bench::print_header("P1 (perf trajectory)", "simulation-core hot paths",
                            "engine calendar, scheduler cycle, detector poll");

    const std::uint64_t n_events = quick ? 200'000 : 2'000'000;
    const double steady = engine_events_per_sec(n_events);
    std::printf("engine steady throughput:       %12.0f events/s  (%llu events)\n", steady,
                static_cast<unsigned long long>(n_events));
    report.add("engine_events_per_sec", steady, "events/s", {{"variant", "steady"}});

    const double churn = engine_churn_events_per_sec(quick ? 100'000 : 1'000'000);
    std::printf("engine cancel-churn throughput: %12.0f events/s\n", churn);
    report.add("engine_events_per_sec", churn, "events/s", {{"variant", "cancel_churn"}});

    std::printf("\nscheduler cycle latency (all cores busy, 64 jobs queued):\n");
    for (int nodes : {16, 64, 256, 1024}) {
        const int reps = quick ? 2'000 : 20'000;
        const double us = scheduler_cycle_us(nodes, reps);
        std::printf("  %5d nodes: %10.3f us/cycle\n", nodes, us);
        report.add("scheduler_cycle_us", us, "us", {{"nodes", std::to_string(nodes)}});
    }

    std::printf("\nobs overhead on the scheduler cycle (64 nodes):\n");
    {
        const int reps = quick ? 2'000 : 20'000;
        const double base_us = scheduler_cycle_us(64, reps, /*obs_on=*/false);
        const double obs_us = scheduler_cycle_us(64, reps, /*obs_on=*/true);
        std::printf("  obs disabled: %10.3f us/cycle\n", base_us);
        std::printf("  obs enabled : %10.3f us/cycle  (%+.2f%%)\n", obs_us,
                    base_us > 0 ? (obs_us - base_us) / base_us * 100.0 : 0.0);
        report.add("scheduler_cycle_us", base_us, "us", {{"nodes", "64"}, {"obs", "off"}});
        report.add("scheduler_cycle_us", obs_us, "us", {{"nodes", "64"}, {"obs", "on"}});
        report.add_overhead_pct("obs_overhead_pct", base_us, obs_us,
                                {{"path", "scheduler_cycle"}});
    }

    std::printf("\ndetector poll cost (16 nodes, 48 queued jobs):\n");
    const int poll_reps = quick ? 500 : 5'000;
    const double poll_same = detector_poll_us(false, poll_reps);
    std::printf("  steady state (no mutations):  %10.3f us/poll\n", poll_same);
    report.add("detector_poll_us", poll_same, "us", {{"variant", "steady"}});
    const double poll_adv = detector_poll_us(true, poll_reps / 5);
    std::printf("  advancing clock (10 min/poll):%10.3f us/poll\n", poll_adv);
    report.add("detector_poll_us", poll_adv, "us", {{"variant", "advancing"}});

    std::printf("\nreplica sweep throughput (scenario runs through hc::sweep):\n");
    {
        const std::size_t replica_count = quick ? 16 : 48;
        const auto serial = replica_sweep(replica_count, 1);
        std::printf("  1 thread : %7.2f replicas/s  (%zu replicas, %.0f ms)\n",
                    serial.replicas_per_sec, serial.replicas, serial.wall_ms);
        report.add("sweep_replicas_per_sec", serial.replicas_per_sec, "replicas/s",
                   {{"threads", "1"}});
        const auto pooled = replica_sweep(replica_count, 8);
        std::printf("  8 threads: %7.2f replicas/s  (%.0f ms)\n", pooled.replicas_per_sec,
                    pooled.wall_ms);
        report.add("sweep_replicas_per_sec", pooled.replicas_per_sec, "replicas/s",
                   {{"threads", "8"}});
        const double speedup = serial.replicas_per_sec > 0
                                   ? pooled.replicas_per_sec / serial.replicas_per_sec
                                   : 0.0;
        const int nproc = hc::sweep::resolve_threads(0);
        const double spin_1 = spin_units_per_sec(replica_count, 1);
        const double spin_8 = spin_units_per_sec(replica_count, 8);
        const double spin_speedup = spin_1 > 0 ? spin_8 / spin_1 : 0.0;
        std::printf("  speedup  : %7.2fx (host: nproc %d, spin loop 8 vs 1 thread %.2fx)\n",
                    speedup, nproc, spin_speedup);
        report.add("sweep_speedup", speedup, "x", {{"threads", "8"}});
        report.add("host_nproc", nproc, "threads", {});
        report.add("spin_speedup", spin_speedup, "x", {{"threads", "8"}});
        report.set_sweep(pooled);
    }

    if (!json_path.empty() && !report.write(json_path)) return 1;
    return 0;
}
