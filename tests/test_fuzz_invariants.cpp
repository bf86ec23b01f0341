// Seed-sweep invariant fuzzer: randomized fault plans against the full
// HybridCluster, checking structural invariants that must hold for EVERY
// seed — the contract hc::fault + the recovery machinery make together.
// The replica and its invariants live in fuzz_harness.hpp; this file owns
// the sweep driver and the fuzzer's own control experiments.
//
// Execution: seeds fan out across the hc::sweep thread pool
// (HC_FUZZ_THREADS overrides the worker count; default one per core).
// Outcomes land slot-indexed and are judged in seed order on this thread,
// so failure reports and repro artifacts are identical at any thread count.
//
// Tiers: the quick shard (~50 seeds) runs in tier-1 CI on every push. The
// full sweep (hundreds of seeds, nightly, ASan/UBSan) runs only when
// HC_FUZZ_SEEDS is set and carries the `fuzz` ctest label. A failing seed
// writes a complete one-command repro (seed + plan JSON) to fuzz_failures/.
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "fuzz_harness.hpp"
#include "sweep/runner.hpp"

namespace hc::fault {
namespace {

using cluster::PowerState;

/// Worker count for the fuzz sweep: HC_FUZZ_THREADS if set, else one per
/// hardware thread (hc::sweep resolves 0).
int fuzz_threads() {
    const char* env = std::getenv("HC_FUZZ_THREADS");
    if (env == nullptr || *env == '\0') return 0;
    return std::atoi(env);
}

void sweep(std::uint64_t first_seed, std::uint64_t count, int cloud_burst = 0) {
    const auto outcomes = sweep::map_indexed<FuzzOutcome>(
        count, fuzz_threads(), [&](std::size_t slot, sweep::WorkerContext& ctx) {
            FuzzRunConfig cfg;
            cfg.seed = first_seed + slot;  // caller-forked: depends only on the slot
            cfg.cloud_burst = cloud_burst;
            return run_one(cfg, ctx.arena);
        });
    std::uint64_t failures = 0;
    for (std::size_t slot = 0; slot < outcomes.size(); ++slot) {
        if (outcomes[slot].violations.empty()) continue;
        ++failures;
        FuzzRunConfig cfg;
        cfg.seed = first_seed + slot;
        write_repro(cfg, outcomes[slot]);
        for (const std::string& v : outcomes[slot].violations)
            ADD_FAILURE() << "seed " << cfg.seed << ": " << v
                          << " (repro written to fuzz_failures/)";
    }
    EXPECT_EQ(failures, 0u);
}

TEST(FuzzInvariants, QuickShard) { sweep(/*first_seed=*/1, /*count=*/50); }

// Cloud-armed shard: the same invariant set plus the elastic-partition
// checks (quota cap, slot conservation, pending-provision drain, ledger
// linearity) over worlds where the burst-aware policy may rent mid-fault.
// Disjoint seed base so it explores plans the plain shard never saw.
TEST(FuzzInvariants, QuickShardCloud) {
    sweep(/*first_seed=*/200, /*count=*/25, /*cloud_burst=*/4);
}

// The warm-started shard: the same invariants through the snapshot/fork
// path. One healthy world per worker, every seed's plan + workload armed on
// a restored fork — so this shard doubles as an integration fuzz of
// Engine::restore + the component SavedState round-trip under arbitrary
// fault plans.
TEST(FuzzInvariants, QuickShardForked) {
    constexpr std::uint64_t kFirstSeed = 1;
    constexpr std::size_t kCount = 50;
    const auto outcomes = sweep::run_forked(
        kCount, fuzz_threads(),
        [](sweep::WorkerContext& ctx) {
            FuzzRunConfig cfg;
            return std::make_unique<FuzzWorld>(cfg, ctx.arena);
        },
        [](FuzzWorld& world, std::size_t slot) {
            FuzzRunConfig cfg;
            cfg.seed = kFirstSeed + slot;
            return run_forked_suffix(world, cfg);
        });
    std::uint64_t failures = 0;
    for (std::size_t slot = 0; slot < outcomes.size(); ++slot) {
        for (const std::string& v : outcomes[slot].violations) {
            ++failures;
            ADD_FAILURE() << "forked seed " << kFirstSeed + slot << ": " << v;
        }
    }
    EXPECT_EQ(failures, 0u);
}

// Forked + cloud-armed: the shared prefix carries a started CloudBackend
// (sweep task armed, slots registered with both schedulers), so every
// restore exercises the backend's SavedState round-trip before the seed's
// plan and workload drive bursts, scale-downs, and recoveries on top.
TEST(FuzzInvariants, QuickShardForkedCloud) {
    constexpr std::uint64_t kFirstSeed = 300;
    constexpr std::size_t kCount = 25;
    const auto outcomes = sweep::run_forked(
        kCount, fuzz_threads(),
        [](sweep::WorkerContext& ctx) {
            FuzzRunConfig cfg;
            cfg.cloud_burst = 4;
            return std::make_unique<FuzzWorld>(cfg, ctx.arena);
        },
        [](FuzzWorld& world, std::size_t slot) {
            FuzzRunConfig cfg;
            cfg.seed = kFirstSeed + slot;
            cfg.cloud_burst = 4;
            return run_forked_suffix(world, cfg);
        });
    std::uint64_t failures = 0;
    for (std::size_t slot = 0; slot < outcomes.size(); ++slot) {
        for (const std::string& v : outcomes[slot].violations) {
            ++failures;
            ADD_FAILURE() << "forked cloud seed " << kFirstSeed + slot << ": " << v;
        }
    }
    EXPECT_EQ(failures, 0u);
}

// The full sweep: HC_FUZZ_SEEDS=500 ctest -L fuzz  (nightly, sanitized).
TEST(FuzzInvariants, FullSweep) {
    const char* env = std::getenv("HC_FUZZ_SEEDS");
    if (env == nullptr || *env == '\0')
        GTEST_SKIP() << "set HC_FUZZ_SEEDS=<count> to run the full sweep";
    const std::uint64_t count = std::strtoull(env, nullptr, 10);
    ASSERT_GT(count, 0u) << "HC_FUZZ_SEEDS must be a positive integer";
    // Disjoint from the quick shard so the nightly explores new seeds.
    sweep(/*first_seed=*/1000, count);
}

// One-seed repro hook: HC_FUZZ_REPRO_SEED=<seed> ./test_fuzz_invariants
TEST(FuzzInvariants, ReproSeed) {
    const char* env = std::getenv("HC_FUZZ_REPRO_SEED");
    if (env == nullptr || *env == '\0')
        GTEST_SKIP() << "set HC_FUZZ_REPRO_SEED=<seed> to replay one seed";
    FuzzRunConfig cfg;
    cfg.seed = std::strtoull(env, nullptr, 10);
    const FuzzOutcome outcome = run_one(cfg);
    for (const std::string& v : outcome.violations)
        ADD_FAILURE() << "seed " << cfg.seed << ": " << v;
}

// The control experiment: with recovery OFF, a plan of repeated boot hangs
// demonstrably wedges nodes — proving the invariants above are load-bearing
// (the fuzzer would catch a recovery regression, not vacuously pass).
TEST(FuzzInvariants, RecoveryDisabledWedgesCluster) {
    FuzzRunConfig cfg;
    cfg.recovery = false;
    cfg.drain = sim::hours(1);
    // Hand-built plan: hang three distinct nodes mid-run. Nothing revives
    // them without the sweeper.
    bool wedged = false;
    sim::Engine engine;
    core::HybridConfig hc;
    hc.cluster.node_count = cfg.node_count;
    hc.version = deploy::MiddlewareVersion::kV2;
    for (int i = 0; i < 3; ++i) {
        FaultEvent ev;
        ev.at = sim::hours(1 + i);
        ev.kind = FaultKind::kBootHang;
        ev.node = i;
        hc.fault_plan.events.push_back(ev);
    }
    core::HybridCluster hybrid(engine, hc);
    hybrid.start();
    engine.run_until(sim::TimePoint{} + cfg.horizon + cfg.drain);
    int hung = 0;
    for (auto* node : hybrid.cluster().nodes())
        if (node->state() == PowerState::kHung) ++hung;
    wedged = hung == 3;
    EXPECT_TRUE(wedged) << "expected 3 wedged nodes without recovery, saw " << hung;

    // And the same plan WITH recovery converges — the pairing the fuzzer
    // relies on.
    sim::Engine engine2;
    core::HybridConfig hc2 = hc;
    hc2.fault_plan = hc.fault_plan;
    hc2.recovery.enabled = true;
    core::HybridCluster healed(engine2, hc2);
    healed.start();
    engine2.run_until(sim::TimePoint{} + cfg.horizon + cfg.drain);
    for (auto* node : healed.cluster().nodes())
        EXPECT_NE(node->state(), PowerState::kHung) << node->short_name();
    EXPECT_GE(healed.recovery()->stats().recoveries, 3u);
}

}  // namespace
}  // namespace hc::fault
