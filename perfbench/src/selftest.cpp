// Self-test of the output checks: each must pass a correct input and fail a
// deliberately broken one. Run with `python3 perfbench/run.py --self-test`;
// exits non-zero when any check does not behave.
#include <cstdio>
#include <string>
#include <vector>

#include "checks.hpp"

namespace {

using namespace perfbench;

int failures = 0;

void expect(const char* what, bool passes_good, bool fails_broken) {
    const bool ok = passes_good && fails_broken;
    if (!ok) ++failures;
    std::printf("%-44s %s\n", what, ok ? "ok" : "WRONG");
}

bool fails(const std::string& r) { return !r.empty(); }
bool fails(const std::vector<std::string>& r) { return !r.empty(); }

}  // namespace

int main() {
    // eridani-campaign
    expect("job conservation", !fails(check_job_conservation("v", {90, 2, 8}, 100)),
           fails(check_job_conservation("v", {90, 2, 7}, 100)));
    expect("utilisation in (0, 1]",
           !fails(check_utilisation("v", 0.6)) && !fails(check_utilisation("v", 1.0)),
           fails(check_utilisation("v", 0.0)) && fails(check_utilisation("v", 1.02)));
    expect("fault injected and recovered", !fails(check_fault_recovery(3, 2)),
           fails(check_fault_recovery(0, 0)) && fails(check_fault_recovery(2, 0)));

    // Forked vs cold results, ledgers across thread counts, detector
    // snapshots, digests across rounds.
    expect("identical renderings", !fails(check_identical("ledger", "x\ny\n", "x\ny\n")),
           fails(check_identical("ledger", "x\ny\n", "x\nz\n")) &&
               fails(check_identical("ledger", "x\ny\n", "x\ny")));

    // campus-federation
    expect("routed + rejected = trace, rejected = 0", !fails(check_routing_totals(10, 0, 10)),
           fails(check_routing_totals(9, 1, 10)) && fails(check_routing_totals(9, 0, 10)));
    // Members: linux-only, windows-only, hybrid. Jobs: L L W L W W.
    const std::vector<std::vector<bool>> capable = {{true, false}, {false, true}, {true, true}};
    const std::vector<std::uint64_t> shares = round_robin_shares({0, 0, 1, 0, 1, 1}, capable);
    // Rotating from member 0: L->0, L->2, W->1, L->2, W->1, W->2.
    expect("round-robin shares from the trace", shares == std::vector<std::uint64_t>{1, 2, 3},
           true);
    expect("member shares", !fails(check_member_shares({1, 2, 3}, shares, 6)),
           fails(check_member_shares({2, 1, 3}, shares, 6)) &&
               fails(check_member_shares({1, 2, 2}, shares, 6)));
    expect("every hybrid switches", !fails(check_hybrid_switches({false, true}, {0, 4})),
           fails(check_hybrid_switches({false, true}, {3, 0})));

    // serve-100k
    ServeTally good;
    good.requests = 160;
    good.submits = 100;
    good.status_queries = 50;
    good.checkqueues = 10;
    good.accepted = 100;
    good.backend_submitted = 100;
    good.backend_started = 97;
    good.backend_queued = 3;
    good.submit_p99_ms = 1000;
    good.cycle_ms = 1000;
    good.staleness_mean_s = 150;
    good.poll_s = 300;
    const bool good_passes = !fails(check_serve(good));
    auto broken = [&](auto mutate) {
        ServeTally t = good;
        mutate(t);
        return fails(check_serve(t));
    };
    expect("serve: requests balance", good_passes,
           broken([](ServeTally& t) { t.requests = 159; }));
    expect("serve: accepted + rejected = submits, 0 rejected", good_passes,
           broken([](ServeTally& t) { t.accepted = 99; }) &&
               broken([](ServeTally& t) { t.accepted = 99, t.rejected = 1; }));
    expect("serve: started + queued = submitted", good_passes,
           broken([](ServeTally& t) { t.backend_queued = 2; }));
    expect("serve: submit p99 within a cycle", good_passes,
           broken([](ServeTally& t) { t.submit_p99_ms = 1500; }));
    expect("serve: staleness within a poll", good_passes,
           broken([](ServeTally& t) { t.staleness_mean_s = 301; }));

    std::printf("%s\n", failures == 0 ? "self-test passed" : "self-test FAILED");
    return failures == 0 ? 0 : 1;
}
