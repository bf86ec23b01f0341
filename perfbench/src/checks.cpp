#include "checks.hpp"

#include <cstdio>

namespace perfbench {

namespace {

std::string u64(std::uint64_t v) { return std::to_string(v); }

std::string real(double v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.6g", v);
    return buf;
}

}  // namespace

std::string check_job_conservation(const std::string& variant, const JobTally& tally,
                                   std::uint64_t trace_length) {
    const std::uint64_t accounted = tally.completed + tally.lost + tally.in_system;
    if (accounted == trace_length) return "";
    return variant + ": completed " + u64(tally.completed) + " + lost " + u64(tally.lost) +
           " + in system " + u64(tally.in_system) + " != trace length " + u64(trace_length);
}

std::string check_utilisation(const std::string& variant, double utilisation) {
    if (utilisation > 0 && utilisation <= 1) return "";
    return variant + ": utilisation " + real(utilisation) + " outside (0, 1]";
}

std::string check_fault_recovery(std::uint64_t injected, std::uint64_t recoveries) {
    if (injected >= 1 && recoveries >= 1) return "";
    return "fault variant: injected " + u64(injected) + ", recoveries " + u64(recoveries) +
           " (need at least one of each)";
}

std::string check_routing_totals(std::uint64_t routed, std::uint64_t rejected,
                                 std::uint64_t trace_length) {
    if (routed + rejected != trace_length)
        return "routed " + u64(routed) + " + rejected " + u64(rejected) +
               " != trace length " + u64(trace_length);
    if (rejected != 0) return "rejected " + u64(rejected) + " jobs (expected 0)";
    return "";
}

std::vector<std::uint64_t> round_robin_shares(const std::vector<int>& job_os,
                                              const std::vector<std::vector<bool>>& capable) {
    const std::size_t members = capable.size();
    std::vector<std::uint64_t> shares(members, 0);
    std::size_t cursor = 0;
    for (const int os : job_os) {
        for (std::size_t probe = 0; probe < members; ++probe) {
            const std::size_t m = (cursor + probe) % members;
            if (capable[m][static_cast<std::size_t>(os)]) {
                ++shares[m];
                cursor = (m + 1) % members;
                break;
            }
        }
    }
    return shares;
}

std::string check_member_shares(const std::vector<std::uint64_t>& received,
                                const std::vector<std::uint64_t>& expected,
                                std::uint64_t routed) {
    std::uint64_t sum = 0;
    for (const std::uint64_t r : received) sum += r;
    if (sum != routed)
        return "members received " + u64(sum) + " jobs but routed is " + u64(routed);
    if (received.size() != expected.size()) return "member count differs from expected shares";
    for (std::size_t m = 0; m < received.size(); ++m)
        if (received[m] != expected[m])
            return "member " + u64(m) + " received " + u64(received[m]) +
                   " jobs, round-robin gives " + u64(expected[m]);
    return "";
}

std::string check_hybrid_switches(const std::vector<bool>& is_hybrid,
                                  const std::vector<std::uint64_t>& switches) {
    if (is_hybrid.size() != switches.size()) return "switch counts do not cover every member";
    for (std::size_t m = 0; m < is_hybrid.size(); ++m)
        if (is_hybrid[m] && switches[m] == 0)
            return "hybrid member " + u64(m) + " never switched OS";
    return "";
}

std::string check_identical(const std::string& what, const std::string& a,
                            const std::string& b) {
    if (a == b) return "";
    std::size_t at = 0;
    while (at < a.size() && at < b.size() && a[at] == b[at]) ++at;
    return what + ": differ at byte " + u64(at) + " (lengths " + u64(a.size()) + " and " +
           u64(b.size()) + ")";
}

std::vector<std::string> check_serve(const ServeTally& t) {
    std::vector<std::string> out;
    const std::uint64_t sent = t.submits + t.status_queries + t.checkqueues;
    if (t.requests != sent)
        out.push_back("requests " + u64(t.requests) + " != submits + status + checkqueue " +
                      u64(sent));
    if (t.accepted + t.rejected != t.submits)
        out.push_back("accepted " + u64(t.accepted) + " + rejected " + u64(t.rejected) +
                      " != submits " + u64(t.submits));
    if (t.rejected != 0) out.push_back("rejected " + u64(t.rejected) + " requests (expected 0)");
    if (t.backend_started + t.backend_queued != t.backend_submitted)
        out.push_back("started " + u64(t.backend_started) + " + queued " +
                      u64(t.backend_queued) + " != submitted " + u64(t.backend_submitted));
    if (!(t.submit_p99_ms <= t.cycle_ms))
        out.push_back("submit latency p99 " + real(t.submit_p99_ms) + " ms exceeds one cycle (" +
                      real(t.cycle_ms) + " ms)");
    if (!(t.staleness_mean_s <= t.poll_s))
        out.push_back("mean detector staleness " + real(t.staleness_mean_s) +
                      " s exceeds one poll interval (" + real(t.poll_s) + " s)");
    return out;
}

}  // namespace perfbench
