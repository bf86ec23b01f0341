// Output checks of the three workloads.
//
// Each check is a pure function over plain numbers or texts the benchmark
// gathered from a run, and returns "" when the output is correct or a
// one-line reason when it is not. Every expected value is either computed by
// the benchmark apart from the simulator (from the generated inputs) or a
// property the method must have; none is a stored copy of an earlier output.
// selftest.cpp feeds each check a deliberately broken input.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

// ---- eridani-campaign ------------------------------------------------------

/// Where every job of a variant's trace stands at the horizon.
struct JobTally {
    std::uint64_t completed = 0;  ///< ran to completion
    std::uint64_t lost = 0;       ///< ended without completing (killed, aborted)
    std::uint64_t in_system = 0;  ///< still queued or running in a scheduler
};

/// completed + unfinished (lost + in_system) must equal the trace length.
[[nodiscard]] std::string check_job_conservation(const std::string& variant,
                                                 const JobTally& tally,
                                                 std::uint64_t trace_length);

/// Delivered utilisation lies in (0, 1].
[[nodiscard]] std::string check_utilisation(const std::string& variant, double utilisation);

/// The fault variant injected at least one fault and recovered from one.
[[nodiscard]] std::string check_fault_recovery(std::uint64_t injected, std::uint64_t recoveries);

// ---- campus-federation -----------------------------------------------------

/// routed + rejected = trace length, and nothing was rejected.
[[nodiscard]] std::string check_routing_totals(std::uint64_t routed, std::uint64_t rejected,
                                               std::uint64_t trace_length);

/// Round-robin share of each member, computed from the trace's OS sequence
/// and the member capabilities alone: each job goes to the next member, from
/// the rotating cursor, that can run its OS. `capable[m][os]` with os 0 =
/// Linux, 1 = Windows. A job no member can run is skipped (rejected).
[[nodiscard]] std::vector<std::uint64_t> round_robin_shares(
    const std::vector<int>& job_os, const std::vector<std::vector<bool>>& capable);

/// Members' jobs_received sum to routed and match the round-robin shares.
[[nodiscard]] std::string check_member_shares(const std::vector<std::uint64_t>& received,
                                              const std::vector<std::uint64_t>& expected,
                                              std::uint64_t routed);

/// Every hybrid member switched OS at least once.
[[nodiscard]] std::string check_hybrid_switches(const std::vector<bool>& is_hybrid,
                                                const std::vector<std::uint64_t>& switches);

/// Two renderings that must be byte-identical: a forked suffix and the same
/// variant run cold (the snapshot/fork guarantee), ledgers across thread
/// counts, detector snapshots across detector paths, digests across rounds.
[[nodiscard]] std::string check_identical(const std::string& what, const std::string& a,
                                          const std::string& b);

// ---- serve-100k ------------------------------------------------------------

struct ServeTally {
    std::uint64_t requests = 0;       ///< reached the service
    std::uint64_t submits = 0;        ///< fleet: submissions sent
    std::uint64_t status_queries = 0; ///< fleet: job-status queries sent
    std::uint64_t checkqueues = 0;    ///< fleet: checkqueue queries sent
    std::uint64_t accepted = 0;       ///< submissions admitted
    std::uint64_t rejected = 0;       ///< requests refused, any reason
    std::uint64_t backend_submitted = 0;
    std::uint64_t backend_started = 0;
    std::uint64_t backend_queued = 0;  ///< still queued at the end
    double submit_p99_ms = 0;
    double cycle_ms = 0;
    double staleness_mean_s = 0;
    double poll_s = 0;
};

/// requests = submits + status + checkqueue; accepted + rejected = submits
/// with rejected = 0; started + still queued = submitted; submit p99 within
/// one service cycle; mean detector staleness within one poll interval.
[[nodiscard]] std::vector<std::string> check_serve(const ServeTally& t);

}  // namespace perfbench
