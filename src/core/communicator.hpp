// Head-node communicators (Fig 1 / Fig 11).
//
// The Fig 11 control loop:
//   1. the Windows communicator fetches its queue state on a fixed cycle
//      ("e.g. 10mins"),
//   2. sends it to the Linux communicator over a TCP socket,
//   3. the Linux daemon fetches the PBS queue state and decides "if
//      switching is required, and which operating system to be switched to,
//      as well as how many node to be switched",
//   4. sets the target-OS flag,
//   5. sends reboot orders to the Windows HPC or PBS scheduler.
//
// Wire format: the Fig 5 record. Positions 68+ are "[Undefined]" in the
// paper; we optionally use them for an idle-node-count extension
// ("I<nnnn>") so the decision policy can cap switches at the donor's idle
// capacity. With the extension off (paper-faithful mode) the Linux daemon
// simply submits as many switch jobs as the stuck job needs and lets the
// donor scheduler queue them — see DESIGN.md.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "cluster/network.hpp"
#include "core/controller.hpp"
#include "core/detector.hpp"
#include "core/policy.hpp"
#include "sim/engine.hpp"

namespace hc::cloud {
class CloudBackend;
}

namespace hc::core {

/// Encode a snapshot for the wire. When `extended`, the record is padded to
/// position 68 and "I%04dQ%04dR%04d" (idle nodes, queued jobs, running
/// jobs) is appended in the undefined region.
[[nodiscard]] std::string encode_wire(const QueueSnapshot& snap, bool extended);

struct WireDecode {
    QueueStateRecord record;
    std::optional<int> idle_nodes;  ///< present when the extension was sent
    std::optional<int> queued;
    std::optional<int> running;
};

[[nodiscard]] util::Result<WireDecode> decode_wire(const std::string& payload);

/// TCP port the Linux communicator listens on.
inline constexpr int kCommunicatorPort = 9989;

struct CommunicatorStats {
    std::uint64_t polls = 0;
    std::uint64_t records_sent = 0;
    std::uint64_t records_received = 0;
    std::uint64_t decode_failures = 0;
    std::uint64_t decisions_made = 0;
    std::uint64_t switches_ordered = 0;  ///< decisions with act() == true
    std::uint64_t bursts_ordered = 0;    ///< decisions with burst() == true
};

/// WINHEAD-side daemon: the fixed-cycle poller/sender (Fig 11 steps 1-2).
class WindowsCommunicator {
public:
    WindowsCommunicator(sim::Engine& engine, cluster::Network& network, std::string host,
                        std::string peer_host, Detector& detector, sim::Duration interval);

    /// Begin the polling cycle. First poll after `initial_delay`.
    void start(sim::Duration initial_delay = sim::seconds(1));
    void stop();
    [[nodiscard]] bool running() const { return task_.running(); }

    void set_extended_protocol(bool extended) { extended_ = extended; }
    void set_interval(sim::Duration interval) { task_.set_interval(interval); }

    /// One poll+send, callable directly for tests.
    void tick();

    [[nodiscard]] const CommunicatorStats& stats() const { return stats_; }

    /// World-snapshot hook: the polling task's pending event plus counters.
    struct SavedState {
        bool extended = true;
        sim::PeriodicTask::SavedState task;
        CommunicatorStats stats;
    };
    [[nodiscard]] SavedState save_state() const {
        return {extended_, task_.save_state(), stats_};
    }
    void restore_state(const SavedState& s) {
        extended_ = s.extended;
        task_.restore_state(s.task);
        stats_ = s.stats;
    }

private:
    sim::Engine& engine_;
    cluster::Network& network_;
    std::string host_;
    std::string peer_host_;
    Detector& detector_;
    bool extended_ = true;
    sim::PeriodicTask task_;
    CommunicatorStats stats_;
    obs::TrackId obs_track_{};  ///< "winhead/daemon" trace row
};

/// LINHEAD-side daemon: receives the Windows state, fetches the PBS state,
/// decides via the policy, and executes via the controller (steps 3-5).
///
/// Also carries a *staleness watchdog* (our hardening of the paper's design):
/// the Fig 11 loop is entirely driven by the Windows head's messages, so a
/// crashed WINHEAD would freeze all switching forever. With a watchdog
/// interval set, the daemon notices silence, logs it, and keeps making
/// Linux-side decisions against a conservative "windows state unknown"
/// snapshot (not stuck, no idle donors) so Linux-stuck recovery still works
/// for nodes parked in Windows.
class LinuxCommunicator {
public:
    LinuxCommunicator(sim::Engine& engine, cluster::Network& network, std::string host,
                      Detector& pbs_detector, SwitchPolicy& policy,
                      SwitchController& controller, int cores_per_node);
    ~LinuxCommunicator();

    /// Bind the listening socket.
    [[nodiscard]] util::Status start();
    void stop();

    /// Enable the watchdog: if no Windows record arrives within `timeout`,
    /// run decision cycles on local state alone every `timeout` until the
    /// peer speaks again. Call before start().
    void enable_watchdog(sim::Duration timeout);

    /// Handle one incoming Windows record (normally via the network).
    void on_windows_record(const std::string& payload);

    [[nodiscard]] const CommunicatorStats& stats() const { return stats_; }
    [[nodiscard]] const SwitchDecision& last_decision() const { return last_decision_; }
    [[nodiscard]] std::uint64_t watchdog_firings() const { return watchdog_firings_; }
    /// True while the peer is considered silent.
    [[nodiscard]] bool peer_stale() const { return peer_stale_; }

    /// Swap the decision policy. The forked E7 ablation runs the shared
    /// prefix under one policy, forks, then installs a different policy per
    /// suffix; the caller keeps the policy object alive.
    void set_policy(SwitchPolicy& policy) { policy_ = &policy; }
    [[nodiscard]] SwitchPolicy& policy() { return *policy_; }

    /// Wire the elastic cloud partition: fills SwitchContext::cloud before
    /// each decision and executes burst orders. Null (the default) keeps the
    /// paper's two-pool world — and the exact pre-cloud journal shape.
    void set_cloud(cloud::CloudBackend* cloud) { cloud_ = cloud; }

    /// World-snapshot hook: socket binding, watchdog arm state, counters and
    /// last decision. The policy object itself is snapshotted separately via
    /// save_blob().
    struct SavedState {
        bool bound = false;
        sim::EventId watchdog_event{};
        bool peer_stale = false;
        std::uint64_t watchdog_firings = 0;
        CommunicatorStats stats;
        SwitchDecision last_decision;
    };
    [[nodiscard]] SavedState save_state() const {
        return {bound_, watchdog_event_, peer_stale_, watchdog_firings_, stats_, last_decision_};
    }
    void restore_state(const SavedState& s);

private:
    void decide_and_act(const QueueSnapshot& windows_snap);
    [[nodiscard]] util::Status bind();
    void arm_watchdog();
    void on_watchdog();

    sim::Engine& engine_;
    cluster::Network& network_;
    std::string host_;
    Detector& pbs_detector_;
    SwitchPolicy* policy_;  ///< never null; swappable via set_policy()
    SwitchController& controller_;
    cloud::CloudBackend* cloud_ = nullptr;  ///< null = no elastic partition
    int cores_per_node_;
    bool bound_ = false;
    sim::Duration watchdog_timeout_{};  ///< 0 = disabled
    sim::EventId watchdog_event_{};
    bool peer_stale_ = false;
    std::uint64_t watchdog_firings_ = 0;
    CommunicatorStats stats_;
    SwitchDecision last_decision_;
    obs::TrackId obs_track_{};  ///< "linhead/daemon" trace row
    obs::Counter obs_decisions_;
    obs::Counter obs_watchdog_;
};

}  // namespace hc::core
