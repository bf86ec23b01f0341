#include "core/communicator.hpp"

#include <cstdio>

#include "cloud/cloud.hpp"
#include "util/errors.hpp"
#include "util/strings.hpp"

namespace hc::core {

using util::Error;
using util::Result;
using util::Status;

std::string encode_wire(const QueueSnapshot& snap, bool extended) {
    std::string wire = snap.record.encode();
    if (!extended) return wire;
    wire = util::pad_right(wire, 5 + kJobIdFieldWidth);  // through position 67
    char ext[24];
    std::snprintf(ext, sizeof ext, "I%04dQ%04dR%04d", snap.idle_nodes, snap.queued,
                  snap.running);
    return wire + ext;
}

Result<WireDecode> decode_wire(const std::string& payload) {
    WireDecode out;
    auto record = QueueStateRecord::decode(payload);
    if (!record) return record.error();
    out.record = record.value();
    const std::size_t ext = 5 + kJobIdFieldWidth;
    auto field = [&](std::size_t offset, char tag) -> std::optional<int> {
        if (payload.size() < offset + 5 || payload[offset] != tag) return std::nullopt;
        const long long v = util::parse_uint(payload.substr(offset + 1, 4));
        if (v < 0) return std::nullopt;
        return static_cast<int>(v);
    };
    out.idle_nodes = field(ext, 'I');
    out.queued = field(ext + 5, 'Q');
    out.running = field(ext + 10, 'R');
    return out;
}

WindowsCommunicator::WindowsCommunicator(sim::Engine& engine, cluster::Network& network,
                                         std::string host, std::string peer_host,
                                         Detector& detector, sim::Duration interval)
    : engine_(engine),
      network_(network),
      host_(std::move(host)),
      peer_host_(std::move(peer_host)),
      detector_(detector),
      task_(engine, interval, [this] { tick(); }) {
    obs_track_ = engine_.obs().tracer().track("winhead/daemon");
}

void WindowsCommunicator::start(sim::Duration initial_delay) { task_.start(initial_delay); }

void WindowsCommunicator::stop() { task_.stop(); }

void WindowsCommunicator::tick() {
    ++stats_.polls;
    obs::Tracer::Span poll = engine_.obs().tracer().span(obs_track_, "poll");
    const QueueSnapshot snap = detector_.check();
    poll.arg("stuck", snap.record.stuck ? 1 : 0);
    poll.arg("queued", snap.queued);
    obs::Journal& journal = engine_.obs().journal();
    if (journal.enabled())
        journal.event("detector")
            .str("side", "windows")
            .flag("stuck", snap.record.stuck)
            .num("needed_cpus", snap.record.needed_cpus)
            .str("stuck_job", snap.record.stuck_job_id)
            .num("queued", snap.queued)
            .num("running", snap.running)
            .num("idle_nodes", snap.idle_nodes);
    const std::string payload = encode_wire(snap, extended_);
    engine_.logger().debug("WINHEAD/communicator",
                           "send queue state: " + snap.record.encode());
    network_.send(host_, kCommunicatorPort, peer_host_, kCommunicatorPort, payload);
    ++stats_.records_sent;
}

LinuxCommunicator::LinuxCommunicator(sim::Engine& engine, cluster::Network& network,
                                     std::string host, Detector& pbs_detector,
                                     SwitchPolicy& policy, SwitchController& controller,
                                     int cores_per_node)
    : engine_(engine),
      network_(network),
      host_(std::move(host)),
      pbs_detector_(pbs_detector),
      policy_(&policy),
      controller_(controller),
      cores_per_node_(cores_per_node) {
    obs::Hub& hub = engine_.obs();
    obs_track_ = hub.tracer().track("linhead/daemon");
    obs_decisions_ = hub.metrics().counter("core.decisions");
    obs_watchdog_ = hub.metrics().counter("core.watchdog_firings");
}

LinuxCommunicator::~LinuxCommunicator() { stop(); }

Status LinuxCommunicator::bind() {
    auto status = network_.bind(host_, kCommunicatorPort,
                                [this](const cluster::Message& msg) {
                                    on_windows_record(msg.payload);
                                });
    bound_ = status.ok();
    return status;
}

Status LinuxCommunicator::start() {
    if (bound_) return Status::ok_status();
    auto status = bind();
    if (status.ok()) arm_watchdog();
    return status;
}

void LinuxCommunicator::restore_state(const SavedState& s) {
    // A snapshot taken while the Linux head was down must come back down (and
    // the other way round). Only the socket moves here: the watchdog's event
    // came back with the engine calendar, so it must not be re-armed.
    if (s.bound && !bound_) {
        auto status = bind();
        util::ensure(status.ok(), "LinuxCommunicator: rebind on restore failed: " +
                                      status.error_message());
    } else if (!s.bound && bound_) {
        network_.unbind(host_, kCommunicatorPort);
        bound_ = false;
    }
    watchdog_event_ = s.watchdog_event;
    peer_stale_ = s.peer_stale;
    watchdog_firings_ = s.watchdog_firings;
    stats_ = s.stats;
    last_decision_ = s.last_decision;
}

void LinuxCommunicator::stop() {
    if (!bound_) return;
    network_.unbind(host_, kCommunicatorPort);
    engine_.cancel(watchdog_event_);
    watchdog_event_ = sim::EventId{};
    bound_ = false;
}

void LinuxCommunicator::enable_watchdog(sim::Duration timeout) {
    util::require(timeout.ms > 0, "enable_watchdog: timeout must be positive");
    watchdog_timeout_ = timeout;
    if (bound_) arm_watchdog();
}

void LinuxCommunicator::arm_watchdog() {
    if (watchdog_timeout_.ms <= 0) return;
    engine_.cancel(watchdog_event_);
    watchdog_event_ = engine_.schedule_after(watchdog_timeout_, [this] { on_watchdog(); });
}

void LinuxCommunicator::on_watchdog() {
    ++watchdog_firings_;
    obs_watchdog_.inc();
    obs::Journal& journal = engine_.obs().journal();
    if (journal.enabled())
        journal.event("watchdog")
            .num("timeout_ms", watchdog_timeout_.ms)
            .flag("was_stale", peer_stale_);
    engine_.obs().tracer().instant(obs_track_, "watchdog");
    if (!peer_stale_) {
        peer_stale_ = true;
        engine_.logger().warn("LINHEAD/communicator",
                              "no queue state from WINHEAD for " +
                                  sim::to_string(watchdog_timeout_) +
                                  "; deciding on local state only");
    }
    // Conservative unknown-peer snapshot: the Windows side is assumed alive
    // but unhelpful (not stuck — we must not steal its nodes blindly) while
    // still allowing it to act as a donor of *parked* capacity: nodes this
    // cluster sees running Windows and the WinHPC scheduler would list idle
    // are unknowable here, so idle_nodes falls back to the optimistic bound
    // the way the non-extended protocol does.
    QueueSnapshot unknown;
    unknown.idle_nodes = 0;
    decide_and_act(unknown);
    arm_watchdog();
}

void LinuxCommunicator::on_windows_record(const std::string& payload) {
    ++stats_.records_received;
    if (peer_stale_) {
        peer_stale_ = false;
        engine_.logger().info("LINHEAD/communicator", "WINHEAD is talking again");
    }
    arm_watchdog();
    auto decoded = decode_wire(payload);
    if (!decoded) {
        ++stats_.decode_failures;
        engine_.logger().warn("LINHEAD/communicator",
                              "undecodable record: " + decoded.error_message());
        obs::Journal& journal = engine_.obs().journal();
        if (journal.enabled())
            journal.event("record.decode_failure").str("error", decoded.error_message());
        return;
    }
    QueueSnapshot windows_snap;
    windows_snap.record = decoded.value().record;
    windows_snap.idle_nodes = decoded.value().idle_nodes.value_or(-1);  // -1 = unknown
    windows_snap.queued =
        decoded.value().queued.value_or(decoded.value().record.stuck ? 1 : 0);
    windows_snap.running = decoded.value().running.value_or(0);
    decide_and_act(windows_snap);
}

void LinuxCommunicator::decide_and_act(const QueueSnapshot& windows_snap) {
    // Step 3: fetch the local PBS state.
    ++stats_.polls;
    obs::Tracer::Span decide_span = engine_.obs().tracer().span(obs_track_, "decide");
    SwitchContext ctx;
    ctx.linux_snap = pbs_detector_.check();
    ctx.windows_snap = windows_snap;
    // Without the idle extension the donor's idle capacity is unknown; use
    // the stuck job's own need as the optimistic bound (the donor scheduler
    // will queue any excess switch jobs until nodes free up).
    if (ctx.windows_snap.idle_nodes < 0)
        ctx.windows_snap.idle_nodes =
            nodes_for_cpus(ctx.linux_snap.record.needed_cpus, cores_per_node_);
    ctx.cores_per_node = cores_per_node_;
    ctx.now_unix = engine_.unix_now();
    if (cloud_ != nullptr) {
        ctx.cloud.enabled = true;
        ctx.cloud.idle = cloud_->idle_count();
        ctx.cloud.provisioning = cloud_->provisioning_count();
        ctx.cloud.available_burst = cloud_->available_burst();
        ctx.cloud.burst_latency_s = cloud_->expected_burst_latency_s();
    }

    // Step 4: decide.
    ++stats_.decisions_made;
    obs_decisions_.inc();
    last_decision_ = policy_->decide(ctx);
    obs::Journal& journal = engine_.obs().journal();
    if (journal.enabled()) {
        journal.event("detector")
            .str("side", "linux")
            .flag("stuck", ctx.linux_snap.record.stuck)
            .num("needed_cpus", ctx.linux_snap.record.needed_cpus)
            .str("stuck_job", ctx.linux_snap.record.stuck_job_id)
            .num("queued", ctx.linux_snap.queued)
            .num("running", ctx.linux_snap.running)
            .num("idle_nodes", ctx.linux_snap.idle_nodes);
        // The decision is journalled whether or not it acts: the reason
        // string carries the *why not* (cooldown, no idle donors, ...).
        obs::Journal::Record decision_event = journal.event("decision");
        decision_event.flag("act", last_decision_.act())
            .str("target", os_name(last_decision_.target))
            .num("nodes", last_decision_.node_count)
            .str("reason", last_decision_.reason);
        // Burst fields ride along only in cloud-armed worlds so the
        // pre-cloud journal goldens stay byte-identical.
        if (cloud_ != nullptr)
            decision_event.flag("burst", last_decision_.burst())
                .num("burst_nodes", last_decision_.burst_count)
                .num("cloud_available", ctx.cloud.available_burst)
                .num("cloud_provisioning", ctx.cloud.provisioning);
    }
    decide_span.arg("act", last_decision_.act() ? 1 : 0);
    engine_.logger().debug("LINHEAD/communicator",
                           "decision: " + (last_decision_.act()
                                               ? std::to_string(last_decision_.node_count) +
                                                     " -> " + os_name(last_decision_.target)
                                               : std::string("none")) +
                               " (" + last_decision_.reason + ")");
    // Step 5b: provision cloud capacity when the policy asked to burst.
    if (cloud_ != nullptr && last_decision_.burst()) {
        ++stats_.bursts_ordered;
        (void)cloud_->request_burst(last_decision_.target, last_decision_.burst_count);
    }
    if (!last_decision_.act()) return;

    // Step 5: send the reboot orders via the controller.
    ++stats_.switches_ordered;
    auto status = controller_.execute(last_decision_);
    if (!status.ok())
        engine_.logger().error("LINHEAD/communicator",
                               "switch execution failed: " + status.error_message());
}

}  // namespace hc::core
