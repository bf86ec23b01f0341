#include "core/detector.hpp"

#include "util/strings.hpp"
#include "util/time_format.hpp"

namespace hc::core {

using util::Error;
using util::Result;

PbsDetector::PbsDetector(TextProvider qstat_f, TextProvider pbsnodes,
                         std::function<std::int64_t()> unix_clock)
    : qstat_f_(std::move(qstat_f)),
      pbsnodes_(std::move(pbsnodes)),
      unix_clock_(std::move(unix_clock)) {}

PbsDetector::PbsDetector(const pbs::PbsServer& server)
    : PbsDetector(
          [&server] { return server.qstat_f_output(); },
          [&server] { return server.pbsnodes_output(); },
          [&server] { return const_cast<pbs::PbsServer&>(server).engine().unix_now(); }) {}

PbsDetector::PbsDetector(const pbs::PbsServer& server, bool incremental)
    : PbsDetector(server) {
    if (incremental) doc_server_ = &server;
}

Result<PbsDetector::QstatParse> PbsDetector::parse_qstat_f(const std::string& text) {
    QstatParse parse;
    std::string current_id;
    char current_state = '?';
    std::string current_name;
    std::string current_owner;
    std::string current_nodes_spec;

    auto flush = [&]() -> util::Status {
        if (current_id.empty()) return util::Status::ok_status();
        if (current_state == 'R' || current_state == 'E') {
            ++parse.running;
            if (parse.first_running_id.empty()) {
                parse.first_running_id = current_id;
                parse.first_running_name = current_name;
                parse.first_running_owner = current_owner;
            }
        } else if (current_state == 'Q') {
            ++parse.queued;
            if (parse.first_queued_id.empty()) {
                parse.first_queued_id = current_id;
                auto rl = pbs::ResourceList::parse("nodes=" + current_nodes_spec);
                if (!rl)
                    return Error{"bad Resource_List.nodes for " + current_id + ": " +
                                 rl.error_message()};
                parse.first_queued_cpus = rl.value().total_cpus();
            }
        }
        current_id.clear();
        current_state = '?';
        current_name.clear();
        current_owner.clear();
        current_nodes_spec.clear();
        return util::Status::ok_status();
    };

    for (const std::string& raw : util::split_lines(text)) {
        const std::string line(util::trim(raw));
        if (line.rfind("Job Id:", 0) == 0) {
            if (auto st = flush(); !st.ok()) return st.error();
            current_id = std::string(util::trim(line.substr(7)));
            continue;
        }
        const auto eq = line.find(" = ");
        if (eq == std::string::npos) continue;
        const std::string key = line.substr(0, eq);
        const std::string value = line.substr(eq + 3);
        if (key == "job_state" && !value.empty()) current_state = value[0];
        else if (key == "Job_Name") current_name = value;
        else if (key == "Job_Owner") current_owner = value;
        else if (key == "Resource_List.nodes") current_nodes_spec = value;
    }
    if (auto st = flush(); !st.ok()) return st.error();
    return parse;
}

int PbsDetector::count_idle_nodes(const std::string& pbsnodes_text) {
    // A node block starts at a non-indented line (the hostname); it is an
    // idle candidate when "state = free" and no "jobs =" line appears.
    int idle = 0;
    bool in_block = false;
    bool is_free = false;
    bool has_jobs = false;
    auto close_block = [&] {
        if (in_block && is_free && !has_jobs) ++idle;
        is_free = false;
        has_jobs = false;
    };
    for (const std::string& raw : util::split_lines(pbsnodes_text)) {
        if (raw.empty()) continue;
        const bool indented = raw.front() == ' ' || raw.front() == '\t';
        if (!indented) {
            close_block();
            in_block = true;
            continue;
        }
        const std::string line(util::trim(raw));
        if (line == "state = free") is_free = true;
        if (line.rfind("jobs = ", 0) == 0) has_jobs = true;
    }
    close_block();
    return idle;
}

QueueSnapshot PbsDetector::check() {
    ++poll_stats_.polls;
    // Text faults mangle a whole scraped string, so they force the
    // whole-string path; the streaming mode has nothing to mangle.
    if (doc_server_ != nullptr && !text_fault_) return check_incremental();
    return check_full_text();
}

QueueSnapshot PbsDetector::check_full_text() {
    std::string qstat = qstat_f_();
    if (text_fault_) qstat = text_fault_(std::move(qstat));
    return snapshot_from_parse(parse_qstat_f(qstat), count_idle_nodes(pbsnodes_()));
}

PbsDetector::JobStanza PbsDetector::parse_job_stanza(const std::string& text) {
    JobStanza s;
    for (const std::string& raw : util::split_lines(text)) {
        const std::string line(util::trim(raw));
        if (line.rfind("Job Id:", 0) == 0) {
            s.id = std::string(util::trim(line.substr(7)));
            continue;
        }
        const auto eq = line.find(" = ");
        if (eq == std::string::npos) continue;
        const std::string key = line.substr(0, eq);
        const std::string value = line.substr(eq + 3);
        if (key == "job_state" && !value.empty()) s.state = value[0];
        else if (key == "Job_Name") s.name = value;
        else if (key == "Job_Owner") s.owner = value;
        else if (key == "Resource_List.nodes") s.nodes_spec = value;
    }
    return s;
}

void PbsDetector::apply_job_chunk(std::uint64_t key, const util::TextDocument::Chunk* chunk) {
    if (chunk == nullptr) {  // stanza removed: job left the listing
        queued_keys_.erase(key);
        running_keys_.erase(key);
        job_stanzas_.erase(key);
        return;
    }
    JobStanza s = parse_job_stanza(chunk->text);
    ++poll_stats_.stanza_parses;
    queued_keys_.erase(key);
    running_keys_.erase(key);
    if (s.state == 'Q') queued_keys_.insert(key);
    if (s.state == 'R' || s.state == 'E') running_keys_.insert(key);
    job_stanzas_[key] = std::move(s);
}

void PbsDetector::apply_node_chunk(std::uint64_t key, const util::TextDocument::Chunk* chunk) {
    if (chunk == nullptr) {
        if (auto it = node_idle_.find(key); it != node_idle_.end()) {
            idle_count_ -= it->second ? 1 : 0;
            node_idle_.erase(it);
        }
        return;
    }
    const bool idle = count_idle_nodes(chunk->text) > 0;
    ++poll_stats_.stanza_parses;
    auto [it, inserted] = node_idle_.try_emplace(key, false);
    idle_count_ += (idle ? 1 : 0) - (it->second ? 1 : 0);
    it->second = idle;
}

QueueSnapshot PbsDetector::check_incremental() {
    const util::TextDocument& qdoc = doc_server_->qstat_f_document();
    const util::TextDocument& ndoc = doc_server_->pbsnodes_document();
    if (doc_synced_ && qdoc.changed_since(qstat_doc_version_, changed_buf_)) {
        for (std::uint64_t key : changed_buf_) apply_job_chunk(key, qdoc.find(key));
    } else {
        // First poll, or the journal was trimmed past us: walk everything.
        ++poll_stats_.resyncs;
        job_stanzas_.clear();
        queued_keys_.clear();
        running_keys_.clear();
        for (const auto& [key, chunk] : qdoc.chunks()) apply_job_chunk(key, &chunk);
    }
    qstat_doc_version_ = qdoc.version();
    if (doc_synced_ && ndoc.changed_since(nodes_doc_version_, changed_buf_)) {
        for (std::uint64_t key : changed_buf_) apply_node_chunk(key, ndoc.find(key));
    } else {
        ++poll_stats_.resyncs;
        node_idle_.clear();
        idle_count_ = 0;
        for (const auto& [key, chunk] : ndoc.chunks()) apply_node_chunk(key, &chunk);
    }
    nodes_doc_version_ = ndoc.version();
    doc_synced_ = true;

    // Rebuild the same QstatParse the whole-string parser would produce:
    // document order is seq order, so the smallest queued/running key is the
    // first stanza of that state in the assembled text.
    QstatParse p;
    p.running = static_cast<int>(running_keys_.size());
    p.queued = static_cast<int>(queued_keys_.size());
    if (!queued_keys_.empty()) {
        const JobStanza& s = job_stanzas_[*queued_keys_.begin()];
        p.first_queued_id = s.id;
        auto rl = pbs::ResourceList::parse("nodes=" + s.nodes_spec);
        if (!rl) {
            return snapshot_from_parse(
                Error{"bad Resource_List.nodes for " + s.id + ": " + rl.error_message()},
                idle_count_);
        }
        p.first_queued_cpus = rl.value().total_cpus();
    }
    if (!running_keys_.empty()) {
        const JobStanza& s = job_stanzas_[*running_keys_.begin()];
        p.first_running_id = s.id;
        p.first_running_name = s.name;
        p.first_running_owner = s.owner;
    }
    return snapshot_from_parse(p, idle_count_);
}

QueueSnapshot PbsDetector::snapshot_from_parse(const util::Result<QstatParse>& parsed,
                                               int idle_nodes) {
    QueueSnapshot snap;
    snap.checked_unix = unix_clock_ ? unix_clock_() : -1;
    if (!parsed) {
        // A scrape failure reads as "other state" — the daemon must never
        // crash on odd scheduler output; it just reports not-stuck.
        snap.debug_text = "parse error: " + parsed.error_message() + "\n";
        snap.record = QueueStateRecord{};
        return snap;
    }
    const QstatParse& p = parsed.value();
    snap.running = p.running;
    snap.queued = p.queued;
    snap.idle_nodes = idle_nodes;
    snap.record.stuck = p.running == 0 && p.queued > 0;
    if (snap.record.stuck) {
        snap.record.needed_cpus = p.first_queued_cpus;
        snap.record.stuck_job_id = p.first_queued_id;
    }

    // Reproduce the Fig 6 presentation: wire record first, then the debug
    // block (including the paper's "Job_Ownner" spelling).
    snap.debug_text = snap.record.encode() + "\n";
    if (snap.record.stuck) {
        snap.debug_text += "Queue stuck\n";
        snap.debug_text +=
            "R=" + std::to_string(p.running) + " nR=" + std::to_string(p.queued) + "\n";
    } else if (p.running > 0 && p.queued == 0) {
        snap.debug_text += "Job running, no queuing.\n";
        snap.debug_text +=
            "R=" + std::to_string(p.running) + " nR=" + std::to_string(p.queued) + "\n";
        snap.debug_text += p.first_running_id + "\n";
        snap.debug_text += "    Job_Name=" + p.first_running_name + "\n";
        snap.debug_text += "    Job_Ownner=" + p.first_running_owner + "\n";
        snap.debug_text += "    state=R\n";
        snap.debug_text += "    time=" + util::format_detector_time(unix_clock_()) + "\n";
    } else {
        snap.debug_text += "Other state\n";
        snap.debug_text +=
            "R=" + std::to_string(p.running) + " nR=" + std::to_string(p.queued) + "\n";
    }
    return snap;
}

WinHpcDetector::WinHpcDetector(const winhpc::HpcScheduler& scheduler, int cores_per_node)
    : scheduler_(scheduler), cores_per_node_(cores_per_node) {}

QueueSnapshot WinHpcDetector::check() {
    QueueSnapshot snap;
    snap.checked_unix =
        const_cast<winhpc::HpcScheduler&>(scheduler_).engine().unix_now();
    snap.running = scheduler_.running_job_count();
    snap.queued = scheduler_.queued_job_count();
    snap.idle_nodes = scheduler_.fully_idle_count();
    snap.record.stuck = snap.running == 0 && snap.queued > 0;
    if (snap.record.stuck) {
        const winhpc::HpcJob* first = scheduler_.first_queued_job();
        if (first != nullptr) {
            snap.record.needed_cpus = first->needed_cpus(cores_per_node_);
            // Windows job ids are ints; frame them like the PBS side so the
            // wire format stays uniform.
            snap.record.stuck_job_id = std::to_string(first->id) + ".winhpc";
        } else {
            snap.record.stuck = false;  // raced a start; report calm state
        }
    }
    snap.debug_text = snap.record.encode() + "\n" +
                      (snap.record.stuck ? "Queue stuck\n" : "Other state\n") +
                      "R=" + std::to_string(snap.running) + " nR=" + std::to_string(snap.queued) +
                      "\n";
    return snap;
}

}  // namespace hc::core
