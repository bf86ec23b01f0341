// perfbench: run one benchmark workload and print its metrics.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--spans-out PATH]
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 the
// per-layer metrics, from spans the benchmark records around its calls into
// the simulator and from the layers' public counters. The last line of
// standard output is one JSON object: correct, attempted, failed, metrics.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "harness.hpp"

namespace {

using namespace perfbench;

int usage(const char* why) {
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload eridani-campaign|campus-federation|"
                 "serve-100k --seed N --seconds S --trace 0|1 [--spans-out PATH]\n",
                 why);
    return 2;
}

bool parse_number(const char* text, double& out) {
    char* end = nullptr;
    out = std::strtod(text, &end);
    return end != text && *end == '\0' && std::isfinite(out);
}

}  // namespace

int main(int argc, char** argv) {
    RunOptions options;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc) return usage(("missing value after " + flag).c_str());
        const char* value = argv[++i];
        double number = 0;
        if (flag == "--workload") {
            options.workload = value;
            have_workload = true;
        } else if (flag == "--seed") {
            char* end = nullptr;
            options.seed = std::strtoull(value, &end, 10);
            if (value[0] < '0' || value[0] > '9' || *end != '\0')
                return usage("--seed must be a non-negative whole number");
        } else if (flag == "--seconds") {
            if (!parse_number(value, number) || number <= 0 || number > 600)
                return usage("--seconds must be in (0, 600]");
            options.seconds = number;
        } else if (flag == "--trace") {
            if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0)
                return usage("--trace must be 0 or 1");
            options.trace = value[0] == '1';
        } else if (flag == "--spans-out") {
            options.spans_out = value;
        } else {
            return usage(("unknown flag " + flag).c_str());
        }
    }
    if (!have_workload) return usage("--workload is required");

    SpanLog spans;
    RunReport report;
    try {
        if (options.workload == "eridani-campaign") {
            report = run_eridani_campaign(options, spans);
        } else if (options.workload == "campus-federation") {
            report = run_campus_federation(options, spans);
        } else if (options.workload == "serve-100k") {
            report = run_serve_100k(options, spans);
        } else {
            return usage(("unknown workload " + options.workload).c_str());
        }
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s failed: %s\n", options.workload.c_str(), e.what());
        return 1;
    }

    std::printf("perfbench %s seed=%llu seconds=%g trace=%d rounds=%d\n",
                options.workload.c_str(), static_cast<unsigned long long>(options.seed),
                options.seconds, options.trace ? 1 : 0, report.rounds);
    for (const std::string& note : report.notes) std::printf("note %s\n", note.c_str());
    std::printf("digest %s\n", report.digest.c_str());
    std::printf("operations attempted=%llu failed=%llu\n",
                static_cast<unsigned long long>(report.attempted),
                static_cast<unsigned long long>(report.failed));

    const std::vector<MetricDef>& defs = options.trace ? kPerLayer : kEndToEnd;
    std::string json;
    for (const MetricDef& def : defs) {
        double value = report.metrics.median_of(def.name);
        if (!std::isfinite(value)) {
            report.failures.push_back(std::string("metric ") + def.name + " is not finite");
            value = 0;
        }
        std::printf("metric %-24s %.6g %s\n", def.name, value, def.unit);
        char item[256];
        std::snprintf(item, sizeof item, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      json.empty() ? "" : ", ", def.name, value, def.unit);
        json += item;
    }
    if (options.trace) {
        for (const auto& [name, t] : spans.totals())
            std::printf("span %-20s count %zu total %.6f s self %.6f s\n", name.c_str(), t.count,
                        t.total_s, t.self_s);
        if (!options.spans_out.empty() && !spans.write(options.spans_out))
            std::fprintf(stderr, "perfbench: cannot write spans to %s\n",
                         options.spans_out.c_str());
    }
    for (const std::string& failure : report.failures)
        std::printf("check FAILED: %s\n", failure.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
                report.failures.empty() ? "true" : "false",
                static_cast<unsigned long long>(report.attempted),
                static_cast<unsigned long long>(report.failed), json.c_str());
    return 0;
}
