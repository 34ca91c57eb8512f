/// \file main.cpp
/// \brief perfbench: the repository benchmark's driver binary.
///
///   perfbench --workload W --seed S --seconds T --trace 0|1
///             [--spans PATH] [--small] [--corrupt mask|digest]
///
/// Workloads: generic-1e6, flood-1e6, faulted-1e5, paper-campaign.  The
/// last stdout line is one JSON object {correct, attempted, failed,
/// metrics}: the end-to-end metrics with --trace 0, the per-layer metrics
/// with --trace 1.  --small shrinks every input (self-tests), --corrupt
/// breaks one result on purpose so the correctness gate must fire.  Exit
/// status: 0 when every check passed, 1 when one failed, 2 on bad usage.
#include <cstdio>
#include <exception>
#include <iostream>
#include <string>

#include "harness.hpp"
#include "io/cli.hpp"

namespace {

int usage(const std::string& why) {
    std::cerr << "perfbench: " << why << "\n"
              << "usage: perfbench --workload generic-1e6|flood-1e6|faulted-1e5|paper-campaign"
                 " --seed S --seconds T --trace 0|1 [--spans PATH] [--small]"
                 " [--corrupt mask|digest]\n";
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    using namespace perfbench;
    Options opts;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--small") {
            opts.small = true;
            continue;
        }
        if (i + 1 >= argc) return usage("missing value for " + arg);
        const std::string value = argv[++i];
        if (arg == "--workload") {
            opts.workload = value;
        } else if (arg == "--seed") {
            const auto seed = adhoc::io::parse_u64(value);
            if (!seed) return usage("invalid --seed " + value);
            opts.seed = *seed;
        } else if (arg == "--seconds") {
            const auto seconds = adhoc::io::parse_double(value);
            if (!seconds || *seconds <= 0.0) return usage("invalid --seconds " + value);
            opts.seconds = *seconds;
        } else if (arg == "--trace") {
            if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
            opts.trace = value == "1";
        } else if (arg == "--spans") {
            opts.spans_path = value;
        } else if (arg == "--corrupt") {
            if (value != "mask" && value != "digest") return usage("--corrupt takes mask|digest");
            opts.corrupt = value;
        } else {
            return usage("unknown argument " + arg);
        }
    }
    if (opts.workload.empty()) return usage("--workload is required");

    SpanRecorder spans;
    spans.set_enabled(opts.trace);
    Report report;
    try {
        if (!opts.trace && opts.workload == "paper-campaign") {
            run_campaign_workload(opts, spans, report);
        } else if (!run_scale_workload(opts, spans, report)) {
            return usage("unknown workload " + opts.workload);
        }
    } catch (const std::exception& e) {
        std::cerr << "perfbench: " << e.what() << '\n';
        return 2;
    }

    if (opts.trace) {
        std::printf("self time per layer (%zu spans):\n", spans.size());
        for (const auto& [layer, secs] : spans.self_seconds_by_layer()) {
            std::printf("  %-12s %12.6f s\n", layer.c_str(), secs);
        }
        if (!opts.spans_path.empty()) {
            report.gate.check(spans.write_jsonl(opts.spans_path), "spans written");
        }
    }
    return print_report(opts, report);
}
