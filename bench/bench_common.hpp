/// \file bench_common.hpp
/// \brief Shared scaffolding for the figure registry and the robustness
/// benches.
///
/// bench_campaign's registry runs the paper's sweeps (n = 20..100,
/// d ∈ {6, 18}) and bespoke report loops and prints paper-style tables;
/// bench_resilience and bench_saturation share the option parser.
/// Command line:
///   --runs N     cap repetitions per cell (default 200)
///   --full       run until the paper's CI rule (90% CI within ±1%) or 2000
///   --seed S     change the base seed
///   --jobs N     shard runs over N worker threads (0 = all hardware
///                threads).  Results are bit-for-bit identical at any
///                value; only wall-clock time changes.
///   --json PATH  mirror results into a machine-readable BENCH JSON file
///                (schema adhoc-bench-v1, see runner/json_sink.hpp)
///   --csv        additionally emit CSV blocks
///   --gnuplot P  write gnuplot-ready data files P_<panel>.dat
///   --progress   progress/ETA line per panel on stderr
/// bench_campaign reads --json and --gnuplot as directories and derives
/// one PATH / P per figure from them.  An unknown flag, a flag missing its
/// value or a value that does not parse exits 2 with a usage message;
/// each binary names the flags it adds to `parse_options`.
///
/// Each figure runs in one `Bench` session, which runs its panels and
/// whose `finish()` gives the exit status: the session aggregates delivery
/// failures across panels (deterministic schemes must never fail delivery
/// — a nonzero count makes the process exit nonzero), tracks wall time,
/// and writes the JSON sink.

#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <initializer_list>
#include <iostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "algorithms/algorithm.hpp"
#include "faults/fault_plan.hpp"
#include "faults/outcome.hpp"
#include "graph/unit_disk.hpp"
#include "io/cli.hpp"
#include "runner/campaign.hpp"
#include "runner/json_sink.hpp"
#include "runner/progress.hpp"
#include "stats/experiment.hpp"
#include "stats/table.hpp"
#include "telemetry/sinks.hpp"
#include "telemetry/telemetry.hpp"

namespace adhoc::bench {

/// Outcome-class tally shared by the robustness benches (bench_resilience
/// and bench_scale's --resilience panel): counts of runs per
/// delivered/degraded/partitioned class, printed as the "D/g/p" split.
struct OutcomeMix {
    std::size_t delivered = 0;
    std::size_t degraded = 0;
    std::size_t partitioned = 0;

    void add(faults::DeliveryOutcome outcome) {
        switch (outcome) {
            case faults::DeliveryOutcome::kDelivered: ++delivered; break;
            case faults::DeliveryOutcome::kDegraded: ++degraded; break;
            case faults::DeliveryOutcome::kPartitioned: ++partitioned; break;
        }
    }

    [[nodiscard]] std::string split() const {
        return std::to_string(delivered) + '/' + std::to_string(degraded) + '/' +
               std::to_string(partitioned);
    }
};

/// One-line human summary of a fault plan for bench cell headers:
/// "<crashes> crashes (<recovers> recover), <flaps> link flaps, <asym>
/// asym links".  Sections with zero entries are omitted; an empty plan
/// reads "fault-free".
inline std::string fault_plan_summary(const faults::FaultPlan& plan) {
    std::size_t crashes = 0;
    std::size_t recovers = 0;
    std::size_t flaps = 0;
    for (const faults::FaultEvent& e : plan.events) {
        switch (e.kind) {
            case faults::FaultKind::kNodeCrash: ++crashes; break;
            case faults::FaultKind::kNodeRecover: ++recovers; break;
            case faults::FaultKind::kLinkDown: ++flaps; break;
            case faults::FaultKind::kLinkUp: break;  // counted by their kLinkDown
        }
    }
    std::string out;
    const auto append = [&out](const std::string& part) {
        if (!out.empty()) out += ", ";
        out += part;
    };
    if (crashes > 0) {
        append(std::to_string(crashes) + " crashes (" + std::to_string(recovers) +
               " recover)");
    }
    if (flaps > 0) append(std::to_string(flaps) + " link flaps");
    if (!plan.asymmetry.empty()) {
        append(std::to_string(plan.asymmetry.size()) + " asym links");
    }
    if (!plan.hello_bursts.empty()) {
        append(std::to_string(plan.hello_bursts.size()) + " hello bursts");
    }
    return out.empty() ? "fault-free" : out;
}

struct BenchOptions {
    std::size_t max_runs = 200;
    std::size_t min_runs = 30;
    std::uint64_t seed = 42;
    std::size_t jobs = 1;        ///< 0 = all hardware threads
    bool csv = false;
    bool progress = false;       ///< progress/ETA on stderr
    std::string gnuplot_prefix;  ///< empty = no data files
    std::string json_path;       ///< empty = no JSON sink
};

/// The one failure path for bad command-line input in the bench binaries:
/// prints `what` with a pointer to --help and exits 2.
[[noreturn]] inline void usage_error(const std::string& what) {
    std::cerr << what << " (usage: --help)\n";
    std::exit(2);
}

/// The value after flag `argv[i]` (advancing `i`); a usage error when the
/// flag is the last argument.
inline const char* flag_value(int argc, char** argv, int& i) {
    if (i + 1 >= argc) usage_error(std::string("missing value for ") + argv[i]);
    return argv[++i];
}

/// `text`, the value of `flag`, parsed in full by an io/cli.hpp parser
/// (`io::parse_size`, `io::parse_u64`); a usage error when it does not parse.
template <typename Parse>
auto parse_flag(const std::string& flag, const char* text, Parse parse) {
    const auto value = parse(text);
    if (!value) usage_error("invalid value for " + flag + ": '" + text + "'");
    return *value;
}

/// Parses the shared flags.  `own_switches` (standalone) and `own_valued`
/// (followed by a value) name the flags the calling binary parses itself;
/// they are skipped, and any other flag is a usage error.
inline BenchOptions parse_options(int argc, char** argv,
                                  std::initializer_list<std::string_view> own_switches = {},
                                  std::initializer_list<std::string_view> own_valued = {}) {
    BenchOptions opts;
    // Numeric values must parse in full (io/cli.hpp), and an unknown flag
    // or a missing value is a usage error: a typo must not run the sweep
    // with a default in its place.
    const auto is_one_of = [](std::initializer_list<std::string_view> flags,
                              const std::string& arg) {
        return std::find(flags.begin(), flags.end(), arg) != flags.end();
    };
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--runs") {
            opts.max_runs = parse_flag(arg, flag_value(argc, argv, i), io::parse_size);
        } else if (arg == "--full") {
            opts.max_runs = 2000;
        } else if (arg == "--seed") {
            opts.seed = parse_flag(arg, flag_value(argc, argv, i), io::parse_u64);
        } else if (arg == "--jobs") {
            opts.jobs = parse_flag(arg, flag_value(argc, argv, i), io::parse_size);
        } else if (arg == "--json") {
            opts.json_path = flag_value(argc, argv, i);
        } else if (arg == "--csv") {
            opts.csv = true;
        } else if (arg == "--progress") {
            opts.progress = true;
        } else if (arg == "--gnuplot") {
            opts.gnuplot_prefix = flag_value(argc, argv, i);
        } else if (arg == "--help") {
            std::cout << "options: --runs N | --full | --seed S | --jobs N | --json PATH | "
                         "--csv | --gnuplot PREFIX | --progress";
            for (const std::string_view flag : own_switches) std::cout << " | " << flag;
            for (const std::string_view flag : own_valued) std::cout << " | " << flag << " V";
            std::cout << '\n';
            std::exit(0);
        } else if (is_one_of(own_valued, arg)) {
            flag_value(argc, argv, i);
        } else if (!is_one_of(own_switches, arg)) {
            usage_error("unknown option: " + arg);
        }
    }
    return opts;
}

inline ExperimentConfig sweep_config(const BenchOptions& opts, double degree) {
    ExperimentConfig cfg;
    cfg.average_degree = degree;
    cfg.min_runs = opts.min_runs;
    cfg.max_runs = opts.max_runs;
    cfg.seed = opts.seed;
    cfg.jobs = opts.jobs;
    return cfg;
}

/// Network size of the bespoke report loops' shared sample.
inline constexpr std::size_t kSampleNodes = 80;

/// The bespoke report loops' sample: `runs` broadcasts of `algo`, each on
/// a fresh connected n=80, d=6 network from a random source, all drawn
/// from one `Rng(seed)` stream.  `visit` sees every result in order.
template <typename Visit>
void for_each_sample_broadcast(const BroadcastAlgorithm& algo, std::uint64_t seed,
                               std::size_t runs, Visit&& visit) {
    UnitDiskParams params;
    params.node_count = kSampleNodes;
    params.average_degree = 6.0;
    Rng gen(seed);
    for (std::size_t i = 0; i < runs; ++i) {
        const auto net = generate_network_checked(params, gen);
        Rng run = gen.fork();
        visit(algo.broadcast(net.graph, static_cast<NodeId>(run.index(kSampleNodes)), run));
    }
}

/// One bench invocation: runs panels, collects them for the JSON sink, and
/// turns delivery failures into a nonzero exit status.
class Bench {
  public:
    Bench(std::string name, BenchOptions opts)
        : name_(std::move(name)),
          opts_(std::move(opts)),
          start_(std::chrono::steady_clock::now()) {}

    /// Runs one panel (one density) and prints the table (plus CSV if asked).
    void run_panel(const std::string& title,
                   const std::vector<const BroadcastAlgorithm*>& algorithms, double degree) {
        runner::CampaignOptions campaign;
        campaign.jobs = opts_.jobs;
        telemetry::Snapshot panel_metrics;
        if (telemetry::enabled()) campaign.telemetry_out = &panel_metrics;
        runner::ProgressMeter meter(std::cerr, name_ + " " + title);
        if (opts_.progress) {
            campaign.on_progress = [&meter](const runner::CampaignProgress& p) {
                meter.update(p.cells_done, p.cells_total, p.runs_done);
            };
        }
        auto series = runner::run_campaign(algorithms, sweep_config(opts_, degree), campaign);
        if (opts_.progress) meter.finish();
        metrics_.merge(panel_metrics);  // panels run serially: fixed merge order

        std::cout << format_table(title, series) << '\n';
        if (opts_.csv) {
            std::cout << "-- csv --\n";
            write_csv(std::cout, series);
            std::cout << '\n';
        }
        if (!opts_.gnuplot_prefix.empty()) {
            std::string slug = title;
            for (char& c : slug) {
                if (c == ' ' || c == ',' || c == '=') c = '_';
            }
            std::ofstream data(opts_.gnuplot_prefix + "_" + slug + ".dat");
            write_gnuplot(data, title, series);
        }
        // Correctness guard: deterministic schemes must never fail delivery.
        for (const auto& s : series) {
            for (const auto& p : s.points) {
                if (p.delivery_failures != 0) {
                    std::cerr << "WARNING: " << s.name << " failed delivery "
                              << p.delivery_failures << "x at n=" << p.node_count << '\n';
                    delivery_failures_ += p.delivery_failures;
                }
            }
        }
        panels_.push_back({title, degree, std::move(series)});
    }

    /// For benches with bespoke loops: fold external failures into the guard.
    void note_delivery_failure(std::size_t count = 1) { delivery_failures_ += count; }

    [[nodiscard]] const BenchOptions& options() const noexcept { return opts_; }

    /// Writes the JSON sink (if requested) and returns the process exit
    /// code: nonzero iff any delivery failure was observed.
    [[nodiscard]] int finish() {
        if (!opts_.json_path.empty()) {
            runner::BenchRunInfo info;
            info.name = name_;
            info.seed = opts_.seed;
            info.jobs = opts_.jobs;
            info.min_runs = opts_.min_runs;
            info.max_runs = opts_.max_runs;
            info.wall_seconds =
                std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
                    .count();
            info.delivery_failures = delivery_failures_;
            if (telemetry::enabled() && !metrics_.empty()) {
                // Timing excluded: the embedded object is bit-identical at
                // any --jobs value (see telemetry/sinks.hpp).
                info.metrics_json =
                    telemetry::metrics_json(metrics_, /*include_timing=*/false);
            }
            std::ofstream out(opts_.json_path);
            if (!out) {
                std::cerr << name_ << ": cannot write " << opts_.json_path << '\n';
                return 1;
            }
            runner::write_bench_json(out, info, panels_);
        }
        if (delivery_failures_ != 0) {
            std::cerr << name_ << ": " << delivery_failures_
                      << " delivery failure(s) — deterministic schemes must deliver to "
                         "every node\n";
            return 1;
        }
        return 0;
    }

  private:
    std::string name_;
    BenchOptions opts_;
    std::chrono::steady_clock::time_point start_;
    std::vector<runner::PanelResult> panels_;
    telemetry::Snapshot metrics_;  ///< campaign aggregates, panel order
    std::size_t delivery_failures_ = 0;
};

}  // namespace adhoc::bench
