/// \file harness.hpp
/// \brief Shared pieces of the repository benchmark: options, clocks and
/// CPU accounting, the correctness gate, the metric report and the span
/// recorder.
///
/// Everything here lives outside the library: the benchmark times calls
/// into each module's public functions from its own files, so the library
/// carries no benchmark hooks.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "graph/geometry.hpp"
#include "graph/graph.hpp"

namespace perfbench {

using adhoc::Graph;
using adhoc::NodeId;

/// Command line of one benchmark run.
struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;  ///< length of the measured closed loop
    bool trace = false;     ///< per-layer probes instead of the end-to-end loop
    bool small = false;     ///< self-test scale: every input 1000x smaller
    std::string corrupt;    ///< "", "mask" or "digest": break one result on purpose
    std::string spans_path; ///< JSONL span output of a traced run ("" = none)
};

// ---------------------------------------------------------------- clocks --

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
}

/// User and system CPU seconds of this process (getrusage), all threads.
struct CpuTimes {
    double user = 0.0;
    double sys = 0.0;
    [[nodiscard]] double total() const { return user + sys; }
};
[[nodiscard]] CpuTimes cpu_now();
[[nodiscard]] inline CpuTimes operator-(const CpuTimes& a, const CpuTimes& b) {
    return {a.user - b.user, a.sys - b.sys};
}

/// Peak resident set (VmHWM) of this process in MiB.
[[nodiscard]] double peak_rss_mb();

// ----------------------------------------------------------------- stats --

[[nodiscard]] double median(std::vector<double> values);
/// Linear-interpolated quantile, q in [0, 1].
[[nodiscard]] double quantile(std::vector<double> values, double q);

/// Order-sensitive FNV-style fold used for result digests.
[[nodiscard]] inline std::uint64_t fold(std::uint64_t h, std::uint64_t x) {
    return (h ^ x) * 0x100000001b3ULL;
}
inline constexpr std::uint64_t kFoldBasis = 0xcbf29ce484222325ULL;

// ---------------------------------------------------------------- inputs --

/// Side of the square the placement covers.
inline constexpr double kArea = 1000.0;

/// Constant-density placement of bench_scale: n points uniform in a
/// kArea x kArea square and the analytic degree-6 range, so the graph
/// build stays O(n).  Pure function of (seed, n).
struct Placement {
    Graph graph;
    std::vector<adhoc::Point2D> positions;
    double positions_s = 0.0;  ///< drawing the points
    double unit_disk_s = 0.0;  ///< unit_disk_graph
};
[[nodiscard]] Placement make_placement(std::uint64_t seed, std::size_t n);

/// Folds every edge of `g` into `h`.
[[nodiscard]] std::uint64_t fold_graph(std::uint64_t h, const Graph& g);

/// Connected-component labels (BFS) and the size of each component.
struct Components {
    std::vector<std::uint32_t> label;
    std::vector<std::size_t> size;
    std::uint32_t giant = 0;  ///< label of the largest component
};
[[nodiscard]] Components components(const Graph& g);

// ------------------------------------------------------------------ gate --

/// Correctness gate: every check counts as one attempt.  The error rate is
/// failed / attempted; any failure makes the run exit nonzero.
class Gate {
  public:
    void check(bool ok, const std::string& what);
    [[nodiscard]] std::size_t attempted() const { return attempted_; }
    [[nodiscard]] std::size_t failed() const { return failed_; }

  private:
    std::size_t attempted_ = 0;
    std::size_t failed_ = 0;
};

// ---------------------------------------------------------------- report --

struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

/// What one run prints: a human table, then the one-line JSON result.
struct Report {
    std::vector<Metric> metrics;
    std::size_t ops = 0;  ///< measured operations (broadcasts or campaigns)
    std::uint64_t inputs = kFoldBasis;  ///< digest of the generated inputs
    Gate gate;

    void add(std::string name, double value, std::string unit) {
        metrics.push_back({std::move(name), value, std::move(unit)});
    }
};

/// Prints the table and the final JSON line; returns the exit status.
int print_report(const Options& opts, const Report& report);

// ----------------------------------------------------------------- spans --

/// In-memory span store, written as JSONL when the run ends.  Each span
/// carries a name ("<layer>.<what>"), start, end, its parent span and the
/// broadcast (operation) it belongs to.  Single-threaded: spans measured on
/// worker threads are handed over with `add` after the workers finish.
class SpanRecorder {
  public:
    void set_enabled(bool on) { enabled_ = on; }
    [[nodiscard]] bool enabled() const { return enabled_; }

    /// Opens a span under the innermost open one; returns its id (0 when
    /// disabled).
    std::uint32_t begin(const char* name, std::uint32_t broadcast = 0);
    void end(std::uint32_t id);

    /// Appends a finished span measured elsewhere (e.g. on a worker).
    void add(const char* name, Clock::time_point start, Clock::time_point end,
             std::uint32_t parent, std::uint32_t broadcast, std::uint32_t tid);

    /// Innermost open span id (0 = none).
    [[nodiscard]] std::uint32_t current() const { return open_.empty() ? 0 : open_.back(); }

    /// Writes `{"type":"span","name",ts_ns,dur_ns,tid,id,parent,broadcast}`
    /// lines, the format `telemetry::parse_span_line` reads.
    [[nodiscard]] bool write_jsonl(const std::string& path) const;

    /// Self time (duration minus child spans) summed per layer prefix.
    [[nodiscard]] std::map<std::string, double> self_seconds_by_layer() const;

    [[nodiscard]] std::size_t size() const { return spans_.size(); }

  private:
    struct Span {
        const char* name;
        std::uint64_t start_ns;
        std::uint64_t end_ns;
        std::uint32_t id;
        std::uint32_t parent;
        std::uint32_t broadcast;
        std::uint32_t tid;
    };
    [[nodiscard]] std::uint64_t ns(Clock::time_point t) const {
        return static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_).count());
    }

    bool enabled_ = false;
    Clock::time_point origin_ = Clock::now();
    std::vector<Span> spans_;
    std::vector<std::uint32_t> open_;  ///< ids of open spans, innermost last
};

/// RAII span; a no-op while the recorder is disabled.
class ScopedSpan {
  public:
    ScopedSpan(SpanRecorder& rec, const char* name, std::uint32_t broadcast = 0)
        : rec_(rec), id_(rec.begin(name, broadcast)) {}
    ~ScopedSpan() { rec_.end(id_); }
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

  private:
    SpanRecorder& rec_;
    std::uint32_t id_;
};

// ------------------------------------------------------------- workloads --

/// The ScaleEngine workloads (generic-1e6, flood-1e6, faulted-1e5).
/// Returns false when `opts.workload` names none of them.
bool run_scale_workload(const Options& opts, SpanRecorder& spans, Report& report);

/// The Monte Carlo campaign workload (paper-campaign).
void run_campaign_workload(const Options& opts, SpanRecorder& spans, Report& report);

/// Per-layer probes of the campaign runner and the Simulator-backed
/// algorithms, shared by every workload's traced run.  With
/// `measure_overhead` the probe campaign also runs untraced, giving
/// trace.overhead_frac.
void campaign_layer_probes(const Options& opts, SpanRecorder& spans, Report& report,
                           bool measure_overhead);

}  // namespace perfbench
