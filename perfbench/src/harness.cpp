#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <unordered_map>

#include "graph/unit_disk.hpp"
#include "runner/seed.hpp"
#include "stats/rng.hpp"

namespace perfbench {

CpuTimes cpu_now() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    const auto secs = [](const timeval& tv) {
        return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return {secs(usage.ru_utime), secs(usage.ru_stime)};
}

double peak_rss_mb() {
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            return static_cast<double>(std::strtoull(line.c_str() + 6, nullptr, 10)) / 1024.0;
        }
    }
    return 0.0;
}

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

double quantile(std::vector<double> values, double q) {
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

Placement make_placement(std::uint64_t seed, std::size_t n) {
    Placement out;
    const Clock::time_point t0 = Clock::now();
    adhoc::Rng rng(adhoc::runner::splitmix64(seed ^ (0x5ca1eULL * n)));
    out.positions.resize(n);
    for (adhoc::Point2D& p : out.positions) {
        p.x = rng.uniform(0.0, kArea);
        p.y = rng.uniform(0.0, kArea);
    }
    const double range =
        std::sqrt(6.0 * kArea * kArea / (3.14159265358979323846 * static_cast<double>(n)));
    const Clock::time_point t1 = Clock::now();
    out.graph = adhoc::unit_disk_graph(out.positions, range);
    const Clock::time_point t2 = Clock::now();
    out.positions_s = seconds_between(t0, t1);
    out.unit_disk_s = seconds_between(t1, t2);
    return out;
}

std::uint64_t fold_graph(std::uint64_t h, const Graph& g) {
    h = fold(h, g.node_count());
    for (NodeId v = 0; v < g.node_count(); ++v) {
        for (const NodeId w : g.neighbors(v)) {
            if (v < w) h = fold(h, (std::uint64_t{v} << 32) | w);
        }
    }
    return h;
}

Components components(const Graph& g) {
    constexpr std::uint32_t kNone = 0xffffffffu;
    Components c;
    c.label.assign(g.node_count(), kNone);
    std::vector<NodeId> stack;
    for (NodeId s = 0; s < g.node_count(); ++s) {
        if (c.label[s] != kNone) continue;
        const auto id = static_cast<std::uint32_t>(c.size.size());
        std::size_t count = 1;
        c.label[s] = id;
        stack.assign(1, s);
        while (!stack.empty()) {
            const NodeId v = stack.back();
            stack.pop_back();
            for (const NodeId w : g.neighbors(v)) {
                if (c.label[w] == kNone) {
                    c.label[w] = id;
                    ++count;
                    stack.push_back(w);
                }
            }
        }
        c.size.push_back(count);
        if (count > c.size[c.giant]) c.giant = id;
    }
    return c;
}

void Gate::check(bool ok, const std::string& what) {
    ++attempted_;
    if (ok) return;
    ++failed_;
    if (failed_ <= 20) std::cerr << "perfbench: check failed: " << what << '\n';
}

int print_report(const Options& opts, const Report& report) {
    const Gate& gate = report.gate;
    const double error_rate = gate.attempted() == 0
                                  ? 1.0
                                  : static_cast<double>(gate.failed()) /
                                        static_cast<double>(gate.attempted());
    std::printf("workload %s  seed %llu  %s run  ops %zu  inputs %016llx\n",
                opts.workload.c_str(), static_cast<unsigned long long>(opts.seed),
                opts.trace ? "traced" : "untraced", report.ops,
                static_cast<unsigned long long>(report.inputs));
    for (const Metric& m : report.metrics) {
        std::printf("  %-34s %18.9g  %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
    std::printf("  %-34s %18.9g  %s  (%zu failed of %zu checks)\n", "error_rate", error_rate,
                "ratio", gate.failed(), gate.attempted());

    const bool correct = gate.attempted() > 0 && gate.failed() == 0;
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
                correct ? "true" : "false", gate.attempted(), gate.failed());
    for (std::size_t i = 0; i < report.metrics.size(); ++i) {
        const Metric& m = report.metrics[i];
        const double value = std::isfinite(m.value) ? m.value : 0.0;
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                    m.name.c_str(), value, m.unit.c_str());
    }
    std::printf("}}\n");
    std::fflush(stdout);
    return correct ? 0 : 1;
}

std::uint32_t SpanRecorder::begin(const char* name, std::uint32_t broadcast) {
    if (!enabled_) return 0;
    const auto id = static_cast<std::uint32_t>(spans_.size() + 1);
    const std::uint64_t now = ns(Clock::now());
    spans_.push_back({name, now, now, id, current(), broadcast, 0});
    open_.push_back(id);
    return id;
}

void SpanRecorder::end(std::uint32_t id) {
    if (id == 0) return;
    spans_[id - 1].end_ns = ns(Clock::now());
    // Spans close innermost first; tolerate out-of-order closes anyway.
    const auto it = std::find(open_.begin(), open_.end(), id);
    if (it != open_.end()) open_.erase(it);
}

void SpanRecorder::add(const char* name, Clock::time_point start, Clock::time_point end,
                       std::uint32_t parent, std::uint32_t broadcast, std::uint32_t tid) {
    if (!enabled_) return;
    const auto id = static_cast<std::uint32_t>(spans_.size() + 1);
    spans_.push_back({name, ns(start), ns(end), id, parent, broadcast, tid});
}

bool SpanRecorder::write_jsonl(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    for (const Span& s : spans_) {
        out << "{\"type\":\"span\",\"name\":\"" << s.name << "\",\"ts_ns\":" << s.start_ns
            << ",\"dur_ns\":" << (s.end_ns - s.start_ns) << ",\"tid\":" << s.tid
            << ",\"id\":" << s.id << ",\"parent\":" << s.parent
            << ",\"broadcast\":" << s.broadcast << "}\n";
    }
    return static_cast<bool>(out);
}

std::map<std::string, double> SpanRecorder::self_seconds_by_layer() const {
    // Child time is charged per parent on the parent's own thread only:
    // worker spans (tid != 0) overlap each other and their parent, so they
    // would otherwise drive the parent's self time negative.
    std::unordered_map<std::uint32_t, std::uint64_t> child_ns;
    for (const Span& s : spans_) {
        if (s.parent != 0 && s.tid == spans_[s.parent - 1].tid) {
            child_ns[s.parent] += s.end_ns - s.start_ns;
        }
    }
    std::map<std::string, double> out;
    for (const Span& s : spans_) {
        const std::string name = s.name;
        const std::string layer = name.substr(0, name.find('.'));
        const std::uint64_t dur = s.end_ns - s.start_ns;
        const auto it = child_ns.find(s.id);
        const std::uint64_t child = it == child_ns.end() ? 0 : std::min(it->second, dur);
        out[layer] += static_cast<double>(dur - child) * 1e-9;
    }
    return out;
}

}  // namespace perfbench
