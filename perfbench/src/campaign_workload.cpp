/// \file campaign_workload.cpp
/// \brief paper-campaign: `runner::run_campaign` over Figure 10's set, and
/// the runner/algorithms probes every traced run reports.
///
/// Figure 10's set is Static, FR, FRB and FRBD with 2-hop views and ID
/// priority, d in {6, 18}, n = 20..100, repeated under the paper's stopping
/// rule (90% CI within +-1%, at most 2000 runs per cell) with jobs = 4.
/// This is the only workload that goes through `Simulator`, `GenericAgent`,
/// backoff timers and the runner pool.  One operation is one whole campaign
/// (both densities); the next starts when the previous one returns.
#include <algorithm>
#include <atomic>
#include <cstring>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <utility>

#include "algorithms/generic.hpp"
#include "graph/unit_disk.hpp"
#include "harness.hpp"
#include "runner/campaign.hpp"
#include "runner/seed.hpp"
#include "stats/experiment.hpp"
#include "stats/rng.hpp"
#include "verify/cds_check.hpp"

namespace perfbench {
namespace {

using namespace adhoc;

constexpr std::size_t kCampaignJobs = 4;
const double kDegrees[] = {6.0, 18.0};

/// One timed `GenericBroadcast::broadcast` call inside a campaign.
struct Sample {
    Clock::time_point start;
    Clock::time_point end;
    std::uint32_t tid = 0;
    std::size_t decisions = 0;  ///< received nodes other than the source
    std::size_t events = 0;     ///< deliveries: sum of the forwarders' degrees
    bool ok = false;            ///< passed verify::check_broadcast
};

class SampleLog {
  public:
    void push(const Sample& s) {
        const std::lock_guard<std::mutex> lock(mutex_);
        samples_.push_back(s);
    }
    std::vector<Sample> take() {
        const std::lock_guard<std::mutex> lock(mutex_);
        return std::exchange(samples_, {});
    }
    /// Set to corrupt the next checked forward mask (gate self-test).
    std::atomic<bool> corrupt_next{false};

  private:
    std::mutex mutex_;
    std::vector<Sample> samples_;
};

std::uint32_t thread_index() {
    static std::atomic<std::uint32_t> next{1};
    thread_local const std::uint32_t index = next.fetch_add(1);
    return index;
}

/// Times each broadcast of the wrapped algorithm and checks its outcome
/// (outside the timed call) with verify::check_broadcast.
class TimedBroadcast final : public BroadcastAlgorithm {
  public:
    TimedBroadcast(GenericConfig config, std::string label, SampleLog& log)
        : inner_(config, std::move(label)), log_(log) {}

    [[nodiscard]] std::string name() const override { return inner_.name(); }

    [[nodiscard]] BroadcastResult broadcast(const Graph& g, NodeId source,
                                            Rng& rng) const override {
        Sample s;
        s.start = Clock::now();
        const BroadcastResult result = inner_.broadcast(g, source, rng);
        s.end = Clock::now();
        s.tid = thread_index();

        BroadcastResult checked = result;
        if (log_.corrupt_next.exchange(false)) {
            const auto it = std::find(checked.transmitted.begin(), checked.transmitted.end(), 1);
            if (it != checked.transmitted.end()) *it = 0;
        }
        std::size_t forwarders = 0;
        for (NodeId v = 0; v < g.node_count(); ++v) {
            if (checked.transmitted[v]) {
                ++forwarders;
                s.events += g.degree(v);
            }
        }
        s.ok = check_broadcast(g, source, checked).ok() && forwarders == result.forward_count;
        s.decisions = result.received_count - 1;
        log_.push(s);
        return result;
    }

  protected:
    [[nodiscard]] std::unique_ptr<Agent> make_agent(const Graph&) const override {
        throw std::logic_error("TimedBroadcast delegates whole broadcasts");
    }

  private:
    GenericBroadcast inner_;
    SampleLog& log_;
};

struct Fig10 {
    explicit Fig10(SampleLog& log)
        : stat(generic_static_config(2, PriorityScheme::kId), "Static", log),
          fr(generic_fr_config(2, PriorityScheme::kId), "FR", log),
          frb(generic_frb_config(2, PriorityScheme::kId), "FRB", log),
          frbd(generic_frbd_config(2, PriorityScheme::kId), "FRBD", log) {}
    [[nodiscard]] std::vector<const BroadcastAlgorithm*> algorithms() const {
        return {&stat, &fr, &frb, &frbd};
    }
    TimedBroadcast stat, fr, frb, frbd;
};

ExperimentConfig fig10_config(const Options& opts, double degree) {
    ExperimentConfig cfg;
    cfg.average_degree = degree;
    cfg.min_runs = 30;
    cfg.max_runs = 2000;  // the paper's rule, as fig10_timing --full
    cfg.seed = opts.seed;
    if (opts.small) {
        cfg.node_counts = {20, 30};
        cfg.max_runs = 60;
    }
    return cfg;
}

struct CampaignOutcome {
    double wall = 0.0;
    CpuTimes cpu;
    std::size_t runs = 0;
    std::size_t delivery_failures = 0;
    std::uint64_t digest = kFoldBasis;  ///< mean_forward, runs per cell
    std::uint64_t first_cell_digest = kFoldBasis;  ///< cell (n = 20, d = 6)
};

std::uint64_t point_digest(const SeriesPoint& p) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &p.mean_forward, sizeof bits);
    return fold(fold(fold(kFoldBasis, p.node_count), bits), p.runs);
}

/// Runs `run_campaign` once per density and folds the outcome.
CampaignOutcome run_fig10(const Options& opts, const Fig10& algos,
                          const std::vector<double>& degrees,
                          const std::vector<std::size_t>& node_counts, std::size_t jobs) {
    CampaignOutcome out;
    const CpuTimes c0 = cpu_now();
    const Clock::time_point t0 = Clock::now();
    for (const double d : degrees) {
        ExperimentConfig cfg = fig10_config(opts, d);
        if (!node_counts.empty()) cfg.node_counts = node_counts;
        runner::CampaignOptions copts;
        copts.jobs = jobs;
        const std::vector<AlgorithmSeries> series =
            runner::run_campaign(algos.algorithms(), cfg, copts);
        for (const AlgorithmSeries& s : series) {
            for (const SeriesPoint& p : s.points) {
                out.delivery_failures += p.delivery_failures;
                out.digest = fold(out.digest, point_digest(p));
                if (d == kDegrees[0] && p.node_count == cfg.node_counts.front()) {
                    out.first_cell_digest = fold(out.first_cell_digest, point_digest(p));
                }
            }
        }
        for (const SeriesPoint& p : series.front().points) out.runs += p.runs;
    }
    out.wall = seconds_between(t0, Clock::now());
    out.cpu = cpu_now() - c0;
    return out;
}

}  // namespace

void run_campaign_workload(const Options& opts, SpanRecorder& spans, Report& report) {
    SampleLog log;
    Gate& gate = report.gate;
    const std::vector<double> all_degrees(std::begin(kDegrees), std::end(kDegrees));

    // Set-up: the algorithms plus a warm-up campaign over the first cell
    // (n = 20, d = 6), which also starts the runner's pool once.
    std::vector<double> setup_times;
    std::optional<std::uint64_t> warm_digest;
    std::unique_ptr<Fig10> algos;
    for (std::size_t k = 0; k < 3; ++k) {
        ScopedSpan span(spans, "setup");
        const Clock::time_point t0 = Clock::now();
        algos = std::make_unique<Fig10>(log);
        const CampaignOutcome warm =
            run_fig10(opts, *algos, {kDegrees[0]}, {fig10_config(opts, 6.0).node_counts.front()},
                      kCampaignJobs);
        setup_times.push_back(seconds_between(t0, Clock::now()));
        gate.check(warm.delivery_failures == 0, "warm-up campaign delivered every run");
        if (warm_digest) gate.check(*warm_digest == warm.digest, "warm-up campaigns agree");
        warm_digest = warm.digest;
    }
    for (const Sample& s : log.take()) gate.check(s.ok, "warm-up broadcast passes check_broadcast");

    // The campaign draws its networks from the seed; the first one stands
    // for them in the input digest.
    {
        const ExperimentConfig first = fig10_config(opts, kDegrees[0]);
        Rng rng(runner::derive_run_seed(opts.seed, first.node_counts.front(), kDegrees[0], 0));
        UnitDiskParams params;
        params.node_count = first.node_counts.front();
        params.average_degree = kDegrees[0];
        params.area_side = first.area_side;
        report.inputs = fold_graph(kFoldBasis, generate_network_checked(params, rng).graph);
    }

    std::vector<CampaignOutcome> outcomes;
    log.corrupt_next = opts.corrupt == "mask";
    const Clock::time_point start = Clock::now();
    do {
        ScopedSpan span(spans, "runner.campaign", static_cast<std::uint32_t>(outcomes.size() + 1));
        outcomes.push_back(run_fig10(opts, *algos, all_degrees, {}, kCampaignJobs));
    } while (seconds_between(start, Clock::now()) < opts.seconds);

    const std::vector<Sample> samples = log.take();
    std::vector<double> walls;
    std::size_t decisions = 0;
    std::size_t events = 0;
    for (const Sample& s : samples) {
        walls.push_back(seconds_between(s.start, s.end));
        decisions += s.decisions;
        events += s.events;
        gate.check(s.ok, "campaign broadcast passes check_broadcast");
    }
    double wall = 0.0;
    double cpu = 0.0;
    std::size_t runs = 0;
    for (CampaignOutcome& o : outcomes) {
        if (opts.corrupt == "digest" && &o == &outcomes.front()) o.first_cell_digest ^= 1;
        gate.check(o.delivery_failures == 0, "campaign delivery_failures == 0");
        gate.check(o.first_cell_digest == *warm_digest,
                   "campaign cell (n=20, d=6) matches the warm-up campaign");
        if (&o != &outcomes.front()) {
            gate.check(o.digest == outcomes.front().digest, "campaign mean_forward values repeat");
        }
        wall += o.wall;
        cpu += o.cpu.total();
        runs += o.runs;
    }

    report.ops = outcomes.size();
    report.add("setup_s", median(setup_times), "s");
    report.add("broadcast_p50_s", median(walls), "s");
    report.add("broadcast_p90_s", quantile(walls, 0.9), "s");
    report.add("decisions_per_s", static_cast<double>(decisions) / wall, "1/s");
    report.add("events_per_s", static_cast<double>(events) / wall, "1/s");
    report.add("runs_per_s", static_cast<double>(runs) / wall, "1/s");
    report.add("cpu_s_per_op", cpu / static_cast<double>(runs), "s");
    report.add("peak_rss_mb", peak_rss_mb(), "MiB");
}

void campaign_layer_probes(const Options& opts, SpanRecorder& spans, Report& report,
                           bool measure_overhead) {
    SampleLog log;
    Gate& gate = report.gate;
    const Fig10 algos(log);
    // The probe campaign: Figure 10's d = 6 panel under the stopping rule.
    const std::vector<double> probe_degrees{kDegrees[0]};

    if (measure_overhead) {
        spans.set_enabled(false);
        const CampaignOutcome plain = run_fig10(opts, algos, probe_degrees, {}, kCampaignJobs);
        (void)log.take();
        spans.set_enabled(true);
        const std::uint32_t parent = spans.begin("runner.campaign", 1);
        const CampaignOutcome traced = run_fig10(opts, algos, probe_degrees, {}, kCampaignJobs);
        for (const Sample& s : log.take()) {
            spans.add("algorithms.broadcast", s.start, s.end, parent, 1, s.tid);
        }
        spans.end(parent);
        gate.check(plain.digest == traced.digest, "traced and untraced campaigns agree");
        report.add("trace.overhead_frac", traced.wall / plain.wall - 1.0, "ratio");
    }

    CampaignOutcome par;
    {
        const std::uint32_t parent = spans.begin("runner.campaign", 2);
        par = run_fig10(opts, algos, probe_degrees, {}, kCampaignJobs);
        for (const Sample& s : log.take()) {
            spans.add("algorithms.broadcast", s.start, s.end, parent, 2, s.tid);
            gate.check(s.ok, "probe broadcast passes check_broadcast");
        }
        spans.end(parent);
    }
    CampaignOutcome serial;
    {
        ScopedSpan span(spans, "runner.campaign", 3);
        serial = run_fig10(opts, algos, probe_degrees, {}, 1);
        (void)log.take();
    }
    gate.check(par.delivery_failures == 0, "probe campaign delivery_failures == 0");
    gate.check(par.digest == serial.digest, "jobs=1 and jobs=4 campaigns agree");
    report.add("runner.campaign_s", par.wall, "s");
    report.add("runner.parallel_speedup", serial.wall / par.wall, "ratio");
    report.add("runner.runs", static_cast<double>(par.runs), "count");

    // GenericBroadcast::broadcast, serially, on paper-size graphs.
    const std::size_t graphs = opts.small ? 5 : 40;
    std::vector<UnitDiskNetwork> nets;
    std::vector<NodeId> sources;
    Rng rng(runner::splitmix64(opts.seed ^ 0xa160ULL));
    for (std::size_t i = 0; i < graphs; ++i) {
        UnitDiskParams params;
        params.node_count = 100;
        params.average_degree = 6.0;
        nets.push_back(generate_network_checked(params, rng));
        sources.push_back(static_cast<NodeId>(rng.index(100)));
    }
    const std::pair<const char*, const BroadcastAlgorithm*> timings[] = {
        {"algorithms.broadcast_us.static", &algos.stat},
        {"algorithms.broadcast_us.fr", &algos.fr},
        {"algorithms.broadcast_us.frb", &algos.frb},
        {"algorithms.broadcast_us.frbd", &algos.frbd}};
    for (const auto& [name, algo] : timings) {
        std::vector<double> us;
        for (std::size_t i = 0; i < graphs; ++i) {
            Rng run_rng(runner::splitmix64(opts.seed + i));
            (void)algo->broadcast(nets[i].graph, sources[i], run_rng);
        }
        for (const Sample& s : log.take()) {
            spans.add("algorithms.broadcast", s.start, s.end, spans.current(), 0, 0);
            us.push_back(seconds_between(s.start, s.end) * 1e6);
            gate.check(s.ok, "paper-size broadcast passes check_broadcast");
        }
        report.add(name, median(us), "us");
    }
}

}  // namespace perfbench
