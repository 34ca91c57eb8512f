/// \file scale_workloads.cpp
/// \brief The ScaleEngine workloads and their per-layer probes.
///
///   generic-1e6   kGenericCoverage (Static/NCR and FR/Degree, k = 2,
///                 scratch views) at n = 10^6
///   flood-1e6     kFlood and kSelfPrune at n = 10^6
///   faulted-1e5   kFlood and generic FR at n = 10^5 under crash 5%, link
///                 churn 0.1 and NACK recovery (nack_delay = 1.0), one fresh
///                 fault plan per source
///
/// Each broadcast is a closed loop: the next `ScaleEngine::run` starts when
/// the previous one returns.  The untraced run reports the end-to-end
/// metrics; the traced run (`--trace 1`) times calls into each module from
/// here and reports the per-layer metrics.
#include <algorithm>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <utility>

#include "algorithms/generic.hpp"
#include "core/compact_view.hpp"
#include "core/coverage.hpp"
#include "core/priority.hpp"
#include "core/view.hpp"
#include "faults/fault_plan.hpp"
#include "faults/outcome.hpp"
#include "faults/recovery.hpp"
#include "graph/khop.hpp"
#include "harness.hpp"
#include "runner/seed.hpp"
#include "sim/scale_engine.hpp"
#include "stats/rng.hpp"
#include "verify/cds_check.hpp"

namespace perfbench {
namespace {

using namespace adhoc;

constexpr std::size_t kJobs = 4;  ///< worker threads of every engine

/// Broadcast sources: the giant-component node nearest to each anchor (in
/// fractions of the square's side).  Where a source sits sets how wide the
/// wavefront grows, and so whether windows cross kParallelWindow and the
/// worker crew engages; fixed anchors keep that the same for every seed.
/// The centre serves the warm-ups; the measured loop cycles through four
/// mirror-image points, so every measured broadcast has the same kind of
/// source.
constexpr double kAnchors[][2] = {
    {0.5, 0.5}, {0.25, 0.25}, {0.75, 0.25}, {0.25, 0.75}, {0.75, 0.75}};

struct PolicySpec {
    const char* name;
    ScalePolicy policy;
    GenericConfig generic;
    [[nodiscard]] bool generic_coverage() const {
        return policy == ScalePolicy::kGenericCoverage;
    }
};

const PolicySpec kFloodPolicy{"flood", ScalePolicy::kFlood, {}};
const PolicySpec kSelfPrunePolicy{"self_prune", ScalePolicy::kSelfPrune, {}};
const PolicySpec kStaticPolicy{"generic_static", ScalePolicy::kGenericCoverage,
                               generic_static_config(2)};
const PolicySpec kFrPolicy{"generic_fr", ScalePolicy::kGenericCoverage, generic_fr_config(2)};
const PolicySpec* const kAllPolicies[] = {&kFloodPolicy, &kSelfPrunePolicy, &kStaticPolicy,
                                          &kFrPolicy};

struct WorkloadSpec {
    std::size_t n = 0;
    std::vector<const PolicySpec*> policies;
    bool faulted = false;
    /// Set-ups behind setup_s.  generic-1e6 takes two: each costs two
    /// million-node warm-up broadcasts (~8 s in all).
    std::size_t setups = 3;
};

/// The ScaleEngine workloads.  "paper-campaign" appears only so that its
/// traced run can probe these layers on a graph of the campaign's size.
std::optional<WorkloadSpec> find_workload(const std::string& name, bool small) {
    const std::size_t scale = small ? 1000 : 1;
    if (name == "generic-1e6") {
        return WorkloadSpec{1'000'000 / scale, {&kStaticPolicy, &kFrPolicy}, false, 2};
    }
    if (name == "flood-1e6") {
        return WorkloadSpec{1'000'000 / scale, {&kFloodPolicy, &kSelfPrunePolicy}, false};
    }
    if (name == "faulted-1e5") {
        return WorkloadSpec{100'000 / scale, {&kFloodPolicy, &kFrPolicy}, true};
    }
    if (name == "paper-campaign") {
        return WorkloadSpec{100, {&kStaticPolicy, &kFrPolicy}, false};
    }
    return std::nullopt;
}

ScaleConfig engine_config(const PolicySpec& p, std::size_t jobs) {
    ScaleConfig cfg;
    cfg.jobs = jobs;
    cfg.wheels = 8;
    cfg.policy = p.policy;
    if (p.generic_coverage()) {
        cfg.generic = p.generic;
        cfg.view_mode = ScaleViewMode::kScratch;
    }
    return cfg;
}

faults::FaultSpec fault_spec() {
    faults::FaultSpec spec;
    spec.crash_rate = 0.05;
    spec.crash_window = 6.0;
    spec.link_churn_rate = 0.1;
    spec.churn_window = 8.0;
    return spec;
}

faults::RecoveryConfig recovery(bool enabled) {
    faults::RecoveryConfig rc;
    rc.enabled = enabled;
    rc.nack_delay = 1.0;  // window-aligned at the engine's delay 1.0
    return rc;
}

/// Everything one broadcast outputs that must repeat exactly.
struct Signature {
    std::size_t forward = 0;
    std::size_t received = 0;
    std::size_t delivered_events = 0;
    std::size_t windows = 0;
    std::size_t peak_queue = 0;
    std::uint64_t digest = 0;
    std::size_t retransmits = 0;
    std::size_t controls = 0;
    std::size_t suppressed = 0;
    double delivery_ratio = 0.0;
    double completion = 0.0;
    bool operator==(const Signature&) const = default;
};

/// One placement with its engines and inputs.  Members are declared in
/// dependency order: engines (destroyed first) point at the graph and the
/// fault plans.
struct Setup {
    Placement placement;
    Components comps;
    std::vector<NodeId> pool;               ///< broadcast sources
    std::vector<faults::FaultPlan> plans;   ///< one per source (faulted only)
    std::vector<std::unique_ptr<ScaleEngine>> engines;  ///< one per policy
    double total_s = 0.0;
    double construct_s = 0.0;
    double plans_s = 0.0;
    double cold_run_s = 0.0;

    [[nodiscard]] const Graph& graph() const { return placement.graph; }
};

struct Timed {
    double wall = 0.0;
    CpuTimes cpu;
    ScaleResult result;
};

class ScaleBench {
  public:
    ScaleBench(const Options& opts, WorkloadSpec spec, SpanRecorder& spans, Report& report)
        : opts_(opts), spec_(std::move(spec)), spans_(spans), report_(report) {}

    void run_untraced();
    void run_traced(bool with_overhead);

  private:
    std::unique_ptr<Setup> build_setup();
    Timed timed_run(ScaleEngine& engine, NodeId source);
    /// Gate checks of one result; `key` (policy, source index) enables the
    /// repeat check.  Returns the result's signature.
    Signature check(const Setup& s, const ScaleEngine& engine, bool generic, NodeId source,
                    const faults::FaultPlan* plan, const ScaleResult& res,
                    std::optional<std::pair<std::size_t, std::size_t>> key);

    void probe_views(const Setup& s);
    /// faults.*: fault-free and faulted runs of one source per policy.
    void probe_faults();

    const Options& opts_;
    WorkloadSpec spec_;
    SpanRecorder& spans_;
    Report& report_;
    std::uint32_t broadcast_id_ = 0;
    bool corrupt_pending_ = false;
    std::map<std::pair<std::size_t, std::size_t>, Signature> seen_;
};

std::unique_ptr<Setup> ScaleBench::build_setup() {
    ScopedSpan root(spans_, "setup");
    auto s = std::make_unique<Setup>();
    {
        ScopedSpan span(spans_, "graph.placement");
        s->placement = make_placement(opts_.seed, spec_.n);
    }
    double total = s->placement.positions_s + s->placement.unit_disk_s;

    // Sources from the giant component; labelling is gate work, untimed.
    s->comps = components(s->graph());
    for (const auto& anchor : kAnchors) {
        const double ax = anchor[0] * kArea;
        const double ay = anchor[1] * kArea;
        double best = std::numeric_limits<double>::infinity();
        NodeId nearest = 0;
        for (NodeId v = 0; v < spec_.n; ++v) {
            const double dx = s->placement.positions[v].x - ax;
            const double dy = s->placement.positions[v].y - ay;
            if (s->comps.label[v] == s->comps.giant && dx * dx + dy * dy < best) {
                best = dx * dx + dy * dy;
                nearest = v;
            }
        }
        s->pool.push_back(nearest);
    }

    report_.inputs = fold_graph(kFoldBasis, s->graph());
    for (const NodeId v : s->pool) report_.inputs = fold(report_.inputs, v);

    Clock::time_point t0 = Clock::now();
    for (const PolicySpec* p : spec_.policies) {
        ScopedSpan span(spans_, "sim.construct");
        s->engines.push_back(std::make_unique<ScaleEngine>(s->graph(), engine_config(*p, kJobs)));
        if (spec_.faulted) s->engines.back()->set_recovery(recovery(true));
    }
    s->construct_s = seconds_between(t0, Clock::now());

    if (spec_.faulted) {
        ScopedSpan span(spans_, "faults.plan");
        t0 = Clock::now();
        const std::uint64_t plan_seed = runner::splitmix64(opts_.seed ^ 0xfa17ULL);
        for (std::size_t i = 0; i < s->pool.size(); ++i) {
            s->plans.push_back(
                faults::make_fault_plan(fault_spec(), s->graph(), s->pool[i], plan_seed, i));
        }
        s->plans_s = seconds_between(t0, Clock::now());
        for (const faults::FaultPlan& plan : s->plans) {
            report_.inputs = fold(report_.inputs, plan.events.size());
        }
    }

    // Warm-up: each engine's first broadcast, from the centre.
    std::vector<ScaleResult> warm;
    t0 = Clock::now();
    for (auto& engine : s->engines) {
        ScopedSpan span(spans_, "sim.cold_run", ++broadcast_id_);
        if (spec_.faulted) engine->attach_faults(&s->plans[0]);
        warm.push_back(engine->run(s->pool[0]));
    }
    s->cold_run_s = seconds_between(t0, Clock::now());
    s->total_s = total + s->construct_s + s->plans_s + s->cold_run_s;

    for (std::size_t p = 0; p < warm.size(); ++p) {
        (void)check(*s, *s->engines[p], spec_.policies[p]->generic_coverage(), s->pool[0],
                    spec_.faulted ? &s->plans[0] : nullptr, warm[p], std::pair{p, 0});
    }
    return s;
}

Timed ScaleBench::timed_run(ScaleEngine& engine, NodeId source) {
    ScopedSpan span(spans_, "sim.run", ++broadcast_id_);
    Timed out;
    const CpuTimes c0 = cpu_now();
    const Clock::time_point t0 = Clock::now();
    out.result = engine.run(source);
    out.wall = seconds_between(t0, Clock::now());
    out.cpu = cpu_now() - c0;
    return out;
}

Signature ScaleBench::check(const Setup& s, const ScaleEngine& engine, bool generic,
                            NodeId source, const faults::FaultPlan* plan,
                            const ScaleResult& res,
                            std::optional<std::pair<std::size_t, std::size_t>> key) {
    ScopedSpan span(spans_, "gate.check");
    Gate& gate = report_.gate;
    const Graph& g = s.graph();
    std::vector<char> fwd = engine.forwarded_mask();
    const std::vector<char>& rec = engine.received_mask();
    const bool corrupt = std::exchange(corrupt_pending_, false);
    if (corrupt && opts_.corrupt == "mask") {
        for (NodeId v = 0; v < fwd.size(); ++v) {
            if (fwd[v] && v != source) {
                fwd[v] = 0;
                break;
            }
        }
    }

    const std::uint32_t comp = s.comps.label[source];
    std::size_t fwd_count = 0;
    std::size_t rec_count = 0;
    bool fwd_in_rec = true;
    bool rec_in_comp = true;
    for (NodeId v = 0; v < g.node_count(); ++v) {
        fwd_count += fwd[v] != 0;
        rec_count += rec[v] != 0;
        if (fwd[v] && !rec[v]) fwd_in_rec = false;
        if (rec[v] && s.comps.label[v] != comp) rec_in_comp = false;
    }
    gate.check(fwd_count == res.forward_count, "forward mask matches forward_count");
    gate.check(rec_count == res.received_count, "received mask matches received_count");
    gate.check(fwd[source] != 0, "the source transmitted");
    gate.check(fwd_in_rec, "every forwarder received the packet");
    gate.check(rec_in_comp, "only the source component received the packet");

    // The CDS checks cost two BFS passes (seconds at 10^6 nodes), so a
    // repeated (policy, source) gets them only through the signature
    // comparison below.
    const bool repeat = key && seen_.contains(*key);
    double delivery_ratio = 1.0;
    if (plan == nullptr) {
        gate.check(res.received_count == s.comps.size[comp],
                   "fault-free delivery reaches the whole source component");
        if (generic && !repeat) {
            // The forward set must be a CDS of the source component.
            gate.check(covers_source_component(g, source, rec), "covers_source_component");
            gate.check(check_cds(g, fwd).connected, "forward set is connected");
            bool dominated = true;
            for (NodeId v = 0; v < g.node_count() && dominated; ++v) {
                if (s.comps.label[v] != comp || fwd[v]) continue;
                const auto nbrs = g.neighbors(v);
                dominated = std::any_of(nbrs.begin(), nbrs.end(),
                                        [&](NodeId u) { return fwd[u] != 0; });
            }
            gate.check(dominated, "forward set dominates the source component");
        }
    } else {
        delivery_ratio = faults::classify_outcome(g, source, rec, *plan).delivery_ratio;
        gate.check(delivery_ratio >= 0.0 && delivery_ratio <= 1.0, "delivery ratio in [0, 1]");
    }

    Signature sig{res.forward_count, res.received_count, res.delivered_events, res.windows,
                  res.peak_queue_events, res.order_digest, res.retransmit_count,
                  res.control_count, res.fault_suppressed, delivery_ratio,
                  res.completion_time};
    if (corrupt && opts_.corrupt == "digest") sig.digest ^= 1;
    if (key) {
        const auto [it, fresh] = seen_.emplace(*key, sig);
        if (!fresh) {
            gate.check(it->second == sig, "identical result for a repeated (policy, source)");
        }
    }
    return sig;
}

void ScaleBench::run_untraced() {
    std::vector<double> setup_times;
    std::unique_ptr<Setup> s;
    for (std::size_t k = 0; k < spec_.setups; ++k) {
        s.reset();  // at most one placement in memory
        s = build_setup();
        setup_times.push_back(s->total_s);
    }

    std::vector<double> walls;
    double wall_sum = 0.0;
    double cpu_sum = 0.0;
    double decision_wall = 0.0;
    std::size_t decisions = 0;
    std::size_t events = 0;
    const bool any_generic =
        std::any_of(spec_.policies.begin(), spec_.policies.end(),
                    [](const PolicySpec* p) { return p->generic_coverage(); });

    corrupt_pending_ = !opts_.corrupt.empty();
    const Clock::time_point start = Clock::now();
    for (std::size_t round = 0;; ++round) {
        const std::size_t i = 1 + round % (s->pool.size() - 1);
        for (std::size_t p = 0; p < spec_.policies.size(); ++p) {
            ScaleEngine& engine = *s->engines[p];
            if (spec_.faulted) engine.attach_faults(&s->plans[i]);
            const Timed t = timed_run(engine, s->pool[i]);
            walls.push_back(t.wall);
            wall_sum += t.wall;
            cpu_sum += t.cpu.total();
            events += t.result.delivered_events;
            // Decisions: the generic coverage decisions where the workload
            // runs them, else the forwarding rule's decisions.
            if (!any_generic || spec_.policies[p]->generic_coverage()) {
                decisions += t.result.received_count - 1;
                decision_wall += t.wall;
            }
            (void)check(*s, engine, spec_.policies[p]->generic_coverage(), s->pool[i],
                        spec_.faulted ? &s->plans[i] : nullptr, t.result, std::pair{p, i});
        }
        if (seconds_between(start, Clock::now()) >= opts_.seconds) break;
    }

    const auto ops = static_cast<double>(walls.size());
    report_.ops = walls.size();
    report_.add("setup_s", median(setup_times), "s");
    report_.add("broadcast_p50_s", median(walls), "s");
    report_.add("broadcast_p90_s", quantile(walls, 0.9), "s");
    report_.add("decisions_per_s", static_cast<double>(decisions) / decision_wall, "1/s");
    report_.add("events_per_s", static_cast<double>(events) / wall_sum, "1/s");
    report_.add("runs_per_s", ops / wall_sum, "1/s");
    report_.add("cpu_s_per_op", cpu_sum / ops, "s");
    report_.add("peak_rss_mb", peak_rss_mb(), "MiB");
}

/// Bytes a compiled LocalTopology holds: the full-id-space adjacency
/// skeleton, the n-byte visibility mask, member list and compact CSR.
double view_bytes(const LocalTopology& topo) {
    std::size_t bytes = sizeof(LocalTopology);
    bytes += topo.graph.node_count() * sizeof(std::vector<NodeId>);
    for (const NodeId v : topo.members) bytes += topo.graph.degree(v) * sizeof(NodeId);
    bytes += topo.visible.capacity();
    bytes += topo.members.capacity() * sizeof(NodeId);
    bytes += (topo.compact.offsets.capacity() + topo.compact.edges.capacity()) *
             sizeof(std::uint32_t);
    return static_cast<double>(bytes);
}

void ScaleBench::probe_views(const Setup& s) {
    const Graph& g = s.graph();
    PriorityKeys ncr;
    double keys_s = 0.0;
    {
        ScopedSpan span(spans_, "core.priority_keys");
        const Clock::time_point t0 = Clock::now();
        ncr = PriorityKeys(g, PriorityScheme::kNcr);
        const PriorityKeys degree(g, PriorityScheme::kDegree);
        keys_s = seconds_between(t0, Clock::now());
    }
    report_.add("core.priority_keys_s", keys_s, "s");

    // Sampled Definition-2 views of the Static/NCR decision (no broadcast
    // state, so every node is unvisited).
    const std::size_t samples = 16;
    const std::vector<NodeStatus> status(g.node_count(), NodeStatus::kUnvisited);
    const CoverageOptions coverage = kStaticPolicy.generic.coverage;
    Rng rng(runner::splitmix64(opts_.seed ^ 0x5a3b1eULL));
    std::vector<double> compile_ns;
    std::vector<double> kernel_ns;
    double bytes = 0.0;
    std::size_t pruned = 0;
    for (std::size_t k = 0; k < samples; ++k) {
        NodeId v = 0;
        do {
            v = static_cast<NodeId>(rng.index(g.node_count()));
        } while (s.comps.label[v] != s.comps.giant);

        Clock::time_point t0 = Clock::now();
        LocalTopology topo;
        {
            ScopedSpan span(spans_, "graph.view_compile");
            topo = local_topology(g, v, 2);
            compile_topology(topo);
        }
        compile_ns.push_back(seconds_between(t0, Clock::now()) * 1e9);
        bytes += view_bytes(topo);

        const View view(&topo, &status, &ncr);
        LocalViewScratch& scratch = LocalViewScratch::tls();
        scratch.compile(view);
        const std::uint32_t lv = scratch.local_of(v);
        const Priority pv = ncr.evaluate(v, NodeStatus::kUnvisited);
        const bool covered = evaluate_coverage_compiled(scratch, lv, pv, coverage).covered;
        std::vector<double> reps;
        for (int r = 0; r < 3; ++r) {
            ScopedSpan span(spans_, "core.coverage");
            t0 = Clock::now();
            const bool again = evaluate_coverage_compiled(scratch, lv, pv, coverage).covered;
            reps.push_back(seconds_between(t0, Clock::now()) * 1e9);
            report_.gate.check(again == covered, "coverage verdict is repeatable");
        }
        kernel_ns.push_back(median(reps));
        pruned += covered ? 1 : 0;
    }
    report_.add("graph.view_compile_ns", median(compile_ns), "ns");
    report_.add("graph.view_bytes", bytes / static_cast<double>(samples), "bytes");
    report_.add("core.coverage_ns", median(kernel_ns), "ns");
    report_.add("core.prune_ratio", static_cast<double>(pruned) / static_cast<double>(samples),
                "ratio");
}

void ScaleBench::run_traced(bool with_overhead) {
    std::unique_ptr<Setup> s = build_setup();
    const Graph& g = s->graph();
    report_.add("graph.unit_disk_s", s->placement.unit_disk_s, "s");
    report_.add("sim.construct_s", s->construct_s, "s");
    report_.add("sim.cold_run_s", s->cold_run_s, "s");

    probe_views(*s);

    // Own engines run fault-free for the sim.* probes.
    for (auto& engine : s->engines) {
        engine->attach_faults(nullptr);
        engine->set_recovery(recovery(false));
    }

    // sim.*: a warm jobs=4 and a warm jobs=1 engine per policy, same source.
    const NodeId src = s->pool[1];
    double windows = 0.0;
    double peak_queue = 0.0;
    double delivered = 0.0;
    double state_bytes = 0.0;
    for (std::size_t k = 0; k < std::size(kAllPolicies); ++k) {
        const PolicySpec* p = kAllPolicies[k];
        const auto own = std::find(spec_.policies.begin(), spec_.policies.end(), p);
        const auto fresh_engine = [&](std::size_t jobs) {
            std::unique_ptr<ScaleEngine> e;
            {
                ScopedSpan span(spans_, "sim.construct");
                e = std::make_unique<ScaleEngine>(g, engine_config(*p, jobs));
            }
            ScopedSpan span(spans_, "sim.cold_run", ++broadcast_id_);
            (void)e->run(s->pool[0]);
            return e;
        };
        std::unique_ptr<ScaleEngine> extra;
        ScaleEngine* e4 = nullptr;
        if (own != spec_.policies.end()) {
            e4 = s->engines[static_cast<std::size_t>(own - spec_.policies.begin())].get();
        } else {
            extra = fresh_engine(kJobs);
            e4 = extra.get();
        }
        const std::unique_ptr<ScaleEngine> e1 = fresh_engine(1);

        const std::pair<std::size_t, std::size_t> key{100 + k, 1};
        const Timed r4 = timed_run(*e4, src);
        const Signature sig4 =
            check(*s, *e4, p->generic_coverage(), src, nullptr, r4.result, key);
        const Timed r1 = timed_run(*e1, src);
        const Signature sig1 =
            check(*s, *e1, p->generic_coverage(), src, nullptr, r1.result, key);
        report_.gate.check(sig1 == sig4, std::string("jobs=1 and jobs=4 agree: ") + p->name);

        const std::string name = p->name;
        report_.add("sim.run_s." + name, r4.wall, "s");
        report_.add("sim.parallel_speedup." + name, r1.wall / r4.wall, "ratio");
        report_.add("sim.cpu_per_wall." + name, r4.cpu.total() / r4.wall, "ratio");
        report_.add("sim.sys_s." + name, r4.cpu.sys, "s");
        report_.add("sim.forward_ratio." + name,
                    static_cast<double>(r4.result.forward_count) /
                        static_cast<double>(r4.result.received_count),
                    "ratio");
        if (!extra) {
            windows += static_cast<double>(r4.result.windows);
            peak_queue += static_cast<double>(r4.result.peak_queue_events);
            delivered += static_cast<double>(r4.result.delivered_events);
            state_bytes += static_cast<double>(e4->state_bytes());
        }
    }
    const auto own_count = static_cast<double>(spec_.policies.size());
    report_.add("sim.windows", windows / own_count, "count");
    report_.add("sim.peak_queue_events", peak_queue / own_count, "count");
    report_.add("sim.delivered_events", delivered / own_count, "count");
    report_.add("sim.state_bytes_per_node", state_bytes / static_cast<double>(g.node_count()),
                "bytes");

    if (with_overhead) {
        // The workload's first policy, under the workload's conditions,
        // once with the recorder off and once on.
        ScaleEngine& engine = *s->engines[0];
        const faults::FaultPlan* plan = spec_.faulted ? &s->plans[2] : nullptr;
        if (plan != nullptr) {
            engine.set_recovery(recovery(true));
            engine.attach_faults(plan);
        }
        const bool generic = spec_.policies[0]->generic_coverage();
        const std::pair<std::size_t, std::size_t> key{0, 2};
        spans_.set_enabled(false);
        const Timed plain = timed_run(engine, s->pool[2]);
        (void)check(*s, engine, generic, s->pool[2], plan, plain.result, key);
        spans_.set_enabled(true);
        const Timed traced = timed_run(engine, s->pool[2]);
        (void)check(*s, engine, generic, s->pool[2], plan, traced.result, key);
        report_.add("trace.overhead_frac", traced.wall / plain.wall - 1.0, "ratio");
    }
    s.reset();

    // faults.*: always in faulted-1e5's setting (a 10^5-node placement of
    // this seed), whatever the workload: a faulted run of 10^6 nodes takes
    // minutes on the serial replay path.
    ScaleBench faulted(opts_, *find_workload("faulted-1e5", opts_.small), spans_, report_);
    faulted.broadcast_id_ = broadcast_id_;
    faulted.probe_faults();
}

void ScaleBench::probe_faults() {
    std::unique_ptr<Setup> s = build_setup();
    report_.add("faults.plan_s", s->plans_s / static_cast<double>(s->plans.size()), "s");
    double retransmits = 0.0;
    double controls = 0.0;
    double suppressed = 0.0;
    double ratio = 0.0;
    for (std::size_t p = 0; p < spec_.policies.size(); ++p) {
        ScaleEngine& engine = *s->engines[p];
        const bool generic = spec_.policies[p]->generic_coverage();
        // Fault-free: warm the fault-free path, then time the probe source.
        engine.attach_faults(nullptr);
        engine.set_recovery(recovery(false));
        (void)engine.run(s->pool[0]);
        const Timed clean = timed_run(engine, s->pool[1]);
        (void)check(*s, engine, generic, s->pool[1], nullptr, clean.result, std::nullopt);
        // Faulted: the same source under its own plan.
        engine.set_recovery(recovery(true));
        engine.attach_faults(&s->plans[1]);
        const Timed faulted = timed_run(engine, s->pool[1]);
        const Signature sig =
            check(*s, engine, generic, s->pool[1], &s->plans[1], faulted.result, std::nullopt);
        report_.add(std::string("faults.slowdown.") + spec_.policies[p]->name,
                    faulted.wall / clean.wall, "ratio");
        retransmits += static_cast<double>(sig.retransmits);
        controls += static_cast<double>(sig.controls);
        suppressed += static_cast<double>(sig.suppressed);
        ratio += sig.delivery_ratio / static_cast<double>(spec_.policies.size());
    }
    report_.add("faults.retransmits", retransmits, "count");
    report_.add("faults.control_msgs", controls, "count");
    report_.add("faults.suppressed", suppressed, "count");
    report_.add("faults.delivery_ratio", ratio, "ratio");
}

}  // namespace

bool run_scale_workload(const Options& opts, SpanRecorder& spans, Report& report) {
    const std::optional<WorkloadSpec> spec = find_workload(opts.workload, opts.small);
    if (!spec) return false;
    ScaleBench bench(opts, *spec, spans, report);
    if (!opts.trace) {
        bench.run_untraced();
        return true;
    }
    const bool campaign = opts.workload == "paper-campaign";
    bench.run_traced(!campaign);
    campaign_layer_probes(opts, spans, report, campaign);
    return true;
}

}  // namespace perfbench
