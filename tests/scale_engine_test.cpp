/// ScaleEngine correctness: the sharded window-synchronous engine must
/// agree with the reference `Simulator` running blind flooding, and its
/// results — including the canonical order digest — must be identical for
/// every worker-thread count and across repeated runs.
///
/// The generic-coverage differential plane holds the engine to a stricter
/// standard: for every tested (seed × wheels × jobs) point, the forward
/// set (per-node mask), forward count, completion time and the global
/// transmission-order digest must be byte-identical to the serial
/// `Simulator` running `GenericAgent` with the same `GenericConfig`.

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "algorithms/flooding.hpp"
#include "algorithms/generic.hpp"
#include "graph/unit_disk.hpp"
#include "sim/scale_engine.hpp"

namespace adhoc {
namespace {

UnitDiskNetwork make_network(std::size_t n, std::uint64_t seed, double degree = 6.0) {
    UnitDiskParams params;
    params.node_count = n;
    params.average_degree = degree;
    Rng gen(seed);
    return generate_network_checked(params, gen);
}

TEST(ScaleEngine, FloodMatchesReferenceSimulator) {
    const UnitDiskNetwork net = make_network(200, 0xab5e11);
    const NodeId source = 7;

    FloodingAlgorithm reference;
    Rng rng(1);
    const BroadcastResult ref = reference.broadcast(net.graph, source, rng);

    ScaleEngine engine(net.graph, {});
    const ScaleResult got = engine.run(source);

    EXPECT_EQ(got.forward_count, ref.forward_count);
    EXPECT_EQ(got.received_count, ref.received_count);
    EXPECT_DOUBLE_EQ(got.completion_time, ref.completion_time);
    EXPECT_TRUE(got.full_delivery);
    // Flooding on a connected graph: everyone forwards once, and every
    // copy a neighbor hears is one delivered event.
    EXPECT_EQ(got.forward_count, net.graph.node_count());
    EXPECT_EQ(got.delivered_events, 2 * net.graph.edge_count());
}

TEST(ScaleEngine, ResultIndependentOfJobs) {
    const UnitDiskNetwork net = make_network(300, 0x70b5);
    ScaleResult results[3];
    const std::size_t jobs[3] = {1, 4, 13};
    for (int i = 0; i < 3; ++i) {
        ScaleConfig cfg;
        cfg.jobs = jobs[i];
        ScaleEngine engine(net.graph, cfg);
        results[i] = engine.run(0);
    }
    for (int i = 1; i < 3; ++i) {
        EXPECT_EQ(results[i].order_digest, results[0].order_digest) << jobs[i];
        EXPECT_EQ(results[i].delivered_events, results[0].delivered_events) << jobs[i];
        EXPECT_EQ(results[i].forward_count, results[0].forward_count) << jobs[i];
        EXPECT_EQ(results[i].windows, results[0].windows) << jobs[i];
        EXPECT_EQ(results[i].peak_queue_events, results[0].peak_queue_events) << jobs[i];
        EXPECT_DOUBLE_EQ(results[i].completion_time, results[0].completion_time) << jobs[i];
    }
}

TEST(ScaleEngine, RepeatedRunsAreIdentical) {
    const UnitDiskNetwork net = make_network(150, 0x1de3);
    ScaleConfig cfg;
    cfg.jobs = 4;
    ScaleEngine engine(net.graph, cfg);
    const ScaleResult a = engine.run(3);
    const ScaleResult b = engine.run(3);
    EXPECT_EQ(a.order_digest, b.order_digest);
    EXPECT_EQ(a.delivered_events, b.delivered_events);
    EXPECT_EQ(a.forward_count, b.forward_count);
}

TEST(ScaleEngine, WheelCountChangesShardingNotOutcome) {
    const UnitDiskNetwork net = make_network(200, 0x3e11);
    ScaleResult by_wheels[3];
    const std::size_t wheels[3] = {1, 8, 32};
    for (int i = 0; i < 3; ++i) {
        ScaleConfig cfg;
        cfg.wheels = wheels[i];
        cfg.jobs = 2;
        ScaleEngine engine(net.graph, cfg);
        by_wheels[i] = engine.run(5);
    }
    // The digest legitimately depends on the wheel partition (it *is* the
    // merged order), but the physical outcome may not.
    for (int i = 1; i < 3; ++i) {
        EXPECT_EQ(by_wheels[i].delivered_events, by_wheels[0].delivered_events);
        EXPECT_EQ(by_wheels[i].forward_count, by_wheels[0].forward_count);
        EXPECT_EQ(by_wheels[i].received_count, by_wheels[0].received_count);
        EXPECT_DOUBLE_EQ(by_wheels[i].completion_time, by_wheels[0].completion_time);
    }
}

TEST(ScaleEngine, SelfPruneDeliversEverywhereWithFewerForwards) {
    const UnitDiskNetwork net = make_network(250, 0x5e1f);
    ScaleConfig cfg;
    cfg.policy = ScalePolicy::kSelfPrune;
    ScaleEngine engine(net.graph, cfg);
    const ScaleResult pruned = engine.run(0);
    EXPECT_TRUE(pruned.full_delivery);
    EXPECT_LT(pruned.forward_count, net.graph.node_count());
    EXPECT_GE(pruned.forward_count, 1u);
}

TEST(ScaleEngine, RejectsDegenerateConfig) {
    Graph g(4);
    g.add_edge(0, 1);
    ScaleConfig bad_delay;
    bad_delay.delay = 0.0;
    EXPECT_THROW(ScaleEngine(g, bad_delay), std::invalid_argument);
    ScaleConfig bad_wheels;
    bad_wheels.wheels = 0;
    EXPECT_THROW(ScaleEngine(g, bad_wheels), std::invalid_argument);
    ScaleConfig bad_jobs;
    bad_jobs.jobs = 0;
    EXPECT_THROW(ScaleEngine(g, bad_jobs), std::invalid_argument);
}

TEST(ScaleEngine, RejectsOutOfRangeSourceOnEveryPath) {
    Graph g(6);
    for (NodeId v = 0; v + 1 < 6; ++v) g.add_edge(v, v + 1);
    ScaleConfig flood;
    ScaleConfig generic;
    generic.policy = ScalePolicy::kGenericCoverage;
    generic.generic = generic_fr_config(2);
    const faults::FaultPlan plan;  // any attached plan routes to the faulted replay

    for (const bool faulted : {false, true}) {
        for (const ScaleConfig& cfg : {flood, generic}) {
            ScaleEngine engine(g, cfg);
            if (faulted) engine.attach_faults(&plan);
            for (const NodeId bad : {NodeId{6}, kInvalidNode}) {
                try {
                    (void)engine.run(bad);
                    ADD_FAILURE() << "source " << bad << " accepted";
                } catch (const std::invalid_argument& e) {
                    const std::string what = e.what();
                    EXPECT_NE(what.find(std::to_string(bad)), std::string::npos) << what;
                    EXPECT_NE(what.find("6 nodes"), std::string::npos) << what;
                }
            }
            // The rejection happens before any state is touched: the engine
            // still runs a valid broadcast afterwards.
            EXPECT_TRUE(engine.run(0).full_delivery);
        }
    }

    // An empty graph keeps returning the zero result for any source.
    const Graph empty(0);
    ScaleEngine engine(empty, flood);
    const ScaleResult r = engine.run(3);
    EXPECT_EQ(r.forward_count, 0u);
    EXPECT_EQ(r.delivered_events, 0u);
}

// ---- generic coverage differential plane ---------------------------

/// Runs the reference Simulator (serial, event-queue, GenericAgent) and
/// asserts the engine reproduces it byte-for-byte at one (wheels, jobs)
/// point: forward mask, counts, completion time, and the transmission-order
/// digest against the trace fold.  Returns the engine's result.
ScaleConfig generic_engine_config(const GenericConfig& gc, std::size_t wheels,
                                  std::size_t jobs) {
    ScaleConfig cfg;
    cfg.policy = ScalePolicy::kGenericCoverage;
    cfg.generic = gc;
    cfg.wheels = wheels;
    cfg.jobs = jobs;
    return cfg;
}

/// Runs `engine` (fresh or reused) from `source` and asserts it reproduces
/// the reference Simulator byte-for-byte.  Returns the engine's result.
ScaleResult expect_run_matches_simulator(ScaleEngine& engine, const Graph& g, NodeId source) {
    const GenericConfig& gc = engine.config().generic;
    GenericBroadcast reference(gc);
    Rng rng(99);  // the honorable axes never draw from it
    const BroadcastResult ref = reference.broadcast_traced(g, source, rng, MediumConfig{});
    const std::uint64_t ref_digest = reference_transmission_digest(ref.trace);

    const ScaleResult got = engine.run(source);

    const auto tag = ::testing::Message()
                     << "source=" << source << " wheels=" << engine.config().wheels
                     << " jobs=" << engine.config().jobs << " " << gc.summary();
    EXPECT_EQ(engine.forwarded_mask(), ref.transmitted) << tag;
    EXPECT_EQ(engine.received_mask(), ref.received) << tag;
    EXPECT_EQ(got.forward_count, ref.forward_count) << tag;
    EXPECT_EQ(got.received_count, ref.received_count) << tag;
    EXPECT_DOUBLE_EQ(got.completion_time, ref.completion_time) << tag;
    EXPECT_EQ(got.full_delivery, ref.full_delivery) << tag;
    EXPECT_EQ(got.order_digest, ref_digest) << tag;
    return got;
}

ScaleResult expect_engine_matches_simulator(const Graph& g, NodeId source,
                                            const GenericConfig& gc, std::size_t wheels,
                                            std::size_t jobs) {
    ScaleEngine engine(g, generic_engine_config(gc, wheels, jobs));
    return expect_run_matches_simulator(engine, g, source);
}

TEST(ScaleEngineGeneric, FirstReceiptMatchesSimulatorAcrossSeedsWheelsJobs) {
    const std::uint64_t seeds[] = {0x11a, 0x22b, 0x33c};
    const std::size_t wheels[] = {1, 3, 8};
    const std::size_t jobs[] = {1, 4};
    const GenericConfig gc = generic_fr_config(2);  // FR/SP/Degree/h=2
    for (const std::uint64_t seed : seeds) {
        const UnitDiskNetwork net = make_network(180, seed);
        const NodeId source = static_cast<NodeId>(seed % net.graph.node_count());
        for (const std::size_t w : wheels) {
            for (const std::size_t j : jobs) {
                expect_engine_matches_simulator(net.graph, source, gc, w, j);
            }
        }
    }
}

TEST(ScaleEngineGeneric, CrewPathMatchesSimulatorAboveDecisionGate) {
    // Dense and large enough that generic windows cross the decision gate,
    // so jobs=4 really decides on the worker crew: the parallel scan must
    // reproduce the Simulator exactly like the inline one.
    const UnitDiskNetwork net = make_network(1500, 3, 10.0);
    for (const GenericConfig& gc : {generic_static_config(2), generic_fr_config(2)}) {
        for (const std::size_t w : {1ULL, 3ULL, 8ULL}) {
            for (const std::size_t j : {1ULL, 4ULL}) {
                const ScaleResult r =
                    expect_engine_matches_simulator(net.graph, 0, gc, w, j);
                EXPECT_GE(r.peak_queue_events * ScaleEngine::kDecisionWeight,
                          ScaleEngine::kParallelWindow)
                    << "peak " << r.peak_queue_events << " " << gc.summary();
            }
        }
    }
}

TEST(ScaleEngineGeneric, StaticTimingMatchesSimulator) {
    const GenericConfig gc = generic_static_config(2);  // Static/SP/NCR
    for (const std::uint64_t seed : {0x44dULL, 0x55eULL}) {
        const UnitDiskNetwork net = make_network(150, seed);
        for (const std::size_t w : {1ULL, 5ULL}) {
            expect_engine_matches_simulator(net.graph, 0, gc, w, 3);
        }
    }
}

TEST(ScaleEngineGeneric, KnobVariationsMatchSimulator) {
    const UnitDiskNetwork net = make_network(160, 0x66f);
    // Sweep the paper's knobs across the honorable subset: view depth,
    // history length, priority scheme, strong vs full coverage.
    GenericConfig hops3 = generic_fr_config(3);
    GenericConfig no_history = generic_fr_config(2);
    no_history.history = 0;
    GenericConfig long_history = generic_fr_config(2);
    long_history.history = 5;
    GenericConfig by_id = generic_fr_config(2, PriorityScheme::kId);
    GenericConfig strong = generic_fr_config(2);
    strong.coverage.strong = true;
    std::vector<GenericConfig> configs{hops3, no_history, long_history, by_id, strong};
    // The knobs that gate the view-free Rule-1 shortcut: it must stay off
    // at hops = 1 and max_path_hops = 1, and may fire everywhere else.
    configs.push_back(generic_static_config(1));
    configs.push_back(generic_fr_config(1));
    for (const std::size_t max_hops : {1u, 2u, 3u}) {
        GenericConfig bounded = generic_fr_config(2);
        bounded.coverage.max_path_hops = max_hops;
        configs.push_back(bounded);
    }
    GenericConfig radius1 = generic_fr_config(2);
    radius1.coverage.coverage_radius = 1;
    configs.push_back(radius1);
    GenericConfig unmerged = generic_fr_config(2);
    unmerged.coverage.merge_visited = false;
    configs.push_back(unmerged);
    for (const GenericConfig& gc : configs) {
        expect_engine_matches_simulator(net.graph, 9, gc, 6, 4);
    }
}

TEST(ScaleEngineGeneric, DigestIndependentOfWheelsAndJobs) {
    // Unlike the per-wheel-fold flood digest, the generic digest is the
    // global transmission order: one value per (graph, source, config).
    const UnitDiskNetwork net = make_network(220, 0x777);
    // So is the view-compile count: one per decision the Rule-1/leaf
    // shortcut did not settle.
    std::uint64_t first = 0;
    std::size_t first_compiles = 0;
    bool have_first = false;
    for (const std::size_t w : {1ULL, 4ULL, 16ULL}) {
        for (const std::size_t j : {1ULL, 8ULL}) {
            ScaleEngine engine(net.graph, generic_engine_config(generic_fr_config(2), w, j));
            const ScaleResult r = engine.run(1);
            if (!have_first) {
                first = r.order_digest;
                first_compiles = r.view_compiles;
                have_first = true;
                EXPECT_GT(r.view_compiles, 0u);
                EXPECT_LT(r.view_compiles, r.received_count - 1);  // the shortcut fired
            }
            EXPECT_EQ(r.order_digest, first) << "wheels=" << w << " jobs=" << j;
            EXPECT_EQ(r.view_compiles, first_compiles) << "wheels=" << w << " jobs=" << j;
        }
    }
}

/// Two unit-disk networks side by side: node ids [0, a) and [a, a + b).
Graph disjoint_union(const Graph& a, const Graph& b) {
    const auto offset = static_cast<NodeId>(a.node_count());
    Graph g(a.node_count() + b.node_count());
    for (NodeId v = 0; v < a.node_count(); ++v) {
        for (const NodeId x : a.neighbors(v)) {
            if (v < x) g.add_edge(v, x);
        }
    }
    for (NodeId v = 0; v < b.node_count(); ++v) {
        for (const NodeId x : b.neighbors(v)) {
            if (v < x) g.add_edge(offset + v, offset + x);
        }
    }
    return g;
}

TEST(ScaleEngineGeneric, StaticVerdictsRecalledAcrossRuns) {
    // One Static engine serves a sequence of broadcasts: the first run in
    // each component computes its verdicts, later runs recall them.  Every
    // run must still equal a fresh engine and the reference Simulator.
    const Graph g = disjoint_union(make_network(120, 0x8a1).graph,
                                   make_network(90, 0x8b2).graph);
    const NodeId sources[] = {3, 130, 40, 3, 200};  // components A, B, A, A, B
    const GenericConfig gc = generic_static_config(2);
    for (const std::size_t w : {1ULL, 3ULL, 8ULL}) {
        for (const std::size_t j : {1ULL, 4ULL}) {
            ScaleEngine engine(g, generic_engine_config(gc, w, j));
            for (std::size_t i = 0; i < std::size(sources); ++i) {
                const NodeId source = sources[i];
                const auto tag = ::testing::Message()
                                 << "run " << i << " source=" << source << " wheels=" << w
                                 << " jobs=" << j;
                const ScaleResult got = expect_run_matches_simulator(engine, g, source);
                const ScaleResult fresh = expect_engine_matches_simulator(g, source, gc, w, j);
                EXPECT_EQ(got.forward_count, fresh.forward_count) << tag;
                EXPECT_EQ(got.received_count, fresh.received_count) << tag;
                EXPECT_EQ(got.delivered_events, fresh.delivered_events) << tag;
                EXPECT_EQ(got.order_digest, fresh.order_digest) << tag;
                EXPECT_EQ(fresh.recalled_verdicts, 0u) << tag;
                // A component's first broadcast computes every verdict.
                // Later, only its first source has never decided, and a
                // repeat of that source has nothing left to compute.
                const std::size_t decisions = got.received_count - 1;
                const std::size_t computed = i < 2 ? decisions : i == 3 ? 0 : 1;
                EXPECT_EQ(got.recalled_verdicts, decisions - computed) << tag;
                EXPECT_LE(got.view_compiles, computed) << tag;
                if (i < 2) {
                    EXPECT_EQ(got.view_compiles, fresh.view_compiles) << tag;
                }
            }
        }
    }
}

TEST(ScaleEngineGeneric, FirstReceiptEngineReusedAcrossSourcesRecallsNothing) {
    // FR verdicts read the first packet's chain, so a reused FR engine
    // recomputes every decision and still equals a fresh one.
    const UnitDiskNetwork net = make_network(160, 0x8c3);
    const GenericConfig gc = generic_fr_config(2);
    ScaleEngine engine(net.graph, generic_engine_config(gc, 4, 4));
    for (const NodeId source : {5u, 77u, 5u}) {
        const ScaleResult got = expect_run_matches_simulator(engine, net.graph, source);
        const ScaleResult fresh = expect_engine_matches_simulator(net.graph, source, gc, 4, 4);
        EXPECT_EQ(got.order_digest, fresh.order_digest) << "source=" << source;
        EXPECT_EQ(got.view_compiles, fresh.view_compiles) << "source=" << source;
        EXPECT_EQ(got.recalled_verdicts, 0u) << "source=" << source;
    }
}

TEST(ScaleEngineGeneric, RejectsUnhonorableGenericKnobs) {
    Graph g(8);
    for (NodeId v = 0; v + 1 < 8; ++v) g.add_edge(v, v + 1);
    ScaleConfig cfg;
    cfg.policy = ScalePolicy::kGenericCoverage;

    cfg.generic = generic_frb_config(2);  // backoff needs timers + RNG
    EXPECT_THROW(ScaleEngine(g, cfg), std::invalid_argument);
    cfg.generic = generic_frbd_config(2);
    EXPECT_THROW(ScaleEngine(g, cfg), std::invalid_argument);

    cfg.generic = generic_fr_config(2);
    cfg.generic.selection = Selection::kNeighborDesignating;
    EXPECT_THROW(ScaleEngine(g, cfg), std::invalid_argument);

    cfg.generic = generic_fr_config(2);
    cfg.generic.hops = 0;  // global views
    EXPECT_THROW(ScaleEngine(g, cfg), std::invalid_argument);

    cfg.generic = generic_fr_config(2);  // honorable again: must construct
    EXPECT_NO_THROW(ScaleEngine(g, cfg));
}

}  // namespace
}  // namespace adhoc
