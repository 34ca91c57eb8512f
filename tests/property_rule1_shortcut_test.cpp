// Property test of the view-free special cases (`settle_without_view`).
//
// The paper shows that Wu–Li's Rule 1 and the leaf case are special cases
// of its coverage condition (PAPER.md §1 item 5), so wherever they say
// "pruned", the coverage kernel over the node's Definition-2 view must say
// "covered" — for every knob combination `rule1_implies_coverage` admits.
// The forward witness is the other side: wherever it says "forwards", the
// kernel must say "not covered" under every knob combination.
// ScaleEngine settles both verdicts without building the view, so a false
// hit here would silently drop or add a forwarder there.
//
// Inputs: unit-disk and G(n, p) graphs, k in {1, 2, 3}, ID/Degree/NCR
// priorities, Static timing (no visited nodes), first-receipt timing with
// random visited chains ending at a neighbor of the decider, and arbitrary
// random visited sets (the witness' proof does not use the chain's shape).

#include <gtest/gtest.h>

#include <iostream>
#include <string>
#include <vector>

#include "core/compact_view.hpp"
#include "core/coverage.hpp"
#include "core/view.hpp"
#include "graph/khop.hpp"
#include "graph/unit_disk.hpp"
#include "stats/rng.hpp"

namespace adhoc {
namespace {

/// G(n, p) over a random spanning tree, so balls are not trivially tiny.
Graph random_gnp(std::size_t n, double p, Rng& rng) {
    Graph g(n);
    for (NodeId v = 1; v < n; ++v) g.add_edge(v, static_cast<NodeId>(rng.index(v)));
    for (NodeId a = 0; a < n; ++a) {
        for (NodeId b = a + 1; b < n; ++b) {
            if (rng.chance(p)) g.add_edge(a, b);
        }
    }
    return g;
}

/// A first-receipt history: a random walk of 1..3 forwarders whose last
/// entry (the sender) is a neighbor of `v`, listed oldest first.
std::vector<NodeId> random_chain(const Graph& g, NodeId v, Rng& rng) {
    std::vector<NodeId> chain;
    NodeId at = g.neighbors(v)[rng.index(g.degree(v))];
    chain.push_back(at);
    const std::size_t extra = rng.index(3);
    for (std::size_t i = 0; i < extra && g.degree(at) > 0; ++i) {
        at = g.neighbors(at)[rng.index(g.degree(at))];
        if (at == v) break;
        chain.insert(chain.begin(), at);
    }
    return chain;
}

/// A visited set of any shape: each node but `v` with probability 1/4.
std::vector<NodeId> random_visited_set(const Graph& g, NodeId v, Rng& rng) {
    std::vector<NodeId> visited;
    for (NodeId x = 0; x < g.node_count(); ++x) {
        if (x != v && rng.chance(0.25)) visited.push_back(x);
    }
    return visited;
}

/// The coverage option sets the special cases are checked against.
std::vector<CoverageOptions> option_sets() {
    std::vector<CoverageOptions> out(1);  // full condition, unbounded paths
    out.emplace_back().strong = true;
    out.emplace_back().max_path_hops = 2;
    out.emplace_back().max_path_hops = 3;
    out.emplace_back().coverage_radius = 1;
    out.emplace_back().merge_visited = false;
    return out;
}

struct Tally {
    std::size_t decisions = 0;
    std::size_t pruned = 0;     ///< leaf or Rule 1
    std::size_t forwards = 0;   ///< forward witness
    std::size_t gated = 0;      ///< decisions with Rule 1 admitted (k >= 2)
    std::size_t rule1_hits = 0; ///< pruned among the gated decisions
};

enum class Visits { kStatic, kChain, kAnySet };

const char* to_string(Visits visits) {
    switch (visits) {
        case Visits::kStatic: return "Static";
        case Visits::kChain: return "FR";
        case Visits::kAnySet: return "any-visited-set";
    }
    return "?";
}

/// Checks every node of `g` with at least one neighbor: wherever the
/// special cases settle a verdict, every option set's kernel verdict
/// agrees (covered for kPruned, not covered for kForwards).
void check_graph(const Graph& g, const std::string& name, Rng& rng, Tally& tally) {
    const std::size_t n = g.node_count();
    const std::vector<CoverageOptions> options = option_sets();
    for (const PriorityScheme scheme :
         {PriorityScheme::kId, PriorityScheme::kDegree, PriorityScheme::kNcr}) {
        const PriorityKeys keys(g, scheme);
        for (const std::size_t k : {1u, 2u, 3u}) {
            const bool rule1 = rule1_implies_coverage(k, CoverageOptions{});
            for (const Visits visits : {Visits::kStatic, Visits::kChain, Visits::kAnySet}) {
                for (NodeId v = 0; v < n; ++v) {
                    if (g.degree(v) == 0) continue;
                    std::vector<NodeId> visited;
                    if (visits == Visits::kChain) visited = random_chain(g, v, rng);
                    if (visits == Visits::kAnySet) visited = random_visited_set(g, v, rng);
                    const Priority pv = keys.evaluate(v, NodeStatus::kUnvisited);
                    ++tally.decisions;
                    tally.gated += rule1 ? 1 : 0;
                    const Settled verdict = settle_without_view(g, v, pv, keys, visited, rule1);
                    if (verdict == Settled::kUnsettled) continue;
                    const bool pruned = verdict == Settled::kPruned;
                    ++(pruned ? tally.pruned : tally.forwards);
                    tally.rule1_hits += pruned && rule1 ? 1 : 0;

                    const LocalTopology topo = local_topology(g, v, k);
                    std::vector<NodeStatus> status(n, NodeStatus::kUnvisited);
                    for (const NodeId x : visited) status[x] = NodeStatus::kVisited;
                    const View view(&topo, &status, &keys);
                    LocalViewScratch& s = LocalViewScratch::tls();
                    s.compile(view);
                    for (const CoverageOptions& opts : options) {
                        if (pruned && g.degree(v) > 1) {
                            ASSERT_TRUE(rule1_implies_coverage(k, opts));
                        }
                        EXPECT_EQ(evaluate_coverage_compiled(s, s.local_of(v), pv, opts).covered,
                                  pruned)
                            << name << " " << to_string(scheme) << " k=" << k << " "
                            << to_string(visits) << " v=" << v
                            << (pruned ? " pruned" : " forwards")
                            << " strong=" << opts.strong
                            << " max_path_hops=" << opts.max_path_hops
                            << " radius=" << opts.coverage_radius
                            << " merge=" << opts.merge_visited;
                    }
                }
            }
        }
    }
}

void print_rates(const char* family, const Tally& tally) {
    std::cout << family << ": pruned (leaf or Rule 1) " << tally.pruned << ", forward witness "
              << tally.forwards << " of " << tally.decisions << " decisions ("
              << tally.rule1_hits << " pruned of " << tally.gated << " with Rule 1 admitted)\n";
}

TEST(Rule1Shortcut, ImpliesCoveredOnUnitDiskGraphs) {
    Rng rng(0x1e1f);
    Tally tally;
    for (const double degree : {6.0, 10.0}) {
        for (std::size_t rep = 0; rep < 3; ++rep) {
            UnitDiskParams params;
            params.node_count = 70;
            params.average_degree = degree;
            const UnitDiskNetwork net = generate_network_checked(params, rng);
            check_graph(net.graph, "unit-disk d=" + std::to_string(degree), rng, tally);
        }
    }
    // Non-trivial: at n=10^6 Rule 1 settles ~37% of decisions and the
    // forward witness ~34%; visited sets make the witness rarer here.
    EXPECT_GT(tally.rule1_hits * 5, tally.gated) << tally.rule1_hits << "/" << tally.gated;
    EXPECT_GT(tally.forwards * 10, tally.decisions) << tally.forwards << "/" << tally.decisions;
    print_rates("unit-disk", tally);
}

TEST(Rule1Shortcut, ImpliesCoveredOnGnpGraphs) {
    Rng rng(0x6e9);
    Tally tally;
    // Sparse G(n, p) has few triangles, so Rule 1 fires mostly at leaves;
    // dense small graphs give it neighbors that see each other.
    const struct {
        std::size_t n;
        double p;
    } shapes[] = {{50, 0.08}, {16, 0.6}, {12, 0.8}};
    for (const auto& shape : shapes) {
        for (std::size_t rep = 0; rep < 3; ++rep) {
            const Graph g = random_gnp(shape.n, shape.p, rng);
            check_graph(g, "gnp n=" + std::to_string(shape.n) + " p=" + std::to_string(shape.p),
                        rng, tally);
        }
    }
    EXPECT_GT(tally.rule1_hits * 10, tally.gated) << tally.rule1_hits << "/" << tally.gated;
    EXPECT_GT(tally.forwards * 10, tally.decisions) << tally.forwards << "/" << tally.decisions;
    print_rates("G(n, p)", tally);
}

TEST(Rule1Shortcut, GateExcludesKnobsWhereRuleOneIsNotCoverage) {
    // With k = 1 the links among v's neighbors are invisible, and with
    // max_path_hops = 1 no replacement path may have an intermediate: in
    // both, a Rule-1 hit need not be covered.  Node 0's neighbors are
    // 1, 2, 3; neighbor 2 outranks it (ID priority) and is adjacent to 1
    // and 3, so Rule 1 fires, yet the pair (1, 3) needs 2 as an
    // intermediate.
    Graph g(4);
    g.add_edge(0, 1);
    g.add_edge(0, 2);
    g.add_edge(1, 2);
    g.add_edge(0, 3);
    g.add_edge(2, 3);
    const PriorityKeys keys(g, PriorityScheme::kId);
    const Priority pv = keys.evaluate(0, NodeStatus::kUnvisited);
    ASSERT_EQ(settle_without_view(g, 0, pv, keys, {}, true), Settled::kPruned);
    // No leaf, and each neighbor of node 0 has another neighbor that
    // outranks node 0, so no forward witness.
    EXPECT_EQ(settle_without_view(g, 0, pv, keys, {}, false), Settled::kUnsettled);

    CoverageOptions one_hop_paths;
    one_hop_paths.max_path_hops = 1;
    EXPECT_FALSE(rule1_implies_coverage(1, CoverageOptions{}));
    EXPECT_FALSE(rule1_implies_coverage(3, one_hop_paths));
    EXPECT_TRUE(rule1_implies_coverage(2, CoverageOptions{}));

    const std::vector<NodeStatus> status(4, NodeStatus::kUnvisited);
    const LocalTopology k1 = local_topology(g, 0, 1);
    EXPECT_FALSE(evaluate_coverage(View(&k1, &status, &keys), 0).covered);
    const LocalTopology k2 = local_topology(g, 0, 2);
    EXPECT_FALSE(evaluate_coverage(View(&k2, &status, &keys), 0, one_hop_paths).covered);
    EXPECT_TRUE(evaluate_coverage(View(&k2, &status, &keys), 0).covered);
}

TEST(Rule1Shortcut, LeafIsCoveredUnderAnyKnobs) {
    const Graph g = path_graph(3);  // 0 - 1 - 2
    const PriorityKeys keys(g, PriorityScheme::kId);
    const Priority p0 = keys.evaluate(0, NodeStatus::kUnvisited);
    // A leaf, with the Rule-1 gate off.
    EXPECT_EQ(settle_without_view(g, 0, p0, keys, {}, false), Settled::kPruned);
    // 0 and 2 unlinked, and leaf 0 has no other neighbor: the forward
    // witness.
    const Priority p1 = keys.evaluate(1, NodeStatus::kUnvisited);
    EXPECT_EQ(settle_without_view(g, 1, p1, keys, {}, true), Settled::kForwards);
}

/// Statuses with exactly `visited` visited.
std::vector<NodeStatus> statuses(const Graph& g, const std::vector<NodeId>& visited) {
    std::vector<NodeStatus> status(g.node_count(), NodeStatus::kUnvisited);
    for (const NodeId x : visited) status[x] = NodeStatus::kVisited;
    return status;
}

TEST(ForwardWitness, FiresWhenNoNeighborOfUOutranksV) {
    // ID priority, v = 5 with neighbors 1, 6, 7.  Node 1's other neighbors
    // 0 and 2 rank below 5, and 1 misses 6: v forwards, although G holds
    // the path 1 - 2 - 7 - 6 (its intermediate 2 ranks below v).
    Graph g(8);
    for (const NodeId x : {1, 6, 7}) g.add_edge(5, x);
    g.add_edge(1, 0);
    g.add_edge(1, 2);
    g.add_edge(2, 7);
    g.add_edge(6, 7);
    const PriorityKeys keys(g, PriorityScheme::kId);
    const Priority pv = keys.evaluate(5, NodeStatus::kUnvisited);
    for (const bool rule1 : {false, true}) {
        EXPECT_EQ(settle_without_view(g, 5, pv, keys, {}, rule1), Settled::kForwards);
    }
    const std::vector<NodeStatus> status = statuses(g, {});
    for (const std::size_t k : {1u, 2u, 3u}) {
        const LocalTopology topo = local_topology(g, 5, k);
        for (const CoverageOptions& opts : option_sets()) {
            EXPECT_FALSE(evaluate_coverage(View(&topo, &status, &keys), 5, opts).covered)
                << "k=" << k << " strong=" << opts.strong
                << " max_path_hops=" << opts.max_path_hops
                << " radius=" << opts.coverage_radius << " merge=" << opts.merge_visited;
        }
    }
}

TEST(ForwardWitness, FiresWhenUOutranksVButNoOtherNeighborOfUDoes) {
    // ID priority, v = 5 with neighbors 1 and 7.  Node 7 outranks v, but
    // its other neighbors 0 and 2 do not, so 7 is alone in the
    // higher-priority subgraph and misses 1: v forwards, although G holds
    // the path 7 - 2 - 6 - 1.  Node 1 is no witness (its neighbor 6
    // outranks v), and 7 fails Rule 1, so only the witness at a
    // higher-ranked u settles this decision.
    Graph g(8);
    g.add_edge(5, 1);
    g.add_edge(5, 7);
    g.add_edge(7, 0);
    g.add_edge(7, 2);
    g.add_edge(2, 6);
    g.add_edge(1, 6);
    const PriorityKeys keys(g, PriorityScheme::kId);
    const Priority pv = keys.evaluate(5, NodeStatus::kUnvisited);
    for (const bool rule1 : {false, true}) {
        EXPECT_EQ(settle_without_view(g, 5, pv, keys, {}, rule1), Settled::kForwards);
    }
    // A visited 7 joins the merged visited component: no witness.
    const std::vector<NodeId> seven = {7};
    EXPECT_EQ(settle_without_view(g, 5, pv, keys, seven, true), Settled::kUnsettled);
    const std::vector<NodeStatus> status = statuses(g, {});
    for (const std::size_t k : {1u, 2u, 3u}) {
        const LocalTopology topo = local_topology(g, 5, k);
        for (const CoverageOptions& opts : option_sets()) {
            EXPECT_FALSE(evaluate_coverage(View(&topo, &status, &keys), 5, opts).covered)
                << "k=" << k << " strong=" << opts.strong
                << " max_path_hops=" << opts.max_path_hops
                << " radius=" << opts.coverage_radius << " merge=" << opts.merge_visited;
        }
    }
}

TEST(ForwardWitness, SilentWhenUIsAdjacentToAllOtherNeighbors) {
    // v = 5's neighbors 1, 2, 3 all rank below it and form a triangle:
    // each u sees every other neighbor, so the full condition over a
    // k >= 2 view covers v with no intermediate.  Neither special case
    // applies.
    Graph g(6);
    for (const NodeId x : {1, 2, 3}) g.add_edge(5, x);
    g.add_edge(1, 2);
    g.add_edge(1, 3);
    g.add_edge(2, 3);
    g.add_edge(0, 1);
    const PriorityKeys keys(g, PriorityScheme::kId);
    const Priority pv = keys.evaluate(5, NodeStatus::kUnvisited);
    EXPECT_EQ(settle_without_view(g, 5, pv, keys, {}, true), Settled::kUnsettled);
    const std::vector<NodeStatus> status = statuses(g, {});
    for (const std::size_t k : {2u, 3u}) {
        const LocalTopology topo = local_topology(g, 5, k);
        EXPECT_TRUE(evaluate_coverage(View(&topo, &status, &keys), 5).covered) << "k=" << k;
    }
}

TEST(ForwardWitness, SilentWhenUIsVisited) {
    // v = 5's neighbors are 1 and 2, and 1 has no other neighbor.  With 1
    // and 3 visited, 1 outranks v and shares the merged visited component
    // with 3, which is adjacent to 2: the pair (1, 2) is covered.  The
    // witness must not take 1, however low its id.
    Graph g(6);
    g.add_edge(5, 1);
    g.add_edge(5, 2);
    g.add_edge(2, 3);
    g.add_edge(3, 0);
    const PriorityKeys keys(g, PriorityScheme::kId);
    const Priority pv = keys.evaluate(5, NodeStatus::kUnvisited);
    const std::vector<NodeId> visited = {1, 3};
    EXPECT_EQ(settle_without_view(g, 5, pv, keys, visited, true), Settled::kUnsettled);
    const std::vector<NodeStatus> status = statuses(g, visited);
    const LocalTopology topo = local_topology(g, 5, 2);
    EXPECT_TRUE(evaluate_coverage(View(&topo, &status, &keys), 5).covered);
}

}  // namespace
}  // namespace adhoc
