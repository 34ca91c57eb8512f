// Property test of the view-free shortcut (`covered_without_view`).
//
// The paper shows that Wu–Li's Rule 1 and the leaf case are special cases
// of its coverage condition (PAPER.md §1 item 5), so wherever the shortcut
// says "covered", the coverage kernel over the node's Definition-2 view
// must say so too — for every knob combination `rule1_implies_coverage`
// admits.  ScaleEngine prunes on the shortcut without building the view,
// so a false positive here would silently drop a forwarder there.
//
// Inputs: unit-disk and G(n, p) graphs, k in {2, 3}, ID/Degree/NCR
// priorities, Static timing (no visited nodes) and first-receipt timing
// with random visited chains ending at a neighbor of the decider.

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

/// The coverage option sets the shortcut is checked against.
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
    std::size_t fired = 0;
};

/// Checks every node of `g` with at least one neighbor: wherever the
/// shortcut fires, every admitted option set's kernel verdict is covered.
void check_graph(const Graph& g, const std::string& name, Rng& rng, Tally& tally) {
    const std::size_t n = g.node_count();
    const std::vector<CoverageOptions> options = option_sets();
    for (const PriorityScheme scheme :
         {PriorityScheme::kId, PriorityScheme::kDegree, PriorityScheme::kNcr}) {
        const PriorityKeys keys(g, scheme);
        for (const std::size_t k : {2u, 3u}) {
            for (const bool first_receipt : {false, true}) {
                for (NodeId v = 0; v < n; ++v) {
                    if (g.degree(v) == 0) continue;
                    std::vector<NodeId> visited;
                    if (first_receipt) visited = random_chain(g, v, rng);
                    const Priority pv = keys.evaluate(v, NodeStatus::kUnvisited);
                    ++tally.decisions;
                    if (!covered_without_view(g, v, pv, keys, visited, true)) continue;
                    ++tally.fired;

                    const LocalTopology topo = local_topology(g, v, k);
                    std::vector<NodeStatus> status(n, NodeStatus::kUnvisited);
                    for (const NodeId x : visited) status[x] = NodeStatus::kVisited;
                    const View view(&topo, &status, &keys);
                    LocalViewScratch& s = LocalViewScratch::tls();
                    s.compile(view);
                    for (const CoverageOptions& opts : options) {
                        ASSERT_TRUE(rule1_implies_coverage(k, opts));
                        EXPECT_TRUE(evaluate_coverage_compiled(s, s.local_of(v), pv, opts).covered)
                            << name << " " << to_string(scheme) << " k=" << k
                            << (first_receipt ? " FR" : " Static") << " v=" << v
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
    // Non-trivial: the ROADMAP measured ~37% of decisions at n=10^6.
    EXPECT_GT(tally.fired * 5, tally.decisions) << tally.fired << "/" << tally.decisions;
    std::cout << "unit-disk: shortcut fired on " << tally.fired << " of " << tally.decisions
              << " decisions\n";
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
    EXPECT_GT(tally.fired * 10, tally.decisions) << tally.fired << "/" << tally.decisions;
    std::cout << "G(n, p): shortcut fired on " << tally.fired << " of " << tally.decisions
              << " decisions\n";
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
    ASSERT_TRUE(covered_without_view(g, 0, pv, keys, {}, true));
    EXPECT_FALSE(covered_without_view(g, 0, pv, keys, {}, false));  // no leaf

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
    EXPECT_TRUE(covered_without_view(g, 0, p0, keys, {}, false));  // leaf, gate off
    const Priority p1 = keys.evaluate(1, NodeStatus::kUnvisited);
    EXPECT_FALSE(covered_without_view(g, 1, p1, keys, {}, true));  // 0 and 2 unlinked
}

}  // namespace
}  // namespace adhoc
