// Unit tests for k-hop neighborhoods and Definition-2 local topologies.
//
// The critical behavior is the edge-visibility boundary: G_k(v) contains
// E ∩ (N_{k-1}(v) × N_k(v)) — links between two nodes both exactly k hops
// from v are invisible.  Figure 6(a) of the paper depends on it.

#include "graph/khop.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "graph/traversal.hpp"
#include "graph/unit_disk.hpp"
#include "stats/rng.hpp"

namespace adhoc {
namespace {

TEST(KHop, ZeroHopIsSelf) {
    const Graph g = path_graph(4);
    const auto n0 = k_hop_nodes(g, 2, 0);
    ASSERT_EQ(n0.size(), 1u);
    EXPECT_EQ(n0[0], 2u);
}

TEST(KHop, NodesWithinK) {
    const Graph g = path_graph(6);  // 0-1-2-3-4-5
    const auto n2 = k_hop_nodes(g, 0, 2);
    EXPECT_EQ(n2, (std::vector<NodeId>{0, 1, 2}));
    const auto n9 = k_hop_nodes(g, 0, 9);
    EXPECT_EQ(n9.size(), 6u);
}

TEST(KHop, TwoHopCoverSetExcludesSelf) {
    const Graph g = star_graph(5);
    const auto cover = two_hop_cover_set(g, 1);  // leaf: center + other leaves
    EXPECT_EQ(cover.size(), 4u);
    for (NodeId y : cover) EXPECT_NE(y, 1u);
}

TEST(KHop, LocalTopologyGlobalWhenKZero) {
    const Graph g = cycle_graph(8);
    const LocalTopology t = local_topology(g, 3, 0);
    EXPECT_EQ(t.graph, g);
    for (char v : t.visible) EXPECT_TRUE(v);
}

TEST(KHop, OneHopViewHasNoNeighborNeighborLinks) {
    // Triangle: from node 0 with 1-hop info, the edge (1,2) is invisible.
    Graph g(3);
    g.add_edge(0, 1);
    g.add_edge(0, 2);
    g.add_edge(1, 2);
    const LocalTopology t = local_topology(g, 0, 1);
    EXPECT_TRUE(t.graph.has_edge(0, 1));
    EXPECT_TRUE(t.graph.has_edge(0, 2));
    EXPECT_FALSE(t.graph.has_edge(1, 2));  // both exactly 1 hop away
    EXPECT_TRUE(t.visible[1]);
    EXPECT_TRUE(t.visible[2]);
}

TEST(KHop, TwoHopViewSeesNeighborNeighborLinksButNotBoundary) {
    // Paper Figure 6(a) boundary behavior, distilled: 0-1, 0-2, 1-3, 2-4,
    // 3-4.  From node 0 with 2-hop info: nodes {0..4} minus none... 3 and 4
    // are at distance 2; the link (3,4) joins two exactly-2-hop nodes and
    // must be invisible.
    Graph g(5);
    g.add_edge(0, 1);
    g.add_edge(0, 2);
    g.add_edge(1, 3);
    g.add_edge(2, 4);
    g.add_edge(3, 4);
    const LocalTopology t = local_topology(g, 0, 2);
    EXPECT_TRUE(t.visible[3]);
    EXPECT_TRUE(t.visible[4]);
    EXPECT_TRUE(t.graph.has_edge(1, 3));   // 1-hop x 2-hop: visible
    EXPECT_FALSE(t.graph.has_edge(3, 4));  // 2-hop x 2-hop: invisible

    // With 3-hop information the link becomes visible.
    const LocalTopology t3 = local_topology(g, 0, 3);
    EXPECT_TRUE(t3.graph.has_edge(3, 4));
}

TEST(KHop, InvisibleNodesAreIsolated) {
    const Graph g = path_graph(6);
    const LocalTopology t = local_topology(g, 0, 2);
    EXPECT_FALSE(t.visible[3]);
    EXPECT_FALSE(t.visible[4]);
    EXPECT_EQ(t.graph.degree(3), 0u);
    EXPECT_EQ(t.graph.degree(4), 0u);
    // Edge (2,3) crosses the horizon: 2 is at dist 2, 3 at dist 3 -> gone.
    EXPECT_FALSE(t.graph.has_edge(2, 3));
}

TEST(KHop, LocalTopologyIsSubgraph) {
    const Graph g = grid_graph(4, 4);
    for (std::size_t k = 1; k <= 4; ++k) {
        const LocalTopology t = local_topology(g, 5, k);
        for (const Edge& e : t.graph.edges()) {
            EXPECT_TRUE(g.has_edge(e.a, e.b));
        }
        EXPECT_LE(t.graph.edge_count(), g.edge_count());
    }
}

TEST(KHop, MonotoneInK) {
    const Graph g = grid_graph(4, 4);
    std::size_t prev_edges = 0;
    for (std::size_t k = 1; k <= 6; ++k) {
        const LocalTopology t = local_topology(g, 0, k);
        EXPECT_GE(t.graph.edge_count(), prev_edges);
        prev_edges = t.graph.edge_count();
    }
    EXPECT_EQ(prev_edges, g.edge_count());  // k=6 covers the whole grid
}

TEST(KHop, CenterIsAlwaysVisible) {
    const Graph g = cycle_graph(5);
    for (NodeId v = 0; v < 5; ++v) {
        const LocalTopology t = local_topology(g, v, 1);
        EXPECT_TRUE(t.visible[v]);
        EXPECT_EQ(t.center, v);
    }
}

// ---- the Definition-2 builder against a whole-graph oracle ----------

/// Definition 2 straight from the text: a whole-graph BFS, then every edge
/// (a, b) with min(dist) <= k-1 and max(dist) <= k, on the full id space.
/// `compile_topology` turns it into the CSR the builder must reproduce.
LocalTopology oracle_view(const Graph& g, NodeId v, std::size_t k) {
    const auto dist = bfs_distances(g, v);
    LocalTopology t;
    t.center = v;
    t.hops = k;
    t.visible.assign(g.node_count(), 0);
    t.graph = Graph(g.node_count());
    for (NodeId u = 0; u < g.node_count(); ++u) {
        if (dist[u] != kUnreachable && dist[u] <= k) {
            t.visible[u] = 1;
            t.members.push_back(u);
        }
    }
    for (const Edge& e : g.edges()) {
        const std::size_t da = dist[e.a];
        const std::size_t db = dist[e.b];
        if (da == kUnreachable || db == kUnreachable) continue;
        if (std::min(da, db) <= k - 1 && std::max(da, db) <= k) t.graph.add_edge(e.a, e.b);
    }
    compile_topology(t);
    return t;
}

void expect_builder_matches(const KHopViewBuilder& b, const LocalTopology& want,
                            const std::string& where) {
    ASSERT_EQ(b.members, want.members) << where;
    ASSERT_EQ(b.offsets, want.compact.offsets) << where;
    ASSERT_EQ(b.edges, want.compact.edges) << where;
    for (std::uint32_t i = 0; i < b.members.size(); ++i) {
        ASSERT_EQ(b.local_of(b.members[i]), i) << where;
    }
}

void expect_same_topology(const LocalTopology& got, const LocalTopology& want,
                          const std::string& where) {
    ASSERT_EQ(got.center, want.center) << where;
    ASSERT_EQ(got.hops, want.hops) << where;
    ASSERT_EQ(got.visible, want.visible) << where;
    ASSERT_EQ(got.members, want.members) << where;
    ASSERT_EQ(got.compact.offsets, want.compact.offsets) << where;
    ASSERT_EQ(got.compact.edges, want.compact.edges) << where;
    ASSERT_TRUE(got.graph == want.graph) << where;
}

/// G(n, p) over a spanning tree (so balls are not trivially tiny).
Graph random_gnp(std::size_t n, double p, std::uint64_t seed) {
    std::mt19937_64 rng(seed);
    std::bernoulli_distribution coin(p);
    Graph g(n);
    for (NodeId v = 1; v < n; ++v) g.add_edge(v, static_cast<NodeId>(rng() % v));
    for (NodeId a = 0; a < n; ++a) {
        for (NodeId b = a + 1; b < n; ++b) {
            if (coin(rng)) g.add_edge(a, b);
        }
    }
    return g;
}

/// Flaps random links of `g` and checks one reused builder (and
/// `local_topology`) against the oracle after every flap: a spot check per
/// step, every view at a few checkpoints.
void churn_and_check(Graph g, const std::vector<Edge>& pool, std::size_t k,
                     std::uint64_t seed, const std::string& name) {
    KHopViewBuilder builder;
    std::mt19937_64 rng(seed);
    const std::size_t n = g.node_count();
    for (std::size_t step = 0; step < 90; ++step) {
        const Edge& e = pool[rng() % pool.size()];
        if (!g.remove_edge(e.a, e.b)) g.add_edge(e.a, e.b);
        const std::string where =
            name + " k=" + std::to_string(k) + " step " + std::to_string(step);
        if (step % 30 == 29) {
            for (NodeId v = 0; v < n; ++v) {
                builder.compile(g, v, k);
                expect_builder_matches(builder, oracle_view(g, v, k),
                                       where + " view " + std::to_string(v));
            }
        } else {
            const auto v = static_cast<NodeId>(rng() % n);
            const LocalTopology want = oracle_view(g, v, k);
            builder.compile(g, v, k);
            expect_builder_matches(builder, want, where + " spot " + std::to_string(v));
            expect_same_topology(local_topology(g, v, k), want,
                                 where + " local_topology " + std::to_string(v));
        }
    }
}

TEST(KHopViewBuilder, MatchesDefinitionTwoOracleOnUnitDiskUnderChurn) {
    UnitDiskParams params;
    params.node_count = 80;
    params.average_degree = 6.0;
    Rng gen(0x5eed);
    const UnitDiskNetwork net = generate_network_checked(params, gen);
    // Range-respecting flaps: existing links go down and come back.
    std::vector<Edge> pool = net.graph.edges();
    ASSERT_FALSE(pool.empty());
    for (const std::size_t k : {1u, 2u, 3u}) {
        churn_and_check(net.graph, pool, k, 0x9e09e0 + k, "unit-disk");
    }
}

TEST(KHopViewBuilder, MatchesDefinitionTwoOracleOnGnpUnderChurn) {
    const std::size_t n = 60;
    for (const std::size_t k : {1u, 2u, 3u}) {
        const Graph g = random_gnp(n, 0.05, 0xc0ffee00u + k);
        std::mt19937_64 rng(0xdecade00u + k);
        std::vector<Edge> pool;  // arbitrary pairs: links appear and vanish
        while (pool.size() < 3 * n) {
            const auto a = static_cast<NodeId>(rng() % n);
            const auto b = static_cast<NodeId>(rng() % n);
            if (a != b) pool.push_back(canonical(Edge{a, b}));
        }
        churn_and_check(g, pool, k, 0xdecade00u + k, "gnp");
    }
}

TEST(KHopViewBuilder, SurvivesEpochWraparound) {
    const Graph g = random_gnp(50, 0.08, 0xe90c);
    KHopViewBuilder builder;
    builder.compile(g, 0, 3);  // leaves stale stamps behind
    // The next compile wraps the epoch to 0: stale stamps must neither
    // match the wrapped epoch nor the restarted one.
    builder.epoch = std::numeric_limits<std::uint32_t>::max();
    for (const NodeId v : {NodeId{7}, NodeId{31}}) {
        builder.compile(g, v, 2);
        expect_builder_matches(builder, oracle_view(g, v, 2),
                               "after wrap, view " + std::to_string(v));
    }
}

TEST(KHopViewBuilder, BallMapGrowsPastItsInitialTable) {
    // A star's center sees every leaf at k = 1: a ball of 201 members
    // overflows the initial 64-slot table several times over.
    const Graph star = star_graph(201);
    KHopViewBuilder builder;
    builder.compile(star, 0, 1);
    expect_builder_matches(builder, oracle_view(star, 0, 1), "star center");
    EXPECT_GE(builder.slots.size(), 2 * builder.members.size());
    EXPECT_GT(builder.slots.size(), KHopViewBuilder::kInitialSlots);
    // The grown table keeps serving small balls and big ones, in any order.
    for (const NodeId v : {NodeId{5}, NodeId{0}, NodeId{200}}) {
        for (const std::size_t k : {1u, 2u}) {
            builder.compile(star, v, k);
            expect_builder_matches(builder, oracle_view(star, v, k),
                                   "star view " + std::to_string(v) + " k=" + std::to_string(k));
        }
    }
}

TEST(KHopViewBuilder, BytesFollowTheBallNotTheGraph) {
    // bench_scale's constant-density placement at n = 10^5 (degree ~6).
    const std::size_t n = 100'000;
    Rng rng(0xba11);
    std::vector<Point2D> positions(n);
    for (Point2D& p : positions) p = {rng.uniform(0.0, 1000.0), rng.uniform(0.0, 1000.0)};
    const Graph g = unit_disk_graph(positions, std::sqrt(6.0 * 1e6 / (3.14159265 * n)));
    KHopViewBuilder builder;
    std::size_t largest_ball = 0;
    std::size_t largest_edges = 0;
    for (NodeId v = 0; v < n; v += 97) {
        builder.compile(g, v, 2);
        largest_ball = std::max(largest_ball, builder.members.size());
        largest_edges = std::max(largest_edges, builder.edges.size());
    }
    // Every buffer is O(largest view): the map holds at most 4 slots per
    // member (it doubles past half full); vector growth leaves at most
    // twice the largest ball in members/offsets/bfs/inner and twice the
    // largest edge count in edges.  n-sized scratch would be >= n bytes.
    const std::size_t slots = std::max(4 * largest_ball, KHopViewBuilder::kInitialSlots);
    const std::size_t bound = slots * sizeof(KHopViewBuilder::Slot) +
                              2 * (largest_ball + 1) * (3 * sizeof(NodeId) + 1) +
                              2 * largest_edges * sizeof(std::uint32_t);
    EXPECT_LE(builder.bytes(), bound) << "largest ball " << largest_ball;
    EXPECT_LT(builder.bytes(), n) << "largest ball " << largest_ball;
}

TEST(KHop, LocalTopologyCompactEqualsCompileTopology) {
    const Graph g = random_gnp(40, 0.1, 0xc0de);
    for (const std::size_t k : {0u, 1u, 2u, 3u}) {
        for (NodeId v = 0; v < g.node_count(); v += 7) {
            const LocalTopology t = local_topology(g, v, k);
            LocalTopology recompiled = t;
            recompiled.compact = {};
            compile_topology(recompiled);
            EXPECT_EQ(t.compact.offsets, recompiled.compact.offsets) << k << " " << v;
            EXPECT_EQ(t.compact.edges, recompiled.compact.edges) << k << " " << v;
        }
    }
}

}  // namespace
}  // namespace adhoc
