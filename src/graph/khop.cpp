#include "graph/khop.hpp"

#include <algorithm>
#include <cassert>

#include "graph/traversal.hpp"

namespace adhoc {

std::vector<NodeId> k_hop_nodes(const Graph& g, NodeId v, std::size_t k) {
    assert(g.contains(v));
    const auto dist = bfs_distances(g, v);
    std::vector<NodeId> nodes;
    for (NodeId u = 0; u < g.node_count(); ++u) {
        if (dist[u] != kUnreachable && dist[u] <= k) nodes.push_back(u);
    }
    return nodes;
}

std::vector<NodeId> two_hop_cover_set(const Graph& g, NodeId v) {
    const auto dist = bfs_distances(g, v);
    std::vector<NodeId> nodes;
    for (NodeId u = 0; u < g.node_count(); ++u) {
        if (u != v && dist[u] != kUnreachable && dist[u] <= 2) nodes.push_back(u);
    }
    return nodes;
}

void populate_members(LocalTopology& topo) {
    if (!topo.members.empty()) return;
    topo.members.reserve(topo.visible.size());
    for (NodeId u = 0; u < topo.visible.size(); ++u) {
        if (topo.visible[u]) topo.members.push_back(u);
    }
}

void compile_topology(LocalTopology& topo) {
    if (!topo.compact.offsets.empty()) return;
    populate_members(topo);
    const std::vector<NodeId>& mem = topo.members;
    CompactTopology& ct = topo.compact;
    ct.offsets.reserve(mem.size() + 1);
    ct.offsets.push_back(0);
    for (const NodeId v : mem) {
        for (const NodeId y : topo.graph.neighbors(v)) {
            // Members are sorted, so local ids come from a binary search;
            // edges to non-members (hand-built topologies) are dropped.
            const auto it = std::lower_bound(mem.begin(), mem.end(), y);
            if (it != mem.end() && *it == y) {
                ct.edges.push_back(static_cast<std::uint32_t>(it - mem.begin()));
            }
        }
        ct.offsets.push_back(static_cast<std::uint32_t>(ct.edges.size()));
    }
}

void KHopViewBuilder::compile(const Graph& g, NodeId v, std::size_t k) {
    assert(k >= 1 && g.contains(v));
    const std::size_t n = g.node_count();
    if (stamp.size() < n) {
        stamp.resize(n, 0);
        dist.resize(n);
        g2l.resize(n);
    }
    if (++epoch == 0) {  // wrap: invalidate everything once
        std::fill(stamp.begin(), stamp.end(), 0);
        epoch = 1;
    }
    bfs.clear();
    bfs.push_back(v);
    stamp[v] = epoch;
    dist[v] = 0;
    for (std::size_t head = 0; head < bfs.size(); ++head) {
        const NodeId x = bfs[head];
        if (dist[x] == k) continue;
        for (NodeId y : g.neighbors(x)) {
            if (stamp[y] == epoch) continue;
            stamp[y] = epoch;
            dist[y] = static_cast<std::uint16_t>(dist[x] + 1);
            bfs.push_back(y);
        }
    }
    members.assign(bfs.begin(), bfs.end());
    std::sort(members.begin(), members.end());
    const auto m = static_cast<std::uint32_t>(members.size());
    for (std::uint32_t i = 0; i < m; ++i) g2l[members[i]] = i;
    offsets.resize(m + 1);
    edges.clear();
    // Both ends being members bounds max(dist) at k already; only the
    // k-to-k links need dropping.
    const std::size_t interior = k - 1;
    for (std::uint32_t i = 0; i < m; ++i) {
        offsets[i] = static_cast<std::uint32_t>(edges.size());
        const NodeId a = members[i];
        const bool a_interior = dist[a] <= interior;
        for (NodeId b : g.neighbors(a)) {
            if (stamp[b] != epoch) continue;                  // outside the ball
            if (!a_interior && dist[b] > interior) continue;  // k-to-k link
            edges.push_back(g2l[b]);
        }
    }
    offsets[m] = static_cast<std::uint32_t>(edges.size());
}

std::size_t KHopViewBuilder::bytes() const noexcept {
    return members.capacity() * sizeof(NodeId) +
           offsets.capacity() * sizeof(std::uint32_t) +
           edges.capacity() * sizeof(std::uint32_t) + bfs.capacity() * sizeof(NodeId) +
           dist.capacity() * sizeof(std::uint16_t) +
           stamp.capacity() * sizeof(std::uint32_t) + g2l.capacity() * sizeof(std::uint32_t);
}

LocalTopology local_topology(const Graph& g, NodeId v, std::size_t k) {
    assert(g.contains(v));
    LocalTopology local;
    local.center = v;
    local.hops = k;

    if (k == 0) {  // global information
        local.graph = g;
        local.visible.assign(g.node_count(), 1);
        populate_members(local);
        return local;
    }

    thread_local KHopViewBuilder builder;
    builder.compile(g, v, k);
    local.members = builder.members;
    local.compact.offsets = builder.offsets;
    local.compact.edges = builder.edges;
    // The full-id-space graph and mask, filled from the ball.  Rows are in
    // ascending local (== global) order, so every insert appends.
    local.visible.assign(g.node_count(), 0);
    local.graph = Graph(g.node_count());
    const auto m = static_cast<std::uint32_t>(builder.members.size());
    for (std::uint32_t i = 0; i < m; ++i) {
        const NodeId a = builder.members[i];
        local.visible[a] = 1;
        for (const std::uint32_t j : builder.row(i)) {
            if (j > i) local.graph.add_edge(a, builder.members[j]);
        }
    }
    return local;
}

}  // namespace adhoc
