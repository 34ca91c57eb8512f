#include "graph/khop.hpp"

#include <algorithm>
#include <bit>
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

namespace {

/// Fills `topo.members` from `topo.visible` (ascending) unless given.
void populate_members(LocalTopology& topo) {
    if (!topo.members.empty()) return;
    topo.members.reserve(topo.visible.size());
    for (NodeId u = 0; u < topo.visible.size(); ++u) {
        if (topo.visible[u]) topo.members.push_back(u);
    }
}

}  // namespace

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
    if (slots.empty()) {
        slots.assign(kInitialSlots, Slot{});
        shift_ = 64 - static_cast<unsigned>(std::countr_zero(kInitialSlots));
    }
    if (++epoch == 0) {  // wrap: invalidate everything once
        for (Slot& s : slots) s.stamp = 0;
        epoch = 1;
    }
    // Visible links are exactly those with an inner end (within k - 1
    // hops), and every neighbor of an inner node is a member.  So an inner
    // row is its whole adjacency row, and a depth-k row holds the inner
    // nodes that list it.  Only inner rows are ever read.
    bfs.clear();
    bfs.push_back(v);
    slots[probe(v)] = {v, epoch, 0, kInner};
    // The queue is in level order: `depth` is bfs[head]'s distance, and
    // the first node at depth k ends the expansion.
    std::uint32_t depth = 0;
    for (std::size_t head = 0, level_end = 1; head < bfs.size(); ++head) {
        if (head == level_end) {
            ++depth;
            level_end = bfs.size();
        }
        if (depth == k) break;
        for (NodeId y : g.neighbors(bfs[head])) {
            Slot& s = slots[probe(y)];
            if (s.stamp == epoch) {
                if (s.links != kInner) ++s.links;  // one more inner neighbor
                continue;
            }
            s = {y, epoch, 0, depth + 1 < k ? kInner : 1};
            bfs.push_back(y);
            if (2 * bfs.size() > slots.size()) grow();
        }
    }
    members.assign(bfs.begin(), bfs.end());
    std::sort(members.begin(), members.end());
    const auto m = static_cast<std::uint32_t>(members.size());
    inner.resize(m);
    offsets.resize(m + 1);
    offsets[0] = 0;
    for (std::uint32_t i = 0; i < m; ++i) {
        Slot& s = slots[probe(members[i])];
        s.local = i;
        inner[i] = s.links == kInner;
        const std::size_t size = inner[i] ? g.degree(members[i]) : s.links;
        offsets[i + 1] = offsets[i] + static_cast<std::uint32_t>(size);
    }
    // Fill with offsets[i] as row i's write cursor (inner rows in order,
    // so each depth-k row receives its inner neighbors ascending), then
    // shift the cursors, now row ends, back into row starts.
    edges.resize(offsets[m]);
    for (std::uint32_t i = 0; i < m; ++i) {
        if (!inner[i]) continue;
        std::uint32_t at = offsets[i];
        for (NodeId b : g.neighbors(members[i])) {
            const Slot& s = slots[probe(b)];
            edges[at++] = s.local;
            if (s.links != kInner) edges[offsets[s.local]++] = i;
        }
        offsets[i] = at;
    }
    for (std::uint32_t i = m; i > 0; --i) offsets[i] = offsets[i - 1];
    offsets[0] = 0;
}

void KHopViewBuilder::grow() {
    std::vector<Slot> old(2 * slots.size(), Slot{});  // stamp 0: all free
    old.swap(slots);
    --shift_;
    for (const Slot& s : old) {
        if (s.stamp == epoch) slots[probe(s.node)] = s;
    }
}

std::size_t KHopViewBuilder::bytes() const noexcept {
    return members.capacity() * sizeof(NodeId) +
           offsets.capacity() * sizeof(std::uint32_t) +
           edges.capacity() * sizeof(std::uint32_t) + bfs.capacity() * sizeof(NodeId) +
           slots.capacity() * sizeof(Slot) + inner.capacity();
}

LocalTopology local_topology(const Graph& g, NodeId v, std::size_t k) {
    assert(g.contains(v));
    LocalTopology local;
    local.center = v;
    local.hops = k;

    if (k == 0) {  // global information
        local.graph = g;
        local.visible.assign(g.node_count(), 1);
        compile_topology(local);
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
