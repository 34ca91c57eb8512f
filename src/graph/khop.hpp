/// \file khop.hpp
/// \brief k-hop neighborhood sets and the Definition-2 local topology.
///
/// The paper is precise about what "k-hop information" means (Definition 2):
/// a node's local topology G_k(v) takes k rounds of "hello" exchanges to
/// build, so its node set is N_k(v) (all nodes within k hops) and its edge
/// set is E ∩ (N_{k-1}(v) × N_k(v)) — links between two nodes that are both
/// exactly k hops away from v are *invisible*.  Getting this boundary right
/// matters: Figure 6(a) in the paper hinges on link (7,8) being invisible
/// under 2-hop information.

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.hpp"

namespace adhoc {

/// Nodes within `k` hops of `v` (including `v` itself), sorted ascending.
/// N_0(v) = {v}.
[[nodiscard]] std::vector<NodeId> k_hop_nodes(const Graph& g, NodeId v, std::size_t k);

/// The 2-hop neighbor set N_2(v) *excluding* v itself — the set that
/// neighbor-designating algorithms (DP/PDP/TDP/MPR) must cover.
[[nodiscard]] std::vector<NodeId> two_hop_cover_set(const Graph& g, NodeId v);

/// Flat CSR adjacency of a LocalTopology's visible subgraph over dense
/// local ids (position in `members`).  Edges between two exactly-k-hop
/// nodes are absent by construction of the topology itself.  Built once
/// per topology by its producer; the decision kernels borrow these
/// contiguous arrays instead of pointer-chasing the Graph's per-node heap
/// rows on every call.
struct CompactTopology {
    std::vector<std::uint32_t> offsets;  ///< size members+1 when built
    std::vector<std::uint32_t> edges;    ///< local ids, ascending per row
};

/// The Definition-2 construction for k >= 1: a truncated BFS from the
/// center to depth k that emits G_k(v) straight into CSR form over dense
/// local ids, in O(ball edges).  Members are every node within k hops,
/// sorted ascending (local id = position); link (a, b) between two members
/// is visible iff min(dist(a), dist(b)) <= k - 1.  Only the adjacency rows
/// of *inner* members (within k - 1 hops) are read: each is visible whole,
/// and a depth-k member's row is the inner members that list it.
///
/// Per-member state (local id, inner or not) lives in `slots`, a
/// linear-probing map keyed by global id and sized to the ball, not to the
/// graph: it starts at `kInitialSlots` and doubles whenever the ball fills
/// half of it.  A slot is live iff its stamp equals `epoch`, so a compile
/// starts by bumping the epoch instead of clearing the table.  Every buffer
/// only grows, so steady-state compiles allocate nothing and the builder
/// holds O(largest ball) bytes whatever n is.  One builder per thread:
/// `compile` mutates it.
struct KHopViewBuilder {
    // Output of the last `compile`.
    std::vector<NodeId> members;         ///< ascending global ids
    std::vector<std::uint32_t> offsets;  ///< CSR rows, size members+1
    std::vector<std::uint32_t> edges;    ///< CSR columns (local ids), ascending per row

    /// A ball member's entry in the map (live iff `stamp == epoch`).
    struct Slot {
        NodeId node;
        std::uint32_t stamp;  ///< 0 never matches: `epoch` skips it
        std::uint32_t local;  ///< local id (position in `members`)
        /// kInner for a member within k - 1 hops; for one at depth k, the
        /// number of inner neighbors (its visible degree).
        std::uint32_t links;
    };
    static constexpr std::uint32_t kInner = 0xffffffffu;
    static constexpr std::size_t kInitialSlots = 64;  ///< a power of two

    // Scratch, sized to the largest ball seen.
    std::vector<NodeId> bfs;   ///< BFS queue / discovery order
    std::vector<Slot> slots;   ///< the ball map; size a power of two
    std::vector<char> inner;   ///< per local id: within k - 1 hops
    std::uint32_t epoch = 0;

    /// Builds G_k(v) of `g` into `members`/`offsets`/`edges`.  k >= 1.
    void compile(const Graph& g, NodeId v, std::size_t k);

    /// Local id of `u`; valid only for members of the last compile.
    [[nodiscard]] std::uint32_t local_of(NodeId u) const noexcept {
        return slots[probe(u)].local;
    }

    /// Local neighbor row of local node `i`.
    [[nodiscard]] std::span<const std::uint32_t> row(std::uint32_t i) const noexcept {
        return {edges.data() + offsets[i], edges.data() + offsets[i + 1]};
    }

    /// Heap bytes held by the builder (capacities, not sizes).
    [[nodiscard]] std::size_t bytes() const noexcept;

  private:
    /// The slot holding `u` if it is live, else the free slot where `u`
    /// would go (Fibonacci hash, then linear probing).
    [[nodiscard]] std::size_t probe(NodeId u) const noexcept {
        const std::size_t mask = slots.size() - 1;
        std::size_t i = (std::uint64_t{u} * 0x9e3779b97f4a7c15ULL) >> shift_;
        while (slots[i].stamp == epoch && slots[i].node != u) i = (i + 1) & mask;
        return i;
    }
    /// Doubles `slots`, re-inserting the live entries.
    void grow();

    unsigned shift_ = 64;  ///< 64 - log2(slots.size())
};

/// Local topology per Definition 2.
///
/// The returned graph has the same node-id space as `g`; nodes outside
/// N_k(v) are isolated, and only edges in E ∩ (N_{k-1}(v) × N_k(v)) are
/// present.  `visible[u]` marks membership in N_k(v).
struct LocalTopology {
    Graph graph;                ///< subgraph on the original id space
    std::vector<char> visible;  ///< visible[u] == 1 iff u ∈ N_k(v)
    NodeId center = kInvalidNode;
    std::size_t hops = 0;       ///< the k it was built with (0 == global)
    /// Visible node ids in ascending order (local id = position) — the
    /// dense-id compilation of the view iterates this instead of scanning
    /// all n nodes.
    std::vector<NodeId> members;
    /// One-time dense-id CSR (see CompactTopology).  Every producer
    /// (`local_topology`, `HelloProtocol::view_of`, the `View(Graph, ...)`
    /// constructor) builds it once; a `View` requires it.  The topology
    /// must not be mutated afterwards.
    CompactTopology compact;
    /// Set by the hello layer when neighbor-liveness aging removed entries
    /// from this view: decisions taken against it are "stale-view
    /// decisions" (metered by the protocol's telemetry).  Analytic
    /// Definition-2 views are never stale.
    bool stale = false;
};

/// Builds `topo.compact` from `graph` and `visible`, filling `members`
/// from `visible` first if it is empty; edges to non-members are dropped.
/// No-op when already built, as it is for every `local_topology`.
void compile_topology(LocalTopology& topo);

/// Extracts G_k(v) with `members` and `compact` filled.  `k == 0` is
/// interpreted as *global* information (the whole graph is visible); the
/// paper's sweeps use k ∈ {2,3,4,5, global}.  For k >= 1 the view comes
/// from a thread-local `KHopViewBuilder`; safe to call from many threads.
[[nodiscard]] LocalTopology local_topology(const Graph& g, NodeId v, std::size_t k);

}  // namespace adhoc
