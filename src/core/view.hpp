/// \file view.hpp
/// \brief Views: snapshots of topology + broadcast state (paper Section 2).
///
/// A view is the information a status decision is made against:
/// View(t) = (G(t), Pr(V, t)).  A *local* view at node v restricts the
/// topology to G_k(v) (Definition 2) and clamps priorities of invisible
/// nodes to the bottom of the order, so local views are always <= the
/// global view — the property Theorem 2's correctness argument rests on.
///
/// Every view stands on one compiled `LocalTopology` (members, mask and
/// the dense-id CSR the decision kernels read) plus a status buffer.  The
/// constructors differ only in who keeps those alive:
///  - `make_static_view` / `make_dynamic_view(g, ...)` and the owning
///    constructors put them in one shared heap block that every copy of
///    the view holds, so copies stay valid after the original dies;
///  - the borrowing constructors point at a long-lived `LocalTopology`
///    (and possibly a status buffer) owned by the caller — the hot path for
///    simulation agents, which would otherwise copy the adjacency on every
///    decision.  The referenced objects must outlive the view.

#pragma once

#include <cassert>
#include <memory>
#include <span>
#include <vector>

#include "core/priority.hpp"
#include "graph/graph.hpp"
#include "graph/khop.hpp"

namespace adhoc {

/// An immutable snapshot a coverage decision is evaluated against.
///
/// The topology is carried in the original id space (invisible nodes are
/// isolated in it), which keeps cross-view comparisons (Theorem 2 tests)
/// trivial.
class View {
  public:
    /// Builds an owning view; compiles the topology's CSR.
    /// \param topology   visible subgraph in the original id space
    /// \param visible    visibility mask (size == node_count of original)
    /// \param status     per-node status; ignored for invisible nodes
    /// \param keys       static priority keys (shared, must outlive view)
    /// \param members    optional sorted list of visible ids (may be empty)
    View(Graph topology, std::vector<char> visible, std::vector<NodeStatus> status,
         const PriorityKeys* keys, std::vector<NodeId> members = {});

    /// Owns `topo` (which must carry its CSR) and `status`.
    View(LocalTopology topo, std::vector<NodeStatus> status, const PriorityKeys* keys);

    /// Borrows `topo`, which must carry its CSR and outlive the view; owns
    /// the status.
    View(const LocalTopology* topo, std::vector<NodeStatus> status, const PriorityKeys* keys);

    /// Fully borrowing view: topology and status both live outside (the
    /// KnowledgeBase fast path — zero copies per decision).  Both must
    /// outlive the view.
    View(const LocalTopology* topo, const std::vector<NodeStatus>* status,
         const PriorityKeys* keys)
        : topo_(topo), status_(status), keys_(keys) {
        check();
    }

    [[nodiscard]] const Graph& topology() const noexcept { return topo_->graph; }
    [[nodiscard]] std::size_t node_count() const noexcept { return topo_->graph.node_count(); }
    [[nodiscard]] bool visible(NodeId v) const noexcept { return topo_->visible[v] != 0; }

    /// Sorted visible node ids (local id = position).
    [[nodiscard]] std::span<const NodeId> members() const noexcept { return topo_->members; }

    /// The topology's dense-id CSR over `members`.
    [[nodiscard]] const CompactTopology& compact() const noexcept { return topo_->compact; }

    /// Status as captured by this view (kInvisible for invisible nodes).
    [[nodiscard]] NodeStatus status(NodeId v) const noexcept {
        return visible(v) ? (*status_)[v] : NodeStatus::kInvisible;
    }

    /// Full priority Pr(v) under this view; invisible nodes get the bottom
    /// status so they never appear on replacement paths.
    [[nodiscard]] Priority priority(NodeId v) const {
        return keys_->evaluate(v, status(v));
    }

    [[nodiscard]] const PriorityKeys& keys() const noexcept { return *keys_; }

  private:
    struct Owned {
        LocalTopology topo;
        std::vector<NodeStatus> status;
    };

    void check() const noexcept {
        assert(topo_ != nullptr && status_ != nullptr && keys_ != nullptr);
        assert(status_->size() == topo_->graph.node_count());
        assert(topo_->visible.size() == topo_->graph.node_count());
        assert(topo_->compact.offsets.size() == topo_->members.size() + 1);
    }

    /// Keeps what the view owns (an `Owned`, or just the status) alive;
    /// shared by copies, so the pointers below survive copies and moves.
    /// Null for a fully borrowing view.
    std::shared_ptr<const void> owner_;
    const LocalTopology* topo_;
    const std::vector<NodeStatus>* status_;
    const PriorityKeys* keys_;
};

/// Builds the *static* local view at `center` with k-hop information
/// (k == 0 means global): no broadcast state, everything visible is
/// kUnvisited.  This is the view static algorithms (Section 6.1) decide on.
[[nodiscard]] View make_static_view(const Graph& g, NodeId center, std::size_t k,
                                    const PriorityKeys& keys);

/// Builds a *dynamic* local view at `center`: k-hop topology plus the
/// caller's knowledge of visited/designated nodes (global id space; entries
/// for invisible nodes are ignored per the local-view clamping rule).
[[nodiscard]] View make_dynamic_view(const Graph& g, NodeId center, std::size_t k,
                                     const PriorityKeys& keys, const std::vector<char>& visited,
                                     const std::vector<char>& designated);

/// Builds a dynamic view from a precomputed LocalTopology (avoids the BFS
/// when the topology is cached, as simulation agents do).  The returned
/// view *borrows* `topo`, which must outlive it.
[[nodiscard]] View make_dynamic_view(const LocalTopology& topo, const PriorityKeys& keys,
                                     const std::vector<char>& visited,
                                     const std::vector<char>& designated);

}  // namespace adhoc
