#include "algorithms/wu_li.hpp"

#include <sstream>

#include "graph/khop.hpp"

namespace adhoc {

namespace {

/// True iff every neighbor of v is in N[u] ∪ N[w].
bool neighbors_covered_by_pair(const Graph& g, NodeId v, NodeId u, NodeId w) {
    for (NodeId x : g.neighbors(v)) {
        const bool by_u = (x == u) || g.has_edge(x, u);
        const bool by_w = (x == w) || g.has_edge(x, w);
        if (!by_u && !by_w) return false;
    }
    return true;
}

}  // namespace

std::vector<char> wu_li_forward_set(const Graph& g, const WuLiConfig& config) {
    const PriorityKeys keys(g, config.priority);
    auto pr = [&](NodeId v) { return keys.evaluate(v, NodeStatus::kUnvisited); };

    std::vector<char> forward(g.node_count(), 0);
    for (NodeId v = 0; v < g.node_count(); ++v) {
        // Marking process: gateway iff two neighbors are unconnected.
        if (g.degree(v) < 2 || g.neighbors_pairwise_connected(v)) continue;

        // Candidate coverage nodes within the information radius.
        std::vector<NodeId> candidates;
        for (NodeId c : k_hop_nodes(g, v, config.hops - 1)) {
            if (c != v && pr(c) > pr(v)) candidates.push_back(c);
        }

        bool pruned = false;
        // Rule 1: one higher-priority coverage node dominates N(v).
        for (NodeId u : candidates) {
            if (neighbors_covered_by(g, v, u)) {
                pruned = true;
                break;
            }
        }
        // Rule 2: two connected higher-priority coverage nodes dominate N(v).
        for (std::size_t i = 0; i < candidates.size() && !pruned; ++i) {
            for (std::size_t j = i + 1; j < candidates.size() && !pruned; ++j) {
                const NodeId u = candidates[i];
                const NodeId w = candidates[j];
                if (!g.has_edge(u, w)) continue;
                if (neighbors_covered_by_pair(g, v, u, w)) pruned = true;
            }
        }
        forward[v] = pruned ? 0 : 1;
    }
    return forward;
}

std::string WuLiAlgorithm::name() const {
    std::ostringstream out;
    out << "Wu-Li (k=" << config_.hops << ", " << to_string(config_.priority) << ")";
    return out.str();
}

}  // namespace adhoc
