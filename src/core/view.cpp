#include "core/view.hpp"

namespace adhoc {

namespace {

std::vector<NodeStatus> status_from_masks(const std::vector<char>& visible,
                                          const std::vector<char>* visited,
                                          const std::vector<char>* designated) {
    std::vector<NodeStatus> status(visible.size(), NodeStatus::kInvisible);
    for (NodeId v = 0; v < visible.size(); ++v) {
        if (!visible[v]) continue;
        if (visited != nullptr && (*visited)[v]) {
            status[v] = NodeStatus::kVisited;
        } else if (designated != nullptr && (*designated)[v]) {
            status[v] = NodeStatus::kDesignated;
        } else {
            status[v] = NodeStatus::kUnvisited;
        }
    }
    return status;
}

LocalTopology compiled(Graph graph, std::vector<char> visible, std::vector<NodeId> members) {
    LocalTopology topo;
    topo.graph = std::move(graph);
    topo.visible = std::move(visible);
    topo.members = std::move(members);
    compile_topology(topo);
    return topo;
}

}  // namespace

View::View(Graph topology, std::vector<char> visible, std::vector<NodeStatus> status,
           const PriorityKeys* keys, std::vector<NodeId> members)
    : View(compiled(std::move(topology), std::move(visible), std::move(members)),
           std::move(status), keys) {}

View::View(LocalTopology topo, std::vector<NodeStatus> status, const PriorityKeys* keys)
    : keys_(keys) {
    auto owned = std::make_shared<const Owned>(Owned{std::move(topo), std::move(status)});
    topo_ = &owned->topo;
    status_ = &owned->status;
    owner_ = std::move(owned);
    check();
}

View::View(const LocalTopology* topo, std::vector<NodeStatus> status, const PriorityKeys* keys)
    : topo_(topo), keys_(keys) {
    auto owned = std::make_shared<const std::vector<NodeStatus>>(std::move(status));
    status_ = owned.get();
    owner_ = std::move(owned);
    check();
}

View make_static_view(const Graph& g, NodeId center, std::size_t k, const PriorityKeys& keys) {
    LocalTopology topo = local_topology(g, center, k);
    auto status = status_from_masks(topo.visible, nullptr, nullptr);
    return View(std::move(topo), std::move(status), &keys);
}

View make_dynamic_view(const Graph& g, NodeId center, std::size_t k, const PriorityKeys& keys,
                       const std::vector<char>& visited, const std::vector<char>& designated) {
    // The LocalTopology is a temporary here, so the view must own it.
    LocalTopology topo = local_topology(g, center, k);
    auto status = status_from_masks(topo.visible, &visited, &designated);
    return View(std::move(topo), std::move(status), &keys);
}

View make_dynamic_view(const LocalTopology& topo, const PriorityKeys& keys,
                       const std::vector<char>& visited, const std::vector<char>& designated) {
    assert(visited.size() == topo.visible.size());
    assert(designated.size() == topo.visible.size());
    auto status = status_from_masks(topo.visible, &visited, &designated);
    return View(&topo, std::move(status), &keys);
}

}  // namespace adhoc
