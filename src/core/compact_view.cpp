#include "core/compact_view.hpp"

namespace adhoc {

LocalViewScratch& LocalViewScratch::tls() {
    thread_local LocalViewScratch arena;
    return arena;
}

void LocalViewScratch::compile(const View& view) {
    // The topology arrays are the view's own CSR; only status and
    // priorities need per-call work (they encode broadcast state).
    const CompactTopology& ct = view.compact();
    compact.members = view.members();
    compact.offsets = ct.offsets;
    compact.edges = ct.edges;
    const auto m = static_cast<std::uint32_t>(compact.members.size());
    compact.size = m;
    compact.priority.resize(m);
    compact.status.resize(m);
    for (std::uint32_t i = 0; i < m; ++i) {
        const NodeId v = compact.members[i];
        const NodeStatus st = view.status(v);
        compact.status[i] = st;
        compact.priority[i] = view.keys().evaluate(v, st);
    }
}

}  // namespace adhoc
