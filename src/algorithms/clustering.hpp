/// \file clustering.hpp
/// \brief Cluster/MIS-based CDS construction (Lin-Gerla clustering; Wan,
/// Alzoubi & Frieder style connection) — the paper's Section 1 reference
/// point for constant-approximation schemes.
///
/// "The basic idea is to partition an ad hoc network into several regions
/// ... and select a constant number of nodes from each region to form a
/// CDS."  On unit disk graphs a maximal independent set (the cluster
/// heads) is a constant-factor dominating set, and any two nearest MIS
/// nodes are at most 3 hops apart, so connecting them over a spanning tree
/// adds at most two gateway nodes per edge — a constant-approximation CDS.
/// The paper argues (and `bench_campaign --figures ablation_approximation`
/// reproduces) that the greedy and coverage-condition schemes beat it on
/// random networks despite its better worst case.

#pragma once

#include "algorithms/algorithm.hpp"

namespace adhoc {

/// Maximal independent set by ascending node id (a node joins unless a
/// smaller-id neighbor already did).  On a UDG this is the cluster-head
/// set of lowest-id clustering.
[[nodiscard]] std::vector<char> lowest_id_mis(const Graph& g);

/// Per-node cluster-head assignment under lowest-id clustering: heads map
/// to themselves, members to their smallest-id head neighbor.
[[nodiscard]] std::vector<NodeId> cluster_heads(const Graph& g);

/// Constant-approximation CDS: MIS heads plus gateway connectors along a
/// spanning tree of the 3-hop head adjacency.  Precondition: connected g.
[[nodiscard]] std::vector<char> cluster_cds(const Graph& g);

/// Broadcast over the cluster CDS.
class ClusterCdsAlgorithm final : public StaticCdsAlgorithm {
  public:
    [[nodiscard]] std::string name() const override { return "Cluster CDS"; }
    [[nodiscard]] std::vector<char> forward_set(const Graph& g) const override {
        return cluster_cds(g);
    }
};

}  // namespace adhoc
