/// \file guha_khuller.hpp
/// \brief Guha & Khuller's centralized greedy CDS (Algorithmica '98).
///
/// The paper's Section 1 discusses this algorithm as the classic
/// global-information baseline: it lacks a constant approximation ratio on
/// unit disk graphs yet "performs much better than several approaches with
/// constant ratios on randomly generated networks".  We implement the
/// first Guha-Khuller heuristic (grow a tree from the max-degree node,
/// greedily coloring) as the centralized quality yardstick the distributed
/// schemes are measured against in `bench_campaign --figures
/// ablation_approximation`.

#pragma once

#include "algorithms/algorithm.hpp"

namespace adhoc {

/// Centralized greedy CDS of `g` (empty for n <= 1; a single node when one
/// node dominates the graph).  Precondition: `g` connected.
[[nodiscard]] std::vector<char> guha_khuller_cds(const Graph& g);

/// Broadcast algorithm relaying over the centralized greedy CDS.
class GuhaKhullerAlgorithm final : public StaticCdsAlgorithm {
  public:
    [[nodiscard]] std::string name() const override { return "Guha-Khuller (global)"; }
    [[nodiscard]] std::vector<char> forward_set(const Graph& g) const override {
        return guha_khuller_cds(g);
    }
};

}  // namespace adhoc
