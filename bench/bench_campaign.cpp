// Figure registry and campaign driver: every paper figure, table and
// ablation that prints a deterministic report is one named entry here, run
// in one invocation, sharded over the campaign runner's thread pool, with
// progress/ETA on stderr.
//
//   bench_campaign --list
//   bench_campaign --figures fig10_timing,fig12_space --runs 200 --jobs 0
//   bench_campaign --full --jobs 8 --json results/json --gnuplot plots
//
// Without --figures every entry runs, in registry order.  Each figure
// prints its title, a blank line, then its tables.  --json DIR writes one
// DIR/BENCH_<figure>.json per figure; --gnuplot DIR writes one
// DIR/<figure>_<panel>.dat per sweep panel.  Every --figures name is
// checked before anything runs: an unknown name (or a missing list) exits
// 2 with nothing on stdout.
//
// Exit status is nonzero if any figure records a delivery failure (see
// bench_common.hpp) — the campaign keeps going so one regression doesn't
// hide another.

#include "bench_common.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iomanip>
#include <sstream>
#include <system_error>

#include "algorithms/clustering.hpp"
#include "algorithms/dominant_pruning.hpp"
#include "algorithms/flooding.hpp"
#include "algorithms/generic.hpp"
#include "algorithms/gossip.hpp"
#include "algorithms/guha_khuller.hpp"
#include "algorithms/hybrid.hpp"
#include "algorithms/lenwb.hpp"
#include "algorithms/mpr.hpp"
#include "algorithms/registry.hpp"
#include "algorithms/rule_k.hpp"
#include "algorithms/sba.hpp"
#include "algorithms/span.hpp"
#include "analysis/exact_cds.hpp"
#include "core/cds_reduce.hpp"
#include "io/svg.hpp"
#include "sim/generic_protocol.hpp"
#include "sim/hello.hpp"
#include "sim/mobility.hpp"
#include "stats/overhead.hpp"
#include "verify/cds_check.hpp"

using namespace adhoc;

namespace {

struct FigureSpec {
    const char* name;
    /// The report's header; main prints it followed by a blank line.
    const char* title;
    /// Builds the figure's algorithms and runs its panels or loops.
    std::function<void(bench::Bench&)> run;
    /// The header quotes the run's own sample (Figure 9), so the run prints
    /// it; `title` is then only what --list and the progress line show.
    bool run_prints_title = false;
};

const std::vector<FigureSpec>& figure_registry() {
    static const std::vector<FigureSpec> specs{
        // Figure 9: one sample 100-node ad hoc network (d≈6) with the
        // forward node sets of the static, first-receipt (FR) and
        // first-receipt-with-backoff (FRB) generic algorithms under 2-hop
        // and 3-hop information.  Prints the forward counts (the paper
        // reports 49/45/41 at 2-hop and 46/42/36 at 3-hop on its sample) and
        // writes SVG renderings into the working directory
        // (fig09_<variant>.svg).
        {"fig09_sample", "Figure 9: sample 100-node network",
         [](bench::Bench& b) {
             const auto& opts = b.options();
             Rng rng(opts.seed + 2003);
             UnitDiskParams params;
             params.node_count = 100;
             params.average_degree = 6.0;
             const auto net = generate_network_checked(params, rng);
             const NodeId source = 0;

             std::cout << "Figure 9: sample 100-node network, source " << source << " ("
                       << net.graph.edge_count() << " links, range " << net.range << ")\n\n";
             std::cout << "variant        forward nodes\n------------------------------\n";

             struct Variant {
                 const char* label;
                 GenericConfig config;
             };
             for (std::size_t k : {2u, 3u}) {
                 const Variant variants[] = {
                     {"static", generic_static_config(k, PriorityScheme::kId)},
                     {"FR", generic_fr_config(k, PriorityScheme::kId)},
                     {"FRB", generic_frb_config(k, PriorityScheme::kId)},
                 };
                 for (const Variant& v : variants) {
                     const GenericBroadcast algo(v.config);
                     Rng run(opts.seed + 7);
                     const auto result = algo.broadcast(net.graph, source, run);
                     if (!result.full_delivery) b.note_delivery_failure();
                     std::cout << k << "-hop " << v.label
                               << (result.full_delivery ? "" : " [PARTIAL]")
                               << std::string(12 - std::string(v.label).size(), ' ')
                               << result.forward_count << '\n';

                     SvgOptions svg;
                     svg.forward = result.transmitted;
                     svg.source = source;
                     svg.title = "Figure 9 (" + std::to_string(k) + "-hop " + v.label +
                                 "): " + std::to_string(result.forward_count) +
                                 " forward nodes";
                     std::ofstream out("fig09_" + std::to_string(k) + "hop_" + v.label +
                                       ".svg");
                     write_svg(out, net.graph, net.positions, svg);
                 }
             }
             std::cout << "\nSVG plots written to fig09_*.svg\n";
         },
         /*run_prints_title=*/true},
        // Figure 10: performance of the generic protocol under different
        // TIMING options (Static / FR / FRB / FRBD), 2-hop information, id
        // priority, d = 6 and d = 18.
        //
        // Expected shape (paper): Static > FR > FRB >= FRBD.
        {"fig10_timing", "Figure 10: timing options (2-hop, ID priority)",
         [](bench::Bench& b) {
             const GenericBroadcast stat(generic_static_config(2, PriorityScheme::kId),
                                         "Static");
             const GenericBroadcast fr(generic_fr_config(2, PriorityScheme::kId), "FR");
             const GenericBroadcast frb(generic_frb_config(2, PriorityScheme::kId), "FRB");
             const GenericBroadcast frbd(generic_frbd_config(2, PriorityScheme::kId), "FRBD");
             const std::vector<const BroadcastAlgorithm*> algos{&stat, &fr, &frb, &frbd};
             b.run_panel("d=6, 2-hop", algos, 6.0);
             b.run_panel("d=18, 2-hop", algos, 18.0);
         }},
        // Figure 11: performance of dynamic (first-receipt) algorithms under
        // different SELECTION options: self-pruning (SP), neighbor-
        // designating (ND), and the two hybrid single-designation policies
        // (MaxDeg / MinPri), 2-hop information, id priority, strict
        // designation.
        //
        // Expected shape (paper, sparse): MinPri worst; ND/SP/MaxDeg close
        // with MaxDeg best.  Dense n=100: ND falls behind.
        {"fig11_selection", "Figure 11: selection options (first-receipt, 2-hop, ID priority)",
         [](bench::Bench& b) {
             GenericConfig nd_cfg = generic_fr_config(2, PriorityScheme::kId);
             nd_cfg.selection = Selection::kNeighborDesignating;
             const GenericBroadcast sp(generic_fr_config(2, PriorityScheme::kId), "SP");
             const GenericBroadcast nd(nd_cfg, "ND");
             const GenericBroadcast maxdeg = make_hybrid_maxdeg();
             const GenericBroadcast minpri = make_hybrid_minpri();
             const std::vector<const BroadcastAlgorithm*> algos{&sp, &nd, &maxdeg, &minpri};
             b.run_panel("d=6, 2-hop", algos, 6.0);
             b.run_panel("d=18, 2-hop", algos, 18.0);
         }},
        // Figure 12: performance of dynamic self-pruning under different
        // SPACE options: k-hop local views for k = 2..5 and global
        // information.
        //
        // Expected shape (paper): monotone improvement with diminishing
        // returns; 2-/3-hop close to global.
        {"fig12_space", "Figure 12: space options (first-receipt self-pruning, ID priority)",
         [](bench::Bench& b) {
             const GenericBroadcast k2(generic_fr_config(2, PriorityScheme::kId), "2-hop");
             const GenericBroadcast k3(generic_fr_config(3, PriorityScheme::kId), "3-hop");
             const GenericBroadcast k4(generic_fr_config(4, PriorityScheme::kId), "4-hop");
             const GenericBroadcast k5(generic_fr_config(5, PriorityScheme::kId), "5-hop");
             const GenericBroadcast kg(generic_fr_config(0, PriorityScheme::kId), "global");
             const std::vector<const BroadcastAlgorithm*> algos{&k2, &k3, &k4, &k5, &kg};
             b.run_panel("d=6", algos, 6.0);
             b.run_panel("d=18", algos, 18.0);
         }},
        // Figure 13: performance of dynamic self-pruning under different
        // PRIORITY options: node id (ID), node degree (Degree), neighborhood
        // connectivity ratio (NCR); 2-hop information.
        //
        // Expected shape (paper): ID > Degree > NCR in sparse networks; all
        // three close in dense networks.
        {"fig13_priority", "Figure 13: priority options (first-receipt self-pruning, 2-hop)",
         [](bench::Bench& b) {
             const GenericBroadcast id(generic_fr_config(2, PriorityScheme::kId), "ID");
             const GenericBroadcast deg(generic_fr_config(2, PriorityScheme::kDegree),
                                        "Degree");
             const GenericBroadcast ncr(generic_fr_config(2, PriorityScheme::kNcr), "NCR");
             const std::vector<const BroadcastAlgorithm*> algos{&id, &deg, &ncr};
             b.run_panel("d=6, 2-hop", algos, 6.0);
             b.run_panel("d=18, 2-hop", algos, 18.0);
         }},
        // Figure 14: static broadcast algorithms — MPR, enhanced Span,
        // Dai-Wu Rule k, and the Generic static algorithm; 2-hop and 3-hop
        // information; NCR priority for all self-pruning algorithms (Span's
        // original config); MPR uses its designating-time rule.
        //
        // Expected shape (paper, worst to best): MPR, Span, Rule k, Generic.
        {"fig14_static", "Figure 14: static algorithms (NCR priority; MPR: designating time)",
         [](bench::Bench& b) {
             const MprAlgorithm mpr;
             for (std::size_t k : {2u, 3u}) {
                 const SpanAlgorithm span(
                     SpanConfig{.hops = k, .priority = PriorityScheme::kNcr});
                 const RuleKAlgorithm rule_k(
                     RuleKConfig{.hops = k, .priority = PriorityScheme::kNcr});
                 const GenericBroadcast generic(generic_static_config(k, PriorityScheme::kNcr),
                                                "Generic");
                 const std::vector<const BroadcastAlgorithm*> algos{&mpr, &span, &rule_k,
                                                                    &generic};
                 b.run_panel("d=6, " + std::to_string(k) + "-hop", algos, 6.0);
                 b.run_panel("d=18, " + std::to_string(k) + "-hop", algos, 18.0);
             }
         }},
        // Figure 15: first-receipt broadcast algorithms — DP, PDP, LENWB, and
        // the Generic FR algorithm; 2-hop and 3-hop information; node degree
        // as the priority (LENWB's original config).
        //
        // Expected shape (paper, worst to best): DP, PDP, LENWB, Generic.
        {"fig15_first_receipt", "Figure 15: first-receipt algorithms (Degree priority)",
         [](bench::Bench& b) {
             const DominantPruningAlgorithm dp(DominantPruningVariant::kDp);
             const DominantPruningAlgorithm pdp(DominantPruningVariant::kPdp);
             for (std::size_t k : {2u, 3u}) {
                 const LenwbAlgorithm lenwb(LenwbConfig{.hops = k});
                 const GenericBroadcast generic(generic_fr_config(k, PriorityScheme::kDegree),
                                                "Generic");
                 const std::vector<const BroadcastAlgorithm*> algos{&dp, &pdp, &lenwb,
                                                                    &generic};
                 b.run_panel("d=6, " + std::to_string(k) + "-hop", algos, 6.0);
                 b.run_panel("d=18, " + std::to_string(k) + "-hop", algos, 18.0);
             }
         }},
        // Figure 16: first-receipt-with-backoff algorithms — SBA and the
        // Generic FRB algorithm; 2-hop and 3-hop information.
        //
        // Expected shape (paper): Generic significantly outperforms SBA (SBA
        // requires direct neighbor coverage by visited nodes; Generic allows
        // indirect coverage via higher-priority replacement paths).
        {"fig16_backoff", "Figure 16: first-receipt-with-backoff algorithms",
         [](bench::Bench& b) {
             for (std::size_t k : {2u, 3u}) {
                 const SbaAlgorithm sba(SbaConfig{.hops = k, .history = k > 2 ? 2u : 1u});
                 const GenericBroadcast generic(generic_frb_config(k, PriorityScheme::kId),
                                                "Generic");
                 const std::vector<const BroadcastAlgorithm*> algos{&sba, &generic};
                 b.run_panel("d=6, " + std::to_string(k) + "-hop", algos, 6.0);
                 b.run_panel("d=18, " + std::to_string(k) + "-hop", algos, 18.0);
             }
         }},
        // Table 1: the taxonomy of existing distributed broadcast algorithms
        // compared in the simulation, plus one demonstration broadcast per
        // entry on a shared sample network.
        {"table1_taxonomy",
         "Table 1: distributed broadcast algorithms under the generic framework",
         [](bench::Bench& b) {
             const auto& opts = b.options();
             Rng rng(opts.seed);
             UnitDiskParams params;
             params.node_count = 80;
             params.average_degree = 6.0;
             const auto net = generate_network_checked(params, rng);

             const auto registry = make_registry();
             std::vector<std::vector<std::string>> rows;
             rows.push_back({"key", "algorithm", "category", "selection", "info",
                             "fwd (n=80,d=6)", "delivery"});
             for (const auto& e : registry) {
                 Rng run(opts.seed + 1);
                 const auto result = e.algorithm->broadcast(net.graph, 0, run);
                 // Gossip is probabilistic and may legitimately miss nodes;
                 // every deterministic entry must achieve full delivery.
                 if (!result.full_delivery && e.key.rfind("gossip", 0) != 0) {
                     b.note_delivery_failure();
                 }
                 rows.push_back({e.key, e.algorithm->name(), to_string(e.category),
                                 to_string(e.style), e.hop_info,
                                 std::to_string(result.forward_count),
                                 result.full_delivery ? "full" : "PARTIAL"});
             }
             std::cout << format_grid(rows);
         }},
        // Cost-effectiveness table backing Section 7.1's conclusions: forward
        // counts side by side with the hello-round and per-packet overheads
        // each configuration pays.  "Overall, there is no single combination
        // of implementation options that is the best for all circumstances."
        {"table_overhead",
         "Overhead vs efficiency of generic-protocol configurations (n=80, d=6)",
         [](bench::Bench& b) {
             struct Config {
                 std::string label;
                 GenericConfig cfg;
             };
             const std::vector<Config> configs{
                 {"static k=2 ID", generic_static_config(2, PriorityScheme::kId)},
                 {"FR k=2 ID", generic_fr_config(2, PriorityScheme::kId)},
                 {"FR k=2 Degree", generic_fr_config(2, PriorityScheme::kDegree)},
                 {"FR k=2 NCR", generic_fr_config(2, PriorityScheme::kNcr)},
                 {"FR k=3 ID", generic_fr_config(3, PriorityScheme::kId)},
                 {"FRB k=2 ID", generic_frb_config(2, PriorityScheme::kId)},
                 {"FRB k=3 Degree", generic_frb_config(3, PriorityScheme::kDegree)},
             };
             const std::size_t runs = std::max<std::size_t>(b.options().max_runs / 2, 40);

             std::vector<std::vector<std::string>> rows;
             rows.push_back({"configuration", "fwd", "hello rounds", "recompute/bcast",
                             "piggyback B/pkt", "extra delay"});
             for (const Config& c : configs) {
                 double fwd = 0;
                 bench::for_each_sample_broadcast(
                     GenericBroadcast(c.cfg), b.options().seed, runs,
                     [&](const BroadcastResult& result) {
                         fwd += static_cast<double>(result.forward_count);
                     });
                 const auto info = information_cost(c.cfg.hops, c.cfg.priority, c.cfg.timing);
                 std::ostringstream fwd_s;
                 fwd_s << std::fixed << std::setprecision(2) << fwd / static_cast<double>(runs);
                 std::ostringstream piggy;
                 piggy << std::fixed << std::setprecision(1)
                       << estimated_piggyback_bytes(c.cfg.history, /*avg_designated=*/0.0);
                 rows.push_back({c.label, fwd_s.str(), std::to_string(info.hello_rounds),
                                 info.per_broadcast_recompute ? "yes" : "no", piggy.str(),
                                 c.cfg.timing == Timing::kFirstReceipt ||
                                         c.cfg.timing == Timing::kStatic
                                     ? "none"
                                     : "backoff"});
             }
             std::cout << format_grid(rows);
             std::cout
                 << "\nReading: ID priority needs the fewest hello rounds but the largest\n"
                    "forward set; NCR the reverse; backoff trades end-to-end delay for\n"
                    "further pruning (Section 7.1's trade-off conclusions).\n";
         }},
        // Latency table backing Section 4.1/7.1: backoff-based timings buy
        // smaller forward sets "at the cost of prolonging the completion time
        // of the broadcast process".  Reports mean completion time next to
        // mean forward count for the four timings plus SBA (propagation
        // delay = 1 time unit per hop, backoff window = 8).
        {"table_latency", "Latency vs efficiency (n=80, d=6, 2-hop; delay unit = 1 hop)",
         [](bench::Bench& b) {
             std::cout << "algorithm      mean fwd   mean completion  delay vs FR\n";
             std::cout << "-------------------------------------------------------\n";
             const std::size_t runs = std::max<std::size_t>(b.options().max_runs / 2, 50);

             const GenericBroadcast stat(generic_static_config(2, PriorityScheme::kId),
                                         "Static");
             const GenericBroadcast fr(generic_fr_config(2), "FR");
             const GenericBroadcast frb(generic_frb_config(2), "FRB");
             const GenericBroadcast frbd(generic_frbd_config(2), "FRBD");
             const SbaAlgorithm sba;

             double fr_latency = 0.0;
             auto evaluate = [&](const BroadcastAlgorithm& algo, bool is_fr) {
                 double fwd = 0, completion = 0;
                 bench::for_each_sample_broadcast(
                     algo, b.options().seed, runs, [&](const BroadcastResult& result) {
                         fwd += static_cast<double>(result.forward_count);
                         completion += result.completion_time;
                     });
                 const double r = static_cast<double>(runs);
                 if (is_fr) fr_latency = completion / r;
                 std::cout << std::left << std::setw(15) << algo.name().substr(0, 14)
                           << std::fixed << std::setprecision(2) << std::setw(11) << fwd / r
                           << std::setw(17) << completion / r;
                 if (fr_latency > 0.0) {
                     std::cout << std::setprecision(2) << (completion / r) / fr_latency << "x";
                 }
                 std::cout << '\n';
             };

             evaluate(fr, true);
             evaluate(stat, false);
             evaluate(frb, false);
             evaluate(frbd, false);
             evaluate(sba, false);

             std::cout << "\nReading: FR and Static finish in network-eccentricity time; the\n"
                          "backoff schemes trade a multiple of that for their smaller forward\n"
                          "sets (Section 4.1: appropriate for less delay-sensitive traffic).\n";
         }},
        // Ablation (Section 7.2 claim): "extra broadcast state information
        // has little impact on performance" — sweep the piggybacked history
        // depth h for the generic FR algorithm.  Expected: h=1 -> h=2 gives a
        // small gain, h beyond 2 is flat.
        {"ablation_history",
         "Ablation: piggybacked visited-history depth h (generic FR, 2-hop)",
         [](bench::Bench& b) {
             std::vector<GenericBroadcast> variants;
             variants.reserve(5);
             for (std::size_t h : {0u, 1u, 2u, 4u, 8u}) {
                 GenericConfig cfg = generic_fr_config(2, PriorityScheme::kId);
                 cfg.history = h;
                 variants.emplace_back(cfg, "h=" + std::to_string(h));
             }
             std::vector<const BroadcastAlgorithm*> algos;
             for (const auto& v : variants) algos.push_back(&v);
             b.run_panel("d=6, 2-hop", algos, 6.0);
             b.run_panel("d=18, 2-hop", algos, 18.0);
         }},
        // Ablation (Section 6.3 claim): "PDP avoids the extra cost in TDP ...
        // but achieves almost the same performance improvement."  Compare
        // DP, TDP and PDP head to head, plus the per-packet piggyback cost
        // TDP pays.
        {"ablation_tdp_pdp",
         "Ablation: the neighbor-designating family (2-hop, greedy designation)\n"
         "TDP piggybacks N2(u) in every packet (O(n) extra bytes); PDP and\n"
         "AHBP pay nothing.  Expected: TDP <= PDP <= DP with TDP ~ PDP;\n"
         "AHBP's sibling-gateway elimination lands near PDP.",
         [](bench::Bench& b) {
             const DominantPruningAlgorithm dp(DominantPruningVariant::kDp);
             const DominantPruningAlgorithm tdp(DominantPruningVariant::kTdp);
             const DominantPruningAlgorithm pdp(DominantPruningVariant::kPdp);
             const DominantPruningAlgorithm ahbp(DominantPruningVariant::kAhbp);
             const std::vector<const BroadcastAlgorithm*> algos{&dp, &tdp, &pdp, &ahbp};
             b.run_panel("d=6, 2-hop", algos, 6.0);
             b.run_panel("d=18, 2-hop", algos, 18.0);
         }},
        // Ablation (Section 1 claim): the probabilistic approach "cannot
        // guarantee full coverage" and conservative p "yields a relatively
        // large forward node set".  Sweep p and report forward counts and
        // delivery ratios next to the deterministic generic algorithm.
        {"ablation_gossip", "Ablation: gossip(p) vs deterministic pruning (n=80, d=6)",
         [](bench::Bench& b) {
             std::cout << "p      mean fwd   delivery ratio   full-delivery runs\n";
             std::cout << "----------------------------------------------------\n";

             auto evaluate = [&](const BroadcastAlgorithm& algo) {
                 double fwd = 0, delivered = 0;
                 std::size_t full = 0;
                 const std::size_t runs = std::max<std::size_t>(b.options().max_runs / 2, 50);
                 bench::for_each_sample_broadcast(
                     algo, b.options().seed, runs, [&](const BroadcastResult& result) {
                         fwd += static_cast<double>(result.forward_count);
                         delivered += static_cast<double>(result.received_count) /
                                      static_cast<double>(bench::kSampleNodes);
                         full += result.full_delivery ? 1 : 0;
                     });
                 std::cout << std::fixed << std::setprecision(2) << std::setw(8) << std::left
                           << fwd / static_cast<double>(runs) << ' ' << std::setw(16)
                           << delivered / static_cast<double>(runs) << full << '/' << runs
                           << '\n';
             };

             for (double p : {0.4, 0.6, 0.7, 0.8, 0.9, 1.0}) {
                 std::cout << std::fixed << std::setprecision(1) << p << "    ";
                 evaluate(GossipAlgorithm(p));
             }
             std::cout << "generic-fr (deterministic):\n       ";
             evaluate(GenericBroadcast(generic_fr_config(2)));
         }},
        // Ablation (Section 1 claim): "although the greedy algorithm proposed
        // by Guha and Khuller does not have a constant approximation ratio,
        // it performs much better than several approaches with constant
        // ratios on randomly generated networks."  Compare the centralized
        // greedy CDS, the constant-approximation cluster CDS, and the
        // distributed coverage condition — plus the coverage condition
        // applied as a post-reduction to both (the Section 1 composition
        // claim).
        {"ablation_approximation",
         "Ablation: CDS size — centralized greedy vs constant-approx cluster\n"
         "CDS vs distributed coverage condition (static, 2-hop, degree prio),\n"
         "with '+red' columns showing coverage-condition post-reduction.",
         [](bench::Bench& b) {
             const auto& opts = b.options();
             for (double d : {6.0, 18.0}) {
                 std::cout << "== d=" << static_cast<int>(d) << " ==\n";
                 std::cout
                     << "n    greedy  cluster  cluster+red  coverage  coverage+red  runs\n";
                 std::cout
                     << "-----------------------------------------------------------------\n";
                 for (std::size_t n : {20u, 40u, 60u, 80u, 100u}) {
                     UnitDiskParams params;
                     params.node_count = n;
                     params.average_degree = d;
                     Rng gen(opts.seed + n);
                     double greedy = 0, cluster = 0, cluster_red = 0, coverage = 0,
                            coverage_red = 0;
                     const std::size_t runs = std::max<std::size_t>(opts.max_runs / 4, 20);
                     for (std::size_t i = 0; i < runs; ++i) {
                         const auto net = generate_network_checked(params, gen);
                         const PriorityKeys keys(net.graph, PriorityScheme::kDegree);

                         const auto g1 = guha_khuller_cds(net.graph);
                         const auto c1 = cluster_cds(net.graph);
                         const auto c2 = reduce_cds(net.graph, c1, 2, PriorityScheme::kDegree);
                         const auto v1 =
                             generic_static_forward_set(net.graph, 2, keys, CoverageOptions{});
                         const auto v2 = reduce_cds(net.graph, v1, 2, PriorityScheme::kDegree);

                         greedy += static_cast<double>(set_size(g1));
                         cluster += static_cast<double>(set_size(c1));
                         cluster_red += static_cast<double>(set_size(c2));
                         coverage += static_cast<double>(set_size(v1));
                         coverage_red += static_cast<double>(set_size(v2));
                     }
                     const double r = static_cast<double>(runs);
                     std::cout << std::left << std::setw(5) << n << std::fixed
                               << std::setprecision(2) << std::setw(8) << greedy / r
                               << std::setw(9) << cluster / r << std::setw(13)
                               << cluster_red / r << std::setw(10) << coverage / r
                               << std::setw(14) << coverage_red / r << runs << '\n';
                 }
                 std::cout << '\n';
             }
         }},
        // Ablation (Section 1 / assumption 4): broadcast under stale topology
        // views.  Nodes move under random waypoint for `staleness` seconds
        // after the hello snapshot; forward decisions use the old topology
        // while packets follow the new one.  Expected: delivery degrades with
        // staleness, and the redundancy spectrum (flooding > FRB > FR) ranks
        // robustness — "the effect of moderate mobility can be balanced by a
        // slight increase in the broadcast redundancy".
        {"ablation_mobility",
         "Ablation: delivery ratio vs view staleness (n=60, d=8, random\n"
         "waypoint 1-10 units/s)",
         [](bench::Bench& b) {
             std::cout << "staleness  flooding  generic-FRB  generic-FR\n";
             std::cout << "---------------------------------------------\n";

             UnitDiskParams net;
             net.node_count = 60;
             net.average_degree = 8.0;
             WaypointParams move;

             const FloodingAlgorithm flooding;
             const GenericBroadcast frb(generic_frb_config(2));
             const GenericBroadcast fr(generic_fr_config(2));
             const std::size_t runs = std::max<std::size_t>(b.options().max_runs / 4, 25);

             auto mean_delivery = [&](const BroadcastAlgorithm& algo, double staleness) {
                 double total = 0;
                 for (std::size_t i = 0; i < runs; ++i) {
                     Rng rng(b.options().seed + i * 977 +
                             static_cast<std::uint64_t>(staleness * 100));
                     total += stale_view_broadcast(algo, net, move, staleness, 0, rng)
                                  .delivery_ratio;
                 }
                 return total / static_cast<double>(runs);
             };

             for (double staleness : {0.0, 1.0, 2.0, 4.0, 8.0, 16.0}) {
                 std::cout << std::fixed << std::setprecision(1) << std::setw(11) << std::left
                           << staleness << std::setprecision(4) << std::setw(10)
                           << mean_delivery(flooding, staleness) << std::setw(13)
                           << mean_delivery(frb, staleness) << mean_delivery(fr, staleness)
                           << '\n';
             }
         }},
        // Ablation: view quality vs broadcast efficiency.  Lossy hello
        // exchanges leave nodes with sub-views (fewer known 2-hop edges);
        // Theorem 2 keeps the broadcast correct, but pruning weakens —
        // quantify the forward-count cost of hello loss, alongside the hello
        // overhead itself.
        {"ablation_hello_loss",
         "Ablation: hello loss vs pruning efficiency (n=80, d=6, k=2,\n"
         "generic FR; neighbor discovery reliable per Theorem 2's 1-hop\n"
         "requirement)",
         [](bench::Bench& b) {
             std::cout << "hello loss  mean fwd  delivery  hello B/node/period\n";
             std::cout << "----------------------------------------------------\n";

             UnitDiskParams params;
             params.node_count = 80;
             params.average_degree = 6.0;
             const std::size_t runs = std::max<std::size_t>(b.options().max_runs / 4, 25);

             for (double loss : {0.0, 0.1, 0.3, 0.5, 0.7, 0.9}) {
                 Rng gen(b.options().seed);
                 double fwd = 0, delivered = 0, bytes = 0;
                 for (std::size_t i = 0; i < runs; ++i) {
                     const auto net = generate_network_checked(params, gen);
                     HelloProtocol hello(net.graph,
                                         HelloConfig{.rounds = 2, .loss_probability = loss});
                     Rng hrng = gen.fork();
                     hello.run(hrng);
                     std::vector<LocalTopology> views;
                     for (NodeId v = 0; v < net.graph.node_count(); ++v) {
                         views.push_back(hello.view_of(v));
                     }
                     bytes += static_cast<double>(hello.total_bytes()) /
                              static_cast<double>(net.graph.node_count());

                     GenericAgent agent(net.graph, generic_fr_config(2), std::move(views));
                     Simulator sim(net.graph);
                     Rng rng = gen.fork();
                     const auto result = sim.run(0, agent, rng);
                     fwd += static_cast<double>(result.forward_count);
                     delivered += result.full_delivery ? 1.0 : 0.0;
                 }
                 const double r = static_cast<double>(runs);
                 std::cout << std::fixed << std::setprecision(1) << std::setw(12) << std::left
                           << loss << std::setprecision(2) << std::setw(10) << fwd / r
                           << std::setprecision(3) << std::setw(10) << delivered / r
                           << std::setprecision(0) << bytes / r << '\n';
             }
             std::cout << "\nExpected: delivery stays 1.000 at every loss level (Theorem 2);\n"
                          "forward counts rise toward flooding as views degrade.\n";
         }},
        // Ablation (Section 4.2): the relaxed neighbor-designating rule.  "A
        // designated node does not need to forward the packet if it meets
        // the coverage condition" with its S=1.5 priority.  Compare strict vs
        // relaxed for the pure ND and hybrid selection policies.
        {"ablation_relaxed",
         "Ablation: strict vs relaxed designation (Section 4.2's S=1.5 rule;\n"
         "first-receipt, 2-hop, ID priority)",
         [](bench::Bench& b) {
             auto make = [](Selection sel, bool strict, const char* label) {
                 GenericConfig cfg = hybrid_config(sel);
                 cfg.selection = sel;
                 cfg.strict_designation = strict;
                 return GenericBroadcast(cfg, label);
             };
             const GenericBroadcast nd_strict =
                 make(Selection::kNeighborDesignating, true, "ND strict");
             const GenericBroadcast nd_relaxed =
                 make(Selection::kNeighborDesignating, false, "ND relaxed");
             const GenericBroadcast hy_strict =
                 make(Selection::kHybridMaxDegree, true, "MaxDeg strict");
             const GenericBroadcast hy_relaxed =
                 make(Selection::kHybridMaxDegree, false, "MaxDeg relaxed");
             const std::vector<const BroadcastAlgorithm*> algos{&nd_strict, &nd_relaxed,
                                                                &hy_strict, &hy_relaxed};
             b.run_panel("d=6, 2-hop", algos, 6.0);
             b.run_panel("d=18, 2-hop", algos, 18.0);
         }},
        // Ablation: how far from the true optimum do the schemes land?  The
        // minimum CDS is NP-complete (Section 1); at n <= 20 the exact solver
        // gives ground truth.  Reports mean CDS sizes and the ratio to
        // optimum for the centralized greedy, the cluster CDS, the static
        // coverage condition, and one dynamic broadcast (forward count,
        // source included — slightly different metric, shown for context).
        {"ablation_optimality_gap", "Ablation: approximation quality vs exact minimum CDS (d=5)",
         [](bench::Bench& b) {
             std::cout << "n    optimum  greedy          coverage        cluster         "
                          "generic-FR fwd\n";
             std::cout << "-------------------------------------------------------------------"
                          "-------\n";

             const std::size_t runs = std::max<std::size_t>(b.options().max_runs / 4, 25);
             for (std::size_t n : {12u, 16u, 20u}) {
                 UnitDiskParams params;
                 params.node_count = n;
                 params.average_degree = 5.0;
                 Rng gen(b.options().seed + n);
                 double opt = 0, greedy = 0, coverage = 0, cluster = 0, dynamic_fwd = 0;
                 for (std::size_t i = 0; i < runs; ++i) {
                     const auto net = generate_network_checked(params, gen);
                     opt += static_cast<double>(*minimum_cds_size(net.graph));
                     greedy += static_cast<double>(set_size(guha_khuller_cds(net.graph)));
                     const PriorityKeys keys(net.graph, PriorityScheme::kDegree);
                     coverage += static_cast<double>(
                         set_size(generic_static_forward_set(net.graph, 2, keys, {})));
                     cluster += static_cast<double>(set_size(cluster_cds(net.graph)));
                     Rng run = gen.fork();
                     const GenericBroadcast fr(generic_fr_config(2, PriorityScheme::kDegree));
                     dynamic_fwd += static_cast<double>(
                         fr.broadcast(net.graph, static_cast<NodeId>(run.index(n)), run)
                             .forward_count);
                 }
                 const double r = static_cast<double>(runs);
                 auto cell = [&](double x) {
                     std::ostringstream s;
                     s << std::fixed << std::setprecision(2) << x / r << " ("
                       << std::setprecision(2) << x / opt << "x)";
                     return s.str();
                 };
                 std::cout << std::left << std::setw(5) << n << std::setw(9) << std::fixed
                           << std::setprecision(2) << opt / r << std::setw(16) << cell(greedy)
                           << std::setw(16) << cell(coverage) << std::setw(16)
                           << cell(cluster) << cell(dynamic_fwd) << '\n';
             }
             std::cout << "\nExpected: greedy closest to optimum; coverage condition within "
                          "~1.5x;\n"
                          "cluster CDS (constant worst-case ratio) worst on random networks.\n";
         }},
        // Ablation (Section 1 / cited WCNC'04 claim): "packet collision can
        // be relieved with a small forwarding jitter delay."  Under a
        // collision model where same-instant arrivals destroy each other,
        // synchronized forwarding (FR, zero jitter) suffers badly — the
        // broadcast storm; a small random jitter desynchronizes the waves and
        // restores delivery.  Pruning helps too: fewer transmissions, fewer
        // collisions.
        {"ablation_collisions",
         "Ablation: collisions vs forwarding jitter (n=80, d=8)\n"
         "Collision model: same-instant arrivals at a node destroy each other.",
         [](bench::Bench& b) {
             std::cout << "jitter   flooding   generic-FR   generic-FRB\n";
             std::cout << "----------------------------------------------\n";

             UnitDiskParams params;
             params.node_count = 80;
             params.average_degree = 8.0;
             const std::size_t runs = std::max<std::size_t>(b.options().max_runs / 4, 25);

             const FloodingAlgorithm flooding;
             const GenericBroadcast fr(generic_fr_config(2));
             const GenericBroadcast frb(generic_frb_config(2));

             auto mean_delivery = [&](const BroadcastAlgorithm& algo, double jitter) {
                 Rng gen(b.options().seed + static_cast<std::uint64_t>(jitter * 1000));
                 double total = 0;
                 for (std::size_t i = 0; i < runs; ++i) {
                     const auto net = generate_network_checked(params, gen);
                     MediumConfig medium;
                     medium.collisions = true;
                     medium.jitter = jitter;
                     Rng run = gen.fork();
                     const auto result = algo.broadcast_traced(net.graph, 0, run, medium);
                     total += static_cast<double>(result.received_count) /
                              static_cast<double>(params.node_count);
                 }
                 return total / static_cast<double>(runs);
             };

             for (double jitter : {0.0, 0.01, 0.05, 0.2, 0.5}) {
                 std::cout << std::fixed << std::setprecision(2) << std::setw(9) << std::left
                           << jitter << std::setprecision(4) << std::setw(11)
                           << mean_delivery(flooding, jitter) << std::setw(13)
                           << mean_delivery(fr, jitter) << mean_delivery(frb, jitter) << '\n';
             }
             std::cout << "\nExpected: zero jitter collapses synchronized schemes (every wave\n"
                          "collides); even 0.01 units of jitter restores near-full delivery.\n"
                          "FRB is naturally desynchronized by its backoff.\n";
         }},
    };
    return specs;
}

std::vector<std::string> split_csv(const std::string& list) {
    std::vector<std::string> out;
    std::istringstream in(list);
    std::string item;
    while (std::getline(in, item, ',')) {
        if (!item.empty()) out.push_back(item);
    }
    return out;
}

std::string first_line(const char* title) {
    const std::string text = title;
    return text.substr(0, text.find('\n'));
}

/// Creates `dir` for a per-figure output flag; false (with a message) if
/// it cannot be made.
bool make_output_dir(const char* flag, const std::string& dir) {
    if (dir.empty()) return true;
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) {
        std::cerr << "cannot create " << flag << " directory " << dir << ": " << ec.message()
                  << '\n';
        return false;
    }
    return true;
}

}  // namespace

int main(int argc, char** argv) {
    const auto& registry = figure_registry();

    std::vector<const FigureSpec*> wanted;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help") {
            std::cout << "usage: bench_campaign [--list] [--figures NAME[,NAME...]] [--runs N "
                         "| --full] [--seed S] [--jobs N] [--json DIR] [--csv] [--gnuplot "
                         "DIR]\n";
            return 0;
        }
        if (arg == "--list") {
            for (const auto& spec : registry) {
                std::cout << spec.name << "  —  " << first_line(spec.title) << '\n';
            }
            return 0;
        }
        if (arg != "--figures") continue;
        const std::vector<std::string> names =
            i + 1 < argc ? split_csv(argv[++i]) : std::vector<std::string>{};
        if (names.empty()) {
            std::cerr << "--figures needs a comma-separated list of names (see --list)\n";
            return 2;
        }
        // Resolve the whole list before anything runs.
        wanted.clear();
        bool unknown = false;
        for (const std::string& name : names) {
            const auto it = std::find_if(registry.begin(), registry.end(),
                                         [&](const FigureSpec& s) { return s.name == name; });
            if (it == registry.end()) {
                std::cerr << "unknown figure: " << name << " (see --list)\n";
                unknown = true;
            } else {
                wanted.push_back(&*it);
            }
        }
        if (unknown) return 2;
    }
    if (wanted.empty()) {
        for (const auto& spec : registry) wanted.push_back(&spec);
    }

    bench::BenchOptions opts = bench::parse_options(argc, argv, {"--list"}, {"--figures"});
    opts.progress = true;  // the campaign driver always reports progress

    // --json and --gnuplot name DIRECTORIES here: one file set per figure.
    const std::string json_dir = opts.json_path;
    const std::string plot_dir = opts.gnuplot_prefix;
    if (!make_output_dir("--json", json_dir) || !make_output_dir("--gnuplot", plot_dir)) {
        return 1;
    }

    int exit_code = 0;
    std::size_t done = 0;
    for (const FigureSpec* spec : wanted) {
        const std::string name = spec->name;
        std::cerr << "=== [" << ++done << "/" << wanted.size() << "] " << name << ": "
                  << first_line(spec->title) << " ===\n";
        if (!spec->run_prints_title) std::cout << spec->title << "\n\n";

        bench::BenchOptions fig_opts = opts;
        if (!json_dir.empty()) fig_opts.json_path = json_dir + "/BENCH_" + name + ".json";
        if (!plot_dir.empty()) fig_opts.gnuplot_prefix = plot_dir + "/" + name;
        bench::Bench bench(name, fig_opts);
        spec->run(bench);
        exit_code = std::max(exit_code, bench.finish());
    }
    return exit_code;
}
