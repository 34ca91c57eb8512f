/// \file scale_engine.hpp
/// \brief Window-synchronous sharded broadcast engine for million-node runs.
///
/// `Simulator` is the reference machine: one event queue, arbitrary agents,
/// faults, collisions, jitter.  At n = 10^6 its strictly-serial pop loop is
/// the wall.  `ScaleEngine` trades generality for throughput on the paper's
/// evaluation medium (collision-free, fixed propagation delay): because
/// every delivery scheduled while processing window [T, T + d) lands at
/// exactly T + d, events inside one window are causally independent and can
/// be drained in parallel — and, more, the *only* pending events at any
/// moment are the next window's.  No priority queue is needed at all: the
/// staging buckets ARE the schedule.
///
/// Sharding is by *wheel*, not by thread: nodes are block-partitioned into a
/// fixed number of event wheels (`ScaleConfig::wheels`, independent of
/// `jobs`), and the schedule is a double-buffered matrix of staging buckets
/// `out[src][dst]`.  Each window runs ONE phase: wheel `w` walks the
/// previous window's buckets `prev[s][w]` in canonical (source wheel,
/// generation) order — exactly the (time, seq) pop order a per-wheel queue
/// would produce — applies the forwarding policy to its own nodes' state,
/// and stages resulting sends into `cur[w][dst]` in generation order.  A
/// barrier publishes the window, the buffers swap, and the next window
/// begins.
///
/// That single phase serves kFlood and kSelfPrune without faults.  Every
/// other run — generic coverage, and any run with a fault plan or the
/// recovery layer — takes the *exact-order pipeline*, which reproduces the
/// reference Simulator's (time, seq) pop order itself.
///
/// **Generic coverage at scale.**  `ScalePolicy::kGenericCoverage` runs the
/// paper's coverage-condition decision (Sections 3-4) inside the windowed
/// engine for the honorable axis subset — Static or First-Receipt timing ×
/// self-pruning selection × k-hop views (k >= 1) × any priority/history/
/// coverage knobs.  Under a collision-free uniform-delay medium a
/// first-receipt self-pruning decision depends only on the *first received*
/// transmission, so the decision needs the node's first copy in the
/// reference Simulator's (time, seq) order and nothing else.  The pipeline
/// keeps a calendar of per-window event buckets and gives every event the
/// insertion sequence the Simulator would give it, so a window sorted by
/// (time, seq) IS the Simulator's pop order.  Each window then runs:
///
///   1. fault prefix (serial): the window's plan events;
///   2. per-wheel phase (parallel over wheels): each wheel walks the
///      window's events in pop order and updates only its own nodes —
///      first receipt, the forwarding verdict, suppression at down nodes,
///      and the recovery timers and repair budget — recording each push the
///      Simulator would make as an action of that event.  Under Static
///      timing a verdict some earlier run computed is recalled from the
///      engine's per-node memo.  Otherwise a verdict first
///      tries the view-free special cases of the coverage condition
///      (`settle_without_view`): a leaf, or Wu–Li's Rule 1 where
///      `rule1_implies_coverage` holds, says "pruned"; a forward witness
///      (an unvisited neighbor u that misses another neighbor, with v
///      outranking every node of N(u) \ {v}) says "forwards" — each the
///      kernel's own verdict.  Only the unsettled decisions run the
///      coverage kernel of src/core/coverage.cpp over a Definition-2 view
///      compiled into per-wheel scratch by `KHopViewBuilder`;
///   3. action step (serial): the recorded actions run in merged pop order:
///      packet and history-chain entries, the transmission-order digest,
///      link gating, counter-keyed loss draws and the insertion sequences;
///   4. a fault that sorts after same-window traffic splits the window into
///      two phases at its (time, seq).
///
/// This is sound because nothing a window's events push lands in the same
/// window: deliveries land one delay later and recovery timers at aligned
/// multiples of the delay.  Forward set, counts, completion time and
/// transmission-order digest are byte-identical to the serial `Simulator`
/// running `GenericAgent` with the same `GenericConfig`
/// (tests/scale_engine_test.cpp proves it across seeds × wheels × jobs, and
/// the fuzzer's scale oracle keeps proving it continuously).
///
/// The engine reads one immutable graph, the constructor's, and builds its
/// priority keys once.  Every decision reads that graph — the shortcut its
/// rows, the compile its ball in O(ball edges) into scratch sized to the
/// ball, not to n.  Link churn in a fault plan gates links through
/// `faults::FaultSession`, exactly as in `Simulator`; views never change.
/// A Static decision sees every status unvisited, so its verdict depends
/// on neither the source nor the plan: a Static engine computes each
/// node's verdict once, in the first run that reaches the node, and later
/// runs recall it (`ScaleResult::recalled_verdicts`; docs/SCALING.md
/// "Static verdicts are recalled").
///
/// Both pipelines parallelize over wheels with any number of worker
/// threads; the result (counts, completion time, and the order digest) is
/// byte-identical for every `jobs` value.
///
/// **Faults at scale.**  `attach_faults` threads a `faults::FaultPlan`
/// (crash/recover schedules, link churn, counter-based asymmetric loss)
/// into the engine, and `set_recovery` arms a window-synchronous mirror of
/// `faults::RecoveryAgent` (holder beacons, gap NACKs under bounded
/// exponential backoff, budgeted repairs).  A faulted run is the same
/// exact-order pipeline with a plan and/or recovery: fault events are
/// bucketed by ceil(time/delay) and applied in their (time, seq) place,
/// loss draws run through the plan's own counter-based stream in the exact
/// send order, and recovery timers sit at window-aligned instants.
/// Delivery sets, counters, outcome classification and the
/// transmission-order digest are byte-identical to
/// `Simulator::broadcast_resilient` AND invariant under (wheels x jobs).
/// See docs/SCALING.md "Faults at scale" for the window-bucketing contract.

#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/priority.hpp"
#include "faults/fault_plan.hpp"
#include "faults/fault_session.hpp"
#include "faults/recovery.hpp"
#include "graph/graph.hpp"
#include "graph/khop.hpp"
#include "sim/generic_config.hpp"
#include "sim/trace.hpp"

namespace adhoc {

/// Forwarding rule applied on first receipt.
enum class ScalePolicy {
    kFlood,      ///< every node forwards once (blind flooding)
    kSelfPrune,  ///< forward only if N(v) is not covered by N(u) u {u}
    /// The paper's generic coverage condition (honorable subset: Static/FR
    /// timing, self-pruning selection, k >= 1 hop views).  Byte-identical
    /// to the serial Simulator running the same `GenericConfig`.
    kGenericCoverage,
};

/// Source-compatibility shim with a single value.  The engine has one view
/// backend (a `KHopViewBuilder` compile into per-wheel
/// scratch) and never reads `ScaleConfig::view_mode`; the enum and field
/// stay only so callers that still assign `kScratch` keep compiling.
enum class ScaleViewMode {
    kScratch,
};

struct ScaleConfig {
    double delay = 1.0;       ///< uniform per-hop latency (> 0)
    std::size_t wheels = 8;   ///< event-wheel shards; fixes the merged order
    std::size_t jobs = 1;     ///< worker threads (>= 1); never changes the result
    ScalePolicy policy = ScalePolicy::kFlood;
    /// Knobs for kGenericCoverage (ignored by the other policies).  The
    /// constructor rejects combinations the windowed engine cannot honor:
    /// backoff timings (need per-node timers and RNG draws), selections
    /// other than self-pruning (need designation pullback events), and
    /// hops == 0 (global views cost O(n) per decision — use Simulator).
    GenericConfig generic;
    ScaleViewMode view_mode = ScaleViewMode::kScratch;  ///< never read (see enum)
};

struct ScaleResult {
    std::size_t delivered_events = 0;  ///< delivery events processed
    std::size_t forward_count = 0;     ///< nodes that transmitted (incl. source)
    std::size_t received_count = 0;
    double completion_time = 0.0;
    bool full_delivery = false;
    std::size_t windows = 0;            ///< synchronization rounds executed
    std::size_t peak_queue_events = 0;  ///< max events pending across wheels
    /// kFlood/kSelfPrune: mix-fold over the canonical per-wheel drain
    /// stream (wheel-major: every event's time bits, node, sender); a
    /// function of (seed, wheels).  kGenericCoverage: mix-fold over the
    /// *global transmission order* (each transmission's time bits and
    /// node), independent of `wheels` as well as `jobs`, and equal to
    /// `reference_transmission_digest` of a Simulator trace of the same
    /// broadcast.  Either way, equal digests across `jobs` values prove
    /// the processing order never diverged.  Faulted runs (any policy) use
    /// the global transmission digest, equal to
    /// `reference_transmission_digest` of the matching resilient Simulator
    /// trace.
    std::uint64_t order_digest = 0;

    // ---- Fault/recovery accounting (zero / empty for fault-free runs),
    // ---- mirroring the BroadcastResult fields of the same names --------
    std::size_t retransmit_count = 0;  ///< recovery repairs sent
    std::size_t control_count = 0;     ///< beacons + NACKs sent
    std::size_t fault_suppressed = 0;  ///< deliveries/timers/links eaten by faults
    std::vector<char> down;            ///< nodes down at end of run (empty: no faults)

    /// kGenericCoverage: decisions of this run that compiled a
    /// Definition-2 view, i.e. were neither recalled nor settled by
    /// `settle_without_view` (0 for the other policies).  Summed over
    /// wheels; identical at any `jobs`.
    std::size_t view_compiles = 0;
    /// kGenericCoverage with Static timing: decisions of this run answered
    /// from the engine's verdict memo, i.e. decided by an earlier run of
    /// the same engine (0 for every other configuration).  The run computed
    /// `received_count - 1 - recalled_verdicts` decisions.  Summed over
    /// wheels; identical at any `jobs` and `wheels`.
    std::size_t recalled_verdicts = 0;
};

/// The generic-policy order digest computed from a reference `Simulator`
/// trace: the same mix-fold over (time, node) of every kTransmit event, in
/// trace order.  `ScaleResult::order_digest` of a kGenericCoverage run must
/// equal this for a trace of the same broadcast — the differential anchor
/// used by tests, the fuzz oracle and bench_scale's legacy cross-check.
[[nodiscard]] std::uint64_t reference_transmission_digest(const Trace& trace);

class ScaleEngine {
  public:
    /// The graph must outlive the engine, which reads it unchanged for
    /// every run.  Throws std::invalid_argument on a non-positive delay,
    /// zero wheel or job count, or generic-policy knobs the engine cannot
    /// honor.
    ScaleEngine(const Graph& graph, ScaleConfig config = {});
    ~ScaleEngine();

    ScaleEngine(const ScaleEngine&) = delete;
    ScaleEngine& operator=(const ScaleEngine&) = delete;

    /// Runs one broadcast from `source` to quiescence.  Reusable: state is
    /// reset on entry.  Throws std::invalid_argument when `source` is not
    /// a node of a non-empty graph; an empty graph yields the zero result.
    [[nodiscard]] ScaleResult run(NodeId source);

    [[nodiscard]] const ScaleConfig& config() const noexcept { return config_; }

    /// Attaches a fault schedule for subsequent runs (nullptr detaches).
    /// The plan must outlive the engine.  Throws `std::invalid_argument`
    /// (via `faults::validate_plan`) on a structurally invalid plan, and
    /// when the plan's horizon exceeds the engine's window calendar
    /// (`time / delay` past 2^20 windows).  Event times need not be
    /// window-aligned: an event at time t joins the window of the first
    /// boundary >= t (times within 1e-9 relative of a boundary snap to
    /// it) and applies at its (time, seq) place there — before the
    /// window's deliveries when t is at or before the boundary, after them
    /// when t is a hair past it — exactly when the reference Simulator
    /// would observe its effect.
    void attach_faults(const faults::FaultPlan* plan);

    /// Arms (or, with `enabled == false`, disarms) the window-synchronous
    /// recovery layer for subsequent runs.  Throws `std::invalid_argument`
    /// unless the config is window-aligned: `beacon_interval` and
    /// `nack_delay` positive integer multiples of `delay`, an integral
    /// `backoff_factor >= 1`, and a maximum backoff within the calendar
    /// horizon.  (The `RecoveryConfig{}` default `nack_delay = 0.5` is NOT
    /// aligned at the default delay 1.0 — pass an aligned value.)
    void set_recovery(const faults::RecoveryConfig& config);

    /// Per-node outcome of the last `run` (differential tests, fuzz
    /// oracle).  1 iff the node transmitted / received a copy.
    [[nodiscard]] const std::vector<char>& forwarded_mask() const noexcept {
        return forwarded_;
    }
    [[nodiscard]] const std::vector<char>& received_mask() const noexcept { return received_; }

    /// Engine-owned working memory (per-node state including the Static
    /// verdict memo, staging-bucket and faulted-plane high-water marks,
    /// per-wheel view scratch), for the bench's bytes/node metric.  The
    /// borrowed graph is not counted.
    [[nodiscard]] std::size_t state_bytes() const noexcept;

    /// Fan-out gate: a window runs on the worker crew only when `jobs > 1`
    /// and its queued work reaches `kParallelWindow` flood events
    /// (`window_work`: under generic coverage only events that may compute
    /// a verdict count, `kDecisionWeight` each); smaller windows run inline
    /// on the calling thread.  A Static run whose verdicts are all recalled
    /// therefore stays on one thread.  Both paths compute the identical
    /// result, so the gate never shows in counts or digests.  See
    /// docs/SCALING.md "When a window fans out".
    ///
    /// `kParallelWindow` counts flood/self-prune events (~40 ns each):
    /// below ~1024 of them a window cannot amortize the crew's barrier
    /// rendezvous (paired runs at n = 10^6 chose it over 4096).
    static constexpr std::size_t kParallelWindow = 1024;
    /// A lower bound on the work of one queued generic delivery, in flood
    /// events.  At n = 10^6 a coverage decision (Definition-2 view compile
    /// plus the coverage kernel) costs ~4 us against ~40 ns per flood
    /// event, and a generic window queues ~3 deliveries per decision, so a
    /// delivery carries ~35 flood events of work.  Paired runs at n = 10^6
    /// found gates of 16, 64 and 256 queued deliveries equally fast, but
    /// the 16-delivery gate raised peak RSS by ~10 MiB in 6 of 10 runs; 16
    /// keeps generic windows fanning out from 1024 / 16 = 64 deliveries.
    /// docs/PERF.md "Window fan-out gate" has the runs.
    static constexpr std::size_t kDecisionWeight = 16;

  private:
    struct Staged {
        double time;  ///< delivery instant
        NodeId node;
        NodeId sender;
    };

    /// The pushes one event's replay asks of the serial action step:
    /// `ops` is a set of kOp* bits (scale_engine.cpp), run in a fixed order.
    struct Action {
        std::uint32_t event;  ///< index of the event in `work_`
        std::uint32_t ops;
        NodeId target;  ///< NACK recipient (kOpNack)
        double when;    ///< timer instant (kOpArmBeacon / kOpArmNack)
    };

    /// Per-wheel working set of the exact-order phase: the wheel's
    /// recorded actions and counters plus the view compile buffers.  All
    /// buffers only grow — zero allocations per decision in steady state.
    struct WheelScratch {
        std::vector<Action> actions;  ///< this phase's actions, in pop order
        std::size_t delivered = 0;    ///< delivery events walked this run
        std::size_t suppressed = 0;   ///< events eaten at down nodes this run
        std::size_t compiles = 0;     ///< views compiled this run
        std::size_t recalled = 0;     ///< Static verdicts recalled this run
        std::vector<NodeId> visited;  ///< decision-time visited set (<= h+1)
        KHopViewBuilder view;         ///< Definition-2 CSR of the decider
    };

    /// One queue entry of the exact-order pipeline.  `payload` indexes the
    /// packet table (kDelivery), the control table (kControl), the fault
    /// plan (kFault), or names the recovery timer kind (kTimer).
    struct REvent {
        double time;
        std::uint64_t seq;  ///< replicated Simulator insertion sequence
        std::uint32_t kind;
        NodeId node;
        std::uint32_t payload;
    };
    /// A data packet: its sender plus the piggybacked history chain
    /// (stored in the pooled `r_chain_`; empty for policies whose
    /// decisions never read packet state).
    struct RPacket {
        NodeId sender;
        std::uint32_t chain_off;
        std::uint32_t chain_len;
    };
    struct RControl {
        NodeId sender;
        std::uint32_t kind;  ///< kBeaconMsg / kNackMsg
    };

    [[nodiscard]] std::size_t wheel_of(NodeId v) const noexcept { return v / block_; }
    /// The one fan-out rule (see kParallelWindow), over a window's work in
    /// flood events.
    [[nodiscard]] bool fans_out(std::size_t work) const noexcept {
        return config_.jobs > 1 && work >= kParallelWindow;
    }
    /// The work of exact-order events `work_[lo, hi)` in flood events: one
    /// each, or under generic coverage `kDecisionWeight` per event that may
    /// compute a verdict — every event under FR; under Static only
    /// deliveries to a node with neither the packet nor a recalled verdict.
    [[nodiscard]] std::size_t window_work(std::size_t lo, std::size_t hi) const;
    void process_wheel(std::size_t w);

    void validate_generic_config() const;
    /// The coverage decision: true iff `v`, whose first received packet
    /// came from `sender` carrying history `chain`, forwards.  Under Static
    /// timing it answers from `static_verdicts_` when it can.
    [[nodiscard]] bool decide(WheelScratch& ws, NodeId v, NodeId sender,
                              std::span<const NodeId> chain);
    /// `decide` without the memo: the view-free special cases, else a view
    /// compile and the coverage kernel.
    [[nodiscard]] bool compute_verdict(WheelScratch& ws, NodeId v, NodeId sender,
                                       std::span<const NodeId> chain);

    // ---- exact-order pipeline (run_exact and helpers) -----------------
    [[nodiscard]] ScaleResult run_exact(NodeId source);
    /// The per-wheel phase: replays work_[lo, hi) for nodes
    /// [first, first + count) and records their actions in `ws`.
    void replay_wheel(WheelScratch& ws, std::size_t lo, std::size_t hi, NodeId first,
                      std::size_t count);
    /// The same phase on the calling thread: one walk over work_[lo, hi)
    /// that hands each event to its node's wheel scratch.
    void replay_inline(std::size_t lo, std::size_t hi);
    /// One event of a phase, at a live node; records its action in `ws`.
    void replay_event(WheelScratch& ws, std::size_t j);
    /// The serial action step: runs `actions_` (merged, in pop order).
    void run_actions();
    [[nodiscard]] std::size_t window_index(double time) const noexcept;
    /// The calendar bucket of `time`'s window (grown on demand).
    [[nodiscard]] std::vector<REvent>& bucket(double time);
    void push_revent(double time, std::uint32_t kind, NodeId node, std::uint32_t payload);
    /// Mirrors `Simulator::schedule_deliveries`: per-link fault gating and
    /// counter-based loss draws in sorted-adjacency order, one queued
    /// event (and one insertion sequence) per surviving link.
    void fanout(NodeId sender, bool control, std::uint32_t payload,
                NodeId only_target, double next_time);
    /// Mirrors `Simulator::transmit` for a node that decided to forward:
    /// digest fold, packet-table entry (chain derived from the first
    /// received packet under FR timing), fanout.
    void transmit(NodeId v, double now);
    void resend(NodeId v, double now);
    /// Appends a packet (sender `v`, chain = last `history` of the first
    /// received chain + v, FR timing only) and returns its table index.
    [[nodiscard]] std::uint32_t make_packet(NodeId v, std::size_t history);
    [[nodiscard]] std::span<const NodeId> packet_chain(const RPacket& pkt) const noexcept;
    [[nodiscard]] bool recovery_on() const noexcept {
        return recovery_.has_value() && recovery_->enabled;
    }
    [[nodiscard]] bool faulted() const noexcept {
        return fault_plan_ != nullptr || recovery_on();
    }

    const Graph& graph_;
    ScaleConfig config_;
    std::size_t block_ = 1;  ///< nodes per wheel (last wheel may be short)

    // Per-node state; each node is written only by its owning wheel, and
    // byte-granular vectors keep cross-wheel writes on distinct memory
    // locations (no false word-sharing races, unlike packed bitsets).
    std::vector<char> received_;
    std::vector<char> forwarded_;

    // ---- kFlood/kSelfPrune fault-free phase (process_wheel) -----------
    struct Wheel {
        std::size_t delivered = 0;
        double last_time = 0.0;
        std::uint64_t digest = 0xcbf29ce484222325ULL;  // FNV-1a basis
    };
    std::vector<Wheel> wheels_;
    /// Double-buffered staging matrix, indexed [src * wheels + dst].
    /// `prev_` holds the current window's deliveries (read-only during the
    /// phase); the phase stages the next window into `cur_`.  Swapped
    /// between windows; capacity is kept.
    std::vector<std::vector<Staged>> prev_;
    std::vector<std::vector<Staged>> cur_;

    // ---- kGenericCoverage state --------------------------------------
    PriorityKeys keys_;  ///< static priority keys of `graph_`
    /// Static timing only (empty otherwise): each node's verdict, once some
    /// run has decided it.  A Static decision sees every status unvisited,
    /// so its verdict depends on `graph_`, `keys_` and the view depth
    /// alone, all fixed for the engine's lifetime; fault plans and recovery
    /// gate nodes and links, never views.  Under FR timing a verdict reads
    /// the first packet's chain, so FR never has a memo.
    std::vector<std::uint8_t> static_verdicts_;
    static constexpr std::uint8_t kVerdictUnknown = 0;
    static constexpr std::uint8_t kVerdictPrunes = 1;
    static constexpr std::uint8_t kVerdictForwards = 2;

    // ---- exact-order pipeline state -----------------------------------
    std::vector<WheelScratch> scratch_;  ///< one per wheel
    std::vector<Action> actions_;        ///< a phase's actions, merged across wheels
    std::uint64_t tx_digest_ = 0;        ///< global transmission-order digest
    const faults::FaultPlan* fault_plan_ = nullptr;
    std::optional<faults::RecoveryConfig> recovery_;
    faults::FaultSession fsession_;
    faults::FaultPlan empty_plan_;  ///< session target for planless runs
    std::vector<std::vector<REvent>> cal_;  ///< window calendar buckets
    std::vector<REvent> work_;              ///< bucket being drained
    std::vector<REvent> spare_;             ///< a drained bucket, for reuse
    std::vector<RPacket> packets_;
    std::vector<RControl> controls_;
    std::vector<NodeId> r_chain_;  ///< pooled packet history chains (FR only)
    std::uint64_t r_seq_ = 0;      ///< replicated insertion sequence
    std::size_t r_pending_ = 0;    ///< events queued and not yet drained
    std::size_t r_retransmit_ = 0;
    std::size_t r_control_ = 0;
    std::size_t r_suppressed_ = 0;
    // Per-node pipeline state (holder status is `received_`).
    std::vector<std::uint32_t> held_pkt_;  ///< first received packet
    std::vector<std::uint32_t> beacons_n_;
    std::vector<std::uint32_t> nacks_n_;
    std::vector<char> nack_armed_;
    std::vector<NodeId> gap_source_;
    std::vector<std::uint32_t> repairs_n_;
};

}  // namespace adhoc
