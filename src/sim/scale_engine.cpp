#include "sim/scale_engine.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>

#include "core/coverage.hpp"
#include "graph/khop.hpp"

namespace adhoc {

namespace {

/// Reusable fork-join crew for the window phase.  A run executes hundreds
/// of very short phases (one per window); spawning threads per phase costs
/// more than the phase itself, so the workers persist for the whole run.
/// Wheels are claimed from one atomic cursor that carries the phase's epoch
/// next to the wheel index, each wheel exactly once, by whichever crew
/// member gets there first — the calling thread included.  `run_phase`
/// waits for the phase's *wheels*, not for every worker to check in: a
/// worker the OS has descheduled between phases is simply left out of the
/// phase, and a late claim from a finished epoch fails its compare-exchange
/// instead of running.  The acquire on `remaining_` reaching 0 is the
/// barrier that publishes every wheel's writes to every other wheel.
class PhaseCrew {
  public:
    PhaseCrew(std::size_t jobs, std::size_t wheel_count)
        : wheel_count_(static_cast<std::uint32_t>(wheel_count)) {
        const std::size_t extra = std::min(jobs, wheel_count) - 1;
        workers_.reserve(extra);
        for (std::size_t t = 0; t < extra; ++t) {
            workers_.emplace_back([this] { worker_loop(); });
        }
    }

    ~PhaseCrew() {
        stop_.store(true, std::memory_order_relaxed);
        cursor_.store(pack(epoch_ + 1, wheel_count_), std::memory_order_release);
        for (std::thread& t : workers_) t.join();
    }

    template <typename F>
    void run_phase(F&& fn) {
        if (workers_.empty()) {
            for (std::uint32_t i = 0; i < wheel_count_; ++i) fn(i);
            return;
        }
        // No worker reads fn_ before its claim in this epoch succeeds, and
        // the previous epoch's claims have all finished (remaining_ hit 0).
        fn_ = [&fn](std::size_t i) { fn(i); };
        remaining_.store(wheel_count_, std::memory_order_relaxed);
        cursor_.store(pack(++epoch_, 0), std::memory_order_release);
        claim(epoch_);  // the calling thread is crew too
        while (remaining_.load(std::memory_order_acquire) > 0) {
            std::this_thread::yield();
        }
    }

  private:
    static std::uint64_t pack(std::uint64_t epoch, std::uint32_t wheel) noexcept {
        return epoch << 32 | wheel;
    }

    /// Runs wheels of phase `epoch` until none is left unclaimed.
    void claim(std::uint64_t epoch) {
        std::uint64_t c = cursor_.load(std::memory_order_acquire);
        while (c >> 32 == (epoch & 0xffffffffu) &&
               static_cast<std::uint32_t>(c) < wheel_count_) {
            if (!cursor_.compare_exchange_weak(c, c + 1, std::memory_order_acquire,
                                               std::memory_order_acquire)) {
                continue;  // c now holds the current cursor
            }
            fn_(static_cast<std::uint32_t>(c));
            remaining_.fetch_sub(1, std::memory_order_release);
            c = cursor_.load(std::memory_order_acquire);
        }
    }

    void worker_loop() {
        std::uint64_t seen = 0;
        while (true) {
            std::size_t spins = 0;
            std::uint64_t epoch;
            while ((epoch = cursor_.load(std::memory_order_acquire) >> 32) == seen) {
                if (++spins > 4096) std::this_thread::yield();
            }
            seen = epoch;
            if (stop_.load(std::memory_order_relaxed)) return;
            claim(epoch);
        }
    }

    std::uint32_t wheel_count_;
    std::uint64_t epoch_ = 0;  ///< the calling thread's phase counter
    std::function<void(std::size_t)> fn_;
    std::vector<std::thread> workers_;
    /// (epoch << 32) | next unclaimed wheel of that epoch's phase.
    std::atomic<std::uint64_t> cursor_{0};
    std::atomic<std::uint32_t> remaining_{0};  ///< this phase's unfinished wheels
    std::atomic<bool> stop_{false};
};

/// One-multiply mix (hash_combine shape).  Order-sensitive — folding the
/// same events in a different order yields a different digest, which is
/// exactly what the determinism gate wants — and cheap enough for the
/// per-event hot loop, unlike byte-wise FNV.
inline std::uint64_t mix(std::uint64_t h, std::uint64_t x) noexcept {
    h ^= x + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    return h * 0x2545f4914f6cdd1dULL;
}

inline constexpr std::uint64_t kDigestBasis = 0xcbf29ce484222325ULL;

// ---- exact-order window pipeline -----------------------------------------

/// Calendar horizon for *plan* event times (engine-generated events are
/// bounded by the run's own dynamics).  2^20 windows of empty buckets is
/// ~24 MB worst-case — far past any real schedule, cheap enough to keep the
/// resize in bucket() unconditional.
inline constexpr std::size_t kMaxWindows = std::size_t{1} << 20;

// REvent.kind values.  The numeric order is irrelevant: buckets sort by
// (time, seq) only, which is the reference EventQueue's pop order.
inline constexpr std::uint32_t kRFault = 0;
inline constexpr std::uint32_t kRDelivery = 1;
inline constexpr std::uint32_t kRTimer = 2;
inline constexpr std::uint32_t kRControl = 3;
// kRTimer payloads / kRControl message kinds (RecoveryAgent's state machine).
inline constexpr std::uint32_t kBeaconTimerR = 0;
inline constexpr std::uint32_t kNackTimerR = 1;
inline constexpr std::uint32_t kBeaconMsgR = 0;
inline constexpr std::uint32_t kNackMsgR = 1;
/// held_pkt_ sentinel: "holds the packet with an empty history chain" —
/// only the source, whose initial state is empty, ever carries it.
inline constexpr std::uint32_t kHeldEmpty = 0xffffffffu;
// Action.ops bits, executed in this order — the order in which the
// reference machine performs an event's pushes: a beacon timer sends its
// beacon and then re-arms, a NACK timer sends its NACK and then re-arms,
// and a first receipt arms the holder beacon before the agent transmits.
// No event sets two bits that this order would swap.
inline constexpr std::uint32_t kOpBeacon = 1;     ///< holder beacon to all neighbors
inline constexpr std::uint32_t kOpNack = 2;       ///< NACK to Action.target
inline constexpr std::uint32_t kOpArmBeacon = 4;  ///< beacon timer at Action.when
inline constexpr std::uint32_t kOpTransmit = 8;   ///< forward the first received copy
inline constexpr std::uint32_t kOpArmNack = 16;   ///< NACK timer at Action.when
inline constexpr std::uint32_t kOpResend = 32;    ///< budgeted repair

/// The one snap rule for window alignment: the integer nearest `q` when
/// `q` lies within 1e-9 of it (relative, floored at 1), else nothing.
/// Delivery and timer instants are exact multiples of the delay, but plan
/// times and backoff products may carry floating-point noise.
inline std::optional<double> snapped(double q) noexcept {
    const double r = std::nearbyint(q);
    if (std::abs(q - r) <= 1e-9 * std::max(1.0, std::abs(q))) return r;
    return std::nullopt;
}

}  // namespace

std::uint64_t reference_transmission_digest(const Trace& trace) {
    std::uint64_t h = kDigestBasis;
    for (const TraceEvent& e : trace.events()) {
        if (e.kind != TraceKind::kTransmit) continue;
        h = mix(h, std::bit_cast<std::uint64_t>(e.time));
        h = mix(h, e.node);
    }
    return h;
}

void ScaleEngine::validate_generic_config() const {
    const GenericConfig& gc = config_.generic;
    if (gc.timing != Timing::kStatic && gc.timing != Timing::kFirstReceipt) {
        throw std::invalid_argument(
            "ScaleConfig.generic.timing = " + to_string(gc.timing) +
            ": backoff timings draw per-node timers from the RNG, which the "
            "windowed engine cannot honor — use Static/FR here, or Simulator");
    }
    if (gc.selection != Selection::kSelfPruning) {
        throw std::invalid_argument(
            "ScaleConfig.generic.selection = " + to_string(gc.selection) +
            ": neighbor-designating selections need designation pullback "
            "events — the engine honors self-pruning only; use Simulator");
    }
    if (gc.hops == 0) {
        throw std::invalid_argument(
            "ScaleConfig.generic.hops = 0: global views cost O(n) per "
            "decision and defeat the scale plane — use hops >= 1");
    }
}

ScaleEngine::ScaleEngine(const Graph& graph, ScaleConfig config)
    : graph_(graph), config_(config) {
    if (!(config_.delay > 0.0)) {
        throw std::invalid_argument("ScaleConfig.delay must be > 0");
    }
    if (config_.wheels == 0) {
        throw std::invalid_argument("ScaleConfig.wheels must be >= 1");
    }
    if (config_.jobs == 0) {
        throw std::invalid_argument("ScaleConfig.jobs must be >= 1");
    }
    const std::size_t n = graph.node_count();
    config_.wheels = std::min(config_.wheels, std::max<std::size_t>(n, 1));
    block_ = (n + config_.wheels - 1) / config_.wheels;
    if (block_ == 0) block_ = 1;
    received_.assign(n, 0);
    forwarded_.assign(n, 0);
    wheels_.resize(config_.wheels);
    prev_.resize(config_.wheels * config_.wheels);
    cur_.resize(config_.wheels * config_.wheels);
    scratch_.resize(config_.wheels);

    if (config_.policy == ScalePolicy::kGenericCoverage) {
        validate_generic_config();
        keys_ = PriorityKeys(graph_, config_.generic.priority);
        if (config_.generic.timing == Timing::kStatic) {
            static_verdicts_.assign(n, kVerdictUnknown);
        }
    }
}

ScaleEngine::~ScaleEngine() = default;

void ScaleEngine::process_wheel(std::size_t w) {
    Wheel& wheel = wheels_[w];
    const std::size_t wheel_count = config_.wheels;
    for (std::size_t d = 0; d < wheel_count; ++d) cur_[w * wheel_count + d].clear();
    // Canonical order: source wheel 0..W-1, generation order within each —
    // exactly the (time, seq) order a per-wheel priority queue would pop,
    // since every pending event shares this window's delivery time.
    for (std::size_t s = 0; s < wheel_count; ++s) {
        for (const Staged& e : prev_[s * wheel_count + w]) {
            const NodeId v = e.node;
            ++wheel.delivered;
            wheel.last_time = std::max(wheel.last_time, e.time);
            wheel.digest = mix(wheel.digest, std::bit_cast<std::uint64_t>(e.time));
            wheel.digest = mix(wheel.digest, (std::uint64_t{v} << 32) | e.sender);
            if (received_[v]) continue;  // duplicate copy: snooped, not re-decided
            received_[v] = 1;
            const bool forward = config_.policy == ScalePolicy::kFlood ||
                                 !neighbors_covered_by(graph_, v, e.sender);
            if (!forward) continue;
            forwarded_[v] = 1;
            const double next_time = e.time + config_.delay;
            for (NodeId x : graph_.neighbors(v)) {
                cur_[w * wheel_count + wheel_of(x)].push_back({next_time, x, v});
            }
        }
    }
}

bool ScaleEngine::decide(WheelScratch& ws, NodeId v, NodeId sender,
                         std::span<const NodeId> chain) {
    // A Static verdict is a function of (graph, priority, view) alone, so
    // it is computed once per engine.  The memo byte is v's, and only v's
    // wheel writes it, like received_[v].
    if (static_verdicts_.empty()) return compute_verdict(ws, v, sender, chain);
    std::uint8_t& memo = static_verdicts_[v];
    if (memo != kVerdictUnknown) {
        ++ws.recalled;
        return memo == kVerdictForwards;
    }
    const bool forward = compute_verdict(ws, v, sender, chain);
    memo = forward ? kVerdictForwards : kVerdictPrunes;
    return forward;
}

bool ScaleEngine::compute_verdict(WheelScratch& ws, NodeId v, NodeId sender,
                                  std::span<const NodeId> chain) {
    const GenericConfig& gc = config_.generic;
    // Decision-time visited set.  Static: empty (the static forward set is
    // computed over all-unvisited views).  First-receipt: exactly what the
    // first received packet carries — its history chain (which ends with
    // the sender itself when history >= 1), or the bare sender without one.
    ws.visited.clear();
    if (gc.timing == Timing::kFirstReceipt) {
        if (!chain.empty()) {
            ws.visited.assign(chain.begin(), chain.end());
        } else {
            ws.visited.push_back(sender);
        }
    }

    const Priority pv = keys_.evaluate(v, NodeStatus::kUnvisited);
    // The view-free special cases settle most verdicts outright; only the
    // rest compile a view.
    switch (settle_without_view(graph_, v, pv, keys_, ws.visited,
                                rule1_implies_coverage(gc.hops, gc.coverage))) {
        case Settled::kPruned: return false;
        case Settled::kForwards: return true;
        case Settled::kUnsettled: break;
    }

    ++ws.compiles;
    KHopViewBuilder& b = ws.view;
    b.compile(graph_, v, gc.hops);
    LocalViewScratch& s = LocalViewScratch::tls();
    const auto m = static_cast<std::uint32_t>(b.members.size());
    s.compact.size = m;
    s.compact.members = b.members;
    s.compact.offsets = b.offsets;
    s.compact.edges = b.edges;
    s.compact.priority.resize(m);
    s.compact.status.resize(m);
    for (std::uint32_t i = 0; i < m; ++i) {
        const NodeId x = b.members[i];
        NodeStatus st = NodeStatus::kUnvisited;
        for (NodeId y : ws.visited) {
            if (y == x) {
                st = NodeStatus::kVisited;
                break;
            }
        }
        s.compact.status[i] = st;
        s.compact.priority[i] = keys_.evaluate(x, st);
    }
    return !evaluate_coverage_compiled(s, b.local_of(v), pv, gc.coverage).covered;
}

std::size_t ScaleEngine::window_index(double time) const noexcept {
    // An event at time t fires at the first window boundary >= t.
    const double q = time / config_.delay;
    const double w = snapped(q).value_or(std::ceil(q));
    return w <= 0.0 ? 0 : static_cast<std::size_t>(w);
}

void ScaleEngine::attach_faults(const faults::FaultPlan* plan) {
    if (plan != nullptr) {
        faults::validate_plan(*plan, graph_.node_count());
        for (std::size_t i = 0; i < plan->events.size(); ++i) {
            if (window_index(plan->events[i].time) >= kMaxWindows) {
                throw std::invalid_argument(
                    "FaultPlan.events[" + std::to_string(i) +
                    "].time = " + std::to_string(plan->events[i].time) +
                    ": past the engine's calendar horizon (2^20 windows of "
                    "delay " +
                    std::to_string(config_.delay) + ")");
            }
        }
    }
    fault_plan_ = plan;
}

void ScaleEngine::set_recovery(const faults::RecoveryConfig& config) {
    if (config.enabled) {
        const auto aligned = [&](double value) {
            if (!std::isfinite(value) || value <= 0.0) return false;
            const std::optional<double> r = snapped(value / config_.delay);
            return r.has_value() && *r >= 1.0;
        };
        if (!aligned(config.beacon_interval)) {
            throw std::invalid_argument(
                "RecoveryConfig.beacon_interval = " +
                std::to_string(config.beacon_interval) +
                ": the windowed mirror needs a positive integer multiple of "
                "ScaleConfig.delay = " +
                std::to_string(config_.delay));
        }
        if (!aligned(config.nack_delay)) {
            throw std::invalid_argument(
                "RecoveryConfig.nack_delay = " + std::to_string(config.nack_delay) +
                ": the windowed mirror needs a positive integer multiple of "
                "ScaleConfig.delay = " +
                std::to_string(config_.delay) +
                " (the RecoveryConfig{} default 0.5 is not, at delay 1.0)");
        }
        if (!std::isfinite(config.backoff_factor) || config.backoff_factor < 1.0 ||
            std::nearbyint(config.backoff_factor) != config.backoff_factor) {
            throw std::invalid_argument(
                "RecoveryConfig.backoff_factor = " +
                std::to_string(config.backoff_factor) +
                ": must be an integral factor >= 1 so NACK timers stay on "
                "window boundaries");
        }
        const double max_backoff =
            config.nack_delay *
            std::pow(config.backoff_factor, static_cast<double>(config.max_nacks));
        if (!(max_backoff / config_.delay < static_cast<double>(kMaxWindows))) {
            throw std::invalid_argument(
                "RecoveryConfig: nack_delay * backoff_factor^max_nacks = " +
                std::to_string(max_backoff) +
                " exceeds the engine's calendar horizon");
        }
    }
    recovery_ = config;
}

std::vector<ScaleEngine::REvent>& ScaleEngine::bucket(double time) {
    const std::size_t w = window_index(time);
    if (cal_.size() <= w) cal_.resize(w + 1);
    // A bucket's first push adopts the spare buffer of a drained window, so
    // the calendar holds O(window) capacity, not O(run).
    if (cal_[w].capacity() == 0) cal_[w].swap(spare_);
    return cal_[w];
}

void ScaleEngine::push_revent(double time, std::uint32_t kind, NodeId node,
                              std::uint32_t payload) {
    bucket(time).push_back({time, r_seq_++, kind, node, payload});
    ++r_pending_;
}

void ScaleEngine::fanout(NodeId sender, bool control, std::uint32_t payload,
                         NodeId only_target, double next_time) {
    // Mirrors Simulator::schedule_deliveries exactly: the target skip comes
    // before fault gating (no loss draw for skipped neighbors), and a down
    // link short-circuits the draw (|| in the reference) so the counter
    // stream position stays identical.  Without a plan nothing is down and
    // no link is lossy, so the gate is skipped (no output reads the draw
    // counter).
    const bool gated = fault_plan_ != nullptr;
    const std::uint32_t kind = control ? kRControl : kRDelivery;
    std::vector<REvent>& out = bucket(next_time);
    std::uint64_t seq = r_seq_;
    for (NodeId nbr : graph_.neighbors(sender)) {
        if (only_target != kInvalidNode && nbr != only_target) continue;
        if (gated &&
            (!fsession_.link_up(sender, nbr) || fsession_.drop_directed(sender, nbr))) {
            ++r_suppressed_;
            continue;
        }
        out.push_back({next_time, seq++, kind, nbr, payload});
    }
    r_pending_ += seq - r_seq_;
    r_seq_ = seq;
}

std::uint32_t ScaleEngine::make_packet(NodeId v, std::size_t history) {
    std::uint32_t off = 0;
    std::uint32_t len = 0;
    // Chains exist only where decisions read them: first-receipt generic
    // coverage.  packet.cpp chain_state semantics — the last `history`
    // entries of (first received chain + v), which is the last history-1 of
    // the base plus v itself.
    if (config_.policy == ScalePolicy::kGenericCoverage &&
        config_.generic.timing == Timing::kFirstReceipt && history > 0) {
        std::uint32_t base_off = 0;
        std::uint32_t base_len = 0;
        if (held_pkt_[v] != kHeldEmpty) {
            base_off = packets_[held_pkt_[v]].chain_off;
            base_len = packets_[held_pkt_[v]].chain_len;
        }
        const auto keep = static_cast<std::uint32_t>(
            std::min<std::size_t>(base_len, history - 1));
        // resize grows capacity geometrically; an exact reserve here would
        // reallocate the pool on every packet.
        off = static_cast<std::uint32_t>(r_chain_.size());
        len = keep + 1;
        r_chain_.resize(std::size_t{off} + len);
        std::copy_n(r_chain_.begin() + base_off + base_len - keep, keep,
                    r_chain_.begin() + off);
        r_chain_[off + keep] = v;
    }
    const auto pid = static_cast<std::uint32_t>(packets_.size());
    packets_.push_back({v, off, len});
    return pid;
}

void ScaleEngine::transmit(NodeId v, double now) {
    forwarded_[v] = 1;
    received_[v] = 1;
    tx_digest_ = mix(tx_digest_, std::bit_cast<std::uint64_t>(now));
    tx_digest_ = mix(tx_digest_, v);
    const std::uint32_t pid = make_packet(v, config_.generic.history);
    fanout(v, false, pid, kInvalidNode, now + config_.delay);
}

void ScaleEngine::resend(NodeId v, double now) {
    // Mirrors Simulator::resend: accounted separately, not a forward, and
    // NOT folded into the order digest (the reference digest folds
    // kTransmit trace events only).  The repair carries the chain of the
    // holder's *first received* state at the recovery layer's own depth.
    ++r_retransmit_;
    received_[v] = 1;
    const std::uint32_t pid = make_packet(v, recovery_->history);
    fanout(v, false, pid, kInvalidNode, now + config_.delay);
}

std::span<const NodeId> ScaleEngine::packet_chain(const RPacket& pkt) const noexcept {
    return {r_chain_.data() + pkt.chain_off, pkt.chain_len};
}

void ScaleEngine::replay_wheel(WheelScratch& ws, std::size_t lo, std::size_t hi,
                               NodeId first, std::size_t count) {
    // Walks work_[lo, hi) in (time, seq) order and replays the events of
    // nodes [first, first + count) against those nodes' state only.
    ws.actions.clear();
    std::size_t delivered = 0;  // local tallies: no false sharing between wheels
    std::size_t suppressed = 0;
    for (std::size_t j = lo; j < hi; ++j) {
        const REvent& e = work_[j];
        if (e.node - first >= count) continue;  // another wheel's node
        if (e.kind == kRDelivery) ++delivered;
        if (!fsession_.node_up(e.node)) {
            ++suppressed;  // deliveries, timers and controls die with their node
            continue;
        }
        replay_event(ws, j);
    }
    ws.delivered += delivered;
    ws.suppressed += suppressed;
}

void ScaleEngine::replay_inline(std::size_t lo, std::size_t hi) {
    // One walk over the window instead of one per wheel; each event still
    // lands in its node's wheel scratch, so every wheel ends up with the
    // very actions, counters and view scratch that replay_wheel gives it.
    for (WheelScratch& ws : scratch_) ws.actions.clear();
    for (std::size_t j = lo; j < hi; ++j) {
        const REvent& e = work_[j];
        WheelScratch& ws = scratch_[wheel_of(e.node)];
        if (e.kind == kRDelivery) ++ws.delivered;
        if (!fsession_.node_up(e.node)) {
            ++ws.suppressed;
            continue;
        }
        replay_event(ws, j);
    }
}

void ScaleEngine::replay_event(WheelScratch& ws, std::size_t j) {
    // Replays work_[j], at a live node, against that node's state.  Every
    // push the reference machine would make is recorded as an Action and
    // left to the serial action step; none of them lands in this window.
    const REvent& e = work_[j];
    const NodeId v = e.node;
    const bool beacons = recovery_on() && recovery_->max_beacons > 0;
    const auto nack_backoff = [&](std::uint32_t sent) {
        return recovery_->nack_delay *
               std::pow(recovery_->backoff_factor, static_cast<double>(sent));
    };
    Action a{static_cast<std::uint32_t>(j), 0, kInvalidNode, 0.0};
    if (e.kind == kRDelivery) {
        if (received_[v]) return;  // duplicate copy: snooped, not re-decided
        received_[v] = 1;
        held_pkt_[v] = e.payload;
        const RPacket& pkt = packets_[e.payload];
        // RecoveryAgent::on_receive arms the holder beacon BEFORE the
        // inner agent's fanout sequences.
        if (beacons) {
            a.ops = kOpArmBeacon;
            a.when = e.time + recovery_->beacon_interval;
        }
        bool forward = true;
        if (config_.policy == ScalePolicy::kSelfPrune) {
            forward = !neighbors_covered_by(graph_, v, pkt.sender);
        } else if (config_.policy == ScalePolicy::kGenericCoverage) {
            forward = decide(ws, v, pkt.sender, packet_chain(pkt));
        }
        if (forward) a.ops |= kOpTransmit;
    } else if (!recovery_on()) {
        return;
    } else if (e.kind == kRTimer && e.payload == kBeaconTimerR) {
        if (!received_[v]) return;  // not a holder
        a.ops = kOpBeacon;
        if (++beacons_n_[v] < recovery_->max_beacons) {
            a.ops |= kOpArmBeacon;
            a.when = e.time + recovery_->beacon_interval;
        }
    } else if (e.kind == kRTimer) {
        nack_armed_[v] = 0;
        if (received_[v]) return;  // healed while waiting
        if (gap_source_[v] == kInvalidNode) return;
        a.ops = kOpNack;
        a.target = gap_source_[v];
        if (++nacks_n_[v] < recovery_->max_nacks) {
            // Re-arm under exponential backoff (the repair or the next
            // beacon may be lost too) — note the post-increment
            // exponent, vs the pre-increment one on beacon receipt.
            nack_armed_[v] = 1;
            a.ops |= kOpArmNack;
            a.when = e.time + nack_backoff(nacks_n_[v]);
        }
    } else if (controls_[e.payload].kind == kBeaconMsgR) {
        if (received_[v]) return;  // nothing missing here
        gap_source_[v] = controls_[e.payload].sender;
        if (nack_armed_[v] || nacks_n_[v] >= recovery_->max_nacks) return;
        nack_armed_[v] = 1;
        a.ops = kOpArmNack;
        a.when = e.time + nack_backoff(nacks_n_[v]);
    } else {
        if (!received_[v]) return;  // stale NACK: no packet here
        if (repairs_n_[v] >= recovery_->retransmit_budget) return;
        ++repairs_n_[v];
        a.ops = kOpResend;
    }
    if (a.ops != 0) ws.actions.push_back(a);
}

void ScaleEngine::run_actions() {
    for (const Action& a : actions_) {
        const REvent& e = work_[a.event];
        const NodeId v = e.node;
        if ((a.ops & (kOpBeacon | kOpNack)) != 0) {
            const bool nack = (a.ops & kOpNack) != 0;
            ++r_control_;
            const auto cid = static_cast<std::uint32_t>(controls_.size());
            controls_.push_back({v, nack ? kNackMsgR : kBeaconMsgR});
            fanout(v, true, cid, nack ? a.target : kInvalidNode,
                             e.time + config_.delay);
        }
        if ((a.ops & kOpArmBeacon) != 0) push_revent(a.when, kRTimer, v, kBeaconTimerR);
        if ((a.ops & kOpTransmit) != 0) transmit(v, e.time);
        if ((a.ops & kOpArmNack) != 0) push_revent(a.when, kRTimer, v, kNackTimerR);
        if ((a.ops & kOpResend) != 0) resend(v, e.time);
    }
}

std::size_t ScaleEngine::window_work(std::size_t lo, std::size_t hi) const {
    if (config_.policy != ScalePolicy::kGenericCoverage) return hi - lo;
    if (static_verdicts_.empty()) return (hi - lo) * kDecisionWeight;
    // Static: a delivery computes a verdict only at a node that has neither
    // the packet yet nor a remembered verdict.  Counting stops at the gate.
    std::size_t work = 0;
    for (std::size_t j = lo; j < hi && work < kParallelWindow; ++j) {
        const REvent& e = work_[j];
        if (e.kind == kRDelivery && !received_[e.node] &&
            static_verdicts_[e.node] == kVerdictUnknown) {
            work += kDecisionWeight;
        }
    }
    return work;
}

ScaleResult ScaleEngine::run_exact(NodeId source) {
    const std::size_t n = graph_.node_count();
    ScaleResult result;
    if (n == 0) return result;

    std::fill(received_.begin(), received_.end(), 0);
    std::fill(forwarded_.begin(), forwarded_.end(), 0);
    for (std::vector<REvent>& b : cal_) b.clear();
    work_.clear();
    packets_.clear();
    controls_.clear();
    r_chain_.clear();
    r_seq_ = 0;
    r_pending_ = 0;
    r_retransmit_ = 0;
    r_control_ = 0;
    r_suppressed_ = 0;
    tx_digest_ = kDigestBasis;
    held_pkt_.assign(n, kHeldEmpty);
    if (recovery_on()) {
        beacons_n_.assign(n, 0);
        nacks_n_.assign(n, 0);
        nack_armed_.assign(n, 0);
        gap_source_.assign(n, kInvalidNode);
        repairs_n_.assign(n, 0);
    }
    for (WheelScratch& ws : scratch_) {
        ws.delivered = ws.suppressed = ws.compiles = ws.recalled = 0;
    }

    // Queue the whole fault schedule first: these events carry the globally
    // lowest insertion sequences, so a crash always beats same-instant
    // deliveries — exactly Simulator::begin's push order.
    const faults::FaultPlan& plan = fault_plan_ != nullptr ? *fault_plan_ : empty_plan_;
    fsession_.reset(plan, n);
    for (std::size_t i = 0; i < plan.events.size(); ++i) {
        push_revent(std::max(plan.events[i].time, 0.0), kRFault, plan.events[i].node,
                    static_cast<std::uint32_t>(i));
    }

    // begin(): the agent's start() runs before any event pops, so the
    // source transmits unconditionally (no fault has been applied yet);
    // then — RecoveryAgent::start order — the source's holder beacon arms
    // AFTER the fanout's insertion sequences.
    transmit(source, 0.0);
    if (recovery_on() && recovery_->max_beacons > 0) {
        push_revent(recovery_->beacon_interval, kRTimer, source, kBeaconTimerR);
    }

    std::optional<PhaseCrew> crew;
    double completion = 0.0;
    const auto by_pop_order = [](const REvent& a, const REvent& b) {
        return a.time != b.time ? a.time < b.time : a.seq < b.seq;
    };

    for (std::size_t w = 0; r_pending_ > 0 && w < cal_.size(); ++w) {
        if (cal_[w].empty()) continue;
        result.peak_queue_events = std::max(result.peak_queue_events, r_pending_);
        ++result.windows;
        // Swap the bucket out before draining: the action step pushes into
        // later buckets, which may reallocate the calendar.  The drained
        // buffer of the previous window becomes the spare.
        work_.clear();
        work_.swap(cal_[w]);
        if (cal_[w].capacity() > spare_.capacity()) cal_[w].swap(spare_);
        std::vector<REvent>().swap(cal_[w]);
        r_pending_ -= work_.size();
        // Within a bucket, (time, seq) is the reference queue's pop order;
        // buckets partition the time axis into disjoint ascending ranges,
        // so the concatenation of sorted buckets IS the global pop order.
        // A fault-free bucket is already sorted: one instant, pushed in
        // sequence order.
        if (!std::is_sorted(work_.begin(), work_.end(), by_pop_order)) {
            std::sort(work_.begin(), work_.end(), by_pop_order);
        }

        // Fault events apply serially, in place.  Plan events carry the
        // lowest sequences, so they normally form a prefix; one that sorts
        // after same-window traffic splits the window into phases at its
        // (time, seq).  Within a phase, up/down and link state are frozen,
        // and every push lands in a later window, so each wheel replays its
        // own nodes' events independently and the serial action step
        // performs the pushes in merged pop order.
        for (std::size_t lo = 0; lo < work_.size();) {
            if (work_[lo].kind == kRFault) {
                fsession_.apply(plan.events[work_[lo++].payload]);
                continue;
            }
            std::size_t hi = lo;
            while (hi < work_.size() && work_[hi].kind != kRFault) ++hi;
            if (fans_out(window_work(lo, hi))) {
                if (!crew) crew.emplace(config_.jobs, config_.wheels);
                crew->run_phase([&](std::size_t wi) {
                    replay_wheel(scratch_[wi], lo, hi, static_cast<NodeId>(wi * block_),
                                 block_);
                });
            } else {
                replay_inline(lo, hi);
            }
            actions_.clear();
            for (const WheelScratch& ws : scratch_) {
                actions_.insert(actions_.end(), ws.actions.begin(), ws.actions.end());
            }
            std::sort(actions_.begin(), actions_.end(),
                      [](const Action& a, const Action& b) { return a.event < b.event; });
            run_actions();
            lo = hi;
        }
        completion = std::max(completion, work_.back().time);
    }

    for (const WheelScratch& ws : scratch_) {
        result.delivered_events += ws.delivered;
        result.view_compiles += ws.compiles;
        result.recalled_verdicts += ws.recalled;
        r_suppressed_ += ws.suppressed;
    }
    result.completion_time = completion;
    result.order_digest = tx_digest_;
    result.forward_count =
        static_cast<std::size_t>(std::count(forwarded_.begin(), forwarded_.end(), 1));
    result.received_count =
        static_cast<std::size_t>(std::count(received_.begin(), received_.end(), 1));
    result.full_delivery = result.received_count == n;
    result.retransmit_count = r_retransmit_;
    result.control_count = r_control_;
    result.fault_suppressed = r_suppressed_;
    if (faulted()) result.down = fsession_.down_mask();
    return result;
}

ScaleResult ScaleEngine::run(NodeId source) {
    if (const std::size_t n = graph_.node_count(); n > 0 && source >= n) {
        throw std::invalid_argument("ScaleEngine::run: source " + std::to_string(source) +
                                    " out of range for " + std::to_string(n) + " nodes");
    }
    // Generic coverage, any attached plan (even an empty one) and an armed
    // recovery layer take the exact-order pipeline: the reference machine's
    // broadcast_resilient always runs with an active fault session, and a
    // coverage decision reads the first copy in its (time, seq) order.
    if (faulted() || config_.policy == ScalePolicy::kGenericCoverage) {
        return run_exact(source);
    }

    const std::size_t n = graph_.node_count();
    std::fill(received_.begin(), received_.end(), 0);
    std::fill(forwarded_.begin(), forwarded_.end(), 0);
    for (Wheel& wheel : wheels_) wheel = Wheel{};
    for (std::vector<Staged>& bucket : prev_) bucket.clear();
    for (std::vector<Staged>& bucket : cur_) bucket.clear();

    ScaleResult result;
    if (n == 0) return result;

    // The source transmits unconditionally at t = 0 (paper Section 5); its
    // fanout is the first window's schedule.
    received_[source] = 1;
    forwarded_[source] = 1;
    {
        const std::size_t w = wheel_of(source);
        for (NodeId x : graph_.neighbors(source)) {
            prev_[w * config_.wheels + wheel_of(x)].push_back(
                {config_.delay, x, source});
        }
    }

    std::optional<PhaseCrew> crew;

    while (true) {
        std::size_t queued = 0;
        for (const std::vector<Staged>& bucket : prev_) queued += bucket.size();
        result.peak_queue_events = std::max(result.peak_queue_events, queued);
        if (queued == 0) break;
        ++result.windows;
        if (fans_out(queued)) {
            if (!crew) crew.emplace(config_.jobs, config_.wheels);
            crew->run_phase([&](std::size_t w) { process_wheel(w); });
        } else {
            for (std::size_t w = 0; w < config_.wheels; ++w) process_wheel(w);
        }
        prev_.swap(cur_);
    }

    for (const Wheel& wheel : wheels_) {
        result.delivered_events += wheel.delivered;
        result.completion_time = std::max(result.completion_time, wheel.last_time);
        result.order_digest = mix(result.order_digest, wheel.digest);
    }
    result.forward_count =
        static_cast<std::size_t>(std::count(forwarded_.begin(), forwarded_.end(), 1));
    result.received_count =
        static_cast<std::size_t>(std::count(received_.begin(), received_.end(), 1));
    result.full_delivery = result.received_count == n;
    return result;
}

std::size_t ScaleEngine::state_bytes() const noexcept {
    std::size_t bytes =
        received_.capacity() + forwarded_.capacity() + static_verdicts_.capacity();
    for (const std::vector<Staged>& bucket : prev_) {
        bytes += bucket.capacity() * sizeof(Staged);
    }
    for (const std::vector<Staged>& bucket : cur_) {
        bytes += bucket.capacity() * sizeof(Staged);
    }
    for (const WheelScratch& ws : scratch_) {
        bytes += ws.actions.capacity() * sizeof(Action) +
                 ws.visited.capacity() * sizeof(NodeId) + ws.view.bytes();
    }
    for (const std::vector<REvent>& bucket : cal_) {
        bytes += bucket.capacity() * sizeof(REvent);
    }
    bytes += (work_.capacity() + spare_.capacity()) * sizeof(REvent) +
             actions_.capacity() * sizeof(Action) +
             packets_.capacity() * sizeof(RPacket) +
             controls_.capacity() * sizeof(RControl) +
             r_chain_.capacity() * sizeof(NodeId) +
             held_pkt_.capacity() * sizeof(std::uint32_t) +
             beacons_n_.capacity() * sizeof(std::uint32_t) +
             nacks_n_.capacity() * sizeof(std::uint32_t) +
             nack_armed_.capacity() +
             gap_source_.capacity() * sizeof(NodeId) +
             repairs_n_.capacity() * sizeof(std::uint32_t);
    return bytes;
}

}  // namespace adhoc
