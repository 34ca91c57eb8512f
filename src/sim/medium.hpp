/// \file medium.hpp
/// \brief Wireless medium models: per-link delivery timing, loss, and
/// physical-layer reception backends.
///
/// The paper's evaluation uses a collision-free MAC (Section 7): every
/// transmission reaches every neighbor after a fixed propagation delay.
/// That is the `kIdeal` backend and the default here.  Jitter and loss
/// injection exist for the failure-injection test suite — the paper's own
/// assumption (1) is error-free transmission, and its cited follow-up work
/// relieves collisions with small forwarding jitter; the hooks let tests
/// explore exactly that degradation.
///
/// Two physical-layer backends go beyond the paper's idealization (see
/// docs/MEDIUM.md for the math and the determinism contract):
///
///  - `kSinr` — cumulative-interference reception per *Distributed
///    Broadcasting in Wireless Networks under the SINR Model*: an arrival
///    is accepted iff P*d^-alpha / (N + sum of interferer powers) meets
///    the capture threshold beta, where the interference sum runs over
///    concurrent transmitters inside the arrival's vulnerability interval.
///  - `kUniformPowerGraph` — the weak-device variant from *Distributed
///    Deterministic Broadcasting in Uniform-Power Ad Hoc Wireless
///    Networks*: reception happens only on links whose zero-interference
///    SINR clears beta with a margin, and any concurrent interference
///    kills reception outright (no capture).
///
/// Both backends are pure functions of already-scheduled state: they
/// consume no randomness and never change event scheduling, so a `kSinr`
/// medium with beta = 0 and zero noise replays the `kIdeal` event stream
/// byte for byte.

#pragma once

#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "graph/geometry.hpp"
#include "graph/graph.hpp"
#include "graph/spatial_grid.hpp"
#include "stats/rng.hpp"

namespace adhoc {

/// Reception model selector.
enum class MediumBackend {
    kIdeal,             ///< collision-free / collision-window model (paper)
    kSinr,              ///< cumulative interference with capture threshold
    kUniformPowerGraph  ///< static link margin, interference kills captures
};

[[nodiscard]] const char* to_string(MediumBackend backend) noexcept;

/// Parses the `to_string` spellings ("ideal", "sinr", "uniform-power").
[[nodiscard]] std::optional<MediumBackend> medium_backend_from_string(std::string_view text);

/// Physical-layer parameters shared by the non-ideal backends.  Ignored
/// (and unvalidated) while `backend == kIdeal`.
struct SinrParams {
    double alpha = 3.0;     ///< path-loss exponent (signal = P * d^-alpha)
    double beta = 0.0;      ///< capture threshold; 0 accepts everything
    double noise = 0.0;     ///< ambient noise floor N
    double tx_power = 1.0;  ///< uniform transmit power P
    /// kUniformPowerGraph only: required zero-interference SINR headroom —
    /// a link carries traffic iff signal >= beta * (1 + margin) * noise.
    double margin = 0.0;
    /// Half-width of the interference vulnerability interval: a
    /// transmission at t interferes with an arrival at T iff
    /// |t + propagation_delay - T| <= vulnerability_window.  Must stay
    /// strictly below propagation_delay so every interfering transmission
    /// is already recorded when the arrival is processed (the same
    /// completeness argument as collision_window).
    double vulnerability_window = 0.0;
    /// Spatial cutoff for the interference sum: transmitters farther than
    /// this from the receiver are ignored (a documented truncation of the
    /// theoretically unbounded sum).  Must be > 0 for non-ideal backends.
    double interference_range = 0.0;

    friend bool operator==(const SinrParams&, const SinrParams&) = default;
};

struct MediumConfig {
    double propagation_delay = 1.0;  ///< fixed per-hop latency
    double jitter = 0.0;             ///< extra uniform delay in [0, jitter]
    double loss_probability = 0.0;   ///< independent per-link loss

    /// Collision model: two or more copies arriving at the same node at
    /// exactly the same instant destroy each other (the broadcast-storm
    /// failure mode of Section 1).  The paper's evaluation is
    /// collision-free; its cited follow-up relieves collisions with small
    /// forwarding jitter — `bench_campaign --figures
    /// ablation_collisions` reproduces that.
    /// Exclusive to the kIdeal backend: the SINR-family backends model
    /// concurrent arrivals through the interference sum instead.
    bool collisions = false;

    /// Half-width of the collision vulnerability interval: with collisions
    /// on, two arrivals at the same node within `collision_window` of each
    /// other destroy both.  The default 0 keeps the historical
    /// exact-same-instant semantics (which jitter almost always defeats:
    /// two jittered copies are never *bit-identical* in time).  Must be
    /// strictly less than `propagation_delay` so every arrival's window is
    /// fully scheduled before it is processed.
    double collision_window = 0.0;

    /// Reception backend; non-ideal backends require `positions` and a
    /// validated `sinr` block.
    MediumBackend backend = MediumBackend::kIdeal;
    SinrParams sinr;
    /// Node geometry for the non-ideal backends; must hold one point per
    /// graph node (the Simulator validates the count against its graph).
    std::vector<Point2D> positions;
};

/// Delivery model.  Stateless for kIdeal; the non-ideal backends carry a
/// spatial grid over `positions` for interferer enumeration.
class Medium {
  public:
    /// Validates the whole configuration with value-bearing
    /// std::invalid_argument: propagation_delay must be positive and
    /// finite, jitter non-negative, loss_probability a probability,
    /// `0 <= collision_window < propagation_delay` (the simulator's
    /// arrival model only inspects already-scheduled deliveries, so a
    /// window reaching `propagation_delay` could collide with arrivals not
    /// in the queue yet and silently under-count collisions), and — for
    /// non-ideal backends — positions present, SINR parameters in range
    /// and `vulnerability_window < propagation_delay` (same completeness
    /// argument).
    explicit Medium(MediumConfig config = {});

    /// Delivery time of a transmission sent at `now` over one link, or
    /// nullopt if the link drops it.  Identical across backends: the
    /// SINR-family decision happens at arrival-processing time and never
    /// perturbs scheduling or the RNG stream.
    [[nodiscard]] std::optional<double> delivery_time(double now, Rng& rng) const {
        if (config_.loss_probability > 0.0 && rng.chance(config_.loss_probability)) {
            return std::nullopt;
        }
        double extra = 0.0;
        if (config_.jitter > 0.0) extra = rng.uniform(0.0, config_.jitter);
        return now + config_.propagation_delay + extra;
    }

    [[nodiscard]] const MediumConfig& config() const noexcept { return config_; }
    [[nodiscard]] MediumBackend backend() const noexcept { return config_.backend; }
    [[nodiscard]] bool ideal() const noexcept {
        return config_.backend == MediumBackend::kIdeal;
    }

    /// Received power of a transmission from `tx` at `rx`:
    /// P * max(d, 1e-9)^-alpha (the floor keeps coincident points finite).
    /// Precondition: non-ideal backend, both ids within positions.
    [[nodiscard]] double signal(NodeId tx, NodeId rx) const;

    /// Interferer-enumeration grid over `positions`; non-null exactly for
    /// the non-ideal backends.  Cell size matches `interference_range`, so
    /// a ball query of that radius scans a 3x3 cell neighborhood.
    [[nodiscard]] const SpatialGrid* grid() const noexcept {
        return grid_ ? &*grid_ : nullptr;
    }

  private:
    MediumConfig config_;
    std::optional<SpatialGrid> grid_;
};

}  // namespace adhoc
