#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "scenario/fleet.hpp"
#include "util/logging.hpp"
#include "util/rand.hpp"

namespace onelab::adversary {

/// The misbehaving-slice/UE catalogue. Each personality models one
/// realistic abuse of the paper's sharing architecture, paired with a
/// mitigation at the matching trust boundary (src/guard, AtEngine,
/// UmtsNetwork admission, CellCapacity fairness):
///
///  - fifo_flooder: a slice on the node hammering the umts vsys FIFO
///    with `status`/`stats all` requests — contained by the per-slice
///    token bucket + queue depth guard (guard.vsys.*) and the
///    backend's stats ACL (guard.umtsctl.stats_denied).
///  - at_abuser: hostile bytes on the host side of the serial line —
///    malformed/oversized dial strings, escape-sequence injection,
///    `+++` spam — contained by AtEngine's line cap, dial validation
///    and guard-time check (guard.at.*).
///  - signaling_storm: mass simultaneous attach/detach of synthetic
///    IMSIs — congestion slows everyone (physics); access class
///    barring (guard.umts.attach_throttled) bounds the damage.
///  - greedy_ue: a camped UE spamming bearer upgrades to drain the
///    shared CellCapacity — contained by the fairness clamp
///    (guard.cell.fairness_denials).
///  - nat_churner: operator-side flow spray churning the GGSN's NAT
///    bindings and firewall flow table to evict a victim's return
///    path — contained by the per-subscriber quotas (guard.nat.*,
///    guard.firewall.*).
enum class PersonalityKind : std::uint8_t {
    fifo_flooder,
    at_abuser,
    signaling_storm,
    greedy_ue,
    nat_churner,
};

inline constexpr std::size_t kPersonalityKindCount = 5;

[[nodiscard]] const char* kindName(PersonalityKind kind) noexcept;
[[nodiscard]] std::optional<PersonalityKind> kindFromName(std::string_view name) noexcept;

/// One attacker: a personality bound to a site (or, for the operator-
/// side personalities, to the shared core) over an activity window.
struct AdversaryConfig {
    PersonalityKind kind = PersonalityKind::fifo_flooder;
    /// Site index the attacker rides on: the node whose FIFO/TTY it
    /// abuses (fifo_flooder/at_abuser), the UE turned greedy
    /// (greedy_ue), or the IMSI/subscriber namespace tag for the
    /// operator-side personalities (signaling_storm/nat_churner).
    int site = 0;
    sim::SimTime start{0};
    sim::SimTime duration = sim::seconds(60.0);
    /// Scales the action rate; 1.0 is the nominal hostile rate per
    /// personality (well above any honest client's).
    double intensity = 1.0;
    std::uint64_t seed = 1;
};

/// Per-attacker bookkeeping, also published under "adversary.*".
struct AttackerStats {
    std::size_t actions = 0;  ///< hostile actions performed
    std::size_t denied = 0;   ///< actions a guard measurably bounced
    std::size_t skipped = 0;  ///< ticks with no live target (no-op)
};

/// Touch every adversary.* counter so telemetry exports carry the
/// full family set regardless of which personalities actually ran.
void registerAdversaryMetricFamilies();

/// Binds a set of attacker personalities to a live Fleet. Follows the
/// fault::FaultInjector contract: arm() schedules the activity
/// windows, targets are resolved at action time (a session that died
/// mid-window is a skip, not a crash), a Fleet teardown hook cancels
/// everything pending, and destroying either side first is safe.
///
/// All scheduling is seeded per attacker, so a same-seed replay
/// performs the identical action sequence.
class AdversaryDriver {
  public:
    AdversaryDriver(scenario::Fleet& fleet, std::vector<AdversaryConfig> configs);
    ~AdversaryDriver();

    AdversaryDriver(const AdversaryDriver&) = delete;
    AdversaryDriver& operator=(const AdversaryDriver&) = delete;

    /// Schedule every attacker's activity window. Windows already in
    /// the past are skipped; re-arming is a no-op.
    void arm();

    /// Stop every attacker and cancel pending ticks. Idempotent.
    void cancelAll();

    [[nodiscard]] std::size_t attackerCount() const noexcept { return attackers_.size(); }
    [[nodiscard]] const AdversaryConfig& config(std::size_t index) const {
        return attackers_[index].config;
    }
    [[nodiscard]] const AttackerStats& attackerStats(std::size_t index) const {
        return attackers_[index].stats;
    }
    /// Sum over attackers.
    [[nodiscard]] AttackerStats totals() const;

  private:
    struct Attacker {
        AdversaryConfig config;
        util::RandomStream rng;
        sim::EventHandle startEvent;
        sim::EventHandle stopEvent;
        sim::EventHandle tickEvent;
        bool active = false;
        bool finished = false;
        AttackerStats stats;
        pl::Slice* hostileSlice = nullptr;  ///< fifo_flooder's slice
        std::uint64_t seq = 0;              ///< action sequence number

        explicit Attacker(AdversaryConfig cfg)
            : config(cfg), rng(cfg.seed ^ 0xad5e25a5ull) {}
    };

    void start(std::size_t index);
    void stop(std::size_t index);
    void tick(std::size_t index);
    /// Seconds until the next tick for this attacker (seeded jitter).
    [[nodiscard]] double tickInterval(Attacker& attacker);

    // Per-personality actions. Each performs one tick's worth of
    // hostility and updates the attacker's stats.
    void actFifoFlooder(std::size_t index, Attacker& attacker);
    void actAtAbuser(Attacker& attacker);
    void actSignalingStorm(std::size_t index, Attacker& attacker);
    void actGreedyUe(Attacker& attacker);
    void actNatChurner(Attacker& attacker);

    [[nodiscard]] scenario::UmtsNodeSite* site(int index) noexcept;
    [[nodiscard]] umts::UmtsSession* sessionForSite(int index) noexcept;
    void countAction(Attacker& attacker);
    void countDenied(Attacker& attacker);

    scenario::Fleet* fleet_;  ///< null once the fleet tore down
    std::vector<Attacker> attackers_;
    util::Logger log_{"adversary.driver"};
    std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
    std::size_t armed_ = 0;
};

}  // namespace onelab::adversary
