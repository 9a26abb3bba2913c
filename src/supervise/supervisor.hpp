#pragma once

#include <memory>
#include <optional>
#include <string>

#include "modem/umts_modem.hpp"
#include "supervise/breaker.hpp"
#include "tools/chat.hpp"
#include "umtsctl/backend.hpp"
#include "util/backoff.hpp"

namespace onelab::supervise {

/// Supervised link health.
enum class Health : std::uint8_t {
    healthy,     ///< link up, keepalives answered
    degraded,    ///< link up but echoes missed, or on recovery probation
    recovering,  ///< link down, ladder running
    failed_over, ///< parked on the wired path (breaker open or ladder spent)
};

[[nodiscard]] const char* healthName(Health health) noexcept;

struct SupervisorConfig {
    std::string name = "supervisor";  ///< log/trace tag (sites use the IMSI)
    std::uint64_t seed = 1;           ///< ladder backoff jitter stream

    /// Unanswered echoes before HEALTHY degrades (pppd's keepalive
    /// kills the link at the dialer's lcp-echo-failure; this fires
    /// earlier so routes move before the link dies).
    int degradeAfterMisses = 1;
    /// "AT" liveness probe timeout; no reply classifies the modem as
    /// wedged and selects hard reset over the gentler re-attach.
    sim::SimTime atProbeTimeout = sim::seconds(2.0);

    // Escalation ladder: redials, with the modem rungs interleaved
    // after redialsBeforeReset / redialsBeforeReattach failures, up to
    // maxAttemptsPerIncident before the link parks in FAILED_OVER.
    int redialsBeforeReset = 2;
    int redialsBeforeReattach = 4;
    int maxAttemptsPerIncident = 6;
    sim::SimTime redialInitialBackoff = sim::seconds(2.0);
    sim::SimTime redialMaxBackoff = sim::seconds(45.0);
    double backoffJitter = 0.2;

    /// How long a recovered link must hold (echoes answered, no loss)
    /// before traffic fails back from the wired path.
    sim::SimTime stabilityWindow = sim::seconds(20.0);

    BreakerConfig breaker;
};

/// Per-UE link supervisor (the tentpole of the robustness PR): watches
/// layered health signals — LCP echo verdicts from the live pppd, the
/// backend's link-loss notification, an AT liveness probe when depth
/// matters — and drives an escalating, seeded-jittered recovery
/// ladder: LCP renegotiate → redial with capped backoff → modem hard
/// reset or detach/re-attach → park. Whenever the UMTS path is not
/// trustworthy the slice's destination rules are pulled so flows fall
/// back to the wired default route; after a recovery holds for the
/// stability window they are steered back. A flap-detecting circuit
/// breaker parks a link that keeps dying instead of burning dial
/// attempts forever.
///
/// Everything is driven off existing backend/pppd callbacks plus its
/// own timers: on a healthy link (adaptive echo, traffic flowing) the
/// supervisor schedules nothing and writes nothing, so enabling it on
/// a fault-free run leaves the telemetry byte-identical.
class LinkSupervisor {
  public:
    LinkSupervisor(sim::Simulator& simulator, umtsctl::UmtsBackend& backend,
                   modem::UmtsModem& modem, sim::ByteChannel& tty, SupervisorConfig config);
    ~LinkSupervisor();

    LinkSupervisor(const LinkSupervisor&) = delete;
    LinkSupervisor& operator=(const LinkSupervisor&) = delete;

    [[nodiscard]] Health health() const noexcept { return health_; }
    /// When the current health state was entered (sim time).
    [[nodiscard]] sim::SimTime stateSince() const noexcept { return stateSince_; }
    /// Duration of the most recent completed recovery (incident open ->
    /// stable), or nullopt before the first recovery.
    [[nodiscard]] std::optional<sim::SimTime> lastRecoveryLatency() const noexcept {
        if (!hasRecovered_) return std::nullopt;
        return lastRecoveryLatency_;
    }
    [[nodiscard]] bool failedOver() const noexcept { return health_ == Health::failed_over; }
    /// Recovery incidents opened so far (a flap inside an open
    /// incident does not start a new one).
    [[nodiscard]] int incidents() const noexcept { return incidentCount_; }
    /// True while the supervisor still has an action scheduled (ladder
    /// step, stability window, cooldown retry or probe in flight) —
    /// the "not wedged" check the chaos soak asserts on.
    [[nodiscard]] bool hasPendingWork() const noexcept {
        return actionTimer_.valid() || stabilityTimer_.valid() || probeChat_ != nullptr;
    }
    [[nodiscard]] const FlapBreaker& breaker() const noexcept { return breaker_; }

  private:
    void onLinkEstablished();
    void onLinkLost(const std::string& reason);
    void onEchoStatus(int missed);
    void startIncident();
    void enterState(Health next);
    void scheduleLadderStep();
    void ladderStep();
    void probeModem();
    void finishProbe(bool modemAlive);
    void parkInCooldown();
    void cooldownRetry();
    void armStabilityWindow();
    void onStable();
    void noteFailover();

    sim::Simulator& sim_;
    umtsctl::UmtsBackend& backend_;
    modem::UmtsModem& modem_;
    sim::ByteChannel& tty_;
    SupervisorConfig config_;
    util::Logger log_;
    FlapBreaker breaker_;
    util::JitteredBackoff backoff_;
    std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);

    Health health_ = Health::healthy;
    sim::SimTime stateSince_{0};
    sim::SimTime lastRecoveryLatency_{0};
    bool hasRecovered_ = false;
    bool incidentOpen_ = false;
    sim::SimTime incidentStart_{0};
    int incidentCount_ = 0;
    int attempts_ = 0;          ///< ladder attempts this incident
    bool renegotiated_ = false; ///< one LCP renegotiation per degradation
    bool wiredActive_ = false;  ///< routes currently steered to wired

    sim::EventHandle actionTimer_;     ///< next ladder step / cooldown retry
    sim::EventHandle stabilityTimer_;  ///< fail-back probation window
    std::unique_ptr<tools::AtChat> probeChat_;
};

}  // namespace onelab::supervise
