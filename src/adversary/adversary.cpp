#include "adversary/adversary.hpp"

#include <algorithm>
#include <cmath>

#include "guard/slice_guard.hpp"
#include "obs/registry.hpp"
#include "umtsctl/backend.hpp"

namespace onelab::adversary {

namespace {

constexpr const char* kKindNames[kPersonalityKindCount] = {
    "fifo_flooder", "at_abuser", "signaling_storm", "greedy_ue", "nat_churner",
};

/// Nominal hostile action rate per personality at intensity 1.0, in
/// ticks per second. Each is far above any honest client's rate (the
/// supervisor polls at ~0.1/s; a dialer issues a handful of AT
/// commands per bring-up).
double nominalTickRate(PersonalityKind kind) noexcept {
    switch (kind) {
        case PersonalityKind::fifo_flooder: return 40.0;
        case PersonalityKind::at_abuser: return 6.0;
        case PersonalityKind::signaling_storm: return 2.0;
        case PersonalityKind::greedy_ue: return 2.0;
        case PersonalityKind::nat_churner: return 4.0;
    }
    return 1.0;
}

void countActionMetrics(PersonalityKind kind) {
    auto& registry = obs::Registry::instance();
    registry.counter("adversary.actions").inc();
    registry.counter(std::string("adversary.actions.") + kindName(kind)).inc();
}

}  // namespace

const char* kindName(PersonalityKind kind) noexcept {
    return kKindNames[std::size_t(kind)];
}

std::optional<PersonalityKind> kindFromName(std::string_view name) noexcept {
    for (std::size_t i = 0; i < kPersonalityKindCount; ++i)
        if (name == kKindNames[i]) return PersonalityKind(i);
    return std::nullopt;
}

void registerAdversaryMetricFamilies() {
    auto& registry = obs::Registry::instance();
    for (const char* name : {"adversary.actions", "adversary.denied", "adversary.skipped"})
        (void)registry.counter(name);
    for (std::size_t kind = 0; kind < kPersonalityKindCount; ++kind)
        (void)registry.counter(std::string("adversary.actions.") +
                               kindName(PersonalityKind(kind)));
    // The adversary's effects are read through the guard families;
    // make sure those exist too even when no guarded site was built.
    guard::registerGuardMetricFamilies();
}

AdversaryDriver::AdversaryDriver(scenario::Fleet& fleet, std::vector<AdversaryConfig> configs)
    : fleet_(&fleet) {
    registerAdversaryMetricFamilies();
    attackers_.reserve(configs.size());
    for (const AdversaryConfig& config : configs) attackers_.emplace_back(config);
    // Mirror the FaultInjector liveness contract: the fleet tearing
    // down first cancels us; us dying first no-ops the hook.
    std::weak_ptr<bool> alive = alive_;
    fleet.addTeardownHook([this, alive] {
        if (alive.expired()) return;
        cancelAll();
        fleet_ = nullptr;
    });
}

AdversaryDriver::~AdversaryDriver() { cancelAll(); }

void AdversaryDriver::arm() {
    if (!fleet_) return;
    for (std::size_t i = 0; i < attackers_.size(); ++i) {
        Attacker& attacker = attackers_[i];
        if (attacker.finished || attacker.startEvent.valid() || attacker.active)
            continue;  // re-arm is a no-op
        const AdversaryConfig& config = attacker.config;

        // Node-side personalities need their site to exist.
        const bool nodeSide = config.kind == PersonalityKind::fifo_flooder ||
                              config.kind == PersonalityKind::at_abuser;
        if (nodeSide && !site(config.site)) {
            attacker.finished = true;
            ++attacker.stats.skipped;
            obs::Registry::instance().counter("adversary.skipped").inc();
            log_.warn() << kindName(config.kind) << " has no site " << config.site
                        << ", skipped";
            continue;
        }

        const sim::SimTime now = fleet_->now();
        if (config.start + config.duration <= now) {
            attacker.finished = true;
            ++attacker.stats.skipped;
            obs::Registry::instance().counter("adversary.skipped").inc();
            continue;
        }
        const sim::SimTime startAt = std::max(config.start, now);
        attacker.startEvent = fleet_->sim().scheduleAt(startAt, [this, i] { start(i); });
        ++armed_;
        log_.info() << "armed " << kindName(config.kind) << " on site " << config.site
                    << " window [" << sim::formatTime(startAt) << ", "
                    << sim::formatTime(config.start + config.duration) << ")";
    }
}

void AdversaryDriver::cancelAll() {
    for (std::size_t i = 0; i < attackers_.size(); ++i) {
        Attacker& attacker = attackers_[i];
        if (fleet_) {
            fleet_->sim().cancel(attacker.startEvent);
            fleet_->sim().cancel(attacker.stopEvent);
            fleet_->sim().cancel(attacker.tickEvent);
        }
        attacker.startEvent = {};
        attacker.stopEvent = {};
        attacker.tickEvent = {};
        if (attacker.active && fleet_ &&
            attacker.config.kind == PersonalityKind::greedy_ue)
            if (umts::UmtsSession* session = sessionForSite(attacker.config.site))
                session->bearer().setGreedy(false);
        attacker.active = false;
        attacker.finished = true;
    }
}

AttackerStats AdversaryDriver::totals() const {
    AttackerStats sum;
    for (const Attacker& attacker : attackers_) {
        sum.actions += attacker.stats.actions;
        sum.denied += attacker.stats.denied;
        sum.skipped += attacker.stats.skipped;
    }
    return sum;
}

scenario::UmtsNodeSite* AdversaryDriver::site(int index) noexcept {
    if (!fleet_ || index < 0 || std::size_t(index) >= fleet_->umtsSiteCount()) return nullptr;
    return &fleet_->umtsSite(std::size_t(index));
}

umts::UmtsSession* AdversaryDriver::sessionForSite(int index) noexcept {
    scenario::UmtsNodeSite* target = site(index);
    if (!target) return nullptr;
    umts::UmtsNetwork& network = fleet_->operatorNetwork();
    for (std::size_t k = 0; k < network.activeSessions(); ++k) {
        umts::UmtsSession* session = network.sessionAt(k);
        if (session && session->active() && session->imsi() == target->imsi())
            return session;
    }
    return nullptr;
}

void AdversaryDriver::countAction(Attacker& attacker) {
    ++attacker.stats.actions;
    ++attacker.seq;
    countActionMetrics(attacker.config.kind);
}

void AdversaryDriver::countDenied(Attacker& attacker) {
    ++attacker.stats.denied;
    obs::Registry::instance().counter("adversary.denied").inc();
}

double AdversaryDriver::tickInterval(Attacker& attacker) {
    const double intensity = std::max(0.01, attacker.config.intensity);
    const double rate = nominalTickRate(attacker.config.kind) * intensity;
    // Seeded jitter so concurrent attackers do not phase-lock.
    return (1.0 / rate) * attacker.rng.uniform(0.85, 1.15);
}

void AdversaryDriver::start(std::size_t index) {
    Attacker& attacker = attackers_[index];
    attacker.startEvent = {};
    if (!fleet_ || attacker.finished) return;
    attacker.active = true;

    if (attacker.config.kind == PersonalityKind::fifo_flooder) {
        // The flooder models an unrelated slice that IS in the vsys
        // ACL (the admission guard is exactly for authorized-but-
        // hostile callers). Create it on the node and let it in.
        scenario::UmtsNodeSite* target = site(attacker.config.site);
        if (target) {
            const std::string name =
                "adv_flood_" + std::to_string(attacker.config.site);
            attacker.hostileSlice = target->node().findSlice(name);
            if (!attacker.hostileSlice)
                attacker.hostileSlice = &target->node().createSlice(name);
            target->node().vsys().allow("umts", name);
        }
    }

    const sim::SimTime stopAt = attacker.config.start + attacker.config.duration;
    attacker.stopEvent = fleet_->sim().scheduleAt(stopAt, [this, index] { stop(index); });
    attacker.tickEvent = fleet_->sim().schedule(sim::seconds(tickInterval(attacker)),
                                                [this, index] { tick(index); });
    log_.info() << kindName(attacker.config.kind) << " on site " << attacker.config.site
                << " active (intensity " << attacker.config.intensity << ")";
}

void AdversaryDriver::stop(std::size_t index) {
    Attacker& attacker = attackers_[index];
    attacker.stopEvent = {};
    if (fleet_) fleet_->sim().cancel(attacker.tickEvent);
    attacker.tickEvent = {};
    if (attacker.active && fleet_ && attacker.config.kind == PersonalityKind::greedy_ue)
        if (umts::UmtsSession* session = sessionForSite(attacker.config.site))
            session->bearer().setGreedy(false);
    attacker.active = false;
    attacker.finished = true;
    log_.info() << kindName(attacker.config.kind) << " on site " << attacker.config.site
                << " window closed: " << attacker.stats.actions << " actions, "
                << attacker.stats.denied << " denied, " << attacker.stats.skipped
                << " skipped";
}

void AdversaryDriver::tick(std::size_t index) {
    Attacker& attacker = attackers_[index];
    attacker.tickEvent = {};
    if (!fleet_ || !attacker.active) return;

    switch (attacker.config.kind) {
        case PersonalityKind::fifo_flooder: actFifoFlooder(index, attacker); break;
        case PersonalityKind::at_abuser: actAtAbuser(attacker); break;
        case PersonalityKind::signaling_storm: actSignalingStorm(index, attacker); break;
        case PersonalityKind::greedy_ue: actGreedyUe(attacker); break;
        case PersonalityKind::nat_churner: actNatChurner(attacker); break;
    }

    if (!attacker.active) return;  // a personality may self-stop
    attacker.tickEvent = fleet_->sim().schedule(sim::seconds(tickInterval(attacker)),
                                                [this, index] { tick(index); });
}

// ------------------------------------------------------ personalities

void AdversaryDriver::actFifoFlooder(std::size_t index, Attacker& attacker) {
    scenario::UmtsNodeSite* target = site(attacker.config.site);
    if (!target || !attacker.hostileSlice) {
        ++attacker.stats.skipped;
        obs::Registry::instance().counter("adversary.skipped").inc();
        return;
    }
    // Mostly `status` spam; every fourth-ish request goes for the
    // unscoped stats dump another slice's telemetry would leak
    // through (the backend ACL demotes it, guard.umtsctl.stats_denied).
    std::vector<std::string> args;
    if (attacker.rng.chance(0.25))
        args = {"stats", "all"};
    else
        args = {"status"};
    countAction(attacker);
    std::weak_ptr<bool> alive = alive_;
    target->node().vsys().invoke(
        *attacker.hostileSlice, "umts", args,
        [this, alive, index](util::Result<pl::VsysResult> result) {
            if (alive.expired()) return;
            if (!result.ok() || result.value().exitCode != umtsctl::exit_code::ok)
                countDenied(attackers_[index]);
        });
}

void AdversaryDriver::actAtAbuser(Attacker& attacker) {
    scenario::UmtsNodeSite* target = site(attacker.config.site);
    if (!target) {
        ++attacker.stats.skipped;
        obs::Registry::instance().counter("adversary.skipped").inc();
        return;
    }
    std::string payload;
    switch (attacker.rng.uniformInt(0, 3)) {
        case 0:
            // Malformed dial string: shell-ish metacharacters an
            // unvalidated path would hand to wvdial's config.
            payload = "ATD*99$;`reboot`#\r";
            break;
        case 1: {
            // Oversized command line (over AtEngine's 1024-byte cap).
            payload = "AT+CGDCONT=1,\"IP\",\"";
            payload.append(1600, 'A');
            payload += "\"\r";
            break;
        }
        case 2:
            // Escape spam: '+' runs with no guard silence. Must never
            // escape data mode (guard.at.escape_spam counts the runs).
            payload.assign(9, '+');
            break;
        default: {
            // Raw line noise (also exercises HDLC resync in data mode).
            payload.resize(24);
            for (char& c : payload)
                c = char(attacker.rng.uniformInt(1, 255));
            break;
        }
    }
    countAction(attacker);
    target->tty().a().write(fleet_->sim().bufferPool().acquireShared(
        {reinterpret_cast<const std::uint8_t*>(payload.data()), payload.size()}));
}

void AdversaryDriver::actSignalingStorm(std::size_t index, Attacker& attacker) {
    umts::UmtsNetwork& network = fleet_->operatorNetwork();
    const std::size_t burst =
        std::max<std::size_t>(1, std::size_t(std::lround(6.0 * attacker.config.intensity)));
    std::weak_ptr<bool> alive = alive_;
    for (std::size_t k = 0; k < burst; ++k) {
        // Synthetic IMSIs in a reserved test MCC so no fleet UE can
        // collide with a storm identity.
        const std::string imsi = "99988" + std::to_string(attacker.config.site) +
                                 std::to_string(10000000ull + attacker.seq);
        countAction(attacker);
        network.attachUe(imsi, [this, alive, index, imsi](util::Result<void> result) {
            if (alive.expired() || !fleet_) return;
            if (!result.ok()) {
                countDenied(attackers_[index]);  // access class barring
                return;
            }
            // Attach/detach churn: drop the registration as soon as it
            // lands, keeping the signaling load pure.
            fleet_->operatorNetwork().detachUe(imsi);
        });
    }
}

void AdversaryDriver::actGreedyUe(Attacker& attacker) {
    umts::UmtsSession* session = sessionForSite(attacker.config.site);
    if (!session) {
        ++attacker.stats.skipped;
        obs::Registry::instance().counter("adversary.skipped").inc();
        return;
    }
    // Re-assert every tick: the session may have died and been
    // re-created mid-window, and a fresh bearer comes up honest.
    if (!session->bearer().greedy()) {
        session->bearer().setGreedy(true);
        countAction(attacker);
    }
}

void AdversaryDriver::actNatChurner(Attacker& attacker) {
    umts::UmtsNetwork& network = fleet_->operatorNetwork();
    const umts::OperatorProfile& profile = network.profile();
    const std::size_t batch =
        std::max<std::size_t>(1, std::size_t(std::lround(16.0 * attacker.config.intensity)));
    // A synthetic neighbouring subscriber far above the session
    // allocator's range, plus a rotating far-end so every packet is a
    // brand-new flow.
    const net::Ipv4Address subscriber{profile.subscriberPool.base().value() + 0xF500u +
                                      std::uint32_t(attacker.config.site)};
    const net::Ipv4Address destination{std::uint32_t((198u << 24) | (18u << 16) | 1u) +
                                       std::uint32_t(attacker.seq % 200)};
    const std::uint16_t basePort = std::uint16_t(attacker.seq * batch);
    const std::size_t recorded =
        network.injectFlowChurn(subscriber, destination, basePort, batch);
    attacker.stats.actions += batch;
    attacker.seq += 1;
    auto& registry = obs::Registry::instance();
    registry.counter("adversary.actions").inc(batch);
    registry.counter(std::string("adversary.actions.") + kindName(attacker.config.kind))
        .inc(batch);
    if (profile.statefulFirewall && recorded < batch) {
        attacker.stats.denied += batch - recorded;
        registry.counter("adversary.denied").inc(batch - recorded);
    }
}

}  // namespace onelab::adversary
