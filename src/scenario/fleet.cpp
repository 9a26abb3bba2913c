#include "scenario/fleet.hpp"

#include "ditg/receiver.hpp"
#include "ditg/sender.hpp"
#include "obs/profiler.hpp"
#include "obs/registry.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"

namespace onelab::scenario {

FleetConfig makeUniformFleet(std::size_t ueCount, std::uint64_t seed,
                             umts::OperatorProfile profile) {
    FleetConfig config;
    config.seed = seed;
    config.operatorProfile = std::move(profile);
    for (std::size_t i = 0; i < ueCount; ++i) {
        UmtsNodeSiteConfig site;
        site.hostname = "planetlab" + std::to_string(i + 1) + ".unina.it";
        site.ethAddress = net::Ipv4Address{143, 225, 229, std::uint8_t(10 + i)};
        // IMSIs count up from the historic single-node identity.
        site.imsi = "22288000000000" + std::to_string(1 + i);
        site.umtsSliceName = "unina_umts";
        site.dialerSeedTag = i == 0 ? "dialer" : "dialer-" + std::to_string(i);
        config.umtsSites.push_back(std::move(site));
    }
    WiredSiteConfig receiver;
    receiver.hostname = "planetlab1.inria.fr";
    receiver.address = net::Ipv4Address{138, 96, 250, 20};
    receiver.sliceNames = {"inria_recv"};
    config.wiredSites.push_back(std::move(receiver));
    return config;
}

Fleet::Fleet(FleetConfig config) : config_(std::move(config)), rng_(config_.seed) {
    // Registered up front so a telemetry export carries the family
    // (zero included) whether or not a bring-up ever failed.
    (void)obs::Registry::instance().counter("fleet.start_failures");
    internet_ = std::make_unique<net::Internet>(sim_, rng_.derive("internet"));
    operator_ = std::make_unique<umts::UmtsNetwork>(sim_, *internet_, config_.operatorProfile,
                                                    rng_.derive("operator"));
    for (const UmtsNodeSiteConfig& siteConfig : config_.umtsSites)
        umtsSites_.push_back(
            std::make_unique<UmtsNodeSite>(sim_, *internet_, *operator_, rng_, siteConfig));
    for (const WiredSiteConfig& siteConfig : config_.wiredSites)
        wiredSites_.push_back(std::make_unique<WiredSite>(sim_, *internet_, siteConfig));

    // Wired transit delays between every site pair (and the operator's
    // core toward each). Ordered UE x wired first to keep the
    // single-node testbed's historical call sequence exactly.
    for (auto& ue : umtsSites_)
        for (auto& wired : wiredSites_)
            internet_->setTransitDelay(ue->eth(), wired->eth(), config_.ethTransitOneWay);
    for (std::size_t i = 0; i < umtsSites_.size(); ++i)
        for (std::size_t k = i + 1; k < umtsSites_.size(); ++k)
            internet_->setTransitDelay(umtsSites_[i]->eth(), umtsSites_[k]->eth(),
                                       config_.ethTransitOneWay);
    for (std::size_t i = 0; i < wiredSites_.size(); ++i)
        for (std::size_t k = i + 1; k < wiredSites_.size(); ++k)
            internet_->setTransitDelay(wiredSites_[i]->eth(), wiredSites_[k]->eth(),
                                       config_.ethTransitOneWay);
    for (auto& wired : wiredSites_)
        internet_->setTransitDelay(operator_->wanInterface(), wired->eth(),
                                   config_.ggsnTransitOneWay);
    for (auto& ue : umtsSites_)
        internet_->setTransitDelay(operator_->wanInterface(), ue->eth(),
                                   config_.ggsnTransitOneWay);

    // The operator's resolver knows every fleet hostname.
    for (auto& ue : umtsSites_) operator_->addDnsRecord(ue->hostname(), ue->ethAddress());
    for (auto& wired : wiredSites_)
        operator_->addDnsRecord(wired->hostname(), wired->address());
}

util::Result<void> Fleet::writeTelemetry(const std::string& directory) {
    return obs::writeTelemetry(directory);
}

Fleet::~Fleet() {
    // Give external layers (fault injectors, monitors) a chance to
    // cancel simulator events aimed at fleet members before the sites
    // those events reference are destroyed.
    for (auto it = teardownHooks_.rbegin(); it != teardownHooks_.rend(); ++it)
        if (*it) (*it)();
    teardownHooks_.clear();
}

void Fleet::addTeardownHook(std::function<void()> hook) {
    teardownHooks_.push_back(std::move(hook));
}

util::Result<umtsctl::UmtsReport> Fleet::startUmts(std::size_t index, sim::SimTime timeout) {
    return umtsSites_.at(index)->startUmts(timeout);
}

util::Result<void> Fleet::startAll(sim::SimTime timeout) {
    std::vector<std::optional<util::Result<umtsctl::UmtsReport>>> outcomes(umtsSites_.size());
    for (std::size_t i = 0; i < umtsSites_.size(); ++i)
        umtsSites_[i]->frontend().start(
            [&outcomes, i](util::Result<umtsctl::UmtsReport> result) {
                outcomes[i] = std::move(result);
            });
    const sim::SimTime deadline = now() + timeout;
    const auto allDone = [&outcomes] {
        for (const auto& outcome : outcomes)
            if (!outcome) return false;
        return true;
    };
    while (!allDone() && now() < deadline) runUntil(now() + sim::millis(100));
    // Collect every site's bring-up failure instead of aborting on the
    // first one: the sites that DID come up stay up and usable, and
    // the caller gets the full damage report in one message. Each
    // entry names the site by fleet index, IMSI and hostname — the
    // three keys an operator greps logs, metrics and configs by.
    std::vector<std::string> failures;
    util::Error::Code code = util::Error::Code::io;
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        const std::string who = "site " + std::to_string(i) + " (imsi " +
                                umtsSites_[i]->imsi() + ") " + umtsSites_[i]->hostname();
        if (!outcomes[i]) {
            failures.push_back(who + ": start timed out");
            code = util::Error::Code::timeout;
            obs::Registry::instance().counter("fleet.start_failures").inc();
        } else if (!outcomes[i]->ok()) {
            failures.push_back(who + ": " + outcomes[i]->error().message);
            code = outcomes[i]->error().code;
            obs::Registry::instance().counter("fleet.start_failures").inc();
        }
    }
    if (failures.empty()) return util::Result<void>{};
    std::string message = std::to_string(failures.size()) + "/" +
                          std::to_string(outcomes.size()) + " sites failed to start: ";
    for (std::size_t i = 0; i < failures.size(); ++i) {
        if (i) message += "; ";
        message += failures[i];
    }
    // A failed bring-up is a dump trigger: freeze the black box with
    // the per-site failures on record before the caller bails out.
    obs::Tracer& recorder = obs::Tracer::instance();
    for (const std::string& failure : failures)
        recorder.note(obs::RecordKind::event, "fleet", "start_failure", failure);
    recorder.requestDump("fleet bring-up failed: " + message);
    return util::err(code, message);
}

util::Result<void> Fleet::addUmtsDestination(std::size_t index, const std::string& destination,
                                             sim::SimTime timeout) {
    return umtsSites_.at(index)->addUmtsDestination(destination, timeout);
}

util::Result<void> Fleet::addDestinationAll(sim::SimTime timeout) {
    if (wiredSites_.empty())
        return util::err(util::Error::Code::state, "fleet has no wired receiver site");
    const std::string destination = wiredSites_.front()->address().str() + "/32";
    for (auto& ue : umtsSites_) {
        const auto added = ue->addUmtsDestination(destination, timeout);
        if (!added.ok())
            return util::err(added.error().code,
                             ue->hostname() + ": " + added.error().message);
    }
    return util::Result<void>{};
}

util::Result<void> Fleet::stopUmts(std::size_t index, sim::SimTime timeout) {
    return umtsSites_.at(index)->stopUmts(timeout);
}

FleetCbrRun Fleet::runCbr(std::size_t index, double durationSeconds) {
    return runCbrOnSites({index}, durationSeconds).front();
}

std::vector<FleetCbrRun> Fleet::runCbrAll(double durationSeconds) {
    std::vector<std::size_t> indices(umtsSites_.size());
    for (std::size_t i = 0; i < indices.size(); ++i) indices[i] = i;
    return runCbrOnSites(indices, durationSeconds);
}

std::vector<FleetCbrRun> Fleet::runCbrOnSites(const std::vector<std::size_t>& indices,
                                              double durationSeconds) {
    // Wave bookkeeping (flow/socket setup, log decode, teardown) is
    // real CPU work outside the event loop; the sim time nested below
    // subtracts itself, leaving the bookkeeping as this scope's self.
    obs::ProfileScope waveScope(obs::ProfileCategory::ditg_decode);
    if (wiredSites_.empty()) throw std::runtime_error("fleet has no wired receiver site");
    WiredSite& receiverSite = *wiredSites_.front();

    auto recvSocket = receiverSite.node().openSliceUdp(receiverSite.firstSlice(), 9001);
    if (!recvSocket.ok())
        throw std::runtime_error("receiver socket: " + recvSocket.error().message);
    ditg::ItgRecv receiver{*recvSocket.value()};

    struct ActiveFlow {
        std::size_t siteIndex;
        std::uint16_t flowId;
        net::UdpSocket* socket;
        std::unique_ptr<ditg::ItgSend> sender;
    };
    std::vector<ActiveFlow> flows;
    flows.reserve(indices.size());
    for (const std::size_t index : indices) {
        UmtsNodeSite& site = *umtsSites_.at(index);
        auto sendSocket = site.node().openSliceUdp(site.umtsSlice());
        if (!sendSocket.ok())
            throw std::runtime_error(site.hostname() + " sender socket: " +
                                     sendSocket.error().message);
        // One flow id per site so a single receiver log disambiguates.
        const auto flowId = std::uint16_t(10 + index);
        ditg::FlowSpec spec = ditg::cbr1MbpsFlow(flowId, durationSeconds);
        util::RandomStream flowRng = rng_.derive("flow@" + site.imsi());
        auto sender = std::make_unique<ditg::ItgSend>(sim_, *sendSocket.value(),
                                                      std::move(spec),
                                                      receiverSite.address(), 9001,
                                                      std::move(flowRng));
        flows.push_back(ActiveFlow{index, flowId, sendSocket.value(), std::move(sender)});
    }

    const sim::SimTime flowStart = now();
    for (ActiveFlow& flow : flows) flow.sender->start();
    // Run the flows plus a drain tail (RLC buffers + ACK round trips).
    runUntil(flowStart + sim::seconds(durationSeconds) + sim::seconds(10.0));

    std::vector<FleetCbrRun> runs;
    runs.reserve(flows.size());
    for (ActiveFlow& flow : flows) {
        UmtsNodeSite& site = *umtsSites_[flow.siteIndex];
        FleetCbrRun run;
        run.imsi = site.imsi();
        run.summary = ditg::ItgDec::summarize(flow.sender->log(), receiver.log(flow.flowId));
        run.packetsSent = flow.sender->packetsSent();
        run.packetsReceived = run.summary.received;
        // The live session's bearer knows its contention history.
        for (std::size_t k = 0; k < operator_->activeSessions(); ++k) {
            umts::UmtsSession* session = operator_->sessionAt(k);
            if (!session || session->imsi() != site.imsi()) continue;
            run.bearerUpgrades = session->bearer().upgradeCount();
            run.deniedUpgrades = session->bearer().deniedUpgrades();
            run.admissionTrimmed = session->bearer().admissionTrimmed();
            break;
        }
        runs.push_back(std::move(run));
    }

    // Close the flow sockets: the receiver object dies with this scope
    // (its handler must not fire again), and the next wave re-binds
    // port 9001.
    for (ActiveFlow& flow : flows)
        umtsSites_[flow.siteIndex]->node().stack().closeUdp(flow.socket);
    receiverSite.node().stack().closeUdp(recvSocket.value());
    return runs;
}

FleetTcpRun Fleet::runTcp(std::size_t index, double durationSeconds,
                          net::CcAlgorithm congestion) {
    return runTcpOnSites({index}, durationSeconds, congestion).front();
}

std::vector<FleetTcpRun> Fleet::runTcpAll(double durationSeconds,
                                          net::CcAlgorithm congestion) {
    std::vector<std::size_t> indices(umtsSites_.size());
    for (std::size_t i = 0; i < indices.size(); ++i) indices[i] = i;
    return runTcpOnSites(indices, durationSeconds, congestion);
}

std::vector<FleetTcpRun> Fleet::runTcpOnSites(const std::vector<std::size_t>& indices,
                                              double durationSeconds,
                                              net::CcAlgorithm congestion) {
    obs::ProfileScope waveScope(obs::ProfileCategory::ditg_decode);
    if (wiredSites_.empty()) throw std::runtime_error("fleet has no wired receiver site");
    WiredSite& receiverSite = *wiredSites_.front();
    constexpr std::uint16_t kTcpProbePort = 9002;

    net::TcpOptions options;
    options.congestion = congestion;

    // The receiver listens on the wired site's TcpHost.
    auto receiver = std::make_unique<ditg::ItgRecv>(
        sim_, receiverSite.node().tcp(), kTcpProbePort,
        /*sendAcks=*/true, receiverSite.firstSlice().xid, options);

    struct ActiveFlow {
        std::size_t siteIndex;
        std::uint16_t flowId;
        std::unique_ptr<ditg::ItgSend> sender;
    };
    std::vector<ActiveFlow> flows;
    flows.reserve(indices.size());
    for (const std::size_t index : indices) {
        UmtsNodeSite& site = *umtsSites_.at(index);
        const auto flowId = std::uint16_t(10 + index);
        // A moderate probe CBR that fits inside the uplink DCH, so the
        // wave measures the stack (handshake, ACK clock, recovery)
        // rather than pure bufferbloat.
        ditg::FlowSpec spec =
            ditg::cbrFlow(flowId, 50.0, 256, durationSeconds, "tcp-probe");
        util::RandomStream flowRng = rng_.derive("tcpflow@" + site.imsi());
        auto sender = std::make_unique<ditg::ItgSend>(
            sim_, site.node().tcp(), std::move(spec),
            receiverSite.address(), kTcpProbePort, std::move(flowRng),
            site.umtsSlice().xid, options);
        flows.push_back(ActiveFlow{index, flowId, std::move(sender)});
    }

    const sim::SimTime flowStart = now();
    for (ActiveFlow& flow : flows) flow.sender->start();
    // Flows + drain tail (RLC queues, retransmissions, FIN exchange).
    runUntil(flowStart + sim::seconds(durationSeconds) + sim::seconds(10.0));

    std::vector<FleetTcpRun> runs;
    runs.reserve(flows.size());
    for (ActiveFlow& flow : flows) {
        UmtsNodeSite& site = *umtsSites_[flow.siteIndex];
        FleetTcpRun run;
        run.imsi = site.imsi();
        run.summary =
            ditg::ItgDec::summarize(flow.sender->log(), receiver->log(flow.flowId));
        run.probesSent = flow.sender->packetsSent();
        run.probesReceived = run.summary.received;
        if (net::TcpConnection* conn = flow.sender->connection()) run.tcp = conn->stats();
        runs.push_back(std::move(run));
    }

    // Self-cleaning wave: abort anything still open (a stuck flow must
    // not leak into the next wave), let TIME-WAIT drain, then reap
    // every CLOSED connection on both ends so the next wave's
    // ephemeral binds see a clean table.
    for (ActiveFlow& flow : flows)
        if (net::TcpConnection* conn = flow.sender->connection();
            conn && conn->state() != net::TcpState::closed &&
            conn->state() != net::TcpState::time_wait)
            conn->close();
    runUntil(now() + sim::seconds(3.0));  // 2 s TIME-WAIT + margin
    // Stops listening on 9002 and aborts any connection a faulted peer
    // left behind.
    receiver.reset();
    for (const std::size_t index : indices) (void)umtsSites_[index]->node().tcp().reapClosed();
    (void)receiverSite.node().tcp().reapClosed();
    return runs;
}

}  // namespace onelab::scenario
