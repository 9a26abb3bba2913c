// The usage model of §2.2 in action: one slice at a time controls the
// UMTS interface, other slices cannot use it — not even by binding to
// its address — and `umts stop` returns the node to a pristine state.
//
// Run:  ./slice_isolation

#include <cstdio>

#include "scenario/fleet.hpp"

using namespace onelab;
using namespace onelab::scenario;

namespace {

pl::VsysResult invokeUmts(Fleet& fleet, pl::Slice& slice,
                          const std::vector<std::string>& args) {
    std::optional<util::Result<pl::VsysResult>> outcome;
    fleet.umtsSite(0).node().vsys().invoke(
        slice, "umts", args, [&](util::Result<pl::VsysResult> r) { outcome = std::move(r); });
    const sim::SimTime deadline = fleet.now() + sim::seconds(30.0);
    while (!outcome && fleet.now() < deadline) fleet.runFor(sim::millis(50));
    if (!outcome) return pl::VsysResult{-1, {"timeout"}};
    if (!outcome->ok()) return pl::VsysResult{-1, {outcome->error().message}};
    return outcome->value();
}

void show(const char* label, const pl::VsysResult& result) {
    std::printf("%s -> exit %d\n", label, result.exitCode);
    for (const std::string& line : result.output) std::printf("    %s\n", line.c_str());
}

}  // namespace

int main() {
    // The paper's testbed plus a second Napoli slice outside the umts ACL.
    FleetConfig config = makeUniformFleet(1);
    config.umtsSites[0].extraSliceNames = {"unina_other"};
    Fleet fleet{config};
    UmtsNodeSite& napoli = fleet.umtsSite(0);
    WiredSite& inria = fleet.wiredSite(0);
    pl::Slice& owner = napoli.umtsSlice();
    pl::Slice& other = *napoli.slice("unina_other");

    std::printf("== Slice isolation demo (paper §2.2/§2.3) ==\n");
    std::printf("slices on %s: '%s' (xid %d, in the umts ACL) and '%s' (xid %d)\n\n",
                napoli.node().hostname().c_str(), owner.name.c_str(), owner.xid,
                other.name.c_str(), other.xid);

    // 1. A slice outside the vsys ACL cannot even reach the backend.
    show("[other] umts start (not in ACL)", invokeUmts(fleet, other, {"start"}));

    // 2. The entitled slice starts the connection.
    show("\n[owner] umts start", invokeUmts(fleet, owner, {"start"}));
    show("[owner] umts add destination",
         invokeUmts(fleet, owner, {"add", "destination", inria.address().str() + "/32"}));

    // 3. Give the other slice ACL access: the interface lock still
    //    keeps it out.
    napoli.node().vsys().allow("umts", other.name);
    show("\n[other] umts start (locked)", invokeUmts(fleet, other, {"start"}));
    show("[other] umts stop (not owner)", invokeUmts(fleet, other, {"stop"}));

    // 4. Data-plane isolation: the other slice's packets never cross
    //    ppp0, whatever it tries.
    net::Interface* ppp = napoli.node().stack().findInterface("ppp0");
    auto ownerSocket = napoli.node().openSliceUdp(owner).value();
    (void)ownerSocket->sendTo(inria.address(), 9001, util::Bytes{1});
    auto hostile = napoli.node().openSliceUdp(other).value();
    hostile->bindAddress(ppp->address());  // bind to the UMTS address
    (void)hostile->sendTo(inria.address(), 9001, util::Bytes{1});
    (void)hostile->sendTo(fleet.operatorNetwork().profile().ggsnAddress, 22, util::Bytes{1});
    std::printf("\ndata plane: ppp0 carried %llu packet(s) — the owner's probe only\n",
                (unsigned long long)ppp->counters().txPackets);

    // 5. Stop and verify nothing leaks.
    show("\n[owner] umts stop", invokeUmts(fleet, owner, {"stop"}));
    std::printf("\nafter stop: netfilter rules=%zu, policy rules=%zu (main only), "
                "ppp0=%s, PDP sessions=%zu\n",
                napoli.node().stack().netfilter().ruleCount(),
                napoli.node().stack().router().rules().size(),
                napoli.node().stack().findInterface("ppp0") ? "present" : "gone",
                fleet.operatorNetwork().activeSessions());

    const bool clean = napoli.node().stack().netfilter().ruleCount() == 0 &&
                       napoli.node().stack().router().rules().size() == 1 &&
                       napoli.node().stack().findInterface("ppp0") == nullptr;
    return clean ? 0 : 1;
}
