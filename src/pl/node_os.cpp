#include "pl/node_os.hpp"

namespace onelab::pl {

NodeOs::NodeOs(sim::Simulator& simulator, std::string hostname)
    : hostname_(std::move(hostname)),
      sim_(simulator),
      stack_(simulator, hostname_),
      rootShell_(stack_) {
    installPaperModuleSet(modules_);

    // Expose module management through the root shell, the way the
    // real umts backend scripts shell out to modprobe/rmmod/lsmod.
    rootShell_.installCommand(
        "modprobe",
        [this](const std::vector<std::string>& argv) -> util::Result<std::string> {
            if (argv.size() != 2)
                return util::err(util::Error::Code::invalid_argument, "usage: modprobe NAME");
            const auto loaded = modules_.modprobe(argv[1]);
            if (!loaded.ok()) return loaded.error();
            return std::string{};
        });
    rootShell_.installCommand(
        "rmmod", [this](const std::vector<std::string>& argv) -> util::Result<std::string> {
            if (argv.size() != 2)
                return util::err(util::Error::Code::invalid_argument, "usage: rmmod NAME");
            const auto removed = modules_.rmmod(argv[1]);
            if (!removed.ok()) return removed.error();
            return std::string{};
        });
    rootShell_.installCommand(
        "lsmod", [this](const std::vector<std::string>&) -> util::Result<std::string> {
            std::string out = "Module\n";
            for (const std::string& name : modules_.loadedModules()) out += name + "\n";
            return out;
        });
}

util::Result<KernelModuleRegistry*> NodeOs::modules(Context context) {
    if (!context.isRoot())
        return util::err(util::Error::Code::permission_denied,
                         "module loading requires the root context");
    return &modules_;
}

Slice& NodeOs::createSlice(const std::string& name) {
    if (Slice* existing = findSlice(name)) return *existing;
    slices_.push_back(Slice{name, nextXid_++});
    return slices_.back();
}

Slice* NodeOs::findSlice(const std::string& name) {
    for (Slice& slice : slices_)
        if (slice.name == name) return &slice;
    return nullptr;
}

util::Result<tools::RootShell*> NodeOs::shell(Context context) {
    if (!context.isRoot())
        return util::err(util::Error::Code::permission_denied,
                         "operation requires the root context (use vsys)");
    return &rootShell_;
}

util::Result<net::UdpSocket*> NodeOs::openSliceUdp(const Slice& slice, std::uint16_t port) {
    return stack_.openUdp(slice.xid, port);
}

util::Result<net::UdpSocket*> NodeOs::openRootUdp(std::uint16_t port) {
    return stack_.openUdp(0, port);
}

net::TcpHost& NodeOs::tcp() {
    if (!tcp_) {
        // FNV-1a over the hostname: stable across builds and processes
        // (unlike std::hash), so ISS draws and ephemeral ports are a
        // pure function of the node's identity.
        std::uint64_t seed = 1469598103934665603ull;
        for (const char c : hostname_) {
            seed ^= std::uint8_t(c);
            seed *= 1099511628211ull;
        }
        tcp_ = std::make_unique<net::TcpHost>(sim_, stack_, util::RandomStream{seed});
    }
    return *tcp_;
}

}  // namespace onelab::pl
