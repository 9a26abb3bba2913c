// Microbenchmarks of the node data path, in four families:
//
//  - Packet path: policy routing resolution, netfilter traversal, the
//    operator firewall's new-flow cost at its table cap, and the full
//    send path with the paper's isolation rule set installed (the
//    per-packet cost of the umts command's policy).
//
//  - Framed byte path: HDLC encode/deframe goodput of the vectorized
//    framer (bulk run scan + fused FCS) against an in-file replica of
//    the previous byte-at-a-time implementation, at 64/512/1500-byte
//    MTUs across escape-light/escape-heavy payloads and ACCM 0x0 vs
//    0xffffffff, plus the full pipe->framer->deframer goodput loop on
//    pooled zero-copy slices.
//
//  - Modem TTY scan: the AT engine's data-mode "+++" watch over 1500 B
//    of frame bytes, escape-free and '+'-dense, against an in-file
//    replica of the per-byte loop it replaced.
//
//  - Codecs: the FCS-16 bulk walk, LZSS (CCP) compression, MD5 (CHAP)
//    and IP packet serialize/parse.
//
// Before any benchmark runs, main() executes a differential self-check
// (fast vs reference round trips); a mismatch fails the binary, so the
// CI smoke invocation doubles as an integrity gate.
//
// Usage: micro_datapath [google-benchmark flags] [--json [path]]
//   --json   after the run, write a machine-readable summary (every
//            benchmark's throughput plus fast-vs-reference speedups)
//            to `path`, default BENCH_datapath.json.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "micro_json.hpp"
#include "modem/at_engine.hpp"
#include "net/internet.hpp"
#include "net/packet.hpp"
#include "net/stack.hpp"
#include "obs/registry.hpp"
#include "ppp/compress.hpp"
#include "ppp/fcs.hpp"
#include "ppp/framer.hpp"
#include "sim/pipe.hpp"
#include "sim/simulator.hpp"
#include "umts/network.hpp"
#include "util/md5.hpp"
#include "util/rand.hpp"
#include "util/strings.hpp"

namespace {

using namespace onelab;

// ---------------------------------------------------------------------------
// Packet path
// ---------------------------------------------------------------------------

void BM_PolicyRoutingResolve(benchmark::State& state) {
    net::PolicyRouter router;
    router.table(net::PolicyRouter::kMainTable)
        .addRoute({net::Prefix::any(), "eth0", std::nullopt, 0});
    router.table(100).addRoute({net::Prefix::any(), "ppp0", std::nullopt, 0});
    // state.range(0) destination rules, like N `umts add destination`s.
    for (int i = 0; i < state.range(0); ++i) {
        net::PolicyRule rule;
        rule.priority = 1001;
        rule.fwmark = 100;
        rule.dstSelector = net::Prefix::host(net::Ipv4Address{std::uint32_t(0x8a000000 + i)});
        rule.tableId = 100;
        router.addRule(rule);
    }
    net::Packet pkt = net::makeUdpPacket({}, 1, net::Ipv4Address{8, 8, 8, 8}, 2, {});
    pkt.fwmark = 100;
    for (auto _ : state) benchmark::DoNotOptimize(router.resolve(pkt).ok());
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PolicyRoutingResolve)->Arg(0)->Arg(2)->Arg(16)->Arg(128);

void BM_NetfilterChain(benchmark::State& state) {
    net::Netfilter nf;
    for (int i = 0; i < state.range(0); ++i) {
        net::FilterRule rule;
        rule.match.sliceXid = 1000 + i;  // never matches
        rule.target.kind = net::FilterTarget::Kind::drop;
        nf.append(net::ChainHook::filter_output, rule);
    }
    net::Packet pkt = net::makeUdpPacket({}, 1, net::Ipv4Address{8, 8, 8, 8}, 2, {});
    pkt.sliceXid = 1;
    for (auto _ : state)
        benchmark::DoNotOptimize(nf.runChain(net::ChainHook::filter_output, pkt, "eth0"));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NetfilterChain)->Arg(1)->Arg(8)->Arg(64);

/// One new flow into the operator firewall's full flow table with the
/// per-subscriber quota off (a flow spray): the cap's expired purge and
/// oldest-flow eviction, plus the flow key and table insert. The clock
/// advances 1 us per flow, so the evicted flow is the oldest one.
void BM_FirewallNewFlowAtCap(benchmark::State& state) {
    const auto cap = std::size_t(state.range(0));
    sim::Simulator sim;
    net::Internet internet{sim, util::RandomStream{5}};
    umts::OperatorProfile profile = umts::commercialItalianOperator();
    profile.natGuard.maxFirewallFlows = cap;
    profile.natGuard.perSubscriberQuota = 0;
    umts::UmtsNetwork network{sim, internet, profile, util::RandomStream{6}};
    const net::Ipv4Address sprayer{10, 47, 0, 99};
    const net::Ipv4Address dest{138, 96, 250, 20};
    (void)network.injectFlowChurn(sprayer, dest, 0, cap);
    // The churn hook rotates through 50000 source ports, more than any
    // cap, so every flow below is new.
    std::size_t port = cap;
    for (auto _ : state) {
        sim.runUntil(sim.now() + sim::micros(1));
        benchmark::DoNotOptimize(network.injectFlowChurn(sprayer, dest, std::uint16_t(port), 1));
        port = (port + 1) % 50000;
    }
    if (network.firewallFlowCount() != cap) state.SkipWithError("flow table left its cap");
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FirewallNewFlowAtCap)->Arg(1024)->Arg(8192);

/// Full send path with and without the umts isolation rules — the
/// cost the extension adds to every transmitted packet.
void BM_SendPathIsolationRules(benchmark::State& state) {
    sim::Simulator sim;
    net::NetworkStack stack{sim, "bench"};
    net::Interface& eth = stack.addInterface("eth0");
    eth.setAddress(net::Ipv4Address{10, 0, 0, 1});
    eth.setUp(true);
    eth.setTxHandler([](net::Packet) {});
    net::Interface& ppp = stack.addInterface("ppp0");
    ppp.setAddress(net::Ipv4Address{93, 57, 0, 16});
    ppp.setUp(true);
    ppp.setTxHandler([](net::Packet) {});
    stack.router().table(net::PolicyRouter::kMainTable)
        .addRoute({net::Prefix::any(), "eth0", std::nullopt, 0});

    if (state.range(0) != 0) {
        // The exact §2.3 rule set.
        net::FilterRule mark;
        mark.match.sliceXid = 100;
        mark.target = {net::FilterTarget::Kind::mark, 100};
        stack.netfilter().append(net::ChainHook::mangle_output, mark);
        net::FilterRule drop;
        drop.match.outInterface = "ppp0";
        drop.match.sliceXid = 100;
        drop.match.negateSlice = true;
        drop.target.kind = net::FilterTarget::Kind::drop;
        stack.netfilter().append(net::ChainHook::filter_output, drop);
        stack.router().table(100).addRoute({net::Prefix::any(), "ppp0", std::nullopt, 0});
        net::PolicyRule rule;
        rule.priority = 1000;
        rule.fwmark = 100;
        rule.srcSelector = net::Prefix::host(net::Ipv4Address{93, 57, 0, 16});
        rule.tableId = 100;
        stack.router().addRule(rule);
    }

    auto socket = stack.openUdp(101).value();  // a non-owner slice
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            socket->sendTo(net::Ipv4Address{8, 8, 8, 8}, 53, util::Bytes(64, 0)).ok());
    }
    state.SetItemsProcessed(state.iterations());
    state.SetLabel(state.range(0) ? "isolation rules installed" : "bare stack");
}
BENCHMARK(BM_SendPathIsolationRules)->Arg(0)->Arg(1);

// ---------------------------------------------------------------------------
// Framed byte path: reference (pre-vectorization) framer, kept here as
// the measurement baseline after the real one was replaced.
// ---------------------------------------------------------------------------

constexpr std::uint8_t kFlag = 0x7e;
constexpr std::uint8_t kEscape = 0x7d;
constexpr std::uint8_t kXor = 0x20;
constexpr std::uint8_t kAddress = 0xff;
constexpr std::uint8_t kControl = 0x03;

/// The pre-vectorization FCS: one table lookup per byte (ppp::fcs16
/// walks slice-by-16 tables, so calling it here would credit the
/// reference with the fast path's table walk).
std::uint16_t fcs16Reference(util::ByteView data) noexcept {
    const auto& table = ppp::fcsTables()[0];
    std::uint16_t fcs = ppp::kFcsInit;
    for (const std::uint8_t byte : data)
        fcs = std::uint16_t((fcs >> 8) ^ table[(fcs ^ byte) & 0xff]);
    return fcs;
}

bool needsEscapeReference(std::uint8_t byte, std::uint32_t accm) noexcept {
    if (byte == kFlag || byte == kEscape) return true;
    return byte < 0x20 && ((accm >> byte) & 1u);
}

void putEscapedReference(util::Bytes& out, std::uint8_t byte, std::uint32_t accm) {
    if (needsEscapeReference(byte, accm)) {
        out.push_back(kEscape);
        out.push_back(byte ^ kXor);
    } else {
        out.push_back(byte);
    }
}

util::Bytes encodeFrameReference(const ppp::Frame& frame, const ppp::FramerConfig& config) {
    util::Bytes raw;
    raw.reserve(frame.info.size() + 6);
    if (!config.compressAddressControl) {
        raw.push_back(kAddress);
        raw.push_back(kControl);
    }
    const auto protocol = std::uint16_t(frame.protocol);
    if (config.compressProtocolField && protocol <= 0xff) {
        raw.push_back(std::uint8_t(protocol));
    } else {
        raw.push_back(std::uint8_t(protocol >> 8));
        raw.push_back(std::uint8_t(protocol));
    }
    raw.insert(raw.end(), frame.info.begin(), frame.info.end());

    const auto fcs = std::uint16_t(~fcs16Reference(raw) & 0xffff);

    util::Bytes out;
    out.reserve(raw.size() + 8);
    out.push_back(kFlag);
    for (const std::uint8_t byte : raw) putEscapedReference(out, byte, config.sendAccm);
    putEscapedReference(out, std::uint8_t(fcs & 0xff), config.sendAccm);
    putEscapedReference(out, std::uint8_t(fcs >> 8), config.sendAccm);
    out.push_back(kFlag);
    return out;
}

/// Byte-at-a-time deframer baseline (counters + payload only).
class DeframerReference {
  public:
    void feed(util::ByteView data) {
        for (const std::uint8_t byte : data) {
            if (byte == kFlag) {
                escaped_ = false;
                endFrame();
                continue;
            }
            if (byte == kEscape) {
                escaped_ = true;
                continue;
            }
            current_.push_back(escaped_ ? std::uint8_t(byte ^ kXor) : byte);
            escaped_ = false;
        }
    }

    std::uint64_t good = 0;
    std::uint64_t bad = 0;
    std::uint64_t payloadBytes = 0;

  private:
    void endFrame() {
        if (current_.empty()) return;
        util::Bytes raw;
        raw.swap(current_);
        if (raw.size() < 3 || fcs16Reference(raw) != ppp::kFcsGood) {
            ++bad;
            return;
        }
        ++good;
        payloadBytes += raw.size() - 2;
    }

    util::Bytes current_;
    bool escaped_ = false;
};

// ---------------------------------------------------------------------------
// Payload profiles: {escape-light, escape-heavy} x {ACCM 0, 0xffffffff}.
// ---------------------------------------------------------------------------

struct WireProfile {
    const char* name;
    std::uint32_t accm;
    bool heavy;  ///< payload stuffed with flag/escape/control bytes
};

constexpr WireProfile kProfiles[] = {
    {"light_accm0", 0x00000000u, false},
    {"light_accmff", 0xffffffffu, false},
    {"heavy_accm0", 0x00000000u, true},
    {"heavy_accmff", 0xffffffffu, true},
};

util::Bytes makePayload(std::size_t size, bool heavy) {
    util::Bytes payload(size);
    for (std::size_t i = 0; i < size; ++i) {
        if (heavy) {
            // Escape-dense mix: flags, escapes and control chars (the
            // control chars only escape under ACCM 0xffffffff).
            static constexpr std::uint8_t kNasty[] = {kFlag, kEscape, 0x11, 0x13,
                                                      0x00,  0x42,    0x7c, 0x1f};
            payload[i] = kNasty[i % 8];
        } else {
            payload[i] = std::uint8_t(0x20 + (i * 7) % 0x5e);  // printable, no specials
        }
    }
    return payload;
}

ppp::FramerConfig configFor(const WireProfile& profile) {
    ppp::FramerConfig config;
    config.sendAccm = profile.accm;
    return config;
}

// ---------------------------------------------------------------------------
// HDLC encode: fast vs reference.
// ---------------------------------------------------------------------------

void BM_HdlcEncode(benchmark::State& state) {
    const WireProfile& profile = kProfiles[std::size_t(state.range(1))];
    const ppp::FramerConfig config = configFor(profile);
    const ppp::Frame frame{ppp::Protocol::ip,
                           makePayload(std::size_t(state.range(0)), profile.heavy)};
    util::Bytes out;
    std::uint64_t wireBytes = 0;
    for (auto _ : state) {
        ppp::encodeFrameInto(frame.protocol, {frame.info.data(), frame.info.size()}, config,
                             out);
        benchmark::DoNotOptimize(out.data());
        wireBytes += out.size();
    }
    state.SetItemsProcessed(state.iterations());  // frames/s
    state.SetBytesProcessed(std::int64_t(state.iterations()) * state.range(0));
    state.SetLabel(profile.name);
    benchmark::DoNotOptimize(wireBytes);
}

void BM_HdlcEncodeReference(benchmark::State& state) {
    const WireProfile& profile = kProfiles[std::size_t(state.range(1))];
    const ppp::FramerConfig config = configFor(profile);
    const ppp::Frame frame{ppp::Protocol::ip,
                           makePayload(std::size_t(state.range(0)), profile.heavy)};
    std::uint64_t wireBytes = 0;
    for (auto _ : state) {
        const util::Bytes out = encodeFrameReference(frame, config);
        benchmark::DoNotOptimize(out.data());
        wireBytes += out.size();
    }
    state.SetItemsProcessed(state.iterations());
    state.SetBytesProcessed(std::int64_t(state.iterations()) * state.range(0));
    state.SetLabel(profile.name);
    benchmark::DoNotOptimize(wireBytes);
}

// ---------------------------------------------------------------------------
// HDLC deframe: fast vs reference, fed the same pre-encoded wire.
// ---------------------------------------------------------------------------

void BM_HdlcDeframe(benchmark::State& state) {
    const WireProfile& profile = kProfiles[std::size_t(state.range(1))];
    const ppp::Frame frame{ppp::Protocol::ip,
                           makePayload(std::size_t(state.range(0)), profile.heavy)};
    const util::Bytes wire = ppp::encodeFrame(frame, configFor(profile));
    ppp::Deframer deframer;
    std::uint64_t payloadBytes = 0;
    deframer.onFrame([&](ppp::Frame got) { payloadBytes += got.info.size(); });
    for (auto _ : state) deframer.feed({wire.data(), wire.size()});
    if (deframer.goodFrames() != std::uint64_t(state.iterations()))
        state.SkipWithError("deframe round-trip mismatch");
    state.SetItemsProcessed(state.iterations());
    state.SetBytesProcessed(std::int64_t(payloadBytes));
    state.SetLabel(profile.name);
}

void BM_HdlcDeframeReference(benchmark::State& state) {
    const WireProfile& profile = kProfiles[std::size_t(state.range(1))];
    const ppp::Frame frame{ppp::Protocol::ip,
                           makePayload(std::size_t(state.range(0)), profile.heavy)};
    const util::Bytes wire = ppp::encodeFrame(frame, configFor(profile));
    DeframerReference deframer;
    for (auto _ : state) deframer.feed({wire.data(), wire.size()});
    if (deframer.good != std::uint64_t(state.iterations()))
        state.SkipWithError("reference deframe round-trip mismatch");
    state.SetItemsProcessed(state.iterations());
    state.SetBytesProcessed(std::int64_t(deframer.payloadBytes));
    state.SetLabel(profile.name);
}

void framedArgs(benchmark::internal::Benchmark* bench) {
    for (const int size : {64, 512, 1500})
        for (int profile = 0; profile < 4; ++profile) bench->Args({size, profile});
}

BENCHMARK(BM_HdlcEncode)->Apply(framedArgs);
BENCHMARK(BM_HdlcEncodeReference)->Apply(framedArgs);
BENCHMARK(BM_HdlcDeframe)->Apply(framedArgs);
BENCHMARK(BM_HdlcDeframeReference)->Apply(framedArgs);

// ---------------------------------------------------------------------------
// Full framed goodput loop: encode into a pooled buffer, hand the
// refcounted slice through a sim::Pipe, deframe at the far end — the
// exact pppd->TTY->pppd byte path, zero-copy between the stages.
// ---------------------------------------------------------------------------

void BM_FramedPipeGoodput(benchmark::State& state) {
    const WireProfile& profile = kProfiles[std::size_t(state.range(1))];
    const ppp::FramerConfig config = configFor(profile);
    const util::Bytes payload = makePayload(std::size_t(state.range(0)), profile.heavy);

    sim::Simulator sim;
    sim::Pipe pipe{sim, sim::millis(1)};
    ppp::Deframer deframer;
    std::uint64_t payloadBytes = 0;
    deframer.onFrame([&](ppp::Frame got) { payloadBytes += got.info.size(); });
    pipe.b().onData([&](util::SharedBytes data) { deframer.feed(data.view()); });

    constexpr int kFramesPerBatch = 4;
    for (auto _ : state) {
        for (int i = 0; i < kFramesPerBatch; ++i) {
            util::Bytes wire = sim.bufferPool().acquire(std::size_t{0});
            ppp::encodeFrameInto(ppp::Protocol::ip, {payload.data(), payload.size()},
                                 config, wire);
            pipe.a().write(sim.bufferPool().share(std::move(wire)));
        }
        sim.run();
    }
    const auto expected = std::uint64_t(state.iterations()) * kFramesPerBatch;
    if (deframer.goodFrames() != expected || deframer.badFrames() != 0)
        state.SkipWithError("framed pipe round-trip mismatch");
    state.SetItemsProcessed(std::int64_t(expected));
    state.SetBytesProcessed(std::int64_t(payloadBytes));
    state.SetLabel(profile.name);
}
BENCHMARK(BM_FramedPipeGoodput)->Args({1500, 0})->Args({1500, 3})->Args({512, 0});

// ---------------------------------------------------------------------------
// Modem TTY scan: every byte pppd writes to the card's TTY passes the AT
// engine's data-mode "+++" watch on its way to the bearer.
// ---------------------------------------------------------------------------

/// The per-byte scan the run-level one replaced, with the engine state
/// it touches (the measurement baseline; tests/modem holds the same
/// loop as the differential oracle).
class EscapeScanReference {
  public:
    explicit EscapeScanReference(sim::Simulator& simulator)
        : sim_(simulator),
          escapeSpamMetric_(obs::Registry::instance().counter("guard.at.escape_spam")) {}

    void scan(util::ByteView data) {
        for (const std::uint8_t byte : data) {
            const sim::SimTime now = sim_.now();
            if (byte == '+') {
                const bool guardOk = plusCount_ > 0 || (now - lastDataByte_) >= kGuardTime;
                plusCount_ = guardOk ? plusCount_ + 1 : 0;
                if (plusCount_ == 0) {
                    if (++rawPlusRun_ >= 3) {
                        escapeSpamMetric_.inc();
                        rawPlusRun_ = 0;
                    }
                } else {
                    rawPlusRun_ = 0;
                }
                if (plusCount_ == 3) {
                    if (escapeTimer_.valid()) sim_.cancel(escapeTimer_);
                    escapeTimer_ = sim_.schedule(kGuardTime, [this] {
                        escapeTimer_ = {};
                        plusCount_ = 0;
                    });
                }
            } else {
                plusCount_ = 0;
                rawPlusRun_ = 0;
                if (escapeTimer_.valid()) {
                    sim_.cancel(escapeTimer_);
                    escapeTimer_ = {};
                }
            }
            lastDataByte_ = now;
        }
    }

  private:
    static constexpr sim::SimTime kGuardTime = sim::millis(1000);
    sim::Simulator& sim_;
    sim::SimTime lastDataByte_{-10'000'000'000};
    int plusCount_ = 0;
    sim::EventHandle escapeTimer_;
    int rawPlusRun_ = 0;
    obs::Counter& escapeSpamMetric_;
};

/// 1500 TTY bytes: an escape-light HDLC frame with any '+' replaced
/// (profile 0), or "+++x" repeated, the '+'-dense spam shape (1).
util::Bytes makeTtyBytes(bool plusDense) {
    constexpr std::size_t kSize = 1500;
    util::Bytes bytes;
    if (plusDense) {
        for (std::size_t i = 0; i < kSize; ++i) bytes.push_back(i % 4 == 3 ? 'x' : '+');
        return bytes;
    }
    bytes = ppp::encodeFrame({ppp::Protocol::ip, makePayload(kSize, false)}, ppp::FramerConfig{});
    bytes.resize(kSize);
    for (auto& byte : bytes)
        if (byte == '+') byte = '-';
    return bytes;
}

/// Host side of the TTY reduced to its handler, so the bench times the
/// engine's data-mode path without a pipe event per chunk.
class DirectTty final : public sim::ByteChannel {
  public:
    void write(const util::SharedBytes&) override {}
    void onData(std::function<void(util::SharedBytes)> handler) override {
        handler_ = std::move(handler);
    }
    std::function<void(util::SharedBytes)> handler_;
};

void BM_AtDataModeScan(benchmark::State& state) {
    sim::Simulator sim;
    DirectTty tty;
    modem::AtEngine engine{sim, "bench"};
    engine.attachTty(tty);
    std::uint64_t forwarded = 0;
    engine.enterDataMode([&forwarded](util::SharedBytes data) { forwarded += data.size(); });
    const util::SharedBytes chunk = sim.bufferPool().acquireShared(makeTtyBytes(state.range(1)));
    for (auto _ : state) {
        tty.handler_(chunk);
        benchmark::DoNotOptimize(forwarded);
    }
    if (forwarded != std::uint64_t(state.iterations()) * chunk.size())
        state.SkipWithError("data-mode bytes not forwarded");
    state.SetItemsProcessed(state.iterations());
    state.SetBytesProcessed(std::int64_t(forwarded));
    state.SetLabel(state.range(1) ? "plus_dense" : "frame_bytes");
}

void BM_AtDataModeScanReference(benchmark::State& state) {
    sim::Simulator sim;
    EscapeScanReference reference{sim};
    const util::Bytes chunk = makeTtyBytes(state.range(1));
    for (auto _ : state) {
        reference.scan({chunk.data(), chunk.size()});
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations());
    state.SetBytesProcessed(std::int64_t(state.iterations()) * std::int64_t(chunk.size()));
    state.SetLabel(state.range(1) ? "plus_dense" : "frame_bytes");
}

BENCHMARK(BM_AtDataModeScan)->Args({1500, 0})->Args({1500, 1});
BENCHMARK(BM_AtDataModeScanReference)->Args({1500, 0})->Args({1500, 1});

// ---------------------------------------------------------------------------
// Codecs on the dial-up link and the IP layer above it.
// ---------------------------------------------------------------------------

void BM_Fcs16(benchmark::State& state) {
    util::Bytes data(std::size_t(state.range(0)));
    for (std::size_t i = 0; i < data.size(); ++i) data[i] = std::uint8_t(i * 31);
    for (auto _ : state) benchmark::DoNotOptimize(ppp::fcs16({data.data(), data.size()}));
    state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Fcs16)->Arg(128)->Arg(1500);

void BM_LzssCompressZeroPadded(benchmark::State& state) {
    // The D-ITG payload shape: small header + zero padding.
    util::Bytes data(1024, 0);
    for (int i = 0; i < 17; ++i) data[std::size_t(i)] = std::uint8_t(i * 7);
    for (auto _ : state) {
        const util::Bytes compressed = ppp::LzssCodec::compress({data.data(), data.size()});
        benchmark::DoNotOptimize(compressed.size());
    }
    state.SetBytesProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_LzssCompressZeroPadded);

void BM_LzssRoundTripRandom(benchmark::State& state) {
    util::RandomStream rng{2};
    util::Bytes data(1024);
    for (auto& byte : data) byte = std::uint8_t(rng.uniformInt(0, 255));
    for (auto _ : state) {
        const util::Bytes compressed = ppp::LzssCodec::compress({data.data(), data.size()});
        const auto plain = ppp::LzssCodec::decompress({compressed.data(), compressed.size()});
        benchmark::DoNotOptimize(plain.ok());
    }
    state.SetBytesProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_LzssRoundTripRandom);

void BM_Md5(benchmark::State& state) {
    util::Bytes data(std::size_t(state.range(0)), 0x5a);
    for (auto _ : state)
        benchmark::DoNotOptimize(util::Md5::hash({data.data(), data.size()}));
    state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Md5)->Arg(64)->Arg(4096);

void BM_PacketSerializeParse(benchmark::State& state) {
    const net::Packet pkt = net::makeUdpPacket(net::Ipv4Address{10, 0, 0, 1}, 5000,
                                               net::Ipv4Address{10, 0, 0, 2}, 9001,
                                               util::Bytes(std::size_t(state.range(0)), 0));
    for (auto _ : state) {
        const util::Bytes wire = pkt.serialize();
        const auto parsed = net::Packet::parse({wire.data(), wire.size()});
        benchmark::DoNotOptimize(parsed.ok());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PacketSerializeParse)->Arg(90)->Arg(1024);

// ---------------------------------------------------------------------------
// Differential self-check, run before any benchmark: the fast framer
// must agree with the reference byte-for-byte across the benched
// profiles. Failure exits non-zero, so the CI smoke run gates on it.
// ---------------------------------------------------------------------------

bool selfCheck() {
    for (const WireProfile& profile : kProfiles) {
        const ppp::FramerConfig config = configFor(profile);
        for (const std::size_t size : {std::size_t{0}, std::size_t{1}, std::size_t{64},
                                       std::size_t{512}, std::size_t{1500}}) {
            const ppp::Frame frame{ppp::Protocol::ip, makePayload(size, profile.heavy)};
            const util::Bytes fast = ppp::encodeFrame(frame, config);
            const util::Bytes reference = encodeFrameReference(frame, config);
            if (fast != reference) {
                std::fprintf(stderr, "self-check: encode mismatch (%s, %zu bytes)\n",
                             profile.name, size);
                return false;
            }
            ppp::Deframer deframer;
            util::Bytes decoded;
            deframer.onFrame([&](ppp::Frame got) { decoded = std::move(got.info); });
            deframer.feed({fast.data(), fast.size()});
            if (deframer.goodFrames() != 1 || decoded != frame.info) {
                std::fprintf(stderr, "self-check: round-trip mismatch (%s, %zu bytes)\n",
                             profile.name, size);
                return false;
            }
        }
    }
    return true;
}

// ---------------------------------------------------------------------------
// --json reporting
// ---------------------------------------------------------------------------

double ratio(double fast, double reference) {
    return reference > 0.0 ? fast / reference : 0.0;
}

void writeSummary(std::ostream& out, const bench::MicroRuns& runs) {
    using bench::throughputFor;
    // Headline: 1500-byte escape-light frames (the steady-state MTU
    // shape of the paper's CBR experiments), fast vs reference, for
    // encode, deframe, and the two stages combined; then the
    // escape-heavy encode and deframe, and the modem's TTY scan over
    // escape-free frame bytes.
    const double encodeFast = throughputFor(runs, "BM_HdlcEncode/1500/0");
    const double encodeRef = throughputFor(runs, "BM_HdlcEncodeReference/1500/0");
    const double deframeFast = throughputFor(runs, "BM_HdlcDeframe/1500/0");
    const double deframeRef = throughputFor(runs, "BM_HdlcDeframeReference/1500/0");
    const double heavyEncodeFast = throughputFor(runs, "BM_HdlcEncode/1500/3");
    const double heavyEncodeRef = throughputFor(runs, "BM_HdlcEncodeReference/1500/3");
    const double heavyDeframeFast = throughputFor(runs, "BM_HdlcDeframe/1500/3");
    const double heavyDeframeRef = throughputFor(runs, "BM_HdlcDeframeReference/1500/3");
    const double scanFast = throughputFor(runs, "BM_AtDataModeScan/1500/0");
    const double scanRef = throughputFor(runs, "BM_AtDataModeScanReference/1500/0");
    // Frames/s of one encode+deframe stage pair (series composition:
    // rates combine like resistors in parallel).
    const double pairFast = (encodeFast > 0.0 && deframeFast > 0.0)
                                ? 1.0 / (1.0 / encodeFast + 1.0 / deframeFast)
                                : 0.0;
    const double pairRef = (encodeRef > 0.0 && deframeRef > 0.0)
                               ? 1.0 / (1.0 / encodeRef + 1.0 / deframeRef)
                               : 0.0;

    out << ",\"speedup\":{";
    out << "\"encode_1500_light_vs_reference\":"
        << onelab::util::format("%.2f", ratio(encodeFast, encodeRef));
    out << ",\"deframe_1500_light_vs_reference\":"
        << onelab::util::format("%.2f", ratio(deframeFast, deframeRef));
    out << ",\"encode_deframe_1500_light_vs_reference\":"
        << onelab::util::format("%.2f", ratio(pairFast, pairRef));
    out << ",\"encode_1500_heavy_vs_reference\":"
        << onelab::util::format("%.2f", ratio(heavyEncodeFast, heavyEncodeRef));
    out << ",\"deframe_1500_heavy_vs_reference\":"
        << onelab::util::format("%.2f", ratio(heavyDeframeFast, heavyDeframeRef));
    out << ",\"at_scan_1500_vs_reference\":"
        << onelab::util::format("%.2f", ratio(scanFast, scanRef));
    out << '}';
}

}  // namespace

int main(int argc, char** argv) {
    if (!selfCheck()) return 1;
    return onelab::bench::runMicrobench(argc, argv, "micro_datapath", "BENCH_datapath.json",
                                        writeSummary);
}
