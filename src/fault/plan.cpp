#include "fault/plan.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "util/json.hpp"
#include "util/rand.hpp"

namespace onelab::fault {

namespace {

constexpr const char* kKindNames[kFaultKindCount] = {
    "bearer_drop",    "ue_detach", "coverage_outage", "cell_squeeze",
    "rlc_outage",     "rlc_loss_burst", "modem_reset", "at_error",
    "serial_corrupt", "serial_stall",   "lcp_renegotiate",
};

}  // namespace

const char* kindName(FaultKind kind) noexcept {
    const auto index = std::size_t(kind);
    return index < kFaultKindCount ? kKindNames[index] : "unknown";
}

std::optional<FaultKind> kindFromName(std::string_view name) noexcept {
    for (std::size_t i = 0; i < kFaultKindCount; ++i)
        if (name == kKindNames[i]) return FaultKind(i);
    return std::nullopt;
}

void FaultPlan::add(FaultEvent event) {
    events_.push_back(event);
    std::stable_sort(events_.begin(), events_.end(),
                     [](const FaultEvent& a, const FaultEvent& b) { return a.at < b.at; });
}

// ------------------------------------------------------ random plans

FaultPlan FaultPlan::random(const RandomPlanConfig& config) {
    FaultPlan plan;
    util::RandomStream rng{config.seed};
    util::RandomStream gaps = rng.derive("gaps");
    util::RandomStream kinds = rng.derive("kinds");
    util::RandomStream params = rng.derive("params");

    double totalWeight = 0.0;
    for (const double w : config.weights) totalWeight += w;
    if (totalWeight <= 0.0 || config.siteCount == 0) return plan;

    const double meanGapSeconds = sim::toSeconds(config.meanGap);
    sim::SimTime at = config.start;
    while (true) {
        at += sim::seconds(gaps.exponential(meanGapSeconds));
        if (at >= config.horizon) break;

        // Weighted kind pick.
        double pick = kinds.uniform01() * totalWeight;
        std::size_t kindIndex = 0;
        for (; kindIndex + 1 < kFaultKindCount; ++kindIndex) {
            pick -= config.weights[kindIndex];
            if (pick < 0.0) break;
        }

        FaultEvent event;
        event.at = at;
        event.kind = FaultKind(kindIndex);
        event.site = int(params.uniformInt(0, std::int64_t(config.siteCount) - 1));
        switch (event.kind) {
            case FaultKind::bearer_drop:
            case FaultKind::ue_detach:
            case FaultKind::modem_reset:
            case FaultKind::lcp_renegotiate:
                break;
            case FaultKind::coverage_outage:
                event.duration = sim::seconds(params.uniform(2.0, 10.0));
                break;
            case FaultKind::cell_squeeze:
                event.magnitude = params.uniform(0.3, 0.8);
                event.duration = sim::seconds(params.uniform(5.0, 30.0));
                break;
            case FaultKind::rlc_outage:
                event.duration = sim::seconds(params.uniform(0.5, 3.0));
                break;
            case FaultKind::rlc_loss_burst:
                event.magnitude = params.uniform(0.05, 0.3);
                event.duration = sim::seconds(params.uniform(2.0, 10.0));
                break;
            case FaultKind::at_error:
                event.magnitude = double(params.uniformInt(1, 3));
                break;
            case FaultKind::serial_corrupt:
                event.magnitude = params.uniform(1e-4, 1e-3);
                event.duration = sim::seconds(params.uniform(1.0, 5.0));
                break;
            case FaultKind::serial_stall:
                event.duration = sim::seconds(params.uniform(0.1, 1.0));
                break;
        }
        plan.add(event);
    }
    return plan;
}

// ------------------------------------------------------------- JSON

std::string FaultPlan::toJson() const {
    std::string out = "{\n  \"events\": [";
    for (std::size_t i = 0; i < events_.size(); ++i) {
        const FaultEvent& event = events_[i];
        out += i == 0 ? "\n" : ",\n";
        out += "    {\"at_ms\": ";
        util::appendJsonNumber(out, sim::toMillis(event.at));
        out += ", \"kind\": \"";
        out += kindName(event.kind);
        out += "\", \"site\": ";
        util::appendJsonNumber(out, double(event.site));
        out += ", \"magnitude\": ";
        util::appendJsonNumber(out, event.magnitude);
        out += ", \"duration_ms\": ";
        util::appendJsonNumber(out, sim::toMillis(event.duration));
        out += "}";
    }
    out += events_.empty() ? "]\n}\n" : "\n  ]\n}\n";
    return out;
}

util::Result<FaultPlan> FaultPlan::parseJson(const std::string& text) {
    const auto fail = [](const std::string& what) {
        return util::Result<FaultPlan>{
            util::err(util::Error::Code::protocol, "fault plan: " + what)};
    };

    // The strict parser rejects truncation, trailing content and
    // repeated keys: a hostile plan repeating "events" or an event
    // field would otherwise arm a timeline other than the one it shows.
    const auto doc = util::JsonValue::parse(text);
    if (!doc.ok()) return fail(doc.error().message);
    if (!doc.value().isObject()) return fail("expected top-level object");
    FaultPlan plan;
    for (const auto& [key, events] : doc.value().members()) {
        if (key != "events") return fail("unknown key \"" + key + "\"");
        if (!events.isArray()) return fail("\"events\" must be an array");
        for (const util::JsonValue& item : events.array()) {
            if (!item.isObject()) return fail("event must be an object");
            FaultEvent event;
            bool haveKind = false;
            for (const auto& [field, value] : item.members()) {
                if (field == "kind") {
                    if (!value.isString()) return fail("\"kind\" must be a string");
                    const auto kind = kindFromName(value.string());
                    if (!kind) return fail("unknown fault kind \"" + value.string() + "\"");
                    event.kind = *kind;
                    haveKind = true;
                    continue;
                }
                if (!value.isNumber()) return fail("\"" + field + "\" must be a number");
                if (field == "at_ms")
                    event.at = sim::millis(value.number());
                else if (field == "site")
                    event.site = int(value.number());
                else if (field == "magnitude")
                    event.magnitude = value.number();
                else if (field == "duration_ms")
                    event.duration = sim::millis(value.number());
                else
                    return fail("unknown event field \"" + field + "\"");
            }
            if (!haveKind) return fail("event missing \"kind\"");
            if (event.at < sim::SimTime{0}) return fail("negative \"at_ms\"");
            plan.add(event);
        }
    }
    return util::Result<FaultPlan>{std::move(plan)};
}

util::Result<void> FaultPlan::saveFile(const std::string& path) const {
    std::ofstream out{path};
    if (!out) return util::err(util::Error::Code::io, "cannot write " + path);
    out << toJson();
    return out.good() ? util::Result<void>{}
                      : util::err(util::Error::Code::io, "short write to " + path);
}

util::Result<FaultPlan> FaultPlan::loadFile(const std::string& path) {
    std::ifstream in{path};
    if (!in)
        return util::Result<FaultPlan>{
            util::err(util::Error::Code::not_found, "cannot read " + path)};
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return parseJson(buffer.str());
}

}  // namespace onelab::fault
