#include "obs/query.hpp"

#include <algorithm>
#include <map>

#include "util/strings.hpp"
#include "util/table.hpp"

namespace onelab::obs::query {

namespace {

using util::JsonValue;

bool containsSubstr(const std::string& haystack, const std::string& needle) {
    return needle.empty() || haystack.find(needle) != std::string::npos;
}

/// The IMSI filter matches identity wherever a layer put it.
bool matchesImsi(const std::string& imsi, const std::string& category,
                 const std::string& name, const std::string& detail) {
    return imsi.empty() || containsSubstr(category, imsi) ||
           containsSubstr(name, imsi) || containsSubstr(detail, imsi);
}

std::string traceDetail(const JsonValue& event) {
    const JsonValue* args = event.find("args");
    return args ? args->stringOr("detail", "") : "";
}

template <typename Row>
void applyTail(std::vector<Row>& rows, std::size_t tail) {
    if (tail > 0 && rows.size() > tail)
        rows.erase(rows.begin(), rows.end() - long(tail));
}

std::string metricValue(const JsonValue& metric) {
    const std::string type = metric.stringOr("type", "");
    if (type == "histogram") {
        std::string out = "count=";
        out += util::format("%.0f", metric.numberOr("count", 0.0));
        out += " sum=" + util::format("%.6f", metric.numberOr("sum", 0.0));
        return out;
    }
    return util::format("%.0f", metric.numberOr("value", 0.0));
}

}  // namespace

std::string formatTrace(const JsonValue& doc, const Filter& filter) {
    const JsonValue* events = doc.find("traceEvents");
    if (!events || !events->isArray()) return "error: not a trace.json document\n";

    std::vector<std::vector<std::string>> rows;
    for (const JsonValue& event : events->array()) {
        const std::string category = event.stringOr("cat", "");
        const std::string name = event.stringOr("name", "");
        const std::string detail = traceDetail(event);
        const double tSeconds = event.numberOr("ts", 0.0) / 1e6;
        if (!containsSubstr(category, filter.category)) continue;
        if (!containsSubstr(name, filter.name)) continue;
        if (!matchesImsi(filter.imsi, category, name, detail)) continue;
        if (filter.fromSeconds && tSeconds < *filter.fromSeconds) continue;
        if (filter.toSeconds && tSeconds > *filter.toSeconds) continue;
        rows.push_back({util::format("%.3f", tSeconds * 1e3),
                        event.stringOr("ph", "?"),
                        util::format("%.0f", event.numberOr("tid", 0.0)), category, name,
                        detail});
        if (filter.limit > 0 && filter.tail == 0 && rows.size() >= filter.limit) break;
    }
    applyTail(rows, filter.tail);

    util::Table table({"t_ms", "ph", "tid", "category", "name", "detail"});
    for (auto& row : rows) table.addRow(std::move(row));
    return table.render() + util::format("%zu event(s)\n", table.rowCount());
}

std::string formatFlight(const JsonValue& doc, const Filter& filter) {
    const JsonValue* entries = doc.find("entries");
    if (!entries || !entries->isArray()) return "error: not a flight.json dump\n";

    std::vector<std::vector<std::string>> rows;
    for (const JsonValue& entry : entries->array()) {
        const std::string kind = entry.stringOr("kind", "");
        const std::string category = entry.stringOr("cat", "");
        const std::string name = entry.stringOr("name", "");
        const std::string detail = entry.stringOr("detail", "");
        const double tSeconds = entry.numberOr("t_ns", 0.0) / 1e9;
        if (!containsSubstr(kind, filter.kind)) continue;
        if (!containsSubstr(name, filter.name)) continue;
        if (!containsSubstr(category, filter.category)) continue;
        if (!matchesImsi(filter.imsi, category, name, detail)) continue;
        if (filter.fromSeconds && tSeconds < *filter.fromSeconds) continue;
        if (filter.toSeconds && tSeconds > *filter.toSeconds) continue;
        const double value = entry.numberOr("value", 0.0);
        rows.push_back({util::format("%.3f", tSeconds * 1e3), kind, category, name, detail,
                        value == 0.0 ? "" : util::format("%.0f", value)});
    }
    applyTail(rows, filter.tail);

    util::Table table({"t_ms", "kind", "category", "name", "detail", "value"});
    for (auto& row : rows) table.addRow(std::move(row));
    std::string out = table.render();
    out += util::format("%zu entry(ies), %.0f overwritten before the dump\n",
                        table.rowCount(), doc.numberOr("dropped", 0.0));
    const std::string reason = doc.stringOr("reason", "");
    if (!reason.empty()) out += "dump reason: " + reason + "\n";
    return out;
}

std::string formatMetrics(const JsonValue& doc, const Filter& filter) {
    const JsonValue* metrics = doc.find("metrics");
    if (!metrics || !metrics->isArray()) return "error: not a metrics.json snapshot\n";

    util::Table table({"metric", "type", "value"});
    for (const JsonValue& metric : metrics->array()) {
        const std::string name = metric.stringOr("name", "");
        if (!filter.name.empty() && !util::startsWith(name, filter.name)) continue;
        if (!matchesImsi(filter.imsi, name, name, "")) continue;
        table.addRow({name, metric.stringOr("type", "?"), metricValue(metric)});
        if (filter.limit > 0 && table.rowCount() >= filter.limit) break;
    }
    return table.render() + util::format("%zu metric(s)\n", table.rowCount());
}

std::string formatTopSelf(const JsonValue& doc, std::size_t topN) {
    struct Bucket {
        std::uint64_t count = 0;
        double selfUs = 0.0;
    };
    std::map<std::string, Bucket> buckets;

    if (const JsonValue* categories = doc.find("categories");
        categories && categories->isArray()) {
        // profile.json: categories carry self_ns directly.
        for (const JsonValue& category : categories->array()) {
            Bucket& bucket = buckets[category.stringOr("name", "?")];
            bucket.count += std::uint64_t(category.numberOr("count", 0.0));
            bucket.selfUs += category.numberOr("self_ns", 0.0) / 1e3;
        }
    } else if (const JsonValue* events = doc.find("traceEvents");
               events && events->isArray()) {
        // trace.json: recover self-time from span nesting, per tid.
        struct Open {
            std::string key;
            double startUs = 0.0;
            double childUs = 0.0;
        };
        std::map<int, std::vector<Open>> stacks;
        for (const JsonValue& event : events->array()) {
            const std::string ph = event.stringOr("ph", "");
            const int tid = int(event.numberOr("tid", 0.0));
            const double ts = event.numberOr("ts", 0.0);
            const std::string key =
                event.stringOr("cat", "?") + "." + event.stringOr("name", "?");
            auto& stack = stacks[tid];
            if (ph == "B") {
                stack.push_back({key, ts, 0.0});
            } else if (ph == "E" && !stack.empty()) {
                const Open open = stack.back();
                stack.pop_back();
                const double total = ts - open.startUs;
                Bucket& bucket = buckets[open.key];
                ++bucket.count;
                bucket.selfUs += total - open.childUs;
                if (!stack.empty()) stack.back().childUs += total;
            } else if (ph == "i") {
                ++buckets[key].count;
            }
        }
    } else {
        return "error: need a profile.json or trace.json document\n";
    }

    std::vector<std::pair<std::string, Bucket>> sorted{buckets.begin(), buckets.end()};
    std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
        if (a.second.selfUs != b.second.selfUs) return a.second.selfUs > b.second.selfUs;
        return a.first < b.first;
    });
    if (topN > 0 && sorted.size() > topN) sorted.resize(topN);

    double totalUs = 0.0;
    for (const auto& [key, bucket] : buckets) totalUs += bucket.selfUs;

    util::Table table({"category", "count", "self_ms", "share"});
    for (const auto& [key, bucket] : sorted)
        table.addRow({key, std::to_string(bucket.count),
                      util::format("%.3f", bucket.selfUs / 1e3),
                      util::format("%.1f%%", totalUs > 0.0
                                                 ? 100.0 * bucket.selfUs / totalUs
                                                 : 0.0)});
    return table.render() +
           util::format("total self time %.3f ms across %zu categories\n", totalUs / 1e3,
                        buckets.size());
}

namespace {

std::map<std::string, std::string> metricsByName(const JsonValue* doc) {
    std::map<std::string, std::string> out;
    if (!doc) return out;
    const JsonValue* metrics = doc->find("metrics");
    if (!metrics || !metrics->isArray()) return out;
    for (const JsonValue& metric : metrics->array())
        out[metric.stringOr("name", "?")] = metricValue(metric);
    return out;
}

std::string traceEventKey(const JsonValue& event) {
    return event.stringOr("ph", "?") + " " + event.stringOr("cat", "?") + "." +
           event.stringOr("name", "?") + " @" +
           util::format("%.3f", event.numberOr("ts", 0.0));
}

}  // namespace

std::string formatDiff(const JsonValue* traceA, const JsonValue* traceB,
                       const JsonValue* metricsA, const JsonValue* metricsB) {
    std::string out;

    if (traceA && traceB) {
        const JsonValue* eventsA = traceA->find("traceEvents");
        const JsonValue* eventsB = traceB->find("traceEvents");
        if (eventsA && eventsA->isArray() && eventsB && eventsB->isArray()) {
            const auto& a = eventsA->array();
            const auto& b = eventsB->array();
            // Per-category counts side by side.
            std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> counts;
            for (const JsonValue& event : a) ++counts[event.stringOr("cat", "?")].first;
            for (const JsonValue& event : b) ++counts[event.stringOr("cat", "?")].second;
            util::Table table({"category", "run A", "run B", "delta"});
            for (const auto& [category, pair] : counts) {
                const auto [countA, countB] = pair;
                if (countA == countB) continue;
                table.addRow({category, std::to_string(countA), std::to_string(countB),
                              util::format("%+lld", static_cast<long long>(countB) -
                                                        static_cast<long long>(countA))});
            }
            out += "trace timeline: " + std::to_string(a.size()) + " vs " +
                   std::to_string(b.size()) + " events\n";
            if (table.rowCount() > 0)
                out += table.render();
            else
                out += "per-category counts identical\n";
            // First diverging event.
            const std::size_t shared = std::min(a.size(), b.size());
            std::size_t divergence = shared;
            for (std::size_t i = 0; i < shared; ++i) {
                if (traceEventKey(a[i]) != traceEventKey(b[i])) {
                    divergence = i;
                    break;
                }
            }
            if (divergence < shared)
                out += "first divergence at event " + std::to_string(divergence) +
                       ":\n  A: " + traceEventKey(a[divergence]) +
                       "\n  B: " + traceEventKey(b[divergence]) + "\n";
            else if (a.size() != b.size())
                out += "timelines identical until the shorter run ends at event " +
                       std::to_string(shared) + "\n";
            else
                out += "timelines identical\n";
        }
    }

    const auto byNameA = metricsByName(metricsA);
    const auto byNameB = metricsByName(metricsB);
    if (!byNameA.empty() || !byNameB.empty()) {
        util::Table table({"metric", "run A", "run B"});
        for (const auto& [name, valueA] : byNameA) {
            const auto it = byNameB.find(name);
            const std::string valueB = it == byNameB.end() ? "(absent)" : it->second;
            if (valueB != valueA) table.addRow({name, valueA, valueB});
        }
        for (const auto& [name, valueB] : byNameB)
            if (!byNameA.count(name)) table.addRow({name, "(absent)", valueB});
        out += "metrics: " + std::to_string(table.rowCount()) + " differ\n";
        if (table.rowCount() > 0) out += table.render();
    }

    if (out.empty()) out = "nothing to diff (no readable documents)\n";
    return out;
}

std::string mergeTraces(const std::vector<JsonValue>& docs) {
    JsonValue merged = JsonValue::makeObject();
    JsonValue events = JsonValue::makeArray();
    for (std::size_t lane = 0; lane < docs.size(); ++lane) {
        const JsonValue* input = docs[lane].find("traceEvents");
        if (!input || !input->isArray()) continue;
        for (const JsonValue& event : input->array()) {
            JsonValue copy = event;
            copy.set("tid", JsonValue::makeNumber(double(lane + 1)));
            events.append(std::move(copy));
        }
    }
    merged.set("traceEvents", std::move(events));
    return merged.serialize() + "\n";
}

std::string selfCheck() {
    const char* kTrace =
        R"json({"traceEvents":[
            {"name":"incident","cat":"supervise","ph":"B","ts":1000.0,"pid":1,"tid":1},
            {"name":"redial","cat":"supervise","ph":"i","ts":1500.0,"pid":1,"tid":1,
             "args":{"detail":"attempt 1"}},
            {"name":"incident","cat":"supervise","ph":"E","ts":4000.0,"pid":1,"tid":1},
            {"name":"grant_wait","cat":"umts.bearer","ph":"B","ts":5000.0,"pid":1,"tid":1},
            {"name":"grant_wait","cat":"umts.bearer","ph":"E","ts":5600.0,"pid":1,"tid":1}
        ]})json";
    const char* kFlight =
        R"json({"reason":"self-check","dropped":2,"entries":[
            {"kind":"transition","t_ns":1000000,"cat":"supervise","name":"208930000000001",
             "detail":"healthy -> recovering"},
            {"kind":"event","t_ns":2000000,"cat":"fault","name":"coverage_outage","value":1},
            {"kind":"log","t_ns":3000000,"cat":"log","name":"supervise.208930000000001",
             "detail":"ladder: redial (attempt 1/6)"}
        ]})json";
    const char* kMetrics =
        R"json({"metrics":[
            {"name":"supervise.incidents","type":"counter","value":3},
            {"name":"umts.bearer.208930000000001.ul.chunks_in","type":"counter","value":42},
            {"name":"supervise.recovery_latency_seconds","type":"histogram","count":2,
             "sum":12.5,"buckets":[{"le":0.25,"count":0},{"le":"inf","count":2}]}
        ]})json";
    const char* kProfile =
        R"json({"enabled":true,"window_ns":1000000,"attributed_ns":990000,
            "attributed_fraction":0.99,"dropped_scopes":0,"categories":[
            {"name":"sim.run","count":1,"self_ns":400000,"fraction":0.40},
            {"name":"sim.pipe","count":10,"self_ns":590000,"fraction":0.59}]})json";

    const auto expect = [](const std::string& what, const std::string& haystack,
                           const std::string& needle) -> std::string {
        if (haystack.find(needle) != std::string::npos) return {};
        return what + ": missing \"" + needle + "\" in output:\n" + haystack;
    };

    const auto trace = util::JsonValue::parse(kTrace);
    const auto flight = util::JsonValue::parse(kFlight);
    const auto metrics = util::JsonValue::parse(kMetrics);
    const auto profile = util::JsonValue::parse(kProfile);
    if (!trace.ok()) return "trace sample: " + trace.error().message;
    if (!flight.ok()) return "flight sample: " + flight.error().message;
    if (!metrics.ok()) return "metrics sample: " + metrics.error().message;
    if (!profile.ok()) return "profile sample: " + profile.error().message;

    Filter all;
    std::string problem;
    if (!(problem = expect("trace", formatTrace(trace.value(), all), "redial")).empty())
        return problem;
    Filter imsi;
    imsi.imsi = "208930000000001";
    const std::string flightOut = formatFlight(flight.value(), imsi);
    if (!(problem = expect("flight imsi filter", flightOut, "healthy -> recovering"))
             .empty())
        return problem;
    if (flightOut.find("coverage_outage") != std::string::npos)
        return "flight imsi filter kept an unrelated entry:\n" + flightOut;
    if (!(problem = expect("metrics", formatMetrics(metrics.value(), all),
                           "supervise.incidents"))
             .empty())
        return problem;
    if (!(problem = expect("top(profile)", formatTopSelf(profile.value(), 5), "sim.pipe"))
             .empty())
        return problem;
    if (!(problem =
              expect("top(trace)", formatTopSelf(trace.value(), 5), "supervise.incident"))
             .empty())
        return problem;
    if (!(problem = expect("diff", formatDiff(&trace.value(), &trace.value(),
                                              &metrics.value(), &metrics.value()),
                           "timelines identical"))
             .empty())
        return problem;
    const auto mergedDoc = util::JsonValue::parse(
        mergeTraces({trace.value(), trace.value()}));
    if (!mergedDoc.ok()) return "merge round-trip: " + mergedDoc.error().message;
    const util::JsonValue* mergedEvents = mergedDoc.value().find("traceEvents");
    if (!mergedEvents || mergedEvents->array().size() != 10)
        return "merge: expected 10 events across 2 lanes";
    return {};
}

}  // namespace onelab::obs::query
