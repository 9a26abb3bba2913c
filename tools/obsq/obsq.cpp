// obsq — post-mortem query tool over the observability artefacts a run
// leaves behind: trace.json (Chrome spans), metrics.json (registry
// snapshot), flight.json (flight-recorder dump) and profile.json
// (self-time profile). Pure reader: it never mutates run output.
//
// Usage:
//   obsq trace   <trace.json>  [filters]     span/event table
//   obsq flight  <flight.json> [filters]     flight-recorder table
//   obsq metrics <metrics.json> [filters]    metric snapshot table
//   obsq top     <profile.json|trace.json> [-n N]
//   obsq diff    <runA> <runB>               run dirs or trace files
//   obsq merge   <trace.json...>             merged trace on stdout
//                (one tid lane per input)
//   obsq --self-check
//
// Filters: --cat S --name S --kind S --imsi S --from SEC --to SEC
//          --limit N --tail N

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "obs/query.hpp"
#include "util/json.hpp"

namespace {

using onelab::obs::query::Filter;
using onelab::util::JsonValue;

int usage(std::FILE* out) {
    std::fputs(
        "usage: obsq <trace|flight|metrics|top|diff|merge> <file...> [options]\n"
        "       obsq --self-check\n"
        "options:\n"
        "  --cat S     substring match on category\n"
        "  --name S    substring match on name (metrics: prefix)\n"
        "  --kind S    flight entry kind (log/span_begin/span_end/event/\n"
        "              transition/metric)\n"
        "  --imsi S    match S against category, name and detail\n"
        "  --from SEC  sim-time window lower bound, seconds\n"
        "  --to SEC    sim-time window upper bound, seconds\n"
        "  --limit N   print at most N rows\n"
        "  --tail N    keep only the newest N rows\n"
        "  -n N        top: table depth (default 10)\n",
        out);
    return out == stdout ? 0 : 2;
}

bool loadDoc(const std::string& path, JsonValue& out) {
    auto parsed = JsonValue::parseFile(path);
    if (!parsed.ok()) {
        std::fprintf(stderr, "obsq: %s: %s\n", path.c_str(),
                     parsed.error().message.c_str());
        return false;
    }
    out = std::move(parsed).take();
    return true;
}

/// diff operand: a run export directory (containing trace.json /
/// metrics.json) or a single trace file.
struct RunDocs {
    JsonValue trace;
    JsonValue metrics;
    bool hasTrace = false;
    bool hasMetrics = false;
};

bool loadRun(const std::string& operand, RunDocs& out) {
    namespace fs = std::filesystem;
    if (fs::is_directory(operand)) {
        const std::string tracePath = operand + "/trace.json";
        const std::string metricsPath = operand + "/metrics.json";
        if (fs::exists(tracePath)) out.hasTrace = loadDoc(tracePath, out.trace);
        if (fs::exists(metricsPath)) out.hasMetrics = loadDoc(metricsPath, out.metrics);
        if (!out.hasTrace && !out.hasMetrics) {
            std::fprintf(stderr, "obsq: %s: no trace.json or metrics.json\n",
                         operand.c_str());
            return false;
        }
        return true;
    }
    out.hasTrace = loadDoc(operand, out.trace);
    return out.hasTrace;
}

}  // namespace

int main(int argc, char** argv) {
    std::vector<std::string> args(argv + 1, argv + argc);
    if (args.empty()) return usage(stderr);
    if (args[0] == "--help" || args[0] == "-h") return usage(stdout);
    if (args[0] == "--self-check") {
        const std::string failure = onelab::obs::query::selfCheck();
        if (failure.empty()) {
            std::puts("obsq self-check: ok");
            return 0;
        }
        std::fprintf(stderr, "obsq self-check FAILED: %s\n", failure.c_str());
        return 1;
    }

    const std::string command = args[0];
    Filter filter;
    std::size_t topN = 10;
    std::vector<std::string> files;
    for (std::size_t i = 1; i < args.size(); ++i) {
        const std::string& arg = args[i];
        const auto needValue = [&](const char* flag) -> const std::string* {
            if (i + 1 >= args.size()) {
                std::fprintf(stderr, "obsq: %s needs a value\n", flag);
                return nullptr;
            }
            return &args[++i];
        };
        if (arg == "--cat") {
            const auto* v = needValue("--cat");
            if (!v) return 2;
            filter.category = *v;
        } else if (arg == "--name") {
            const auto* v = needValue("--name");
            if (!v) return 2;
            filter.name = *v;
        } else if (arg == "--kind") {
            const auto* v = needValue("--kind");
            if (!v) return 2;
            filter.kind = *v;
        } else if (arg == "--imsi") {
            const auto* v = needValue("--imsi");
            if (!v) return 2;
            filter.imsi = *v;
        } else if (arg == "--from") {
            const auto* v = needValue("--from");
            if (!v) return 2;
            filter.fromSeconds = std::strtod(v->c_str(), nullptr);
        } else if (arg == "--to") {
            const auto* v = needValue("--to");
            if (!v) return 2;
            filter.toSeconds = std::strtod(v->c_str(), nullptr);
        } else if (arg == "--limit") {
            const auto* v = needValue("--limit");
            if (!v) return 2;
            filter.limit = std::size_t(std::strtoul(v->c_str(), nullptr, 10));
        } else if (arg == "--tail") {
            const auto* v = needValue("--tail");
            if (!v) return 2;
            filter.tail = std::size_t(std::strtoul(v->c_str(), nullptr, 10));
        } else if (arg == "-n") {
            const auto* v = needValue("-n");
            if (!v) return 2;
            topN = std::size_t(std::strtoul(v->c_str(), nullptr, 10));
        } else if (!arg.empty() && arg[0] == '-') {
            std::fprintf(stderr, "obsq: unknown option %s\n", arg.c_str());
            return 2;
        } else {
            files.push_back(arg);
        }
    }

    if (command == "trace" || command == "flight" || command == "metrics" ||
        command == "top") {
        if (files.size() != 1) {
            std::fprintf(stderr, "obsq %s: expected exactly one file\n",
                         command.c_str());
            return 2;
        }
        JsonValue doc;
        if (!loadDoc(files[0], doc)) return 1;
        std::string out;
        if (command == "trace")
            out = onelab::obs::query::formatTrace(doc, filter);
        else if (command == "flight")
            out = onelab::obs::query::formatFlight(doc, filter);
        else if (command == "metrics")
            out = onelab::obs::query::formatMetrics(doc, filter);
        else
            out = onelab::obs::query::formatTopSelf(doc, topN);
        std::fputs(out.c_str(), stdout);
        return 0;
    }

    if (command == "diff") {
        if (files.size() != 2) {
            std::fputs("obsq diff: expected two run dirs or trace files\n", stderr);
            return 2;
        }
        RunDocs a, b;
        if (!loadRun(files[0], a) || !loadRun(files[1], b)) return 1;
        const std::string out = onelab::obs::query::formatDiff(
            a.hasTrace ? &a.trace : nullptr, b.hasTrace ? &b.trace : nullptr,
            a.hasMetrics ? &a.metrics : nullptr,
            b.hasMetrics ? &b.metrics : nullptr);
        std::fputs(out.c_str(), stdout);
        return 0;
    }

    if (command == "merge") {
        if (files.empty()) {
            std::fputs("obsq merge: expected at least one trace file\n", stderr);
            return 2;
        }
        std::vector<JsonValue> docs;
        docs.reserve(files.size());
        for (const std::string& path : files) {
            JsonValue doc;
            if (!loadDoc(path, doc)) return 1;
            docs.push_back(std::move(doc));
        }
        std::fputs(onelab::obs::query::mergeTraces(docs).c_str(), stdout);
        return 0;
    }

    std::fprintf(stderr, "obsq: unknown command '%s'\n", command.c_str());
    return usage(stderr);
}
