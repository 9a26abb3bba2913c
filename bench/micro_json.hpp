#pragma once

// The `--json [path]` summary shared by the microbenchmark binaries
// (micro_simcore, micro_datapath): console output as usual, plus a
// machine-readable file of the form
//
//   {"benchmark":"<name>","results":[{"name":...,"real_time_ns":...,
//    "items_per_second":...,"bytes_per_second":...},...]<tail>}
//
// where each binary writes its own <tail> (its speedup ratios and any
// further blocks) from the collected runs.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "util/strings.hpp"

namespace onelab::bench {

using MicroRuns = std::vector<benchmark::BenchmarkReporter::Run>;

/// Console output as usual, plus a copy of every per-iteration run for
/// the JSON summary.
class CollectingReporter final : public benchmark::ConsoleReporter {
  public:
    void ReportRuns(const std::vector<Run>& runs) override {
        for (const Run& run : runs)
            if (run.run_type == Run::RT_Iteration && !run.error_occurred)
                collected_.push_back(run);
        ConsoleReporter::ReportRuns(runs);
    }

    [[nodiscard]] const MicroRuns& runs() const noexcept { return collected_; }

  private:
    MicroRuns collected_;
};

inline double counterValue(const benchmark::BenchmarkReporter::Run& run, const char* name) {
    const auto it = run.counters.find(name);
    return it == run.counters.end() ? 0.0 : double(it->second);
}

/// Items per second of the run whose full name starts with `prefix`
/// (0 when absent, e.g. under a --benchmark_filter that skipped it).
inline double throughputFor(const MicroRuns& runs, const std::string& prefix) {
    for (const auto& run : runs) {
        const std::string name = run.benchmark_name();
        if (name.rfind(prefix, 0) == 0) return counterValue(run, "items_per_second");
    }
    return 0.0;
}

/// Run the registered benchmarks. `--json [path]` is peeled off argv
/// before google-benchmark sees it; when present, the summary goes to
/// `path` (default `defaultJsonPath`) with `writeTail` appending the
/// binary's own blocks after the `results` array.
inline int runMicrobench(int argc, char** argv, const char* benchmarkName,
                         const char* defaultJsonPath,
                         void (*writeTail)(std::ostream&, const MicroRuns&)) {
    std::string jsonPath;
    std::vector<char*> args;
    for (int i = 0; i < argc; ++i) {
        if (i > 0 && std::strcmp(argv[i], "--json") == 0) {
            jsonPath = defaultJsonPath;
            if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0)
                jsonPath = argv[++i];
            continue;
        }
        args.push_back(argv[i]);
    }
    int filteredArgc = int(args.size());
    benchmark::Initialize(&filteredArgc, args.data());
    if (benchmark::ReportUnrecognizedArguments(filteredArgc, args.data())) return 1;

    CollectingReporter reporter;
    benchmark::RunSpecifiedBenchmarks(&reporter);
    benchmark::Shutdown();
    if (jsonPath.empty()) return 0;

    std::ofstream out{jsonPath, std::ios::trunc};
    if (out) {
        out << "{\"benchmark\":\"" << benchmarkName << "\",\"results\":[";
        bool first = true;
        for (const auto& run : reporter.runs()) {
            if (!first) out << ',';
            first = false;
            out << "{\"name\":\"" << run.benchmark_name() << "\""
                << ",\"real_time_ns\":" << util::format("%.1f", run.GetAdjustedRealTime())
                << ",\"items_per_second\":"
                << util::format("%.1f", counterValue(run, "items_per_second"))
                << ",\"bytes_per_second\":"
                << util::format("%.1f", counterValue(run, "bytes_per_second")) << '}';
        }
        out << ']';
        writeTail(out, reporter.runs());
        out << "}\n";
    }
    if (!out) {
        std::fprintf(stderr, "failed to write %s\n", jsonPath.c_str());
        return 1;
    }
    std::printf("JSON summary written to %s\n", jsonPath.c_str());
    return 0;
}

}  // namespace onelab::bench
