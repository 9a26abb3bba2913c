#pragma once

#include <optional>
#include <string>
#include <vector>

#include "util/json.hpp"

namespace onelab::obs::query {

/// Shared slicing filter for trace/flight/metrics documents. All text
/// matches are case-sensitive substring tests; unset fields pass
/// everything. The IMSI filter matches against category, name AND
/// detail, since per-UE identity appears in different fields per layer
/// ("umts.bearer.<imsi>.*" metric names, supervisor spans named by
/// IMSI, fault details carrying "site=N").
struct Filter {
    std::string category;
    std::string name;
    std::string kind;  ///< flight dumps only: entry kind selector
    std::string imsi;
    std::optional<double> fromSeconds;  ///< sim-time window lower bound
    std::optional<double> toSeconds;    ///< sim-time window upper bound
    std::size_t limit = 0;              ///< 0 = unlimited
    std::size_t tail = 0;               ///< keep only the last N rows
};

/// Render a Chrome trace.json document as an aligned table
/// (t_ms | ph | tid | category | name | detail), filtered.
[[nodiscard]] std::string formatTrace(const util::JsonValue& doc, const Filter& filter);

/// Render a flight.json dump (kind | t_ms | category | name | detail |
/// value), filtered; `filter.tail` keeps the newest N entries.
[[nodiscard]] std::string formatFlight(const util::JsonValue& doc, const Filter& filter);

/// Render a metrics.json snapshot, filtered by name prefix
/// (`filter.name`) and IMSI substring.
[[nodiscard]] std::string formatMetrics(const util::JsonValue& doc, const Filter& filter);

/// Top-N self-time table. Accepts either a profile.json document
/// (categories used as-is) or a trace.json document (self-time
/// computed from begin/end span nesting per tid).
[[nodiscard]] std::string formatTopSelf(const util::JsonValue& doc, std::size_t topN);

/// Timeline diff of two runs: per-category trace event counts side by
/// side, the first diverging trace event, and metric value deltas.
/// Either document may be missing pieces; what exists is compared.
[[nodiscard]] std::string formatDiff(const util::JsonValue* traceA,
                                     const util::JsonValue* traceB,
                                     const util::JsonValue* metricsA,
                                     const util::JsonValue* metricsB);

/// Merge several Chrome trace documents into one, remapping each
/// input's events onto its own tid lane (1-based input order) so runs
/// can be compared on one Perfetto timeline. Returns serialized JSON.
[[nodiscard]] std::string mergeTraces(const std::vector<util::JsonValue>& docs);

/// Built-in consistency check over embedded sample documents; returns
/// a failure description or empty on success. Exercised by CI as
/// `obsq --self-check` so a broken parser fails the matrix, not a
/// post-mortem at 3 a.m.
[[nodiscard]] std::string selfCheck();

}  // namespace onelab::obs::query
