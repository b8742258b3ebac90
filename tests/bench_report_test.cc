/**
 * @file
 * Tests for the bench reporting subsystem: Reporter rendering (human
 * / JSON / CSV), the golden record schema, the shared arg parser, the
 * json_lite reader, the baseline drift comparison, and the bench-gate
 * manifest (bench/gates.json) that CI checks every baseline through.
 */

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <utility>

#include <gtest/gtest.h>

#include "../bench/bench_util.hh"
#include "common/bench_compare.hh"
#include "common/bench_report.hh"
#include "common/json_lite.hh"

using namespace vrex;
using namespace vrex::bench;

namespace
{

/** The fig04-shaped reporter used by the golden-output tests. */
Reporter
makeFig04Like()
{
    Reporter rep("fig04");
    rep.beginPanel("a", "Fig. 4a: memory footprint");
    rep.add("1min", "kv_cache", 3.15, "GB", 1);
    rep.add("1min", "total", 18.2, "GB", 1);
    rep.add("10min", "kv_cache", 31.5, "GB", 1);
    rep.add("10min", "total", 46.5, "GB", 1);
    rep.note("exceeds_32gb_edge=1 marks oversize footprints");
    rep.beginPanel("b", "Fig. 4b: latency breakdown");
    rep.add("40K", "prefill", 69.6, "%", 1);
    return rep;
}

/** The table2-shaped reporter: mixed panels, text cell, OOM-less. */
Reporter
makeTable2Like()
{
    Reporter rep("table2");
    rep.beginPanel("accuracy", "Table II: accuracy proxy");
    rep.add("InfiniGen", "Step", 49.0, "", 1);
    rep.add("InfiniGen", "Avg", 61.0, "", 1);
    rep.add("V-Rex's ReSV", "Step", 48.2, "", 1);
    rep.add("V-Rex's ReSV", "Avg", 60.2, "", 1);
    rep.beginPanel("frame_ratio", "Table II: frame ratio");
    rep.add("InfiniGen", "Step", 100.0, "%", 1);
    rep.addText("VideoLLM-Online", "Step", "-");
    return rep;
}

} // namespace

TEST(FormatValue, RoundTripsExactly)
{
    for (double v : {0.0, 1.0, -1.5, 0.1, 1.0 / 3.0, 1e-300, 2.5e17,
                     248.93754841905061}) {
        std::string s = formatValue(v);
        EXPECT_EQ(std::strtod(s.c_str(), nullptr), v) << s;
    }
    EXPECT_EQ(formatValue(std::nan("")), "nan");
    EXPECT_EQ(formatValue(std::numeric_limits<double>::infinity()),
              "inf");
    EXPECT_EQ(formatValue(-std::numeric_limits<double>::infinity()),
              "-inf");
}

TEST(KLabel, SubThousandValuesPrintExactly)
{
    // Regression: integer division used to print "0K" for anything
    // below 1000 (cache=0 and the 500-token operating point alike).
    EXPECT_EQ(kLabel(0), "0");
    EXPECT_EQ(kLabel(1), "1");
    EXPECT_EQ(kLabel(500), "500");
    EXPECT_EQ(kLabel(999), "999");
}

TEST(KLabel, ThousandsRoundToNearest)
{
    EXPECT_EQ(kLabel(1000), "1K");
    EXPECT_EQ(kLabel(1499), "1K");
    EXPECT_EQ(kLabel(1500), "2K");
    EXPECT_EQ(kLabel(40000), "40K");
    EXPECT_EQ(kLabel(80000), "80K");
}

TEST(JsonLite, ParsesScalarsAndNesting)
{
    std::string err;
    json::Value v = json::parse(
        R"({"a": 1.5, "b": "x\ny", "c": [1, null, true], "d": {}})",
        &err);
    ASSERT_TRUE(v.isObject()) << err;
    EXPECT_DOUBLE_EQ(v.numberOr("a", 0.0), 1.5);
    EXPECT_EQ(v.strOr("b", ""), "x\ny");
    ASSERT_TRUE(v.find("c")->isArray());
    EXPECT_EQ(v.find("c")->array().size(), 3u);
    EXPECT_TRUE(v.find("c")->array()[1].isNull());
    EXPECT_TRUE(v.find("c")->array()[2].boolean());
    EXPECT_TRUE(v.find("d")->isObject());
    EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(JsonLite, ParsesEscapes)
{
    std::string err;
    json::Value v =
        json::parse(R"(["\"\\\t\u0041\u00e9"])", &err);
    ASSERT_TRUE(v.isArray()) << err;
    EXPECT_EQ(v.array()[0].str(), "\"\\\tA\xc3\xa9");
}

TEST(JsonLite, RejectsMalformedDocuments)
{
    for (const char *bad :
         {"", "{", "[1,]", "{\"a\":}", "{\"a\" 1}", "tru",
          "[1] x", "\"unterminated", "[1e999]", "{\"a\": nan}"}) {
        std::string err;
        json::Value v = json::parse(bad, &err);
        EXPECT_TRUE(v.isNull()) << bad;
        EXPECT_FALSE(err.empty()) << bad;
    }
}

TEST(JsonLite, QuoteEscapesControlCharacters)
{
    EXPECT_EQ(json::quote("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    EXPECT_EQ(json::quote(std::string(1, '\x01')), "\"\\u0001\"");
}

TEST(Reporter, JsonGolden)
{
    Reporter rep("demo");
    rep.beginPanel("p", "Panel");
    rep.add("r1", "m1", 1.5, "ms");
    rep.add("r1", "m2", std::nan(""), "");
    const char *want =
        "{\n"
        "  \"schema\": \"vrex-bench-1\",\n"
        "  \"bench\": \"demo\",\n"
        "  \"metrics\": [\n"
        "    {\"bench\": \"demo\", \"panel\": \"p\", \"row\": \"r1\","
        " \"metric\": \"m1\", \"value\": 1.5, \"unit\": \"ms\"},\n"
        "    {\"bench\": \"demo\", \"panel\": \"p\", \"row\": \"r1\","
        " \"metric\": \"m2\", \"value\": null, \"unit\": \"\"}\n"
        "  ]\n"
        "}\n";
    EXPECT_EQ(rep.renderJson(), want);
}

TEST(Reporter, CsvGoldenWithEscaping)
{
    Reporter rep("demo");
    rep.beginPanel("p", "Panel");
    rep.add("row,with,commas", "m\"q", 2.0, "x");
    const char *want =
        "bench,panel,row,metric,value,unit\n"
        "demo,p,\"row,with,commas\",\"m\"\"q\",2,x\n";
    EXPECT_EQ(rep.renderCsv(), want);
}

TEST(Reporter, JsonRoundTripsThroughLoader)
{
    Reporter rep = makeFig04Like();
    LoadedReport loaded;
    std::string err;
    ASSERT_TRUE(loadReport(rep.renderJson(), loaded, err)) << err;
    EXPECT_EQ(loaded.bench, "fig04");
    ASSERT_EQ(loaded.records.size(), rep.metrics().size());
    for (size_t i = 0; i < loaded.records.size(); ++i) {
        const Record &r = loaded.records[i];
        const Metric &m = rep.metrics()[i];
        EXPECT_EQ(r.panel, m.panel);
        EXPECT_EQ(r.row, m.row);
        EXPECT_EQ(r.metric, m.metric);
        EXPECT_EQ(r.unit, m.unit);
        EXPECT_EQ(r.value, m.value);
    }
}

TEST(Reporter, CsvRoundTripMatchesJson)
{
    for (Reporter rep : {makeFig04Like(), makeTable2Like()}) {
        LoadedReport fromJson;
        std::vector<Record> fromCsv;
        std::string err;
        ASSERT_TRUE(loadReport(rep.renderJson(), fromJson, err))
            << err;
        ASSERT_TRUE(loadCsv(rep.renderCsv(), fromCsv, err)) << err;
        EXPECT_TRUE(sameRecords(fromJson, fromCsv, err)) << err;
    }
}

TEST(Reporter, NonFiniteValuesAgreeAcrossJsonAndCsv)
{
    // Regression: JSON collapses non-finite values to null (NaN on
    // read-back) while CSV used to print "inf", so the --verify
    // JSON/CSV cross-check failed on any infinite metric.
    Reporter rep("demo");
    rep.beginPanel("p", "Panel");
    rep.add("r", "pos_inf", std::numeric_limits<double>::infinity());
    rep.add("r", "neg_inf", -std::numeric_limits<double>::infinity());
    rep.add("r", "nan", std::nan(""));
    LoadedReport fromJson;
    std::vector<Record> fromCsv;
    std::string err;
    ASSERT_TRUE(loadReport(rep.renderJson(), fromJson, err)) << err;
    ASSERT_TRUE(loadCsv(rep.renderCsv(), fromCsv, err)) << err;
    EXPECT_TRUE(sameRecords(fromJson, fromCsv, err)) << err;
    EXPECT_TRUE(std::isnan(fromCsv[0].value));
}

TEST(Reporter, HumanTableCarriesEveryMetric)
{
    // Human-table equivalence: each registered metric appears in the
    // rendered table with its row label, column header, and formatted
    // value+unit; notes and titles are preserved.
    for (Reporter rep : {makeFig04Like(), makeTable2Like()}) {
        std::string human = rep.renderHuman();
        for (const Metric &m : rep.metrics()) {
            char cell[48];
            std::snprintf(cell, sizeof(cell), "%.*f", m.prec, m.value);
            EXPECT_NE(human.find(m.row), std::string::npos) << m.row;
            EXPECT_NE(human.find(m.metric), std::string::npos)
                << m.metric;
            EXPECT_NE(human.find(std::string(cell) + m.unit),
                      std::string::npos)
                << cell << m.unit;
        }
    }
}

TEST(Reporter, HumanTableRendersTextCellsAndGaps)
{
    Reporter rep = makeTable2Like();
    std::string human = rep.renderHuman();
    // Text cell from addText().
    EXPECT_NE(human.find("VideoLLM-Online"), std::string::npos);
    // The frame_ratio panel has no "Avg" column, and the accuracy
    // panel's rows do not appear in it: missing cells render as "-".
    EXPECT_NE(human.find("-"), std::string::npos);
    EXPECT_NE(human.find("=== Table II: accuracy proxy ==="),
              std::string::npos);
    EXPECT_NE(human.find("=== Table II: frame ratio ==="),
              std::string::npos);
}

TEST(Reporter, FindLooksUpByIdentity)
{
    Reporter rep = makeFig04Like();
    const Metric *m = rep.find("a", "10min", "kv_cache");
    ASSERT_NE(m, nullptr);
    EXPECT_DOUBLE_EQ(m->value, 31.5);
    EXPECT_EQ(rep.find("a", "10min", "nope"), nullptr);
    EXPECT_EQ(rep.find("zzz", "10min", "kv_cache"), nullptr);
}

TEST(ParseArgs, AcceptsAllSharedFlags)
{
    const char *argv[] = {"bench", "--json", "a.json", "--csv",
                          "b.csv", "--quiet"};
    Options opts;
    std::string err;
    ASSERT_TRUE(parseArgs(6, const_cast<char **>(argv), opts, err))
        << err;
    EXPECT_EQ(opts.jsonPath, "a.json");
    EXPECT_EQ(opts.csvPath, "b.csv");
    EXPECT_TRUE(opts.quiet);
    EXPECT_FALSE(opts.help);
}

TEST(ParseArgs, RejectsUnknownAndIncompleteFlags)
{
    {
        const char *argv[] = {"bench", "--frobnicate"};
        Options opts;
        std::string err;
        EXPECT_FALSE(
            parseArgs(2, const_cast<char **>(argv), opts, err));
        EXPECT_NE(err.find("--frobnicate"), std::string::npos);
    }
    {
        const char *argv[] = {"bench", "--json"};
        Options opts;
        std::string err;
        EXPECT_FALSE(
            parseArgs(2, const_cast<char **>(argv), opts, err));
        EXPECT_NE(err.find("--json"), std::string::npos);
    }
}

TEST(LoadReport, RejectsSchemaViolations)
{
    LoadedReport out;
    std::string err;
    // Wrong schema tag.
    EXPECT_FALSE(loadReport(
        R"({"schema": "vrex-bench-0", "bench": "x", "metrics": []})",
        out, err));
    // Record bench mismatching report bench.
    EXPECT_FALSE(loadReport(
        R"({"schema": "vrex-bench-1", "bench": "x", "metrics": [
            {"bench": "y", "panel": "p", "row": "r", "metric": "m",
             "value": 1, "unit": ""}]})",
        out, err));
    EXPECT_NE(err.find("does not match"), std::string::npos);
    // Duplicate identity.
    EXPECT_FALSE(loadReport(
        R"({"schema": "vrex-bench-1", "bench": "x", "metrics": [
            {"bench": "x", "panel": "p", "row": "r", "metric": "m",
             "value": 1, "unit": ""},
            {"bench": "x", "panel": "p", "row": "r", "metric": "m",
             "value": 2, "unit": ""}]})",
        out, err));
    EXPECT_NE(err.find("duplicate"), std::string::npos);
    // Ill-typed value.
    EXPECT_FALSE(loadReport(
        R"({"schema": "vrex-bench-1", "bench": "x", "metrics": [
            {"bench": "x", "panel": "p", "row": "r", "metric": "m",
             "value": "1", "unit": ""}]})",
        out, err));
}

TEST(LoadReport, NullValueBecomesNan)
{
    LoadedReport out;
    std::string err;
    ASSERT_TRUE(loadReport(
        R"({"schema": "vrex-bench-1", "bench": "x", "metrics": [
            {"bench": "x", "panel": "p", "row": "r", "metric": "m",
             "value": null, "unit": ""}]})",
        out, err)) << err;
    EXPECT_TRUE(std::isnan(out.records[0].value));
}

namespace
{

Baseline
makeBaseline()
{
    Baseline b;
    b.defaultRelTol = 0.05;
    b.defaultAbsTol = 1e-6;
    b.benchRelTol = {{"noisy", 0.25}};
    b.records = {
        {"fig04", "a", "1min", "kv_cache", 3.0, "GB"},
        {"fig04", "a", "1min", "total", 18.0, "GB"},
        {"noisy", "p", "r", "m", 100.0, ""},
        {"other", "p", "r", "m", 1.0, ""},
    };
    return b;
}

LoadedReport
reportWith(const std::string &bench, std::vector<Record> records)
{
    return {bench, std::move(records)};
}

} // namespace

TEST(Baseline, RenderLoadRoundTrip)
{
    Baseline b = makeBaseline();
    Baseline b2;
    std::string err;
    ASSERT_TRUE(loadBaseline(renderBaseline(b), b2, err)) << err;
    EXPECT_DOUBLE_EQ(b2.defaultRelTol, 0.05);
    EXPECT_DOUBLE_EQ(b2.defaultAbsTol, 1e-6);
    EXPECT_DOUBLE_EQ(b2.relTolFor("noisy"), 0.25);
    EXPECT_DOUBLE_EQ(b2.relTolFor("fig04"), 0.05);
    ASSERT_EQ(b2.records.size(), b.records.size());
    EXPECT_EQ(b2.records[0].key(), b.records[0].key());
}

TEST(Drift, PassesWithinTolerance)
{
    Baseline b = makeBaseline();
    // 3.0 -> 3.1 is within 5%; noisy 100 -> 120 within its 25% band.
    auto drift = compareToBaseline(
        b, {reportWith("fig04",
                       {{"fig04", "a", "1min", "kv_cache", 3.1, "GB"},
                        {"fig04", "a", "1min", "total", 18.0, "GB"}}),
            reportWith("noisy", {{"noisy", "p", "r", "m", 120.0,
                                  ""}})});
    EXPECT_TRUE(drift.ok());
    EXPECT_EQ(drift.compared, 3u);  // "other" was not part of the run.
    EXPECT_EQ(drift.newMetrics, 0u);
}

TEST(Drift, FailsOutsideTolerance)
{
    Baseline b = makeBaseline();
    auto drift = compareToBaseline(
        b, {reportWith("fig04",
                       {{"fig04", "a", "1min", "kv_cache", 3.2, "GB"},
                        {"fig04", "a", "1min", "total", 18.0,
                         "GB"}})});
    ASSERT_EQ(drift.issues.size(), 1u);
    EXPECT_EQ(drift.issues[0].kind,
              DriftIssue::Kind::OutOfTolerance);
    EXPECT_NE(drift.issues[0].describe().find("kv_cache"),
              std::string::npos);
}

TEST(Drift, FlagsMissingMetricAndUnitMismatch)
{
    Baseline b = makeBaseline();
    auto drift = compareToBaseline(
        b, {reportWith("fig04",
                       {{"fig04", "a", "1min", "kv_cache", 3.0,
                         "GiB"}})});
    ASSERT_EQ(drift.issues.size(), 2u);
    EXPECT_EQ(drift.issues[0].kind, DriftIssue::Kind::UnitMismatch);
    EXPECT_EQ(drift.issues[1].kind, DriftIssue::Kind::MissingMetric);
}

TEST(Drift, CountsNewMetricsAndUnknownBenches)
{
    Baseline b = makeBaseline();
    auto drift = compareToBaseline(
        b, {reportWith("fig04",
                       {{"fig04", "a", "1min", "kv_cache", 3.0, "GB"},
                        {"fig04", "a", "1min", "total", 18.0, "GB"},
                        {"fig04", "a", "1min", "brand_new", 7.0,
                         ""}}),
            reportWith("unseen", {{"unseen", "p", "r", "m", 1.0,
                                   ""}})});
    EXPECT_TRUE(drift.ok());  // New metrics warn, never fail.
    EXPECT_EQ(drift.newMetrics, 2u);
    ASSERT_EQ(drift.benchesWithoutBaseline.size(), 1u);
    EXPECT_EQ(drift.benchesWithoutBaseline[0], "unseen");
}

TEST(Drift, NonFiniteOnBothSidesPasses)
{
    Baseline b;
    double nan = std::numeric_limits<double>::quiet_NaN();
    b.records = {{"x", "p", "r", "m", nan, ""}};
    auto drift = compareToBaseline(
        b, {reportWith("x", {{"x", "p", "r", "m", nan, ""}})});
    EXPECT_TRUE(drift.ok());
    auto drift2 = compareToBaseline(
        b, {reportWith("x", {{"x", "p", "r", "m", 1.0, ""}})});
    EXPECT_FALSE(drift2.ok());
}

TEST(Baseline, GateFieldRoundTrips)
{
    Baseline b;
    b.records = {
        {"mc", "p", "r", "band", 1.0, "x", Gate::Band},
        {"mc", "p", "r", "floor", 2.0, "x", Gate::Floor},
        {"mc", "p", "r", "ceil", 3.0, "x", Gate::Ceiling},
        {"mc", "p", "r", "info", 4.0, "ns", Gate::Info},
    };
    const std::string doc = renderBaseline(b);
    // Band is the default and stays implicit in the document.
    EXPECT_EQ(doc.find("\"gate\": \"band\""), std::string::npos);
    EXPECT_NE(doc.find("\"gate\": \"floor\""), std::string::npos);
    EXPECT_NE(doc.find("\"gate\": \"ceiling\""), std::string::npos);
    EXPECT_NE(doc.find("\"gate\": \"info\""), std::string::npos);

    Baseline b2;
    std::string err;
    ASSERT_TRUE(loadBaseline(doc, b2, err)) << err;
    ASSERT_EQ(b2.records.size(), 4u);
    EXPECT_EQ(b2.records[0].gate, Gate::Band);
    EXPECT_EQ(b2.records[1].gate, Gate::Floor);
    EXPECT_EQ(b2.records[2].gate, Gate::Ceiling);
    EXPECT_EQ(b2.records[3].gate, Gate::Info);
}

TEST(Baseline, RejectsUnknownGate)
{
    Baseline out;
    std::string err;
    EXPECT_FALSE(loadBaseline(
        R"({"schema": "vrex-bench-baseline-1", "default_rel_tol": 0.05,
            "default_abs_tol": 1e-6, "bench_rel_tol": {}, "metrics": [
            {"bench": "b", "panel": "p", "row": "r", "metric": "m",
             "value": 1.0, "unit": "", "gate": "vibes"}]})",
        out, err));
    EXPECT_NE(err.find("gate"), std::string::npos) << err;
}

TEST(Drift, FloorGateOnlyFailsBelow)
{
    Baseline b;
    b.defaultRelTol = 0.25;  // Floor 2.0 -> effective bound 1.5.
    b.records = {{"mc", "p", "r", "speedup", 2.0, "x", Gate::Floor}};
    auto above = compareToBaseline(
        b, {reportWith("mc", {{"mc", "p", "r", "speedup", 50.0,
                               "x"}})});
    EXPECT_TRUE(above.ok()) << "a floor has no upper bound";
    auto grazing = compareToBaseline(
        b,
        {reportWith("mc", {{"mc", "p", "r", "speedup", 1.6, "x"}})});
    EXPECT_TRUE(grazing.ok());
    auto below = compareToBaseline(
        b,
        {reportWith("mc", {{"mc", "p", "r", "speedup", 1.4, "x"}})});
    ASSERT_EQ(below.issues.size(), 1u);
    EXPECT_EQ(below.issues[0].kind,
              DriftIssue::Kind::OutOfTolerance);
    EXPECT_NE(below.issues[0].describe().find("below floor"),
              std::string::npos);
}

TEST(Drift, CeilingGateOnlyFailsAbove)
{
    Baseline b;
    b.defaultRelTol = 0.25;
    b.records = {{"mc", "p", "r", "lat", 2.0, "ms", Gate::Ceiling}};
    auto below = compareToBaseline(
        b, {reportWith("mc", {{"mc", "p", "r", "lat", 0.1, "ms"}})});
    EXPECT_TRUE(below.ok()) << "a ceiling has no lower bound";
    auto above = compareToBaseline(
        b, {reportWith("mc", {{"mc", "p", "r", "lat", 2.6, "ms"}})});
    ASSERT_EQ(above.issues.size(), 1u);
    EXPECT_NE(above.issues[0].describe().find("above ceiling"),
              std::string::npos);
}

TEST(Drift, InfoGateChecksPresenceAndUnitOnly)
{
    Baseline b;
    b.records = {{"mc", "p", "r", "ns", 100.0, "ns", Gate::Info}};
    auto wild = compareToBaseline(
        b, {reportWith("mc", {{"mc", "p", "r", "ns", 1e9, "ns"}})});
    EXPECT_TRUE(wild.ok()) << "info values are never compared";
    EXPECT_EQ(wild.compared, 1u);
    auto wrongUnit = compareToBaseline(
        b, {reportWith("mc", {{"mc", "p", "r", "ns", 100.0, "ms"}})});
    ASSERT_EQ(wrongUnit.issues.size(), 1u);
    EXPECT_EQ(wrongUnit.issues[0].kind,
              DriftIssue::Kind::UnitMismatch);
    auto missing = compareToBaseline(b, {reportWith("mc", {})});
    ASSERT_EQ(missing.issues.size(), 1u);
    EXPECT_EQ(missing.issues[0].kind,
              DriftIssue::Kind::MissingMetric);
}

TEST(LoadCsv, RejectsMalformedDocuments)
{
    std::vector<Record> out;
    std::string err;
    EXPECT_FALSE(loadCsv("", out, err));
    EXPECT_FALSE(loadCsv("wrong,header\n", out, err));
    EXPECT_FALSE(loadCsv(
        "bench,panel,row,metric,value,unit\nb,p,r,m,notanumber,u\n",
        out, err));
    EXPECT_FALSE(loadCsv(
        "bench,panel,row,metric,value,unit\nb,p,r,m,1\n", out, err));
    ASSERT_TRUE(loadCsv(
        "bench,panel,row,metric,value,unit\r\nb,p,r,m,1.5,u\r\n", out,
        err)) << err;
    EXPECT_EQ(out[0].value, 1.5);
}

// ---------------------------------------------------------------
// bench-gate manifest (bench/gates.json)
// ---------------------------------------------------------------

namespace
{

/** The committed manifest; VREX_BENCH_DIR is set by tests/CMake. */
std::vector<GateSpec>
committedGates()
{
    std::string text, err;
    std::vector<GateSpec> gates;
    EXPECT_TRUE(readFile(std::string(VREX_BENCH_DIR) + "/gates.json",
                         text));
    EXPECT_TRUE(loadGates(text, gates, err)) << err;
    return gates;
}

GateSpec
committedGate(const std::string &name)
{
    for (const GateSpec &g : committedGates()) {
        if (g.name == name)
            return g;
    }
    ADD_FAILURE() << "no gate " << name;
    return {};
}

/** Parse a Reporter's JSON the way drift_check reads a report. */
LoadedReport
loaded(const Reporter &rep)
{
    LoadedReport out;
    std::string err;
    EXPECT_TRUE(loadReport(rep.renderJson(), out, err)) << err;
    return out;
}

/** A minimal one-gate manifest around @p gateBody. */
std::string
manifestWith(const std::string &gateBody)
{
    return R"({"schema": "vrex-bench-gates-1", "gates": [)" + gateBody +
           "]}";
}

void
writeText(const std::filesystem::path &path, const std::string &text)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << text;
}

} // namespace

TEST(Gates, ParsesRulesAndBenchOrder)
{
    std::vector<GateSpec> gates;
    std::string err;
    ASSERT_TRUE(loadGates(manifestWith(R"(
        {"name": "g", "baseline": "b.json", "blocking": false,
         "benches": {"bin_z": "z", "bin_a": "a"},
         "refresh": [{"panel": "p", "rows": ["r1", "r2"],
                      "at_least": 1.5, "gate": "floor", "scale": 0.5}]})"),
                          gates, err)) << err;
    ASSERT_EQ(gates.size(), 1u);
    const GateSpec &g = gates[0];
    EXPECT_FALSE(g.blocking);
    ASSERT_EQ(g.benches.size(), 2u);
    EXPECT_EQ(g.benches[0], std::make_pair(std::string("bin_z"),
                                           std::string("z")));
    ASSERT_EQ(g.refresh.size(), 1u);
    EXPECT_EQ(g.refresh[0].rows.size(), 2u);
    EXPECT_EQ(*g.refresh[0].atLeast, 1.5);
    EXPECT_EQ(g.refresh[0].scale, 0.5);
    EXPECT_EQ(g.refresh[0].gate, Gate::Floor);
}

TEST(Gates, RejectsMalformedManifests)
{
    const std::string ok =
        R"({"name": "a", "baseline": "a.json", "blocking": true,
            "benches": {"bin1": "one"}})";
    std::vector<GateSpec> gates;
    std::string err;
    ASSERT_TRUE(loadGates(manifestWith(ok), gates, err)) << err;

    // A bench binary listed in two gates.
    err.clear();
    EXPECT_FALSE(loadGates(
        manifestWith(ok + R"(, {"name": "b", "baseline": "b.json",
            "blocking": true, "benches": {"bin1": "one"}})"),
        gates, err));
    EXPECT_NE(err.find("two gates"), std::string::npos) << err;

    // Unknown keys, at every level.
    EXPECT_FALSE(loadGates(
        R"({"schema": "vrex-bench-gates-1", "extra": 1, "gates": [)" +
            ok + "]}",
        gates, err));
    EXPECT_FALSE(loadGates(
        manifestWith(R"({"name": "a", "baseline": "a.json",
            "blocking": true, "benches": {"bin1": "one"},
            "tolerance": 0.1})"),
        gates, err));
    EXPECT_NE(err.find("key 'tolerance'"), std::string::npos) << err;
    EXPECT_FALSE(loadGates(
        manifestWith(R"({"name": "a", "baseline": "a.json",
            "blocking": true, "benches": {"bin1": "one"},
            "refresh": [{"metric": "m", "gate": "info", "row": "r"}]})"),
        gates, err));

    // A missing (or empty) baseline path.
    EXPECT_FALSE(loadGates(
        manifestWith(R"({"name": "a", "blocking": true,
            "benches": {"bin1": "one"}})"),
        gates, err));
    EXPECT_NE(err.find("baseline"), std::string::npos) << err;
    EXPECT_FALSE(loadGates(
        manifestWith(R"({"name": "a", "baseline": "", "blocking": true,
            "benches": {"bin1": "one"}})"),
        gates, err));

    // Also: duplicate gate names, no benches, bad gate class, schema.
    EXPECT_FALSE(loadGates(
        manifestWith(ok + R"(, {"name": "a", "baseline": "b.json",
            "blocking": true, "benches": {"bin2": "two"}})"),
        gates, err));
    EXPECT_FALSE(loadGates(
        manifestWith(R"({"name": "a", "baseline": "a.json",
            "blocking": true, "benches": {}})"),
        gates, err));
    EXPECT_FALSE(loadGates(
        manifestWith(R"({"name": "a", "baseline": "a.json",
            "blocking": true, "benches": {"bin1": "one"},
            "refresh": [{"metric": "m", "gate": "sometimes"}]})"),
        gates, err));
    EXPECT_FALSE(loadGates(R"({"schema": "v0", "gates": [)" + ok + "]}",
                           gates, err));
}

// Every bench binary (bench/*.cc except the drift_check tool itself)
// sits in exactly one gate whose baseline loads and carries records
// of the bench's report name, so a new bench cannot land ungated.
TEST(Gates, EveryBenchBinaryIsGatedOnce)
{
    const std::vector<GateSpec> gates = committedGates();
    std::map<std::string, int> listed;
    for (const GateSpec &g : gates) {
        std::string text, err;
        Baseline base;
        ASSERT_TRUE(readFile(std::string(VREX_BENCH_DIR) + "/" +
                                 g.baseline,
                             text)) << g.baseline;
        ASSERT_TRUE(loadBaseline(text, base, err)) << err;
        for (const auto &[binary, benchName] : g.benches) {
            ++listed[binary];
            const bool hasRecords = std::any_of(
                base.records.begin(), base.records.end(),
                [&](const Record &r) { return r.bench == benchName; });
            EXPECT_TRUE(hasRecords) << binary << " in " << g.baseline;
        }
    }
    size_t sources = 0;
    for (const auto &entry :
         std::filesystem::directory_iterator(VREX_BENCH_DIR)) {
        if (entry.path().extension() != ".cc")
            continue;
        const std::string binary = entry.path().stem().string();
        if (binary == "drift_check")
            continue;
        ++sources;
        EXPECT_EQ(listed[binary], 1) << binary << " is not gated";
    }
    EXPECT_EQ(listed.size(), sources) << "a gate names a missing bench";
}

// The perf gate's rules reproduce the classification the micro_core
// baseline has always used: speedup >= 2x floors at half its value,
// a slower speedup and every ns timing are info.
TEST(Gates, PerfRefreshMatchesMicroCoreClasses)
{
    const GateSpec perf = committedGate("perf");
    Reporter rep("micro_core");
    rep.beginPanel("hamming", "t");
    rep.add("nbits=64", "scalar_ns", 12.5, "ns", 1);
    rep.add("nbits=64", "avx2_ns", 2.5, "ns", 1);
    rep.add("nbits=64", "speedup", 5.0, "x", 2);
    rep.add("nbits=4096", "scalar_ns", 40.0, "ns", 1);
    rep.add("nbits=4096", "speedup", 2.0, "x", 2);
    rep.beginPanel("encode", "t");
    rep.add("dim=128,nbits=32", "scalar_ns", 30.0, "ns", 1);
    rep.add("dim=128,nbits=32", "speedup", 1.99, "x", 2);
    rep.beginPanel("context", "t");
    rep.add("cosine dim=128", "ns", 55.0, "ns", 1);
    rep.add("hc_insert n=256", "ns_per_token", 9.0, "ns", 1);

    struct Want
    {
        Gate gate;
        double value;
    };
    const std::vector<Want> want = {
        {Gate::Info, 12.5},  {Gate::Info, 2.5}, {Gate::Floor, 2.5},
        {Gate::Info, 40.0},  {Gate::Floor, 1.0}, {Gate::Info, 30.0},
        {Gate::Info, 1.99},  {Gate::Info, 55.0}, {Gate::Info, 9.0},
    };
    const LoadedReport run = loaded(rep);
    ASSERT_EQ(run.records.size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
        const Record r = refreshRecord(perf, run.records[i]);
        EXPECT_EQ(r.key(), run.records[i].key());
        EXPECT_EQ(r.unit, run.records[i].unit);
        EXPECT_EQ(r.gate, want[i].gate) << r.pretty();
        EXPECT_EQ(r.value, want[i].value) << r.pretty();
    }
}

// The batch gate's rules reproduce the fig_batch classification: the
// shared multiplier floors at its measured value only on sessions=8
// and sessions=16 rows measuring >= 1.5x; other multipliers
// (including the distinct-seed control) and steps/s are info; the
// fused-step counters band.
TEST(Gates, BatchRefreshMatchesFigBatchClasses)
{
    const GateSpec batch = committedGate("batch");
    Reporter rep("batch");
    rep.beginPanel("shared", "t");
    for (const auto &[row, mult] :
         std::vector<std::pair<std::string, double>>{
             {"sessions=4", 3.0},
             {"sessions=8", 1.7},
             {"sessions=16", 1.4}}) {
        rep.add(row, "seq_steps_per_sec", 100.0, "steps/s", 0);
        rep.add(row, "batched_steps_per_sec", 100.0 * mult, "steps/s",
                0);
        rep.add(row, "multiplier", mult, "x", 2);
    }
    rep.beginPanel("fusion", "t");
    rep.add("sessions=8", "coalesced_steps", 24.0, "", 0);
    rep.add("sessions=8", "fill_ratio", 50.0, "%", 1);
    rep.beginPanel("distinct", "t");
    rep.add("sessions=8", "multiplier", 1.9, "x", 2);

    std::map<std::string, std::pair<Gate, double>> want = {
        {"shared/sessions=4/multiplier", {Gate::Info, 3.0}},
        {"shared/sessions=8/multiplier", {Gate::Floor, 1.7}},
        {"shared/sessions=16/multiplier", {Gate::Info, 1.4}},
        {"fusion/sessions=8/coalesced_steps", {Gate::Band, 24.0}},
        {"fusion/sessions=8/fill_ratio", {Gate::Band, 50.0}},
        {"distinct/sessions=8/multiplier", {Gate::Info, 1.9}},
    };
    for (const Record &in : loaded(rep).records) {
        const Record r = refreshRecord(batch, in);
        EXPECT_EQ(r.key(), in.key());
        const std::string id = r.panel + "/" + r.row + "/" + r.metric;
        if (r.unit == "steps/s") {
            EXPECT_EQ(r.gate, Gate::Info) << id;
            EXPECT_EQ(r.value, in.value) << id;
            continue;
        }
        ASSERT_TRUE(want.count(id)) << id;
        EXPECT_EQ(r.gate, want[id].first) << id;
        EXPECT_EQ(r.value, want[id].second) << id;
        want.erase(id);
    }
    EXPECT_TRUE(want.empty());
}

// Check/refresh over files: a blocking gate fails on drift or on a
// missing report; a warn-only gate prints its DRIFT line and passes;
// refresh rewrites the records and keeps the tolerance header.
TEST(Gates, CheckBlocksOnlyBlockingGatesAndRefreshKeepsHeader)
{
    namespace fs = std::filesystem;
    const fs::path dir = fs::path(testing::TempDir()) / "vrex_gates";
    fs::remove_all(dir);
    fs::create_directories(dir / "reports");

    std::vector<GateSpec> gates;
    std::string err;
    ASSERT_TRUE(loadGates(
        manifestWith(R"(
        {"name": "hard", "baseline": "hard.json", "blocking": true,
         "benches": {"bin_hard": "hard"}},
        {"name": "soft", "baseline": "soft.json", "blocking": false,
         "benches": {"bin_soft": "soft"},
         "refresh": [{"metric": "m", "at_least": 2.0,
                      "gate": "floor"}]})"),
        gates, err)) << err;

    auto baselineOf = [](const std::string &bench, double value) {
        Baseline b;
        b.defaultRelTol = 0.1;
        b.benchRelTol = {{bench, 0.2}};
        b.records = {{bench, "p", "r", "m", value, "x"}};
        return renderBaseline(b);
    };
    writeText(dir / "hard.json", baselineOf("hard", 10.0));
    writeText(dir / "soft.json", baselineOf("soft", 10.0));
    auto writeReport = [&](const std::string &bench, double value) {
        Reporter rep(bench);
        rep.beginPanel("p", "t");
        rep.add("r", "m", value, "x");
        writeText(dir / "reports" / ("BENCH_bin_" + bench + ".json"),
                  rep.renderJson());
        writeText(dir / "reports" / ("BENCH_bin_" + bench + ".csv"),
                  rep.renderCsv());
    };
    const std::string reports = (dir / "reports").string();

    writeReport("hard", 10.5);
    writeReport("soft", 3.0);  // Far outside its band.
    std::string log;
    EXPECT_TRUE(checkGate(gates[0], dir.string(), reports, log)) << log;
    EXPECT_NE(log.find("hard: 1 metric(s) compared, 0 issue(s)"),
              std::string::npos) << log;
    log.clear();
    EXPECT_TRUE(checkGate(gates[1], dir.string(), reports, log)) << log;
    EXPECT_NE(log.find("DRIFT: "), std::string::npos) << log;
    EXPECT_NE(log.find("soft (warn-only): 1 metric(s) compared, "
                       "1 issue(s)\n"),
              std::string::npos) << log;

    writeReport("hard", 3.0);
    log.clear();
    EXPECT_FALSE(checkGate(gates[0], dir.string(), reports, log));
    EXPECT_NE(log.find("DRIFT: "), std::string::npos) << log;
    EXPECT_NE(log.find("FAILED"), std::string::npos) << log;

    // A missing report fails even a warn-only gate.
    fs::remove(dir / "reports" / "BENCH_bin_soft.json");
    log.clear();
    EXPECT_FALSE(checkGate(gates[1], dir.string(), reports, log));
    EXPECT_NE(log.find("missing report"), std::string::npos) << log;
    EXPECT_FALSE(refreshGate(gates[1], dir.string(), reports, log));

    // A CSV that disagrees with its JSON twin fails too.
    writeReport("soft", 3.0);
    writeText(dir / "reports" / "BENCH_bin_soft.csv",
              "bench,panel,row,metric,value,unit\nsoft,p,r,m,4,x\n");
    EXPECT_FALSE(checkGate(gates[1], dir.string(), reports, log));

    // Refresh: the rule floors 3.0 (>= 2), the header survives, and
    // the refreshed baseline passes its own check.
    writeReport("soft", 3.0);
    log.clear();
    ASSERT_TRUE(refreshGate(gates[1], dir.string(), reports, log))
        << log;
    EXPECT_NE(log.find("1 metric(s)"), std::string::npos) << log;
    std::string text;
    Baseline refreshed;
    ASSERT_TRUE(readFile((dir / "soft.json").string(), text));
    ASSERT_TRUE(loadBaseline(text, refreshed, err)) << err;
    EXPECT_DOUBLE_EQ(refreshed.defaultRelTol, 0.1);
    EXPECT_DOUBLE_EQ(refreshed.relTolFor("soft"), 0.2);
    ASSERT_EQ(refreshed.records.size(), 1u);
    EXPECT_EQ(refreshed.records[0].gate, Gate::Floor);
    EXPECT_EQ(refreshed.records[0].value, 3.0);
    log.clear();
    EXPECT_TRUE(checkGate(gates[1], dir.string(), reports, log));
    EXPECT_NE(log.find("0 issue(s)"), std::string::npos) << log;
    fs::remove_all(dir);
}
