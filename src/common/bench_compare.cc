#include "common/bench_compare.hh"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "common/bench_report.hh"
#include "common/json_lite.hh"

namespace vrex::bench
{

namespace
{

const char kReportSchema[] = "vrex-bench-1";
const char kBaselineSchema[] = "vrex-bench-baseline-1";
const char kGatesSchema[] = "vrex-bench-gates-1";

bool
parseGate(const std::string &text, Gate &out)
{
    if (text == "band")
        out = Gate::Band;
    else if (text == "floor")
        out = Gate::Floor;
    else if (text == "ceiling")
        out = Gate::Ceiling;
    else if (text == "info")
        out = Gate::Info;
    else
        return false;
    return true;
}

/**
 * Convert one JSON record object into a Record. `reportBench` is the
 * enclosing report's bench name ("" for baselines, which mix benches).
 */
bool
recordFromJson(const json::Value &v, const std::string &reportBench,
               Record &out, std::string &err)
{
    if (!v.isObject()) {
        err = "metric record is not an object";
        return false;
    }
    for (const char *field : {"bench", "panel", "row", "metric"}) {
        const json::Value *f = v.find(field);
        if (!f || !f->isString()) {
            err = std::string("record field '") + field +
                  "' missing or not a string";
            return false;
        }
    }
    const json::Value *value = v.find("value");
    if (!value || !(value->isNumber() || value->isNull())) {
        err = "record field 'value' missing or not a number/null";
        return false;
    }
    const json::Value *unit = v.find("unit");
    if (!unit || !unit->isString()) {
        err = "record field 'unit' missing or not a string";
        return false;
    }
    out.bench = v.find("bench")->str();
    out.panel = v.find("panel")->str();
    out.row = v.find("row")->str();
    out.metric = v.find("metric")->str();
    out.value = value->isNull()
        ? std::numeric_limits<double>::quiet_NaN() : value->number();
    out.unit = unit->str();
    out.gate = Gate::Band;
    if (const json::Value *gate = v.find("gate")) {
        if (!gate->isString() ||
            !parseGate(gate->str(), out.gate)) {
            err = "record field 'gate' must be one of "
                  "band/floor/ceiling/info";
            return false;
        }
    }
    if (!reportBench.empty() && out.bench != reportBench) {
        err = "record bench '" + out.bench +
              "' does not match report bench '" + reportBench + "'";
        return false;
    }
    return true;
}

bool
hasDuplicateKeys(const std::vector<Record> &records, std::string &dup)
{
    std::unordered_set<std::string> seen;
    for (const auto &r : records) {
        if (!seen.insert(r.key()).second) {
            dup = r.pretty();
            return true;
        }
    }
    return false;
}

} // namespace

const char *
gateName(Gate gate)
{
    switch (gate) {
      case Gate::Band:
        return "band";
      case Gate::Floor:
        return "floor";
      case Gate::Ceiling:
        return "ceiling";
      case Gate::Info:
        return "info";
    }
    return "unknown";
}

std::string
Record::key() const
{
    return bench + '\x1f' + panel + '\x1f' + row + '\x1f' + metric;
}

std::string
Record::pretty() const
{
    return bench + "/" + panel + "/" + row + "/" + metric;
}

bool
loadReport(const std::string &jsonText, LoadedReport &out,
           std::string &err)
{
    json::Value doc = json::parse(jsonText, &err);
    if (!doc.isObject()) {
        if (err.empty())
            err = "report is not a JSON object";
        return false;
    }
    if (doc.strOr("schema", "") != kReportSchema) {
        err = "missing or unsupported schema tag (want vrex-bench-1)";
        return false;
    }
    out.bench = doc.strOr("bench", "");
    if (out.bench.empty()) {
        err = "missing 'bench' name";
        return false;
    }
    const json::Value *metrics = doc.find("metrics");
    if (!metrics || !metrics->isArray()) {
        err = "missing 'metrics' array";
        return false;
    }
    out.records.clear();
    for (const auto &m : metrics->array()) {
        Record r;
        if (!recordFromJson(m, out.bench, r, err))
            return false;
        out.records.push_back(std::move(r));
    }
    std::string dup;
    if (hasDuplicateKeys(out.records, dup)) {
        err = "duplicate record " + dup;
        return false;
    }
    return true;
}

namespace
{

/** Split one CSV line; handles quoted fields with doubled quotes. */
bool
splitCsvLine(const std::string &line, std::vector<std::string> &fields,
             std::string &err)
{
    fields.clear();
    std::string cur;
    bool quoted = false;
    for (size_t i = 0; i < line.size(); ++i) {
        char c = line[i];
        if (quoted) {
            if (c == '"') {
                if (i + 1 < line.size() && line[i + 1] == '"') {
                    cur += '"';
                    ++i;
                } else {
                    quoted = false;
                }
            } else {
                cur += c;
            }
        } else if (c == '"' && cur.empty()) {
            quoted = true;
        } else if (c == ',') {
            fields.push_back(cur);
            cur.clear();
        } else {
            cur += c;
        }
    }
    if (quoted) {
        err = "unterminated quoted CSV field";
        return false;
    }
    fields.push_back(cur);
    return true;
}

} // namespace

bool
loadCsv(const std::string &csvText, std::vector<Record> &out,
        std::string &err)
{
    out.clear();
    size_t pos = 0;
    size_t lineNo = 0;
    bool sawHeader = false;
    while (pos < csvText.size()) {
        size_t end = csvText.find('\n', pos);
        if (end == std::string::npos)
            end = csvText.size();
        std::string line = csvText.substr(pos, end - pos);
        if (!line.empty() && line.back() == '\r')
            line.pop_back();
        pos = end + 1;
        ++lineNo;
        if (line.empty())
            continue;
        std::vector<std::string> f;
        if (!splitCsvLine(line, f, err)) {
            err += " on line " + std::to_string(lineNo);
            return false;
        }
        if (!sawHeader) {
            if (line != "bench,panel,row,metric,value,unit") {
                err = "bad CSV header '" + line + "'";
                return false;
            }
            sawHeader = true;
            continue;
        }
        if (f.size() != 6) {
            err = "expected 6 CSV fields on line " +
                  std::to_string(lineNo);
            return false;
        }
        Record r;
        r.bench = f[0];
        r.panel = f[1];
        r.row = f[2];
        r.metric = f[3];
        r.unit = f[5];
        char *endp = nullptr;
        r.value = std::strtod(f[4].c_str(), &endp);
        if (f[4].empty() || endp != f[4].c_str() + f[4].size()) {
            err = "bad CSV value '" + f[4] + "' on line " +
                  std::to_string(lineNo);
            return false;
        }
        out.push_back(std::move(r));
    }
    if (!sawHeader) {
        err = "empty CSV document";
        return false;
    }
    std::string dup;
    if (hasDuplicateKeys(out, dup)) {
        err = "duplicate record " + dup;
        return false;
    }
    return true;
}

bool
sameRecords(const LoadedReport &jsonReport,
            const std::vector<Record> &csv, std::string &err)
{
    if (jsonReport.records.size() != csv.size()) {
        err = "JSON has " + std::to_string(jsonReport.records.size()) +
              " records, CSV has " + std::to_string(csv.size());
        return false;
    }
    for (size_t i = 0; i < csv.size(); ++i) {
        const Record &a = jsonReport.records[i];
        const Record &b = csv[i];
        if (a.key() != b.key() || a.unit != b.unit) {
            err = "record " + std::to_string(i) + " differs: " +
                  a.pretty() + " vs " + b.pretty();
            return false;
        }
        bool equal = a.value == b.value ||
                     (std::isnan(a.value) && std::isnan(b.value));
        if (!equal) {
            err = "record " + a.pretty() + " value differs: " +
                  formatValue(a.value) + " vs " + formatValue(b.value);
            return false;
        }
    }
    return true;
}

double
Baseline::relTolFor(const std::string &bench) const
{
    for (const auto &[name, tol] : benchRelTol) {
        if (name == bench)
            return tol;
    }
    return defaultRelTol;
}

bool
loadBaseline(const std::string &jsonText, Baseline &out,
             std::string &err)
{
    json::Value doc = json::parse(jsonText, &err);
    if (!doc.isObject()) {
        if (err.empty())
            err = "baseline is not a JSON object";
        return false;
    }
    if (doc.strOr("schema", "") != kBaselineSchema) {
        err = "missing or unsupported baseline schema tag "
              "(want vrex-bench-baseline-1)";
        return false;
    }
    out.defaultRelTol = doc.numberOr("default_rel_tol", 0.05);
    out.defaultAbsTol = doc.numberOr("default_abs_tol", 1e-6);
    out.benchRelTol.clear();
    if (const json::Value *tols = doc.find("bench_rel_tol")) {
        if (!tols->isObject()) {
            err = "'bench_rel_tol' is not an object";
            return false;
        }
        for (const auto &[name, tol] : tols->members()) {
            if (!tol.isNumber()) {
                err = "bench_rel_tol." + name + " is not a number";
                return false;
            }
            out.benchRelTol.emplace_back(name, tol.number());
        }
    }
    const json::Value *metrics = doc.find("metrics");
    if (!metrics || !metrics->isArray()) {
        err = "missing 'metrics' array";
        return false;
    }
    out.records.clear();
    for (const auto &m : metrics->array()) {
        Record r;
        if (!recordFromJson(m, "", r, err))
            return false;
        out.records.push_back(std::move(r));
    }
    std::string dup;
    if (hasDuplicateKeys(out.records, dup)) {
        err = "duplicate record " + dup;
        return false;
    }
    return true;
}

std::string
renderBaseline(const Baseline &b)
{
    std::string out = "{\n";
    out += "  \"schema\": \"vrex-bench-baseline-1\",\n";
    out += "  \"default_rel_tol\": " + formatValue(b.defaultRelTol) +
           ",\n";
    out += "  \"default_abs_tol\": " + formatValue(b.defaultAbsTol) +
           ",\n";
    out += "  \"bench_rel_tol\": {";
    for (size_t i = 0; i < b.benchRelTol.size(); ++i) {
        out += i ? ", " : "";
        out += json::quote(b.benchRelTol[i].first) + ": " +
               formatValue(b.benchRelTol[i].second);
    }
    out += "},\n";
    out += "  \"metrics\": [";
    for (size_t i = 0; i < b.records.size(); ++i) {
        const Record &r = b.records[i];
        out += i ? ",\n    " : "\n    ";
        out += "{\"bench\": " + json::quote(r.bench);
        out += ", \"panel\": " + json::quote(r.panel);
        out += ", \"row\": " + json::quote(r.row);
        out += ", \"metric\": " + json::quote(r.metric);
        out += ", \"value\": ";
        out += std::isfinite(r.value) ? formatValue(r.value) : "null";
        out += ", \"unit\": " + json::quote(r.unit);
        if (r.gate != Gate::Band)
            out += std::string(", \"gate\": \"") + gateName(r.gate) +
                   "\"";
        out += "}";
    }
    out += b.records.empty() ? "]\n" : "\n  ]\n";
    out += "}\n";
    return out;
}

std::string
DriftIssue::describe() const
{
    switch (kind) {
      case Kind::MissingMetric:
        return "missing metric " + base.pretty() + " (baseline " +
               formatValue(base.value) + base.unit + ")";
      case Kind::UnitMismatch:
        return "unit mismatch for " + base.pretty() + ": baseline '" +
               base.unit + "'";
      case Kind::OutOfTolerance:
        switch (base.gate) {
          case Gate::Floor:
            return "below floor for " + base.pretty() + ": floor " +
                   formatValue(base.value) + base.unit + ", got " +
                   formatValue(got) + base.unit;
          case Gate::Ceiling:
            return "above ceiling for " + base.pretty() +
                   ": ceiling " + formatValue(base.value) + base.unit +
                   ", got " + formatValue(got) + base.unit;
          default:
            break;
        }
        return "drift in " + base.pretty() + ": baseline " +
               formatValue(base.value) + base.unit + ", got " +
               formatValue(got) + base.unit;
    }
    return "unknown issue";
}

DriftReport
compareToBaseline(const Baseline &baseline,
                  const std::vector<LoadedReport> &runs)
{
    DriftReport report;

    std::unordered_map<std::string, const Record *> candidates;
    std::unordered_set<std::string> runBenches;
    for (const auto &run : runs) {
        runBenches.insert(run.bench);
        for (const auto &r : run.records)
            candidates.emplace(r.key(), &r);
    }

    std::unordered_set<std::string> baselineKeys;
    std::unordered_set<std::string> baselineBenches;
    for (const Record &base : baseline.records) {
        baselineKeys.insert(base.key());
        baselineBenches.insert(base.bench);
        if (!runBenches.count(base.bench))
            continue;  // That bench was not part of this run.
        ++report.compared;
        auto it = candidates.find(base.key());
        if (it == candidates.end()) {
            report.issues.push_back(
                {DriftIssue::Kind::MissingMetric, base, 0.0});
            continue;
        }
        const Record &got = *it->second;
        if (got.unit != base.unit) {
            report.issues.push_back(
                {DriftIssue::Kind::UnitMismatch, base, got.value});
            continue;
        }
        if (base.gate == Gate::Info)
            continue;  // Recorded for humans; never compared.
        if (std::isnan(base.value) && std::isnan(got.value))
            continue;
        double tol = std::max(
            baseline.defaultAbsTol,
            baseline.relTolFor(base.bench) * std::fabs(base.value));
        bool out_of_gate = false;
        switch (base.gate) {
          case Gate::Band:
            out_of_gate = !(std::fabs(got.value - base.value) <= tol);
            break;
          case Gate::Floor:
            out_of_gate = !(got.value >= base.value - tol);
            break;
          case Gate::Ceiling:
            out_of_gate = !(got.value <= base.value + tol);
            break;
          case Gate::Info:
            break;
        }
        if (out_of_gate) {
            report.issues.push_back(
                {DriftIssue::Kind::OutOfTolerance, base, got.value});
        }
    }

    for (const auto &run : runs) {
        if (!baselineBenches.count(run.bench))
            report.benchesWithoutBaseline.push_back(run.bench);
        for (const auto &r : run.records) {
            if (!baselineKeys.count(r.key()))
                ++report.newMetrics;
        }
    }
    return report;
}

bool
readFile(const std::string &path, std::string &out)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    out = ss.str();
    return static_cast<bool>(in);
}

namespace
{

bool
loadBaselineFile(const std::string &path, Baseline &baseline,
                 std::string &err)
{
    std::string text;
    err.clear();
    if (readFile(path, text) && loadBaseline(text, baseline, err))
        return true;
    err = path + ": " + (err.empty() ? "cannot read baseline" : err);
    return false;
}

/** Parse one refresh rule; each key must be known and well-typed. */
bool
ruleFromJson(const json::Value &v, RefreshRule &rule)
{
    bool hasGate = false;
    for (const auto &[key, f] : v.members()) {
        const bool str = f.isString();
        if (key == "panel" && str)
            rule.panel = f.str();
        else if (key == "metric" && str)
            rule.metric = f.str();
        else if (key == "unit" && str)
            rule.unit = f.str();
        else if (key == "rows" && f.isArray()) {
            for (const auto &row : f.array()) {
                if (!row.isString())
                    return false;
                rule.rows.push_back(row.str());
            }
        } else if (key == "at_least" && f.isNumber())
            rule.atLeast = f.number();
        else if (key == "scale" && f.isNumber())
            rule.scale = f.number();
        else if (key == "gate" && str && parseGate(f.str(), rule.gate))
            hasGate = true;
        else
            return false;
    }
    return v.isObject() && hasGate;
}

/** Parse one gate entry; sets `err` (without location) on failure. */
bool
gateFromJson(const json::Value &v, GateSpec &gate, std::string &err)
{
    for (const auto &[key, f] : v.members()) {
        if (key == "name" && f.isString()) {
            gate.name = f.str();
        } else if (key == "baseline" && f.isString()) {
            gate.baseline = f.str();
        } else if (key == "blocking" && f.isBool()) {
            gate.blocking = f.boolean();
        } else if (key == "benches" && f.isObject()) {
            for (const auto &[binary, bench] : f.members()) {
                if (!bench.isString() || bench.str().empty()) {
                    err = "bench '" + binary + "' needs a report name";
                    return false;
                }
                gate.benches.emplace_back(binary, bench.str());
            }
        } else if (key == "refresh" && f.isArray()) {
            for (const auto &r : f.array()) {
                gate.refresh.emplace_back();
                if (!ruleFromJson(r, gate.refresh.back())) {
                    err = "malformed refresh rule";
                    return false;
                }
            }
        } else {
            err = "unknown or ill-typed key '" + key + "'";
            return false;
        }
    }
    if (gate.name.empty() || gate.baseline.empty() ||
        gate.benches.empty())
        err = "needs a name, a baseline path and benches";
    return v.isObject() && err.empty();
}

} // namespace

bool
loadVerifiedReport(const std::string &jsonPath,
                   const std::string &csvPath,
                   const std::string &expectBench, LoadedReport &report,
                   std::string &err)
{
    std::string text;
    std::vector<Record> csv;
    if (!readFile(jsonPath, text))
        err = "missing report " + jsonPath;
    else if (!loadReport(text, report, err))
        err = jsonPath + ": " + err;
    else if (!expectBench.empty() && report.bench != expectBench)
        err = jsonPath + " reports bench '" + report.bench +
              "', expected '" + expectBench + "'";
    else if (csvPath.empty())
        return true;
    else if (!readFile(csvPath, text))
        err = "missing report " + csvPath;
    else if (!loadCsv(text, csv, err))
        err = csvPath + ": " + err;
    else if (!sameRecords(report, csv, err))
        err = "JSON/CSV mismatch for " + jsonPath + ": " + err;
    else
        return true;
    return false;
}

bool
loadGates(const std::string &jsonText, std::vector<GateSpec> &out,
          std::string &err)
{
    err.clear();
    json::Value doc = json::parse(jsonText, &err);
    if (!err.empty())
        return false;
    const json::Value *gates = doc.find("gates");
    if (doc.strOr("schema", "") != kGatesSchema || !gates ||
        !gates->isArray() || doc.members().size() != 2) {
        err = "want {\"schema\": \"vrex-bench-gates-1\", \"gates\": [...]}";
        return false;
    }
    out.clear();
    std::unordered_set<std::string> names, binaries;
    for (const auto &v : gates->array()) {
        GateSpec gate;
        if (!gateFromJson(v, gate, err)) {
            err = "gate '" + gate.name + "': " + err;
            return false;
        }
        if (!names.insert(gate.name).second) {
            err = "gate '" + gate.name + "' listed twice";
            return false;
        }
        for (const auto &bench : gate.benches) {
            if (!binaries.insert(bench.first).second) {
                err = "bench '" + bench.first + "' listed in two gates";
                return false;
            }
        }
        out.push_back(std::move(gate));
    }
    return true;
}

Record
refreshRecord(const GateSpec &gate, Record r)
{
    r.gate = Gate::Band;
    for (const RefreshRule &rule : gate.refresh) {
        const bool matches =
            (rule.panel.empty() || rule.panel == r.panel) &&
            (rule.metric.empty() || rule.metric == r.metric) &&
            (rule.unit.empty() || rule.unit == r.unit) &&
            (rule.rows.empty() ||
             std::find(rule.rows.begin(), rule.rows.end(), r.row) !=
                 rule.rows.end());
        if (!matches)
            continue;
        if (rule.atLeast && !(r.value >= *rule.atLeast)) {
            r.gate = Gate::Info;
        } else {
            r.gate = rule.gate;
            r.value *= rule.scale;
        }
        break;
    }
    return r;
}

bool
checkGate(const GateSpec &gate, const std::string &manifestDir,
          const std::string &reportDir, std::string &log)
{
    std::vector<std::string> errors;
    std::string err;
    Baseline baseline;
    if (!loadBaselineFile(manifestDir + "/" + gate.baseline, baseline,
                          err))
        errors.push_back(err);
    std::vector<LoadedReport> runs(gate.benches.size());
    for (size_t i = 0; i < runs.size(); ++i) {
        const std::string stem =
            reportDir + "/BENCH_" + gate.benches[i].first;
        if (!loadVerifiedReport(stem + ".json", stem + ".csv",
                                gate.benches[i].second, runs[i], err))
            errors.push_back(err);
    }
    DriftReport drift;
    if (errors.empty())
        drift = compareToBaseline(baseline, runs);
    for (const auto &e : errors)
        log += "ERROR: " + e + "\n";
    for (const auto &issue : drift.issues)
        log += "DRIFT: " + issue.describe() + "\n";
    for (const auto &bench : drift.benchesWithoutBaseline)
        log += "warning: bench '" + bench + "' has no baseline records\n";
    if (drift.newMetrics)
        log += "warning: " + std::to_string(drift.newMetrics) +
               " metric(s) not in the baseline (refresh to gate them)\n";
    const bool ok = errors.empty() && (drift.ok() || !gate.blocking);
    log += gate.name + (gate.blocking ? "" : " (warn-only)") + ": " +
           std::to_string(drift.compared) + " metric(s) compared, " +
           std::to_string(drift.issues.size()) + " issue(s)" +
           (ok ? "" : ", FAILED") + "\n";
    return ok;
}

bool
refreshGate(const GateSpec &gate, const std::string &manifestDir,
            const std::string &reportDir, std::string &log)
{
    const std::string path = manifestDir + "/" + gate.baseline;
    std::string err;
    Baseline baseline;
    bool ok = loadBaselineFile(path, baseline, err);
    baseline.records.clear();
    for (const auto &[binary, bench] : gate.benches) {
        LoadedReport report;
        ok = ok && loadVerifiedReport(reportDir + "/BENCH_" + binary +
                                          ".json",
                                      "", bench, report, err);
        for (auto &r : report.records)
            baseline.records.push_back(refreshRecord(gate, std::move(r)));
    }
    if (ok) {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        ok = out && (out << renderBaseline(baseline)).flush();
        if (!ok)
            err = "cannot write " + path;
    }
    log += ok ? gate.name + ": wrote " + path + ", " +
                    std::to_string(baseline.records.size()) +
                    " metric(s)\n"
              : "ERROR: " + gate.name + ": " + err + "\n";
    return ok;
}

} // namespace vrex::bench
