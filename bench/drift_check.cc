/**
 * @file
 * CLI for the bench gates (thin wrapper over common/bench_compare.hh).
 * Three modes:
 *
 *   drift_check --verify REPORT.json [--csv REPORT.csv]
 *               [--expect-bench NAME]
 *     Schema-validate one `--json` report; optionally check that the
 *     matching `--csv` output carries exactly the same records.
 *
 *   drift_check --gates bench/gates.json DIR [GATE...]
 *     For each gate of the manifest (default: all), verify
 *     DIR/BENCH_<binary>.json and its CSV twin, then diff them
 *     against the gate's baseline. Exits 1 when a report is missing
 *     or invalid, or when a blocking gate drifts (missing metric,
 *     unit mismatch, value outside its band/floor/ceiling); drift in
 *     a warn-only gate is printed but passes. New metrics only warn.
 *
 *   drift_check --refresh bench/gates.json DIR [GATE...]
 *     Rewrite each gate's baseline records from the reports in DIR,
 *     classified by the gate's refresh rules; the baseline's own
 *     tolerance header is kept. bench/gates.sh runs the benches and
 *     calls either mode.
 */

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "common/bench_compare.hh"

using namespace vrex::bench;

namespace
{

const char kUsage[] =
    "usage:\n"
    "  drift_check --verify REPORT.json [--csv REPORT.csv]"
    " [--expect-bench NAME]\n"
    "  drift_check --gates MANIFEST.json DIR [GATE...]\n"
    "  drift_check --refresh MANIFEST.json DIR [GATE...]\n";

int
verifyMode(const std::vector<std::string> &args)
{
    std::string jsonPath, csvPath, expectBench, err;
    for (size_t i = 0; i < args.size(); ++i) {
        if (args[i] == "--csv" && i + 1 < args.size())
            csvPath = args[++i];
        else if (args[i] == "--expect-bench" && i + 1 < args.size())
            expectBench = args[++i];
        else if (jsonPath.empty() && args[i][0] != '-')
            jsonPath = args[i];
        else {
            std::fputs(kUsage, stderr);
            return 2;
        }
    }
    if (jsonPath.empty()) {
        std::fputs(kUsage, stderr);
        return 2;
    }
    LoadedReport report;
    if (!loadVerifiedReport(jsonPath, csvPath, expectBench, report,
                            err)) {
        std::fprintf(stderr, "drift_check: %s\n", err.c_str());
        return 1;
    }
    std::printf("%s: valid vrex-bench-1 report, bench '%s', %zu "
                "metrics%s\n", jsonPath.c_str(), report.bench.c_str(),
                report.records.size(),
                csvPath.empty() ? "" : ", CSV matches");
    return 0;
}

/**
 * Shared front end of --gates and --refresh: load the manifest and
 * select the gates named after DIR (all of them when none is named).
 */
bool
selectGates(const std::vector<std::string> &args,
            std::vector<GateSpec> &selected, std::string &manifestDir)
{
    std::string text, err;
    std::vector<GateSpec> gates;
    if (!readFile(args[0], text))
        err = "cannot read the manifest";
    if (!err.empty() || !loadGates(text, gates, err)) {
        std::fprintf(stderr, "drift_check: %s: %s\n", args[0].c_str(),
                     err.c_str());
        return false;
    }
    const size_t slash = args[0].find_last_of('/');
    manifestDir =
        slash == std::string::npos ? "." : args[0].substr(0, slash);
    if (args.size() == 2)
        selected = gates;
    for (size_t i = 2; i < args.size(); ++i) {
        auto it = std::find_if(
            gates.begin(), gates.end(),
            [&](const GateSpec &g) { return g.name == args[i]; });
        if (it == gates.end()) {
            std::fprintf(stderr, "drift_check: no gate '%s' in %s\n",
                         args[i].c_str(), args[0].c_str());
            return false;
        }
        selected.push_back(*it);
    }
    return true;
}

int
gatesMode(const std::vector<std::string> &args, bool refresh)
{
    if (args.size() < 2) {
        std::fputs(kUsage, stderr);
        return 2;
    }
    std::vector<GateSpec> gates;
    std::string manifestDir;
    if (!selectGates(args, gates, manifestDir))
        return 2;

    size_t failed = 0;
    for (const GateSpec &gate : gates) {
        std::string log;
        const bool ok =
            refresh ? refreshGate(gate, manifestDir, args[1], log)
                    : checkGate(gate, manifestDir, args[1], log);
        std::fputs(log.c_str(), stdout);
        failed += !ok;
    }
    std::printf("drift_check: %zu gate(s), %zu failed\n", gates.size(),
                failed);
    return failed ? 1 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> args(argv + 1, argv + argc);
    if (args.empty()) {
        std::fputs(kUsage, stderr);
        return 2;
    }
    std::string mode = args[0];
    args.erase(args.begin());
    if (mode == "--verify")
        return verifyMode(args);
    if (mode == "--gates")
        return gatesMode(args, false);
    if (mode == "--refresh")
        return gatesMode(args, true);
    std::fputs(kUsage, stderr);
    return 2;
}
