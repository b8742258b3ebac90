/**
 * @file
 * Reader-side of the bench reporting subsystem: load and validate
 * `vrex-bench-1` reports, cross-check CSV output, diff a run against
 * a checked-in `vrex-bench-baseline-1` document with tolerance bands,
 * and drive the bench-gate manifest (`bench/gates.json`), which names
 * every baseline, the bench binaries it gates, whether its drift
 * blocks, and the rules that classify records when it is refreshed.
 * The `drift_check` CLI in bench/ is a thin wrapper over this.
 */

#ifndef VREX_COMMON_BENCH_COMPARE_HH
#define VREX_COMMON_BENCH_COMPARE_HH

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace vrex::bench
{

/**
 * How a baseline record is enforced by compareToBaseline. The figure
 * baseline uses the default two-sided Band everywhere; the kernel
 * perf baseline (bench/perf_baseline.json) marks speedup ratios as
 * Floor (only a drop below baseline - tol fails) and raw ns/op
 * timings as Info (recorded for trend reading, never compared —
 * wall-clock numbers are machine-relative).
 */
enum class Gate : uint8_t
{
    Band = 0,  //!< |got - base| must stay within the tolerance.
    Floor,     //!< got must not drop below base - tolerance.
    Ceiling,   //!< got must not rise above base + tolerance.
    Info,      //!< Presence/unit checked; value never compared.
};

/** One metric record with its owning bench (the baseline spans all). */
struct Record
{
    std::string bench;
    std::string panel;
    std::string row;
    std::string metric;
    double value = 0.0;  // NaN when the report stored null.
    std::string unit;
    /** Enforcement mode; only meaningful on baseline records. */
    Gate gate = Gate::Band;

    std::string key() const;    // Identity: bench/panel/row/metric.
    std::string pretty() const; // Identity for error messages.
};

/** Lower-case gate name ("band", "floor", "ceiling", "info"). */
const char *gateName(Gate gate);

/** A parsed --json report from one bench binary. */
struct LoadedReport
{
    std::string bench;
    std::vector<Record> records;
};

/**
 * Parse and schema-validate one report document. Returns false and
 * sets `err` when the document is not valid vrex-bench-1 (wrong
 * schema tag, missing/ill-typed fields, record bench mismatching the
 * report bench, or duplicate record identities).
 */
bool loadReport(const std::string &jsonText, LoadedReport &out,
                std::string &err);

/** Parse a --csv file into records (same validation as loadReport). */
bool loadCsv(const std::string &csvText, std::vector<Record> &out,
             std::string &err);

/**
 * Check that a JSON report and a CSV report carry exactly the same
 * records (the round-trip CI asserts). Order must match too: both
 * writers emit insertion order.
 */
bool sameRecords(const LoadedReport &json,
                 const std::vector<Record> &csv, std::string &err);

/** The checked-in drift reference plus its tolerance policy. */
struct Baseline
{
    double defaultRelTol = 0.05;
    double defaultAbsTol = 1e-6;
    /** Per-bench relative-tolerance overrides (noisier benches). */
    std::vector<std::pair<std::string, double>> benchRelTol;
    std::vector<Record> records;

    double relTolFor(const std::string &bench) const;
};

bool loadBaseline(const std::string &jsonText, Baseline &out,
                  std::string &err);

/** Serialize a Baseline back to its vrex-bench-baseline-1 document. */
std::string renderBaseline(const Baseline &b);

/** One detected divergence between a run and the baseline. */
struct DriftIssue
{
    enum class Kind { MissingMetric, UnitMismatch, OutOfTolerance };
    Kind kind;
    Record base;
    double got = 0.0;  // Meaningful for OutOfTolerance only.
    std::string describe() const;
};

struct DriftReport
{
    std::vector<DriftIssue> issues;
    size_t compared = 0;
    size_t newMetrics = 0;  // Present in the run, absent in baseline.
    /** Benches that produced a report but have no baseline records. */
    std::vector<std::string> benchesWithoutBaseline;

    bool ok() const { return issues.empty(); }
};

/**
 * Diff candidate reports against the baseline. Only baseline records
 * whose bench actually produced a candidate report are enforced, so a
 * partial run (one figure) can still be gated. A metric passes when
 * |got - base| <= max(defaultAbsTol, relTol(bench) * |base|), or when
 * both sides are non-finite.
 */
DriftReport compareToBaseline(const Baseline &baseline,
                              const std::vector<LoadedReport> &runs);

/** Read a whole file; false when it cannot be opened or read. */
bool readFile(const std::string &path, std::string &out);

/**
 * Read and validate one `--json` report; a non-empty @p expectBench
 * must match its bench name, and a non-empty @p csvPath must hold the
 * same records (the JSON/CSV round trip CI asserts).
 */
bool loadVerifiedReport(const std::string &jsonPath,
                        const std::string &csvPath,
                        const std::string &expectBench,
                        LoadedReport &report, std::string &err);

/**
 * One refresh rule of a gate. It matches a record when every selector
 * it sets equals the record's field (`rows`: any listed row); the
 * record then gets `gate` at value * `scale`, or Info at its measured
 * value when that is below `atLeast`.
 */
struct RefreshRule
{
    std::string panel, metric, unit;  //!< Selectors; empty = any.
    std::vector<std::string> rows;    //!< Selector; empty = any.
    std::optional<double> atLeast;
    double scale = 1.0;
    Gate gate = Gate::Band;
};

/** One entry of the bench-gate manifest (bench/gates.json). */
struct GateSpec
{
    std::string name;
    std::string baseline;  //!< Relative to the manifest's directory.
    bool blocking = true;  //!< Drift fails the check only if blocking.
    /** (bench binary, report bench name), in baseline record order. */
    std::vector<std::pair<std::string, std::string>> benches;
    /** First match wins; an unmatched record refreshes to Band. */
    std::vector<RefreshRule> refresh;
};

/**
 * Parse a `vrex-bench-gates-1` manifest. Rejects unknown or ill-typed
 * keys, a gate without name, baseline path or benches, duplicate gate
 * names, and a bench binary listed twice.
 */
bool loadGates(const std::string &jsonText, std::vector<GateSpec> &out,
               std::string &err);

/** Classify one run record by @p gate's refresh rules. */
Record refreshRecord(const GateSpec &gate, Record r);

/**
 * Check @p gate: verify DIR/BENCH_<binary>.json and .csv of each of
 * its benches, then diff them against its baseline (relative to
 * @p manifestDir). Appends ERROR/DRIFT/warning lines and a summary
 * to @p log. False on any error, or on drift in a blocking gate.
 */
bool checkGate(const GateSpec &gate, const std::string &manifestDir,
               const std::string &reportDir, std::string &log);

/**
 * Rewrite @p gate's baseline records from DIR/BENCH_<binary>.json
 * through refreshRecord(), keeping the file's tolerance header.
 * Appends one line to @p log; false on a missing/invalid report or
 * an unreadable/unwritable baseline.
 */
bool refreshGate(const GateSpec &gate, const std::string &manifestDir,
                 const std::string &reportDir, std::string &log);

} // namespace vrex::bench

#endif // VREX_COMMON_BENCH_COMPARE_HH
