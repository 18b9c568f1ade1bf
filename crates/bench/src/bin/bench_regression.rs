//! CI perf-regression gate.
//!
//! Compares the ingest/update medians of a freshly generated quick report
//! (`cargo run --release -p tps-bench --bin report -- --quick --json`)
//! against the committed baseline (`BENCH_baseline.json`, whose quick
//! report is nested under `quick_report`) and fails the build when the hot
//! path regresses:
//!
//! * per-item loop and batched ingest medians may not exceed the baseline
//!   by more than the tolerance (default ±15%, `--tolerance 0.15`);
//! * batched ingest throughput must additionally stay at ≥ 0.95× the
//!   baseline (the acceptance floor for the L2 batch engine), which is the
//!   tighter of the two bounds.
//!
//! With `--runtime <runtime.json>` the gate additionally judges the E13
//! persistent-runtime report (`report -- --runtime --json`, the
//! `BENCH_runtime.json` workload). Those checks are *self-contained
//! ratios* of two same-host wall clocks measured inside one report run,
//! so no committed baseline is involved:
//!
//! * persistent-runtime ingest must stay ≥ 0.95× the retired scoped-thread
//!   path at the acceptance shard count (4, or the largest measured);
//! * ingest throughput with a periodic consistent query (barrier, clone,
//!   fold-merge) must stay ≥ 0.9× the query-free run (the "queries cost
//!   little ingest" bar).
//!
//! ```text
//! bench_regression --baseline BENCH_baseline.json --report report.json \
//!     [--tolerance 0.15] [--runtime runtime.json]
//! ```
//!
//! Exits 0 when every metric is within bounds, 1 on regression, 2 on
//! malformed inputs.

use tps_bench::json::JsonValue;

/// One compared metric: lower is better (ns per update).
struct Metric {
    name: &'static str,
    key: &'static str,
    /// Maximum allowed current/baseline ratio.
    max_ratio: f64,
}

fn fail_usage(msg: &str) -> ! {
    eprintln!("bench_regression: {msg}");
    eprintln!(
        "usage: bench_regression --baseline <BENCH_baseline.json> --report <report.json> \
         [--tolerance 0.15] [--runtime <runtime.json>]"
    );
    std::process::exit(2);
}

fn read_json(path: &str) -> JsonValue {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| fail_usage(&format!("cannot read {path}: {e}")));
    JsonValue::parse(&text).unwrap_or_else(|e| fail_usage(&format!("cannot parse {path}: {e}")))
}

/// The `e3_update_time` object, whether the document is a bare quick
/// report or a baseline file nesting one under `quick_report`.
fn e3_section<'a>(doc: &'a JsonValue, path: &str) -> &'a JsonValue {
    doc.get_path("quick_report.e3_update_time")
        .or_else(|| doc.get("e3_update_time"))
        .unwrap_or_else(|| fail_usage(&format!("{path}: no e3_update_time section")))
}

fn metric_value(section: &JsonValue, key: &str, path: &str) -> f64 {
    let value = section
        .get(key)
        .and_then(JsonValue::as_f64)
        .unwrap_or_else(|| fail_usage(&format!("{path}: missing numeric `{key}`")));
    if value <= 0.0 || !value.is_finite() {
        fail_usage(&format!("{path}: `{key}` = {value} is not a positive time"));
    }
    value
}

/// Gates the E13 persistent-runtime report. Both checks are ratios of two
/// wall clocks measured on the same host inside the same report run, so
/// they transfer across runner hardware; the floors are the PR acceptance
/// bars, independent of `--tolerance`. Returns whether anything regressed.
fn runtime_regressed(path: &str) -> bool {
    let doc = read_json(path);
    // Accept the bare `--runtime` report, a committed baseline nesting it
    // under `runtime_report` (the `quick_report` convention), or a full
    // report carrying `e13_runtime` alongside the other experiments.
    let section = doc
        .get_path("runtime_report.e13_runtime")
        .or_else(|| doc.get("e13_runtime"))
        .unwrap_or_else(|| fail_usage(&format!("{path}: no e13_runtime section")));
    let rows = match section.get("rows") {
        Some(JsonValue::Arr(rows)) if !rows.is_empty() => rows,
        _ => fail_usage(&format!("{path}: no e13_runtime rows array")),
    };
    let acceptance_row = rows
        .iter()
        .find(|row| row.get("shards").and_then(JsonValue::as_f64) == Some(4.0))
        .unwrap_or_else(|| rows.last().unwrap());
    let shards = acceptance_row
        .get("shards")
        .and_then(JsonValue::as_f64)
        .unwrap_or(f64::NAN);
    let vs_scoped = acceptance_row
        .get("runtime_vs_scoped")
        .and_then(JsonValue::as_f64)
        .unwrap_or_else(|| fail_usage(&format!("{path}: missing runtime_vs_scoped")));
    let vs_quiet = metric_value(section, "querying_vs_quiet", path);

    let mut regressed = false;
    println!(
        "{:<44} {:>8} {:>8}  status",
        "runtime metric (higher is better)", "ratio", "floor"
    );
    for (name, ratio, floor) in [
        (
            format!("runtime vs scoped ingest, {shards:.0} shards"),
            vs_scoped,
            0.95,
        ),
        (
            "ingest w/ periodic queries vs quiet".to_string(),
            vs_quiet,
            0.90,
        ),
    ] {
        let ok = ratio.is_finite() && ratio >= floor;
        regressed |= !ok;
        println!(
            "{:<44} {:>8.3} {:>8.3}  {}",
            name,
            ratio,
            floor,
            if ok { "ok" } else { "REGRESSION" }
        );
    }
    regressed
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut baseline_path = None;
    let mut report_path = None;
    let mut runtime_path = None;
    let mut tolerance = 0.15f64;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--baseline" => baseline_path = it.next().cloned(),
            "--report" => report_path = it.next().cloned(),
            "--runtime" => runtime_path = it.next().cloned(),
            "--tolerance" => {
                tolerance = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| fail_usage("--tolerance needs a number"));
                if !(0.0..1.0).contains(&tolerance) {
                    fail_usage("--tolerance must be in [0, 1)");
                }
            }
            other => fail_usage(&format!("unknown argument `{other}`")),
        }
    }
    let baseline_path = baseline_path.unwrap_or_else(|| fail_usage("--baseline is required"));
    let report_path = report_path.unwrap_or_else(|| fail_usage("--report is required"));

    let baseline_doc = read_json(&baseline_path);
    let report_doc = read_json(&report_path);
    let baseline = e3_section(&baseline_doc, &baseline_path);
    let report = e3_section(&report_doc, &report_path);

    // Batched ingest carries the extra ≥ 0.95× throughput floor; in time
    // terms that is ≤ baseline/0.95 ns, tighter than the ±15% band.
    let metrics = [
        Metric {
            name: "per-item ingest (loop)",
            key: "truly_perfect_nanos_per_update",
            max_ratio: 1.0 + tolerance,
        },
        Metric {
            name: "batched ingest",
            key: "truly_perfect_batch_nanos_per_update",
            max_ratio: (1.0 + tolerance).min(1.0 / 0.95),
        },
    ];

    println!(
        "{:<24} {:>14} {:>14} {:>8} {:>8}  status",
        "metric", "baseline ns", "current ns", "ratio", "bound"
    );
    let mut regressed = false;
    for m in &metrics {
        let base = metric_value(baseline, m.key, &baseline_path);
        let cur = metric_value(report, m.key, &report_path);
        let ratio = cur / base;
        let ok = ratio <= m.max_ratio;
        regressed |= !ok;
        println!(
            "{:<24} {:>14.3} {:>14.3} {:>8.3} {:>8.3}  {}",
            m.name,
            base,
            cur,
            ratio,
            m.max_ratio,
            if ok { "ok" } else { "REGRESSION" }
        );
    }
    let batch_melem =
        1_000.0 / metric_value(report, "truly_perfect_batch_nanos_per_update", &report_path);
    println!("batched ingest throughput: {batch_melem:.1} Melem/s");

    if let Some(runtime_path) = runtime_path {
        regressed |= runtime_regressed(&runtime_path);
    }

    if regressed {
        eprintln!(
            "bench_regression: hot-path medians regressed beyond tolerance \
             (baseline {baseline_path})"
        );
        std::process::exit(1);
    }
    println!("bench_regression: all metrics within tolerance");
}
