//! `bench-gate`: compare freshly-run `BENCH_*.json` trajectory files
//! against checked-in baselines and fail on a throughput regression.
//!
//! ```text
//! bench-gate <baseline-dir> <fresh-dir>
//! ```
//!
//! Every `BENCH_*.json` present in the baseline directory must exist in
//! the fresh directory with the same number of `sim_requests_per_wall_sec`
//! samples; each fresh sample must reach at least `(1 - tolerance)` of
//! its baseline. The default tolerance is 0.25 (a >25% drop fails) —
//! generous because baselines are full runs on one machine while CI
//! reruns are smoke runs on shared runners; override it with the
//! `BENCH_GATE_TOLERANCE` environment variable when measuring locally.
//!
//! The serving bench additionally reports `telemetry_overhead_frac` —
//! the relative slowdown of a telemetry-observed run versus the
//! unobserved path. The gate fails when the *fresh* value exceeds an
//! absolute budget (default 0.05, i.e. observation may cost at most 5%
//! throughput); override with `BENCH_GATE_TELEMETRY_BUDGET`. This is an
//! absolute ceiling rather than a baseline ratio because the whole
//! point is that observability stays cheap, not merely no worse.
//!
//! `BENCH_million.json` carries one more check: when the fresh file is
//! a **full** run (`"smoke": 0`), its headline must clear an *absolute*
//! floor — default 40 000 sim-requests/wall-sec, the rate the pinned
//! 1M-request run sustains on the reference machine — regardless of how
//! the baseline ratio looks. Ratios forgive correlated slowdowns (a
//! slow baseline excuses a slow fresh run); the absolute floor is the
//! headline's own commitment. Smoke runs skip it (down-scaled traces
//! on shared runners measure shape, not rate). Override with
//! `BENCH_GATE_MILLION_FLOOR`.
//!
//! Every `*_overhead_frac` sample is also checked against a *floor* of
//! −2%: an overhead is a paired slowdown measurement, so a value
//! meaningfully below zero means the measurement methodology is broken
//! (unpaired arms drifting apart), not that observation sped the run
//! up. The floor admits small negative readings, which are ordinary
//! paired-measurement noise.
//!
//! Each file is parsed as JSON (`modm_trace::parse_json`) and walked
//! for every `sim_requests_per_wall_sec`, every `*_overhead_frac` and
//! `smoke`, at any depth. A file that does not parse, or a gated key
//! whose value is not a finite number (`Json` writes NaN as `null`),
//! fails the gate.

use std::path::Path;
use std::process::ExitCode;

use modm_trace::{parse_json, JsonValue};

const METRIC: &str = "sim_requests_per_wall_sec";
const TELEMETRY_METRIC: &str = "telemetry_overhead_frac";
const OVERHEAD_SUFFIX: &str = "_overhead_frac";
const DEFAULT_TOLERANCE: f64 = 0.25;
const DEFAULT_TELEMETRY_BUDGET: f64 = 0.05;
/// Floor for every `*_overhead_frac` sample: below this the paired
/// measurement itself is suspect.
const OVERHEAD_FLOOR: f64 = -0.02;
/// Absolute headline floor for a fresh *full* (non-smoke) million run.
const DEFAULT_MILLION_FLOOR: f64 = 40_000.0;

/// The gated values of one `BENCH_*.json` document, in walk order
/// (object keys sorted, array items in order).
#[derive(Debug, Default, PartialEq)]
struct Metrics {
    /// Every `sim_requests_per_wall_sec`.
    throughputs: Vec<f64>,
    /// Every `*_overhead_frac`, with its key.
    overheads: Vec<(String, f64)>,
    /// Every `smoke` flag.
    smoke: Vec<f64>,
}

impl Metrics {
    /// Parses `text` and collects its gated values.
    fn parse(text: &str) -> Result<Metrics, String> {
        let doc = parse_json(text).map_err(|e| e.to_string())?;
        let mut metrics = Metrics::default();
        metrics.walk(&doc)?;
        Ok(metrics)
    }

    fn walk(&mut self, value: &JsonValue) -> Result<(), String> {
        match value {
            JsonValue::Obj(map) => {
                for (key, value) in map {
                    let number = || match value.as_f64() {
                        Some(v) if v.is_finite() => Ok(v),
                        _ => Err(format!("\"{key}\" is {value:?}, not a finite number")),
                    };
                    if key == METRIC {
                        self.throughputs.push(number()?);
                    } else if key.ends_with(OVERHEAD_SUFFIX) {
                        self.overheads.push((key.clone(), number()?));
                    } else if key == "smoke" {
                        self.smoke.push(number()?);
                    }
                    self.walk(value)?;
                }
            }
            JsonValue::Arr(items) => {
                for item in items {
                    self.walk(item)?;
                }
            }
            _ => {}
        }
        Ok(())
    }

    /// Whether the document records a full (non-smoke) run: `"smoke": 0`.
    fn is_full_run(&self) -> bool {
        !self.smoke.is_empty() && self.smoke.iter().all(|&s| s == 0.0)
    }

    /// Every `telemetry_overhead_frac`.
    fn telemetry_overheads(&self) -> impl Iterator<Item = f64> + '_ {
        let telemetry = self.overheads.iter().filter(|(k, _)| k == TELEMETRY_METRIC);
        telemetry.map(|&(_, v)| v)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [baseline_dir, fresh_dir] = args.as_slice() else {
        eprintln!("usage: bench-gate <baseline-dir> <fresh-dir>");
        return ExitCode::from(2);
    };
    let tolerance = std::env::var("BENCH_GATE_TOLERANCE")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(DEFAULT_TOLERANCE);
    let telemetry_budget = std::env::var("BENCH_GATE_TELEMETRY_BUDGET")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(DEFAULT_TELEMETRY_BUDGET);
    let million_floor = std::env::var("BENCH_GATE_MILLION_FLOOR")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(DEFAULT_MILLION_FLOOR);

    let mut names: Vec<String> = match std::fs::read_dir(baseline_dir) {
        Ok(entries) => entries
            .filter_map(|e| e.ok())
            .filter_map(|e| e.file_name().into_string().ok())
            .filter(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
            .collect(),
        Err(err) => {
            eprintln!("bench-gate: cannot read {baseline_dir}: {err}");
            return ExitCode::FAILURE;
        }
    };
    names.sort();
    if names.is_empty() {
        eprintln!("bench-gate: no BENCH_*.json baselines in {baseline_dir}");
        return ExitCode::FAILURE;
    }

    println!(
        "{:<28} {:>14} {:>14} {:>7}   (tolerance {:.0}%)",
        "benchmark",
        "baseline",
        "fresh",
        "ratio",
        tolerance * 100.0
    );
    let mut failed = false;
    for name in &names {
        let read = |dir: &str| {
            let text = std::fs::read_to_string(Path::new(dir).join(name));
            text.map_err(|e| e.to_string())
                .and_then(|t| Metrics::parse(&t))
        };
        let baseline = match read(baseline_dir) {
            Ok(metrics) => metrics.throughputs,
            Err(err) => {
                eprintln!("bench-gate: {name}: bad baseline: {err}");
                failed = true;
                continue;
            }
        };
        let fresh_metrics = match read(fresh_dir) {
            Ok(metrics) => metrics,
            Err(err) => {
                eprintln!("bench-gate: {name}: missing or bad fresh run: {err}");
                failed = true;
                continue;
            }
        };
        let fresh = &fresh_metrics.throughputs;
        if name == "BENCH_million.json" && fresh_metrics.is_full_run() {
            for (i, new) in fresh.iter().enumerate() {
                let verdict = if *new < million_floor {
                    failed = true;
                    "FAIL"
                } else {
                    "ok"
                };
                println!(
                    "{:<28} {:>14.0} {:>14.0} {:>7}   {} (absolute floor)",
                    format!("{name} floor[{i}]"),
                    million_floor,
                    new,
                    "-",
                    verdict
                );
            }
        }
        for (i, frac) in fresh_metrics.telemetry_overheads().enumerate() {
            let verdict = if frac > telemetry_budget {
                failed = true;
                "FAIL"
            } else {
                "ok"
            };
            println!(
                "{:<28} {:>14} {:>13.1}% {:>7}   {} (budget {:.0}%)",
                format!("{name} telemetry[{i}]"),
                "-",
                frac * 100.0,
                "-",
                verdict,
                telemetry_budget * 100.0
            );
        }
        for (key, frac) in &fresh_metrics.overheads {
            if *frac < OVERHEAD_FLOOR {
                failed = true;
                println!(
                    "{:<28} {:>14} {:>13.1}% {:>7}   FAIL (floor {:.0}%: paired measurement broken)",
                    format!("{name} {key}"),
                    "-",
                    frac * 100.0,
                    "-",
                    OVERHEAD_FLOOR * 100.0
                );
            }
        }
        if baseline.len() != fresh.len() {
            eprintln!(
                "bench-gate: {name}: {} baseline samples vs {} fresh — \
                 bench shape changed, regenerate the checked-in baseline",
                baseline.len(),
                fresh.len()
            );
            failed = true;
            continue;
        }
        for (i, (base, new)) in baseline.iter().zip(fresh).enumerate() {
            let ratio = new / base;
            let verdict = if ratio < 1.0 - tolerance {
                failed = true;
                "FAIL"
            } else {
                "ok"
            };
            println!(
                "{:<28} {:>14.0} {:>14.0} {:>6.2}x   {}",
                format!("{name}[{i}]"),
                base,
                new,
                ratio,
                verdict
            );
        }
    }
    if failed {
        eprintln!(
            "\nbench-gate: throughput regression beyond {:.0}% tolerance, \
             telemetry overhead above {:.0}% budget, or an overhead \
             fraction below the {:.0}% floor",
            tolerance * 100.0,
            telemetry_budget * 100.0,
            OVERHEAD_FLOOR * 100.0
        );
        ExitCode::FAILURE
    } else {
        println!("\nbench-gate: all benchmarks within tolerance");
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::Metrics;

    fn parse(text: &str) -> Metrics {
        Metrics::parse(text).expect("a well-formed document")
    }

    #[test]
    fn extracts_nested_and_top_level_values() {
        let top = r#"{"bench": "serving", "sim_requests_per_wall_sec": 42315.6}"#;
        assert_eq!(parse(top).throughputs, vec![42315.6]);
        let nested = r#"{"points": [
            {"policy": "a", "sim_requests_per_wall_sec": 100.0, "x": 1},
            {"policy": "b", "sim_requests_per_wall_sec": 200.5}]}"#;
        assert_eq!(parse(nested).throughputs, vec![100.0, 200.5]);
        assert!(parse("{}").throughputs.is_empty());
    }

    #[test]
    fn full_runs_are_distinguished_from_smoke() {
        assert!(parse(r#"{"bench": "million", "smoke": 0}"#).is_full_run());
        assert!(parse(r#"{"smoke": 0, "completed": 1}"#).is_full_run());
        assert!(!parse(r#"{"bench": "million", "smoke": 1}"#).is_full_run());
        assert!(!parse("{}").is_full_run());
    }

    #[test]
    fn extracts_telemetry_overhead_fractions() {
        let doc = r#"{"sim_requests_per_wall_sec": 40000.0,
            "telemetry_overhead_frac": 0.0298,
            "trace_overhead_frac": 0.9}"#;
        let telemetry: Vec<f64> = parse(doc).telemetry_overheads().collect();
        assert_eq!(telemetry, vec![0.0298]);
        assert_eq!(parse("{}").telemetry_overheads().count(), 0);
    }

    #[test]
    fn extracts_every_overhead_frac_with_its_key() {
        let doc = r#"{"observer_overhead_frac": 0.01,
            "telemetry_overhead_frac": 0.0298,
            "trace_overhead_frac": -0.125}"#;
        assert_eq!(
            parse(doc).overheads,
            vec![
                ("observer_overhead_frac".to_string(), 0.01),
                ("telemetry_overhead_frac".to_string(), 0.0298),
                ("trace_overhead_frac".to_string(), -0.125),
            ]
        );
        assert!(parse("{}").overheads.is_empty());
    }

    #[test]
    fn null_or_non_numeric_gated_values_fail() {
        // `Json` writes a NaN as `null`: a gated value that is not a
        // finite number fails the file instead of vanishing from it.
        for doc in [
            r#"{"sim_requests_per_wall_sec": 40000.0, "telemetry_overhead_frac": null}"#,
            r#"{"points": [{"sim_requests_per_wall_sec": null}]}"#,
            r#"{"trace_overhead_frac": "0.01"}"#,
            r#"{"smoke": false}"#,
            r#"{"sim_requests_per_wall_sec": 1.0"#,
        ] {
            assert!(Metrics::parse(doc).is_err(), "{doc} must fail the gate");
        }
        assert!(
            Metrics::parse(r#"{"other": null}"#).is_ok(),
            "ungated keys are free"
        );
    }
}
