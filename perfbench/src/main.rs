//! `parchmint-perfbench`: one command that measures the ParchMint
//! workspace end to end and layer by layer, and checks every output.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload suite_sweep|fpva_ingest|serve_resubmit \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! Run it from the repository root. With `--trace 0` it reports the
//! end-to-end metrics, with `--trace 1` the per-layer ones. The last line
//! of standard output is the JSON result; the lines before it are the
//! machine fingerprint and a readable summary. The exit code is 0 only
//! when every output matched its reference. See README.md for why each
//! workload exists and which layer should move which metric.

mod ingest;
mod layers;
mod record;
mod serve;
mod stats;
mod sweep;

use serde_json::{Map, Value};
use stats::Tally;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

/// What every workload is given.
#[derive(Debug, Clone)]
pub struct Config {
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Worker threads and client connections (one per core).
    pub threads: usize,
    /// The checkout root: where `ci/` is read and the ledger is kept.
    pub root: PathBuf,
    /// A reduced run for the benchmark's own tests; never from the CLI.
    pub smoke: bool,
}

/// The end-to-end metrics and their units, as `BENCHMARK.json` declares
/// them. Every workload reports all of them without `--trace`; each means
/// the same thing on every workload (README.md says what one pass is).
pub const END_TO_END: [(&str, &str); 3] =
    [("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB")];

/// The per-layer metrics and their units, as `BENCHMARK.json` declares
/// them. Every workload reports all of them with `--trace`: a layer the
/// workload bypasses did no work in it, so its metrics read 0 there.
pub const PER_LAYER: [(&str, &str); 39] = [
    ("suite.generate_ms", "ms"),
    ("core.parse_ms", "ms"),
    ("core.parse_mb_per_s", "MB/s"),
    ("core.compile_ms", "ms"),
    ("mint.parse_convert_ms", "ms"),
    ("verify.validate_ms", "ms"),
    ("stats.characterize_ms", "ms"),
    ("sim.flow_ms", "ms"),
    ("control.plan_ms", "ms"),
    ("pnr.place_ms.greedy", "ms"),
    ("pnr.place_ms.annealing", "ms"),
    ("pnr.route_ms.straight", "ms"),
    ("pnr.route_ms.astar", "ms"),
    ("pnr.route_ms.negotiate", "ms"),
    ("pnr.route.expansions", "count"),
    ("pnr.route.ripup_rounds", "count"),
    ("pnr.failed_nets", "count"),
    ("harness.sweep.cell_s_sum", "s"),
    ("harness.sweep.straggler_s", "s"),
    ("harness.sweep.efficiency", "ratio"),
    ("harness.batch.efficiency", "ratio"),
    ("serve.request_parse_ms", "ms"),
    ("serve.hash_ms", "ms"),
    ("serve.service_ms.hit", "ms"),
    ("serve.service_ms.miss", "ms"),
    ("serve.wire_ms.hit", "ms"),
    ("serve.tcp_ms.hit_p50", "ms"),
    ("serve.tcp_ms.hit_p99", "ms"),
    ("serve.tcp_ms.miss_p50", "ms"),
    ("serve.cache.hit_ratio", "ratio"),
    ("serve.compile.executed", "count"),
    ("serve.coalesced", "count"),
    ("serve.busy_refusals", "count"),
    ("serve.peak_in_flight", "count"),
    ("serve.hit_share", "ratio"),
    ("serve.samples.hit", "count"),
    ("serve.samples.miss", "count"),
    ("obs.trace_overhead_pct", "%"),
    ("error_rate", "ratio"),
];

/// What a workload hands back.
#[derive(Debug, Default)]
pub struct Outcome {
    pub tally: Tally,
    /// `(name, value, unit)`: the end-to-end metrics without `--trace`,
    /// the per-layer metrics with it.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// The per-layer metrics of layers the workload bypasses, reported
    /// as 0.
    pub bypassed: Vec<&'static str>,
    /// Work counters that must repeat exactly at the same seed.
    pub counters: BTreeMap<String, u64>,
    /// Readable context: sample counts, the straggler, the hit share.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    pub fn note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }
}

type Workload = fn(&Config) -> Result<Outcome, String>;

/// The workloads, in the order README.md describes them.
pub const WORKLOADS: [(&str, Workload); 3] = [
    ("suite_sweep", sweep::run),
    ("fpva_ingest", ingest::run),
    ("serve_resubmit", serve::run),
];

/// Runs one workload and completes its outcome with what every workload
/// reports: peak memory, the error rate, the layers it bypasses, and the
/// ledger check of its work counters.
pub fn measure(name: &str, config: &Config) -> Result<Outcome, String> {
    let (_, workload) = WORKLOADS
        .iter()
        .find(|(known, _)| *known == name)
        .ok_or_else(|| format!("unknown workload `{name}`"))?;
    let mut outcome = workload(config)?;
    if config.trace {
        outcome.metric("error_rate", outcome.tally.error_rate(), "ratio");
        for (layer_metric, unit) in PER_LAYER {
            if !outcome
                .metrics
                .iter()
                .any(|(name, ..)| *name == layer_metric)
            {
                outcome.metric(layer_metric, 0.0, unit);
                outcome.bypassed.push(layer_metric);
            }
        }
        if !outcome.bypassed.is_empty() {
            let list = outcome.bypassed.join(", ");
            outcome.note(format!("bypassed, reported as 0: {list}"));
        }
    } else {
        outcome.metric("peak_rss_mb", record::peak_rss_mb()?, "MB");
    }
    if !config.smoke {
        let build = record::build_id()?;
        let changed =
            record::check_ledger(&config.root, build, name, config.seed, &outcome.counters)?;
        for message in changed {
            outcome.tally.check(false);
            outcome.note(message);
        }
    }
    Ok(outcome)
}

fn result_line(outcome: &Outcome) -> String {
    let mut metrics = Map::new();
    for (name, value, unit) in &outcome.metrics {
        let mut entry = Map::new();
        entry.insert("value".to_string(), Value::from(*value));
        entry.insert("unit".to_string(), Value::from(*unit));
        metrics.insert(name.to_string(), Value::Object(entry));
    }
    let mut object = Map::new();
    object.insert(
        "correct".to_string(),
        Value::from(outcome.tally.failed == 0),
    );
    object.insert(
        "attempted".to_string(),
        Value::from(outcome.tally.attempted),
    );
    object.insert("failed".to_string(), Value::from(outcome.tally.failed));
    object.insert("metrics".to_string(), Value::Object(metrics));
    serde_json::to_string(&Value::Object(object)).expect("result encodes")
}

fn parse_args(args: &[String]) -> Result<(String, Config), String> {
    let mut values: BTreeMap<&str, &str> = BTreeMap::new();
    let mut rest = args.iter();
    while let Some(flag) = rest.next() {
        let key = match flag.as_str() {
            "--workload" | "--seed" | "--seconds" | "--trace" => flag.as_str(),
            other => return Err(format!("unknown argument `{other}`")),
        };
        let value = rest.next().ok_or_else(|| format!("{key} needs a value"))?;
        values.insert(key, value);
    }
    let get = |key: &str| {
        values
            .get(key)
            .copied()
            .ok_or_else(|| format!("missing {key}"))
    };
    let number = |key: &str| -> Result<u64, String> {
        get(key)?
            .parse()
            .map_err(|_| format!("{key} must be a whole number"))
    };
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
    };
    let seconds = number("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".to_string());
    }
    let config = Config {
        seed: number("--seed")?,
        seconds,
        trace,
        threads: record::nproc(),
        root: std::env::current_dir().map_err(|e| format!("no working directory: {e}"))?,
        smoke: false,
    };
    Ok((get("--workload")?.to_string(), config))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, config) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(message) => {
            eprintln!("perfbench: {message}");
            eprintln!(
                "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 \
                 (workloads: suite_sweep, fpva_ingest, serve_resubmit)"
            );
            return ExitCode::from(2);
        }
    };
    let fingerprint = record::fingerprint(&workload, config.seed, config.seconds, config.trace);
    println!("fingerprint {fingerprint}");
    let outcome = match measure(&workload, &config) {
        Ok(outcome) => outcome,
        Err(message) => {
            eprintln!("perfbench: {workload}: {message}");
            return ExitCode::from(2);
        }
    };
    for (name, value, unit) in &outcome.metrics {
        println!("{workload}: {name} = {value} {unit}");
    }
    if !config.trace {
        println!(
            "{workload}: error_rate = {} ratio",
            outcome.tally.error_rate()
        );
    }
    println!(
        "{workload}: {} of {} operations failed",
        outcome.tally.failed, outcome.tally.attempted
    );
    for (name, value) in &outcome.counters {
        println!("{workload}: counter {name} = {value}");
    }
    for note in &outcome.notes {
        println!("{workload}: {note}");
    }
    println!("{}", result_line(&outcome));
    if outcome.tally.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The per-layer metrics each workload measures itself; the rest of
    /// [`PER_LAYER`] it bypasses.
    const MEASURED: [(&str, &[&str]); 3] = [
        (
            "suite_sweep",
            &[
                "suite.generate_ms",
                "core.compile_ms",
                "verify.validate_ms",
                "stats.characterize_ms",
                "sim.flow_ms",
                "control.plan_ms",
                "pnr.place_ms.greedy",
                "pnr.place_ms.annealing",
                "pnr.route_ms.straight",
                "pnr.route_ms.astar",
                "pnr.route_ms.negotiate",
                "pnr.route.expansions",
                "pnr.route.ripup_rounds",
                "pnr.failed_nets",
                "harness.sweep.cell_s_sum",
                "harness.sweep.straggler_s",
                "harness.sweep.efficiency",
                "obs.trace_overhead_pct",
                "error_rate",
            ],
        ),
        (
            "fpva_ingest",
            &[
                "suite.generate_ms",
                "core.parse_ms",
                "core.parse_mb_per_s",
                "core.compile_ms",
                "verify.validate_ms",
                "harness.batch.efficiency",
                "obs.trace_overhead_pct",
                "error_rate",
            ],
        ),
        (
            "serve_resubmit",
            &[
                "suite.generate_ms",
                "core.parse_ms",
                "core.parse_mb_per_s",
                "core.compile_ms",
                "mint.parse_convert_ms",
                "verify.validate_ms",
                "stats.characterize_ms",
                "sim.flow_ms",
                "control.plan_ms",
                "serve.request_parse_ms",
                "serve.hash_ms",
                "serve.service_ms.hit",
                "serve.service_ms.miss",
                "serve.wire_ms.hit",
                "serve.tcp_ms.hit_p50",
                "serve.tcp_ms.hit_p99",
                "serve.tcp_ms.miss_p50",
                "serve.cache.hit_ratio",
                "serve.compile.executed",
                "serve.coalesced",
                "serve.busy_refusals",
                "serve.peak_in_flight",
                "serve.hit_share",
                "serve.samples.hit",
                "serve.samples.miss",
                "obs.trace_overhead_pct",
                "error_rate",
            ],
        ),
    ];

    fn repo_root() -> PathBuf {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .expect("the benchmark lives inside the repository")
            .to_path_buf()
    }

    /// `(name, unit)` of every entry of a `BENCHMARK.json` section.
    fn declared(section: &str) -> Vec<(String, String)> {
        let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json"))
            .expect("BENCHMARK.json at the repository root");
        let manifest: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        manifest[section]
            .as_array()
            .expect("section is a list")
            .iter()
            .map(|entry| {
                let field = |key: &str| entry[key].as_str().unwrap_or_default().to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn owned(table: &[(&str, &str)]) -> Vec<(String, String)> {
        table
            .iter()
            .map(|(name, unit)| (name.to_string(), unit.to_string()))
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_the_emitted_metrics() {
        let workloads: Vec<String> = declared("workloads").into_iter().map(|w| w.0).collect();
        let known: Vec<String> = WORKLOADS.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(workloads, known);
        assert_eq!(declared("end_to_end"), owned(&END_TO_END));
        assert_eq!(declared("per_layer"), owned(&PER_LAYER));
        for (workload, measured) in MEASURED {
            for name in measured {
                assert!(
                    PER_LAYER.iter().any(|(known, _)| known == name),
                    "{workload} measures undeclared {name}"
                );
            }
        }
    }

    /// Runs a reduced workload in both modes and checks that it is
    /// correct, measures exactly its metrics, and reports every declared
    /// metric in its declared unit, each a finite number.
    fn smoke(workload: &str) {
        let (_, measured) = MEASURED
            .iter()
            .find(|(name, _)| *name == workload)
            .expect("workload has expectations");
        for (trace, declared) in [(false, &END_TO_END[..]), (true, &PER_LAYER[..])] {
            let config = Config {
                seed: 7,
                seconds: 1,
                trace,
                threads: 2,
                root: repo_root(),
                smoke: true,
            };
            let outcome = measure(workload, &config).expect("smoke run completes");
            assert!(outcome.tally.attempted > 0, "{workload}: nothing checked");
            assert_eq!(outcome.tally.failed, 0, "{workload}: {:?}", outcome.notes);
            let mut emitted: Vec<(&str, &str)> =
                outcome.metrics.iter().map(|m| (m.0, m.2)).collect();
            emitted.sort_unstable();
            let mut expected = declared.to_vec();
            expected.sort_unstable();
            assert_eq!(emitted, expected, "{workload} trace={trace}");
            if trace {
                let mut own: Vec<&str> = outcome
                    .metrics
                    .iter()
                    .map(|m| m.0)
                    .filter(|name| !outcome.bypassed.contains(name))
                    .collect();
                own.sort_unstable();
                let mut expected_own = measured.to_vec();
                expected_own.sort_unstable();
                assert_eq!(own, expected_own, "{workload} measures other layers");
            }
            for (name, value, _) in &outcome.metrics {
                assert!(value.is_finite(), "{workload}: {name} = {value}");
            }
            let line: Value = serde_json::from_str(&result_line(&outcome)).expect("result parses");
            assert_eq!(line["correct"], Value::from(true));
        }
    }

    #[test]
    fn suite_sweep_smoke() {
        smoke("suite_sweep");
    }

    #[test]
    fn fpva_ingest_smoke() {
        smoke("fpva_ingest");
    }

    #[test]
    fn serve_resubmit_smoke() {
        smoke("serve_resubmit");
    }

    #[test]
    fn arguments_are_checked() {
        let args = |text: &str| text.split(' ').map(String::from).collect::<Vec<_>>();
        let (workload, config) = parse_args(&args(
            "--workload fpva_ingest --seed 3 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(workload, "fpva_ingest");
        assert_eq!((config.seed, config.seconds, config.trace), (3, 10, true));
        assert!(parse_args(&args("--workload x --seed 3 --seconds 10 --trace 2")).is_err());
        assert!(parse_args(&args("--workload x --seed 3 --seconds 0 --trace 0")).is_err());
        assert!(parse_args(&args("--workload x --seed 3 --trace 0")).is_err());
        assert!(parse_args(&args("--workload x --bogus 1")).is_err());
        let unknown = Config {
            smoke: true,
            ..config
        };
        assert!(measure("no_such_workload", &unknown).is_err());
    }
}
