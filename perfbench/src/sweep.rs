//! `suite_sweep`: the paper's algorithm-comparison run — every benchmark
//! of the standard suite through the full 10-stage matrix (180 cells) on
//! one worker per core. Routing does almost all of the work; parsing,
//! the cache and the transport do none. The inputs are the fixed
//! registry devices, so the seed does not change this workload, and its
//! stripped report must equal the committed `ci/baseline-report.json`
//! byte for byte.

use crate::layers::{self, LayerTimes};
use crate::stats::{self, Tally};
use crate::{Config, Outcome};
use parchmint::ir::CompiledDevice;
use parchmint_harness::{run_suite, SuiteReport, SuiteRunConfig};
use parchmint_obs::{Collector, Recorder};
use parchmint_pnr::{PlacerChoice, RouterChoice};
use serde_json::Value;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

const BASELINE: &str = "ci/baseline-report.json";
/// Set-up takes about 10 ms. On a shared machine the CPU speed can sit
/// at one of two levels some 50% apart for stretches of a fraction of a
/// second, so the median of back-to-back set-ups lands on one level or
/// the other from run to run. Set-up is therefore repeated for at least
/// this long, after one discarded cold set-up, and `setup_s` is the mean,
/// which weighs the levels by the time spent at each.
const SETUP_SECONDS: f64 = 2.0;
const SETUP_MIN_REPEATS: usize = 3;
/// A reduced run for the benchmark's own tests: two small benchmarks.
const SMOKE_BENCHMARKS: [&str; 2] = ["logic_gate_or", "rotary_pump_mixer"];
/// The warm-up pass: one small benchmark through every stage.
const WARMUP_BENCHMARK: &str = "logic_gate_or";

fn sweep_config(config: &Config, traced: bool) -> SuiteRunConfig {
    let mut builder = SuiteRunConfig::builder().threads(config.threads);
    if config.smoke {
        builder = builder.benchmarks(SMOKE_BENCHMARKS);
    }
    if traced {
        // Enables the per-cell collectors; `run_suite` writes no file.
        builder = builder.trace("unused");
    }
    builder.build()
}

/// Compares the sweep's stripped report against the baseline: one
/// operation per cell, plus one for the byte-identical whole report
/// (full sweeps only).
fn check_report(report: &SuiteReport, baseline_text: &str, smoke: bool) -> Result<Tally, String> {
    let baseline: Value =
        serde_json::from_str(baseline_text).map_err(|e| format!("{BASELINE}: {e}"))?;
    let expected: BTreeMap<(String, String), String> = baseline["cells"]
        .as_array()
        .ok_or_else(|| format!("{BASELINE}: no cells"))?
        .iter()
        .map(|cell| {
            let key = (
                cell["benchmark"].as_str().unwrap_or_default().to_string(),
                cell["stage"].as_str().unwrap_or_default().to_string(),
            );
            (key, cell.to_string())
        })
        .collect();
    let actual = report.to_json(false);
    let mut tally = Tally::default();
    for cell in actual["cells"].as_array().expect("report has cells") {
        let key = (
            cell["benchmark"].as_str().unwrap_or_default().to_string(),
            cell["stage"].as_str().unwrap_or_default().to_string(),
        );
        tally.check(expected.get(&key) == Some(&cell.to_string()));
    }
    if !smoke {
        tally.check(report.cells.len() == expected.len());
        tally.check(report.to_json_string(false) == baseline_text);
    }
    Ok(tally)
}

pub fn run(config: &Config) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();

    // Set-up: read the reference and generate every registry device.
    // `run_suite` generates the devices again inside the sweep, as a
    // user's `suite-run` does.
    let mut setup_s = Vec::new();
    let mut generate_ms = Vec::new();
    let mut baseline = String::new();
    let budget = if config.smoke { 0.0 } else { SETUP_SECONDS };
    let setting_up = Instant::now();
    while setup_s.len() <= SETUP_MIN_REPEATS || setting_up.elapsed().as_secs_f64() < budget {
        let started = Instant::now();
        baseline = std::fs::read_to_string(config.root.join(BASELINE))
            .map_err(|e| format!("cannot read {BASELINE}: {e}"))?;
        let generating = Instant::now();
        let devices: Vec<_> = parchmint_suite::suite()
            .iter()
            .map(|b| b.device())
            .collect();
        generate_ms.push(generating.elapsed().as_secs_f64() * 1e3);
        black_box(&devices);
        drop(devices);
        setup_s.push(started.elapsed().as_secs_f64());
    }

    // Discarded warm-up: one small benchmark through every stage.
    let warmup = SuiteRunConfig::builder()
        .threads(config.threads)
        .benchmarks([WARMUP_BENCHMARK])
        .build();
    drop(black_box(run_suite(&warmup)));

    let started = Instant::now();
    let report = run_suite(&sweep_config(config, false));
    let wall = started.elapsed().as_secs_f64();
    outcome
        .tally
        .absorb(check_report(&report, &baseline, config.smoke)?);
    let straggler = rows(&report)
        .into_iter()
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .ok_or("the sweep produced no rows")?;
    outcome.note(format!(
        "one sweep of {} cells on {} threads: {wall:.3} s; straggler row {} = {:.3} s",
        report.cells.len(),
        report.threads,
        straggler.0,
        straggler.1
    ));

    if !config.trace {
        outcome.metric("setup_s", stats::mean(&setup_s[1..]), "s");
        outcome.metric("wall_s", wall, "s");
        return Ok(outcome);
    }

    let cell_s_sum: f64 = report.cells.iter().map(|c| c.wall.as_secs_f64()).sum();
    let row_sum: f64 = rows(&report).iter().map(|(_, s)| s).sum();
    outcome.metric("suite.generate_ms", stats::mean(&generate_ms[1..]), "ms");
    outcome.metric("core.compile_ms", compile_ms(config), "ms");
    // The non-pnr stages' share of the sweep: their cells' summed wall,
    // each attributed to the layer that does its work.
    for (stage, layer_metric) in [
        ("validate", "verify.validate_ms"),
        ("characterize", "stats.characterize_ms"),
        ("flow", "sim.flow_ms"),
        ("control", "control.plan_ms"),
    ] {
        let ms: f64 = report
            .cells
            .iter()
            .filter(|cell| cell.stage == stage)
            .map(|cell| cell.wall.as_secs_f64() * 1e3)
            .sum();
        outcome.metric(layer_metric, ms, "ms");
    }
    outcome.metric("harness.sweep.cell_s_sum", cell_s_sum, "s");
    outcome.metric("harness.sweep.straggler_s", straggler.1, "s");
    outcome.metric(
        "harness.sweep.efficiency",
        stats::efficiency(row_sum, wall, report.threads),
        "ratio",
    );
    drop(report);

    // The same sweep with the harness's per-cell collectors on; tracing
    // must not change the report either.
    let started = Instant::now();
    let traced = run_suite(&sweep_config(config, true));
    let traced_wall = started.elapsed().as_secs_f64();
    outcome
        .tally
        .absorb(check_report(&traced, &baseline, config.smoke)?);
    drop(traced);

    let pnr = direct_pnr(config);
    for (name, ms) in [
        ("pnr.place_ms.greedy", pnr.place_ms[0]),
        ("pnr.place_ms.annealing", pnr.place_ms[1]),
        ("pnr.route_ms.straight", pnr.route_ms[0]),
        ("pnr.route_ms.astar", pnr.route_ms[1]),
        ("pnr.route_ms.negotiate", pnr.route_ms[2]),
    ] {
        outcome.metric(name, ms, "ms");
    }
    outcome.metric("pnr.route.expansions", pnr.expansions as f64, "count");
    outcome.metric("pnr.route.ripup_rounds", pnr.ripup_rounds as f64, "count");
    outcome.metric("pnr.failed_nets", pnr.failed_nets as f64, "count");
    outcome.metric(
        "obs.trace_overhead_pct",
        stats::overhead_pct(traced_wall, wall),
        "%",
    );
    let route_s: f64 = pnr.route_ms.iter().sum::<f64>() / 1e3;
    outcome.note(format!(
        "direct routing {route_s:.3} s = {:.1}% of the sweep's cell time {cell_s_sum:.3} s",
        100.0 * route_s / cell_s_sum
    ));
    outcome
        .counters
        .insert("pnr.route.expansions".to_string(), pnr.expansions);
    outcome
        .counters
        .insert("pnr.route.ripup_rounds".to_string(), pnr.ripup_rounds);
    outcome
        .counters
        .insert("pnr.failed_nets".to_string(), pnr.failed_nets);
    Ok(outcome)
}

/// `CompiledDevice::compile` of every benchmark the sweep compiles, once
/// each as the sweep does, summed.
fn compile_ms(config: &Config) -> f64 {
    let mut times = LayerTimes::default();
    for benchmark in parchmint_suite::suite() {
        if !config.smoke || SMOKE_BENCHMARKS.contains(&benchmark.name()) {
            black_box(layers::compile(benchmark.device(), &mut times));
        }
    }
    times.compile_ms
}

/// Each benchmark's row time — its compile plus every cell — by name.
fn rows(report: &SuiteReport) -> Vec<(String, f64)> {
    let mut rows: BTreeMap<&str, f64> = BTreeMap::new();
    for cell in &report.cells {
        *rows.entry(cell.benchmark.as_str()).or_default() += cell.wall.as_secs_f64();
    }
    for (benchmark, wall) in &report.compile_walls {
        *rows.entry(benchmark.as_str()).or_default() += wall.as_secs_f64();
    }
    rows.into_iter().map(|(k, v)| (k.to_string(), v)).collect()
}

#[derive(Debug, Default)]
struct DirectPnr {
    /// Indexed like `PlacerChoice::ALL`.
    place_ms: [f64; 2],
    /// Indexed like `RouterChoice::ALL`.
    route_ms: [f64; 3],
    expansions: u64,
    ripup_rounds: u64,
    failed_nets: u64,
}

/// Calls every placer and, on each placement, every router directly,
/// per benchmark, with a collector installed around each route to read
/// the router's work counters.
fn direct_pnr(config: &Config) -> DirectPnr {
    let mut units: Vec<(parchmint::Device, usize)> = parchmint_suite::suite()
        .iter()
        .filter(|b| !config.smoke || SMOKE_BENCHMARKS.contains(&b.name()))
        .flat_map(|b| {
            let device = b.device();
            (0..PlacerChoice::ALL.len()).map(move |p| (device.clone(), p))
        })
        .collect();
    // Largest first, so the slowest units start early on the pool.
    units.sort_by_key(|(device, _)| std::cmp::Reverse(device.components.len()));
    let results = parchmint_harness::shard_map(&units, config.threads, |_, (device, p)| {
        let mut device = device.clone();
        let mut part = DirectPnr::default();
        let placer = PlacerChoice::ALL[*p].placer();
        let unplaced = CompiledDevice::from_ref(&device);
        let started = Instant::now();
        let placement = placer.place(&unplaced);
        part.place_ms[*p] = started.elapsed().as_secs_f64() * 1e3;
        placement.apply_to(&mut device);
        let placed = CompiledDevice::from_ref(&device);
        for (r, choice) in RouterChoice::ALL.iter().enumerate() {
            let router = choice.router();
            let collector = Arc::new(Collector::new());
            let recorder: Arc<dyn Recorder> = Arc::clone(&collector) as Arc<dyn Recorder>;
            let started = Instant::now();
            let routing = parchmint_obs::with_recorder(recorder, || router.route(&placed));
            part.route_ms[r] = started.elapsed().as_secs_f64() * 1e3;
            let counters = collector.summary().counters;
            part.expansions += counters.get("pnr.route.expansions").copied().unwrap_or(0);
            part.ripup_rounds += counters.get("pnr.route.ripup_rounds").copied().unwrap_or(0);
            part.failed_nets += routing.failed.len() as u64;
        }
        part
    });
    let mut total = DirectPnr::default();
    for part in results {
        for (sum, ms) in total.place_ms.iter_mut().zip(part.place_ms) {
            *sum += ms;
        }
        for (sum, ms) in total.route_ms.iter_mut().zip(part.route_ms) {
            *sum += ms;
        }
        total.expansions += part.expansions;
        total.ripup_rounds += part.ripup_rounds;
        total.failed_nets += part.failed_nets;
    }
    total
}
