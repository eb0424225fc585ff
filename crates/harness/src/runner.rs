//! The parallel sweep: benchmarks × stages across a scoped worker pool.
//!
//! The runner owns only the *batch* concerns — fanning (benchmark, stage)
//! cells across a worker pool, compiling each benchmark's device once for
//! its row, collecting cells, and rendering a deterministic report.
//! How a single stage executes (budgets, retries, panic isolation,
//! severity mapping) lives in [`crate::engine`], which the `parchmint
//! serve` daemon shares; this module is one client of that engine.

use crate::batch;
use crate::engine::{self, ExecPolicy};
use crate::matrix;
use crate::report::{Cell, CellStatus, SuiteReport};
use crate::stage::Stage;
use parchmint::CompiledDevice;
use parchmint_obs::TraceSummary;
use parchmint_resilience::FaultPlan;
use parchmint_suite::Benchmark;
use std::cmp::Reverse;
use std::panic::catch_unwind;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

pub use crate::engine::MAX_ATTEMPTS;

/// Configuration for [`run_suite`].
///
/// Built with [`SuiteRunConfig::builder`]; `SuiteRunConfig::default()` is
/// the CI sweep (whole registry, full stage matrix, one worker per core,
/// no tracing, no budget, no faults).
///
/// # Examples
///
/// ```
/// use parchmint_harness::SuiteRunConfig;
///
/// let config = SuiteRunConfig::builder()
///     .threads(2)
///     .benchmarks(["logic_gate_or"])
///     .trace("trace.json")
///     .build();
/// assert_eq!(config.threads(), 2);
/// assert!(config.trace().is_some());
/// ```
#[derive(Debug, Clone, Default)]
pub struct SuiteRunConfig {
    threads: usize,
    benchmarks: Option<Vec<String>>,
    stages: Option<Vec<String>>,
    trace: Option<PathBuf>,
    pareto: Option<PathBuf>,
    baseline: Option<PathBuf>,
    tolerance: Option<f64>,
    deadline: Option<Duration>,
    fuel: Option<u64>,
    faults: Option<FaultPlan>,
}

impl SuiteRunConfig {
    /// Starts a builder holding the default configuration.
    pub fn builder() -> SuiteRunConfigBuilder {
        SuiteRunConfigBuilder {
            config: SuiteRunConfig::default(),
        }
    }

    /// Worker threads; `0` means one per available core.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Benchmark-name subset; `None` runs the whole registry.
    pub fn benchmarks(&self) -> Option<&[String]> {
        self.benchmarks.as_deref()
    }

    /// Stage-name subset; `None` runs the full matrix.
    pub fn stages(&self) -> Option<&[String]> {
        self.stages.as_deref()
    }

    /// Where to write the observability trace; `None` disables tracing
    /// (the pipeline then runs with the no-op recorder path).
    pub fn trace(&self) -> Option<&Path> {
        self.trace.as_deref()
    }

    /// Where to write the Pareto sweep JSON (quality-vs-wall-time points
    /// for every placer×router cell); `None` disables the sweep output.
    pub fn pareto(&self) -> Option<&Path> {
        self.pareto.as_deref()
    }

    /// Baseline report to gate against; `None` skips the gate.
    pub fn baseline(&self) -> Option<&Path> {
        self.baseline.as_deref()
    }

    /// Relative tolerance for the baseline gate; `None` means the
    /// gate's default.
    pub fn tolerance(&self) -> Option<f64> {
        self.tolerance
    }

    /// Per-stage wall-clock deadline; `None` means unbounded.
    pub fn deadline(&self) -> Option<Duration> {
        self.deadline
    }

    /// Per-stage deterministic fuel budget in meter ticks; `None` means
    /// unbounded.
    pub fn fuel(&self) -> Option<u64> {
        self.fuel
    }

    /// The fault-injection plan; `None` injects nothing.
    pub fn faults(&self) -> Option<&FaultPlan> {
        self.faults.as_ref()
    }

    /// The stage-execution policy this configuration implies — the
    /// deadline/fuel limits and the standard retry ceiling, in the form
    /// the shared [`crate::engine`] consumes.
    pub fn exec_policy(&self) -> ExecPolicy {
        ExecPolicy::new()
            .with_deadline(self.deadline)
            .with_fuel(self.fuel)
    }
}

/// Builder for [`SuiteRunConfig`].
#[derive(Debug, Clone, Default)]
pub struct SuiteRunConfigBuilder {
    config: SuiteRunConfig,
}

impl SuiteRunConfigBuilder {
    /// Sets the worker-thread count (`0` = one per core).
    pub fn threads(mut self, threads: usize) -> Self {
        self.config.threads = threads;
        self
    }

    /// Restricts the sweep to the named benchmarks. An empty selection
    /// means "no restriction" — the whole registry runs.
    pub fn benchmarks<I, S>(mut self, names: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let names: Vec<String> = names.into_iter().map(Into::into).collect();
        self.config.benchmarks = if names.is_empty() { None } else { Some(names) };
        self
    }

    /// Restricts the sweep to the named stages (exact names, or `pnr`
    /// for every placer×router combination). An empty selection means
    /// the full matrix.
    pub fn stages<I, S>(mut self, names: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let names: Vec<String> = names.into_iter().map(Into::into).collect();
        self.config.stages = if names.is_empty() { None } else { Some(names) };
        self
    }

    /// Enables tracing and sets the trace-file destination.
    pub fn trace(mut self, path: impl Into<PathBuf>) -> Self {
        self.config.trace = Some(path.into());
        self
    }

    /// Enables the Pareto sweep output and sets its destination.
    pub fn pareto(mut self, path: impl Into<PathBuf>) -> Self {
        self.config.pareto = Some(path.into());
        self
    }

    /// Sets the baseline report for the regression gate.
    pub fn baseline(mut self, path: impl Into<PathBuf>) -> Self {
        self.config.baseline = Some(path.into());
        self
    }

    /// Sets the relative metric tolerance for the regression gate.
    pub fn tolerance(mut self, fraction: f64) -> Self {
        self.config.tolerance = Some(fraction);
        self
    }

    /// Gives every stage attempt its own wall-clock deadline. Stages with
    /// metered loops stop cooperatively within one check interval of
    /// expiry and surface a partial result as a `degraded` cell.
    pub fn deadline(mut self, per_stage: Duration) -> Self {
        self.config.deadline = Some(per_stage);
        self
    }

    /// Gives every stage attempt a deterministic fuel budget (meter
    /// ticks). Unlike a deadline this is machine-independent, so tests
    /// can assert exactly where a stage stops.
    pub fn fuel(mut self, ticks: u64) -> Self {
        self.config.fuel = Some(ticks);
        self
    }

    /// Installs a fault-injection plan; each cell sees the slice of the
    /// plan that applies to its benchmark.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.config.faults = Some(plan);
        self
    }

    /// Finishes the configuration.
    pub fn build(self) -> SuiteRunConfig {
        self.config
    }
}

/// Runs the configured slice of the registry through the standard stage
/// matrix.
///
/// Unknown benchmark or stage names are reported as `failed` cells rather
/// than silently dropped, so a typo in CI configuration cannot shrink the
/// sweep unnoticed.
pub fn run_suite(config: &SuiteRunConfig) -> SuiteReport {
    let matrix = matrix::resolve_matrix(config.benchmarks(), config.stages());
    let mut report = run_matrix(&matrix.benchmarks, &matrix.stages, config);
    report.cells.extend(matrix.bad_cells);
    report.sort_cells();
    report
}

/// Sweeps `benchmarks` through `stages` under `config` — the single
/// entry point both [`run_suite`] and direct matrix callers share.
///
/// The unit of work is one (benchmark, stage) cell, run on
/// [`batch::shard_map`]'s worker pool. Rows are queued largest device
/// first, each row's cells in stage order, so the slowest row starts at
/// once and its cells spread over every worker instead of trailing the
/// sweep on one. A row's device is generated and compiled when the first
/// of its cells is claimed and released after its last cell finishes.
/// Cell order in the result is sorted (benchmark name, then stage order),
/// so the report is independent of scheduling. When `config` requests
/// tracing, every compile and every stage runs under its own event
/// collector and the report carries the aggregated summaries.
pub fn run_matrix(
    benchmarks: &[Benchmark],
    stages: &[Stage],
    config: &SuiteRunConfig,
) -> SuiteReport {
    let started = Instant::now();
    let tracing = config.trace().is_some();
    let policy = config.exec_policy();
    let rows: Vec<Row> = benchmarks
        .iter()
        .map(|benchmark| Row::new(benchmark, config.faults(), stages.len()))
        .collect();
    let workers = batch::pool_size(config.threads(), rows.len() * stages.len());

    // The default panic hook would spam stderr with a backtrace for every
    // isolated stage failure; silence it for the sweep and restore after.
    let prior_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));

    let mut order: Vec<usize> = (0..rows.len()).collect();
    if workers > 1 && rows.len() > 1 {
        // Size probe: generate each device once more and drop it, so only
        // rows in flight hold a device. Generation is cheap next to the
        // stages: the 18-benchmark suite generates in about 10 ms on a
        // 2-core x86-64 container. A generator that panics sorts last and
        // fails its row when the row is claimed.
        let sizes: Vec<usize> = benchmarks
            .iter()
            .map(|b| catch_unwind(|| b.device().components.len()).unwrap_or(0))
            .collect();
        order.sort_by_key(|&row| Reverse(sizes[row]));
    }
    let units: Vec<(usize, usize)> = order
        .into_iter()
        .flat_map(|row| (0..stages.len()).map(move |stage| (row, stage)))
        .collect();
    let cells = batch::shard_map(&units, workers, |_, &(row, stage)| {
        rows[row].run(&stages[stage], &policy, tracing)
    });

    std::panic::set_hook(prior_hook);

    let mut compile_walls = Vec::new();
    let mut compile_traces = Vec::new();
    for row in rows {
        let name = row.benchmark.name().to_string();
        let slot = row.slot.into_inner().expect("row lock");
        if let RowDevice::Released = slot.device {
            compile_walls.push((name.clone(), slot.wall));
        }
        if let Some(trace) = slot.trace {
            compile_traces.push((name, trace));
        }
    }
    compile_walls.sort_by(|a, b| a.0.cmp(&b.0));
    compile_traces.sort_by(|a, b| a.0.cmp(&b.0));
    let mut report = SuiteReport {
        cells,
        stages: stages.iter().map(|s| s.name.clone()).collect(),
        threads: workers,
        total_wall: started.elapsed(),
        compile_walls,
        compile_traces,
    };
    report.sort_cells();
    report
}

/// One benchmark row of a sweep and its device's lifecycle.
struct Row<'a> {
    benchmark: &'a Benchmark,
    /// The benchmark's slice of the fault plan; `None` when empty.
    faults: Option<Arc<FaultPlan>>,
    slot: Mutex<RowSlot>,
}

struct RowSlot {
    device: RowDevice,
    /// Cells of the row not yet finished.
    pending: usize,
    /// Generate+compile wall time, once compiled.
    wall: Duration,
    /// Events recorded during generate+compile; absent unless tracing.
    trace: Option<TraceSummary>,
}

enum RowDevice {
    /// No cell of the row has been claimed yet.
    Pending,
    /// The shared view every stage of the row reads.
    Compiled(Arc<CompiledDevice>),
    /// Every cell finished and the view was dropped.
    Released,
    /// Generation or compilation panicked with this message.
    Failed(String),
}

impl<'a> Row<'a> {
    fn new(benchmark: &'a Benchmark, plan: Option<&FaultPlan>, cells: usize) -> Row<'a> {
        let faults = plan.and_then(|plan| {
            let slice = plan.for_benchmark(benchmark.name());
            (!slice.is_empty()).then(|| Arc::new(slice))
        });
        Row {
            benchmark,
            faults,
            slot: Mutex::new(RowSlot {
                device: RowDevice::Pending,
                pending: cells,
                wall: Duration::ZERO,
                trace: None,
            }),
        }
    }

    /// Runs one stage of the row, isolated.
    ///
    /// The first cell claimed generates and compiles the device via
    /// [`engine::compile_device`] under the row's lock; every stage then
    /// borrows the same interned index and runs through
    /// [`engine::execute_stage`] under `policy` and the row's slice of the
    /// fault plan. The severity→status mapping, panic isolation, and the
    /// deterministic attempt/seed retry schedule all live in the engine —
    /// the daemon's workers share them verbatim. A device that fails to
    /// generate or compile fails every cell of its row, explained.
    fn run(&self, stage: &Stage, policy: &ExecPolicy, tracing: bool) -> Cell {
        let claimed = {
            let mut slot = self.slot.lock().expect("row lock");
            if let RowDevice::Pending = slot.device {
                let exec = engine::compile_device(
                    || self.benchmark.device(),
                    self.faults.as_ref(),
                    tracing,
                );
                slot.wall = exec.wall;
                slot.trace = exec.trace;
                slot.device = match exec.compiled {
                    Ok(compiled) => RowDevice::Compiled(compiled),
                    Err(message) => RowDevice::Failed(message),
                };
            }
            match &slot.device {
                RowDevice::Compiled(compiled) => Ok(Arc::clone(compiled)),
                RowDevice::Failed(message) => Err((message.clone(), slot.wall)),
                RowDevice::Pending | RowDevice::Released => {
                    unreachable!("a row is released only after its last cell")
                }
            }
        };
        let cell = match claimed {
            Ok(compiled) => {
                let started = Instant::now();
                let exec =
                    engine::execute_stage(stage, &compiled, policy, self.faults.as_ref(), tracing);
                Cell {
                    benchmark: self.benchmark.name().to_string(),
                    stage: stage.name.clone(),
                    status: exec.status,
                    detail: exec.detail,
                    metrics: exec.metrics,
                    wall: started.elapsed(),
                    trace: exec.trace,
                }
            }
            Err((message, wall)) => Cell {
                benchmark: self.benchmark.name().to_string(),
                stage: stage.name.clone(),
                status: CellStatus::Failed,
                detail: Some(format!("device generation panicked: {message}")),
                metrics: Default::default(),
                wall,
                trace: None,
            },
        };
        let mut slot = self.slot.lock().expect("row lock");
        slot.pending -= 1;
        if slot.pending == 0 && matches!(slot.device, RowDevice::Compiled(_)) {
            slot.device = RowDevice::Released;
        }
        cell
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stage::{standard_stages, Stage, StageOutcome};
    use parchmint_resilience::{FaultKind, FaultSpec, PipelineError};
    use serde_json::Value;
    use std::sync::atomic::{AtomicU32, Ordering};

    fn tiny_suite() -> Vec<Benchmark> {
        parchmint_suite::suite()
            .into_iter()
            .filter(|b| b.name() == "logic_gate_or" || b.name() == "rotary_pump_mixer")
            .collect()
    }

    fn untraced(threads: usize) -> SuiteRunConfig {
        SuiteRunConfig::builder().threads(threads).build()
    }

    #[test]
    fn matrix_covers_every_cell() {
        let benchmarks = tiny_suite();
        let stages = standard_stages();
        let report = run_matrix(&benchmarks, &stages, &untraced(2));
        assert_eq!(report.cells.len(), benchmarks.len() * stages.len());
        assert!(report
            .cells
            .iter()
            .all(|c| c.status == CellStatus::Ok || c.status == CellStatus::Skipped));
        assert!(!report.has_traces(), "no tracing unless configured");
    }

    #[test]
    fn tracing_attaches_summaries_to_cells() {
        let benchmarks = tiny_suite();
        let stages = standard_stages();
        let config = SuiteRunConfig::builder().threads(2).trace("unused").build();
        let report = run_matrix(&benchmarks, &stages, &config);
        assert!(report.has_traces());
        // Compile is instrumented, so every benchmark has a compile trace.
        assert_eq!(report.compile_traces.len(), benchmarks.len());
        let validate = report
            .cell("logic_gate_or", "validate")
            .expect("validate cell");
        let trace = validate.trace.as_ref().expect("validate is instrumented");
        assert!(trace.spans.contains_key("verify.referential"));
    }

    #[test]
    fn panicking_stage_is_isolated() {
        let benchmarks = tiny_suite();
        let stages = vec![
            Stage::new("boom", |_, _| panic!("injected failure")),
            Stage::new("fine", |_, _| {
                Ok(StageOutcome::metrics([("one", Value::from(1))]))
            }),
        ];
        let report = run_matrix(&benchmarks, &stages, &untraced(2));
        for benchmark in &benchmarks {
            let boom = report
                .cell(benchmark.name(), "boom")
                .expect("boom cell present");
            assert_eq!(boom.status, CellStatus::Failed);
            assert_eq!(boom.detail.as_deref(), Some("injected failure"));
            let fine = report
                .cell(benchmark.name(), "fine")
                .expect("fine cell present");
            assert_eq!(fine.status, CellStatus::Ok);
        }
    }

    #[test]
    fn unknown_names_become_failed_cells() {
        let config = SuiteRunConfig::builder()
            .threads(1)
            .benchmarks(["logic_gate_or", "no_such_chip"])
            .stages(["validate", "no_such_stage"])
            .build();
        let report = run_suite(&config);
        assert!(report
            .cells
            .iter()
            .any(|c| c.benchmark == "no_such_chip" && c.status == CellStatus::Failed));
        assert!(report
            .cells
            .iter()
            .any(|c| c.stage == "no_such_stage" && c.status == CellStatus::Failed));
        assert!(report.cells.iter().any(|c| c.benchmark == "logic_gate_or"
            && c.stage == "validate"
            && c.status == CellStatus::Ok));
    }

    #[test]
    fn builder_round_trips_every_field() {
        let config = SuiteRunConfig::builder()
            .threads(3)
            .benchmarks(["a", "b"])
            .stages(["validate"])
            .trace("t.json")
            .pareto("pareto.json")
            .baseline("base.json")
            .tolerance(0.25)
            .deadline(Duration::from_millis(50))
            .fuel(1_000)
            .faults(FaultPlan::single("pnr.place", FaultKind::Panic))
            .build();
        assert_eq!(config.threads(), 3);
        assert_eq!(config.benchmarks(), Some(&["a".into(), "b".into()][..]));
        assert_eq!(config.stages(), Some(&["validate".into()][..]));
        assert_eq!(config.trace(), Some(Path::new("t.json")));
        assert_eq!(config.pareto(), Some(Path::new("pareto.json")));
        assert_eq!(config.baseline(), Some(Path::new("base.json")));
        assert_eq!(config.tolerance(), Some(0.25));
        assert_eq!(config.deadline(), Some(Duration::from_millis(50)));
        assert_eq!(config.fuel(), Some(1_000));
        assert!(config.faults().is_some());
        // Empty selections mean "no restriction".
        let open = SuiteRunConfig::builder()
            .benchmarks(Vec::<String>::new())
            .build();
        assert!(open.benchmarks().is_none());
        assert!(open.trace().is_none());
        assert!(
            !open.exec_policy().is_bounded(),
            "no budget unless configured"
        );
    }

    #[test]
    fn error_severities_map_to_cell_status() {
        let benchmarks: Vec<Benchmark> = tiny_suite().into_iter().take(1).collect();
        let stages = vec![
            Stage::new("fatal", |_, _| {
                Err(PipelineError::fatal("broken").with_hint("fix it"))
            }),
            Stage::new("soft", |_, _| Err(PipelineError::degraded("partial"))),
            Stage::new("flaky", |_, _| Err(PipelineError::retryable("try again"))),
        ];
        let report = run_matrix(&benchmarks, &stages, &untraced(1));
        let name = benchmarks[0].name();
        let fatal = report.cell(name, "fatal").unwrap();
        assert_eq!(fatal.status, CellStatus::Error);
        assert!(fatal.detail.as_deref().unwrap().contains("hint: fix it"));
        assert_eq!(
            report.cell(name, "soft").unwrap().status,
            CellStatus::Degraded
        );
        let flaky = report.cell(name, "flaky").unwrap();
        assert_eq!(flaky.status, CellStatus::Error);
        assert!(
            flaky
                .detail
                .as_deref()
                .unwrap()
                .contains("after 3 attempts"),
            "detail: {:?}",
            flaky.detail
        );
    }

    #[test]
    fn retryable_stage_succeeds_on_a_later_attempt() {
        static CALLS: AtomicU32 = AtomicU32::new(0);
        let benchmarks: Vec<Benchmark> = tiny_suite().into_iter().take(1).collect();
        let stages = vec![Stage::new("eventually", |_, ctx| {
            CALLS.fetch_add(1, Ordering::Relaxed);
            if ctx.attempt < 2 {
                Err(PipelineError::retryable("not yet"))
            } else {
                Ok(StageOutcome::metrics([(
                    "attempt",
                    Value::from(ctx.attempt),
                )]))
            }
        })];
        let report = run_matrix(&benchmarks, &stages, &untraced(1));
        let cell = report.cell(benchmarks[0].name(), "eventually").unwrap();
        assert_eq!(cell.status, CellStatus::Ok);
        assert_eq!(cell.metrics["attempt"], Value::from(2));
        assert_eq!(CALLS.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn injected_panic_hits_only_the_targeted_benchmark() {
        let mut plan = FaultPlan::new();
        plan.push(FaultSpec {
            benchmark: Some("logic_gate_or".into()),
            site: "pnr.place".into(),
            fault: FaultKind::Panic,
        });
        let config = SuiteRunConfig::builder().threads(2).faults(plan).build();
        let benchmarks = tiny_suite();
        let stages = standard_stages();
        let report = run_matrix(&benchmarks, &stages, &config);
        // The `pnr.place` site lives in the annealing placer, so the fault
        // panics annealing, which falls back to greedy — a recorded
        // degraded cell, never a poisoned or missing one. Greedy cells and
        // the untargeted benchmark must not see the fault at all.
        for cell in report.cells.iter().filter(|c| c.stage.starts_with("pnr:")) {
            if cell.benchmark == "logic_gate_or" && cell.stage.starts_with("pnr:annealing") {
                assert_eq!(
                    cell.status,
                    CellStatus::Degraded,
                    "{} escaped the fault",
                    cell.key()
                );
                let detail = cell.detail.as_deref().expect("degradation is explained");
                assert!(detail.contains("fell back to greedy"), "{detail}");
                assert!(!cell.metrics.is_empty(), "fallback still yields metrics");
            } else {
                assert_eq!(
                    cell.status,
                    CellStatus::Ok,
                    "{} caught a stray fault",
                    cell.key()
                );
            }
        }
    }

    #[test]
    fn one_benchmark_spreads_its_cells_over_every_worker() {
        let run = |threads: usize| {
            let config = SuiteRunConfig::builder()
                .threads(threads)
                .benchmarks(["rotary_pump_mixer"])
                .build();
            run_suite(&config)
        };
        let (one, two) = (run(1), run(2));
        assert_eq!(one.threads, 1);
        assert_eq!(two.threads, 2, "workers are clamped to cells, not rows");
        assert_eq!(one.to_json_string(false), two.to_json_string(false));
    }

    #[test]
    fn failed_compile_fails_only_its_row() {
        let mut plan = FaultPlan::new();
        plan.push(FaultSpec {
            benchmark: Some("logic_gate_or".into()),
            site: "ir.compile".into(),
            fault: FaultKind::Panic,
        });
        let benchmarks: Vec<Benchmark> = parchmint_suite::suite()
            .into_iter()
            .filter(|b| {
                ["logic_gate_and", "logic_gate_or", "rotary_pump_mixer"].contains(&b.name())
            })
            .collect();
        let stages = standard_stages();
        let run = |threads: usize| {
            let config = SuiteRunConfig::builder()
                .threads(threads)
                .faults(plan.clone())
                .build();
            run_matrix(&benchmarks, &stages, &config)
        };
        let clean = run_matrix(&benchmarks, &stages, &untraced(2));
        let (one, two) = (run(1), run(2));
        assert_eq!(one.to_json_string(false), two.to_json_string(false));
        assert_eq!(two.cells.len(), benchmarks.len() * stages.len());
        for cell in &two.cells {
            if cell.benchmark == "logic_gate_or" {
                assert_eq!(cell.status, CellStatus::Failed, "{}", cell.key());
                assert_eq!(
                    cell.detail.as_deref(),
                    Some("device generation panicked: injected fault: panic at ir.compile")
                );
            } else {
                let reference = clean.cell(&cell.benchmark, &cell.stage).unwrap();
                assert_eq!(cell.status, CellStatus::Ok, "{}", cell.key());
                assert_eq!(cell.metrics, reference.metrics, "{}", cell.key());
            }
        }
        let compiled: Vec<&str> = two.compile_walls.iter().map(|(b, _)| b.as_str()).collect();
        assert_eq!(compiled, ["logic_gate_and", "rotary_pump_mixer"]);
        let timing = two.to_json(true);
        assert!(timing["timing"]["compile"].get("logic_gate_or").is_none());
    }

    #[test]
    fn stage_finishing_under_a_tripped_budget_is_degraded() {
        let benchmarks: Vec<Benchmark> = tiny_suite().into_iter().take(1).collect();
        let stages = vec![Stage::new("oblivious", |_, _| {
            // Consume the whole fuel budget without ever stopping, then
            // finish "successfully": the runner must still flag the cell.
            let mut meter = parchmint_resilience::Meter::new(1);
            for _ in 0..64 {
                let _ = meter.check();
            }
            Ok(StageOutcome::metrics([("done", Value::from(true))]))
        })];
        let config = SuiteRunConfig::builder().threads(1).fuel(8).build();
        let report = run_matrix(&benchmarks, &stages, &config);
        let cell = report.cell(benchmarks[0].name(), "oblivious").unwrap();
        assert_eq!(cell.status, CellStatus::Degraded);
        assert!(cell
            .detail
            .as_deref()
            .unwrap()
            .contains("completed under interruption (fuel exhausted)"));
    }
}
