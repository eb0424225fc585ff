//! `fpva_ingest`: seeded FPVA valve-array documents at the device scale
//! of "Testing Microfluidic FPVAs" (the fpva_1k/4k/10k sizes), serialized
//! during set-up and then parsed, compiled and validated by
//! `ingest_batch` on one worker per core. The documents are far larger
//! than the CPU caches; parse, compile and validate do the work and
//! place-and-route does none.

use crate::layers::{self, LayerTimes};
use crate::record::Rng;
use crate::stats::{self, Tally};
use crate::{Config, Outcome};
use parchmint::Device;
use parchmint_harness::{
    compile_device, execute_stage, ingest_batch, shard_map, BatchIngestConfig, DocumentIngest,
    ExecPolicy, Stage,
};
use parchmint_obs::{Collector, Recorder};
use parchmint_suite::{generate_fpva, FpvaConfig};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// `(grid side, documents)`: 4 × fpva_1k (19×19), 2 × fpva_4k (37×37)
/// and 2 × fpva_10k (58×58), about 11 MB of JSON per pass.
const BATCH: [(usize, usize); 3] = [(19, 4), (37, 2), (58, 2)];
const SMOKE_BATCH: [(usize, usize); 2] = [(5, 2), (8, 1)];
const SETUP_REPEATS: usize = 3;
/// Passes are short (well under a second), so a run takes many and
/// reports their median; at least this many even on a short run.
const MIN_PASSES: usize = 5;
/// Serial passes of direct layer calls in the traced run.
const LAYER_PASSES: usize = 3;
/// Traced and untraced instrumented passes, alternated, in the traced
/// run: at least this many of each.
const OVERHEAD_PAIRS: usize = 5;

struct Inputs {
    documents: Vec<String>,
    bytes: usize,
}

/// Generates and serializes the batch; returns the inputs and the time
/// spent generating (serialization excluded).
fn generate(config: &Config) -> Result<(Inputs, f64), String> {
    let mut rng = Rng::new(config.seed);
    let batch: &[(usize, usize)] = if config.smoke { &SMOKE_BATCH } else { &BATCH };
    let mut documents = Vec::new();
    let mut generate_ms = 0.0;
    for &(side, copies) in batch {
        for copy in 0..copies {
            let started = Instant::now();
            let device = generate_fpva(
                &format!("fpva_{side}x{side}_{copy}"),
                &FpvaConfig {
                    rows: side,
                    cols: side,
                    seed: rng.next_u64(),
                },
            );
            generate_ms += started.elapsed().as_secs_f64() * 1e3;
            documents.push(device.to_json().map_err(|e| e.to_string())?);
        }
    }
    let bytes = documents.iter().map(String::len).sum();
    Ok((Inputs { documents, bytes }, generate_ms))
}

fn batch_config(config: &Config) -> BatchIngestConfig {
    BatchIngestConfig::new()
        .threads(config.threads)
        .verify(true)
}

/// One operation per document: it must be clean.
fn check_clean(results: &[DocumentIngest]) -> Tally {
    let mut tally = Tally::default();
    for result in results {
        tally.check(result.is_clean());
    }
    tally
}

/// One operation per distinct document: the reference parser must yield
/// the same `Device` the batch compiled.
fn check_reference(inputs: &Inputs, results: &[DocumentIngest]) -> Tally {
    let mut tally = Tally::default();
    for (document, result) in inputs.documents.iter().zip(results) {
        let reference = Device::from_json(document).ok();
        let ingested = result.compiled.as_ref().ok().map(|c| c.device());
        tally.check(reference.is_some() && reference.as_ref() == ingested);
    }
    tally
}

/// Timed `ingest_batch` passes for at least `seconds`; returns each
/// pass's wall time in seconds. Results are checked and dropped outside
/// the timed region, before the next pass.
fn passes(inputs: &Inputs, config: &Config, tally: &mut Tally) -> Vec<f64> {
    let batch = batch_config(config);
    let budget = config.seconds as f64;
    let started = Instant::now();
    let mut walls = Vec::new();
    while walls.len() < MIN_PASSES || started.elapsed().as_secs_f64() < budget {
        let pass = Instant::now();
        let results = ingest_batch(&inputs.documents, &batch);
        walls.push(pass.elapsed().as_secs_f64());
        tally.absorb(check_clean(&results));
        drop(results);
    }
    walls
}

/// One pass through the public calls `ingest_batch` makes for each
/// document (`Device::from_json_fast`, `compile_device`, `execute_stage`
/// of the validate stage) on `shard_map` workers, with `recorder`
/// installed in each worker when one is given. `ingest_batch` spawns
/// workers of its own, which a recorder installed by its caller never
/// reaches, so its work can be traced only through this pass; the
/// untraced side of the comparison is the same pass without a recorder.
fn instrumented_pass(
    inputs: &Inputs,
    threads: usize,
    validate: &Stage,
    recorder: Option<&Arc<dyn Recorder>>,
) -> Vec<DocumentIngest> {
    let policy = ExecPolicy::new();
    shard_map(&inputs.documents, threads, |_, document| {
        let ingest = || {
            let started = Instant::now();
            let parsed = Device::from_json_fast(document);
            let parse_wall = started.elapsed();
            let device = match parsed {
                Ok(device) => device,
                Err(error) => {
                    return DocumentIngest {
                        device: None,
                        compiled: Err(format!("parse: {error}")),
                        parse_wall,
                        compile_wall: Duration::ZERO,
                        validate: None,
                    }
                }
            };
            let name = device.name.clone();
            let exec = compile_device(move || device, None, false);
            let validate = exec
                .compiled
                .as_ref()
                .ok()
                .map(|compiled| execute_stage(validate, compiled, &policy, None, false));
            DocumentIngest {
                device: Some(name),
                compiled: exec.compiled,
                parse_wall,
                compile_wall: exec.wall,
                validate,
            }
        };
        match recorder {
            Some(recorder) => parchmint_obs::with_recorder(Arc::clone(recorder), ingest),
            None => ingest(),
        }
    })
}

/// The cost of the program's tracing on ingest: instrumented passes
/// alternated without and with a collector in every worker, for at least
/// `seconds`. Returns the median untraced and traced pass walls and the
/// events one traced pass recorded.
fn trace_overhead(inputs: &Inputs, config: &Config, tally: &mut Tally) -> (f64, f64, usize) {
    let validate = layers::harness_stages(&["validate"])
        .pop()
        .expect("the harness has a validate stage");
    let collector = Arc::new(Collector::new());
    let recorder: Arc<dyn Recorder> = Arc::clone(&collector) as Arc<dyn Recorder>;
    let budget = config.seconds as f64;
    let started = Instant::now();
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut events = 0;
    while traced.len() < OVERHEAD_PAIRS || started.elapsed().as_secs_f64() < budget {
        for (walls, recorder) in [(&mut untraced, None), (&mut traced, Some(&recorder))] {
            let pass = Instant::now();
            let results = instrumented_pass(inputs, config.threads, &validate, recorder);
            walls.push(pass.elapsed().as_secs_f64());
            tally.absorb(check_clean(&results));
            drop(results);
        }
        events = collector.drain().len();
    }
    (stats::median(&untraced), stats::median(&traced), events)
}

pub fn run(config: &Config) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let mut setup_s = Vec::new();
    let mut generate_ms = Vec::new();
    let mut inputs = None;
    for _ in 0..SETUP_REPEATS {
        drop(inputs.take());
        let started = Instant::now();
        let (generated, ms) = generate(config)?;
        setup_s.push(started.elapsed().as_secs_f64());
        generate_ms.push(ms);
        inputs = Some(generated);
    }
    let inputs = inputs.expect("set-up ran");

    // Discarded warm-up pass, which also carries the reference check.
    let warmup = ingest_batch(&inputs.documents, &batch_config(config));
    outcome.tally.absorb(check_clean(&warmup));
    outcome.tally.absorb(check_reference(&inputs, &warmup));
    drop(warmup);

    let walls = passes(&inputs, config, &mut outcome.tally);
    let wall = stats::median(&walls);
    let fastest = walls.iter().copied().fold(f64::INFINITY, f64::min);
    let slowest = walls.iter().copied().fold(0.0, f64::max);
    outcome.note(format!(
        "{} documents, {} bytes per pass; {} timed passes: min {fastest:.4} s, \
         median {wall:.4} s ({:.2} MB/s), max {slowest:.4} s",
        inputs.documents.len(),
        inputs.bytes,
        walls.len(),
        inputs.bytes as f64 / 1e6 / wall,
    ));
    if !config.trace {
        outcome.metric("setup_s", stats::median(&setup_s), "s");
        outcome.metric("wall_s", wall, "s");
        return Ok(outcome);
    }

    let (untraced, traced, events) = trace_overhead(&inputs, config, &mut outcome.tally);
    outcome.note(format!(
        "instrumented passes: untraced median {untraced:.4} s, traced median {traced:.4} s, \
         {events} events recorded per traced pass"
    ));
    let validate = layers::harness_stages(&["validate"]);
    let mut per_pass: Vec<LayerTimes> = Vec::new();
    for _ in 0..LAYER_PASSES {
        let mut times = LayerTimes::default();
        for document in &inputs.documents {
            let device = layers::parse(document, &mut times)?;
            let compiled = layers::compile(device, &mut times);
            for stage in &validate {
                black_box(layers::stage(stage, &compiled, &mut times));
            }
        }
        per_pass.push(times);
    }
    let median_of = |field: fn(&LayerTimes) -> f64| {
        stats::median(&per_pass.iter().map(field).collect::<Vec<_>>())
    };
    let serial_s = median_of(|t| t.parse_ms + t.compile_ms + t.validate_ms) / 1e3;
    outcome.metric("suite.generate_ms", stats::median(&generate_ms), "ms");
    outcome.metric("core.parse_ms", median_of(|t| t.parse_ms), "ms");
    outcome.metric(
        "core.parse_mb_per_s",
        median_of(LayerTimes::parse_mb_per_s),
        "MB/s",
    );
    outcome.metric("core.compile_ms", median_of(|t| t.compile_ms), "ms");
    outcome.metric("verify.validate_ms", median_of(|t| t.validate_ms), "ms");
    outcome.metric(
        "harness.batch.efficiency",
        stats::efficiency(serial_s, wall, config.threads),
        "ratio",
    );
    outcome.metric(
        "obs.trace_overhead_pct",
        stats::overhead_pct(traced, untraced),
        "%",
    );
    Ok(outcome)
}
