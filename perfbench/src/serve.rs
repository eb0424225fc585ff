//! `serve_resubmit`: a generator in the loop ("Automated Generation of
//! Microfluidic Netlists using LLMs") that keeps resubmitting
//! near-duplicate designs to a warm daemon. An in-process `serve_tcp`
//! daemon on a loopback port, default configuration, takes a seeded
//! stream from one closed-loop client per core, one request in flight
//! per connection, every request asking for the stages
//! `validate,characterize,flow,control`.
//!
//! Most requests repeat a warm set that set-up submits once (small suite
//! designs plus FPVA arrays of 1k, 4k and 10k components); the rest are
//! fresh seeded variants that miss the cache. Designs arrive as inline
//! JSON, MINT text and registry names. Hits and misses share the serve
//! layers in different ways; place-and-route never runs.

use crate::layers::{self, LayerTimes, SERVED_STAGES};
use crate::record::Rng;
use crate::stats::{self, Tally};
use crate::{Config, Outcome};
use parchmint::ir::CompiledDevice;
use parchmint::Device;
use parchmint_harness::{execute_stage, ExecPolicy};
use parchmint_obs::Recorder;
use parchmint_serve::{hash, parse_request, DesignSource, Request, ServeConfig, Service};
use parchmint_suite::synthetic::{generate, SyntheticConfig};
use parchmint_suite::{generate_fpva, FpvaConfig};
use serde_json::Value;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const SETUP_REPEATS: usize = 3;
/// Small hits of the discarded warm-up pass.
const WARMUP_REQUESTS: usize = 20;
/// Longest a client waits for any reply before counting the request
/// failed.
const REPLY_TIMEOUT: Duration = Duration::from_secs(120);

/// The request mix: assumed counts (README.md gives each one's reason),
/// fixed so every seed exercises the same shape and the work counters
/// repeat exactly; the seed picks the designs and their order.
#[derive(Debug, Clone, Copy)]
struct Mix {
    /// FPVA grid sides of the warm set: ~1k, ~4k and ~10k components.
    fpva_sides: [usize; 3],
    /// Hits on each FPVA warm design, in `fpva_sides` order.
    fpva_hits: [usize; 3],
    /// Hits on the small warm designs.
    small_hits: usize,
    misses: usize,
}

/// 1000 hits, so the hit p99 has 10 samples beyond it, and 40 misses,
/// so the miss p50 has 20. The 3 hits on the 10k array rank above the
/// p99 and 7 of the 16 hits on the 4k array join them, so the p99 is the
/// middle of the 4k group rather than the edge between two groups.
const FULL: Mix = Mix {
    fpva_sides: [19, 37, 58],
    fpva_hits: [24, 16, 3],
    small_hits: 957,
    misses: 40,
};

/// The benchmark's own tests: the same counts on tiny arrays.
const SMOKE: Mix = Mix {
    fpva_sides: [4, 5, 6],
    fpva_hits: [24, 16, 3],
    small_hits: 957,
    misses: 20,
};

/// A design as a request carries it.
#[derive(Debug, Clone)]
enum Design {
    Json(String),
    Mint(String),
    Name(String),
}

impl Design {
    /// The submit request body after `"id":…,` — everything but the id.
    fn body(&self) -> String {
        let source = match self {
            Design::Json(json) => format!("\"design\":{json}"),
            Design::Mint(text) => format!("\"mint\":{}", Value::from(text.as_str())),
            Design::Name(name) => format!("\"benchmark\":{}", Value::from(name.as_str())),
        };
        let stages: Vec<String> = SERVED_STAGES.iter().map(|s| format!("\"{s}\"")).collect();
        format!(
            "\"proto\":\"parchmint-serve/1\",{source},\"stages\":[{}]}}\n",
            stages.join(",")
        )
    }

    /// The device the request describes, decoded by the reference
    /// decoders (the tree JSON parser, MINT, the registry).
    fn reference_device(&self) -> Result<Device, String> {
        match self {
            Design::Json(json) => Device::from_json(json).map_err(|e| e.to_string()),
            Design::Mint(text) => parchmint_mint::parse(text)
                .map_err(|e| e.to_string())
                .and_then(|f| parchmint_mint::mint_to_device(&f).map_err(|e| e.to_string())),
            Design::Name(name) => parchmint_suite::by_name(name)
                .map(|b| b.device())
                .ok_or_else(|| format!("unknown benchmark {name}")),
        }
    }
}

fn request_line(id: usize, body: &str) -> String {
    format!("{{\"op\":\"submit\",\"id\":{id},{body}")
}

/// MINT text for `device`, if it converts back; otherwise `None`.
fn mint_of(device: &Device) -> Option<String> {
    let text = parchmint_mint::print(&parchmint_mint::device_to_mint(device));
    let file = parchmint_mint::parse(&text).ok()?;
    parchmint_mint::mint_to_device(&file).ok().map(|_| text)
}

fn json_of(device: &Device) -> Result<String, String> {
    device.to_json().map_err(|e| e.to_string())
}

/// The stream's size classes: the small warm designs, the three FPVA
/// warm designs, and the fresh misses.
const CLASSES: [&str; 5] = ["small", "fpva_1k", "fpva_4k", "fpva_10k", "miss"];

/// Everything one seed generates.
struct Inputs {
    designs: Vec<Design>,
    /// Request bodies, by design.
    bodies: Vec<String>,
    /// Designs set-up submits once.
    warm: Vec<usize>,
    /// The first `small` designs are the small suite designs.
    small: usize,
    /// The timed stream: design per request.
    stream: Vec<usize>,
    /// Which stream requests are planned as misses.
    planned_miss: Vec<bool>,
    generate_ms: f64,
}

impl Inputs {
    /// The index into [`CLASSES`] of `design`.
    fn class(&self, design: usize) -> usize {
        if design < self.small {
            0
        } else if design < self.small + 3 {
            1 + design - self.small
        } else {
            4
        }
    }
}

fn generate_inputs(config: &Config) -> Result<Inputs, String> {
    let mix = if config.smoke { SMOKE } else { FULL };
    let mut rng = Rng::new(config.seed);
    let mut designs = Vec::new();
    let mut generate_ms = 0.0;
    let mut timed = |make: &mut dyn FnMut() -> Device| {
        let started = Instant::now();
        let device = make();
        generate_ms += started.elapsed().as_secs_f64() * 1e3;
        device
    };

    // Small warm designs: every suite benchmark by name, as inline JSON,
    // and as MINT where the design converts.
    for benchmark in parchmint_suite::suite() {
        let device = timed(&mut || benchmark.device());
        let name = benchmark.name();
        designs.push(Design::Name(name.to_string()));
        designs.push(Design::Json(json_of(&device)?));
        if let Some(text) = mint_of(&device) {
            designs.push(Design::Mint(text));
        }
    }
    let small = designs.len();
    for side in mix.fpva_sides {
        let seed = rng.next_u64();
        let label = format!("fpva_{side}x{side}");
        let device = timed(&mut || {
            generate_fpva(
                &label,
                &FpvaConfig {
                    rows: side,
                    cols: side,
                    seed,
                },
            )
        });
        designs.push(Design::Json(json_of(&device)?));
    }
    let warm: Vec<usize> = (0..designs.len()).collect();

    // Fresh variants: planar synthetic grids (inline JSON and MINT) and
    // small FPVA arrays, each under a unique name so none can hit.
    let mut misses = Vec::new();
    for i in 0..mix.misses {
        let seed = rng.next_u64();
        let label = format!("miss_{i}");
        let design = match i % 4 {
            0..=2 => {
                let target = [12, 24, 48, 96][rng.range(0, 3)];
                let device = timed(&mut || generate(&label, &SyntheticConfig::sized(target, seed)));
                let mint = if i % 4 == 2 { mint_of(&device) } else { None };
                match mint {
                    Some(text) => Design::Mint(text),
                    None => Design::Json(json_of(&device)?),
                }
            }
            _ => {
                let (rows, cols) = (rng.range(4, 10), rng.range(4, 10));
                let device = timed(&mut || generate_fpva(&label, &FpvaConfig { rows, cols, seed }));
                Design::Json(json_of(&device)?)
            }
        };
        misses.push(designs.len());
        designs.push(design);
    }

    let mut stream: Vec<(usize, bool)> = misses.iter().map(|&d| (d, true)).collect();
    for (k, &hits) in mix.fpva_hits.iter().enumerate() {
        stream.extend(std::iter::repeat_n((small + k, false), hits));
    }
    for j in 0..mix.small_hits {
        stream.push((j % small, false));
    }
    rng.shuffle(&mut stream);
    let bodies = designs.iter().map(Design::body).collect();
    Ok(Inputs {
        designs,
        bodies,
        warm,
        small,
        stream: stream.iter().map(|&(d, _)| d).collect(),
        planned_miss: stream.iter().map(|&(_, miss)| miss).collect(),
        generate_ms,
    })
}

/// What the client saw for one request.
#[derive(Debug, Clone, Default)]
struct Served {
    latency_ms: f64,
    /// The `done` event's compile-cache flag; `None` when no `done` came.
    cached: Option<bool>,
    /// `(stage, status, metrics as JSON)` per cell event.
    cells: Vec<(String, String, String)>,
    error: Option<String>,
}

fn cell_of(event: &Value) -> Option<(String, String, String)> {
    let cell = event.get("cell")?;
    let metrics = cell
        .get("metrics")
        .cloned()
        .unwrap_or_else(|| Value::Object(Default::default()));
    Some((
        cell.get("stage")?.as_str()?.to_string(),
        cell.get("status")?.as_str()?.to_string(),
        metrics.to_string(),
    ))
}

/// Folds one response event into `served`; true once the request ended.
fn absorb_event(served: &mut Served, event: &Value) -> bool {
    match event.get("event").and_then(Value::as_str) {
        Some("cell") => {
            match cell_of(event) {
                Some(cell) => served.cells.push(cell),
                None => served.error = Some(format!("malformed cell event {event}")),
            }
            false
        }
        Some("done") => {
            served.cached = event.get("cached").and_then(Value::as_bool);
            true
        }
        Some("error") => {
            served.error = Some(event["error"].to_string());
            true
        }
        _ => {
            served.error = Some(format!("unexpected event {event}"));
            true
        }
    }
}

/// One closed-loop connection: send a request as one buffer, read until
/// its `done` (or `error`), repeat.
fn connection(
    addr: SocketAddr,
    inputs: &Inputs,
    order: &[usize],
    next: &AtomicUsize,
    results: &Mutex<Vec<(usize, Served)>>,
) -> Result<(), String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(REPLY_TIMEOUT))
        .map_err(|e| e.to_string())?;
    let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    loop {
        let index = next.fetch_add(1, Ordering::Relaxed);
        let Some(&design) = order.get(index) else {
            return Ok(());
        };
        let request = request_line(index, &inputs.bodies[design]);
        let mut served = Served::default();
        let started = Instant::now();
        let sent = writer.write_all(request.as_bytes());
        let mut done = false;
        while sent.is_ok() && !done {
            line.clear();
            match reader.read_line(&mut line) {
                Ok(0) => {
                    served.error = Some("connection closed".to_string());
                    done = true;
                }
                Ok(_) => match serde_json::from_str::<Value>(&line) {
                    Ok(event) => done = absorb_event(&mut served, &event),
                    Err(e) => {
                        served.error = Some(format!("unparseable reply: {e}"));
                        done = true;
                    }
                },
                Err(e) => {
                    served.error = Some(format!("read: {e}"));
                    done = true;
                }
            }
        }
        served.latency_ms = started.elapsed().as_secs_f64() * 1e3;
        if let Err(e) = sent {
            served.error = Some(format!("write: {e}"));
        }
        let broken = served.error.is_some() && served.cached.is_none();
        results.lock().expect("result lock").push((index, served));
        if broken {
            // The connection is unusable; the remaining requests go to
            // the other connections (or stay unserved and count failed).
            return Ok(());
        }
    }
}

/// Drives `order` through `connections` closed-loop clients; returns
/// each request's outcome in `order` order plus the wall time.
fn drive(
    addr: SocketAddr,
    inputs: &Inputs,
    order: &[usize],
    connections: usize,
) -> (Vec<Served>, f64) {
    let next = AtomicUsize::new(0);
    let results = Mutex::new(Vec::with_capacity(order.len()));
    let started = Instant::now();
    let errors: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..connections.max(1))
            .map(|_| {
                let (next, results) = (&next, &results);
                scope.spawn(move || connection(addr, inputs, order, next, results))
            })
            .collect();
        handles
            .into_iter()
            .filter_map(|h| h.join().expect("client thread panicked").err())
            .collect()
    });
    let wall = started.elapsed().as_secs_f64();
    let mut served: Vec<Served> = vec![Served::default(); order.len()];
    let mut seen = vec![false; order.len()];
    for (index, outcome) in results.into_inner().expect("result lock") {
        served[index] = outcome;
        seen[index] = true;
    }
    for (served, seen) in served.iter_mut().zip(seen) {
        if !seen {
            served.error = Some(format!("never sent: {}", errors.join("; ")));
        }
    }
    (served, wall)
}

struct Daemon {
    addr: SocketAddr,
    handle: JoinHandle<std::io::Result<()>>,
}

impl Daemon {
    fn start() -> Result<Daemon, String> {
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
        let addr = listener.local_addr().map_err(|e| e.to_string())?;
        let service = Arc::new(Service::new(ServeConfig::default()));
        let handle = std::thread::spawn(move || parchmint_serve::serve_tcp(service, listener));
        Ok(Daemon { addr, handle })
    }

    /// Sends one control op and returns its single reply.
    fn op(&self, op: &str) -> Result<Value, String> {
        let mut stream = TcpStream::connect(self.addr).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(REPLY_TIMEOUT))
            .map_err(|e| e.to_string())?;
        stream
            .write_all(format!("{{\"op\":\"{op}\",\"id\":\"{op}\"}}\n").as_bytes())
            .map_err(|e| e.to_string())?;
        let mut line = String::new();
        BufReader::new(stream)
            .read_line(&mut line)
            .map_err(|e| format!("{op}: {e}"))?;
        serde_json::from_str(&line).map_err(|e| format!("{op} reply: {e}"))
    }

    fn stats(&self) -> Result<Value, String> {
        Ok(self.op("stats")?["stats"].clone())
    }

    fn shutdown(self) -> Result<(), String> {
        self.op("shutdown")?;
        self.handle
            .join()
            .map_err(|_| "daemon thread panicked".to_string())?
            .map_err(|e| format!("daemon: {e}"))
    }
}

/// Reference cells per design: `harness::execute_stage` on the device the
/// request describes, computed once per distinct design.
type Reference = Vec<(String, String, String)>;

fn references(inputs: &Inputs, threads: usize) -> Vec<Result<Reference, String>> {
    let stages = layers::harness_stages(&SERVED_STAGES);
    let policy = ExecPolicy::new();
    parchmint_harness::shard_map(&inputs.designs, threads, |_, design| {
        let compiled = CompiledDevice::compile(design.reference_device()?);
        Ok(stages
            .iter()
            .map(|stage| {
                let exec = execute_stage(stage, &compiled, &policy, None, false);
                let metrics: serde_json::Map = exec.metrics.into_iter().collect();
                (
                    stage.name.clone(),
                    exec.status.as_str().to_string(),
                    Value::Object(metrics).to_string(),
                )
            })
            .collect())
    })
}

/// One operation per request (it must end in `done`) and one per cell
/// (status and metrics must equal the reference).
fn check(served: &[Served], order: &[usize], refs: &[Result<Reference, String>]) -> Tally {
    let mut tally = Tally::default();
    for (outcome, &design) in served.iter().zip(order) {
        tally.check(outcome.error.is_none() && outcome.cached.is_some());
        match &refs[design] {
            Ok(reference) => {
                tally.check(outcome.cells.len() == reference.len());
                for cell in &outcome.cells {
                    tally.check(reference.contains(cell));
                }
            }
            Err(_) => tally.check(false),
        }
    }
    tally
}

/// One operation per stream request: its `done` must report the compile
/// cached exactly when the request was planned as a hit.
fn check_cached(served: &[Served], planned_miss: &[bool]) -> Tally {
    let mut tally = Tally::default();
    for (outcome, &miss) in served.iter().zip(planned_miss) {
        tally.check(outcome.cached == Some(!miss));
    }
    tally
}

/// The latencies of the stream requests `keep` selects by index; a failed
/// request misses any latency limit, so it counts as infinite.
fn latencies(served: &[Served], keep: impl Fn(usize) -> bool) -> Vec<f64> {
    (0..served.len())
        .filter(|&i| keep(i))
        .map(|i| match served[i].error {
            Some(_) => f64::INFINITY,
            None => served[i].latency_ms,
        })
        .collect()
}

fn counter(stats: &Value, path: &[&str]) -> u64 {
    path.iter()
        .fold(stats, |value, key| &value[*key])
        .as_u64()
        .unwrap_or(0)
}

/// One note per size class: its requests, its measured share of the
/// stream, and the median of each `(name, per-request values)` column
/// over the class.
fn class_notes(inputs: &Inputs, columns: &[(&str, &[f64])]) -> Vec<String> {
    let total = inputs.stream.len();
    CLASSES
        .iter()
        .enumerate()
        .map(|(class, label)| {
            let members: Vec<usize> = (0..total)
                .filter(|&i| inputs.class(inputs.stream[i]) == class)
                .collect();
            let mut note = format!(
                "class {label}: {} requests, share {:.4}",
                members.len(),
                members.len() as f64 / total as f64
            );
            if !members.is_empty() {
                for (name, values) in columns {
                    let picked: Vec<f64> = members.iter().map(|&i| values[i]).collect();
                    note.push_str(&format!(
                        "; median {name} {:.3} over {}",
                        stats::median(&picked),
                        picked.len()
                    ));
                }
            }
            note
        })
        .collect()
}

pub fn run(config: &Config) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let mut daemon: Option<Daemon> = None;
    let mut setup_s = Vec::new();
    let mut generate_ms = Vec::new();
    let mut inputs = None;
    let mut warm_results = Vec::new();

    // Set-up, repeated: generate the inputs, start a daemon, and warm
    // its cache with every warm design once.
    for _ in 0..SETUP_REPEATS {
        drop(inputs.take());
        if let Some(previous) = daemon.take() {
            previous.shutdown()?;
        }
        let started = Instant::now();
        let generated = generate_inputs(config)?;
        let warmed = Daemon::start()?;
        let (served, _) = drive(warmed.addr, &generated, &generated.warm, config.threads);
        setup_s.push(started.elapsed().as_secs_f64());
        generate_ms.push(generated.generate_ms);
        warm_results.push(served);
        daemon = Some(warmed);
        inputs = Some(generated);
    }
    let inputs = inputs.expect("set-up ran");
    let daemon = daemon.expect("a warmed daemon");
    let refs = references(&inputs, config.threads);
    for served in &warm_results {
        outcome.tally.absorb(check(served, &inputs.warm, &refs));
    }
    drop(warm_results);

    // Discarded warm-up pass: small hits, then a hit of the largest warm
    // design on every connection at once. Without the second part the
    // process's peak memory depends on whether the seeded order happens
    // to put two large hits in flight together; with it, the heap has
    // grown to the stream's largest concurrent requests before timing.
    let largest = inputs.small + 2;
    let warmup_order: Vec<usize> = inputs
        .stream
        .iter()
        .copied()
        .filter(|&d| d < inputs.small)
        .take(WARMUP_REQUESTS)
        .chain(std::iter::repeat_n(largest, config.threads))
        .collect();
    let (warmup, _) = drive(daemon.addr, &inputs, &warmup_order, config.threads);
    outcome.tally.absorb(check(&warmup, &warmup_order, &refs));

    let (served, wall) = drive(daemon.addr, &inputs, &inputs.stream, config.threads);
    outcome.tally.absorb(check(&served, &inputs.stream, &refs));
    outcome
        .tally
        .absorb(check_cached(&served, &inputs.planned_miss));
    let stats = daemon.stats()?;
    daemon.shutdown()?;

    // Requests are classed as planned; `check_cached` has made sure the
    // daemon agreed, and a failed request stays in its class.
    let all = latencies(&served, |_| true);
    let hits = latencies(&served, |i| !inputs.planned_miss[i]);
    let misses = latencies(&served, |i| inputs.planned_miss[i]);
    let p99 = stats::percentile(&all, 0.99)?;
    let hit_p50 = stats::percentile(&hits, 0.5)?;
    let hit_p99 = stats::percentile(&hits, 0.99)?;
    let miss_p50 = stats::percentile(&misses, 0.5)?;
    let measured_hits = served.iter().filter(|s| s.cached == Some(true)).count();
    let hit_share = measured_hits as f64 / served.len() as f64;
    outcome.note(format!(
        "p99 over {} requests ({} beyond); hit p50/p99 over {} hits ({} beyond p99); \
         miss p50 over {} misses ({} beyond); measured hit share {hit_share:.4}",
        p99.samples, p99.beyond, hit_p50.samples, hit_p99.beyond, miss_p50.samples, miss_p50.beyond,
    ));
    let compiled = counter(&stats, &["counters", "serve.compile.executed"]);
    outcome
        .counters
        .insert("serve.compile.executed".to_string(), compiled);
    let tcp_ms: Vec<f64> = served.iter().map(|s| s.latency_ms).collect();

    outcome.note(format!(
        "stream of {} requests: {wall:.3} s, {:.2} requests/s; over TCP p99 {:.3} ms, \
         hit p50 {:.3} ms, hit p99 {:.3} ms, miss p50 {:.3} ms",
        all.len(),
        all.len() as f64 / wall,
        p99.value,
        hit_p50.value,
        hit_p99.value,
        miss_p50.value,
    ));
    if !config.trace {
        for note in class_notes(&inputs, &[("tcp_ms", &tcp_ms)]) {
            outcome.note(note);
        }
        outcome.metric("setup_s", stats::median(&setup_s), "s");
        outcome.metric("wall_s", wall, "s");
        return Ok(outcome);
    }

    let replayed = replay(&inputs, &refs, &mut outcome.tally)?;
    let service_ms: Vec<f64> = replayed.iter().map(|r| r.untraced_ms).collect();
    let traced_ms: f64 = replayed.iter().map(|r| r.traced_ms).sum();
    let untraced_ms: f64 = service_ms.iter().sum();
    let planned = |miss: bool| -> Vec<usize> {
        (0..served.len())
            .filter(|&i| inputs.planned_miss[i] == miss)
            .collect()
    };
    let (hit_requests, miss_requests) = (planned(false), planned(true));
    let hit_service: Vec<f64> = hit_requests.iter().map(|&i| service_ms[i]).collect();
    let miss_service: Vec<f64> = miss_requests.iter().map(|&i| service_ms[i]).collect();
    let hit_tcp: Vec<f64> = hit_requests.iter().map(|&i| tcp_ms[i]).collect();
    let wire = stats::wire_times(&hit_tcp, &hit_service);
    let times = stream_layers(&inputs)?;
    for note in class_notes(
        &inputs,
        &[
            ("tcp_ms", &tcp_ms),
            ("service_ms", &service_ms),
            ("parse_request_ms", &times.request_parse_ms),
        ],
    ) {
        outcome.note(note);
    }
    let lookups =
        counter(&stats, &["cache", "memory_hits"]) + counter(&stats, &["cache", "spill_hits"]);
    let lookups_total = lookups + counter(&stats, &["cache", "misses"]);

    outcome.metric("suite.generate_ms", stats::median(&generate_ms), "ms");
    outcome.metric("core.parse_ms", times.layers.parse_ms, "ms");
    outcome.metric("core.parse_mb_per_s", times.layers.parse_mb_per_s(), "MB/s");
    outcome.metric("core.compile_ms", times.layers.compile_ms, "ms");
    outcome.metric("mint.parse_convert_ms", times.layers.mint_ms, "ms");
    outcome.metric("verify.validate_ms", times.layers.validate_ms, "ms");
    outcome.metric("stats.characterize_ms", times.layers.characterize_ms, "ms");
    outcome.metric("sim.flow_ms", times.layers.flow_ms, "ms");
    outcome.metric("control.plan_ms", times.layers.control_ms, "ms");
    outcome.metric(
        "serve.request_parse_ms",
        times.request_parse_ms.iter().sum(),
        "ms",
    );
    outcome.metric("serve.hash_ms", times.hash_ms, "ms");
    outcome.metric("serve.service_ms.hit", stats::median(&hit_service), "ms");
    outcome.metric("serve.service_ms.miss", stats::median(&miss_service), "ms");
    outcome.metric("serve.wire_ms.hit", stats::median(&wire), "ms");
    outcome.metric("serve.tcp_ms.hit_p50", hit_p50.value, "ms");
    outcome.metric("serve.tcp_ms.hit_p99", hit_p99.value, "ms");
    outcome.metric("serve.tcp_ms.miss_p50", miss_p50.value, "ms");
    outcome.metric(
        "serve.cache.hit_ratio",
        lookups as f64 / lookups_total.max(1) as f64,
        "ratio",
    );
    outcome.metric("serve.compile.executed", compiled as f64, "count");
    outcome.metric(
        "serve.coalesced",
        counter(&stats, &["cache", "coalesced"]) as f64,
        "count",
    );
    outcome.metric(
        "serve.busy_refusals",
        counter(&stats, &["requests", "rejected"]) as f64,
        "count",
    );
    outcome.metric(
        "serve.peak_in_flight",
        counter(&stats, &["requests", "peak_in_flight"]) as f64,
        "count",
    );
    outcome.metric("serve.hit_share", hit_share, "ratio");
    outcome.metric("serve.samples.hit", hits.len() as f64, "count");
    outcome.metric("serve.samples.miss", misses.len() as f64, "count");
    outcome.metric(
        "obs.trace_overhead_pct",
        stats::overhead_pct(traced_ms, untraced_ms),
        "%",
    );
    Ok(outcome)
}

/// One stream request replayed in process.
struct Replayed {
    /// `Service::process_submit` with no recorder installed.
    untraced_ms: f64,
    /// The same call with the service's collector installed, as the
    /// daemon's workers always run it.
    traced_ms: f64,
}

/// `process_submit` of one request line, timed, with its events folded.
fn submit(service: &Service, index: usize, body: &str) -> Result<(f64, Served), String> {
    let line = request_line(index, body);
    let Ok(Request::Submit(request)) = parse_request(&line) else {
        return Err(format!("request {index} does not parse as a submit"));
    };
    let mut served = Served::default();
    let started = Instant::now();
    service.process_submit(&request, &mut |event| {
        absorb_event(&mut served, &event);
    });
    Ok((started.elapsed().as_secs_f64() * 1e3, served))
}

/// The stream through `Service::process_submit` with no socket, on two
/// fresh, identically warmed services that take each request in turn:
/// one bare, one with its own collector installed around the call. The
/// daemon has no untraced mode (its workers always install the
/// collector), so this pair is where tracing's cost on the serve path
/// shows. Which service goes first alternates, so neither always finds
/// the request's bytes in the CPU caches.
fn replay(
    inputs: &Inputs,
    refs: &[Result<Reference, String>],
    tally: &mut Tally,
) -> Result<Vec<Replayed>, String> {
    let bare = Service::new(ServeConfig::default());
    let traced = Service::new(ServeConfig::default());
    let recorder: Arc<dyn Recorder> = traced.collector();
    let traced_submit = |index: usize, design: usize| {
        parchmint_obs::with_recorder(Arc::clone(&recorder), || {
            submit(&traced, index, &inputs.bodies[design])
        })
    };
    for (index, &design) in inputs.warm.iter().enumerate() {
        submit(&bare, index, &inputs.bodies[design])?;
        traced_submit(index, design)?;
    }
    let mut timings = Vec::with_capacity(inputs.stream.len());
    let (mut bare_served, mut traced_served) = (Vec::new(), Vec::new());
    for (index, &design) in inputs.stream.iter().enumerate() {
        let ((untraced_ms, plain), (traced_ms, recorded)) = if index % 2 == 0 {
            let plain = submit(&bare, index, &inputs.bodies[design])?;
            (plain, traced_submit(index, design)?)
        } else {
            let recorded = traced_submit(index, design)?;
            (submit(&bare, index, &inputs.bodies[design])?, recorded)
        };
        timings.push(Replayed {
            untraced_ms,
            traced_ms,
        });
        bare_served.push(plain);
        traced_served.push(recorded);
    }
    for served in [&bare_served, &traced_served] {
        tally.absorb(check(served, &inputs.stream, refs));
        tally.absorb(check_cached(served, &inputs.planned_miss));
    }
    Ok(timings)
}

struct StreamLayers {
    layers: LayerTimes,
    /// `parse_request` time per stream request.
    request_parse_ms: Vec<f64>,
    hash_ms: f64,
}

/// Busy time per layer over one pass of the stream, calling each layer
/// as the daemon does: every request is parsed, resolved and hashed
/// (even a hit); only the misses compile and run the stages, which are
/// the harness's own.
fn stream_layers(inputs: &Inputs) -> Result<StreamLayers, String> {
    let stages = layers::harness_stages(&SERVED_STAGES);
    let mut times = StreamLayers {
        layers: LayerTimes::default(),
        request_parse_ms: Vec::with_capacity(inputs.stream.len()),
        hash_ms: 0.0,
    };
    for (index, (&design, &miss)) in inputs.stream.iter().zip(&inputs.planned_miss).enumerate() {
        let line = request_line(index, &inputs.bodies[design]);
        let started = Instant::now();
        let parsed = parse_request(&line);
        times
            .request_parse_ms
            .push(started.elapsed().as_secs_f64() * 1e3);
        let Ok(Request::Submit(request)) = parsed else {
            return Err(format!("request {index} does not parse as a submit"));
        };
        let device = match &request.source {
            DesignSource::Json(value) => {
                layers::parse(&hash::canonical_string(value), &mut times.layers)?
            }
            DesignSource::Mint(text) => layers::mint(text, &mut times.layers)?,
            DesignSource::Benchmark(_) => inputs.designs[design].reference_device()?,
        };
        let reencoded: Value;
        let doc = match &request.source {
            DesignSource::Json(value) => value,
            _ => {
                reencoded = serde_json::from_str(&json_of(&device)?).map_err(|e| e.to_string())?;
                &reencoded
            }
        };
        let started = Instant::now();
        std::hint::black_box(hash::content_hash(doc));
        times.hash_ms += started.elapsed().as_secs_f64() * 1e3;
        if miss {
            let compiled = layers::compile(device, &mut times.layers);
            for stage in &stages {
                std::hint::black_box(layers::stage(stage, &compiled, &mut times.layers));
            }
        }
    }
    Ok(times)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn answered(latency_ms: f64, cached: bool) -> Served {
        Served {
            latency_ms,
            cached: Some(cached),
            ..Served::default()
        }
    }

    #[test]
    fn failed_and_flipped_requests_stay_in_their_planned_class() {
        let failed = Served {
            latency_ms: 5.0,
            error: Some("read: timed out".to_string()),
            ..Served::default()
        };
        // A hit, a failed hit, a miss, and a hit the daemon reported as
        // a miss.
        let served = [
            answered(1.0, true),
            failed,
            answered(3.0, false),
            answered(4.0, false),
        ];
        let planned_miss = [false, false, true, false];
        let hits = latencies(&served, |i| !planned_miss[i]);
        assert_eq!(hits, vec![1.0, f64::INFINITY, 4.0]);
        assert_eq!(latencies(&served, |i| planned_miss[i]), vec![3.0]);
        assert_eq!(
            check_cached(&served, &planned_miss),
            Tally {
                attempted: 4,
                failed: 2
            }
        );
    }
}
