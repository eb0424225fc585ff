//! The transport-agnostic service core: resolve → hash → compile →
//! stages, emitting wire events.
//!
//! Hash before parse: a submission is resolved only as far as its
//! canonical text ([`hash::canonical_string`]) and name, hashed, and
//! looked up. A hit whose stored canonical text is byte-equal to the
//! request's is replayed without decoding the design at all; only a
//! miss (or a collision, which is served as an uncached miss) decodes
//! it into a [`Device`] and compiles. Every service-side decode is
//! counted under `serve.design.decoded`.
//!
//! [`Service::process_submit`] is the single code path every daemon
//! worker runs, and it executes stages through exactly the same
//! [`parchmint_harness::engine`] the `suite-run` sweep uses — compile
//! once behind an `Arc`, panic isolation, severity→status mapping, and
//! the seed-bumped retry schedule all live there, so a design served
//! by the daemon and the same design swept by the harness end in
//! byte-identical cells.
//!
//! Cache discipline, per artifact:
//!
//! 1. probe the [`TieredCache`] (memory, then spill);
//! 2. on a miss, join the [`SingleFlight`] table for the artifact's
//!    key — the leader computes and publishes, every concurrent
//!    duplicate parks (counted under `cache.coalesced`) and replays the
//!    published result; an abandoned flight (panicked leader) wakes the
//!    waiters to retry, one of which promotes itself to leader.
//!
//! Caching rule: a submission is *cacheable* only when it runs
//! unconditioned — no deadline, no fuel, no armed fault plan. Bounded
//! or fault-injected runs execute fresh every time and their results
//! are never stored, so a degraded partial result can never be
//! replayed to a clean request.

use crate::cache::{CacheEntry, Lookup, TieredCache};
use crate::flight::{Flight, SingleFlight};
use crate::hash;
use crate::protocol::{
    cell_event, done_event, error_event, DesignSource, ErrorKind, SubmitRequest, WireError, PROTO,
    PROTO_MAJOR,
};
use parchmint::{CompiledDevice, Device};
use parchmint_harness::{engine, stage_matches, standard_stages, ExecPolicy, Stage, StageExec};
use parchmint_obs::Collector;
use parchmint_resilience::FaultPlan;
use serde_json::{Map, Value};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Queue capacity when none is configured.
pub const DEFAULT_QUEUE_CAPACITY: usize = 64;

/// HTTP request-body cap when none is configured. A full ParchMint
/// design is well under this; FPVA-scale documents (a 100k-component
/// grid serializes to ~100 MiB) need `--http-max-body` raised.
pub const DEFAULT_HTTP_MAX_BODY: usize = 8 << 20;

/// Per-connection read timeout when none is configured: how long a
/// *partial* frame (line or HTTP head) may sit unfinished before the
/// connection is evicted as a slow-drip peer. Measured from the first
/// byte of the frame, not from last progress — a slowloris dripping
/// one byte per second makes progress forever but never finishes.
pub const DEFAULT_READ_TIMEOUT_MS: u64 = 10_000;

/// Per-connection socket write timeout when none is configured.
pub const DEFAULT_WRITE_TIMEOUT_MS: u64 = 10_000;

/// Keep-alive idle timeout when none is configured: a connection with
/// an empty read buffer and no requests in flight is closed after this
/// long. Connections awaiting responses are never idle-evicted.
pub const DEFAULT_IDLE_TIMEOUT_MS: u64 = 60_000;

/// Line-protocol frame cap when none is configured. An FPVA-scale
/// inline design serializes to ~100 MiB, so the default is generous;
/// it exists to bound memory, not to police well-formed clients.
pub const DEFAULT_LINE_MAX_BYTES: usize = 256 << 20;

/// Resolves a timeout knob: `None` = the default, `Some(0)` =
/// disabled, anything else verbatim.
fn effective_timeout(configured: Option<u64>, default_ms: u64) -> Option<Duration> {
    match configured {
        None => Some(Duration::from_millis(default_ms)),
        Some(0) => None,
        Some(ms) => Some(Duration::from_millis(ms)),
    }
}

/// Daemon configuration: execution defaults, cache limits, and
/// transport endpoints. Opaque — build one with
/// [`ServeConfig::builder`].
#[derive(Debug, Clone, Default)]
pub struct ServeConfig {
    workers: usize,
    queue_capacity: usize,
    deadline: Option<Duration>,
    fuel: Option<u64>,
    faults: Option<FaultPlan>,
    cache_bytes: Option<u64>,
    cache_dir: Option<PathBuf>,
    tcp: Option<String>,
    http: Option<String>,
    http_max_body: usize,
    read_timeout_ms: Option<u64>,
    write_timeout_ms: Option<u64>,
    idle_timeout_ms: Option<u64>,
    line_max_bytes: usize,
}

impl ServeConfig {
    /// Starts a builder holding the default configuration.
    pub fn builder() -> ServeConfigBuilder {
        ServeConfigBuilder {
            config: ServeConfig::default(),
        }
    }

    /// Worker threads; `0` means one per available core.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Admission-queue capacity; `0` means [`DEFAULT_QUEUE_CAPACITY`].
    pub fn queue_capacity(&self) -> usize {
        self.queue_capacity
    }

    /// Default per-attempt deadline applied when a submission names none.
    pub fn deadline(&self) -> Option<Duration> {
        self.deadline
    }

    /// Default per-attempt fuel applied when a submission names none.
    pub fn fuel(&self) -> Option<u64> {
        self.fuel
    }

    /// Fault plan armed for matching designs (testing the daemon's own
    /// resilience); requests touched by it bypass the cache.
    pub fn faults(&self) -> Option<&FaultPlan> {
        self.faults.as_ref()
    }

    /// Memory-tier byte budget; `None` means unbounded.
    pub fn cache_bytes(&self) -> Option<u64> {
        self.cache_bytes
    }

    /// Disk-spill directory; `None` disables the persistent tier.
    pub fn cache_dir(&self) -> Option<&Path> {
        self.cache_dir.as_deref()
    }

    /// TCP listen address (`HOST:PORT`); `None` serves stdio.
    pub fn tcp(&self) -> Option<&str> {
        self.tcp.as_deref()
    }

    /// HTTP listen address (`HOST:PORT`); `None` disables the HTTP
    /// front end.
    pub fn http(&self) -> Option<&str> {
        self.http.as_deref()
    }

    /// HTTP request-body cap in bytes; `0` means
    /// [`DEFAULT_HTTP_MAX_BODY`].
    pub fn http_max_body(&self) -> usize {
        self.http_max_body
    }

    /// The effective HTTP request-body cap.
    pub fn effective_http_max_body(&self) -> usize {
        if self.http_max_body > 0 {
            self.http_max_body
        } else {
            DEFAULT_HTTP_MAX_BODY
        }
    }

    /// Configured read timeout in milliseconds; `None` means
    /// [`DEFAULT_READ_TIMEOUT_MS`], `Some(0)` disables it.
    pub fn read_timeout_ms(&self) -> Option<u64> {
        self.read_timeout_ms
    }

    /// Configured write timeout in milliseconds; `None` means
    /// [`DEFAULT_WRITE_TIMEOUT_MS`], `Some(0)` disables it.
    pub fn write_timeout_ms(&self) -> Option<u64> {
        self.write_timeout_ms
    }

    /// Configured keep-alive idle timeout in milliseconds; `None`
    /// means [`DEFAULT_IDLE_TIMEOUT_MS`], `Some(0)` disables it.
    pub fn idle_timeout_ms(&self) -> Option<u64> {
        self.idle_timeout_ms
    }

    /// Configured line-frame cap in bytes; `0` means
    /// [`DEFAULT_LINE_MAX_BYTES`].
    pub fn line_max_bytes(&self) -> usize {
        self.line_max_bytes
    }

    /// The effective partial-frame read timeout (`None` = disabled).
    pub fn effective_read_timeout(&self) -> Option<Duration> {
        effective_timeout(self.read_timeout_ms, DEFAULT_READ_TIMEOUT_MS)
    }

    /// The effective socket write timeout (`None` = disabled).
    pub fn effective_write_timeout(&self) -> Option<Duration> {
        effective_timeout(self.write_timeout_ms, DEFAULT_WRITE_TIMEOUT_MS)
    }

    /// The effective keep-alive idle timeout (`None` = disabled).
    pub fn effective_idle_timeout(&self) -> Option<Duration> {
        effective_timeout(self.idle_timeout_ms, DEFAULT_IDLE_TIMEOUT_MS)
    }

    /// The effective line-frame byte cap.
    pub fn effective_line_max_bytes(&self) -> usize {
        if self.line_max_bytes > 0 {
            self.line_max_bytes
        } else {
            DEFAULT_LINE_MAX_BYTES
        }
    }

    /// The effective worker count.
    pub fn effective_workers(&self) -> usize {
        if self.workers > 0 {
            return self.workers;
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }

    /// The effective admission-queue capacity.
    pub fn effective_queue_capacity(&self) -> usize {
        if self.queue_capacity > 0 {
            self.queue_capacity
        } else {
            DEFAULT_QUEUE_CAPACITY
        }
    }
}

/// Builder for [`ServeConfig`].
#[derive(Debug, Clone, Default)]
pub struct ServeConfigBuilder {
    config: ServeConfig,
}

impl ServeConfigBuilder {
    /// Sets the worker-thread count (`0` = one per core).
    pub fn workers(mut self, workers: usize) -> Self {
        self.config.workers = workers;
        self
    }

    /// Sets the admission-queue capacity (`0` = the default).
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.config.queue_capacity = capacity;
        self
    }

    /// Sets the default per-attempt deadline.
    pub fn deadline(mut self, deadline: Option<Duration>) -> Self {
        self.config.deadline = deadline;
        self
    }

    /// Sets the default per-attempt fuel budget.
    pub fn fuel(mut self, fuel: Option<u64>) -> Self {
        self.config.fuel = fuel;
        self
    }

    /// Arms a fault plan for matching designs.
    pub fn faults(mut self, faults: Option<FaultPlan>) -> Self {
        self.config.faults = faults;
        self
    }

    /// Budgets the memory cache tier in approximate bytes.
    pub fn cache_bytes(mut self, bytes: u64) -> Self {
        self.config.cache_bytes = Some(bytes);
        self
    }

    /// Enables the disk-spill tier rooted at `dir`.
    pub fn cache_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.config.cache_dir = Some(dir.into());
        self
    }

    /// Serves the line-JSON protocol on a TCP address instead of stdio.
    pub fn tcp(mut self, addr: impl Into<String>) -> Self {
        self.config.tcp = Some(addr.into());
        self
    }

    /// Serves the HTTP/1.1 front end on a TCP address.
    pub fn http(mut self, addr: impl Into<String>) -> Self {
        self.config.http = Some(addr.into());
        self
    }

    /// Caps HTTP request bodies at `bytes` (`0` = the default).
    pub fn http_max_body(mut self, bytes: usize) -> Self {
        self.config.http_max_body = bytes;
        self
    }

    /// Sets the partial-frame read timeout in milliseconds (`0` =
    /// disabled).
    pub fn read_timeout_ms(mut self, ms: u64) -> Self {
        self.config.read_timeout_ms = Some(ms);
        self
    }

    /// Sets the socket write timeout in milliseconds (`0` = disabled).
    pub fn write_timeout_ms(mut self, ms: u64) -> Self {
        self.config.write_timeout_ms = Some(ms);
        self
    }

    /// Sets the keep-alive idle timeout in milliseconds (`0` =
    /// disabled).
    pub fn idle_timeout_ms(mut self, ms: u64) -> Self {
        self.config.idle_timeout_ms = Some(ms);
        self
    }

    /// Caps line-protocol frames at `bytes` (`0` = the default).
    pub fn line_max_bytes(mut self, bytes: usize) -> Self {
        self.config.line_max_bytes = bytes;
        self
    }

    /// Finishes the configuration.
    pub fn build(self) -> ServeConfig {
        self.config
    }
}

/// How the compile artifact for one submission was obtained.
enum CompileOutcome {
    /// Served from the cache (memory or spill) or from a coalesced
    /// in-flight compile.
    Hit(Arc<CacheEntry>),
    /// This request compiled it and published it to the cache.
    Compiled(Arc<CacheEntry>, Duration),
    /// This request compiled it for itself alone: the run is not
    /// cacheable, or another design holds its key.
    Fresh(Arc<CacheEntry>, Duration),
    /// Generation or compilation panicked.
    Panicked(String),
}

/// A submission's design, resolved just far enough to key the cache:
/// its canonical text and name, plus the device when resolving already
/// produced one (MINT text and registry names).
struct Resolved {
    canonical: String,
    name: String,
    device: Option<Device>,
}

/// The shared service state: stage matrix, tiered cache, single-flight
/// tables, collector, and request counters. Transports
/// ([`crate::server`], [`crate::http`]) own sockets and threads; the
/// service owns semantics.
pub struct Service {
    stages: Vec<Stage>,
    config: ServeConfig,
    cache: TieredCache,
    compile_flights: SingleFlight<u64>,
    stage_flights: SingleFlight<(u64, String)>,
    collector: Arc<Collector>,
    submitted: AtomicU64,
    completed: AtomicU64,
    rejected: AtomicU64,
    in_flight: AtomicU64,
    peak_in_flight: AtomicU64,
    worker_respawns: AtomicU64,
    /// Cache key of a canonical text; tests swap it to force collisions.
    key_of: fn(&str) -> u64,
}

impl Service {
    /// A service running the standard stage matrix.
    pub fn new(config: ServeConfig) -> Service {
        Service::with_stages(config, standard_stages())
    }

    /// A service running a caller-supplied stage matrix (tests use this
    /// to pin engine parity with synthetic stages).
    pub fn with_stages(config: ServeConfig, stages: Vec<Stage>) -> Service {
        let cache = TieredCache::with_limits(config.cache_bytes(), config.cache_dir.clone());
        Service {
            stages,
            config,
            cache,
            compile_flights: SingleFlight::new(),
            stage_flights: SingleFlight::new(),
            collector: Arc::new(Collector::new()),
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            in_flight: AtomicU64::new(0),
            peak_in_flight: AtomicU64::new(0),
            worker_respawns: AtomicU64::new(0),
            key_of: hash::canonical_hash,
        }
    }

    /// The same service keying the cache by `key_of`, so a test can
    /// force distinct designs onto one key.
    #[cfg(test)]
    fn with_key_hook(mut self, key_of: fn(&str) -> u64) -> Service {
        self.key_of = key_of;
        self
    }

    /// The daemon's configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// The tiered cache (exposed for stats and tests).
    pub fn cache(&self) -> &TieredCache {
        &self.cache
    }

    /// The collector workers install while processing jobs.
    pub fn collector(&self) -> Arc<Collector> {
        Arc::clone(&self.collector)
    }

    /// Counts a submission refused at admission (queue full/closed).
    pub fn count_rejected(&self) {
        self.rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a panicked worker thread replaced by its supervisor.
    pub fn count_worker_respawn(&self) {
        self.worker_respawns.fetch_add(1, Ordering::Relaxed);
    }

    /// Worker threads respawned after a panic since startup.
    pub fn worker_respawns(&self) -> u64 {
        self.worker_respawns.load(Ordering::Relaxed)
    }

    /// Resolves a design source to the canonical text the cache key is
    /// derived from. Inline JSON is only printed, never decoded here:
    /// its name is read off the tree, and the decode waits for a miss.
    fn resolve(&self, source: &DesignSource) -> Result<Resolved, WireError> {
        let invalid = |message: String| WireError::new(ErrorKind::InvalidDesign, message);
        let resolved = |device: Device| {
            Ok(Resolved {
                canonical: device_canonical(&device)?,
                name: device.name.clone(),
                device: Some(device),
            })
        };
        match source {
            // A nameless document never decodes, so it never reaches
            // the cache or a stage: its empty name is never reported.
            DesignSource::Json(value) => Ok(Resolved {
                canonical: hash::canonical_string(value),
                name: value["name"].as_str().unwrap_or_default().to_string(),
                device: None,
            }),
            DesignSource::Mint(text) => {
                parchmint_obs::count("serve.design.decoded", 1);
                let file = parchmint_mint::parse(text)
                    .map_err(|e| invalid(format!("invalid MINT: {e}")))?;
                resolved(
                    parchmint_mint::mint_to_device(&file)
                        .map_err(|e| invalid(format!("MINT conversion failed: {e}")))?,
                )
            }
            DesignSource::Benchmark(name) => resolved(
                parchmint_suite::by_name(name)
                    .ok_or_else(|| invalid(format!("unknown benchmark `{name}`")))?
                    .device(),
            ),
        }
    }

    /// Decodes canonical design text with the streaming zero-copy
    /// parser: the same accepted language as `Device::from_json`
    /// (pinned by the core equivalence proptest), one pass, no
    /// intermediate `Value` tree.
    fn decode(&self, canonical: &str) -> Result<Device, WireError> {
        parchmint_obs::count("serve.design.decoded", 1);
        Device::from_json_fast(canonical).map_err(|e| {
            WireError::new(
                ErrorKind::InvalidDesign,
                format!("invalid ParchMint design: {e}"),
            )
        })
    }

    /// The execution policy for one submission: request-level bounds win,
    /// daemon defaults fill the gaps.
    fn policy_for(&self, request: &SubmitRequest) -> ExecPolicy {
        let deadline = request
            .deadline_ms
            .map(Duration::from_millis)
            .or(self.config.deadline);
        let fuel = request.fuel.or(self.config.fuel);
        ExecPolicy::new().with_deadline(deadline).with_fuel(fuel)
    }

    /// The slice of the daemon's fault plan that applies to `design`.
    fn faults_for(&self, design: &str) -> Option<Arc<FaultPlan>> {
        let plan = self.config.faults.as_ref()?.for_benchmark(design);
        (!plan.is_empty()).then(|| Arc::new(plan))
    }

    /// Selects the stages a submission asked for, in matrix order, plus
    /// any selectors that matched nothing.
    fn select_stages(&self, selectors: Option<&[String]>) -> (Vec<&Stage>, Vec<String>) {
        let Some(selectors) = selectors else {
            return (self.stages.iter().collect(), Vec::new());
        };
        let selected: Vec<&Stage> = self
            .stages
            .iter()
            .filter(|stage| selectors.iter().any(|s| stage_matches(s, &stage.name)))
            .collect();
        let unknown = selectors
            .iter()
            .filter(|s| {
                !self
                    .stages
                    .iter()
                    .any(|stage| stage_matches(s, &stage.name))
            })
            .cloned()
            .collect();
        (selected, unknown)
    }

    /// Runs one submission to completion, streaming `cell` events and a
    /// final `done` (or a single `error`) through `emit`.
    ///
    /// This is the daemon's entire request path; transports only parse
    /// lines and queue jobs.
    pub fn process_submit(&self, request: &SubmitRequest, emit: &mut dyn FnMut(Value)) {
        self.submitted.fetch_add(1, Ordering::Relaxed);
        let in_flight = self.in_flight.fetch_add(1, Ordering::Relaxed) + 1;
        self.peak_in_flight.fetch_max(in_flight, Ordering::Relaxed);
        self.run_submission(request, emit);
        self.in_flight.fetch_sub(1, Ordering::Relaxed);
        self.completed.fetch_add(1, Ordering::Relaxed);
    }

    /// Runs many submissions as one sharded fan-out, returning each
    /// request's full event list, in request order.
    ///
    /// Requests are chunked across the configured worker width (the
    /// same count the daemon's queue workers use) on a scoped pool, and
    /// every one runs the full [`Service::process_submit`] path —
    /// including the single-flight tables, so duplicate designs in one
    /// batch coalesce onto a single compile and a single stage
    /// execution exactly like concurrent connections would. Each shard
    /// installs the service collector, so observability counters from
    /// batch work aggregate into `stats` like worker-pool traffic.
    pub fn process_submit_batch(&self, requests: &[SubmitRequest]) -> Vec<Vec<Value>> {
        parchmint_harness::shard_map(requests, self.config.effective_workers(), |_, request| {
            let recorder: Arc<dyn parchmint_obs::Recorder> = self.collector();
            parchmint_obs::with_recorder(recorder, || {
                let mut events = Vec::new();
                self.process_submit(request, &mut |event| events.push(event));
                events
            })
        })
    }

    fn run_submission(&self, request: &SubmitRequest, emit: &mut dyn FnMut(Value)) {
        let Resolved {
            canonical,
            name: design,
            device,
        } = match self.resolve(&request.source) {
            Ok(resolved) => resolved,
            Err(error) => {
                emit(error_event(&request.id, &error));
                return;
            }
        };
        let key = (self.key_of)(&canonical);
        let policy = self.policy_for(request);
        let faults = self.faults_for(&design);
        let cacheable = !policy.is_bounded() && faults.is_none();
        let probe = if cacheable {
            self.cache.lookup(key, &canonical)
        } else {
            Lookup::Miss
        };
        // A key held by another design is served as an uncached miss.
        let cacheable = cacheable && !matches!(probe, Lookup::Collision);
        let hit = probe.hit().map(|(entry, _tier)| entry);
        // Only a miss needs the device; a verified hit never decodes.
        let device = match (&hit, device) {
            (Some(_), _) => None,
            (None, Some(device)) => Some(device),
            (None, None) => match self.decode(&canonical) {
                Ok(device) => Some(device),
                Err(error) => {
                    emit(error_event(&request.id, &error));
                    return;
                }
            },
        };
        let (selected, unknown) = self.select_stages(request.stages.as_deref());

        let mut cells = 0usize;
        for selector in &unknown {
            cells += 1;
            emit(cell_event(
                &request.id,
                &design,
                selector,
                "failed",
                Some(&format!("unknown stage `{selector}`")),
                &Default::default(),
                0.0,
                false,
            ));
        }

        // Compile: shared from the cache / an in-flight duplicate when
        // possible, fresh otherwise. Stage results are cached only on an
        // entry the cache holds.
        let (entry, compile_hit, compile_wall, cache_stages) =
            match self.obtain_compile(key, cacheable, canonical, hit, device, faults.as_ref()) {
                CompileOutcome::Hit(entry) => (entry, true, None, true),
                CompileOutcome::Compiled(entry, wall) => (entry, false, Some(wall), true),
                CompileOutcome::Fresh(entry, wall) => (entry, false, Some(wall), false),
                CompileOutcome::Panicked(panic) => {
                    // Generation/compilation panicked: every selected stage
                    // is a failed cell, exactly as the harness reports it.
                    for stage in &selected {
                        cells += 1;
                        emit(cell_event(
                            &request.id,
                            &design,
                            &stage.name,
                            "failed",
                            Some(&format!("compile panicked: {panic}")),
                            &Default::default(),
                            0.0,
                            false,
                        ));
                    }
                    emit(done_event(
                        &request.id,
                        &design,
                        &hash::hex(key),
                        false,
                        None,
                        cells,
                    ));
                    return;
                }
            };

        for stage in &selected {
            let started = Instant::now();
            let (exec, cached) =
                self.obtain_stage(key, &entry, stage, &policy, faults.as_ref(), cache_stages);
            if cache_stages {
                self.cache.count_stage(cached);
            }
            parchmint_obs::count(
                if cached {
                    "serve.stage.replayed"
                } else {
                    "serve.stage.executed"
                },
                1,
            );
            cells += 1;
            emit(cell_event(
                &request.id,
                &design,
                &stage.name,
                exec.status.as_str(),
                exec.detail.as_deref(),
                &exec.metrics,
                started.elapsed().as_secs_f64() * 1e3,
                cached,
            ));
        }

        emit(done_event(
            &request.id,
            &design,
            &hash::hex(key),
            compile_hit,
            compile_wall.map(|wall| wall.as_secs_f64() * 1e3),
            cells,
        ));
    }

    /// Gets the compile artifact for the design `canonical` under
    /// `key`: the `hit` of the first cache probe, by winning the
    /// single-flight and compiling, or by parking behind an identical
    /// in-flight compile. `device` is present whenever `hit` is not.
    /// Non-cacheable requests compile fresh without publishing.
    fn obtain_compile(
        &self,
        key: u64,
        cacheable: bool,
        canonical: String,
        hit: Option<Arc<CacheEntry>>,
        device: Option<Device>,
        faults: Option<&Arc<FaultPlan>>,
    ) -> CompileOutcome {
        if let Some(entry) = hit {
            parchmint_obs::count("serve.compile.replayed", 1);
            return CompileOutcome::Hit(entry);
        }
        let device = device.expect("a miss carries its decoded device");
        if !cacheable {
            return self.compile_fresh(device, canonical, faults);
        }
        loop {
            match self.compile_flights.join(key) {
                Flight::Leader(token) => {
                    // A leader that finished between our counted miss and
                    // this promotion already published; don't recompile.
                    if let Some(entry) = self.cache.peek(key, &canonical) {
                        token.complete();
                        parchmint_obs::count("serve.compile.replayed", 1);
                        return CompileOutcome::Hit(entry);
                    }
                    let compile = engine::compile_device(move || device, None, false);
                    parchmint_obs::count("serve.compile.executed", 1);
                    return match compile.compiled {
                        Ok(compiled) => {
                            let entry =
                                Arc::new(CacheEntry::new(canonical, compiled, compile.wall));
                            let outcome = match self.cache.insert(key, Arc::clone(&entry)) {
                                Some(resident) => CompileOutcome::Compiled(resident, compile.wall),
                                None => CompileOutcome::Fresh(entry, compile.wall),
                            };
                            token.complete();
                            outcome
                        }
                        // The token drops unfinished → the flight is
                        // abandoned and every waiter retries for itself.
                        Err(panic) => CompileOutcome::Panicked(panic),
                    };
                }
                Flight::Waiter(wait) => {
                    self.cache.count_coalesced();
                    // True → the leader published; false → it abandoned.
                    // Either way look again, and lead on a miss.
                    let _ = wait.wait();
                    match self.cache.lookup(key, &canonical) {
                        Lookup::Hit(entry, _) => {
                            parchmint_obs::count("serve.compile.replayed", 1);
                            return CompileOutcome::Hit(entry);
                        }
                        Lookup::Collision => return self.compile_fresh(device, canonical, faults),
                        Lookup::Miss => {}
                    }
                }
            }
        }
    }

    /// Compiles `device` for one request alone, never publishing it.
    fn compile_fresh(
        &self,
        device: Device,
        canonical: String,
        faults: Option<&Arc<FaultPlan>>,
    ) -> CompileOutcome {
        let compile = engine::compile_device(move || device, faults, false);
        parchmint_obs::count("serve.compile.executed", 1);
        match compile.compiled {
            Ok(compiled) => CompileOutcome::Fresh(
                Arc::new(CacheEntry::new(canonical, compiled, compile.wall)),
                compile.wall,
            ),
            Err(panic) => CompileOutcome::Panicked(panic),
        }
    }

    /// Gets one stage result: replayed from the entry, by winning the
    /// stage single-flight and executing, or by parking behind an
    /// identical in-flight execution.
    fn obtain_stage(
        &self,
        key: u64,
        entry: &Arc<CacheEntry>,
        stage: &Stage,
        policy: &ExecPolicy,
        faults: Option<&Arc<FaultPlan>>,
        cacheable: bool,
    ) -> (StageExec, bool) {
        let execute = |compiled: &CompiledDevice| {
            engine::execute_stage(stage, compiled, policy, faults, false)
        };
        if !cacheable {
            let compiled = entry.compiled().expect("fresh compiles always materialize");
            return (execute(&compiled), false);
        }
        loop {
            if let Some(replayed) = entry.stage(&stage.name) {
                return (replayed, true);
            }
            match self.stage_flights.join((key, stage.name.clone())) {
                Flight::Leader(token) => {
                    if let Some(replayed) = entry.stage(&stage.name) {
                        token.complete();
                        return (replayed, true);
                    }
                    let compiled = match self.materialize(entry) {
                        Ok(compiled) => compiled,
                        // The dropped token wakes waiters to retry (and
                        // fail the same way, each reporting for itself).
                        Err(panic) => {
                            return (
                                StageExec {
                                    status: parchmint_harness::CellStatus::Failed,
                                    detail: Some(format!("compile panicked: {panic}")),
                                    metrics: Default::default(),
                                    trace: None,
                                    attempts: 1,
                                },
                                false,
                            )
                        }
                    };
                    let exec = execute(&compiled);
                    self.cache.store_stage(key, entry, &stage.name, &exec);
                    token.complete();
                    return (exec, false);
                }
                Flight::Waiter(wait) => {
                    self.cache.count_coalesced();
                    let _ = wait.wait();
                }
            }
        }
    }

    /// The compiled view for `entry`, re-materializing it from the
    /// canonical document when the entry was rehydrated from spill.
    fn materialize(&self, entry: &Arc<CacheEntry>) -> Result<Arc<CompiledDevice>, String> {
        if let Some(compiled) = entry.compiled() {
            return Ok(compiled);
        }
        let device = self
            .decode(entry.canonical())
            .map_err(|e| format!("spilled design no longer parses: {}", e.message))?;
        let compile = engine::compile_device(move || device, None, false);
        parchmint_obs::count("serve.compile.executed", 1);
        compile.compiled.map(|compiled| entry.materialize(compiled))
    }

    /// The daemon's counter snapshot: protocol version, request
    /// counters, cache tiers, and the aggregated observability counters
    /// workers recorded.
    pub fn stats_json(&self) -> Value {
        let mut object = Map::new();
        object.insert(
            "schema".to_string(),
            Value::from("parchmint-serve-stats/v2"),
        );
        let mut proto = Map::new();
        proto.insert("negotiated".to_string(), Value::from(PROTO));
        proto.insert(
            "supported_majors".to_string(),
            Value::Array(vec![Value::from(PROTO_MAJOR)]),
        );
        object.insert("proto".to_string(), Value::Object(proto));
        let mut requests = Map::new();
        requests.insert(
            "submitted".to_string(),
            Value::from(self.submitted.load(Ordering::Relaxed)),
        );
        requests.insert(
            "completed".to_string(),
            Value::from(self.completed.load(Ordering::Relaxed)),
        );
        requests.insert(
            "rejected".to_string(),
            Value::from(self.rejected.load(Ordering::Relaxed)),
        );
        requests.insert(
            "in_flight".to_string(),
            Value::from(self.in_flight.load(Ordering::Relaxed)),
        );
        requests.insert(
            "peak_in_flight".to_string(),
            Value::from(self.peak_in_flight.load(Ordering::Relaxed)),
        );
        object.insert("requests".to_string(), Value::Object(requests));
        object.insert("cache".to_string(), self.cache.stats_json());
        let mut flights = Map::new();
        flights.insert(
            "compiles".to_string(),
            Value::from(self.compile_flights.in_flight()),
        );
        flights.insert(
            "stages".to_string(),
            Value::from(self.stage_flights.in_flight()),
        );
        object.insert("flights".to_string(), Value::Object(flights));
        let summary = self.collector.summary();
        let mut counters = Map::new();
        for (name, total) in &summary.counters {
            counters.insert((*name).to_string(), Value::from(*total));
        }
        object.insert("counters".to_string(), Value::Object(counters));
        Value::Object(object)
    }
}

/// Re-parses a device's own serialization into the canonical text
/// hashed for cache keying, so MINT and registry submissions share
/// cache entries with the equivalent inline-JSON submission.
fn device_canonical(device: &Device) -> Result<String, WireError> {
    fn unserializable(e: impl std::fmt::Display) -> WireError {
        WireError::new(
            ErrorKind::InvalidDesign,
            format!("unserializable design: {e}"),
        )
    }
    let json = device.to_json().map_err(unserializable)?;
    let doc = serde_json::parse_value(&json).map_err(unserializable)?;
    Ok(hash::canonical_string(&doc))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn submit(benchmark: &str) -> SubmitRequest {
        SubmitRequest {
            id: Value::from(1),
            source: DesignSource::Benchmark(benchmark.to_string()),
            stages: Some(vec!["validate".to_string()]),
            deadline_ms: None,
            fuel: None,
        }
    }

    fn events_of(service: &Service, request: &SubmitRequest) -> Vec<Value> {
        let mut events = Vec::new();
        service.process_submit(request, &mut |event| events.push(event));
        events
    }

    #[test]
    fn config_builder_round_trips() {
        let config = ServeConfig::builder()
            .workers(3)
            .queue_capacity(9)
            .deadline(Some(Duration::from_millis(5)))
            .fuel(Some(100))
            .cache_bytes(1 << 20)
            .cache_dir("/tmp/somewhere")
            .tcp("127.0.0.1:0")
            .http("127.0.0.1:0")
            .http_max_body(1 << 10)
            .read_timeout_ms(1500)
            .write_timeout_ms(0)
            .idle_timeout_ms(7000)
            .line_max_bytes(4 << 10)
            .build();
        assert_eq!(config.workers(), 3);
        assert_eq!(config.http_max_body(), 1 << 10);
        assert_eq!(config.effective_http_max_body(), 1 << 10);
        assert_eq!(config.queue_capacity(), 9);
        assert_eq!(config.effective_queue_capacity(), 9);
        assert_eq!(config.deadline(), Some(Duration::from_millis(5)));
        assert_eq!(config.fuel(), Some(100));
        assert_eq!(config.cache_bytes(), Some(1 << 20));
        assert_eq!(
            config.cache_dir(),
            Some(std::path::Path::new("/tmp/somewhere"))
        );
        assert_eq!(config.tcp(), Some("127.0.0.1:0"));
        assert_eq!(config.http(), Some("127.0.0.1:0"));
        assert_eq!(
            config.effective_read_timeout(),
            Some(Duration::from_millis(1500))
        );
        assert_eq!(config.effective_write_timeout(), None, "0 disables");
        assert_eq!(
            config.effective_idle_timeout(),
            Some(Duration::from_millis(7000))
        );
        assert_eq!(config.effective_line_max_bytes(), 4 << 10);
        let defaults = ServeConfig::default();
        assert_eq!(defaults.effective_queue_capacity(), DEFAULT_QUEUE_CAPACITY);
        assert_eq!(defaults.effective_http_max_body(), DEFAULT_HTTP_MAX_BODY);
        assert!(defaults.cache_bytes().is_none());
        assert!(defaults.cache_dir().is_none());
        assert_eq!(
            defaults.effective_read_timeout(),
            Some(Duration::from_millis(DEFAULT_READ_TIMEOUT_MS))
        );
        assert_eq!(
            defaults.effective_idle_timeout(),
            Some(Duration::from_millis(DEFAULT_IDLE_TIMEOUT_MS))
        );
        assert_eq!(defaults.effective_line_max_bytes(), DEFAULT_LINE_MAX_BYTES);
    }

    #[test]
    fn batch_results_preserve_request_order() {
        let service = Service::new(ServeConfig::default());
        let names = ["logic_gate_or", "logic_gate_and", "rotary_pump_mixer"];
        let requests: Vec<SubmitRequest> = names.iter().map(|name| submit(name)).collect();
        let results = service.process_submit_batch(&requests);
        assert_eq!(results.len(), names.len());
        for (events, name) in results.iter().zip(names) {
            let done = events.last().expect("events");
            assert_eq!(done["event"], Value::from("done"));
            assert_eq!(done["design"], Value::from(name));
        }
    }

    #[test]
    fn batch_submissions_coalesce_duplicate_designs() {
        // Six identical submissions fanned out over four shards must
        // compile and validate exactly once — the rest replay from the
        // cache or park behind the in-flight leader. This is the
        // single-flight guarantee the batch path inherits.
        let service = Service::new(ServeConfig::builder().workers(4).build());
        let requests: Vec<SubmitRequest> = (0..6u64)
            .map(|i| {
                let mut request = submit("logic_gate_or");
                request.id = Value::from(i);
                request
            })
            .collect();
        let results = service.process_submit_batch(&requests);
        assert_eq!(results.len(), 6);
        for (i, events) in results.iter().enumerate() {
            let done = events.last().expect("events");
            assert_eq!(done["event"], Value::from("done"));
            assert_eq!(done["id"], Value::from(i as u64));
        }
        let stats = service.stats_json();
        assert_eq!(stats["requests"]["submitted"], Value::from(6u64));
        assert_eq!(
            stats["counters"]["serve.compile.executed"],
            Value::from(1u64)
        );
        assert_eq!(stats["counters"]["serve.stage.executed"], Value::from(1u64));
        assert_eq!(stats["counters"]["serve.stage.replayed"], Value::from(5u64));
    }

    #[test]
    fn a_benchmark_submission_streams_cells_then_done() {
        let service = Service::new(ServeConfig::default());
        let events = events_of(&service, &submit("logic_gate_or"));
        assert_eq!(events.len(), 2);
        assert_eq!(events[0]["event"], Value::from("cell"));
        assert_eq!(events[0]["cell"]["stage"], Value::from("validate"));
        assert_eq!(events[0]["cell"]["status"], Value::from("ok"));
        assert_eq!(events[0]["cached"], Value::from(false));
        assert_eq!(events[1]["event"], Value::from("done"));
        assert_eq!(events[1]["design"], Value::from("logic_gate_or"));
    }

    #[test]
    fn resubmission_replays_from_the_cache() {
        let service = Service::new(ServeConfig::default());
        let first = events_of(&service, &submit("logic_gate_or"));
        let second = events_of(&service, &submit("logic_gate_or"));
        assert_eq!(second[0]["cached"], Value::from(true));
        assert_eq!(second[1]["cached"], Value::from(true));
        assert_eq!(
            first[0]["cell"], second[0]["cell"],
            "replayed cell is identical"
        );
        let counters = service.cache().counters();
        assert_eq!((counters.memory_hits, counters.stage_hits), (1, 1));
        assert_eq!(counters.misses, 1);
    }

    #[test]
    fn bounded_requests_bypass_the_cache() {
        let service = Service::new(ServeConfig::default());
        let mut bounded = submit("logic_gate_or");
        bounded.fuel = Some(u64::MAX);
        let first = events_of(&service, &bounded);
        let second = events_of(&service, &bounded);
        assert_eq!(first[0]["cached"], Value::from(false));
        assert_eq!(second[0]["cached"], Value::from(false));
        assert_eq!(service.cache().len(), 0);
        let counters = service.cache().counters();
        assert_eq!(
            (counters.memory_hits, counters.misses),
            (0, 0),
            "bounded runs never touch the cache"
        );
    }

    #[test]
    fn unknown_designs_error_and_unknown_stages_fail_cells() {
        let service = Service::new(ServeConfig::default());
        let mut missing = submit("no_such_benchmark");
        missing.stages = None;
        let events = events_of(&service, &missing);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0]["event"], Value::from("error"));
        assert_eq!(events[0]["error"]["kind"], Value::from("invalid_design"));

        let mut odd = submit("logic_gate_or");
        odd.stages = Some(vec!["validate".to_string(), "no_such_stage".to_string()]);
        let events = events_of(&service, &odd);
        assert_eq!(events.len(), 3);
        assert_eq!(events[0]["cell"]["status"], Value::from("failed"));
        assert_eq!(events[0]["cell"]["stage"], Value::from("no_such_stage"));
    }

    #[test]
    fn stats_snapshot_counts_requests_and_cache_layers() {
        let service = Service::new(ServeConfig::default());
        events_of(&service, &submit("logic_gate_or"));
        events_of(&service, &submit("logic_gate_or"));
        let stats = service.stats_json();
        assert_eq!(stats["schema"], Value::from("parchmint-serve-stats/v2"));
        assert_eq!(stats["proto"]["negotiated"], Value::from(PROTO));
        assert_eq!(stats["requests"]["submitted"], Value::from(2u64));
        assert_eq!(stats["requests"]["completed"], Value::from(2u64));
        assert_eq!(stats["cache"]["entries"], Value::from(1));
        assert_eq!(stats["cache"]["memory_hits"], Value::from(1u64));
        assert_eq!(stats["cache"]["stage_hits"], Value::from(1u64));
        assert_eq!(stats["flights"]["compiles"], Value::from(0));
    }

    /// An inline-JSON submission of a registry design.
    fn inline(benchmark: &str, stages: &[&str]) -> SubmitRequest {
        let json = parchmint_suite::by_name(benchmark)
            .expect("registered benchmark")
            .device()
            .to_json()
            .expect("serializes");
        SubmitRequest {
            id: Value::from(benchmark),
            source: DesignSource::Json(serde_json::parse_value(&json).expect("parses")),
            stages: Some(stages.iter().map(|s| s.to_string()).collect()),
            deadline_ms: None,
            fuel: None,
        }
    }

    /// The cells of a submission's events, without timings.
    fn cells(events: &[Value]) -> Vec<Value> {
        events
            .iter()
            .filter(|event| event["event"] == "cell")
            .map(|event| event["cell"].clone())
            .collect()
    }

    #[test]
    fn colliding_designs_are_each_served_their_own_cells() {
        let stages = ["validate", "characterize"];
        let (or, and) = (
            inline("logic_gate_or", &stages),
            inline("logic_gate_and", &stages),
        );
        let reference = Service::new(ServeConfig::default());
        let (or_cells, and_cells) = (
            cells(&events_of(&reference, &or)),
            cells(&events_of(&reference, &and)),
        );
        assert_ne!(or_cells, and_cells, "the designs must be told apart");

        let service = Service::new(ServeConfig::default()).with_key_hook(|_| 7);
        let first = events_of(&service, &or);
        let collided = events_of(&service, &and);
        let replayed = events_of(&service, &or);
        assert_eq!(cells(&first), or_cells);
        assert_eq!(
            cells(&collided),
            and_cells,
            "never the other design's cells"
        );
        assert_eq!(collided.last().unwrap()["design"], "logic_gate_and");
        assert_eq!(collided.last().unwrap()["cached"], false);
        assert_eq!(cells(&replayed), or_cells);
        assert_eq!(replayed.last().unwrap()["cached"], true, "a verified hit");

        let stats = service.stats_json();
        assert_eq!(stats["cache"]["collisions"], Value::from(1u64));
        assert_eq!(stats["cache"]["entries"], Value::from(1), "and stays out");
    }

    #[test]
    fn a_resubmitted_inline_design_is_decoded_only_on_its_miss() {
        let service = Service::new(ServeConfig::default());
        let request = inline("logic_gate_or", &["validate"]);
        let decoded = || service.stats_json()["counters"]["serve.design.decoded"].as_u64();
        parchmint_obs::with_recorder(service.collector(), || {
            events_of(&service, &request);
            assert_eq!(decoded(), Some(1));
            let again = events_of(&service, &request);
            assert_eq!(again.last().unwrap()["cached"], true);
            assert_eq!(decoded(), Some(1), "a hit never decodes the design");
        });
    }
}
