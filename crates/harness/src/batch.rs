//! Sharded batch ingest: parse, compile, and optionally verify many
//! ParchMint JSON documents in parallel.
//!
//! This is the harness side of the FPVA-scale fan-out. A directory of
//! device documents — or a multi-document submission in
//! `parchmint-serve` — is chunked across [`shard_map`], the one worker
//! pool the suite runner also uses: a `std::thread::scope` over a shared
//! index queue, no external thread-pool crate. Each document runs the
//! streaming zero-copy parser ([`parchmint::Device::from_json_fast`]), the
//! panic-isolated compile ([`engine::compile_device`]), and — when
//! requested — the standard `validate` stage under the caller's
//! [`ExecPolicy`].

use crate::engine::{self, ExecPolicy, StageExec};
use crate::report::CellStatus;
use crate::stage::{standard_stages, Stage};
use parchmint::ir::CompiledDevice;
use parchmint::Device;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Applies `body` to every item on a scoped worker pool and returns the
/// results in input order.
///
/// `threads == 0` means one worker per available core; the worker count
/// is always clamped to `1..=items.len()`. The result order is
/// independent of scheduling: workers record `(index, result)` pairs and
/// the collected vector is sorted by index before returning. `body`
/// receives the item's index alongside the item so callers can label
/// work without pre-zipping.
pub fn shard_map<T, R, F>(items: &[T], threads: usize, body: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let workers = pool_size(threads, items.len());

    let next: Mutex<usize> = Mutex::new(0);
    let collected: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(items.len()));
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let index = {
                    let mut next = next.lock().expect("queue lock");
                    let index = *next;
                    *next += 1;
                    index
                };
                let Some(item) = items.get(index) else {
                    break;
                };
                let result = body(index, item);
                collected.lock().expect("result lock").push((index, result));
            });
        }
    });
    let mut collected = collected.into_inner().expect("result lock");
    collected.sort_by_key(|(index, _)| *index);
    collected.into_iter().map(|(_, result)| result).collect()
}

/// The worker count [`shard_map`] runs `items` work items on: `threads`,
/// or one per available core when `threads == 0`, clamped to
/// `1..=items`.
pub(crate) fn pool_size(threads: usize, items: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        threads
    }
    .clamp(1, items.max(1))
}

/// Configuration for [`ingest_batch`].
#[derive(Debug, Clone, Default)]
pub struct BatchIngestConfig {
    threads: usize,
    verify: bool,
    policy: ExecPolicy,
}

impl BatchIngestConfig {
    /// Starts from the defaults: one worker per core, no verification,
    /// unbounded [`ExecPolicy`].
    pub fn new() -> BatchIngestConfig {
        BatchIngestConfig::default()
    }

    /// Worker count; `0` (the default) means one per available core.
    pub fn threads(mut self, threads: usize) -> BatchIngestConfig {
        self.threads = threads;
        self
    }

    /// Runs the standard `validate` stage on every successfully compiled
    /// document.
    pub fn verify(mut self, verify: bool) -> BatchIngestConfig {
        self.verify = verify;
        self
    }

    /// Execution policy for the verification stage (deadline, fuel,
    /// retries).
    pub fn policy(mut self, policy: ExecPolicy) -> BatchIngestConfig {
        self.policy = policy;
        self
    }
}

/// One document's journey through [`ingest_batch`].
#[derive(Debug)]
pub struct DocumentIngest {
    /// The device name, once parsing got far enough to learn it.
    pub device: Option<String>,
    /// The interned compile result; `Err` carries the parse or compile
    /// failure message (parse failures are prefixed `parse:`).
    pub compiled: Result<Arc<CompiledDevice>, String>,
    /// Wall time of the streaming parse (time to failure when it failed).
    pub parse_wall: Duration,
    /// Wall time of interning; zero when the document never parsed.
    pub compile_wall: Duration,
    /// The `validate` stage execution — present only when verification
    /// was requested and the compile succeeded.
    pub validate: Option<StageExec>,
}

impl DocumentIngest {
    /// True when the document parsed, compiled, and — if verification
    /// ran — validated as conformant.
    pub fn is_clean(&self) -> bool {
        if self.compiled.is_err() {
            return false;
        }
        match &self.validate {
            None => true,
            Some(exec) => {
                exec.status == CellStatus::Ok
                    && exec
                        .metrics
                        .get("conformant")
                        .and_then(serde_json::Value::as_bool)
                        == Some(true)
            }
        }
    }
}

/// Parses, compiles, and optionally verifies `documents` across the
/// worker pool, returning one [`DocumentIngest`] per input, in input
/// order.
///
/// Failures are isolated per document: a malformed or panicking document
/// yields `Err` in its own slot and never disturbs its neighbours.
pub fn ingest_batch<S: AsRef<str> + Sync>(
    documents: &[S],
    config: &BatchIngestConfig,
) -> Vec<DocumentIngest> {
    let validate = config.verify.then(|| {
        standard_stages()
            .into_iter()
            .find(|stage| stage.name == "validate")
            .expect("standard stage list carries a validate stage")
    });
    shard_map(documents, config.threads, |_, document| {
        ingest_one(document.as_ref(), validate.as_ref(), &config.policy)
    })
}

fn ingest_one(json: &str, validate: Option<&Stage>, policy: &ExecPolicy) -> DocumentIngest {
    let parse_started = Instant::now();
    let parsed = Device::from_json_fast(json);
    let parse_wall = parse_started.elapsed();
    let device = match parsed {
        Ok(device) => device,
        Err(error) => {
            return DocumentIngest {
                device: None,
                compiled: Err(format!("parse: {error}")),
                parse_wall,
                compile_wall: Duration::ZERO,
                validate: None,
            };
        }
    };
    let name = device.name.clone();
    let exec = engine::compile_device(move || device, None, false);
    let validate = match (&exec.compiled, validate) {
        (Ok(compiled), Some(stage)) => {
            Some(engine::execute_stage(stage, compiled, policy, None, false))
        }
        _ => None,
    };
    DocumentIngest {
        device: Some(name),
        compiled: exec.compiled,
        parse_wall,
        compile_wall: exec.wall,
        validate,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_map_preserves_input_order() {
        let items: Vec<usize> = (0..97).collect();
        for threads in [0, 1, 3, 16] {
            let squares = shard_map(&items, threads, |index, item| {
                assert_eq!(index, *item);
                item * item
            });
            assert_eq!(squares.len(), items.len());
            for (index, square) in squares.iter().enumerate() {
                assert_eq!(*square, index * index);
            }
        }
    }

    #[test]
    fn shard_map_handles_empty_and_single() {
        let empty: Vec<u8> = Vec::new();
        assert!(shard_map(&empty, 8, |_, item| *item).is_empty());
        assert_eq!(shard_map(&[7u8], 0, |_, item| *item), vec![7]);
    }

    #[test]
    fn batch_compiles_suite_documents_in_order() {
        let documents: Vec<String> = parchmint_suite::suite()
            .iter()
            .take(4)
            .map(|benchmark| benchmark.device().to_json().expect("serialize"))
            .collect();
        let results = ingest_batch(&documents, &BatchIngestConfig::new().threads(2));
        assert_eq!(results.len(), 4);
        for (result, benchmark) in results.iter().zip(parchmint_suite::suite()) {
            assert_eq!(result.device.as_deref(), Some(benchmark.name()));
            assert!(result.compiled.is_ok(), "{:?}", result.compiled);
            assert!(result.validate.is_none(), "verification not requested");
            assert!(result.is_clean());
        }
    }

    #[test]
    fn batch_verifies_when_asked() {
        let json = parchmint_suite::by_name("rotary_pump_mixer")
            .expect("registered")
            .device()
            .to_json()
            .expect("serialize");
        let results = ingest_batch(
            std::slice::from_ref(&json),
            &BatchIngestConfig::new().verify(true),
        );
        let exec = results[0].validate.as_ref().expect("validate ran");
        assert_eq!(exec.status, CellStatus::Ok);
        assert!(results[0].is_clean());
    }

    #[test]
    fn malformed_documents_fail_in_isolation() {
        let good = parchmint_suite::by_name("logic_gate_and")
            .expect("registered")
            .device()
            .to_json()
            .expect("serialize");
        let documents = [good.clone(), "{\"nope\"".to_string(), good];
        let results = ingest_batch(&documents, &BatchIngestConfig::new().threads(3));
        assert!(results[0].compiled.is_ok());
        let error = results[1].compiled.as_ref().expect_err("malformed");
        assert!(error.starts_with("parse: "), "{error}");
        assert!(!results[1].is_clean());
        assert!(results[2].compiled.is_ok());
    }

    #[test]
    fn identical_documents_compile_identically() {
        let json = parchmint_suite::by_name("cell_trap_array")
            .expect("registered")
            .device()
            .to_json()
            .expect("serialize");
        let documents = vec![json; 6];
        let results = ingest_batch(&documents, &BatchIngestConfig::new());
        let first = results[0].compiled.as_ref().expect("compiled");
        for result in &results[1..] {
            let compiled = result.compiled.as_ref().expect("compiled");
            assert_eq!(compiled.device(), first.device());
        }
    }
}
