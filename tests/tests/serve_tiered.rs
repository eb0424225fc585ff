//! The tiered cache end to end: concurrent identical submissions
//! coalesce onto one execution, the memory tier evicts by recency
//! under its byte budget, and the spill tier survives daemon
//! "restarts" — including corrupted spill files, which degrade to
//! plain misses.

use parchmint_harness::{Stage, StageOutcome};
use parchmint_serve::hash::{canonical_hash, canonical_string, content_hash, hex};
use parchmint_serve::protocol::{DesignSource, SubmitRequest};
use parchmint_serve::{CacheEntry, ServeConfig, Service, TieredCache};
use serde_json::Value;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

fn submit(service: &Service, request: &SubmitRequest) -> Vec<Value> {
    let mut events = Vec::new();
    service.process_submit(request, &mut |event| events.push(event));
    events
}

fn benchmark_request(name: &str, stages: Option<&[&str]>) -> SubmitRequest {
    SubmitRequest {
        id: Value::from("t"),
        source: DesignSource::Benchmark(name.to_string()),
        stages: stages.map(|names| names.iter().map(|s| s.to_string()).collect()),
        deadline_ms: None,
        fuel: None,
    }
}

/// A scratch directory that cleans up after itself.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        static SEQ: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "parchmint-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Two threads submit the identical design at the same time; the gate
/// stage blocks the leader until the second submission has provably
/// parked behind it, so exactly one execution serves both.
#[test]
fn concurrent_duplicate_submissions_coalesce_onto_one_execution() {
    let executions = Arc::new(AtomicUsize::new(0));
    let release = Arc::new((Mutex::new(false), Condvar::new()));
    let stage_executions = Arc::clone(&executions);
    let stage_release = Arc::clone(&release);
    let gate = Stage::new("gate", move |_, _| {
        stage_executions.fetch_add(1, Ordering::SeqCst);
        let (lock, signal) = &*stage_release;
        let mut open = lock.lock().expect("gate lock");
        while !*open {
            open = signal.wait(open).expect("gate lock");
        }
        Ok(StageOutcome::metrics([("gated", Value::from(true))]))
    });
    let service = Arc::new(Service::with_stages(ServeConfig::default(), vec![gate]));

    let spawn = |service: &Arc<Service>| {
        let service = Arc::clone(service);
        std::thread::spawn(move || submit(&service, &benchmark_request("logic_gate_or", None)))
    };
    let first = spawn(&service);
    // Wait until the leader is inside the gate stage…
    while executions.load(Ordering::SeqCst) == 0 {
        std::thread::sleep(Duration::from_millis(1));
    }
    let second = spawn(&service);
    // …and until the duplicate has parked behind it (coalesced is
    // counted at park time, so this is deterministic, not a sleep).
    while service.cache().counters().coalesced == 0 {
        std::thread::sleep(Duration::from_millis(1));
    }
    {
        let (lock, signal) = &*release;
        *lock.lock().expect("gate lock") = true;
        signal.notify_all();
    }
    let first = first.join().expect("first submission");
    let second = second.join().expect("second submission");

    assert_eq!(
        executions.load(Ordering::SeqCst),
        1,
        "the parked duplicate must not re-execute the stage"
    );
    let counters = service.cache().counters();
    assert!(counters.coalesced >= 1, "{counters:?}");
    assert_eq!(counters.misses, 1, "exactly one compile: {counters:?}");
    let strip = |events: &[Value]| -> Vec<Value> {
        events
            .iter()
            .map(|event| {
                let mut event = event.clone();
                if let Some(object) = event.as_object_mut() {
                    object.remove("wall_ms");
                    object.remove("compile_ms");
                    object.remove("cached");
                }
                event
            })
            .collect()
    };
    assert_eq!(
        serde_json::to_string(&strip(&first)).unwrap(),
        serde_json::to_string(&strip(&second)).unwrap(),
        "both submissions see the same payload"
    );
}

/// The memory tier holds its byte budget by evicting least-recently-
/// used entries — and touching an entry rescues it from eviction.
#[test]
fn memory_tier_evicts_least_recently_used_under_its_byte_budget() {
    let doc = |name: &str| -> Value {
        serde_json::from_str(&format!(
            "{{\"name\":\"{name}\",\"pad\":\"{}\"}}",
            "x".repeat(64)
        ))
        .expect("doc parses")
    };
    let canonical = |name: &str| canonical_string(&doc(name));
    let entry = |name: &str| {
        Arc::new(CacheEntry::warm(
            canonical(name),
            Duration::ZERO,
            Default::default(),
        ))
    };
    let keys: Vec<u64> = ["a", "b", "c"]
        .iter()
        .map(|n| canonical_hash(&canonical(n)))
        .collect();

    // Budget sized for two entries: inserting the third must evict one.
    let two_entries = 2 * (128 + 3 * serde_json::to_string(&doc("a")).unwrap().len() as u64);
    let cache = TieredCache::with_limits(Some(two_entries), None::<&str>);
    cache.insert(keys[0], entry("a"));
    cache.insert(keys[1], entry("b"));
    assert!(cache.bytes() <= two_entries);

    // Touch "a" so "b" is the least recently used…
    assert!(cache.lookup(keys[0], &canonical("a")).hit().is_some());
    cache.insert(keys[2], entry("c"));

    // …and exactly "b" went.
    assert_eq!(cache.lru_keys(), vec![keys[0], keys[2]]);
    assert!(cache.bytes() <= two_entries, "budget holds after eviction");
    let counters = cache.counters();
    assert_eq!(counters.evicted_entries, 1);
    assert!(counters.evicted_bytes > 0);
    assert!(
        cache.lookup(keys[1], &canonical("b")).hit().is_none(),
        "evicted entry is a miss"
    );
}

/// A "restarted daemon" (a fresh `Service` over the same `--cache-dir`)
/// serves resubmissions from spill without recompiling; a corrupted
/// spill file silently degrades that design to a cold miss.
#[test]
fn spill_tier_survives_service_restarts_and_tolerates_corruption() {
    let dir = TempDir::new("serve-tiered");
    let config = || ServeConfig::builder().cache_dir(dir.0.clone()).build();
    let and_gate = benchmark_request("logic_gate_and", Some(&["validate"]));
    let or_gate = benchmark_request("logic_gate_or", Some(&["validate"]));

    let cold = {
        let service = Service::new(config());
        let cold = submit(&service, &and_gate);
        submit(&service, &or_gate);
        cold
    };

    // Corrupt exactly the OR gate's spill file.
    let or_doc: Value = serde_json::from_str(
        &parchmint_suite::by_name("logic_gate_or")
            .expect("registered benchmark")
            .device()
            .to_json()
            .expect("serializes"),
    )
    .expect("parses");
    let or_spill = dir.0.join(format!("{}.json", hex(content_hash(&or_doc))));
    assert!(or_spill.is_file(), "submission left a spill file");
    std::fs::write(&or_spill, b"{ truncated garbage").expect("corrupt the spill");

    let service = Service::new(config());
    let replayed = submit(&service, &and_gate);
    for event in &replayed {
        assert_eq!(event["cached"], Value::from(true), "{event}");
    }
    let strip = |events: &[Value]| -> Vec<Value> {
        events
            .iter()
            .map(|event| {
                let mut event = event.clone();
                if let Some(object) = event.as_object_mut() {
                    object.remove("wall_ms");
                    object.remove("compile_ms");
                    object.remove("cached");
                }
                event
            })
            .collect()
    };
    assert_eq!(
        serde_json::to_string(&strip(&cold)).unwrap(),
        serde_json::to_string(&strip(&replayed)).unwrap(),
        "spill-served replay is byte-identical to the cold run"
    );
    let counters = service.cache().counters();
    assert_eq!(counters.spill_hits, 1, "{counters:?}");
    assert_eq!(counters.stage_hits, 1, "{counters:?}");

    // The corrupted design is a plain miss — recomputed, not an error.
    let recomputed = submit(&service, &or_gate);
    assert_eq!(
        recomputed.last().map(|e| e["event"].clone()),
        Some(Value::from("done"))
    );
    assert_eq!(recomputed[0]["cached"], Value::from(false));
    let counters = service.cache().counters();
    assert_eq!(counters.misses, 1, "{counters:?}");
    assert!(counters.spill_corrupt >= 1, "{counters:?}");
}
