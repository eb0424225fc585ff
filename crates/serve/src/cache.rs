//! The tiered content-hash artifact cache.
//!
//! Three tiers, probed in order:
//!
//! 1. **Memory** — content hash → [`CacheEntry`] under an LRU index
//!    with an optional byte budget (`--cache-bytes`). Entries carry an
//!    approximate byte cost (canonical document text + recorded stage
//!    cells); inserting or growing past the budget evicts
//!    least-recently-used entries until the total fits again (the
//!    single most-recently-used entry is always kept, even oversized).
//! 2. **Spill** — an optional disk directory (`--cache-dir`) holding
//!    one atomic file per design (see [`crate::spill`]). Every memory
//!    insert and stage store is mirrored down, so eviction and daemon
//!    restarts lose nothing: a memory miss that hits spill rehydrates
//!    the entry (stage cells replay; the compile artifact itself
//!    re-materializes lazily only if a new stage needs it).
//! 3. **Compute** — a true miss; the service compiles, then publishes
//!    the result back through both tiers.
//!
//! A key is only a candidate. Every entry keeps the canonical text it
//! was built from, and [`TieredCache::lookup`] reports a hit only when
//! the caller's canonical text is byte-equal to it, in either tier; a
//! different design under the same key is a [`Lookup::Collision`],
//! counted under `collisions` and never served.
//!
//! Only *unconditioned* executions are cacheable — a request that runs
//! under a deadline/fuel budget or with a fault plan armed can produce
//! degraded or injected results that must never be replayed for a
//! clean request. The service enforces that; the cache itself is
//! policy-free storage.

use crate::hash;
use crate::spill::Spill;
use parchmint::ir::CompiledDevice;
use parchmint_harness::StageExec;
use serde_json::{Map, Value};
use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

/// One cached design: the canonical document text, the (lazily
/// re-materializable) compiled view, and per-stage results.
pub struct CacheEntry {
    canonical: String,
    compile_wall: Duration,
    compiled: OnceLock<Arc<CompiledDevice>>,
    stages: Mutex<BTreeMap<String, StageExec>>,
}

impl CacheEntry {
    /// A fresh entry holding a just-compiled artifact.
    pub fn new(
        canonical: String,
        compiled: Arc<CompiledDevice>,
        compile_wall: Duration,
    ) -> CacheEntry {
        let cell = OnceLock::new();
        let _ = cell.set(compiled);
        CacheEntry {
            canonical,
            compile_wall,
            compiled: cell,
            stages: Mutex::new(BTreeMap::new()),
        }
    }

    /// An entry rehydrated from the spill tier: stage results are
    /// present, the compiled view is not (it re-materializes on
    /// demand via [`CacheEntry::materialize`]).
    pub fn warm(
        canonical: String,
        compile_wall: Duration,
        stages: BTreeMap<String, StageExec>,
    ) -> CacheEntry {
        CacheEntry {
            canonical,
            compile_wall,
            compiled: OnceLock::new(),
            stages: Mutex::new(stages),
        }
    }

    /// The canonical text of the design this entry was keyed from
    /// ([`hash::canonical_string`] of the submitted document).
    pub fn canonical(&self) -> &str {
        &self.canonical
    }

    /// How long the original generate+compile took.
    pub fn compile_wall(&self) -> Duration {
        self.compile_wall
    }

    /// The compiled view, if this entry holds one (spill-rehydrated
    /// entries start without).
    pub fn compiled(&self) -> Option<Arc<CompiledDevice>> {
        self.compiled.get().cloned()
    }

    /// Publishes a re-materialized compile. When two stage leaders race
    /// to materialize, the first wins and both share it.
    pub fn materialize(&self, compiled: Arc<CompiledDevice>) -> Arc<CompiledDevice> {
        let _ = self.compiled.set(compiled);
        self.compiled.get().cloned().expect("just set")
    }

    /// The recorded result of `stage`, if this design already ran it.
    pub fn stage(&self, stage: &str) -> Option<StageExec> {
        self.stages
            .lock()
            .expect("cache entry lock")
            .get(stage)
            .cloned()
    }

    /// Records the result of `stage` for replay. Prefer
    /// [`TieredCache::store_stage`], which also accounts bytes and
    /// mirrors to spill.
    pub fn store_stage(&self, stage: &str, exec: &StageExec) {
        self.stages
            .lock()
            .expect("cache entry lock")
            .insert(stage.to_string(), exec.clone());
    }

    /// How many stage results this entry holds.
    pub fn stage_count(&self) -> usize {
        self.stages.lock().expect("cache entry lock").len()
    }

    /// A snapshot of every recorded stage (what the spill tier persists).
    pub fn stages_snapshot(&self) -> BTreeMap<String, StageExec> {
        self.stages.lock().expect("cache entry lock").clone()
    }

    /// Approximate resident cost of the entry skeleton (map slot,
    /// `Arc`s, document). The compiled view itself is deliberately not
    /// charged: it is shared by reference and proportional to the
    /// document we do charge for.
    fn base_cost(&self) -> u64 {
        128 + 3 * self.canonical.len() as u64
    }

    fn total_cost(&self) -> u64 {
        let stages = self.stages.lock().expect("cache entry lock");
        self.base_cost() + stages.values().map(stage_cost).sum::<u64>()
    }
}

/// Approximate resident cost of one recorded stage cell.
fn stage_cost(exec: &StageExec) -> u64 {
    let detail = exec.detail.as_ref().map_or(0, String::len) as u64;
    let metrics: u64 = exec
        .metrics
        .iter()
        .map(|(name, value)| {
            name.len() as u64 + serde_json::to_string(value).map_or(16, |s| s.len() as u64)
        })
        .sum();
    96 + detail + metrics
}

/// Which tier a counted hit came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HitTier {
    /// Found resident in memory.
    Memory,
    /// Rehydrated from the disk spill.
    Spill,
}

/// What [`TieredCache::lookup`] found under a key.
pub enum Lookup {
    /// The key holds this very design (byte-equal canonical text).
    Hit(Arc<CacheEntry>, HitTier),
    /// No tier holds anything under the key.
    Miss,
    /// The key holds a *different* design: a counted collision, which
    /// the caller must serve as an uncached miss.
    Collision,
}

impl Lookup {
    /// The entry and its tier, when this was a hit.
    pub fn hit(self) -> Option<(Arc<CacheEntry>, HitTier)> {
        match self {
            Lookup::Hit(entry, tier) => Some((entry, tier)),
            Lookup::Miss | Lookup::Collision => None,
        }
    }
}

/// A snapshot of every cache counter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Lookups served from the memory tier.
    pub memory_hits: u64,
    /// Lookups served by rehydrating a spill file.
    pub spill_hits: u64,
    /// Lookups that found nothing in any tier, or found a different
    /// design under the key (a collision is a miss too).
    pub misses: u64,
    /// Lookups or publishes that found a different design under the
    /// requested key.
    pub collisions: u64,
    /// Stage cells replayed from a cached entry.
    pub stage_hits: u64,
    /// Stage cells that had to execute.
    pub stage_misses: u64,
    /// Requests that parked behind an identical in-flight execution
    /// instead of duplicating it.
    pub coalesced: u64,
    /// Entries evicted from the memory tier by the byte budget.
    pub evicted_entries: u64,
    /// Approximate bytes reclaimed by those evictions.
    pub evicted_bytes: u64,
    /// Spill files that were present but could not be trusted.
    pub spill_corrupt: u64,
}

struct Slot {
    entry: Arc<CacheEntry>,
    bytes: u64,
    tick: u64,
}

#[derive(Default)]
struct MemoryTier {
    entries: HashMap<u64, Slot>,
    /// Recency index: strictly increasing touch tick → key. The lowest
    /// tick is the least recently used entry.
    recency: BTreeMap<u64, u64>,
    next_tick: u64,
    bytes: u64,
}

impl MemoryTier {
    fn touch(&mut self, key: u64) {
        let tick = self.next_tick;
        self.next_tick += 1;
        if let Some(slot) = self.entries.get_mut(&key) {
            self.recency.remove(&slot.tick);
            slot.tick = tick;
            self.recency.insert(tick, key);
        }
    }

    /// Evicts least-recently-used entries until the budget fits,
    /// always keeping at least the most recent entry.
    fn evict_to(&mut self, budget: u64) -> (u64, u64) {
        let (mut entries, mut bytes) = (0u64, 0u64);
        while self.bytes > budget && self.entries.len() > 1 {
            let Some((&tick, &key)) = self.recency.iter().next() else {
                break;
            };
            self.recency.remove(&tick);
            if let Some(slot) = self.entries.remove(&key) {
                self.bytes = self.bytes.saturating_sub(slot.bytes);
                entries += 1;
                bytes += slot.bytes;
            }
        }
        (entries, bytes)
    }
}

/// The daemon-wide cache: memory tier, optional spill tier, and the
/// counters the `stats` op reports.
pub struct TieredCache {
    memory: Mutex<MemoryTier>,
    budget: Option<u64>,
    spill: Option<Spill>,
    memory_hits: AtomicU64,
    spill_hits: AtomicU64,
    misses: AtomicU64,
    collisions: AtomicU64,
    stage_hits: AtomicU64,
    stage_misses: AtomicU64,
    coalesced: AtomicU64,
    evicted_entries: AtomicU64,
    evicted_bytes: AtomicU64,
}

impl Default for TieredCache {
    fn default() -> Self {
        TieredCache::with_limits(None, None::<PathBuf>)
    }
}

impl TieredCache {
    /// An unbounded, memory-only cache.
    pub fn new() -> TieredCache {
        TieredCache::default()
    }

    /// A cache with an optional memory byte budget and an optional
    /// spill directory.
    pub fn with_limits(budget: Option<u64>, dir: Option<impl Into<PathBuf>>) -> TieredCache {
        TieredCache {
            memory: Mutex::new(MemoryTier::default()),
            budget,
            spill: dir.map(Spill::open),
            memory_hits: AtomicU64::new(0),
            spill_hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            collisions: AtomicU64::new(0),
            stage_hits: AtomicU64::new(0),
            stage_misses: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            evicted_entries: AtomicU64::new(0),
            evicted_bytes: AtomicU64::new(0),
        }
    }

    /// The configured memory byte budget, if any.
    pub fn budget(&self) -> Option<u64> {
        self.budget
    }

    /// The spill directory, if the disk tier is enabled.
    pub fn spill_dir(&self) -> Option<&std::path::Path> {
        self.spill.as_ref().map(Spill::dir)
    }

    /// Looks up the design whose canonical text is `canonical` under
    /// its `key`, through the tiers, counting exactly one of
    /// memory-hit / spill-hit / miss (a collision counts as a miss and
    /// a collision).
    pub fn lookup(&self, key: u64, canonical: &str) -> Lookup {
        {
            let mut memory = self.memory.lock().expect("cache lock");
            if let Some(slot) = memory.entries.get(&key) {
                let entry = Arc::clone(&slot.entry);
                if entry.canonical != canonical {
                    return self.missed(true);
                }
                memory.touch(key);
                self.memory_hits.fetch_add(1, Ordering::Relaxed);
                return Lookup::Hit(entry, HitTier::Memory);
            }
        }
        if let Some(spill) = &self.spill {
            if let Some(loaded) = spill.load(&hash::hex(key)) {
                if loaded.canonical != canonical {
                    return self.missed(true);
                }
                let entry = Arc::new(CacheEntry::warm(
                    loaded.canonical,
                    loaded.compile_wall,
                    loaded.stages,
                ));
                // Another thread may have raced the rehydration; whoever
                // inserted first wins, exactly like a compile race.
                let Some(entry) = self.insert_memory_only(key, entry) else {
                    return self.missed(true);
                };
                self.spill_hits.fetch_add(1, Ordering::Relaxed);
                return Lookup::Hit(entry, HitTier::Spill);
            }
        }
        self.missed(false)
    }

    /// Counts a lookup that served nothing: a plain miss, or one that
    /// found a different design under the key.
    fn missed(&self, collision: bool) -> Lookup {
        self.misses.fetch_add(1, Ordering::Relaxed);
        if collision {
            self.count_collision();
            Lookup::Collision
        } else {
            Lookup::Miss
        }
    }

    fn count_collision(&self) {
        self.collisions.fetch_add(1, Ordering::Relaxed);
        parchmint_obs::count("cache.collisions", 1);
    }

    /// An uncounted, memory-only probe for the design `canonical` under
    /// `key`. Single-flight leaders use this to re-check for a result
    /// published between their counted miss and their promotion,
    /// without double-counting either way.
    pub fn peek(&self, key: u64, canonical: &str) -> Option<Arc<CacheEntry>> {
        let mut memory = self.memory.lock().expect("cache lock");
        let entry = memory.entries.get(&key).map(|s| Arc::clone(&s.entry))?;
        if entry.canonical != canonical {
            return None;
        }
        memory.touch(key);
        Some(entry)
    }

    /// Inserts `entry` under `key` into both tiers. When two workers
    /// race to publish the same design, the first insert wins and both
    /// use it — the loser's artifact is discarded, never half-merged.
    /// `None` when `key` already holds a different design: `entry` is
    /// then not published (a counted collision), and the caller keeps
    /// using it privately.
    pub fn insert(&self, key: u64, entry: Arc<CacheEntry>) -> Option<Arc<CacheEntry>> {
        let Some(entry) = self.insert_memory_only(key, entry) else {
            self.count_collision();
            return None;
        };
        self.spill_entry(key, &entry);
        Some(entry)
    }

    /// The memory half of [`TieredCache::insert`]: the resident entry
    /// for the design, or `None` when `key` holds a different one.
    fn insert_memory_only(&self, key: u64, entry: Arc<CacheEntry>) -> Option<Arc<CacheEntry>> {
        let mut memory = self.memory.lock().expect("cache lock");
        if let Some(slot) = memory.entries.get(&key) {
            let existing = Arc::clone(&slot.entry);
            if existing.canonical != entry.canonical {
                return None;
            }
            memory.touch(key);
            return Some(existing);
        }
        let bytes = entry.total_cost();
        let tick = memory.next_tick;
        memory.next_tick += 1;
        memory.entries.insert(
            key,
            Slot {
                entry: Arc::clone(&entry),
                bytes,
                tick,
            },
        );
        memory.recency.insert(tick, key);
        memory.bytes += bytes;
        self.enforce_budget(&mut memory);
        Some(entry)
    }

    /// Records the result of `stage` on `entry`: grows the entry's byte
    /// accounting (evicting if the budget overflows) and mirrors the
    /// updated entry down to the spill tier.
    pub fn store_stage(&self, key: u64, entry: &Arc<CacheEntry>, stage: &str, exec: &StageExec) {
        entry.store_stage(stage, exec);
        let delta = stage_cost(exec);
        {
            let mut memory = self.memory.lock().expect("cache lock");
            // Only charge the slot if this exact entry is still resident
            // (it may have been evicted while the stage ran).
            if let Some(slot) = memory.entries.get_mut(&key) {
                if Arc::ptr_eq(&slot.entry, entry) {
                    slot.bytes += delta;
                    memory.bytes += delta;
                    self.enforce_budget(&mut memory);
                }
            }
        }
        self.spill_entry(key, entry);
    }

    fn spill_entry(&self, key: u64, entry: &Arc<CacheEntry>) {
        if let Some(spill) = &self.spill {
            spill.store(
                &hash::hex(key),
                entry.canonical(),
                entry.compile_wall(),
                &entry.stages_snapshot(),
            );
        }
    }

    fn enforce_budget(&self, memory: &mut MemoryTier) {
        let Some(budget) = self.budget else {
            return;
        };
        let (entries, bytes) = memory.evict_to(budget);
        if entries > 0 {
            self.evicted_entries.fetch_add(entries, Ordering::Relaxed);
            self.evicted_bytes.fetch_add(bytes, Ordering::Relaxed);
            parchmint_obs::count("cache.evicted.entries", entries);
            parchmint_obs::count("cache.evicted.bytes", bytes);
        }
        parchmint_obs::observe("cache.bytes", memory.bytes);
    }

    /// Counts a stage-layer hit (replayed) or miss (executed).
    pub fn count_stage(&self, hit: bool) {
        let counter = if hit {
            &self.stage_hits
        } else {
            &self.stage_misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one request parking behind an identical in-flight
    /// execution. Counted when the waiter parks — before the leader
    /// finishes — so a concurrent duplicate pair is observable mid-flight.
    pub fn count_coalesced(&self) {
        self.coalesced.fetch_add(1, Ordering::Relaxed);
        parchmint_obs::count("cache.coalesced", 1);
    }

    /// Number of designs resident in the memory tier.
    pub fn len(&self) -> usize {
        self.memory.lock().expect("cache lock").entries.len()
    }

    /// Whether the memory tier holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate bytes resident in the memory tier.
    pub fn bytes(&self) -> u64 {
        self.memory.lock().expect("cache lock").bytes
    }

    /// Memory-tier keys in least-recently-used-first order (tests pin
    /// eviction order through this).
    pub fn lru_keys(&self) -> Vec<u64> {
        let memory = self.memory.lock().expect("cache lock");
        memory.recency.values().copied().collect()
    }

    /// A snapshot of every counter.
    pub fn counters(&self) -> CacheCounters {
        CacheCounters {
            memory_hits: self.memory_hits.load(Ordering::Relaxed),
            spill_hits: self.spill_hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            collisions: self.collisions.load(Ordering::Relaxed),
            stage_hits: self.stage_hits.load(Ordering::Relaxed),
            stage_misses: self.stage_misses.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            evicted_entries: self.evicted_entries.load(Ordering::Relaxed),
            evicted_bytes: self.evicted_bytes.load(Ordering::Relaxed),
            spill_corrupt: self.spill.as_ref().map_or(0, Spill::corrupt_loads),
        }
    }

    /// The cache section of the daemon's `stats` response.
    pub fn stats_json(&self) -> Value {
        let counters = self.counters();
        let mut object = Map::new();
        object.insert("entries".to_string(), Value::from(self.len()));
        object.insert("bytes".to_string(), Value::from(self.bytes()));
        object.insert(
            "budget_bytes".to_string(),
            self.budget.map_or(Value::Null, Value::from),
        );
        object.insert(
            "spill_dir".to_string(),
            self.spill_dir()
                .map_or(Value::Null, |dir| Value::from(dir.display().to_string())),
        );
        object.insert("memory_hits".to_string(), Value::from(counters.memory_hits));
        object.insert("spill_hits".to_string(), Value::from(counters.spill_hits));
        object.insert("misses".to_string(), Value::from(counters.misses));
        object.insert("collisions".to_string(), Value::from(counters.collisions));
        object.insert("stage_hits".to_string(), Value::from(counters.stage_hits));
        object.insert(
            "stage_misses".to_string(),
            Value::from(counters.stage_misses),
        );
        object.insert("coalesced".to_string(), Value::from(counters.coalesced));
        object.insert(
            "evicted_entries".to_string(),
            Value::from(counters.evicted_entries),
        );
        object.insert(
            "evicted_bytes".to_string(),
            Value::from(counters.evicted_bytes),
        );
        object.insert(
            "spill_corrupt".to_string(),
            Value::from(counters.spill_corrupt),
        );
        Value::Object(object)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parchmint::Device;
    use parchmint_harness::CellStatus;

    fn doc(name: &str) -> String {
        let mut object = Map::new();
        object.insert("name".to_string(), Value::from(name));
        hash::canonical_string(&Value::Object(object))
    }

    fn entry(name: &str) -> Arc<CacheEntry> {
        let device = Device::new(name);
        Arc::new(CacheEntry::new(
            doc(name),
            CompiledDevice::compile(device).into_shared(),
            Duration::from_millis(1),
        ))
    }

    fn exec(status: CellStatus) -> StageExec {
        StageExec {
            status,
            detail: None,
            metrics: BTreeMap::new(),
            trace: None,
            attempts: 1,
        }
    }

    #[test]
    fn lookup_counts_hits_and_misses() {
        let cache = TieredCache::new();
        assert!(matches!(cache.lookup(7, &doc("a")), Lookup::Miss));
        cache.insert(7, entry("a"));
        let (_, tier) = cache.lookup(7, &doc("a")).hit().expect("resident");
        assert_eq!(tier, HitTier::Memory);
        let counters = cache.counters();
        assert_eq!(counters.memory_hits, 1);
        assert_eq!(counters.misses, 1);
        assert_eq!(counters.spill_hits, 0);
        assert_eq!(cache.len(), 1);
        assert!(cache.bytes() > 0);
    }

    #[test]
    fn racing_inserts_converge_on_the_first() {
        let cache = TieredCache::new();
        let first = cache.insert(3, entry("a")).expect("published");
        let second = cache.insert(3, entry("a")).expect("same design");
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn peek_is_uncounted() {
        let cache = TieredCache::new();
        assert!(cache.peek(5, &doc("a")).is_none());
        cache.insert(5, entry("a"));
        assert!(cache.peek(5, &doc("a")).is_some());
        assert!(cache.peek(5, &doc("b")).is_none(), "a peek verifies bytes");
        let counters = cache.counters();
        assert_eq!((counters.memory_hits, counters.misses), (0, 0));
    }

    #[test]
    fn stage_results_replay_per_entry() {
        let cache = TieredCache::new();
        let entry = cache.insert(11, entry("a")).expect("published");
        assert!(entry.stage("validate").is_none());
        let before = cache.bytes();
        cache.store_stage(11, &entry, "validate", &exec(CellStatus::Ok));
        let replayed = entry.stage("validate").expect("stored");
        assert_eq!(replayed.status, CellStatus::Ok);
        assert_eq!(entry.stage_count(), 1);
        assert!(cache.bytes() > before, "stage storage is accounted");
    }

    #[test]
    fn budget_evicts_least_recently_used_first() {
        // Budget fits roughly two bare entries.
        let budget = entry("a").total_cost() * 2 + 32;
        let cache = TieredCache::with_limits(Some(budget), None::<PathBuf>);
        cache.insert(1, entry("a"));
        cache.insert(2, entry("b"));
        assert_eq!(cache.lru_keys(), vec![1, 2]);
        // Touch 1 so 2 becomes the LRU victim.
        assert!(cache.lookup(1, &doc("a")).hit().is_some());
        cache.insert(3, entry("c"));
        assert_eq!(cache.len(), 2);
        assert!(cache.peek(2, &doc("b")).is_none(), "LRU entry evicted");
        assert!(cache.peek(1, &doc("a")).is_some());
        assert!(cache.peek(3, &doc("c")).is_some());
        assert!(cache.bytes() <= budget);
        let counters = cache.counters();
        assert_eq!(counters.evicted_entries, 1);
        assert!(counters.evicted_bytes > 0);
    }

    #[test]
    fn an_oversized_sole_entry_is_kept() {
        let cache = TieredCache::with_limits(Some(1), None::<PathBuf>);
        cache.insert(1, entry("oversized"));
        assert_eq!(cache.len(), 1, "never evict down to empty");
        assert_eq!(cache.counters().evicted_entries, 0);
        // A second insert evicts the older one but keeps the newest.
        cache.insert(2, entry("also-oversized"));
        assert_eq!(cache.len(), 1);
        assert!(cache.peek(2, &doc("also-oversized")).is_some());
        assert_eq!(cache.counters().evicted_entries, 1);
    }

    #[test]
    fn spill_round_trips_through_a_fresh_cache() {
        let dir =
            std::env::temp_dir().join(format!("parchmint-cache-spill-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let cache = TieredCache::with_limits(None, Some(&dir));
            let entry = cache.insert(77, entry("persisted")).expect("published");
            cache.store_stage(77, &entry, "validate", &exec(CellStatus::Ok));
        }
        let cache = TieredCache::with_limits(None, Some(&dir));
        let (entry, tier) = cache
            .lookup(77, &doc("persisted"))
            .hit()
            .expect("rehydrated");
        assert_eq!(tier, HitTier::Spill);
        assert!(entry.compiled().is_none(), "compile re-materializes lazily");
        assert_eq!(entry.stage("validate").unwrap().status, CellStatus::Ok);
        assert_eq!(entry.canonical(), doc("persisted"));
        // Now resident: the next lookup is a memory hit.
        let (_, tier) = cache.lookup(77, &doc("persisted")).hit().expect("resident");
        assert_eq!(tier, HitTier::Memory);
        let counters = cache.counters();
        assert_eq!((counters.spill_hits, counters.memory_hits), (1, 1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_different_design_under_the_same_key_is_a_counted_collision() {
        let dir = std::env::temp_dir().join(format!(
            "parchmint-cache-collision-test-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = TieredCache::with_limits(None, Some(&dir));
        cache.insert(9, entry("a")).expect("published");
        assert!(matches!(cache.lookup(9, &doc("b")), Lookup::Collision));
        assert!(cache.insert(9, entry("b")).is_none(), "b is not published");
        let (resident, _) = cache.lookup(9, &doc("a")).hit().expect("a survives");
        assert_eq!(resident.canonical(), doc("a"));

        // The spill tier verifies too: a fresh cache over the same
        // directory rehydrates only the design that was spilled.
        let restarted = TieredCache::with_limits(None, Some(&dir));
        assert!(matches!(restarted.lookup(9, &doc("b")), Lookup::Collision));
        assert!(restarted.is_empty(), "a colliding spill file is not loaded");
        assert!(restarted.lookup(9, &doc("a")).hit().is_some());

        let counters = cache.counters();
        assert_eq!((counters.collisions, counters.memory_hits), (2, 1));
        assert_eq!(counters.misses, 1, "the collided lookup is a miss");
        assert_eq!(restarted.counters().collisions, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
