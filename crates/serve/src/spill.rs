//! The persistent disk-spill cache tier.
//!
//! One file per cached design, named by the same 16-hex-digit FNV-1a
//! content hash that keys the in-memory tier, holding the canonical
//! device document plus every recorded stage cell
//! (`parchmint-spill/v1`). The cache holds that document as canonical
//! text; the file embeds the same text as its `design` member, and a load
//! re-prints the parsed member canonically, so the format is the same
//! whether the writer held a tree or text. A daemon restarted with the same
//! `--cache-dir` therefore serves warm resubmissions without
//! recompiling anything: the entry is rehydrated from disk, its stages
//! replay byte-identically, and the compile artifact itself is only
//! re-materialized if a *new* stage needs it.
//!
//! Two durability rules:
//!
//! - **Writes are atomic and durable.** Every store writes a unique
//!   temp file in the cache directory, fsyncs it, and only then renames
//!   it over the final name (followed by a best-effort directory sync),
//!   so neither a crashed daemon nor a machine power loss can leave a
//!   half-written entry under a real key — at worst, stray `*.tmp`
//!   files.
//! - **Loads are corruption-tolerant.** A spill file that is missing,
//!   unreadable, unparseable, schema-mismatched, or keyed wrong is a
//!   cache *miss* (counted under `spill_corrupt`), never an error — the
//!   design simply recompiles and the bad file is overwritten by the
//!   next store.

use crate::hash;
use parchmint_harness::{CellStatus, StageExec};
use serde_json::{Map, Value};
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// The spill file schema tag.
pub const SPILL_SCHEMA: &str = "parchmint-spill/v1";

/// A stage map plus compile metadata rehydrated from one spill file.
pub struct SpillEntry {
    /// The canonical text of the design document (the hash preimage).
    pub canonical: String,
    /// The original compile wall time, as recorded by the daemon that
    /// first compiled the design.
    pub compile_wall: Duration,
    /// Every stage cell recorded for the design.
    pub stages: BTreeMap<String, StageExec>,
}

/// The disk tier: a directory of content-hash-named entry files.
pub struct Spill {
    dir: PathBuf,
    seq: AtomicU64,
    corrupt: AtomicU64,
}

impl Spill {
    /// A spill tier rooted at `dir`. The directory is created if
    /// missing; failure to create it degrades the tier to a no-op
    /// (every load misses, every store is dropped) rather than failing
    /// the daemon — callers that want a hard error create the directory
    /// themselves first.
    pub fn open(dir: impl Into<PathBuf>) -> Spill {
        let dir = dir.into();
        let _ = fs::create_dir_all(&dir);
        Spill {
            dir,
            seq: AtomicU64::new(0),
            corrupt: AtomicU64::new(0),
        }
    }

    /// The spill directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// How many loads found a file that could not be trusted.
    pub fn corrupt_loads(&self) -> u64 {
        self.corrupt.load(Ordering::Relaxed)
    }

    fn entry_path(&self, key_hex: &str) -> PathBuf {
        self.dir.join(format!("{key_hex}.json"))
    }

    /// Loads the entry spilled under `key_hex`, tolerating every form
    /// of corruption as a miss. A missing file is a plain miss; a
    /// present-but-bad file additionally counts under `corrupt_loads`.
    pub fn load(&self, key_hex: &str) -> Option<SpillEntry> {
        let path = self.entry_path(key_hex);
        let text = match fs::read_to_string(&path) {
            Ok(text) => text,
            Err(error) if error.kind() == std::io::ErrorKind::NotFound => return None,
            Err(_) => {
                self.corrupt.fetch_add(1, Ordering::Relaxed);
                return None;
            }
        };
        match decode_entry(&text, key_hex) {
            Some(entry) => Some(entry),
            None => {
                self.corrupt.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Spills an entry: canonical document text, compile wall time, and
    /// the current stage snapshot. Atomic (tmp-then-rename) and
    /// best-effort — a full disk loses persistence, never correctness.
    pub fn store(
        &self,
        key_hex: &str,
        canonical: &str,
        compile_wall: Duration,
        stages: &BTreeMap<String, StageExec>,
    ) {
        let body = encode_entry(key_hex, canonical, compile_wall, stages);
        let unique = self.seq.fetch_add(1, Ordering::Relaxed);
        let tmp = self
            .dir
            .join(format!("{key_hex}.{}.{unique}.tmp", std::process::id()));
        if write_synced(&tmp, body.as_bytes()).is_err() {
            let _ = fs::remove_file(&tmp);
            return;
        }
        if fs::rename(&tmp, self.entry_path(key_hex)).is_err() {
            let _ = fs::remove_file(&tmp);
            return;
        }
        // Best effort: persist the rename itself. A directory that
        // cannot be opened or synced (some filesystems refuse) costs
        // durability of this one entry, not correctness.
        let _ = fs::File::open(&self.dir).and_then(|dir| dir.sync_all());
    }
}

/// Writes `body` to `path` and fsyncs it before returning, so the
/// subsequent rename can never expose a partially flushed file.
fn write_synced(path: &Path, body: &[u8]) -> std::io::Result<()> {
    use std::io::Write as _;
    let mut file = fs::File::create(path)?;
    file.write_all(body)?;
    file.sync_all()
}

/// The entry as compact JSON with its members in sorted key order, the
/// canonical `design` text spliced in verbatim — the same bytes as
/// printing one object holding the parsed document.
fn encode_entry(
    key_hex: &str,
    canonical: &str,
    compile_wall: Duration,
    stages: &BTreeMap<String, StageExec>,
) -> String {
    let mut cells = Map::new();
    for (name, exec) in stages {
        let mut cell = Map::new();
        cell.insert("status".to_string(), Value::from(exec.status.as_str()));
        if let Some(detail) = &exec.detail {
            cell.insert("detail".to_string(), Value::from(detail.clone()));
        }
        if !exec.metrics.is_empty() {
            let metrics: Map = exec
                .metrics
                .iter()
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect();
            cell.insert("metrics".to_string(), Value::Object(metrics));
        }
        cell.insert("attempts".to_string(), Value::from(exec.attempts));
        cells.insert(name.clone(), Value::Object(cell));
    }
    let mut out = String::with_capacity(canonical.len() + 256);
    out.push_str("{\"compile_ms\":");
    serde_json::write_value(&mut out, &Value::from(compile_wall.as_secs_f64() * 1e3));
    out.push_str(",\"design\":");
    out.push_str(canonical);
    out.push_str(",\"key\":");
    serde_json::write_value(&mut out, &Value::from(key_hex));
    out.push_str(",\"schema\":");
    serde_json::write_value(&mut out, &Value::from(SPILL_SCHEMA));
    out.push_str(",\"stages\":");
    serde_json::write_value(&mut out, &Value::Object(cells));
    out.push('}');
    out
}

fn decode_entry(text: &str, key_hex: &str) -> Option<SpillEntry> {
    let value = serde_json::parse_value(text).ok()?;
    let object = value.as_object()?;
    if object.get("schema")?.as_str()? != SPILL_SCHEMA {
        return None;
    }
    if object.get("key")?.as_str()? != key_hex {
        return None;
    }
    let canonical = hash::canonical_string(object.get("design")?);
    let compile_ms = object.get("compile_ms")?.as_f64()?;
    if !compile_ms.is_finite() || compile_ms < 0.0 {
        return None;
    }
    let mut stages = BTreeMap::new();
    for (name, cell) in object.get("stages")?.as_object()? {
        let cell = cell.as_object()?;
        let status = CellStatus::parse(cell.get("status")?.as_str()?)?;
        let detail = match cell.get("detail") {
            None => None,
            Some(value) => Some(value.as_str()?.to_string()),
        };
        let metrics = match cell.get("metrics") {
            None => BTreeMap::new(),
            Some(value) => value
                .as_object()?
                .iter()
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect(),
        };
        let attempts = u32::try_from(cell.get("attempts")?.as_u64()?).ok()?;
        stages.insert(
            name.clone(),
            StageExec {
                status,
                detail,
                metrics,
                trace: None,
                attempts,
            },
        );
    }
    Some(SpillEntry {
        canonical,
        compile_wall: Duration::from_secs_f64(compile_ms / 1e3),
        stages,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("parchmint-spill-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    /// The canonical text of an object of string members.
    fn canonical(members: &[(&str, &str)]) -> String {
        let object: Map = members
            .iter()
            .map(|(k, v)| (k.to_string(), Value::from(*v)))
            .collect();
        hash::canonical_string(&Value::Object(object))
    }

    fn sample_stages() -> BTreeMap<String, StageExec> {
        let mut stages = BTreeMap::new();
        stages.insert(
            "validate".to_string(),
            StageExec {
                status: CellStatus::Ok,
                detail: None,
                metrics: BTreeMap::from([("rules".to_string(), Value::from(12))]),
                trace: None,
                attempts: 1,
            },
        );
        stages.insert(
            "route:astar".to_string(),
            StageExec {
                status: CellStatus::Degraded,
                detail: Some("fell back".to_string()),
                metrics: BTreeMap::new(),
                trace: None,
                attempts: 2,
            },
        );
        stages
    }

    #[test]
    fn round_trips_an_entry() {
        let dir = temp_dir("roundtrip");
        let spill = Spill::open(&dir);
        let doc = canonical(&[("name", "roundtrip")]);
        spill.store(
            "00000000deadbeef",
            &doc,
            Duration::from_millis(5),
            &sample_stages(),
        );
        let loaded = spill.load("00000000deadbeef").expect("stored entry loads");
        assert_eq!(loaded.canonical, doc);
        assert_eq!(loaded.stages.len(), 2);
        assert_eq!(loaded.stages["validate"].status, CellStatus::Ok);
        assert_eq!(loaded.stages["validate"].metrics["rules"], Value::from(12));
        let degraded = &loaded.stages["route:astar"];
        assert_eq!(degraded.status, CellStatus::Degraded);
        assert_eq!(degraded.detail.as_deref(), Some("fell back"));
        assert_eq!(degraded.attempts, 2);
        assert_eq!(spill.corrupt_loads(), 0);
        // No temp droppings survive a store.
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.path().extension().is_some_and(|ext| ext == "tmp"))
            .collect();
        assert!(leftovers.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corruption_is_a_miss_not_an_error() {
        let dir = temp_dir("corrupt");
        let spill = Spill::open(&dir);
        assert!(spill.load("0000000000000001").is_none());
        assert_eq!(spill.corrupt_loads(), 0, "absent files are plain misses");

        fs::write(dir.join("0000000000000002.json"), "{truncated").unwrap();
        assert!(spill.load("0000000000000002").is_none());

        fs::write(
            dir.join("0000000000000003.json"),
            r#"{"schema":"other/v9","key":"0000000000000003","design":{},"compile_ms":1,"stages":{}}"#,
        )
        .unwrap();
        assert!(spill.load("0000000000000003").is_none());

        // A file renamed under the wrong hash must not poison that key.
        let doc = canonical(&[]);
        spill.store("000000000000000a", &doc, Duration::ZERO, &BTreeMap::new());
        fs::rename(
            dir.join("000000000000000a.json"),
            dir.join("000000000000000b.json"),
        )
        .unwrap();
        assert!(spill.load("000000000000000b").is_none());
        assert_eq!(spill.corrupt_loads(), 3);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_truncated_entry_is_a_counted_miss() {
        // Simulate the crash the fsync-then-rename dance prevents: a
        // real entry whose tail never reached disk. Loading it must be
        // a corrupt-counted miss, and a fresh store must heal the key.
        let dir = temp_dir("truncate");
        let spill = Spill::open(&dir);
        let key = "0000000000000042";
        let doc = canonical(&[("name", "truncated")]);
        spill.store(key, &doc, Duration::from_millis(3), &sample_stages());
        let path = dir.join(format!("{key}.json"));
        let full = fs::read(&path).unwrap();
        fs::write(&path, &full[..full.len() / 2]).unwrap();
        assert!(spill.load(key).is_none(), "half a file is not an entry");
        assert_eq!(spill.corrupt_loads(), 1);
        spill.store(key, &doc, Duration::from_millis(3), &sample_stages());
        assert!(spill.load(key).is_some(), "a fresh store heals the key");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn restore_overwrites_a_corrupt_file() {
        let dir = temp_dir("overwrite");
        let spill = Spill::open(&dir);
        fs::write(dir.join("00000000000000ff.json"), "garbage").unwrap();
        assert!(spill.load("00000000000000ff").is_none());
        let doc = canonical(&[]);
        spill.store("00000000000000ff", &doc, Duration::ZERO, &sample_stages());
        let loaded = spill.load("00000000000000ff").expect("healed");
        assert_eq!(loaded.stages.len(), 2);
        let _ = fs::remove_dir_all(&dir);
    }

    /// The file format predates text-holding entries: the spliced
    /// encoding must equal printing one object that holds the parsed
    /// design, byte for byte, so spill directories stay readable both
    /// ways.
    #[test]
    fn spliced_encoding_matches_the_tree_encoding() {
        let design = serde_json::json!({
            "name": "spliced \"quoted\" \u{e9}",
            "layers": [{"id": "f", "type": "FLOW"}],
            "params": {"width": 2.5, "depth": -3, "huge": 1e16}
        });
        let canonical = hash::canonical_string(&design);
        let stages = sample_stages();
        let wall = Duration::from_micros(1234);

        let mut object = Map::new();
        object.insert("schema".to_string(), Value::from(SPILL_SCHEMA));
        object.insert("key".to_string(), Value::from("00000000000000aa"));
        object.insert("design".to_string(), design);
        object.insert(
            "compile_ms".to_string(),
            Value::from(wall.as_secs_f64() * 1e3),
        );
        let mut cells = Map::new();
        for (name, exec) in &stages {
            let mut cell = Map::new();
            cell.insert("status".to_string(), Value::from(exec.status.as_str()));
            if let Some(detail) = &exec.detail {
                cell.insert("detail".to_string(), Value::from(detail.clone()));
            }
            if !exec.metrics.is_empty() {
                let metrics: Map = exec.metrics.clone().into_iter().collect();
                cell.insert("metrics".to_string(), Value::Object(metrics));
            }
            cell.insert("attempts".to_string(), Value::from(exec.attempts));
            cells.insert(name.clone(), Value::Object(cell));
        }
        object.insert("stages".to_string(), Value::Object(cells));
        let tree = serde_json::to_string(&Value::Object(object)).unwrap();

        let spliced = encode_entry("00000000000000aa", &canonical, wall, &stages);
        assert_eq!(spliced, tree);
        let loaded = decode_entry(&spliced, "00000000000000aa").expect("decodes");
        assert_eq!(loaded.canonical, canonical);
    }
}
