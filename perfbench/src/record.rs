//! What a run records beside its metrics: the machine fingerprint, peak
//! memory, the seeded generator, and the ledger that holds deterministic
//! work counters so a later run at the same seed can be checked against
//! them.

use serde_json::{Map, Value};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

/// Where work counters are kept between runs, relative to the checkout
/// root the benchmark runs from (ignored by git, like the build output).
const LEDGER_DIR: &str = ".bench_build/perfbench-ledger";

/// Worker threads and client connections: one per available core.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident memory of this process in MB (10^6 bytes), from the
/// kernel's high-water mark.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read process status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse().ok())
        .ok_or("process status has no VmHWM line")?;
    Ok(kb * 1024.0 / 1e6)
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let mut command = Command::new(program);
    command.args(args);
    if let Ok(cwd) = std::env::current_dir() {
        // Never report the commit of a repository enclosing the checkout.
        if let Some(parent) = cwd.parent() {
            command.env("GIT_CEILING_DIRECTORIES", parent);
        }
    }
    let output = command.output().ok()?;
    output
        .status
        .success()
        .then(|| String::from_utf8_lossy(&output.stdout).trim().to_string())
        .filter(|text| !text.is_empty())
}

/// The machine and build a result belongs to.
pub fn fingerprint(workload: &str, seed: u64, seconds: u64, trace: bool) -> Value {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|line| line.strip_prefix("model name"))
                .map(|rest| rest.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let mut object = Map::new();
    let mut put = |key: &str, value: Value| {
        object.insert(key.to_string(), value);
    };
    put("workload", Value::from(workload));
    put("seed", Value::from(seed));
    put("seconds", Value::from(seconds));
    put("trace", Value::from(trace));
    put("nproc", Value::from(nproc()));
    put("cpu", Value::from(cpu));
    put(
        "rustc",
        Value::from(command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into())),
    );
    put(
        "build",
        Value::from(build_id().map_or_else(|e| e, |id| format!("{id:016x}"))),
    );
    put(
        "commit",
        Value::from(
            command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into()),
        ),
    );
    Value::Object(object)
}

/// SplitMix64: the benchmark's only source of randomness, so one seed
/// fixes every generated input.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.range(0, i));
        }
    }
}

/// Identifies this build: an FNV-1a hash of the running executable, so
/// counters are only ever compared between runs of the same code.
pub fn build_id() -> Result<u64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("no executable path: {e}"))?;
    let bytes = std::fs::read(&exe).map_err(|e| format!("cannot read {}: {e}", exe.display()))?;
    Ok(bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    }))
}

/// Checks `counters` against those an earlier run of the same `build` of
/// `workload` at the same `seed` stored, then stores the union. Returns
/// one message per counter whose value changed; a counter seen for the
/// first time is only stored.
pub fn check_ledger(
    root: &Path,
    build: u64,
    workload: &str,
    seed: u64,
    counters: &BTreeMap<String, u64>,
) -> Result<Vec<String>, String> {
    let path = root
        .join(LEDGER_DIR)
        .join(format!("{workload}-seed{seed}-{build:016x}.json"));
    let mut stored: BTreeMap<String, u64> = match std::fs::read_to_string(&path) {
        Ok(text) => match serde_json::from_str::<Value>(&text) {
            Ok(Value::Object(map)) => map
                .iter()
                .filter_map(|(k, v)| v.as_u64().map(|v| (k.clone(), v)))
                .collect(),
            _ => return Err(format!("{}: not a counter ledger", path.display())),
        },
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => BTreeMap::new(),
        Err(e) => return Err(format!("cannot read {}: {e}", path.display())),
    };
    let mut changed = Vec::new();
    for (name, &value) in counters {
        match stored.insert(name.clone(), value) {
            Some(before) if before != value => changed.push(format!(
                "work counter {name} = {value}, but an earlier run at seed {seed} counted {before}"
            )),
            _ => {}
        }
    }
    let dir = path.parent().expect("ledger path has a directory");
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let object: Map = stored
        .into_iter()
        .map(|(k, v)| (k, Value::from(v)))
        .collect();
    let text = serde_json::to_string_pretty(&Value::Object(object))
        .map_err(|e| format!("cannot encode ledger: {e}"))?;
    let tmp = path.with_extension(format!("tmp{}", std::process::id()));
    std::fs::write(&tmp, text).map_err(|e| format!("cannot write {}: {e}", tmp.display()))?;
    std::fs::rename(&tmp, &path).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(changed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_seeds_give_equal_streams() {
        let (mut a, mut b, mut c) = (Rng::new(7), Rng::new(7), Rng::new(8));
        let xs: Vec<u64> = (0..4).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..4).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..4).map(|_| c.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
        let mut items: Vec<usize> = (0..50).collect();
        Rng::new(3).shuffle(&mut items);
        let mut sorted = items.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert!((0..1000).all(|_| (3..=5).contains(&a.range(3, 5))));
    }

    #[test]
    fn ledger_flags_a_changed_counter_only() {
        let root = std::env::temp_dir().join(format!("perfbench-ledger-{}", std::process::id()));
        let first: BTreeMap<String, u64> = [("a".to_string(), 1), ("b".to_string(), 2)].into();
        assert!(check_ledger(&root, 9, "w", 1, &first).unwrap().is_empty());
        assert!(check_ledger(&root, 9, "w", 1, &first).unwrap().is_empty());
        let second: BTreeMap<String, u64> = [("a".to_string(), 1), ("b".to_string(), 3)].into();
        let changed = check_ledger(&root, 9, "w", 1, &second).unwrap();
        assert_eq!(changed.len(), 1);
        assert!(changed[0].contains("work counter b = 3"), "{changed:?}");
        // Another seed, or another build, keeps its own counts.
        assert!(check_ledger(&root, 9, "w", 2, &second).unwrap().is_empty());
        assert!(check_ledger(&root, 10, "w", 1, &second).unwrap().is_empty());
        assert_ne!(build_id().unwrap(), 0);
        std::fs::remove_dir_all(&root).unwrap();
    }
}
