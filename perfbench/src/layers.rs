//! Direct, timed calls into each layer's public functions — the traced
//! run's view of where a workload's time goes. Each call is what the
//! program does for the same input: the ingest path, the serve resolve
//! path, and the harness's own standard `validate`/`characterize`/`flow`/
//! `control` stages run through `harness::execute_stage`.

use parchmint::ir::CompiledDevice;
use parchmint::Device;
use parchmint_harness::{execute_stage, standard_stages, ExecPolicy, Stage, StageExec};
use std::time::Instant;

/// The stages a served request asks for, in the harness's order; each is
/// timed in the layer that does its work.
pub const SERVED_STAGES: [&str; 4] = ["validate", "characterize", "flow", "control"];

/// Busy time per layer, summed over the calls made.
#[derive(Debug, Default, Clone)]
pub struct LayerTimes {
    pub parse_ms: f64,
    pub parse_bytes: usize,
    pub compile_ms: f64,
    pub mint_ms: f64,
    pub validate_ms: f64,
    pub characterize_ms: f64,
    pub flow_ms: f64,
    pub control_ms: f64,
}

impl LayerTimes {
    /// Parse throughput in MB (10^6 bytes) per second.
    pub fn parse_mb_per_s(&self) -> f64 {
        self.parse_bytes as f64 / 1e6 / (self.parse_ms / 1e3)
    }
}

fn ms_since(started: Instant) -> f64 {
    started.elapsed().as_secs_f64() * 1e3
}

/// `Device::from_json_fast`, the parser ingest and serve both use.
pub fn parse(json: &str, times: &mut LayerTimes) -> Result<Device, String> {
    let started = Instant::now();
    let device = Device::from_json_fast(json).map_err(|e| e.to_string());
    times.parse_ms += ms_since(started);
    times.parse_bytes += json.len();
    device
}

/// MINT parse plus conversion, as the daemon resolves a MINT design.
pub fn mint(text: &str, times: &mut LayerTimes) -> Result<Device, String> {
    let started = Instant::now();
    let device = parchmint_mint::parse(text)
        .map_err(|e| e.to_string())
        .and_then(|file| parchmint_mint::mint_to_device(&file).map_err(|e| e.to_string()));
    times.mint_ms += ms_since(started);
    device
}

pub fn compile(device: Device, times: &mut LayerTimes) -> CompiledDevice {
    let started = Instant::now();
    let compiled = CompiledDevice::compile(device);
    times.compile_ms += ms_since(started);
    compiled
}

/// The named entries of the harness's `standard_stages()`, in its order.
pub fn harness_stages(names: &[&str]) -> Vec<Stage> {
    standard_stages()
        .into_iter()
        .filter(|stage| names.contains(&stage.name.as_str()))
        .collect()
}

/// Runs one harness stage through `execute_stage` (untraced, default
/// policy) and adds its time to the layer that does its work:
/// validate → verify, characterize → stats, flow → sim, control →
/// control.
pub fn stage(stage: &Stage, compiled: &CompiledDevice, times: &mut LayerTimes) -> StageExec {
    let started = Instant::now();
    let exec = execute_stage(stage, compiled, &ExecPolicy::new(), None, false);
    let ms = ms_since(started);
    let layer = match stage.name.as_str() {
        "validate" => &mut times.validate_ms,
        "characterize" => &mut times.characterize_ms,
        "flow" => &mut times.flow_ms,
        "control" => &mut times.control_ms,
        other => panic!("stage `{other}` has no layer here"),
    };
    *layer += ms;
    exec
}
