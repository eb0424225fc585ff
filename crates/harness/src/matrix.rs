//! Resolving benchmark and stage selections into a concrete sweep matrix.
//!
//! Every front end that names benchmarks or stages — `suite-run`, the
//! quality-gate subcommands, and the `parchmint serve` daemon — shares
//! this one resolver, so a typo behaves identically everywhere: it
//! becomes a visible `failed` cell (or a structured wire error), never a
//! silently shrunk sweep.

use crate::report::{Cell, CellStatus};
use crate::stage::{standard_stages, Stage};
use parchmint_suite::Benchmark;
use std::time::Duration;

/// Whether `selector` selects the stage named `stage_name`.
///
/// Selectors are exact stage names, plus the `pnr` shorthand that expands
/// to every `pnr:<placer>+<router>` combination.
pub fn stage_matches(selector: &str, stage_name: &str) -> bool {
    selector == stage_name || (selector == "pnr" && stage_name.starts_with("pnr:"))
}

/// The concrete matrix a selection resolves to.
pub struct ResolvedMatrix {
    /// The benchmarks to sweep, in registry order.
    pub benchmarks: Vec<Benchmark>,
    /// The stages to run, in standard-matrix order.
    pub stages: Vec<Stage>,
    /// One `failed` cell per unknown benchmark or stage name, so bad
    /// selections surface in the report instead of shrinking it.
    pub bad_cells: Vec<Cell>,
}

fn unknown_cell(benchmark: &str, stage: &str, detail: String) -> Cell {
    Cell {
        benchmark: benchmark.to_string(),
        stage: stage.to_string(),
        status: CellStatus::Failed,
        detail: Some(detail),
        metrics: Default::default(),
        wall: Duration::ZERO,
        trace: None,
    }
}

/// Resolves the standard stage matrix down to `selectors`, returning the
/// kept stages plus the selectors that matched nothing.
pub fn select_stages(selectors: Option<&[String]>) -> (Vec<Stage>, Vec<String>) {
    let mut stages = standard_stages();
    let Some(wanted) = selectors else {
        return (stages, Vec::new());
    };
    let known: Vec<String> = stages.iter().map(|s| s.name.clone()).collect();
    let unknown: Vec<String> = wanted
        .iter()
        .filter(|name| !known.iter().any(|k| stage_matches(name, k)))
        .cloned()
        .collect();
    stages.retain(|s| wanted.iter().any(|w| stage_matches(w, &s.name)));
    (stages, unknown)
}

/// Resolves benchmark names against the registry, returning the matched
/// benchmarks plus the names that matched nothing. `None` selects the
/// standard suite; a name may also pick an FPVA size tier, which the
/// default sweep leaves out.
pub fn select_benchmarks(names: Option<&[String]>) -> (Vec<Benchmark>, Vec<String>) {
    let Some(names) = names else {
        return (parchmint_suite::suite(), Vec::new());
    };
    let mut benchmarks = Vec::new();
    let mut unknown = Vec::new();
    for name in names {
        match parchmint_suite::by_name(name) {
            Some(benchmark) => benchmarks.push(benchmark),
            None => unknown.push(name.clone()),
        }
    }
    (benchmarks, unknown)
}

/// Resolves a benchmark and stage selection into the concrete sweep
/// matrix, with unknown names recorded as `failed` cells.
pub fn resolve_matrix(benchmarks: Option<&[String]>, stages: Option<&[String]>) -> ResolvedMatrix {
    let (benchmarks, bad_benchmarks) = select_benchmarks(benchmarks);
    let (stages, bad_stages) = select_stages(stages);
    let mut bad_cells = Vec::new();
    for name in bad_benchmarks {
        bad_cells.push(unknown_cell(
            &name,
            "resolve",
            format!("unknown benchmark `{name}`"),
        ));
    }
    for name in bad_stages {
        bad_cells.push(unknown_cell("*", &name, format!("unknown stage `{name}`")));
    }
    ResolvedMatrix {
        benchmarks,
        stages,
        bad_cells,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pnr_shorthand_expands() {
        assert!(stage_matches("pnr", "pnr:greedy+astar"));
        assert!(stage_matches("validate", "validate"));
        assert!(!stage_matches("pnr", "validate"));
        assert!(!stage_matches("validate", "pnr:greedy+astar"));
        let (stages, unknown) = select_stages(Some(&["pnr".to_string()]));
        assert!(unknown.is_empty());
        assert_eq!(stages.len(), 6);
        assert!(stages.iter().all(|s| s.name.starts_with("pnr:")));
    }

    #[test]
    fn unknown_names_become_failed_cells() {
        let matrix = resolve_matrix(
            Some(&["logic_gate_or".to_string(), "ghost".to_string()]),
            Some(&["validate".to_string(), "teleport".to_string()]),
        );
        assert_eq!(matrix.benchmarks.len(), 1);
        assert_eq!(matrix.stages.len(), 1);
        assert_eq!(matrix.bad_cells.len(), 2);
        assert!(matrix.bad_cells[0]
            .detail
            .as_deref()
            .unwrap()
            .contains("ghost"));
        assert!(matrix.bad_cells[1]
            .detail
            .as_deref()
            .unwrap()
            .contains("teleport"));
    }

    #[test]
    fn fpva_tiers_resolve_by_name() {
        let matrix = resolve_matrix(Some(&["fpva_1k".to_string()]), None);
        assert!(matrix.bad_cells.is_empty(), "{:?}", matrix.bad_cells);
        assert_eq!(matrix.benchmarks.len(), 1);
        assert_eq!(matrix.benchmarks[0].name(), "fpva_1k");
    }

    #[test]
    fn empty_selection_is_the_whole_matrix() {
        let matrix = resolve_matrix(None, None);
        assert!(!matrix.benchmarks.is_empty());
        assert_eq!(matrix.stages.len(), 10);
        assert!(matrix.bad_cells.is_empty());
    }
}
