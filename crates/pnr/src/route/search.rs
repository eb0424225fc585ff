//! The one A* search kernel behind both grid routers.
//!
//! The routers differ only in what entering a cell costs, so the search is
//! parameterised by a [`Cost`] policy: `Plain` (sequential A*), and
//! `Negotiated` and `Hard` (negotiation and its hardening pass). Under
//! every policy the cells the current net has [freed](Search::free) (its
//! endpoint escape zones and its own routed cells) pass at no extra cost,
//! and an optional [`Window`] bounds the expansion.
//!
//! The expansion order is part of the routers' output contract: the heap
//! key is `(f, state)`, neighbours are relaxed in [`DIRS`] order, a state
//! improves only on a strictly lower cost, and costs add saturating.
//!
//! # Scratch lifetime
//!
//! A [`Search`] is built once per `Router::route` call, reused by every
//! net, sink, rip-up pass and negotiation iteration of that call, and
//! dropped when `route` returns, so no routing memory outlives the call.
//! Per-state scores carry a generation stamp, so a search invalidates them
//! all by bumping the generation instead of refilling the arrays; the heap
//! is cleared in place and the free marks through the list of marked cells.
//! A search therefore costs O(states it touches), not O(grid area).

use super::grid::{RoutingGrid, DIRS};
use parchmint_resilience::Meter;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Expansion window in cell coordinates: `(x0, y0, x1, y1)` inclusive.
pub(crate) type Window = (i64, i64, i64, i64);

/// What entering a cell that the net has not freed costs.
#[derive(Clone, Copy)]
pub(crate) enum Cost<'a> {
    /// Passable when no blockage flag is set.
    Plain { blocked: &'a [u8] },
    /// Passable outside components; a cell costs `history + occupancy ×
    /// pres_fac` extra.
    Negotiated {
        blocked: &'a [u8],
        occupancy: &'a [u32],
        history: &'a [u32],
        pres_fac: u32,
    },
    /// Passable only outside components and other nets' cells.
    Hard {
        blocked: &'a [u8],
        occupancy: &'a [u32],
    },
}

impl Cost<'_> {
    /// The extra cost of entering `cell`, or `None` when it is impassable.
    #[inline]
    fn enter(self, cell: usize) -> Option<u32> {
        match self {
            Cost::Plain { blocked } => (blocked[cell] == 0).then_some(0),
            Cost::Negotiated {
                blocked,
                occupancy,
                history,
                pres_fac,
            } => (blocked[cell] == 0)
                .then(|| history[cell].saturating_add(occupancy[cell].saturating_mul(pres_fac))),
            Cost::Hard { blocked, occupancy } => {
                (blocked[cell] == 0 && occupancy[cell] == 0).then_some(0)
            }
        }
    }
}

/// Direction index of the start state, which has no arrival direction.
const NO_DIR: usize = 4;

/// Reusable A* scratch over one grid's geometry; see the module docs.
pub(crate) struct Search {
    cols: i64,
    rows: i64,
    step_cost: u32,
    bend_penalty: u32,
    /// Per state (`cell * 5 + dir`): generation in the high 32 bits, best
    /// known cost in the low 32. A score counts only under the current
    /// generation; any other stamp reads as unreached.
    best: Vec<u64>,
    /// Per state: predecessor state, `u32::MAX` at the start state. Valid
    /// only where `best` carries the current generation.
    prev: Vec<u32>,
    generation: u32,
    /// Keys `f << 32 | state`: one integer compare orders by `(f, state)`.
    heap: BinaryHeap<Reverse<u64>>,
    /// Cells the current net may enter at no extra cost.
    is_free: Vec<bool>,
    /// Every cell set in `is_free`, so clearing is O(marked).
    freed: Vec<usize>,
    /// Heap pops over all searches so far.
    pub(crate) expanded: u64,
    /// States stamped with a fresh generation over all searches so far.
    pub(crate) touched: u64,
}

impl Search {
    /// Scratch for searches over `grid` with the given step and bend costs.
    pub(crate) fn new(grid: &RoutingGrid, step_cost: u32, bend_penalty: u32) -> Search {
        let n_cells = (grid.cols * grid.rows) as usize;
        Search {
            cols: grid.cols,
            rows: grid.rows,
            step_cost,
            bend_penalty,
            // Zeroed allocations: the pages are mapped lazily, so memory
            // grows with the states searches touch, not with the grid.
            best: vec![0; n_cells * 5],
            prev: vec![0; n_cells * 5],
            generation: 0,
            heap: BinaryHeap::new(),
            is_free: vec![false; n_cells],
            freed: Vec::new(),
            expanded: 0,
            touched: 0,
        }
    }

    /// Marks `cell` passable at no extra cost until [`Search::clear_free`];
    /// returns whether it was newly marked.
    pub(crate) fn free(&mut self, cell: usize) -> bool {
        let newly = !self.is_free[cell];
        if newly {
            self.is_free[cell] = true;
            self.freed.push(cell);
        }
        newly
    }

    /// Unmarks every freed cell, ready for the next net.
    pub(crate) fn clear_free(&mut self) {
        for cell in self.freed.drain(..) {
            self.is_free[cell] = false;
        }
    }

    /// A* from `start` to `goal` under `cost`, confined to `window` when
    /// given. Returns the cell path, start and goal included, or `None`
    /// when no path exists or the budget behind `meter` has tripped.
    pub(crate) fn run(
        &mut self,
        cost: Cost<'_>,
        start: (i64, i64),
        goal: (i64, i64),
        window: Option<Window>,
        meter: &mut Meter,
    ) -> Option<Vec<(i64, i64)>> {
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            // Old stamps would alias the generations about to be reused.
            self.best.fill(0);
            self.generation = 1;
        }
        let stamp = u64::from(self.generation) << 32;
        let (cols, rows) = (self.cols, self.rows);
        let (step_cost, bend_penalty) = (self.step_cost, self.bend_penalty);
        let h = |cx: i64, cy: i64| -> u32 {
            (((cx - goal.0).abs() + (cy - goal.1).abs()) as u32) * step_cost
        };
        let (x0, y0, x1, y1) = match window {
            Some((x0, y0, x1, y1)) => (x0.max(0), y0.max(0), x1.min(cols - 1), y1.min(rows - 1)),
            None => (0, 0, cols - 1, rows - 1),
        };

        self.heap.clear();
        let start_state = (start.1 * cols + start.0) as usize * 5 + NO_DIR;
        self.best[start_state] = stamp;
        self.prev[start_state] = u32::MAX;
        self.touched += 1;
        self.heap.push(Reverse(
            (u64::from(h(start.0, start.1)) << 32) | start_state as u64,
        ));

        while let Some(Reverse(key)) = self.heap.pop() {
            if meter.check().is_err() {
                return None;
            }
            self.expanded += 1;
            let s = key as u32 as usize;
            let (cell, dir) = (s / 5, s % 5);
            let (cx, cy) = ((cell as i64) % cols, (cell as i64) / cols);
            if (cx, cy) == goal {
                return Some(self.path_to(s));
            }
            let g = self.best[s] as u32;
            for (d, (dx, dy)) in DIRS.iter().enumerate() {
                let (nx, ny) = (cx + dx, cy + dy);
                if nx < x0 || ny < y0 || nx > x1 || ny > y1 {
                    continue;
                }
                let ncell = (ny * cols + nx) as usize;
                let extra = if self.is_free[ncell] {
                    0
                } else {
                    match cost.enter(ncell) {
                        Some(extra) => extra,
                        None => continue,
                    }
                };
                let bend = if dir != NO_DIR && dir != d {
                    bend_penalty
                } else {
                    0
                };
                let ng = g
                    .saturating_add(step_cost)
                    .saturating_add(bend)
                    .saturating_add(extra);
                let ns = ncell * 5 + d;
                let entry = self.best[ns];
                let reached = entry >> 32 == stamp >> 32;
                if ng < if reached { entry as u32 } else { u32::MAX } {
                    self.touched += u64::from(!reached);
                    self.best[ns] = stamp | u64::from(ng);
                    self.prev[ns] = s as u32;
                    let f = ng.saturating_add(h(nx, ny));
                    self.heap.push(Reverse((u64::from(f) << 32) | ns as u64));
                }
            }
        }
        None
    }

    /// Walks `prev` back from `goal_state`, one entry per distinct cell.
    fn path_to(&self, goal_state: usize) -> Vec<(i64, i64)> {
        let xy = |s: usize| {
            let cell = (s / 5) as i64;
            (cell % self.cols, cell / self.cols)
        };
        let mut path = vec![xy(goal_state)];
        let mut cur = goal_state;
        while self.prev[cur] != u32::MAX {
            cur = self.prev[cur] as usize;
            let p = xy(cur);
            if path.last() != Some(&p) {
                path.push(p);
            }
        }
        path.reverse();
        path
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn open_grid(cols: i64, rows: i64) -> RoutingGrid {
        RoutingGrid {
            cols,
            rows,
            cell: 200,
            blocked: vec![0; (cols * rows) as usize],
        }
    }

    fn route(search: &mut Search, grid: &RoutingGrid) -> Option<Vec<(i64, i64)>> {
        let cost = Cost::Plain {
            blocked: &grid.blocked,
        };
        search.run(cost, (2, 3), (17, 11), None, &mut Meter::new(1024))
    }

    #[test]
    fn generation_wrap_keeps_paths_identical() {
        let mut grid = open_grid(24, 16);
        // A wall with one gap forces a detour, so a stale score would
        // block the relaxation the path needs.
        for cy in 0..15 {
            let i = grid.index(9, cy);
            grid.blocked[i] = 1;
        }
        let mut search = Search::new(&grid, 10, 30);
        let reference = route(&mut search, &grid).expect("routable");
        assert!(reference.contains(&(9, 15)));
        search.generation = u32::MAX - 1;
        assert_eq!(route(&mut search, &grid).as_ref(), Some(&reference));
        assert_eq!(search.generation, u32::MAX);
        // The generation wraps here: first search after the wrap, then a
        // second one on the restarted count.
        assert_eq!(route(&mut search, &grid).as_ref(), Some(&reference));
        assert_eq!(search.generation, 1);
        assert_eq!(route(&mut search, &grid).as_ref(), Some(&reference));
        assert_eq!(search.generation, 2);
    }
}
