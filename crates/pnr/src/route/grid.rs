//! Maze routing: sequential A* over a uniform routing grid.
//!
//! The classic Lee/A* formulation used by microfluidic routers: the die is
//! discretized into square cells; placed component footprints (inflated by
//! a clearance) block cells; each net is routed source→sink with a
//! bend-penalized A*; routed channels block their cells for later nets.
//! Nets are routed shortest-first, the standard ordering heuristic.
//!
//! The search itself is the shared kernel in `super::search`, run under
//! its `Plain` cost policy: a cell is passable when no component and no
//! committed net blocks it, or when the current net has freed it (its
//! endpoint escape zones and its own earlier branches). One kernel scratch
//! serves every net, sink and rip-up pass of a [`Router::route`] call.

use super::search::{Cost, Search};
use super::{terminals, RoutedNet, Router, RoutingResult};
use parchmint::geometry::{Point, Rect};
use parchmint::{CompiledDevice, Device};
use parchmint_resilience::Meter;

/// Meter interval for the A* search: the installed budget is probed once
/// per this many heap pops, so cancellation stops the search within one
/// interval. An interrupted search reports the net as failed; once the
/// budget has tripped, every remaining net fails before its setup, so the
/// router drains in O(nets) into a well-formed partial [`RoutingResult`].
pub const ROUTE_CHECK_INTERVAL: u32 = 2048;

/// Tuning knobs for [`AStarRouter`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GridRouterConfig {
    /// Routing-grid cell size, in µm.
    pub cell: i64,
    /// Clearance kept around component footprints, in µm.
    pub clearance: i64,
    /// Cost of one cell step (scaled integers).
    pub step_cost: u32,
    /// Extra cost per 90° bend.
    pub bend_penalty: u32,
    /// Rip-up-and-reroute attempts after a failing pass (0 disables).
    pub reroute_attempts: usize,
}

impl Default for GridRouterConfig {
    fn default() -> Self {
        GridRouterConfig {
            cell: 200,
            clearance: 100,
            step_cost: 10,
            bend_penalty: 30,
            reroute_attempts: 2,
        }
    }
}

/// A*-based maze router.
#[derive(Debug, Clone, Default)]
pub struct AStarRouter {
    config: GridRouterConfig,
}

impl AStarRouter {
    /// Creates a router with default tuning.
    pub fn new() -> Self {
        AStarRouter::default()
    }

    /// Creates a router with explicit tuning.
    pub fn with_config(config: GridRouterConfig) -> Self {
        AStarRouter { config }
    }
}

const BLOCK_COMPONENT: u8 = 1;
const BLOCK_NET: u8 = 2;

/// The shared routing lattice: die discretized into `cell`-sized squares
/// with per-cell blockage flags. Built by the A* router and reused by the
/// negotiated-congestion router (which layers its own occupancy and
/// history arrays on top of the same geometry).
#[derive(Clone)]
pub(crate) struct RoutingGrid {
    pub(crate) cols: i64,
    pub(crate) rows: i64,
    pub(crate) cell: i64,
    pub(crate) blocked: Vec<u8>,
}

impl RoutingGrid {
    pub(crate) fn from_device(device: &Device, cell: i64, clearance: i64) -> Self {
        let bounds = device
            .declared_bounds()
            .map(|s| Rect::new(Point::ORIGIN, s))
            .or_else(|| device.feature_bounds())
            .unwrap_or(Rect::new(
                Point::ORIGIN,
                parchmint::geometry::Span::square(1000),
            ));
        let max = bounds.max();
        let cols = (max.x / cell + 2).max(2);
        let rows = (max.y / cell + 2).max(2);
        let mut grid = RoutingGrid {
            cols,
            rows,
            cell,
            blocked: vec![0; (cols * rows) as usize],
        };
        for feature in device.features.iter().filter_map(|f| f.as_component()) {
            grid.block_rect(feature.footprint().inflated(clearance), BLOCK_COMPONENT);
        }
        grid
    }

    pub(crate) fn index(&self, cx: i64, cy: i64) -> usize {
        (cy * self.cols + cx) as usize
    }

    pub(crate) fn in_bounds(&self, cx: i64, cy: i64) -> bool {
        cx >= 0 && cy >= 0 && cx < self.cols && cy < self.rows
    }

    pub(crate) fn cell_of(&self, p: Point) -> (i64, i64) {
        (
            (p.x / self.cell).clamp(0, self.cols - 1),
            (p.y / self.cell).clamp(0, self.rows - 1),
        )
    }

    pub(crate) fn center(&self, cx: i64, cy: i64) -> Point {
        Point::new(
            cx * self.cell + self.cell / 2,
            cy * self.cell + self.cell / 2,
        )
    }

    /// Blocks every cell whose *centre* lies inside `rect` (centre-based
    /// occupancy, the standard coarse-grid convention: a cell belongs to an
    /// obstacle only when the obstacle covers its representative point, so
    /// corridors narrower than two cells still route).
    fn block_rect(&mut self, rect: Rect, flag: u8) {
        let (x0, y0) = self.cell_of(rect.min);
        let max = rect.max();
        let (x1, y1) = (
            (max.x / self.cell).clamp(0, self.cols - 1),
            (max.y / self.cell).clamp(0, self.rows - 1),
        );
        for cy in y0..=y1 {
            for cx in x0..=x1 {
                if rect.contains(self.center(cx, cy)) {
                    let i = self.index(cx, cy);
                    self.blocked[i] |= flag;
                }
            }
        }
    }

    /// Cells within Chebyshev radius `r` of `cell`.
    pub(crate) fn disc(&self, cell: (i64, i64), r: i64) -> Vec<usize> {
        let mut cells = Vec::new();
        for dy in -r..=r {
            for dx in -r..=r {
                let (cx, cy) = (cell.0 + dx, cell.1 + dy);
                if self.in_bounds(cx, cy) {
                    cells.push(self.index(cx, cy));
                }
            }
        }
        cells
    }
}

pub(crate) const DIRS: [(i64, i64); 4] = [(1, 0), (-1, 0), (0, 1), (0, -1)];

/// Collapses collinear runs in a waypoint list.
pub(crate) fn simplify(points: Vec<Point>) -> Vec<Point> {
    let mut out: Vec<Point> = Vec::with_capacity(points.len());
    for p in points {
        if out.last() == Some(&p) {
            continue;
        }
        if out.len() >= 2 {
            let a = out[out.len() - 2];
            let b = out[out.len() - 1];
            if (a.x == b.x && b.x == p.x) || (a.y == b.y && b.y == p.y) {
                *out.last_mut().expect("non-empty") = p;
                continue;
            }
        }
        out.push(p);
    }
    out
}

/// Builds a rectilinear waypoint list: exact port endpoints joined to the
/// cell-centre path with elbows.
pub(crate) fn to_waypoints(
    grid: &RoutingGrid,
    src: Point,
    dst: Point,
    cells: &[(i64, i64)],
) -> Vec<Point> {
    let mut points = Vec::with_capacity(cells.len() + 4);
    points.push(src);
    if let Some(&(cx, cy)) = cells.first() {
        let c = grid.center(cx, cy);
        if src.x != c.x && src.y != c.y {
            points.push(Point::new(c.x, src.y));
        }
    }
    for &(cx, cy) in cells {
        points.push(grid.center(cx, cy));
    }
    if let Some(&(cx, cy)) = cells.last() {
        let c = grid.center(cx, cy);
        if dst.x != c.x && dst.y != c.y {
            points.push(Point::new(c.x, dst.y));
        }
    }
    points.push(dst);
    simplify(points)
}

impl Router for AStarRouter {
    fn name(&self) -> &'static str {
        "astar"
    }

    fn route(&self, compiled: &CompiledDevice) -> RoutingResult {
        parchmint_resilience::fault::inject("pnr.route");
        let device = compiled.device();
        // Route order: shortest estimated nets first.
        let mut order: Vec<usize> = (0..device.connections.len()).collect();
        let estimate = |i: usize| -> i64 {
            let c = &device.connections[i];
            let Some(src) = compiled.target_position(&c.source) else {
                return i64::MAX;
            };
            c.sinks
                .iter()
                .filter_map(|s| compiled.target_position(s))
                .map(|p| src.manhattan_distance(p))
                .sum()
        };
        order.sort_by_key(|&i| estimate(i));

        let empty = RoutingGrid::from_device(device, self.config.cell, self.config.clearance);
        let mut search = Search::new(&empty, self.config.step_cost, self.config.bend_penalty);

        // Rip-up and re-route: when nets fail because earlier routes walled
        // them in, retry from scratch with the failed nets promoted to the
        // front of the order.
        let mut ripup_rounds = 0u64;
        let mut best = route_in_order(compiled, &empty, &order, &mut search);
        for _ in 0..self.config.reroute_attempts {
            // A tripped budget makes every further pass fail immediately;
            // keep the partial result from the pass that did real work.
            if best.failed.is_empty() || parchmint_resilience::interruption().is_some() {
                break;
            }
            // Failed nets first; the sort is stable, so each group keeps
            // its order.
            order.sort_by_key(|&i| !best.failed.contains(&device.connections[i].id));
            ripup_rounds += 1;
            let retry = route_in_order(compiled, &empty, &order, &mut search);
            if retry.failed.len() < best.failed.len() {
                best = retry;
            } else {
                break;
            }
        }
        if parchmint_obs::enabled() {
            parchmint_obs::count("pnr.route.ripup_rounds", ripup_rounds);
            parchmint_obs::count("pnr.route.routed", best.routed.len() as u64);
            parchmint_obs::count("pnr.route.failed", best.failed.len() as u64);
            parchmint_obs::count("pnr.route.expansions", search.expanded);
            parchmint_obs::count("pnr.route.states_touched", search.touched);
        }
        best
    }
}

/// One sequential pass over `order` on a fresh copy of `empty`: each
/// routed net blocks its cells for every later net.
fn route_in_order(
    compiled: &CompiledDevice,
    empty: &RoutingGrid,
    order: &[usize],
    search: &mut Search,
) -> RoutingResult {
    let device = compiled.device();
    let mut grid = empty.clone();
    let mut result = RoutingResult::default();
    let tracing = parchmint_obs::enabled();
    let mut meter = Meter::new(ROUTE_CHECK_INTERVAL);
    for &i in order {
        let connection = &device.connections[i];
        // Once the budget has tripped, the remaining nets fail without
        // setup or search.
        let placed = match parchmint_resilience::interruption() {
            None => terminals(compiled, connection),
            Some(_) => None,
        };
        let Some((src, sinks)) = placed else {
            result.failed.push(connection.id.clone());
            continue;
        };

        let src_cell = grid.cell_of(src);
        search.clear_free();
        for c in grid.disc(src_cell, 2) {
            search.free(c);
        }

        let mut branches: Vec<Vec<Point>> = Vec::with_capacity(sinks.len());
        let mut net_cells: Vec<usize> = Vec::new();
        let expanded_before = search.expanded;
        let mut ok = true;
        for &sink in &sinks {
            let sink_cell = grid.cell_of(sink);
            for c in grid.disc(sink_cell, 2) {
                search.free(c);
            }
            let cost = Cost::Plain {
                blocked: &grid.blocked,
            };
            match search.run(cost, src_cell, sink_cell, None, &mut meter) {
                Some(cells) => {
                    branches.push(to_waypoints(&grid, src, sink, &cells));
                    // The net's own cells are free for later branches
                    // (merging).
                    for (cx, cy) in cells {
                        let idx = grid.index(cx, cy);
                        net_cells.push(idx);
                        search.free(idx);
                    }
                }
                None => {
                    ok = false;
                    break;
                }
            }
        }

        if tracing {
            parchmint_obs::observe(
                "pnr.route.net_expansions",
                search.expanded - expanded_before,
            );
        }
        if ok {
            for idx in net_cells {
                grid.blocked[idx] |= BLOCK_NET;
            }
            result.routed.push(RoutedNet {
                connection: connection.id.clone(),
                layer: connection.layer.clone(),
                branches,
            });
        } else {
            result.failed.push(connection.id.clone());
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::place::{greedy::GreedyPlacer, Placer};
    use parchmint::geometry::Span;
    use parchmint::{Component, Connection, Entity, Layer, LayerType, Port, Target};

    fn placed_pair(gap: i64) -> Device {
        let mut d = Device::builder("t")
            .layer(Layer::new("f", "f", LayerType::Flow))
            .component(
                Component::new("a", "a", Entity::Port, ["f"], Span::square(200))
                    .with_port(Port::new("p", "f", 200, 100)),
            )
            .component(
                Component::new("b", "b", Entity::Port, ["f"], Span::square(200))
                    .with_port(Port::new("p", "f", 0, 100)),
            )
            .connection(Connection::new(
                "c1",
                "c1",
                "f",
                Target::new("a", "p"),
                [Target::new("b", "p")],
            ))
            .bounds(Span::new(gap + 1400, 2000))
            .build()
            .unwrap();
        let mut placement = crate::place::Placement::new();
        placement.set("a".into(), Point::new(400, 400));
        placement.set("b".into(), Point::new(600 + gap, 400));
        placement.apply_to(&mut d);
        d
    }

    #[test]
    fn routes_a_simple_pair() {
        let d = placed_pair(2000);
        let result = AStarRouter::new().route(&CompiledDevice::from_ref(&d));
        assert_eq!(result.failed.len(), 0, "failed: {:?}", result.failed);
        assert_eq!(result.routed.len(), 1);
        let net = &result.routed[0];
        // Endpoints exact.
        let branch = &net.branches[0];
        assert_eq!(branch.first().copied(), Some(Point::new(600, 500)));
        assert_eq!(branch.last().copied(), Some(Point::new(2600, 500)));
        // Rectilinear.
        for w in branch.windows(2) {
            assert!(w[0].x == w[1].x || w[0].y == w[1].y, "diagonal segment");
        }
        assert!(net.length() >= 2000);
    }

    #[test]
    fn detours_around_an_obstacle() {
        let mut d = placed_pair(3000);
        // Drop an obstacle square in the straight-line path.
        d.components.push(Component::new(
            "obst",
            "obst",
            Entity::ReactionChamber,
            ["f"],
            Span::new(400, 1200),
        ));
        d.features.push(
            parchmint::ComponentFeature::new(
                "pf_obst",
                "obst",
                "f",
                Point::new(1800, 0),
                Span::new(400, 1200),
                50,
            )
            .into(),
        );
        let result = AStarRouter::new().route(&CompiledDevice::from_ref(&d));
        assert_eq!(result.routed.len(), 1, "failed: {:?}", result.failed);
        let net = &result.routed[0];
        assert!(net.bends() >= 2, "a detour needs bends");
        // The detour must be longer than the straight path.
        assert!(net.length() > 3000);
    }

    #[test]
    fn impossible_route_fails_cleanly() {
        let mut d = placed_pair(2000);
        // Wall off the sink entirely with a giant blocker around it.
        d.components.push(Component::new(
            "wall",
            "wall",
            Entity::ReactionChamber,
            ["f"],
            Span::new(2000, 2000),
        ));
        d.features.push(
            parchmint::ComponentFeature::new(
                "pf_wall",
                "wall",
                "f",
                Point::new(1700, 0),
                Span::new(2000, 2000),
                50,
            )
            .into(),
        );
        let result = AStarRouter::new().route(&CompiledDevice::from_ref(&d));
        assert_eq!(result.routed.len(), 0);
        assert_eq!(result.failed, vec![parchmint::ConnectionId::new("c1")]);
        assert_eq!(result.completion(), 0.0);
    }

    #[test]
    fn routes_an_entire_small_benchmark() {
        let mut d = parchmint_suite::by_name("logic_gate_or").unwrap().device();
        let placement = GreedyPlacer::new().place(&CompiledDevice::from_ref(&d));
        placement.apply_to(&mut d);
        let result = AStarRouter::new().route(&CompiledDevice::from_ref(&d));
        assert!(
            result.completion() > 0.9,
            "completion {} with failures {:?}",
            result.completion(),
            result.failed
        );
        result.apply_to(&mut d);
        assert!(d.features.iter().any(|f| f.as_connection().is_some()));
    }

    #[test]
    fn simplify_collapses_collinear_points() {
        let pts = vec![
            Point::new(0, 0),
            Point::new(5, 0),
            Point::new(9, 0),
            Point::new(9, 4),
            Point::new(9, 4),
            Point::new(9, 9),
        ];
        assert_eq!(
            simplify(pts),
            vec![Point::new(0, 0), Point::new(9, 0), Point::new(9, 9)]
        );
    }

    #[test]
    fn router_name() {
        assert_eq!(AStarRouter::new().name(), "astar");
    }
}
