//! Deterministic work counters of the two grid routers.
//!
//! Both routers run the one A* kernel, whose expansion order is part of
//! their output contract. The expansion counts below were measured on the
//! routers before they shared a kernel; they repeat exactly on any machine,
//! so a change to the search that moves a route also moves a count here.

use parchmint::geometry::{Point, Span};
use parchmint::{
    CompiledDevice, Component, Connection, Device, Entity, Layer, LayerType, Port, Target,
};
use parchmint_obs::{Collector, Recorder};
use parchmint_pnr::{Placement, PlacerChoice, RouterChoice};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Routes `device` with `router` under a fresh collector and returns the
/// emitted counters.
fn route_counters(device: &Device, router: RouterChoice) -> BTreeMap<&'static str, u64> {
    let collector = Arc::new(Collector::new());
    let recorder: Arc<dyn Recorder> = Arc::clone(&collector) as _;
    let compiled = CompiledDevice::from_ref(device);
    parchmint_obs::with_recorder(recorder, || router.router().route(&compiled));
    collector.summary().counters
}

#[test]
fn expansion_counts_are_pinned() {
    // {greedy, annealing} × {astar, negotiate}.
    let pins: [(&str, [u64; 4]); 3] = [
        ("logic_gate_or", [13260, 15044, 12075, 20297]),
        ("rotary_pump_mixer", [13578, 26617, 1323, 1419]),
        ("planar_synthetic_1", [16984, 47346, 17740, 46662]),
    ];
    for (name, expected) in pins {
        let unplaced = parchmint_suite::by_name(name).expect("registered").device();
        let mut measured = Vec::new();
        for placer in PlacerChoice::ALL {
            let mut device = unplaced.clone();
            placer
                .placer()
                .place(&CompiledDevice::from_ref(&device))
                .apply_to(&mut device);
            for router in [RouterChoice::AStar, RouterChoice::Negotiate] {
                measured.push(route_counters(&device, router)["pnr.route.expansions"]);
            }
        }
        assert_eq!(measured, expected, "{name}");
    }
}

/// Two port components `gap` µm apart around `at`, joined by one net, on
/// a `die`-µm square die with nothing else on it.
fn pair_on_die(die: i64, at: Point, gap: i64) -> Device {
    let mut device = Device::builder("pair")
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
        .bounds(Span::square(die))
        .build()
        .expect("valid pair");
    let mut placement = Placement::new();
    placement.set("a".into(), at);
    placement.set("b".into(), Point::new(at.x + 200 + gap, at.y + 600));
    placement.apply_to(&mut device);
    device
}

#[test]
fn search_work_does_not_grow_with_the_die() {
    // About 10^4 and 10^6 grid cells, the net well inside both.
    let small = pair_on_die(20_000, Point::new(9_000, 9_000), 1_600);
    let large = pair_on_die(200_000, Point::new(99_000, 99_000), 1_600);
    for router in [RouterChoice::AStar, RouterChoice::Negotiate] {
        let on_small = route_counters(&small, router);
        let on_large = route_counters(&large, router);
        let expanded = on_large["pnr.route.expansions"];
        let touched = on_large["pnr.route.states_touched"];
        assert_eq!(on_large["pnr.route.routed"], 1, "{router:?}");
        assert!(expanded > 0, "{router:?}");
        assert!(
            touched <= 4 * expanded + 1,
            "{router:?}: {touched} states touched for {expanded} expansions"
        );
        assert_eq!(
            (expanded, touched),
            (
                on_small["pnr.route.expansions"],
                on_small["pnr.route.states_touched"]
            ),
            "{router:?}: search work depends on die size"
        );
    }
}
