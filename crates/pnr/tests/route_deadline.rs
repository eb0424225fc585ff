//! A routing deadline is a deadline.
//!
//! Greedy placement of `planar_synthetic_7` leaves its routers seconds of
//! work, so a short deadline trips mid-route. Once it has tripped, every
//! remaining net must fail without paying for setup or search, so the
//! router returns within one meter interval of the deadline plus the cost
//! of assembling the partial result. This file holds a single test so no
//! other test competes with it for the processor.

use parchmint::CompiledDevice;
use parchmint_pnr::{PlacerChoice, RouterChoice};
use parchmint_resilience::{Budget, StopReason};
use std::time::{Duration, Instant};

const DEADLINE: Duration = Duration::from_millis(500);
const SLACK: Duration = Duration::from_millis(250);

#[test]
fn grid_routers_return_within_the_deadline() {
    let mut device = parchmint_suite::by_name("planar_synthetic_7")
        .expect("registered")
        .device();
    PlacerChoice::Greedy
        .placer()
        .place(&CompiledDevice::from_ref(&device))
        .apply_to(&mut device);
    let compiled = CompiledDevice::from_ref(&device);
    for choice in [RouterChoice::AStar, RouterChoice::Negotiate] {
        let router = choice.router();
        let budget = Budget::unlimited().with_deadline(DEADLINE);
        let started = Instant::now();
        let result = budget.enter(|| router.route(&compiled));
        let elapsed = started.elapsed();
        assert_eq!(
            budget.interruption(),
            Some(StopReason::DeadlineExceeded),
            "{choice:?} finished before the deadline, so it tested nothing"
        );
        assert_eq!(
            result.routed.len() + result.failed.len(),
            device.connections.len(),
            "{choice:?}: every net is reported"
        );
        assert!(
            elapsed <= DEADLINE + SLACK,
            "{choice:?} returned {elapsed:?} after a {DEADLINE:?} deadline"
        );
    }
}
