//! Routing: realizing each connection as rectilinear channel geometry.

pub mod grid;
pub mod negotiate;
mod search;
pub mod straight;

use parchmint::geometry::Point;
use parchmint::{CompiledDevice, Connection, ConnectionFeature, ConnectionId, Device, LayerId};

/// Default channel width written into route features, in µm.
pub const CHANNEL_WIDTH: i64 = 200;

/// Default channel depth written into route features, in µm.
pub const CHANNEL_DEPTH: i64 = 50;

/// One routed connection: a polyline branch per sink.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoutedNet {
    /// The connection this net realizes.
    pub connection: ConnectionId,
    /// The layer the channel is drawn on.
    pub layer: LayerId,
    /// One source→sink polyline per sink, in order.
    pub branches: Vec<Vec<Point>>,
}

impl RoutedNet {
    /// Total rectilinear length over all branches, in µm.
    pub fn length(&self) -> i64 {
        self.branches
            .iter()
            .flat_map(|b| b.windows(2))
            .map(|w| w[0].manhattan_distance(w[1]))
            .sum()
    }

    /// Total number of bends over all branches.
    pub fn bends(&self) -> usize {
        self.branches
            .iter()
            .flat_map(|b| b.windows(3))
            .filter(|w| {
                let d1 = w[1] - w[0];
                let d2 = w[2] - w[1];
                (d1.x == 0) != (d2.x == 0)
            })
            .count()
    }
}

/// The outcome of routing one device.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RoutingResult {
    /// Successfully routed nets.
    pub routed: Vec<RoutedNet>,
    /// Connections no legal path was found for.
    pub failed: Vec<ConnectionId>,
}

impl RoutingResult {
    /// Fraction of nets routed, in `[0, 1]`; `1.0` when there were no nets.
    pub fn completion(&self) -> f64 {
        let total = self.routed.len() + self.failed.len();
        if total == 0 {
            1.0
        } else {
            self.routed.len() as f64 / total as f64
        }
    }

    /// Total routed wirelength, in µm.
    pub fn wirelength(&self) -> i64 {
        self.routed.iter().map(RoutedNet::length).sum()
    }

    /// Total bends across all routed nets.
    pub fn bends(&self) -> usize {
        self.routed.iter().map(RoutedNet::bends).sum()
    }

    /// Writes the routed nets into `device` as connection features
    /// (`rf_<net>` / `rf_<net>_<branch>`), replacing any existing routes.
    pub fn apply_to(&self, device: &mut Device) {
        device.features.retain(|f| f.as_connection().is_none());
        for net in &self.routed {
            for (i, branch) in net.branches.iter().enumerate() {
                let id = if net.branches.len() == 1 {
                    format!("rf_{}", net.connection)
                } else {
                    format!("rf_{}_{i}", net.connection)
                };
                device.features.push(
                    ConnectionFeature::new(
                        id,
                        net.connection.clone(),
                        net.layer.clone(),
                        CHANNEL_WIDTH,
                        CHANNEL_DEPTH,
                        branch.iter().copied(),
                    )
                    .into(),
                );
            }
        }
        device.bump_version_to_content();
    }
}

/// A net's placed terminals: the source position and one position per
/// sink, or `None` when a terminal is unplaced or the net has no sinks.
pub(crate) fn terminals(
    compiled: &CompiledDevice,
    connection: &Connection,
) -> Option<(Point, Vec<Point>)> {
    let src = compiled.target_position(&connection.source)?;
    let sinks: Vec<Point> = connection
        .sinks
        .iter()
        .map(|s| compiled.target_position(s))
        .collect::<Option<_>>()?;
    (!sinks.is_empty()).then_some((src, sinks))
}

/// A routing algorithm. Requires a placed device (component features
/// present); nets whose terminals are unplaced are reported as failed.
///
/// Routers consume the [`CompiledDevice`] view so terminal positions come
/// from pre-resolved endpoint handles, not per-terminal scans. The compiled
/// view must be built *after* placement features are applied.
pub trait Router {
    /// Short identifier used in reports (e.g. `"astar"`).
    fn name(&self) -> &'static str;

    /// Routes every connection of the placed device.
    fn route(&self, compiled: &CompiledDevice) -> RoutingResult;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net(points: Vec<Vec<(i64, i64)>>) -> RoutedNet {
        RoutedNet {
            connection: "c1".into(),
            layer: "f".into(),
            branches: points
                .into_iter()
                .map(|b| b.into_iter().map(Point::from).collect())
                .collect(),
        }
    }

    #[test]
    fn length_and_bends() {
        let n = net(vec![vec![(0, 0), (10, 0), (10, 5)]]);
        assert_eq!(n.length(), 15);
        assert_eq!(n.bends(), 1);
    }

    #[test]
    fn multi_branch_totals() {
        let n = net(vec![vec![(0, 0), (10, 0)], vec![(0, 0), (0, 7), (3, 7)]]);
        assert_eq!(n.length(), 20);
        assert_eq!(n.bends(), 1);
    }

    #[test]
    fn completion_ratios() {
        let empty = RoutingResult::default();
        assert_eq!(empty.completion(), 1.0);
        let half = RoutingResult {
            routed: vec![net(vec![vec![(0, 0), (1, 0)]])],
            failed: vec!["c2".into()],
        };
        assert!((half.completion() - 0.5).abs() < 1e-12);
        assert_eq!(half.wirelength(), 1);
    }

    #[test]
    fn apply_to_writes_features() {
        let mut d = parchmint::Device::builder("t")
            .layer(parchmint::Layer::new("f", "f", parchmint::LayerType::Flow))
            .component(
                parchmint::Component::new(
                    "a",
                    "a",
                    parchmint::Entity::Port,
                    ["f"],
                    parchmint::geometry::Span::square(10),
                )
                .with_port(parchmint::Port::new("p", "f", 10, 5)),
            )
            .component(
                parchmint::Component::new(
                    "b",
                    "b",
                    parchmint::Entity::Port,
                    ["f"],
                    parchmint::geometry::Span::square(10),
                )
                .with_port(parchmint::Port::new("p", "f", 0, 5)),
            )
            .connection(parchmint::Connection::new(
                "c1",
                "c1",
                "f",
                parchmint::Target::new("a", "p"),
                [parchmint::Target::new("b", "p")],
            ))
            .build()
            .unwrap();
        let result = RoutingResult {
            routed: vec![net(vec![vec![(10, 5), (90, 5)]])],
            failed: vec![],
        };
        result.apply_to(&mut d);
        assert!(d.route_of(&"c1".into()).is_some());
        assert!(d.is_routed());
        // Re-applying replaces, not duplicates.
        result.apply_to(&mut d);
        assert_eq!(d.features.len(), 1);
    }
}
