//! Compiled device IR: interned identifiers and O(1) lookups.
//!
//! Every consumer crate used to re-derive its own ad-hoc view of a
//! [`Device`] with string-keyed linear scans. [`CompiledDevice`] compiles a
//! device **once** into dense integer handles ([`CompIx`], [`ConnIx`],
//! [`LayerIx`], [`PortIx`]) plus hash tables from string ids to handles,
//! per-layer connection partitions, component→connection incidence lists,
//! and pre-resolved connection endpoints. The compiled view owns its device
//! and is immutable, so it can be shared across threads and pipeline stages
//! via [`Arc`] (see [`CompiledDevice::into_shared`]).
//!
//! ## Invariants
//!
//! - **Handles are declaration-ordered**: `CompIx(i)` is `device.components[i]`,
//!   and likewise for layers, connections, and (flattened) ports. Iterating
//!   handles reproduces declaration order exactly, so algorithms that were
//!   deterministic over `device.components` stay deterministic over handles.
//! - **First occurrence wins**: when a (necessarily invalid) device declares
//!   duplicate ids, the id→handle tables bind each id to its first
//!   occurrence, matching the linear-scan semantics of
//!   [`Device::component`] et al. Compilation never fails — validators run
//!   on compiled views of invalid devices and read the raw vectors through
//!   [`CompiledDevice::device`] to diagnose duplicates.
//! - **Dangling references resolve to `None`**: endpoints naming unknown
//!   components or ports carry `None` handles rather than panicking, again
//!   so diagnostics can run downstream of compilation.
//!
//! ## Example
//!
//! ```
//! use parchmint::{CompiledDevice, Device, Layer, LayerType, Component,
//!                 Connection, Entity, Port, Target};
//! use parchmint::geometry::Span;
//!
//! let device = Device::builder("demo")
//!     .layer(Layer::new("f0", "flow", LayerType::Flow))
//!     .component(
//!         Component::new("in1", "inlet", Entity::Port, ["f0"], Span::square(200))
//!             .with_port(Port::new("p", "f0", 200, 100)),
//!     )
//!     .component(
//!         Component::new("m1", "mixer", Entity::Mixer, ["f0"], Span::new(2000, 1000))
//!             .with_port(Port::new("in", "f0", 0, 500)),
//!     )
//!     .connection(Connection::new(
//!         "ch1", "inlet_to_mixer", "f0",
//!         Target::new("in1", "p"),
//!         [Target::new("m1", "in")],
//!     ))
//!     .build()
//!     .unwrap();
//!
//! let compiled = CompiledDevice::compile(device);
//! let m1 = compiled.comp_ix("m1").unwrap();
//! assert_eq!(compiled.component(m1).name, "mixer");
//! let ch1 = compiled.conn_ix("ch1").unwrap();
//! assert_eq!(compiled.source(ch1).component, compiled.comp_ix("in1"));
//! assert_eq!(compiled.incident(m1), &[ch1]);
//! ```

use crate::component::{Component, Port};
use crate::connection::{Connection, Target};
use crate::device::Device;
use crate::feature::{ComponentFeature, ConnectionFeature, Feature};
use crate::geometry::Point;
use crate::ids::PortLabel;
use crate::layer::{Layer, LayerType};
use crate::valve::Valve;
use std::collections::HashMap;
use std::sync::Arc;

macro_rules! handle {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(u32);

        impl $name {
            /// Wraps a dense index as a handle.
            pub fn new(index: usize) -> Self {
                $name(index as u32)
            }

            /// The handle as a dense `usize` index.
            pub fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl From<$name> for usize {
            fn from(ix: $name) -> usize {
                ix.index()
            }
        }
    };
}

handle! {
    /// Dense handle to a [`Layer`] in a [`CompiledDevice`].
    LayerIx
}

handle! {
    /// Dense handle to a [`Component`] in a [`CompiledDevice`].
    CompIx
}

handle! {
    /// Dense handle to a [`Connection`] in a [`CompiledDevice`].
    ConnIx
}

handle! {
    /// Dense handle to a [`Port`] in a [`CompiledDevice`]'s flattened,
    /// device-wide port table.
    PortIx
}

/// A pre-resolved connection terminal: the component and port handles a
/// [`Target`] names, following the resolution rules of
/// [`Device::resolve_target`].
///
/// `component` is `None` for dangling terminals. `port` is `None` when the
/// terminal names no port and the component does not have exactly one, or
/// when the named port label does not exist.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Endpoint {
    /// Handle of the component the terminal attaches to, if it exists.
    pub component: Option<CompIx>,
    /// Handle of the resolved port, when one resolves.
    pub port: Option<PortIx>,
}

#[derive(Debug)]
struct CompiledConnection {
    source: Endpoint,
    sinks: Vec<Endpoint>,
    layer: Option<LayerIx>,
}

/// An immutable, index-accelerated view of a [`Device`].
///
/// Compile once with [`CompiledDevice::compile`] (or
/// [`CompiledDevice::from_ref`]), then hand `&CompiledDevice` — or a cheap
/// [`Arc`] clone from [`CompiledDevice::into_shared`] — to every algorithm
/// that consumes the device. All lookups are O(1); all slices iterate in
/// declaration order. The underlying device remains reachable through
/// [`CompiledDevice::device`] for raw-vector traversals and serialization.
#[derive(Debug)]
pub struct CompiledDevice {
    device: Device,

    layer_ix: HashMap<String, LayerIx>,
    comp_ix: HashMap<String, CompIx>,
    conn_ix: HashMap<String, ConnIx>,
    feature_ix: HashMap<String, usize>,

    // Flattened device-wide port table: ports[i] = (owner, index into
    // owner.ports). Per-component ranges are contiguous.
    ports: Vec<(CompIx, u32)>,
    port_range: Vec<(u32, u32)>,
    port_ix: HashMap<(CompIx, PortLabel), PortIx>,

    connections: Vec<CompiledConnection>,
    incidence: Vec<Vec<ConnIx>>,
    layer_conns: Vec<Vec<ConnIx>>,

    placement: Vec<Option<usize>>,
    route: Vec<Option<usize>>,

    valve_on: Vec<Option<usize>>,
    valves_controlling: Vec<Vec<usize>>,
    valve_component: Vec<Option<CompIx>>,
    valve_controls: Vec<Option<ConnIx>>,
}

impl CompiledDevice {
    /// Compiles `device`, taking ownership. Never fails: invalid devices
    /// compile with `None` handles for dangling references (see the module
    /// docs for the invariants).
    pub fn compile(device: Device) -> Self {
        let _span = parchmint_obs::Span::enter("ir.compile");
        parchmint_resilience::fault::inject("ir.compile");
        let mut layer_ix = HashMap::with_capacity(device.layers.len());
        for (i, layer) in device.layers.iter().enumerate() {
            layer_ix
                .entry(layer.id.as_str().to_owned())
                .or_insert(LayerIx::new(i));
        }

        let mut comp_ix = HashMap::with_capacity(device.components.len());
        for (i, component) in device.components.iter().enumerate() {
            comp_ix
                .entry(component.id.as_str().to_owned())
                .or_insert(CompIx::new(i));
        }

        let mut conn_ix = HashMap::with_capacity(device.connections.len());
        for (i, connection) in device.connections.iter().enumerate() {
            conn_ix
                .entry(connection.id.as_str().to_owned())
                .or_insert(ConnIx::new(i));
        }

        let mut feature_ix = HashMap::with_capacity(device.features.len());
        for (i, feature) in device.features.iter().enumerate() {
            feature_ix
                .entry(feature.id().as_str().to_owned())
                .or_insert(i);
        }

        let mut ports = Vec::with_capacity(device.port_count());
        let mut port_range = Vec::with_capacity(device.components.len());
        let mut port_ix = HashMap::with_capacity(device.port_count());
        for (i, component) in device.components.iter().enumerate() {
            let owner = CompIx::new(i);
            let start = ports.len() as u32;
            for (j, port) in component.ports.iter().enumerate() {
                let handle = PortIx::new(ports.len());
                ports.push((owner, j as u32));
                // First label occurrence wins, mirroring `Component::port`.
                // Duplicate-id components never get here (owner is the
                // interned first occurrence), so later duplicates simply
                // have empty ranges of their own.
                port_ix.entry((owner, port.label.clone())).or_insert(handle);
            }
            port_range.push((start, ports.len() as u32));
        }

        let resolve = |target: &Target| -> Endpoint {
            let Some(&owner) = comp_ix.get(target.component.as_str()) else {
                return Endpoint {
                    component: None,
                    port: None,
                };
            };
            let component = &device.components[owner.index()];
            let port = match &target.port {
                Some(label) => port_ix.get(&(owner, label.clone())).copied(),
                None if component.ports.len() == 1 => {
                    Some(PortIx::new(port_range[owner.index()].0 as usize))
                }
                None => None,
            };
            Endpoint {
                component: Some(owner),
                port,
            }
        };

        let mut connections = Vec::with_capacity(device.connections.len());
        let mut incidence = vec![Vec::new(); device.components.len()];
        let mut layer_conns = vec![Vec::new(); device.layers.len()];
        for (i, connection) in device.connections.iter().enumerate() {
            let handle = ConnIx::new(i);
            let source = resolve(&connection.source);
            let sinks: Vec<Endpoint> = connection.sinks.iter().map(&resolve).collect();
            let layer = layer_ix.get(connection.layer.as_str()).copied();
            if let Some(l) = layer {
                layer_conns[l.index()].push(handle);
            }
            // One incidence entry per touched component, mirroring
            // `Connection::touches` (a component appearing as both source
            // and sink counts once).
            let mut touched: Vec<CompIx> = Vec::with_capacity(1 + sinks.len());
            for endpoint in std::iter::once(&source).chain(sinks.iter()) {
                if let Some(c) = endpoint.component {
                    if !touched.contains(&c) {
                        touched.push(c);
                    }
                }
            }
            for c in touched {
                incidence[c.index()].push(handle);
            }
            connections.push(CompiledConnection {
                source,
                sinks,
                layer,
            });
        }

        let mut placement = vec![None; device.components.len()];
        let mut route = vec![None; device.connections.len()];
        for (i, feature) in device.features.iter().enumerate() {
            match feature {
                Feature::Component(f) => {
                    if let Some(&c) = comp_ix.get(f.component.as_str()) {
                        let slot = &mut placement[c.index()];
                        if slot.is_none() {
                            *slot = Some(i);
                        }
                    }
                }
                Feature::Connection(f) => {
                    if let Some(&c) = conn_ix.get(f.connection.as_str()) {
                        let slot = &mut route[c.index()];
                        if slot.is_none() {
                            *slot = Some(i);
                        }
                    }
                }
            }
        }

        let mut valve_on = vec![None; device.components.len()];
        let mut valves_controlling = vec![Vec::new(); device.connections.len()];
        let mut valve_component = Vec::with_capacity(device.valves.len());
        let mut valve_controls = Vec::with_capacity(device.valves.len());
        for (i, valve) in device.valves.iter().enumerate() {
            let comp = comp_ix.get(valve.component.as_str()).copied();
            let conn = conn_ix.get(valve.controls.as_str()).copied();
            if let Some(c) = comp {
                let slot = &mut valve_on[c.index()];
                if slot.is_none() {
                    *slot = Some(i);
                }
            }
            if let Some(c) = conn {
                valves_controlling[c.index()].push(i);
            }
            valve_component.push(comp);
            valve_controls.push(conn);
        }

        if parchmint_obs::enabled() {
            parchmint_obs::count("ir.compile.layers", device.layers.len() as u64);
            parchmint_obs::count("ir.compile.components", device.components.len() as u64);
            parchmint_obs::count("ir.compile.connections", device.connections.len() as u64);
            parchmint_obs::count("ir.compile.ports", ports.len() as u64);
            parchmint_obs::count("ir.compile.features", device.features.len() as u64);
            parchmint_obs::count("ir.compile.valves", device.valves.len() as u64);
        }

        CompiledDevice {
            device,
            layer_ix,
            comp_ix,
            conn_ix,
            feature_ix,
            ports,
            port_range,
            port_ix,
            connections,
            incidence,
            layer_conns,
            placement,
            route,
            valve_on,
            valves_controlling,
            valve_component,
            valve_controls,
        }
    }

    /// Compiles a borrowed device by cloning it first. Prefer
    /// [`CompiledDevice::compile`] when ownership can be transferred.
    pub fn from_ref(device: &Device) -> Self {
        Self::compile(device.clone())
    }

    /// Wraps the compiled view in an [`Arc`] for sharing across threads and
    /// pipeline stages.
    pub fn into_shared(self) -> Arc<Self> {
        Arc::new(self)
    }

    /// The underlying device.
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// Consumes the compiled view, returning the device.
    pub fn into_device(self) -> Device {
        self.device
    }

    // ---- handle interning -------------------------------------------------

    /// Handle for a layer id.
    pub fn layer_ix(&self, id: &str) -> Option<LayerIx> {
        self.layer_ix.get(id).copied()
    }

    /// Handle for a component id.
    pub fn comp_ix(&self, id: &str) -> Option<CompIx> {
        self.comp_ix.get(id).copied()
    }

    /// Handle for a connection id.
    pub fn conn_ix(&self, id: &str) -> Option<ConnIx> {
        self.conn_ix.get(id).copied()
    }

    /// Handle for a port, by owning component and label.
    pub fn port_ix(&self, component: CompIx, label: &str) -> Option<PortIx> {
        // The map is keyed by owned labels; build one only on this cold path.
        self.port_ix
            .get(&(component, PortLabel::new(label)))
            .copied()
    }

    // ---- handle → entity --------------------------------------------------

    /// The layer behind a handle.
    pub fn layer(&self, ix: LayerIx) -> &Layer {
        &self.device.layers[ix.index()]
    }

    /// The component behind a handle.
    pub fn component(&self, ix: CompIx) -> &Component {
        &self.device.components[ix.index()]
    }

    /// The connection behind a handle.
    pub fn connection(&self, ix: ConnIx) -> &Connection {
        &self.device.connections[ix.index()]
    }

    /// The port behind a handle.
    pub fn port(&self, ix: PortIx) -> &Port {
        let (owner, local) = self.ports[ix.index()];
        &self.device.components[owner.index()].ports[local as usize]
    }

    /// The component owning a port.
    pub fn port_owner(&self, ix: PortIx) -> CompIx {
        self.ports[ix.index()].0
    }

    // ---- id → entity (O(1) replacements for the `Device` scans) -----------

    /// O(1) equivalent of [`Device::layer`].
    pub fn layer_by_id(&self, id: &str) -> Option<&Layer> {
        self.layer_ix(id).map(|ix| self.layer(ix))
    }

    /// O(1) equivalent of [`Device::component`].
    pub fn component_by_id(&self, id: &str) -> Option<&Component> {
        self.comp_ix(id).map(|ix| self.component(ix))
    }

    /// O(1) equivalent of [`Device::connection`].
    pub fn connection_by_id(&self, id: &str) -> Option<&Connection> {
        self.conn_ix(id).map(|ix| self.connection(ix))
    }

    /// O(1) equivalent of [`Device::feature`].
    pub fn feature_by_id(&self, id: &str) -> Option<&Feature> {
        self.feature_ix.get(id).map(|&i| &self.device.features[i])
    }

    // ---- counts and handle iteration --------------------------------------

    /// Number of layers.
    pub fn layer_count(&self) -> usize {
        self.device.layers.len()
    }

    /// Number of components.
    pub fn component_count(&self) -> usize {
        self.device.components.len()
    }

    /// Number of connections.
    pub fn connection_count(&self) -> usize {
        self.device.connections.len()
    }

    /// Number of ports across all components.
    pub fn port_count(&self) -> usize {
        self.ports.len()
    }

    /// Layer handles in declaration order.
    pub fn layers(&self) -> impl ExactSizeIterator<Item = LayerIx> {
        (0..self.layer_count()).map(LayerIx::new)
    }

    /// Component handles in declaration order.
    pub fn components(&self) -> impl ExactSizeIterator<Item = CompIx> {
        (0..self.component_count()).map(CompIx::new)
    }

    /// Connection handles in declaration order.
    pub fn connections(&self) -> impl ExactSizeIterator<Item = ConnIx> {
        (0..self.connection_count()).map(ConnIx::new)
    }

    /// Port handles of `component`, in declaration order.
    pub fn ports_of(&self, component: CompIx) -> impl ExactSizeIterator<Item = PortIx> {
        let (start, end) = self.port_range[component.index()];
        (start as usize..end as usize).map(PortIx::new)
    }

    // ---- topology ----------------------------------------------------------

    /// The pre-resolved source terminal of a connection.
    pub fn source(&self, ix: ConnIx) -> Endpoint {
        self.connections[ix.index()].source
    }

    /// The pre-resolved sink terminals of a connection, in declaration order.
    pub fn sinks(&self, ix: ConnIx) -> &[Endpoint] {
        &self.connections[ix.index()].sinks
    }

    /// The layer a connection is fabricated on, if it exists.
    pub fn connection_layer(&self, ix: ConnIx) -> Option<LayerIx> {
        self.connections[ix.index()].layer
    }

    /// Connections touching `component`, in declaration order
    /// (O(1) equivalent of [`Device::connections_touching`]).
    pub fn incident(&self, component: CompIx) -> &[ConnIx] {
        &self.incidence[component.index()]
    }

    /// Connections fabricated on `layer`, in declaration order
    /// (O(1) equivalent of [`Device::connections_on`]).
    pub fn connections_on(&self, layer: LayerIx) -> &[ConnIx] {
        &self.layer_conns[layer.index()]
    }

    /// Layer handles whose layer type is `layer_type`, in stack order.
    pub fn layers_of_type(&self, layer_type: LayerType) -> impl Iterator<Item = LayerIx> + '_ {
        self.layers()
            .filter(move |&l| self.layer(l).layer_type == layer_type)
    }

    // ---- physical design ---------------------------------------------------

    /// O(1) equivalent of [`Device::placement_of`].
    pub fn placement(&self, component: CompIx) -> Option<&ComponentFeature> {
        self.placement[component.index()].and_then(|i| self.device.features[i].as_component())
    }

    /// O(1) equivalent of [`Device::route_of`].
    pub fn route(&self, connection: ConnIx) -> Option<&ConnectionFeature> {
        self.route[connection.index()].and_then(|i| self.device.features[i].as_connection())
    }

    // ---- valves ------------------------------------------------------------

    /// O(1) equivalent of [`Device::valve_on`].
    pub fn valve_on(&self, component: CompIx) -> Option<&Valve> {
        self.valve_on[component.index()].map(|i| &self.device.valves[i])
    }

    /// O(1) equivalent of [`Device::valves_controlling`].
    pub fn valves_controlling(&self, connection: ConnIx) -> impl Iterator<Item = &Valve> {
        self.valves_controlling[connection.index()]
            .iter()
            .map(|&i| &self.device.valves[i])
    }

    /// True when at least one valve pinches `connection`.
    pub fn is_valved(&self, connection: ConnIx) -> bool {
        !self.valves_controlling[connection.index()].is_empty()
    }

    /// Valve bindings with their pre-resolved handles, in declaration
    /// (canonical) order: `(valve, valve component, controlled connection)`.
    pub fn valves(&self) -> impl Iterator<Item = (&Valve, Option<CompIx>, Option<ConnIx>)> {
        self.device
            .valves
            .iter()
            .enumerate()
            .map(|(i, v)| (v, self.valve_component[i], self.valve_controls[i]))
    }

    // ---- terminal resolution ----------------------------------------------

    /// O(1) equivalent of [`Device::resolve_target`], in handle space.
    pub fn resolve_target(&self, target: &Target) -> Endpoint {
        let Some(owner) = self.comp_ix(target.component.as_str()) else {
            return Endpoint {
                component: None,
                port: None,
            };
        };
        let port = match &target.port {
            Some(label) => self.port_ix.get(&(owner, label.clone())).copied(),
            None if self.component(owner).ports.len() == 1 => self.ports_of(owner).next(),
            None => None,
        };
        Endpoint {
            component: Some(owner),
            port,
        }
    }

    /// Absolute position of a pre-resolved endpoint, when its component is
    /// placed. Port-less endpoints fall back to the placed footprint centre,
    /// mirroring [`Device::target_position`].
    pub fn endpoint_position(&self, endpoint: Endpoint) -> Option<Point> {
        let placement = self.placement(endpoint.component?)?;
        Some(match endpoint.port {
            Some(p) => placement.location + self.port(p).offset(),
            None => placement.footprint().center(),
        })
    }

    /// O(1) equivalent of [`Device::target_position`].
    pub fn target_position(&self, target: &Target) -> Option<Point> {
        let endpoint = self.resolve_target(target);
        endpoint.component?;
        self.endpoint_position(endpoint)
    }
}

impl From<Device> for CompiledDevice {
    fn from(device: Device) -> Self {
        CompiledDevice::compile(device)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entity::Entity;
    use crate::geometry::Span;
    use crate::ids::{ComponentId, ConnectionId};
    use crate::valve::ValveType;

    fn sample() -> Device {
        Device::builder("ir_sample")
            .layer(Layer::new("f0", "flow", LayerType::Flow))
            .layer(Layer::new("c0", "control", LayerType::Control))
            .component(
                Component::new("in1", "inlet", Entity::Port, ["f0"], Span::square(200))
                    .with_port(Port::new("p", "f0", 200, 100)),
            )
            .component(
                Component::new("m1", "mixer", Entity::Mixer, ["f0"], Span::new(2000, 1000))
                    .with_port(Port::new("in", "f0", 0, 500))
                    .with_port(Port::new("out", "f0", 2000, 500)),
            )
            .component(
                Component::new("v1", "valve", Entity::Valve, ["c0"], Span::square(300))
                    .with_port(Port::new("a", "c0", 150, 0)),
            )
            .connection(Connection::new(
                "ch1",
                "inlet_to_mixer",
                "f0",
                Target::new("in1", "p"),
                [Target::new("m1", "in")],
            ))
            .connection(Connection::new(
                "ctl1",
                "actuation",
                "c0",
                Target::new("v1", "a"),
                [Target::component_only("m1")],
            ))
            .valve("v1", "ch1", ValveType::NormallyClosed)
            .build()
            .unwrap()
    }

    #[test]
    fn interning_matches_declaration_order() {
        let c = CompiledDevice::compile(sample());
        assert_eq!(c.layer_ix("f0"), Some(LayerIx::new(0)));
        assert_eq!(c.layer_ix("c0"), Some(LayerIx::new(1)));
        assert_eq!(c.comp_ix("in1"), Some(CompIx::new(0)));
        assert_eq!(c.comp_ix("m1"), Some(CompIx::new(1)));
        assert_eq!(c.comp_ix("v1"), Some(CompIx::new(2)));
        assert_eq!(c.conn_ix("ch1"), Some(ConnIx::new(0)));
        assert_eq!(c.conn_ix("ghost"), None);
        assert_eq!(c.component_count(), 3);
        assert_eq!(c.connection_count(), 2);
        assert_eq!(c.layer_count(), 2);
        assert_eq!(c.port_count(), 4);
    }

    #[test]
    fn lookups_agree_with_linear_scans() {
        let device = sample();
        let c = CompiledDevice::from_ref(&device);
        for layer in &device.layers {
            assert_eq!(c.layer_by_id(layer.id.as_str()), Some(layer));
        }
        for component in &device.components {
            assert_eq!(c.component_by_id(component.id.as_str()), Some(component));
        }
        for connection in &device.connections {
            assert_eq!(c.connection_by_id(connection.id.as_str()), Some(connection));
        }
        assert!(c.component_by_id("ghost").is_none());
        assert!(c.layer_by_id("ghost").is_none());
        assert!(c.connection_by_id("ghost").is_none());
        assert!(c.feature_by_id("ghost").is_none());
    }

    #[test]
    fn ports_flatten_with_owner_ranges() {
        let c = CompiledDevice::compile(sample());
        let m1 = c.comp_ix("m1").unwrap();
        let ports: Vec<&str> = c.ports_of(m1).map(|p| c.port(p).label.as_str()).collect();
        assert_eq!(ports, vec!["in", "out"]);
        for p in c.ports_of(m1) {
            assert_eq!(c.port_owner(p), m1);
        }
        let out = c.port_ix(m1, "out").unwrap();
        assert_eq!(c.port(out).x, 2000);
        assert!(c.port_ix(m1, "ghost").is_none());
    }

    #[test]
    fn endpoints_pre_resolve() {
        let c = CompiledDevice::compile(sample());
        let ch1 = c.conn_ix("ch1").unwrap();
        let src = c.source(ch1);
        assert_eq!(src.component, c.comp_ix("in1"));
        assert_eq!(
            src.port,
            c.port_ix(c.comp_ix("in1").unwrap(), "p"),
            "sole-port terminal resolves to the explicit label"
        );
        let sinks = c.sinks(ch1);
        assert_eq!(sinks.len(), 1);
        assert_eq!(sinks[0].component, c.comp_ix("m1"));

        // Port-less terminal on a multi-port component resolves to no port.
        let ctl1 = c.conn_ix("ctl1").unwrap();
        assert_eq!(c.sinks(ctl1)[0].port, None);
        assert_eq!(c.connection_layer(ctl1), c.layer_ix("c0"));
    }

    #[test]
    fn incidence_matches_connections_touching() {
        let device = sample();
        let c = CompiledDevice::from_ref(&device);
        for (i, component) in device.components.iter().enumerate() {
            let expected: Vec<&str> = device
                .connections_touching(&component.id)
                .map(|conn| conn.id.as_str())
                .collect();
            let got: Vec<&str> = c
                .incident(CompIx::new(i))
                .iter()
                .map(|&ix| c.connection(ix).id.as_str())
                .collect();
            assert_eq!(got, expected, "incidence mismatch for {}", component.id);
        }
    }

    #[test]
    fn layer_partitions() {
        let c = CompiledDevice::compile(sample());
        let f0 = c.layer_ix("f0").unwrap();
        let c0 = c.layer_ix("c0").unwrap();
        assert_eq!(c.connections_on(f0), &[c.conn_ix("ch1").unwrap()]);
        assert_eq!(c.connections_on(c0), &[c.conn_ix("ctl1").unwrap()]);
        let flow: Vec<LayerIx> = c.layers_of_type(LayerType::Flow).collect();
        assert_eq!(flow, vec![f0]);
    }

    #[test]
    fn valve_tables() {
        let c = CompiledDevice::compile(sample());
        let v1 = c.comp_ix("v1").unwrap();
        let ch1 = c.conn_ix("ch1").unwrap();
        let ctl1 = c.conn_ix("ctl1").unwrap();
        assert_eq!(c.valve_on(v1).unwrap().controls, "ch1");
        assert!(c.valve_on(c.comp_ix("m1").unwrap()).is_none());
        assert_eq!(c.valves_controlling(ch1).count(), 1);
        assert!(c.is_valved(ch1));
        assert!(!c.is_valved(ctl1));
        let resolved: Vec<_> = c.valves().collect();
        assert_eq!(resolved.len(), 1);
        assert_eq!(resolved[0].1, Some(v1));
        assert_eq!(resolved[0].2, Some(ch1));
    }

    #[test]
    fn positions_agree_with_device() {
        let mut device = sample();
        device.features.push(
            ComponentFeature::new(
                "pf_in1",
                "in1",
                "f0",
                Point::new(0, 0),
                Span::square(200),
                50,
            )
            .into(),
        );
        device.features.push(
            ComponentFeature::new(
                "pf_m1",
                "m1",
                "f0",
                Point::new(1000, 0),
                Span::new(2000, 1000),
                50,
            )
            .into(),
        );
        let c = CompiledDevice::from_ref(&device);
        let m1 = c.comp_ix("m1").unwrap();
        assert_eq!(c.placement(m1).unwrap().location, Point::new(1000, 0));
        assert!(c.placement(c.comp_ix("v1").unwrap()).is_none());
        assert!(c.route(c.conn_ix("ch1").unwrap()).is_none());

        for connection in &device.connections {
            for target in connection.terminals() {
                assert_eq!(
                    c.target_position(target),
                    device.target_position(target),
                    "position mismatch for terminal {target}"
                );
            }
        }
        // Endpoint positions agree too.
        let ch1 = c.conn_ix("ch1").unwrap();
        assert_eq!(
            c.endpoint_position(c.source(ch1)),
            device.target_position(&device.connections[0].source)
        );
        assert_eq!(c.feature_by_id("pf_m1"), device.feature("pf_m1"));
    }

    #[test]
    fn dangling_references_compile_to_none() {
        let mut device = sample();
        device.connections.push(Connection::new(
            "bad",
            "bad",
            "ghost_layer",
            Target::new("ghost", "p"),
            [Target::new("m1", "ghost_port")],
        ));
        device
            .valves
            .push(Valve::new("ghost", "bad2", ValveType::NormallyOpen));
        let c = CompiledDevice::from_ref(&device);
        let bad = c.conn_ix("bad").unwrap();
        assert_eq!(c.source(bad).component, None);
        assert_eq!(c.endpoint_position(c.source(bad)), None);
        assert_eq!(c.connection_layer(bad), None);
        let sink = c.sinks(bad)[0];
        assert_eq!(sink.component, c.comp_ix("m1"));
        assert_eq!(sink.port, None, "unknown label resolves to no port");
        let (_, vc, vk) = c.valves().nth(1).unwrap();
        assert_eq!(vc, None);
        assert_eq!(vk, None);
        assert_eq!(c.target_position(&Target::new("ghost", "p")), None);
    }

    #[test]
    fn duplicate_ids_bind_first_occurrence() {
        let mut device = Device::new("dups");
        device.layers.push(Layer::new("l", "a", LayerType::Flow));
        device.components.push(Component::new(
            "x",
            "first",
            Entity::Node,
            ["l"],
            Span::square(1),
        ));
        device.components.push(Component::new(
            "x",
            "second",
            Entity::Node,
            ["l"],
            Span::square(2),
        ));
        let c = CompiledDevice::from_ref(&device);
        assert_eq!(c.comp_ix("x"), Some(CompIx::new(0)));
        assert_eq!(
            c.component_by_id("x").unwrap().name,
            device.component("x").unwrap().name,
            "compiled lookup matches the linear scan's first-wins rule"
        );
        // Both occurrences are still reachable by handle.
        assert_eq!(c.component(CompIx::new(1)).name, "second");
    }

    #[test]
    fn shared_view_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>(_: &T) {}
        let shared = CompiledDevice::compile(sample()).into_shared();
        assert_send_sync(&shared);
        let again = Arc::clone(&shared);
        assert_eq!(again.component_count(), 3);
    }

    #[test]
    fn into_device_round_trips() {
        let device = sample();
        let c = CompiledDevice::from_ref(&device);
        assert_eq!(c.device(), &device);
        assert_eq!(CompiledDevice::from(device.clone()).into_device(), device);
    }

    #[test]
    fn handle_conversions() {
        let ix = CompIx::new(7);
        assert_eq!(ix.index(), 7);
        assert_eq!(usize::from(ix), 7);
        assert_eq!(ConnIx::new(4).index(), 4);
        assert_eq!(LayerIx::new(5).index(), 5);
        assert_eq!(PortIx::new(6).index(), 6);
        let _ = (ComponentId::new("x"), ConnectionId::new("y")); // keep imports honest
    }
}
