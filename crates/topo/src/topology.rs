//! The topology graph and its builder.

use crate::device::{Device, DeviceId, DeviceKind, GpuModel, NumaNode};
use crate::link::{Link, LinkId, LinkKind};
use crate::overhead::OverheadModel;
use crate::units::{Bandwidth, Secs};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Errors raised while building or querying a topology.
#[derive(Debug, Clone, PartialEq)]
pub enum TopologyError {
    /// A device id was out of range.
    UnknownDevice(DeviceId),
    /// A link id was out of range.
    UnknownLink(LinkId),
    /// No directed link exists between the two devices.
    NoLink(DeviceId, DeviceId),
    /// A link was declared with a non-positive bandwidth.
    InvalidBandwidth(Bandwidth),
    /// A link was declared with a negative latency.
    InvalidLatency(Secs),
    /// Operation requires a GPU but the device is not one.
    NotAGpu(DeviceId),
    /// No host memory domain is reachable from the device.
    NoHostMemory(DeviceId),
    /// A manual share vector's length does not match the path count.
    ShareCountMismatch {
        /// Number of candidate paths.
        paths: usize,
        /// Number of shares supplied.
        shares: usize,
    },
    /// A manual share vector does not sum to 1 (value is the actual sum).
    SharesNotNormalized(f64),
    /// Every candidate path between the pair is excluded or down.
    NoUsablePath(DeviceId, DeviceId),
    /// More candidate paths than the planner solves for.
    TooManyPaths {
        /// Number of candidate paths.
        paths: usize,
        /// The planner's limit.
        max: usize,
    },
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::UnknownDevice(d) => write!(f, "unknown device {d}"),
            TopologyError::UnknownLink(l) => write!(f, "unknown link {l}"),
            TopologyError::NoLink(a, b) => write!(f, "no link from {a} to {b}"),
            TopologyError::InvalidBandwidth(b) => write!(f, "invalid bandwidth {b}"),
            TopologyError::InvalidLatency(l) => write!(f, "invalid latency {l}"),
            TopologyError::NotAGpu(d) => write!(f, "device {d} is not a GPU"),
            TopologyError::NoHostMemory(d) => write!(f, "no host memory reachable from {d}"),
            TopologyError::ShareCountMismatch { paths, shares } => {
                write!(f, "one share per path: {paths} paths, {shares} shares")
            }
            TopologyError::SharesNotNormalized(sum) => {
                write!(f, "shares must sum to 1, got {sum}")
            }
            TopologyError::NoUsablePath(a, b) => {
                write!(f, "no usable path from {a} to {b} (all excluded or down)")
            }
            TopologyError::TooManyPaths { paths, max } => {
                write!(f, "{paths} candidate paths, more than the {max} planned")
            }
        }
    }
}

impl std::error::Error for TopologyError {}

/// An immutable description of one multi-GPU node.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Topology {
    /// Human-readable name (`beluga`, `narval`, ...).
    pub name: String,
    /// All devices, indexed by [`DeviceId`].
    pub devices: Vec<Device>,
    /// All directed links, indexed by [`LinkId`].
    pub links: Vec<Link>,
    /// Software overhead profile for this node.
    pub overheads: OverheadModel,
    /// Adjacency: `adjacency[src][dst]` is the directed link `src → dst`,
    /// if one exists. Dense — intra-node topologies are tiny.
    adjacency: Vec<Vec<Option<LinkId>>>,
}

impl Topology {
    /// Device lookup with bounds check.
    pub fn device(&self, id: DeviceId) -> Result<&Device, TopologyError> {
        self.devices
            .get(id.index())
            .ok_or(TopologyError::UnknownDevice(id))
    }

    /// Link lookup with bounds check.
    pub fn link(&self, id: LinkId) -> Result<&Link, TopologyError> {
        self.links
            .get(id.index())
            .ok_or(TopologyError::UnknownLink(id))
    }

    /// The directed link `src → dst`, the `get_link` primitive of
    /// Algorithm 1.
    pub fn link_between(&self, src: DeviceId, dst: DeviceId) -> Result<&Link, TopologyError> {
        let id = self
            .adjacency
            .get(src.index())
            .ok_or(TopologyError::UnknownDevice(src))?
            .get(dst.index())
            .ok_or(TopologyError::UnknownDevice(dst))?
            .ok_or(TopologyError::NoLink(src, dst))?;
        self.link(id)
    }

    /// True if a directed link `src → dst` exists.
    pub fn has_link(&self, src: DeviceId, dst: DeviceId) -> bool {
        self.link_between(src, dst).is_ok()
    }

    /// All GPU devices, in id order.
    pub fn gpus(&self) -> Vec<DeviceId> {
        self.devices
            .iter()
            .filter(|d| d.is_gpu())
            .map(|d| d.id)
            .collect()
    }

    /// All NIC devices, in id order.
    pub fn nics(&self) -> Vec<DeviceId> {
        self.devices
            .iter()
            .filter(|d| d.is_nic())
            .map(|d| d.id)
            .collect()
    }

    /// True if both devices live on the same physical node.
    pub fn same_node(&self, a: DeviceId, b: DeviceId) -> Result<bool, TopologyError> {
        Ok(self.device(a)?.node == self.device(b)?.node)
    }

    /// All host-memory devices, in id order.
    pub fn host_memories(&self) -> Vec<DeviceId> {
        self.devices
            .iter()
            .filter(|d| d.is_host())
            .map(|d| d.id)
            .collect()
    }

    /// The host memory domain local to `dev` (same NUMA node), falling
    /// back to the first host memory if the NUMA domain has none.
    pub fn local_host_memory(&self, dev: DeviceId) -> Result<DeviceId, TopologyError> {
        let d = self.device(dev)?;
        let same_numa = self
            .devices
            .iter()
            .find(|h| h.is_host() && h.numa == d.numa)
            .map(|h| h.id);
        same_numa
            .or_else(|| self.devices.iter().find(|h| h.is_host()).map(|h| h.id))
            .ok_or(TopologyError::NoHostMemory(dev))
    }

    /// Number of devices.
    pub fn device_count(&self) -> usize {
        self.devices.len()
    }

    /// Number of directed links.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Render a short human-readable summary (used by the topology
    /// explorer example).
    pub fn describe(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "topology `{}`:", self.name);
        for d in &self.devices {
            let _ = writeln!(out, "  {} [{}] {:?}", d.name, d.numa, d.kind);
        }
        for l in &self.links {
            let src = &self.devices[l.src.index()].name;
            let dst = &self.devices[l.dst.index()].name;
            let _ = writeln!(
                out,
                "  {src} -> {dst}: {} {:.1} GB/s, {:.2} us ({} sub-links)",
                l.kind,
                l.bandwidth / 1e9,
                l.latency * 1e6,
                l.sub_links
            );
        }
        out
    }
}

/// Incremental constructor for [`Topology`].
#[derive(Debug, Default)]
pub struct TopologyBuilder {
    name: String,
    devices: Vec<Device>,
    links: Vec<Link>,
    overheads: OverheadModel,
    aliases: Vec<(DeviceId, DeviceId, LinkId)>,
    current_node: u16,
}

impl TopologyBuilder {
    /// Starts a new topology with the given name and default (CUDA-like)
    /// overheads.
    pub fn new(name: impl Into<String>) -> Self {
        TopologyBuilder {
            name: name.into(),
            devices: Vec::new(),
            links: Vec::new(),
            overheads: OverheadModel::default(),
            aliases: Vec::new(),
            current_node: 0,
        }
    }

    /// Subsequent devices are placed on physical node `node` (machine
    /// index for multi-node topologies; defaults to 0).
    pub fn on_node(&mut self, node: u16) -> &mut Self {
        self.current_node = node;
        self
    }

    /// Overrides the software overhead profile.
    pub fn overheads(mut self, o: OverheadModel) -> Self {
        self.overheads = o;
        self
    }

    /// Adds a GPU in `numa`; returns its id.
    pub fn gpu(&mut self, model: GpuModel, numa: NumaNode) -> DeviceId {
        let id = DeviceId(self.devices.len() as u32);
        self.devices.push(Device {
            id,
            kind: DeviceKind::Gpu(model),
            numa,
            node: self.current_node,
            name: format!("gpu{}", self.devices.iter().filter(|d| d.is_gpu()).count()),
        });
        id
    }

    /// Adds a NIC in `numa` on the current node; returns its id.
    pub fn nic(&mut self, numa: NumaNode) -> DeviceId {
        let id = DeviceId(self.devices.len() as u32);
        self.devices.push(Device {
            id,
            kind: DeviceKind::Nic,
            numa,
            node: self.current_node,
            name: format!("nic{}", self.devices.iter().filter(|d| d.is_nic()).count()),
        });
        id
    }

    /// Adds a host memory domain in `numa`; returns its id.
    pub fn host_memory(&mut self, numa: NumaNode) -> DeviceId {
        let id = DeviceId(self.devices.len() as u32);
        self.devices.push(Device {
            id,
            kind: DeviceKind::HostMemory,
            numa,
            node: self.current_node,
            name: format!(
                "host-mem{}",
                self.devices.iter().filter(|d| d.is_host()).count()
            ),
        });
        id
    }

    /// Adds a single directed link; returns its id.
    pub fn directed_link(
        &mut self,
        src: DeviceId,
        dst: DeviceId,
        kind: LinkKind,
        bandwidth: Bandwidth,
        latency: Secs,
        sub_links: u32,
    ) -> Result<LinkId, TopologyError> {
        if !bandwidth.is_finite() || bandwidth <= 0.0 {
            return Err(TopologyError::InvalidBandwidth(bandwidth));
        }
        if !latency.is_finite() || latency < 0.0 {
            return Err(TopologyError::InvalidLatency(latency));
        }
        if src.index() >= self.devices.len() {
            return Err(TopologyError::UnknownDevice(src));
        }
        if dst.index() >= self.devices.len() {
            return Err(TopologyError::UnknownDevice(dst));
        }
        let id = LinkId(self.links.len() as u32);
        self.links.push(Link {
            id,
            src,
            dst,
            kind,
            bandwidth,
            latency,
            sub_links,
        });
        Ok(id)
    }

    /// Adds a **shared** channel: one capacity pool that serves both
    /// directions. `link_between(a, b)` and `link_between(b, a)` resolve to
    /// the *same* [`LinkId`], so traffic flowing both ways contends for the
    /// single `bandwidth` budget. Used for resources without independent
    /// per-direction lanes from the transfer engine's perspective —
    /// coherent inter-socket interconnects (UPI) and DRAM channels.
    pub fn shared_link(
        &mut self,
        a: DeviceId,
        b: DeviceId,
        kind: LinkKind,
        bandwidth: Bandwidth,
        latency: Secs,
        sub_links: u32,
    ) -> Result<LinkId, TopologyError> {
        let id = self.directed_link(a, b, kind, bandwidth, latency, sub_links)?;
        if a != b {
            self.aliases.push((b, a, id));
        }
        Ok(id)
    }

    /// Adds a full-duplex channel as two directed links (one per
    /// direction), each with the full per-direction bandwidth.
    pub fn duplex_link(
        &mut self,
        a: DeviceId,
        b: DeviceId,
        kind: LinkKind,
        bandwidth: Bandwidth,
        latency: Secs,
        sub_links: u32,
    ) -> Result<(LinkId, LinkId), TopologyError> {
        let fwd = self.directed_link(a, b, kind, bandwidth, latency, sub_links)?;
        let bwd = self.directed_link(b, a, kind, bandwidth, latency, sub_links)?;
        Ok((fwd, bwd))
    }

    /// Finalizes into an immutable [`Topology`].
    pub fn build(self) -> Topology {
        let n = self.devices.len();
        let mut adjacency = vec![vec![None; n]; n];
        for l in &self.links {
            // Later declarations win; presets declare each pair once.
            adjacency[l.src.index()][l.dst.index()] = Some(l.id);
        }
        for (src, dst, id) in &self.aliases {
            adjacency[src.index()][dst.index()] = Some(*id);
        }
        Topology {
            name: self.name,
            devices: self.devices,
            links: self.links,
            overheads: self.overheads,
            adjacency,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::gb_per_s;

    fn two_gpu() -> Topology {
        let mut b = TopologyBuilder::new("two-gpu");
        let g0 = b.gpu(GpuModel::Generic, NumaNode(0));
        let g1 = b.gpu(GpuModel::Generic, NumaNode(0));
        let hm = b.host_memory(NumaNode(0));
        b.duplex_link(g0, g1, LinkKind::NvLinkV2, gb_per_s(50.0), 2e-6, 2)
            .unwrap();
        b.duplex_link(g0, hm, LinkKind::Pcie, gb_per_s(12.0), 5e-6, 1)
            .unwrap();
        b.duplex_link(g1, hm, LinkKind::Pcie, gb_per_s(12.0), 5e-6, 1)
            .unwrap();
        b.build()
    }

    #[test]
    fn builder_assigns_sequential_ids() {
        let t = two_gpu();
        assert_eq!(t.device_count(), 3);
        assert_eq!(t.link_count(), 6);
        for (i, d) in t.devices.iter().enumerate() {
            assert_eq!(d.id.index(), i);
        }
        for (i, l) in t.links.iter().enumerate() {
            assert_eq!(l.id.index(), i);
        }
    }

    #[test]
    fn link_between_directions_are_distinct() {
        let t = two_gpu();
        let fwd = t.link_between(DeviceId(0), DeviceId(1)).unwrap();
        let bwd = t.link_between(DeviceId(1), DeviceId(0)).unwrap();
        assert_ne!(fwd.id, bwd.id);
        assert_eq!(fwd.bandwidth, bwd.bandwidth);
    }

    #[test]
    fn missing_link_is_error() {
        let mut b = TopologyBuilder::new("disconnected");
        let g0 = b.gpu(GpuModel::Generic, NumaNode(0));
        let g1 = b.gpu(GpuModel::Generic, NumaNode(0));
        let t = b.build();
        assert_eq!(
            t.link_between(g0, g1).unwrap_err(),
            TopologyError::NoLink(g0, g1)
        );
    }

    #[test]
    fn invalid_bandwidth_rejected() {
        let mut b = TopologyBuilder::new("bad");
        let g0 = b.gpu(GpuModel::Generic, NumaNode(0));
        let g1 = b.gpu(GpuModel::Generic, NumaNode(0));
        assert!(matches!(
            b.directed_link(g0, g1, LinkKind::Custom, 0.0, 0.0, 1),
            Err(TopologyError::InvalidBandwidth(_))
        ));
        assert!(matches!(
            b.directed_link(g0, g1, LinkKind::Custom, -5.0, 0.0, 1),
            Err(TopologyError::InvalidBandwidth(_))
        ));
        assert!(matches!(
            b.directed_link(g0, g1, LinkKind::Custom, f64::NAN, 0.0, 1),
            Err(TopologyError::InvalidBandwidth(_))
        ));
    }

    #[test]
    fn negative_latency_rejected() {
        let mut b = TopologyBuilder::new("bad");
        let g0 = b.gpu(GpuModel::Generic, NumaNode(0));
        let g1 = b.gpu(GpuModel::Generic, NumaNode(0));
        assert!(matches!(
            b.directed_link(g0, g1, LinkKind::Custom, 1.0, -1e-6, 1),
            Err(TopologyError::InvalidLatency(_))
        ));
    }

    #[test]
    fn link_to_unknown_device_rejected() {
        let mut b = TopologyBuilder::new("bad");
        let g0 = b.gpu(GpuModel::Generic, NumaNode(0));
        assert!(matches!(
            b.directed_link(g0, DeviceId(9), LinkKind::Custom, 1.0, 0.0, 1),
            Err(TopologyError::UnknownDevice(_))
        ));
    }

    #[test]
    fn gpu_and_host_queries() {
        let t = two_gpu();
        assert_eq!(t.gpus(), vec![DeviceId(0), DeviceId(1)]);
        assert_eq!(t.host_memories(), vec![DeviceId(2)]);
    }

    #[test]
    fn local_host_memory_prefers_same_numa() {
        let mut b = TopologyBuilder::new("numa");
        let g0 = b.gpu(GpuModel::Generic, NumaNode(0));
        let g1 = b.gpu(GpuModel::Generic, NumaNode(1));
        let h0 = b.host_memory(NumaNode(0));
        let h1 = b.host_memory(NumaNode(1));
        let t = b.build();
        assert_eq!(t.local_host_memory(g0).unwrap(), h0);
        assert_eq!(t.local_host_memory(g1).unwrap(), h1);
    }

    #[test]
    fn local_host_memory_falls_back_across_numa() {
        let mut b = TopologyBuilder::new("numa");
        let g0 = b.gpu(GpuModel::Generic, NumaNode(3));
        let h0 = b.host_memory(NumaNode(0));
        let t = b.build();
        assert_eq!(t.local_host_memory(g0).unwrap(), h0);
    }

    #[test]
    fn local_host_memory_missing_is_error() {
        let mut b = TopologyBuilder::new("no-host");
        let g0 = b.gpu(GpuModel::Generic, NumaNode(0));
        let t = b.build();
        assert!(matches!(
            t.local_host_memory(g0),
            Err(TopologyError::NoHostMemory(_))
        ));
    }

    #[test]
    fn shared_link_resolves_both_directions_to_same_id() {
        let mut b = TopologyBuilder::new("shared");
        let h0 = b.host_memory(NumaNode(0));
        let h1 = b.host_memory(NumaNode(1));
        let id = b
            .shared_link(h0, h1, LinkKind::Upi, gb_per_s(20.0), 1e-6, 1)
            .unwrap();
        let t = b.build();
        assert_eq!(t.link_between(h0, h1).unwrap().id, id);
        assert_eq!(t.link_between(h1, h0).unwrap().id, id);
    }

    #[test]
    fn self_loop_link_is_allowed() {
        let mut b = TopologyBuilder::new("dram");
        let h0 = b.host_memory(NumaNode(0));
        let id = b
            .shared_link(h0, h0, LinkKind::HostDram, gb_per_s(40.0), 1e-7, 1)
            .unwrap();
        let t = b.build();
        assert_eq!(t.link_between(h0, h0).unwrap().id, id);
    }

    #[test]
    fn describe_mentions_every_device() {
        let t = two_gpu();
        let text = t.describe();
        assert!(text.contains("gpu0"));
        assert!(text.contains("gpu1"));
        assert!(text.contains("host-mem0"));
        assert!(text.contains("NVLink-V2"));
    }
}
