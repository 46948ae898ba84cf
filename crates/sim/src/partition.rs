//! Connected-component partitioning of a declared workload.
//!
//! The engine's fair-share recomputation is already *component-scoped*
//! (PR 1): only flows transitively sharing a link ever influence each
//! other's rates, completion times, or byte accounting. This module
//! turns that isolation into an execution strategy. A `Partitioner`
//! is an incremental union-find over the topology's links: admitting a
//! flow unions every link of its route, admitting a fault pins the
//! fault to its link's partition. A flow whose route bridges two
//! partitions that both already carry work triggers a **rebalance** —
//! the partitions merge, and every event previously routed to either
//! side is re-routed to the merged partition (counted as
//! [`PartitionPlan::cross_component_events`]).
//!
//! The output, a [`PartitionPlan`], maps every declared flow and fault
//! to exactly one partition. Partitions share no links, so the
//! [`crate::parallel`] runner can simulate each on its own engine with
//! its own event queue and virtual clock and still merge to a result
//! bit-identical to the serial engine.

use crate::fault::FaultPlan;
use crate::time::SimTime;
use mpx_topo::LinkId;

/// Incremental union-find over link indices, with occupancy tracking so
/// merges of two *working* partitions are distinguishable from a flow
/// merely growing its own component.
struct Partitioner {
    parent: Vec<u32>,
    rank: Vec<u8>,
    /// Root-indexed: the partition carries at least one admitted event.
    occupied: Vec<bool>,
    rebalances: u64,
    /// `(virtual time, absorbed root, surviving root)` per rebalance.
    merges: Vec<(SimTime, usize, usize)>,
}

impl Partitioner {
    /// A partitioner over `nlinks` links, every link its own partition.
    fn new(nlinks: usize) -> Partitioner {
        Partitioner {
            parent: (0..nlinks as u32).collect(),
            rank: vec![0; nlinks],
            occupied: vec![false; nlinks],
            rebalances: 0,
            merges: Vec::new(),
        }
    }

    /// The current partition root of `link` (path-halving find).
    fn find(&mut self, link: usize) -> usize {
        let mut l = link;
        while self.parent[l] as usize != l {
            let grand = self.parent[self.parent[l] as usize];
            self.parent[l] = grand;
            l = grand as usize;
        }
        l
    }

    /// Unions the partitions of `a` and `b`; returns the surviving root.
    /// When both sides already carried work this is a **rebalance**: the
    /// merge is counted and recorded at virtual time `at`.
    fn union(&mut self, a: usize, b: usize, at: SimTime) -> usize {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return ra;
        }
        if self.occupied[ra] && self.occupied[rb] {
            self.rebalances += 1;
        }
        let (winner, loser) = match self.rank[ra].cmp(&self.rank[rb]) {
            std::cmp::Ordering::Less => (rb, ra),
            std::cmp::Ordering::Greater => (ra, rb),
            std::cmp::Ordering::Equal => {
                self.rank[ra] += 1;
                (ra, rb)
            }
        };
        self.parent[loser] = winner as u32;
        self.occupied[winner] = self.occupied[winner] || self.occupied[loser];
        if self.occupied[winner] {
            self.merges.push((at, loser, winner));
        }
        winner
    }

    /// Admits a flow at virtual time `at`: unions its route's links and
    /// returns the owning partition root *at admission*. Later merges
    /// may re-route the flow; resolve with `find` after all admissions.
    fn admit_flow(&mut self, route: &[LinkId], at: SimTime) -> usize {
        assert!(!route.is_empty(), "cannot partition an empty route");
        let mut root = self.find(route[0].index());
        for l in &route[1..] {
            root = self.union(root, l.index(), at);
        }
        self.occupied[root] = true;
        root
    }

    /// Admits a fault: it belongs to its link's partition (no unions — a
    /// fault cannot bridge components).
    fn admit_fault(&mut self, link: LinkId) -> usize {
        let root = self.find(link.index());
        self.occupied[root] = true;
        root
    }
}

/// One executable partition of a declared scenario.
#[derive(Debug, Clone, Default)]
pub struct Partition {
    /// Surviving union-find root (a link index) identifying the
    /// partition.
    pub root: usize,
    /// Declaration indices of the flows this partition simulates, in
    /// issue order (the order its engine starts them, so the k-th flow
    /// listed gets engine-local id k).
    pub flows: Vec<usize>,
    /// Indices into the scenario's [`FaultPlan`] routed here, in plan
    /// order.
    pub faults: Vec<usize>,
}

/// A declared scenario decomposed into disjoint partitions, plus the
/// decomposition counters surfaced through
/// [`crate::StatsSnapshot::partitions`] and friends.
#[derive(Debug, Clone)]
pub struct PartitionPlan {
    /// Executable partitions, largest flow count first (deterministic:
    /// ties break on root index). Only occupied partitions appear.
    pub parts: Vec<Partition>,
    /// Number of occupied partitions (`parts.len()`).
    pub partitions: u64,
    /// Merges of two occupied partitions forced by bridging flows.
    pub rebalances: u64,
    /// Admitted events whose final partition differs from their
    /// partition at admission (re-routed across a rebalance).
    pub cross_component_events: u64,
    /// `(virtual time, absorbed root, surviving root)` per rebalance,
    /// for telemetry.
    pub merges: Vec<(SimTime, usize, usize)>,
}

/// Builds the partition plan for a declared workload. `flows` yields each
/// declared flow once as `(issue time, declaration index, route)`, in
/// issue order: sorted by `(time, index)`, as a [`crate::Scenario`] run
/// sorts them once for everything it derives. `faults` is the fault plan.
/// Admissions are processed in virtual-time order (ties: flows before
/// faults, then declaration order) — exactly the order the events would
/// first become visible to a running engine — so a fault admitted
/// before a later bridging flow genuinely lands mid-rebalance and is
/// re-routed, which is what `cross_component_events` measures.
pub fn partition_scenario<R: AsRef<[LinkId]>>(
    nlinks: usize,
    flows: impl ExactSizeIterator<Item = (SimTime, usize, R)>,
    faults: &FaultPlan,
) -> PartitionPlan {
    let mut p = Partitioner::new(nlinks);
    let mut fault_order: Vec<(SimTime, usize)> = (faults.events.iter().enumerate())
        .map(|(i, ev)| (SimTime::from_secs(ev.at.max(0.0)), i))
        .collect();
    fault_order.sort_unstable();

    // Merge the two admission streams, a flow first on a tie (the serial
    // engine's push order); flows keep `(decl, root)` in issue order.
    let mut flow_admit_root = Vec::with_capacity(flows.len());
    let mut fault_admit_root = vec![usize::MAX; faults.events.len()];
    let (mut flows, mut fault_order) = (flows.peekable(), fault_order.into_iter().peekable());
    let mut last_flow = None;
    loop {
        let flow_next = match (flows.peek(), fault_order.peek()) {
            (None, None) => break,
            (Some(flow), Some(fault)) => flow.0 <= fault.0,
            (flow, _) => flow.is_some(),
        };
        if flow_next {
            let (at, decl, route) = flows.next().expect("peeked");
            assert!(
                last_flow < Some((at, decl)),
                "flow {decl} out of issue order"
            );
            last_flow = Some((at, decl));
            flow_admit_root.push((decl, p.admit_flow(route.as_ref(), at)));
        } else {
            let (_, i) = fault_order.next().expect("peeked");
            fault_admit_root[i] = p.admit_fault(faults.events[i].link);
        }
    }

    // Resolve final owners and count cross-component re-routes.
    let mut cross = 0u64;
    let mut parts_by_root = std::collections::BTreeMap::new();
    let fault_admit_root = fault_admit_root.into_iter().enumerate().collect();
    for (is_flow, admit_roots) in [(true, flow_admit_root), (false, fault_admit_root)] {
        for (i, root) in admit_roots {
            let fin = p.find(root);
            cross += u64::from(fin != root);
            let part = (parts_by_root.entry(fin)).or_insert_with(|| Partition {
                root: fin,
                ..Partition::default()
            });
            let list = if is_flow {
                &mut part.flows
            } else {
                &mut part.faults
            };
            list.push(i);
        }
    }

    let mut parts: Vec<Partition> = parts_by_root.into_values().collect();
    // Largest first so the worker pool drains the long pole early; ties
    // on root index keep the order deterministic.
    parts.sort_by(|a, b| b.flows.len().cmp(&a.flows.len()).then(a.root.cmp(&b.root)));
    let partitions = parts.len() as u64;
    PartitionPlan {
        parts,
        partitions,
        rebalances: p.rebalances,
        cross_component_events: cross,
        merges: p.merges,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultKind, FaultPlan};

    fn lid(i: u32) -> LinkId {
        LinkId(i)
    }

    /// Plans `(issue time, route)` declarations listed in issue order.
    fn plan_of(
        nlinks: usize,
        flows: &[(SimTime, Vec<LinkId>)],
        faults: &FaultPlan,
    ) -> PartitionPlan {
        let issued = flows
            .iter()
            .enumerate()
            .map(|(i, (at, route))| (*at, i, route));
        partition_scenario(nlinks, issued, faults)
    }

    #[test]
    fn disjoint_routes_stay_separate() {
        let flows = vec![
            (SimTime::ZERO, vec![lid(0)]),
            (SimTime::ZERO, vec![lid(1)]),
            (SimTime::ZERO, vec![lid(2), lid(3)]),
        ];
        let plan = plan_of(8, &flows, &FaultPlan::empty());
        assert_eq!(plan.partitions, 3);
        assert_eq!(plan.rebalances, 0);
        assert_eq!(plan.cross_component_events, 0);
    }

    #[test]
    fn bridging_flow_rebalances_and_reroutes() {
        // Flows on links 0 and 1 at t=0; a fault lands on link 1 at
        // t=0.3; a bridge [0,1] arrives at t=0.4. The bridge merges the
        // two occupied partitions (one rebalance) and everything
        // admitted to the absorbed side is re-routed.
        let flows = vec![
            (SimTime::ZERO, vec![lid(0)]),
            (SimTime::ZERO, vec![lid(1)]),
            (SimTime::from_secs(0.4), vec![lid(0), lid(1)]),
        ];
        let faults = FaultPlan::empty().with(0.3, lid(1), FaultKind::Kill);
        let plan = plan_of(4, &flows, &faults);
        assert_eq!(plan.partitions, 1);
        assert_eq!(plan.rebalances, 1);
        // The absorbed side's flow and its fault both crossed; possibly
        // the bridge itself depending on which root survived. At least
        // the loser's two events must have been re-routed.
        assert!(
            plan.cross_component_events >= 2,
            "cross = {}",
            plan.cross_component_events
        );
        assert_eq!(plan.merges.len(), 1);
        assert_eq!(plan.merges[0].0, SimTime::from_secs(0.4));
        let p = &plan.parts[0];
        assert_eq!(p.flows, vec![0, 1, 2]);
        assert_eq!(p.faults, vec![0]);
    }

    #[test]
    fn fault_on_unused_link_gets_own_partition() {
        let flows = vec![(SimTime::ZERO, vec![lid(0)])];
        let faults = FaultPlan::empty().with(0.1, lid(5), FaultKind::Kill);
        let plan = plan_of(8, &flows, &faults);
        assert_eq!(plan.partitions, 2);
        let fault_part = plan.parts.iter().find(|p| !p.faults.is_empty()).unwrap();
        assert!(fault_part.flows.is_empty());
        assert_eq!(fault_part.root, 5);
    }

    #[test]
    fn growing_own_component_is_not_a_rebalance() {
        // One flow spanning three links, then more flows inside the same
        // component: unions happen but never merge two occupied sides.
        let flows = vec![
            (SimTime::ZERO, vec![lid(0), lid(1), lid(2)]),
            (SimTime::ZERO, vec![lid(1)]),
            (SimTime::ZERO, vec![lid(2), lid(0)]),
        ];
        let plan = plan_of(4, &flows, &FaultPlan::empty());
        assert_eq!(plan.partitions, 1);
        assert_eq!(plan.rebalances, 0);
    }

    #[test]
    fn a_partition_lists_its_flows_in_issue_order() {
        // Declared 0, 1, 2 on one link; issued 2, 0, 1.
        let issued = [
            (SimTime::ZERO, 2, vec![lid(0)]),
            (SimTime::from_secs(0.1), 0, vec![lid(0)]),
            (SimTime::from_secs(0.2), 1, vec![lid(0)]),
        ];
        let plan = partition_scenario(4, issued.into_iter(), &FaultPlan::empty());
        assert_eq!(plan.parts[0].flows, vec![2, 0, 1]);
    }

    #[test]
    fn partitions_order_largest_first_deterministically() {
        let flows = vec![
            (SimTime::ZERO, vec![lid(3)]),
            (SimTime::ZERO, vec![lid(1)]),
            (SimTime::ZERO, vec![lid(1)]),
            (SimTime::ZERO, vec![lid(5)]),
        ];
        let plan = plan_of(8, &flows, &FaultPlan::empty());
        assert_eq!(plan.parts[0].root, 1); // two flows
        assert_eq!(plan.parts[0].flows, vec![1, 2]);
        assert_eq!(plan.parts[1].root, 3); // tie on size: smaller root
        assert_eq!(plan.parts[2].root, 5);
    }
}
