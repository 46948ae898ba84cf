//! Max-min fair rate allocation over shared links ("progressive
//! filling").
//!
//! Given link capacities and the set of links each flow traverses
//! (with multiplicity: a flow crossing a link twice consumes twice its
//! rate there), the algorithm repeatedly finds the most-contended link,
//! freezes every flow crossing it at the link's fair share, removes the
//! consumed capacity, and recurses on the rest. The result is the unique
//! max-min fair allocation: no flow's rate can be raised without lowering
//! that of a flow with an equal-or-smaller rate.
//!
//! This is what turns static link bandwidths into the *dynamic* contention
//! behaviour the paper observes: staged paths sharing a DRAM channel or a
//! UPI hop slow each other down exactly in proportion to how many of them
//! are active.

use std::ops::Deref;
use std::sync::Arc;

/// A folded route: `(link index, multiplicity)`, sorted by link index, no
/// link twice. Reads as a slice. Either one flow's own list, or the one
/// list every flow over a [`crate::Route::shared`] route points at.
#[derive(Debug, Clone)]
pub enum Links {
    /// One link crossed once, inline: a flow over a one-link owned route
    /// starts without allocating.
    One([(usize, f64); 1]),
    /// Folded for this flow, several links. A bare buffer, not an `Arc`
    /// with one owner: the two counters move a short list into the
    /// allocator's next size class, which `run_parallel` workers starting
    /// a flow per owned route measurably pay for (DESIGN §4, "Flow
    /// lifecycle").
    Owned(Box<[(usize, f64)]>),
    /// Folded once for the route; cloning bumps a reference count.
    Shared(Arc<[(usize, f64)]>),
}

impl Deref for Links {
    type Target = [(usize, f64)];
    fn deref(&self) -> &[(usize, f64)] {
        match self {
            Links::One(link) => link,
            Links::Owned(links) => links,
            Links::Shared(links) => links,
        }
    }
}

/// A flow's demand: the links it crosses, with multiplicity, and its
/// QoS weight.
#[derive(Debug, Clone)]
pub struct FlowDemand {
    /// `(link index, multiplicity)` — multiplicity counts how many times
    /// the route crosses the link.
    pub links: Links,
    /// Weighted-fair-share weight: where flows contend, rates divide in
    /// proportion to their weights.
    pub weight: f64,
}

impl Default for FlowDemand {
    fn default() -> Self {
        FlowDemand::new(Links::Owned(Box::new([])), 1.0)
    }
}

/// Merges the repeated links of a raw route into multiplicities.
/// Sort-and-fold, O(n log n); the list comes out sorted by link index (a
/// canonical order downstream consumers may rely on for reproducible
/// float accumulation). One allocation, unless a link repeats.
pub(crate) fn fold_links(route: impl Iterator<Item = usize>) -> Box<[(usize, f64)]> {
    let mut links: Vec<(usize, f64)> = route.map(|l| (l, 1.0)).collect();
    links.sort_unstable_by_key(|&(l, _)| l);
    links.dedup_by(|cur, kept| {
        if cur.0 == kept.0 {
            kept.1 += cur.1;
            true
        } else {
            false
        }
    });
    links.into_boxed_slice()
}

impl FlowDemand {
    /// A demand over an already folded link list (sorted by link index,
    /// no link twice).
    ///
    /// # Panics
    /// Panics unless `weight` is positive and finite.
    pub fn new(links: Links, weight: f64) -> FlowDemand {
        assert!(
            weight > 0.0 && weight.is_finite(),
            "invalid weight {weight}"
        );
        FlowDemand { links, weight }
    }

    /// Builds a weight-1 demand from a raw route, merging repeated links
    /// into multiplicities.
    pub fn from_route(route: &[usize]) -> FlowDemand {
        FlowDemand::from_route_weighted(route, 1.0)
    }

    /// Builds a demand with a QoS weight: where flows contend, a flow of
    /// weight `w` receives `w` times the rate of a weight-1 flow
    /// (classic weighted max-min fairness).
    ///
    /// # Panics
    /// Panics unless `weight > 0`.
    pub fn from_route_weighted(route: &[usize], weight: f64) -> FlowDemand {
        FlowDemand::new(Links::Owned(fold_links(route.iter().copied())), weight)
    }
}

/// Computes max-min fair rates (bytes/s) for `flows` over links with the
/// given `capacities` (bytes/s).
///
/// Flows with an empty demand are unconstrained and get `f64::INFINITY`.
///
/// # Panics
/// Panics if a flow references a link index out of range, or any capacity
/// is non-positive — both indicate topology construction bugs.
pub fn max_min_rates(capacities: &[f64], flows: &[FlowDemand]) -> Vec<f64> {
    for (i, c) in capacities.iter().enumerate() {
        assert!(*c > 0.0 && c.is_finite(), "link {i} capacity {c} invalid");
    }
    let mut rates = vec![f64::INFINITY; flows.len()];
    let mut frozen = vec![false; flows.len()];
    // Residual capacity per link after frozen flows' consumption.
    let mut residual = capacities.to_vec();
    // Total *weighted* multiplicity of unfrozen flows per link: a flow
    // of weight w and multiplicity m demands w·m per unit of fair share.
    let mut load = vec![0.0f64; capacities.len()];
    for (fi, f) in flows.iter().enumerate() {
        assert!(
            f.weight > 0.0 && f.weight.is_finite(),
            "flow {fi} has invalid weight {}",
            f.weight
        );
        if f.links.is_empty() {
            frozen[fi] = true; // unconstrained
            continue;
        }
        for &(l, m) in f.links.iter() {
            assert!(
                l < capacities.len(),
                "flow {fi} references unknown link {l}"
            );
            load[l] += f.weight * m;
        }
    }

    loop {
        // Most-contended link: minimal residual / weighted load.
        let mut best: Option<(usize, f64)> = None;
        for l in 0..residual.len() {
            if load[l] > 0.0 {
                let share = residual[l] / load[l];
                if best.is_none_or(|(_, s)| share < s) {
                    best = Some((l, share));
                }
            }
        }
        let Some((bottleneck, share_unit)) = best else {
            break; // all flows frozen
        };
        // Freeze every unfrozen flow crossing the bottleneck at its
        // weighted share.
        for (fi, f) in flows.iter().enumerate() {
            if frozen[fi] {
                continue;
            }
            if f.links.iter().any(|&(l, _)| l == bottleneck) {
                frozen[fi] = true;
                let rate = share_unit * f.weight;
                rates[fi] = rate;
                for &(l, m) in f.links.iter() {
                    residual[l] = (residual[l] - rate * m).max(0.0);
                    load[l] -= f.weight * m;
                }
            }
        }
        // Numerical safety: the bottleneck must now be unloaded.
        load[bottleneck] = 0.0;
    }
    rates
}

/// Heap entry: a link's fair share per unit weight at the time it was
/// (re)inserted. Ordered ascending by share, ties broken by link index so
/// the heap selects the same bottleneck as `max_min_rates`' linear scan.
#[derive(Debug, Clone, Copy, PartialEq)]
struct LinkShare {
    share: f64,
    link: usize,
}

impl Eq for LinkShare {}

impl PartialOrd for LinkShare {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for LinkShare {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.share
            .total_cmp(&other.share)
            .then(self.link.cmp(&other.link))
    }
}

/// Reusable state for the fast progressive-filling allocator
/// ([`FairShareScratch::compute_with`]). All buffers persist between
/// calls, so steady-state recomputation allocates nothing; per-link
/// state is epoch-stamped and lazily reset, so a call touching `k` links
/// costs O(k + flows), not O(total links).
#[derive(Debug, Default)]
pub struct FairShareScratch {
    /// Residual capacity per link (valid where `mark == epoch`).
    residual: Vec<f64>,
    /// Total weighted multiplicity of unfrozen flows per link.
    load: Vec<f64>,
    /// Flow indices crossing each link (this call's flows).
    link_flows: Vec<Vec<u32>>,
    /// Epoch stamp marking which per-link entries are current.
    mark: Vec<u64>,
    epoch: u64,
    /// Links referenced by this call's flows, in first-seen order.
    touched: Vec<usize>,
    /// Lazy min-heap over links keyed by `residual / load`.
    heap: std::collections::BinaryHeap<std::cmp::Reverse<LinkShare>>,
    frozen: Vec<bool>,
}

impl FairShareScratch {
    /// Computes max-min fair rates for `n` flows (accessed through
    /// `flow`, indexed `0..n`) into `rates`, clearing it first.
    ///
    /// Produces the same allocation as [`max_min_rates`] (verified by
    /// proptest against that oracle): each freeze round picks the
    /// bottleneck from a lazily-rebuilt min-heap over links — near
    /// O(log L) per round — instead of rescanning every link and flow.
    /// Freeze order within a round follows flow index order, matching
    /// the oracle's float-operation order, so agreement is exact up to
    /// bottleneck-selection rounding.
    ///
    /// Only links actually referenced by the flows are touched or
    /// validated; `capacities` entries for untouched links are ignored.
    ///
    /// # Panics
    /// Panics on referenced links out of range or with non-positive
    /// capacity, and on non-positive flow weights.
    pub fn compute_with<'a, F>(
        &mut self,
        capacities: &[f64],
        n: usize,
        flow: F,
        rates: &mut Vec<f64>,
    ) where
        F: Fn(usize) -> &'a FlowDemand,
    {
        rates.clear();
        rates.resize(n, f64::INFINITY);
        self.frozen.clear();
        self.frozen.resize(n, false);
        self.heap.clear();
        if self.residual.len() < capacities.len() {
            self.residual.resize(capacities.len(), 0.0);
            self.load.resize(capacities.len(), 0.0);
            self.link_flows.resize_with(capacities.len(), Vec::new);
            self.mark.resize(capacities.len(), 0);
        }
        self.epoch += 1;
        let epoch = self.epoch;
        self.touched.clear();

        // Build per-link loads and flow lists (flow-index order, so the
        // freeze pass below replays the oracle's float ops exactly).
        for fi in 0..n {
            let f = flow(fi);
            assert!(
                f.weight > 0.0 && f.weight.is_finite(),
                "flow {fi} has invalid weight {}",
                f.weight
            );
            if f.links.is_empty() {
                self.frozen[fi] = true; // unconstrained
                continue;
            }
            for &(l, m) in f.links.iter() {
                assert!(
                    l < capacities.len(),
                    "flow {fi} references unknown link {l}"
                );
                if self.mark[l] != epoch {
                    self.mark[l] = epoch;
                    let c = capacities[l];
                    assert!(c > 0.0 && c.is_finite(), "link {l} capacity {c} invalid");
                    self.residual[l] = c;
                    self.load[l] = 0.0;
                    self.link_flows[l].clear();
                    self.touched.push(l);
                }
                self.load[l] += f.weight * m;
                self.link_flows[l].push(fi as u32);
            }
        }
        // Seed the heap: one entry per loaded link.
        for &l in &self.touched {
            if self.load[l] > 0.0 {
                self.heap.push(std::cmp::Reverse(LinkShare {
                    share: self.residual[l] / self.load[l],
                    link: l,
                }));
            }
        }

        // Freeze rounds: pop the minimal-share link, validating lazily.
        while let Some(std::cmp::Reverse(entry)) = self.heap.pop() {
            let l = entry.link;
            if self.load[l] <= 0.0 {
                continue; // fully frozen link; stale entry
            }
            let current = self.residual[l] / self.load[l];
            if current != entry.share {
                // Stale (flows froze since insertion): shares only grow,
                // so reinsert at the current value and keep popping.
                self.heap.push(std::cmp::Reverse(LinkShare {
                    share: current,
                    link: l,
                }));
                continue;
            }
            let share_unit = current;
            // Freeze every unfrozen flow crossing the bottleneck, in
            // flow-index order (the lists are built in that order).
            let flows_here = std::mem::take(&mut self.link_flows[l]);
            for &fi in &flows_here {
                let fi = fi as usize;
                if self.frozen[fi] {
                    continue;
                }
                let f = flow(fi);
                self.frozen[fi] = true;
                let rate = share_unit * f.weight;
                rates[fi] = rate;
                for &(l2, m) in f.links.iter() {
                    self.residual[l2] = (self.residual[l2] - rate * m).max(0.0);
                    self.load[l2] -= f.weight * m;
                }
            }
            self.link_flows[l] = flows_here;
            // Numerical safety, mirroring the oracle: the bottleneck is
            // now fully frozen.
            self.load[l] = 0.0;
        }
    }
}

/// [`max_min_rates`] semantics via the fast per-link-list + heap
/// allocator. One-shot convenience over [`FairShareScratch::compute_with`];
/// hot paths should hold a scratch and reuse it.
pub fn max_min_rates_fast(capacities: &[f64], flows: &[FlowDemand]) -> Vec<f64> {
    let mut scratch = FairShareScratch::default();
    let mut rates = Vec::new();
    scratch.compute_with(capacities, flows.len(), |i| &flows[i], &mut rates);
    rates
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demand(route: &[usize]) -> FlowDemand {
        FlowDemand::from_route(route)
    }

    #[test]
    fn single_flow_gets_min_capacity_on_route() {
        let rates = max_min_rates(&[10.0, 4.0, 8.0], &[demand(&[0, 1, 2])]);
        assert_eq!(rates, vec![4.0]);
    }

    #[test]
    fn two_flows_share_a_link_equally() {
        let rates = max_min_rates(&[10.0], &[demand(&[0]), demand(&[0])]);
        assert_eq!(rates, vec![5.0, 5.0]);
    }

    #[test]
    fn disjoint_flows_do_not_interfere() {
        let rates = max_min_rates(&[10.0, 6.0], &[demand(&[0]), demand(&[1])]);
        assert_eq!(rates, vec![10.0, 6.0]);
    }

    #[test]
    fn bottlenecked_flow_releases_capacity_elsewhere() {
        // Flow 0 crosses links 0 and 1; flow 1 only link 1.
        // Link 0 = 2 is the bottleneck for flow 0, so flow 1 receives the
        // rest of link 1's capacity: 10 - 2 = 8.
        let rates = max_min_rates(&[2.0, 10.0], &[demand(&[0, 1]), demand(&[1])]);
        assert_eq!(rates, vec![2.0, 8.0]);
    }

    #[test]
    fn classic_three_flow_example() {
        // Links A=10, B=10. Flows: f0 on A, f1 on B, f2 on A+B.
        // Fair: f2 = 5, then f0 = f1 = 5. All equal here.
        let rates = max_min_rates(
            &[10.0, 10.0],
            &[demand(&[0]), demand(&[1]), demand(&[0, 1])],
        );
        assert_eq!(rates, vec![5.0, 5.0, 5.0]);
    }

    #[test]
    fn multiplicity_counts_double() {
        // One flow crossing the same link twice can only move cap/2.
        let rates = max_min_rates(&[10.0], &[demand(&[0, 0])]);
        assert_eq!(rates, vec![5.0]);
    }

    #[test]
    fn multiplicity_shares_with_single_crossers() {
        // Flow 0 crosses twice, flow 1 once: loads are 2 and 1; the fair
        // share per crossing is 10/3, flow rates are the same share.
        let rates = max_min_rates(&[10.0], &[demand(&[0, 0]), demand(&[0])]);
        assert!((rates[0] - 10.0 / 3.0).abs() < 1e-12);
        assert!((rates[1] - 10.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn weighted_flows_split_proportionally() {
        // Weight 3 vs weight 1 on a 12-unit link: 9 vs 3.
        let rates = max_min_rates(
            &[12.0],
            &[
                FlowDemand::from_route_weighted(&[0], 3.0),
                FlowDemand::from_route_weighted(&[0], 1.0),
            ],
        );
        assert!((rates[0] - 9.0).abs() < 1e-12, "rates {rates:?}");
        assert!((rates[1] - 3.0).abs() < 1e-12, "rates {rates:?}");
    }

    #[test]
    fn weighted_flow_respects_other_bottlenecks() {
        // The heavy flow also crosses a private 2-unit link: its weighted
        // entitlement (9) is capped there, and the light flow picks up
        // the released capacity.
        let rates = max_min_rates(
            &[12.0, 2.0],
            &[
                FlowDemand::from_route_weighted(&[0, 1], 3.0),
                FlowDemand::from_route_weighted(&[0], 1.0),
            ],
        );
        assert!((rates[0] - 2.0).abs() < 1e-12, "rates {rates:?}");
        assert!((rates[1] - 10.0).abs() < 1e-12, "rates {rates:?}");
    }

    #[test]
    #[should_panic(expected = "invalid weight")]
    fn zero_weight_rejected() {
        FlowDemand::from_route_weighted(&[0], 0.0);
    }

    #[test]
    fn empty_demand_is_unconstrained() {
        let rates = max_min_rates(&[10.0], &[FlowDemand::default(), demand(&[0])]);
        assert_eq!(rates[0], f64::INFINITY);
        assert_eq!(rates[1], 10.0);
    }

    #[test]
    fn no_flows_no_rates() {
        assert!(max_min_rates(&[1.0, 2.0], &[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_panics() {
        max_min_rates(&[0.0], &[demand(&[0])]);
    }

    #[test]
    #[should_panic(expected = "unknown link")]
    fn out_of_range_link_panics() {
        max_min_rates(&[1.0], &[demand(&[3])]);
    }

    #[test]
    fn staged_bibw_contention_shape() {
        // The Observation-5 scenario in miniature: a DRAM channel (link 2,
        // 38 GB/s) crossed by four staging flows (two directions × two
        // legs), while each leg also crosses its own PCIe link (12 GB/s).
        // PCIe is the bottleneck while DRAM load is light; once four legs
        // are active the DRAM channel (38/4 = 9.5) throttles all of them.
        let caps = [12.0, 12.0, 38.0, 12.0, 12.0];
        let two = max_min_rates(&caps, &[demand(&[0, 2]), demand(&[2, 1])]);
        assert_eq!(two, vec![12.0, 12.0]);
        let four = max_min_rates(
            &caps,
            &[
                demand(&[0, 2]),
                demand(&[2, 1]),
                demand(&[3, 2]),
                demand(&[2, 4]),
            ],
        );
        for r in &four {
            assert!((r - 9.5).abs() < 1e-12, "rates {four:?}");
        }
    }

    // Property-based checks of the max-min definition.
    mod props {
        use super::*;
        use proptest::prelude::*;

        fn arb_case() -> impl Strategy<Value = (Vec<f64>, Vec<FlowDemand>)> {
            (2usize..6).prop_flat_map(|nlinks| {
                let caps = proptest::collection::vec(1.0f64..100.0, nlinks);
                let flows = proptest::collection::vec(
                    proptest::collection::vec(0usize..nlinks, 1..4),
                    1..8,
                )
                .prop_map(|routes| {
                    routes
                        .iter()
                        .map(|r| FlowDemand::from_route(r))
                        .collect::<Vec<_>>()
                });
                (caps, flows)
            })
        }

        proptest! {
            #[test]
            fn no_link_oversubscribed((caps, flows) in arb_case()) {
                let rates = max_min_rates(&caps, &flows);
                let mut used = vec![0.0; caps.len()];
                for (f, r) in flows.iter().zip(&rates) {
                    for &(l, m) in f.links.iter() {
                        used[l] += r * m;
                    }
                }
                for (l, (&u, &c)) in used.iter().zip(&caps).enumerate() {
                    prop_assert!(u <= c * (1.0 + 1e-9), "link {l}: used {u} > cap {c}");
                }
            }

            #[test]
            fn every_flow_has_a_saturated_bottleneck((caps, flows) in arb_case()) {
                // Max-min property: each flow crosses at least one link that
                // is (numerically) fully utilized — otherwise its rate could
                // be raised without hurting anyone.
                let rates = max_min_rates(&caps, &flows);
                let mut used = vec![0.0; caps.len()];
                for (f, r) in flows.iter().zip(&rates) {
                    for &(l, m) in f.links.iter() {
                        used[l] += r * m;
                    }
                }
                for (fi, f) in flows.iter().enumerate() {
                    let has_bottleneck = f
                        .links
                        .iter()
                        .any(|&(l, _)| used[l] >= caps[l] * (1.0 - 1e-9));
                    prop_assert!(has_bottleneck, "flow {fi} rate {} has slack everywhere", rates[fi]);
                }
            }

            #[test]
            fn rates_positive((caps, flows) in arb_case()) {
                for (fi, r) in max_min_rates(&caps, &flows).iter().enumerate() {
                    prop_assert!(*r > 0.0, "flow {fi} rate {r}");
                }
            }
        }
    }
}
