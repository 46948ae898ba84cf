//! Runtime parameter calibration (the paper's Dynamic Path Distribution
//! "dynamically compute\[s\] the model's parameters").
//!
//! Datasheet extraction (`mpx_topo::params`) reads each leg's bandwidth
//! off its narrowest link *in isolation*. That misses intra-path
//! resource sharing: a pipelined host-staged transfer drives its
//! device-to-host and host-to-device legs **simultaneously**, and both
//! cross the staging domain's DRAM channel — so each leg sustains only a
//! fair share of it. (This is the Narval pathology behind the paper's
//! Observation 3.)
//!
//! The probe measures instead: it injects one saturating flow per leg
//! *concurrently* on a scratch simulation and fits each leg's effective
//! bandwidth from its steady transfer rate. Latencies (`α`) and the sync
//! overhead (`ε`) keep their extracted values — a latency probe would
//! return the same numbers, since tiny messages don't contend.

use mpx_sim::{Engine, FlowId, FlowSpec, OnComplete};
use mpx_topo::params::{extract_path_params, LegParams, PathParams};
use mpx_topo::path::TransferPath;
use mpx_topo::{LinkId, Topology, TopologyError};
use std::sync::Arc;

/// Bytes per probe flow. Large enough that latency is negligible against
/// the transfer time on any realistic link.
pub const PROBE_BYTES: usize = 256 << 20;

/// [`probe_all_with`] against a live engine's current capacities, copied
/// out first so the engine is unlocked while the scratch one runs. Down
/// links report capacity 0, which a probe engine rejects; they read as a
/// dummy 1 B/s instead — callers keep dead routes out of the path sets
/// they probe, so the dummy never carries a share worth anything.
pub(crate) fn probe_live(
    eng: &Engine,
    paths: &[TransferPath],
) -> Result<Vec<PathParams>, TopologyError> {
    let caps: Vec<f64> =
        eng.with_capacities(|c| c.iter().map(|&v| if v > 0.0 { v } else { 1.0 }).collect());
    probe_all_with(eng.topology(), Some(&caps), paths)
}

/// Measures the effective per-leg bandwidths of every path of a candidate
/// set, each path with all of its legs active at once and nothing else on
/// the fabric, against `capacities` (the datasheet's when `None`). Returns
/// datasheet parameters with the probed `β` values substituted in.
///
/// One scratch engine serves the whole set, a round per path on the idle
/// fabric: virtual time is integer nanoseconds and a flow's progress
/// depends on differences of it only, so a round measures the same rates
/// whenever it starts.
pub(crate) fn probe_all_with(
    topo: &Arc<Topology>,
    capacities: Option<&[f64]>,
    paths: &[TransferPath],
) -> Result<Vec<PathParams>, TopologyError> {
    let mut all = (paths.iter())
        .map(|p| extract_path_params(topo, p))
        .collect::<Result<Vec<_>, _>>()?;
    let eng = Engine::with_tracing(topo.clone(), true);
    for (link, &c) in topo.links.iter().zip(capacities.unwrap_or(&[])) {
        if c != link.bandwidth {
            eng.set_link_capacity(link.id, c);
        }
    }
    for (path, params) in paths.iter().zip(&mut all) {
        // A direct path has nothing to contend with itself, but its
        // capacity may still have degraded.
        if path.legs.len() < 2 && capacities.is_none() {
            continue;
        }
        let betas = probe_round(&eng, path.legs.iter().map(|l| l.route.clone()));
        params.first.beta = betas[0];
        if let Some(second) = params.second.as_mut() {
            second.beta = betas[1];
        }
    }
    Ok(all)
}

/// Injects one `PROBE_BYTES` flow per route simultaneously on the idle
/// `eng` and returns each route's mean achieved rate (bytes/s).
fn probe_round(eng: &Engine, routes: impl Iterator<Item = Vec<LinkId>>) -> Vec<f64> {
    let flows: Vec<FlowId> = routes
        .map(|r| eng.start_flow(FlowSpec::new(r, PROBE_BYTES), OnComplete::Nothing))
        .collect();
    eng.run_until_idle();
    let trace = eng.take_trace();
    let rate = |id: &FlowId| {
        let rec = (trace.iter().find(|r| r.flow == *id)).expect("probe flow traced");
        rec.bytes as f64 / rec.completed.secs_since(rec.activated)
    };
    flows.iter().map(rate).collect()
}

/// A probed [`LegParams`] for a single route in isolation (used by tests
/// and the calibration example to cross-check `mpx_model::fit_hockney`).
pub fn probe_leg_isolated(topo: &Arc<Topology>, route: Vec<LinkId>) -> LegParams {
    let mut alpha = topo.overheads.copy_launch;
    for lid in &route {
        alpha += topo.link(*lid).expect("route link").latency;
    }
    let eng = Engine::with_tracing(topo.clone(), true);
    LegParams {
        alpha,
        beta: probe_round(&eng, std::iter::once(route))[0],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpx_topo::path::{enumerate_paths, PathSelection};
    use mpx_topo::presets;
    use mpx_topo::units::gb_per_s;

    #[test]
    fn direct_probe_equals_datasheet() {
        let topo = Arc::new(presets::beluga());
        let gpus = topo.gpus();
        let paths = enumerate_paths(&topo, gpus[0], gpus[1], PathSelection::DIRECT_ONLY).unwrap();
        let probed = probe_all_with(&topo, None, &paths).unwrap()[0];
        assert_eq!(probed.first.beta, gb_per_s(48.0));
    }

    #[test]
    fn gpu_staged_legs_are_disjoint_full_rate() {
        let topo = Arc::new(presets::beluga());
        let gpus = topo.gpus();
        let paths = enumerate_paths(&topo, gpus[0], gpus[1], PathSelection::TWO_GPUS).unwrap();
        let probed = probe_all_with(&topo, None, &paths).unwrap()[1];
        assert!((probed.first.beta - gb_per_s(48.0)).abs() < 1e6);
        assert!((probed.second.unwrap().beta - gb_per_s(48.0)).abs() < 1e6);
    }

    #[test]
    fn beluga_host_legs_keep_pcie_rate() {
        // DRAM (38 GB/s) comfortably carries two 12 GB/s PCIe legs.
        let topo = Arc::new(presets::beluga());
        let gpus = topo.gpus();
        let paths =
            enumerate_paths(&topo, gpus[0], gpus[1], PathSelection::THREE_GPUS_WITH_HOST).unwrap();
        let probed = *probe_all_with(&topo, None, &paths).unwrap().last().unwrap();
        assert!((probed.first.beta - gb_per_s(12.0)).abs() < 1e8);
        assert!((probed.second.unwrap().beta - gb_per_s(12.0)).abs() < 1e8);
    }

    #[test]
    fn narval_host_legs_halve_on_shared_dram() {
        // The Observation-3 pathology: both legs cross the 19 GB/s DRAM
        // channel, so each sustains ~9.5 GB/s — half the datasheet value.
        let topo = Arc::new(presets::narval());
        let gpus = topo.gpus();
        let paths =
            enumerate_paths(&topo, gpus[0], gpus[1], PathSelection::THREE_GPUS_WITH_HOST).unwrap();
        let host = paths.last().unwrap();
        let datasheet = extract_path_params(&topo, host).unwrap();
        let probed = *probe_all_with(&topo, None, &paths).unwrap().last().unwrap();
        assert!(datasheet.first.beta > gb_per_s(18.0));
        assert!(
            (probed.first.beta - gb_per_s(9.5)).abs() < 1e8,
            "probed {} GB/s",
            probed.first.beta / 1e9
        );
        assert!(probed.second.unwrap().beta < datasheet.second.unwrap().beta);
    }

    #[test]
    fn one_engine_per_set_measures_what_one_per_path_does() {
        // Rounds back to back on one scratch engine against a fresh engine
        // per path, to the bit: nominal, and with the first NVLink and the
        // first PCIe hop of the pair scaled (so rounds differ in which
        // link binds).
        for topo in [presets::beluga(), presets::narval()] {
            let topo = Arc::new(topo);
            let gpus = topo.gpus();
            let hm = topo.local_host_memory(gpus[0]).unwrap();
            let mut scaled: Vec<f64> = topo.links.iter().map(|l| l.bandwidth).collect();
            scaled[topo.link_between(gpus[0], gpus[1]).unwrap().id.index()] *= 0.37;
            scaled[topo.link_between(gpus[0], hm).unwrap().id.index()] *= 0.61;
            for (label, sel) in PathSelection::paper_grid() {
                let paths = enumerate_paths(&topo, gpus[0], gpus[1], sel).unwrap();
                for caps in [None, Some(&scaled[..])] {
                    let set = probe_all_with(&topo, caps, &paths).unwrap();
                    assert_eq!(set.len(), paths.len());
                    for (path, got) in paths.iter().zip(&set) {
                        let alone = std::slice::from_ref(path);
                        let want = probe_all_with(&topo, caps, alone).unwrap()[0];
                        let bits = |p: &PathParams| {
                            let second = p.second.map(|l| (l.alpha.to_bits(), l.beta.to_bits()));
                            (p.first.alpha.to_bits(), p.first.beta.to_bits(), second)
                        };
                        assert_eq!(bits(got), bits(&want), "{} {label} {caps:?}", topo.name);
                    }
                }
            }
        }
    }

    #[test]
    fn isolated_leg_probe_matches_bottleneck() {
        let topo = Arc::new(presets::narval());
        let gpus = topo.gpus();
        let hm = topo.local_host_memory(gpus[0]).unwrap();
        let route = vec![
            topo.link_between(gpus[0], hm).unwrap().id,
            topo.link_between(hm, hm).unwrap().id,
        ];
        let leg = probe_leg_isolated(&topo, route);
        // Alone, the leg runs at min(PCIe 24, DRAM 19) = 19 GB/s.
        assert!((leg.beta - gb_per_s(19.0)).abs() < 1e8, "{}", leg.beta);
        assert!(leg.alpha > 0.0);
    }
}
