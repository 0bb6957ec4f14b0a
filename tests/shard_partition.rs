//! Partitioned shard storage: each shard allocates only its own groups'
//! routers and link pipelines, plus one-cycle staging rings on its boundary
//! links (see `Network::with_owned_groups`).
//!
//! * The footprint test pins the exact element counts of every shard's
//!   pipeline, VC-slot and arena storage — a noise-free memory signal.
//! * The saturation tier drives the boundary links past saturation, where
//!   boundary credit bursts reach the per-VC staging bound, and checks that
//!   sharded ≡ sequential still holds byte for byte.  A staging ring that is
//!   one element too small panics on overflow.

use dragonfly::core::{ExperimentSpec, FlowControlKind, RoutingKind, TrafficKind};
use dragonfly::routing::RoutingVisitor;
use dragonfly::shard::{ShardPlan, ShardedSimulation};
use dragonfly::sim::{
    BaselineMinimal, LinkEnd, Network, RoutingAlgorithm, SimConfig, StorageFootprint,
};
use dragonfly::stats::SimReport;
use dragonfly::topology::{DragonflyParams, Port, RouterId};
use dragonfly::traffic::Uniform;
use std::ops::Range;

/// Global links leaving the group range `owned` (by symmetry of the global
/// wiring, as many enter it): the shard's boundary-link count per direction.
fn boundary_links(params: &DragonflyParams, owned: &Range<usize>) -> usize {
    let rpg = params.routers_per_group();
    (owned.start * rpg..owned.end * rpg)
        .flat_map(|r| (0..params.h()).map(move |g| (r, g)))
        .filter(|&(r, g)| {
            let (nbr, _) = params.neighbor(RouterId(r as u32), Port::Global(g));
            !owned.contains(&params.group_of_router(nbr).index())
        })
        .count()
}

/// The staging storage of `links` boundary links per direction: one phit per
/// transmit-side link and one credit per global VC per receive-side link.
fn staging(config: &SimConfig, links: usize) -> StorageFootprint {
    StorageFootprint {
        phit_slots: links,
        credit_slots: links * config.global_vcs,
        ..StorageFootprint::default()
    }
}

/// `groups` of the machine's `total` groups' share of `seq`, rounded down.
fn share(seq: StorageFootprint, groups: usize, total: usize) -> StorageFootprint {
    StorageFootprint {
        phit_slots: seq.phit_slots * groups / total,
        credit_slots: seq.credit_slots * groups / total,
        vc_slots: seq.vc_slots * groups / total,
        arena_packets: seq.arena_packets * groups / total,
    }
}

#[test]
fn shard_footprints_are_group_shares_plus_boundary_staging() {
    for h in [2, 3, 4] {
        let config = SimConfig::paper_vct(h);
        let params = config.params;
        let seq = Network::with_routing(
            config.clone(),
            BaselineMinimal::new(),
            Box::new(Uniform::new()),
        )
        .storage_footprint();
        // Every group is wired identically, so the pools split evenly.
        assert_eq!(seq.phit_slots % params.groups(), 0);
        assert_eq!(seq.credit_slots % params.groups(), 0);
        for shards in [1, 2, 3, 4] {
            let sim = ShardedSimulation::new(
                config.clone(),
                ShardPlan::new(shards),
                BaselineMinimal::new(),
                || Box::new(Uniform::new()),
            );
            let mut total_staging = StorageFootprint::default();
            for s in 0..shards {
                let net = sim.network(s);
                let groups = net.owned_groups();
                let stage = staging(&config, boundary_links(&params, &groups));
                assert_eq!(
                    net.storage_footprint(),
                    share(seq, groups.len(), params.groups()) + stage,
                    "h = {h}, shard {s} of {shards} (groups {groups:?})"
                );
                total_staging = total_staging + stage;
            }
            let sum = sim.storage_footprint();
            if shards == 1 {
                assert_eq!(sum, seq, "h = {h}: one shard owning every group");
            }
            let bound = seq + total_staging;
            assert!(
                sum.phit_slots <= bound.phit_slots,
                "h = {h}, {shards} shards"
            );
            assert!(
                sum.credit_slots <= bound.credit_slots,
                "h = {h}, {shards} shards"
            );
            assert!(sum.vc_slots <= bound.vc_slots, "h = {h}, {shards} shards");
            assert!(
                sum.arena_packets <= bound.arena_packets,
                "h = {h}, {shards} shards"
            );
            assert!(sum.bytes() <= bound.bytes(), "h = {h}, {shards} shards");
        }
    }
}

#[test]
fn remote_routers_are_portless_stubs() {
    let config = SimConfig::paper_vct(2);
    let sim = ShardedSimulation::new(config, ShardPlan::new(3), BaselineMinimal::new(), || {
        Box::new(Uniform::new())
    });
    for s in 0..sim.shards() {
        let net = sim.network(s);
        let owned = net.owned_routers();
        for (r, router) in net.routers.iter().enumerate() {
            assert_eq!(router.id.index(), r);
            assert_eq!(router.inputs.is_empty(), !owned.contains(&r), "router {r}");
            assert_eq!(router.slot_pool.is_empty(), !owned.contains(&r));
        }
    }
}

/// Runs one spec on the sharded engine and reports, next to the report, the
/// highest occupancy any receive-side credit staging ring reached.
struct SaturatedRun<'a> {
    spec: &'a ExperimentSpec,
    shards: usize,
}

impl RoutingVisitor for SaturatedRun<'_> {
    type Output = (SimReport, usize);

    fn visit<R: RoutingAlgorithm + Clone + 'static>(self, routing: R) -> Self::Output {
        let spec = self.spec;
        let params = spec.sim_config().params;
        let mut sim = ShardedSimulation::new(
            spec.sim_config(),
            ShardPlan::new(self.shards),
            routing,
            || spec.traffic.build(&params),
        );
        let report = sim.run_steady_state(spec.offered_load, spec.warmup, spec.measure, spec.drain);
        let ports = params.ports_per_router();
        let mut credit_burst = 0;
        for s in 0..self.shards {
            let net = sim.network(s);
            let owned = net.owned_routers();
            for li in 0..net.num_links() {
                if let LinkEnd::Router { router, .. } = net.link_end(li) {
                    if owned.contains(&router) && !owned.contains(&(li / ports)) {
                        credit_burst = credit_burst.max(net.link_high_waters(li).1);
                    }
                }
            }
        }
        (report, credit_burst)
    }
}

/// ADVG+h at load 0.8 on the 19-group h = 3 machine, split into two or three
/// uneven group ranges: far past saturation every boundary link is busy, and
/// a receive-side boundary link returns a credit on every global VC in one
/// cycle — exactly the staging bound.
#[test]
fn saturated_boundary_links_stay_shard_invariant() {
    for (fc, routings) in [
        (
            FlowControlKind::Vct,
            [RoutingKind::Valiant, RoutingKind::Olm],
        ),
        (
            FlowControlKind::Wormhole,
            [RoutingKind::Valiant, RoutingKind::Par62],
        ),
    ] {
        for routing in routings {
            let mut spec = ExperimentSpec::new(3);
            spec.routing = routing;
            spec.flow_control = fc;
            spec.traffic = TrafficKind::advg_h(3);
            spec.offered_load = 0.8;
            spec.seed = 31;
            spec.warmup = 400;
            spec.measure = 800;
            spec.drain = 400;
            let sequential = spec.run();
            assert!(sequential.packets_measured > 0, "{routing:?}/{fc:?}");
            let global_vcs = spec.sim_config().global_vcs;
            for shards in [2, 3] {
                let (sharded, credit_burst) = routing.dispatch(
                    dragonfly::core::AdaptiveParams::with_threshold(spec.threshold),
                    SaturatedRun {
                        spec: &spec,
                        shards,
                    },
                );
                assert_eq!(
                    sharded, sequential,
                    "{routing:?} under {fc:?} diverged with {shards} shards"
                );
                assert_eq!(
                    credit_burst, global_vcs,
                    "{routing:?}/{fc:?}, {shards} shards: the credit staging bound \
                     was never reached, so the tier does not exercise it"
                );
            }
        }
    }
}
