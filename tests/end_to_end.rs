//! Cross-crate integration tests: every routing mechanism, both flow controls, all
//! main traffic patterns, on a small but complete Dragonfly.
//!
//! These tests exercise the full stack (topology → traffic → simulator → routing →
//! statistics → experiment harness) exactly the way the figure binaries do, just at a
//! reduced scale so they stay fast in debug builds.

use dragonfly::core::{ExperimentSpec, FlowControlKind, RoutingKind, RunOptions, TrafficKind};

fn quick_spec(
    routing: RoutingKind,
    traffic: TrafficKind,
    flow: FlowControlKind,
    load: f64,
) -> ExperimentSpec {
    let mut spec = ExperimentSpec::new(2);
    spec.routing = routing;
    spec.traffic = traffic;
    spec.flow_control = flow;
    spec.offered_load = load;
    spec.warmup = 800;
    spec.measure = 1_500;
    spec.drain = 2_500;
    spec.seed = 1234;
    spec
}

#[test]
fn every_mechanism_delivers_uniform_traffic_under_vct() {
    for kind in RoutingKind::ALL {
        let report = quick_spec(kind, TrafficKind::Uniform, FlowControlKind::Vct, 0.1).run();
        assert!(!report.deadlock_detected, "{kind:?} deadlocked");
        assert!(
            report.packets_measured > 50,
            "{kind:?} delivered too few packets: {}",
            report.packets_measured
        );
        assert!(
            (report.accepted_load - 0.1).abs() < 0.05,
            "{kind:?} accepted {} at offered 0.1",
            report.accepted_load
        );
        assert!(report.avg_hops <= 8.0, "{kind:?} exceeded the 8-hop bound");
        assert_eq!(report.routing, kind.name());
    }
}

#[test]
fn wormhole_capable_mechanisms_deliver_under_wormhole() {
    for kind in RoutingKind::ALL {
        if !kind.supports_wormhole() {
            continue;
        }
        let report = quick_spec(kind, TrafficKind::Uniform, FlowControlKind::Wormhole, 0.1).run();
        assert!(!report.deadlock_detected, "{kind:?} deadlocked under WH");
        assert!(
            report.packets_measured > 10,
            "{kind:?}: {}",
            report.packets_measured
        );
        assert!(
            (report.accepted_load - 0.1).abs() < 0.06,
            "{kind:?}: {}",
            report.accepted_load
        );
    }
}

#[test]
fn adaptive_mechanisms_survive_adversarial_saturation() {
    // Offered load of 1.0 under ADVG+h is far beyond what any mechanism can accept;
    // the point is that the adaptive mechanisms neither deadlock nor stop delivering.
    for kind in [RoutingKind::Par62, RoutingKind::Rlm, RoutingKind::Olm] {
        let report = quick_spec(
            kind,
            TrafficKind::AdversarialGlobal(2),
            FlowControlKind::Vct,
            1.0,
        )
        .run();
        assert!(
            !report.deadlock_detected,
            "{kind:?} deadlocked at saturation"
        );
        assert!(
            report.accepted_load > 0.08,
            "{kind:?} collapsed under ADVG+h: {}",
            report.accepted_load
        );
    }
}

#[test]
fn adversarial_local_traffic_is_survived_by_all_mechanisms() {
    for kind in RoutingKind::ALL {
        let report = quick_spec(
            kind,
            TrafficKind::AdversarialLocal(1),
            FlowControlKind::Vct,
            0.4,
        )
        .run();
        assert!(
            !report.deadlock_detected,
            "{kind:?} deadlocked under ADVL+1"
        );
        assert!(report.packets_measured > 50, "{kind:?}");
    }
}

#[test]
fn burst_mode_delivers_every_packet_for_every_mechanism() {
    for kind in RoutingKind::ALL {
        let spec = quick_spec(
            kind,
            TrafficKind::Mixed {
                global_fraction: 0.5,
                global_offset: 2,
                local_offset: 1,
            },
            FlowControlKind::Vct,
            1.0,
        );
        let report = spec
            .execute_batch(3, 300_000, &RunOptions::default())
            .report;
        assert!(
            !report.deadlock_detected,
            "{kind:?} deadlocked in burst mode"
        );
        assert!(!report.timed_out, "{kind:?} timed out in burst mode");
        assert_eq!(
            report.packets_delivered, report.packets_total,
            "{kind:?} lost packets"
        );
        assert!(report.consumption_cycles > 0);
    }
}

/// Paper-scale wormhole/ADVL point (ROADMAP wormhole-scenario item): the PERCS-like
/// WH configuration at the paper's h = 8 under adversarial-local traffic, where
/// local-misrouting mechanisms must beat the 1/h minimal bound.
///
/// Ignored by default — run with `cargo test --release -- --ignored wh_advl`.
#[test]
#[ignore = "paper scale (16k nodes); run in release mode"]
fn wh_advl_paper_scale_point() {
    let mut spec = ExperimentSpec::new(8);
    spec.routing = RoutingKind::Rlm;
    spec.flow_control = FlowControlKind::Wormhole;
    spec.traffic = TrafficKind::AdversarialLocal(1);
    spec.offered_load = 0.3;
    spec.warmup = 3_000;
    spec.measure = 4_000;
    spec.drain = 6_000;
    spec.seed = 29;
    let report = spec.run();
    assert!(!report.deadlock_detected);
    // Minimal routing would cap at 1/h = 0.125; RLM's local misrouting must beat it.
    assert!(
        report.accepted_load > 0.15,
        "RLM under WH/ADVL+1 accepted only {}",
        report.accepted_load
    );
    assert!(report.local_misroute_fraction > 0.1);
}

#[test]
fn reports_serialize_to_csv_rows() {
    let report = quick_spec(
        RoutingKind::Olm,
        TrafficKind::Uniform,
        FlowControlKind::Vct,
        0.1,
    )
    .run();
    let row = report.csv_row();
    assert_eq!(
        row.split(',').count(),
        dragonfly::stats::SimReport::csv_header().split(',').count()
    );
    assert!(row.starts_with("OLM,UN,"));
}
