//! Multi-tenant control plane: task placement, client assignment, and
//! failure recovery.
//!
//! ```bash
//! cargo run --release --example multi_tenant
//! ```
//!
//! Demonstrates the Coordinator/Selector/Aggregator responsibilities of
//! Sections 4 and 6 and Appendix E.4: three tasks placed on two persistent
//! Aggregators by estimated workload, clients routed to tasks with positive
//! demand according to their capability tier, an Aggregator failure detected
//! through missed heartbeats, and the resulting reassignment propagating to
//! Selectors.  Every operation goes through the event-sourced
//! `ControlPlaneService`, as in a fleet run.

use papaya_sim::cluster::{Selector, TaskSpec};
use papaya_sim::ControlPlaneService;

fn main() {
    let mut service = ControlPlaneService::new(30.0, 7);
    service.register_aggregator(0, 0.0);
    service.register_aggregator(1, 0.0);

    // Three tenants with different scales and device requirements.
    let tasks = [
        TaskSpec {
            id: 0,
            name: "keyboard-lm".into(),
            concurrency: 2_000,
            model_size_bytes: 20_000_000,
            min_capability_tier: 0,
        },
        TaskSpec {
            id: 1,
            name: "speech-kws".into(),
            concurrency: 400,
            model_size_bytes: 5_000_000,
            min_capability_tier: 1,
        },
        TaskSpec {
            id: 2,
            name: "photo-ranker".into(),
            concurrency: 300,
            model_size_bytes: 50_000_000,
            min_capability_tier: 2,
        },
    ];
    for spec in tasks {
        let placed = service.submit_task(spec.clone());
        println!(
            "task {:>12} (workload {:>5} MB-clients) -> {placed:?}",
            spec.name,
            spec.estimated_workload() / 1_000_000
        );
    }
    println!(
        "aggregator loads: {:?}\n",
        service.coordinator().aggregator_loads()
    );

    // Aggregators report client demand; clients of different capability
    // tiers check in and are assigned to eligible tasks.
    service.report_demand(0, 500);
    service.report_demand(1, 100);
    service.report_demand(2, 50);
    let mut selector = Selector::new();
    selector.refresh(service.coordinator());
    for tier in [0u8, 1, 2] {
        match service.assign_client(tier) {
            Some((task, aggregator)) => println!(
                "client with capability tier {tier}: assigned to task {task}, routed to aggregator {aggregator}"
            ),
            None => println!("client with capability tier {tier}: no eligible task right now"),
        }
    }

    // Aggregator 0 stops heartbeating; its tasks are reassigned and stale
    // Selector maps are refreshed.
    println!("\naggregator 1 heartbeats, aggregator 0 goes silent...");
    service.heartbeat(1, 100.0);
    let sweep = service.detect_failures(100.0);
    println!(
        "failure sweep: failed {:?}, reassigned tasks {:?}, orphaned {:?}",
        sweep.failed, sweep.reassigned, sweep.orphaned
    );
    println!(
        "selector map stale? {}",
        selector.is_stale(service.coordinator())
    );
    selector.refresh(service.coordinator());
    println!(
        "selector map stale after refresh? {}",
        selector.is_stale(service.coordinator())
    );
    for task in [0usize, 1, 2] {
        let aggregator = service
            .coordinator()
            .aggregator_of(task)
            .expect("every task was placed");
        println!("  task {task} now routed to aggregator {aggregator}");
    }
}
