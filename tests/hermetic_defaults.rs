//! The library crates compute an execution from their builder arguments
//! alone: with every knob `le_bench` reads set to a non-default value, a
//! default build equals the same build with the defaults spelled out, and
//! no profiler span records. Configuration enters through `le_bench`
//! only.

use improved_le::algorithms::asynchronous::tradeoff as a_tr;
use improved_le::algorithms::sync::improved_tradeoff;
use improved_le::asynchronous::{AsyncSimBuilder, AsyncWakeSchedule, NetworkConfig};
use improved_le::model::ports::PortBackend;
use improved_le::model::prof::{self, TrialProfile};
use improved_le::model::{NodeIndex, Topology};
use improved_le::sync::SyncSimBuilder;

const N: usize = 64;

#[test]
fn default_builds_ignore_the_environment() {
    for (knob, value) in [
        ("LE_BACKEND", "sparse"),
        ("LE_TOPOLOGY", "ring"),
        ("LE_LOSS", "0.1"),
        ("LE_CRASH", "0.05"),
        ("LE_TRACE", "all"),
        ("LE_PROF", "1"),
    ] {
        std::env::set_var(knob, value);
    }

    let cfg = improved_tradeoff::Config::with_rounds(5);
    let sync = |builder: SyncSimBuilder| {
        let o = builder
            .seed(0)
            .build(|id, n| improved_tradeoff::Node::new(id, n, cfg))
            .expect("valid configuration")
            .run()
            .expect("no resolver faults");
        (o.rounds, o.stats.total(), o.unique_leader())
    };
    let explicit = SyncSimBuilder::new(N)
        .backend(PortBackend::Auto)
        .topology(Topology::clique(N).expect("n >= 2"));
    assert_eq!(sync(SyncSimBuilder::new(N)), sync(explicit));

    let asynch = |builder: AsyncSimBuilder| {
        let o = builder
            .seed(0)
            .wake(AsyncWakeSchedule::single(NodeIndex(0)))
            .build(|_, _| a_tr::Node::new(a_tr::Config::new(2)))
            .expect("valid configuration")
            .run()
            .expect("no resolver faults");
        (o.time.to_bits(), o.stats.total(), o.unique_leader())
    };
    let explicit = AsyncSimBuilder::new(N)
        .backend(PortBackend::Auto)
        .topology(Topology::clique(N).expect("n >= 2"))
        .network(NetworkConfig::new());
    assert_eq!(asynch(AsyncSimBuilder::new(N)), asynch(explicit));

    assert_eq!(prof::take_trial(), TrialProfile::default());
}
