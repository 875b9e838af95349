//! Both engines' builders check the settings they share the same way:
//! an ID assignment or a topology whose size is not the builder's `n`
//! returns the same [`ModelError`] from either builder, before anything
//! runs.

use improved_le::asynchronous::{self, AsyncArena, AsyncContext, AsyncNode, AsyncSimBuilder};
use improved_le::model::{Decision, Id, IdAssignment, ModelError, NodeIndex, Topology, WakeCause};
use improved_le::sync::{Context, Received, SyncArena, SyncNode, SyncSimBuilder};

/// A node that never acts; the builders reject every setting below
/// before a node runs.
struct Inert;

impl SyncNode for Inert {
    type Message = ();
    fn send_phase(&mut self, _: &mut Context<'_, ()>) {}
    fn receive_phase(&mut self, _: &mut Context<'_, ()>, _: &[Received<()>]) {}
    fn decision(&self) -> Decision {
        Decision::Undecided
    }
}

impl AsyncNode for Inert {
    type Message = ();
    fn on_wake(&mut self, _: &mut AsyncContext<'_, ()>, _: WakeCause) {}
    fn on_message(&mut self, _: &mut AsyncContext<'_, ()>, _: asynchronous::Received<()>) {}
    fn decision(&self) -> Decision {
        Decision::Undecided
    }
}

#[test]
fn both_builders_reject_ids_and_topologies_of_another_size() {
    let n = 6;
    for len in [4, 8] {
        let ids = || IdAssignment::new((1..=len as u64).map(Id).collect()).unwrap();
        let wrong_ids = Some(ModelError::NodeOutOfRange {
            node: NodeIndex(len),
            n,
        });
        let built = SyncSimBuilder::new(n)
            .ids(ids())
            .build_in(&mut SyncArena::new(), |_, _| Inert);
        assert_eq!(built.err(), wrong_ids, "sync, {len} IDs");
        let built = AsyncSimBuilder::new(n)
            .ids(ids())
            .build_in(&mut AsyncArena::new(), |_, _| Inert);
        assert_eq!(built.err(), wrong_ids, "async, {len} IDs");

        let ring = || Topology::ring(len).unwrap();
        let wrong_topology = Some(ModelError::InvalidTopology {
            reason: "topology node count does not match the builder's n",
        });
        let built = SyncSimBuilder::new(n)
            .topology(ring())
            .build_in(&mut SyncArena::new(), |_, _| Inert);
        assert_eq!(built.err(), wrong_topology, "sync, {len}-node ring");
        let built = AsyncSimBuilder::new(n)
            .topology(ring())
            .build_in(&mut AsyncArena::new(), |_, _| Inert);
        assert_eq!(built.err(), wrong_topology, "async, {len}-node ring");
    }
}
