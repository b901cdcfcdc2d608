//! Property-based tests for the Section II-B baselines: the lock manager
//! never double-grants, and timestamp certification never commits a stale
//! read.

use proptest::prelude::*;
use seve_baselines::locking::{LockDown, LockUp, LockingSuite};
use seve_baselines::timestamp::{TimestampSuite, TsDown};
use seve_core::engine::{ClientNode, ProtocolSuite, ServerNode};
use seve_net::time::SimTime;
use seve_world::ids::{ClientId, ObjectId};
use seve_world::worlds::dining::{DiningConfig, DiningWorld};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

fn ring(n: usize) -> Arc<DiningWorld> {
    Arc::new(DiningWorld::new(DiningConfig {
        philosophers: n,
        ..DiningConfig::default()
    }))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Feed the lock manager an arbitrary interleaving of grab requests and
    /// effect publications; at no instant may two granted transactions hold
    /// overlapping object sets.
    #[test]
    fn lock_manager_never_double_grants(
        order in proptest::sample::subsequence((0usize..8).collect::<Vec<_>>(), 8).prop_shuffle(),
        publish_mask in prop::collection::vec(any::<bool>(), 8)
    ) {
        let n = 8;
        let world = ring(n);
        let suite = LockingSuite;
        let (mut server, mut clients) =
            <LockingSuite as ProtocolSuite<DiningWorld>>::build(&suite, Arc::clone(&world));

        // Track currently-granted object sets per transaction.
        let mut held: HashMap<u64, Vec<ObjectId>> = HashMap::new();
        let mut granted_effects: Vec<(usize, LockDown)> = Vec::new();
        let mut down = Vec::new();

        let check_no_overlap = |held: &HashMap<u64, Vec<ObjectId>>| {
            let mut seen: HashSet<ObjectId> = HashSet::new();
            for objs in held.values() {
                for &o in objs {
                    prop_assert!(seen.insert(o), "object {o:?} granted twice");
                }
            }
            Ok(())
        };

        for (step, &i) in order.iter().enumerate() {
            let c = ClientId(i as u16);
            let grab = world.grab(c, 0);
            let objs: Vec<ObjectId> = grab.read_set_vec();
            let _ = objs;
            down.clear();
            let mut up = Vec::new();
            clients[i].submit(SimTime(step as u64), grab, &mut up);
            for m in up {
                server.deliver(SimTime(step as u64), c, m, &mut down);
            }
            for (dest, msg) in down.drain(..) {
                if let LockDown::Grant { pos, .. } = msg {
                    // Record what this grant holds (the grab's read set =
                    // phil + two forks).
                    let dest_grab = world.grab(dest, 0);
                    held.insert(pos, dest_grab.read_set_vec());
                    granted_effects.push((dest.index(), msg));
                }
            }
            check_no_overlap(&held)?;

            // Optionally publish one outstanding effect (releasing locks).
            if publish_mask[step] {
                if let Some((ci, LockDown::Grant { pos, id })) = granted_effects.pop() {
                    let mut up = Vec::new();
                    clients[ci].deliver(
                        SimTime(step as u64 + 1),
                        LockDown::Grant { pos, id },
                        &mut up,
                    );
                    down.clear();
                    for m in up {
                        if matches!(m, LockUp::Effect { .. }) {
                            held.remove(&pos);
                        }
                        server.deliver(SimTime(step as u64 + 1), ClientId(ci as u16), m, &mut down);
                    }
                    for (dest, msg) in down.drain(..) {
                        if let LockDown::Grant { pos, .. } = msg {
                            let dest_grab = world.grab(dest, 0);
                            held.insert(pos, dest_grab.read_set_vec());
                            granted_effects.push((dest.index(), msg));
                        }
                    }
                    check_no_overlap(&held)?;
                }
            }
        }
    }

    /// Timestamp ordering: whatever interleaving of tentative executions
    /// and certifications happens, the server only ever commits a
    /// transaction whose read versions were current — observable as the
    /// committed state never regressing an object version.
    #[test]
    fn timestamp_server_versions_are_monotone(
        submitters in prop::collection::vec(0usize..6, 1..20)
    ) {
        let n = 6;
        let world = ring(n);
        let suite = TimestampSuite;
        let (mut server, mut clients) =
            <TimestampSuite as ProtocolSuite<DiningWorld>>::build(&suite, Arc::clone(&world));
        let mut seqs = vec![0u32; n];
        let mut down = Vec::new();
        let mut last_pos = 0u64;
        for (step, &i) in submitters.iter().enumerate() {
            let c = ClientId(i as u16);
            let grab = world.grab(c, seqs[i]);
            seqs[i] += 1;
            let mut up = Vec::new();
            clients[i].submit(SimTime(step as u64), grab, &mut up);
            down.clear();
            for m in up {
                server.deliver(SimTime(step as u64), c, m, &mut down);
            }
            for (_, msg) in &down {
                match msg {
                    TsDown::Commit { pos, .. } | TsDown::Update { pos, .. } => {
                        prop_assert!(*pos >= last_pos, "positions never regress");
                        last_pos = (*pos).max(last_pos);
                    }
                    TsDown::Abort { .. } => {}
                }
            }
        }
    }
}

/// Helper: materialize a grab's read set as a vec (test-side convenience).
trait ReadSetVec {
    fn read_set_vec(&self) -> Vec<ObjectId>;
}

impl ReadSetVec for <DiningWorld as seve_world::GameWorld>::Action {
    fn read_set_vec(&self) -> Vec<ObjectId> {
        use seve_world::Action;
        self.read_set().iter().collect()
    }
}
