//! `on_call_failed` coverage: what a coordinator does when an RPC bounces
//! off a crashed peer, exercised through the sans-I/O [`StepDriver`]
//! (delivering a message to a down node steps the *sender* with
//! [`Input::CallFailed`]).
//!
//! Two paths with non-trivial bounce semantics are covered here:
//!
//! * **Propagation** — a bounced `PropOffer`/`PropData` clears the
//!   in-flight attempt, bumps the per-target failure count, and re-arms
//!   the kick timer; once the target recovers, propagation completes.
//! * **Election (bully)** — bounced `Election` challenges are absorbed
//!   (an unreachable higher node simply never answers) and the challenge
//!   timeout then elects the caller.

use std::sync::Arc;

use bytes::Bytes;
use coterie_base::SimDuration;
use coterie_core::{
    keys, ClientRequest, MsgClass, PartialWrite, ProtocolConfig, ProtocolEvent, StepDriver, Timer,
};
use coterie_quorum::{MajorityCoterie, NodeId};

/// Performs the single next event exactly as [`StepDriver::run_for`]
/// would (messages in FIFO order first, then the earliest timer), so a
/// test can stop between events. Returns false when nothing is pending.
fn step_once(driver: &mut StepDriver) -> bool {
    if !driver.pending_messages().is_empty() {
        driver.deliver(0);
        return true;
    }
    let Some((i, _)) = driver
        .pending_timers()
        .iter()
        .enumerate()
        .min_by_key(|(_, t)| (t.fire_at, t.node.0))
    else {
        return false;
    };
    driver.fire(i);
    true
}

/// Steps the driver until `done` holds, failing the test if it doesn't
/// within `bound` events.
fn run_until(driver: &mut StepDriver, bound: usize, done: impl Fn(&StepDriver) -> bool) {
    for _ in 0..bound {
        if done(driver) {
            return;
        }
        assert!(
            step_once(driver),
            "cluster went quiescent before condition held"
        );
    }
    panic!("condition did not hold within {bound} events");
}

#[test]
fn bounced_propagation_offer_retries_until_target_recovers() {
    let config = ProtocolConfig::new(Arc::new(MajorityCoterie::new()), 3)
        .pages(4)
        .static_mode();
    let mut driver = StepDriver::new(3, config);
    let write = |id: u64, payload: &[u8]| ClientRequest::Write {
        id,
        write: PartialWrite::new([(0, Bytes::copy_from_slice(payload))]),
    };
    let write_done = |d: &StepDriver, want: u64| {
        d.outputs()
            .iter()
            .any(|(_, _, e)| matches!(e, ProtocolEvent::WriteOk { id, .. } if *id == want))
    };

    // Write v1 while node 2 is down: the quorum {0, 1} commits without it.
    let target = NodeId(2);
    driver.crash(target);
    driver.advance(SimDuration::from_millis(1));
    driver.inject(NodeId(0), write(1, b"one"));
    run_until(&mut driver, 500, |d| write_done(d, 1));

    // Node 2 comes back one version behind; the next write's permission
    // poll classifies it STALE, marks it, and the good replicas owe it a
    // background propagation.
    driver.recover(target);
    driver.advance(SimDuration::from_millis(1));
    driver.inject(NodeId(0), write(2, b"two"));
    run_until(&mut driver, 500, |d| {
        write_done(d, 2)
            && d.node(target).durable.stale
            && (0..3).any(|n| !d.node(NodeId(n)).vol.propagator.remaining.is_empty())
    });

    // Crash the stale target: the next PropOffer (or PropData) bounces.
    driver.crash(target);
    let bounced = |d: &StepDriver, n: NodeId| {
        d.node(n)
            .stats
            .counter(keys::msgs_bounced(MsgClass::Propagation))
    };
    run_until(&mut driver, 500, |d| {
        (0..3).any(|n| bounced(d, NodeId(n)) >= 1)
    });
    let source = (0..3)
        .map(NodeId)
        .find(|&n| bounced(&driver, n) >= 1)
        .expect("checked by run_until");

    // The bounce must not abandon the target: the failure is counted and
    // the target stays on the work list for a later retry.
    let prop = &driver.node(source).vol.propagator;
    assert!(
        prop.attempts.get(&target).copied().unwrap_or(0) >= 1,
        "bounced offer should bump the per-target attempt count"
    );
    assert!(
        prop.remaining.contains(target),
        "bounced target must stay on the propagation work list"
    );

    // Once the target is back, a retry brings it current.
    driver.recover(target);
    driver.run_for(SimDuration::from_secs(60));
    assert!(
        driver.outputs().iter().any(
            |(_, _, e)| matches!(e, ProtocolEvent::Propagated { target: t, .. } if *t == target)
        ),
        "recovered target was never propagated to"
    );
    let src_version = driver.node(source).durable.version;
    let tgt = &driver.node(target).durable;
    assert!(!tgt.stale, "propagated replica must be current");
    assert_eq!(tgt.version, src_version);
    assert_eq!(
        tgt.object.digest(),
        driver.node(source).durable.object.digest(),
        "propagated contents must match the source"
    );
}

#[test]
fn bounced_election_challenges_let_the_caller_win_by_timeout() {
    let config = ProtocolConfig::new(Arc::new(MajorityCoterie::new()), 3).bully_election();
    let mut driver = StepDriver::new(3, config);

    // Both higher-named nodes are down; node 0 notices epoch-check
    // silence at its next tick and challenges them.
    driver.crash(NodeId(1));
    driver.crash(NodeId(2));
    let tick = driver
        .pending_timers()
        .iter()
        .position(|t| t.node == NodeId(0) && matches!(t.timer, Timer::EpochTick))
        .expect("node 0 armed its epoch tick at boot");
    driver.fire(tick);

    let challenges = driver
        .pending_messages()
        .iter()
        .filter(|env| matches!(env.msg, coterie_core::Msg::Election { .. }))
        .count();
    assert_eq!(
        challenges, 2,
        "bully must challenge every higher-named node"
    );

    // Deliver both challenges: the peers are down, so each delivery steps
    // node 0 with CallFailed instead. The bounces are counted and
    // absorbed — the round stays open, awaiting its timeout.
    while !driver.pending_messages().is_empty() {
        driver.deliver(0);
    }
    let node0 = driver.node(NodeId(0));
    assert_eq!(
        node0
            .stats
            .counter(keys::msgs_bounced(MsgClass::EpochCheck)),
        2,
        "both bounced challenges must be counted"
    );
    assert!(
        node0.vol.election.in_flight.is_some(),
        "a bounced challenge must not abort the round"
    );
    assert_eq!(node0.vol.election.leader, None);

    // The answer window elapses with no Alive: node 0 wins.
    let timeout = driver
        .pending_timers()
        .iter()
        .position(|t| t.node == NodeId(0) && matches!(t.timer, Timer::ElectionTimeout { .. }))
        .expect("the challenge round armed a timeout");
    driver.fire(timeout);
    let node0 = driver.node(NodeId(0));
    assert_eq!(
        node0.vol.election.leader,
        Some(NodeId(0)),
        "with every higher node unreachable, the caller becomes leader"
    );
    assert!(node0.vol.election.in_flight.is_none());
}
