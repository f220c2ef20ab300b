//! The LAN schedule of `StepDriver::lan`: message latency, `CallFailed`
//! timing, the agenda (client requests, crashes, recoveries, partitions),
//! group-commit flush deadlines, and determinism.
//!
//! ROWA clusters are used where a test needs a write to address every
//! replica: a ROWA write asks all of them, the coordinator included.

use bytes::Bytes;
use coterie_core::{
    keys, ClientRequest, DriverEvent, Msg, MsgClass, PartialWrite, ProtocolConfig, ProtocolEvent,
    StepDriver, TraceEvent, TraceRecord,
};
use coterie_quorum::{GridCoterie, NodeId, RowaCoterie};
use coterie_simnet::{SimDuration, SimTime};
use std::sync::Arc;

fn rowa(n: usize, seed: u64) -> StepDriver {
    let config = ProtocolConfig::new(Arc::new(RowaCoterie::new()), n).rng_seed(seed);
    let mut driver = StepDriver::lan(n, config);
    driver.enable_tracing(1 << 16);
    driver
}

fn write(id: u64) -> ClientRequest {
    ClientRequest::Write {
        id,
        write: PartialWrite::new([(0, Bytes::from(vec![id as u8]))]),
    }
}

/// The trace records at `node` matching `pick`, in recording order.
fn records_at(
    driver: &StepDriver,
    node: NodeId,
    pick: impl Fn(&TraceEvent) -> bool,
) -> Vec<TraceRecord> {
    let ring = driver.trace_ring(node).expect("tracing enabled");
    ring.records().filter(|r| pick(&r.event)).copied().collect()
}

/// When `node` first received a message of `class` from `from`.
fn first_recv(driver: &StepDriver, node: NodeId, from: NodeId, class: MsgClass) -> Option<SimTime> {
    records_at(driver, node, |e| *e == TraceEvent::MsgRecv { from, class })
        .first()
        .map(|r| r.at)
}

#[test]
fn latency_stays_within_lan_bounds() {
    let mut latencies = Vec::new();
    for seed in 0..20 {
        let mut driver = rowa(4, seed);
        driver.schedule_external(SimTime::ZERO, NodeId(0), write(1));
        driver.run_for(SimDuration::from_millis(3));
        // The loopback copy of the request takes 10 µs.
        let own = first_recv(&driver, NodeId(0), NodeId(0), MsgClass::Permission);
        assert_eq!(own, Some(SimTime(10)), "seed {seed}");
        // The peers' copies, all sent at time zero, land 500-2000 µs later.
        for peer in 1..4 {
            let at = first_recv(&driver, NodeId(peer), NodeId(0), MsgClass::Permission)
                .unwrap_or_else(|| panic!("seed {seed}: n{peer} never heard the request"));
            assert!(
                (500..=2_000).contains(&at.micros()),
                "seed {seed}: n{peer} received after {at}"
            );
            latencies.push(at.micros());
        }
    }
    // 60 uniform draws cover the range.
    let (min, max) = (latencies.iter().min(), latencies.iter().max());
    assert!(min < Some(&800) && max > Some(&1_700), "{min:?}..{max:?}");
}

/// The `CallFailed` notices `node` received for messages to `to`.
fn bounces(driver: &StepDriver, node: NodeId, to: NodeId) -> Vec<SimTime> {
    records_at(
        driver,
        node,
        |e| matches!(e, TraceEvent::MsgBounce { to: t, .. } if *t == to),
    )
    .iter()
    .map(|r| r.at)
    .collect()
}

#[test]
fn undeliverable_messages_bounce_twenty_ms_after_delivery_time() {
    let notice = |driver: &StepDriver, to: u32| {
        let at = bounces(driver, NodeId(0), NodeId(to));
        assert_eq!(at.len(), 1, "one request to n{to}, one notice: {at:?}");
        at[0].micros()
    };
    // Down at send time.
    let mut down = rowa(3, 1);
    down.crash(NodeId(2));
    down.schedule_external(SimTime::ZERO, NodeId(0), write(1));
    down.run_for(SimDuration::from_millis(30));
    assert!((20_500..=22_000).contains(&notice(&down, 2)));

    // Partitioned away at send time.
    let mut split = rowa(3, 2);
    split.set_partition(vec![0, 0, 1]);
    split.schedule_external(SimTime::ZERO, NodeId(0), write(1));
    split.run_for(SimDuration::from_millis(30));
    assert!((20_500..=22_000).contains(&notice(&split, 2)));

    // Crashed while the message is in flight: reachability is checked at
    // delivery, so the message bounces and never arrives.
    let mut flight = rowa(3, 3);
    flight.schedule_external(SimTime::ZERO, NodeId(0), write(1));
    flight.schedule_crash(SimTime(1), NodeId(2));
    flight.run_for(SimDuration::from_millis(30));
    assert!((20_500..=22_000).contains(&notice(&flight, 2)));
    assert_eq!(
        first_recv(&flight, NodeId(2), NodeId(0), MsgClass::Permission),
        None
    );
}

#[test]
fn a_crash_drops_the_nodes_timers() {
    let mut driver = rowa(3, 4);
    driver.schedule_external(SimTime::ZERO, NodeId(1), write(1));
    driver.run_for(SimDuration::from_millis(50));
    let armed = |d: &StepDriver| {
        d.pending_timers()
            .iter()
            .filter(|t| t.node == NodeId(1))
            .map(|t| (t.id, t.fire_at))
            .collect::<Vec<_>>()
    };
    let before = armed(&driver);
    assert!(
        !before.is_empty(),
        "a booted replica keeps background timers"
    );
    driver.schedule_crash(SimTime(60_000), NodeId(1));
    driver.run_until(SimTime(70_000));
    assert!(armed(&driver).is_empty(), "a down node holds no timers");
    driver.schedule_recover(SimTime(80_000), NodeId(1));
    driver.run_until(SimTime(90_000));
    let after = armed(&driver);
    assert!(!after.is_empty(), "the restarted node re-arms its timers");
    assert!(
        after.iter().all(|t| !before.contains(t)),
        "a timer armed before the crash survived it: {before:?} vs {after:?}"
    );
}

#[test]
fn requests_at_a_down_node_are_dropped() {
    let mut driver = rowa(3, 5);
    driver.crash(NodeId(0));
    driver.schedule_external(SimTime(1_000), NodeId(0), write(7));
    driver.schedule_recover(SimTime(5_000), NodeId(0));
    driver.run_for(SimDuration::from_secs(2));
    let answered = driver.take_outputs().into_iter().any(|(_, _, e)| {
        matches!(
            e,
            ProtocolEvent::WriteOk { id: 7, .. } | ProtocolEvent::Failed { id: 7, .. }
        )
    });
    assert!(!answered, "a request at a down node must vanish");
    let sent_requests = records_at(&driver, NodeId(0), |e| {
        matches!(
            e,
            TraceEvent::MsgSend {
                class: MsgClass::Permission,
                ..
            }
        )
    });
    assert!(sent_requests.is_empty(), "{sent_requests:?}");
}

#[test]
fn a_buffered_batch_flushes_at_its_deadline() {
    let config = ProtocolConfig::new(Arc::new(RowaCoterie::new()), 3)
        .group_commit(8, SimDuration::from_millis(2))
        .rng_seed(6);
    let mut driver = StepDriver::lan(3, config);
    driver.enable_tracing(1 << 16);
    driver.schedule_external(SimTime::ZERO, NodeId(0), write(1));
    driver.run_for(SimDuration::from_millis(100));
    // With no other traffic to fill a batch, each node's first batch
    // commits exactly 2 ms after the step that opened it; the coordinator
    // opens its batch when the request arrives at time zero.
    for node in (0..3).map(NodeId) {
        let flushes = records_at(&driver, node, |e| {
            matches!(e, TraceEvent::JournalFlush { .. })
        });
        let first = flushes.first().expect("the batch is flushed").at;
        let opened = SimTime(first.micros() - 2_000);
        assert!(
            records_at(&driver, node, |_| true)
                .iter()
                .any(|r| r.at == opened),
            "{node:?}: no step at {opened} opened the batch flushed at {first}"
        );
        if node == NodeId(0) {
            assert_eq!(first, SimTime(2_000));
        }
    }
    assert!(driver
        .outputs()
        .iter()
        .any(|(_, _, e)| matches!(e, ProtocolEvent::WriteOk { id: 1, .. })));
}

#[test]
fn same_seed_same_run() {
    let run = |seed: u64| {
        let config = ProtocolConfig::new(Arc::new(GridCoterie::new()), 9)
            .check_period(SimDuration::from_secs(1))
            .rng_seed(seed);
        let mut driver = StepDriver::lan(9, config);
        for i in 0..50u64 {
            driver.schedule_external(SimTime(i * 20_000), NodeId((i % 9) as u32), write(i));
        }
        driver.schedule_crash(SimTime(200_000), NodeId(4));
        driver.schedule_recover(SimTime(700_000), NodeId(4));
        driver.run_for(SimDuration::from_secs(3));
        format!("{:?}", driver.take_outputs())
    };
    assert_eq!(run(42), run(42));
    assert_ne!(run(42), run(43), "the seed drives the latencies");
}

#[test]
fn run_until_advances_an_idle_clock() {
    let config = ProtocolConfig::new(Arc::new(GridCoterie::new()), 4).static_mode();
    let mut driver = StepDriver::lan(4, config);
    driver.run_until(SimTime(500_000));
    assert_eq!(driver.now(), SimTime(500_000));
    assert!(driver.pending_messages().is_empty());
}

#[test]
fn received_counts_match_deliveries_per_node() {
    let mut driver = rowa(4, 7);
    for i in 0..6 {
        driver.schedule_external(SimTime(i * 10_000), NodeId((i % 4) as u32), write(i));
    }
    driver.crash(NodeId(3));
    driver.run_for(SimDuration::from_secs(1));
    let (mut sent, mut reached) = (0, 0);
    for node in (0..4).map(NodeId) {
        let stats = &driver.node(node).stats;
        let counted = |key: fn(MsgClass) -> &'static str| {
            MsgClass::ALL
                .iter()
                .map(|&c| stats.counter(key(c)))
                .sum::<u64>()
        };
        let received = records_at(&driver, node, |e| matches!(e, TraceEvent::MsgRecv { .. }));
        assert_eq!(counted(keys::msgs_in), received.len() as u64, "{node:?}");
        let bounced = records_at(&driver, node, |e| matches!(e, TraceEvent::MsgBounce { .. }));
        assert_eq!(
            counted(keys::msgs_bounced),
            bounced.len() as u64,
            "{node:?}"
        );
        reached += counted(keys::msgs_in) + counted(keys::msgs_bounced);
        sent += records_at(&driver, node, |e| matches!(e, TraceEvent::MsgSend { .. })).len();
    }
    assert_eq!(
        driver
            .node(NodeId(3))
            .stats
            .counter(keys::msgs_in(MsgClass::Permission)),
        0
    );
    // Every message sent either arrived, bounced, or is still in flight.
    let in_flight = driver.pending_messages().len() as u64;
    assert_eq!(sent as u64, reached + in_flight);
    assert_eq!(driver.messages_sent(), Some(sent as u64));
    assert!(driver
        .pending_messages()
        .iter()
        .all(|e| !matches!(e.msg, Msg::WriteReq { .. })));
}

#[test]
#[cfg(debug_assertions)]
#[should_panic(expected = "a LAN driver delivers only through its timed schedule")]
fn a_lan_driver_refuses_deliveries_outside_its_schedule() {
    // The schedule keeps each pending message's delivery time beside the
    // pool; taking a message out from under it would misalign the two.
    let mut driver = rowa(3, 8);
    driver.schedule_external(SimTime::ZERO, NodeId(0), write(1));
    driver.run_for(SimDuration::from_micros(100));
    assert!(!driver.pending_messages().is_empty());
    driver.perform(DriverEvent::Deliver(0));
}
