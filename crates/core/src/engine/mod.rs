//! The sans-I/O protocol engine.
//!
//! This layer is the entire protocol of the paper — write, read,
//! propagation, and epoch checking — packaged as a **pure deterministic
//! state machine**. A replica consumes [`Input`] events and returns a
//! `Vec<`[`Effect`]`>`; it never touches a clock, an RNG source, a network
//! socket, or a disk:
//!
//! * **time** is told to the engine with every [`ReplicaNode::step`] call;
//! * **randomness** (retry jitter, propagation staggering) comes from an
//!   engine-owned [`Rng64`] seeded from
//!   [`ProtocolConfig::seed`](crate::config::ProtocolConfig::seed), so it is
//!   part of the state machine, not an ambient source;
//! * **transport, timers, durability** are requested as effects. A
//!   [`NodeShell`] applies the durability rules (journal, group commit,
//!   ack-before-flush, failpoints, crash replay) and releases the rest to
//!   whatever host embeds it — the substrate-free [`StepDriver`], or the
//!   discrete-event simulator and the threaded runtime (both through
//!   `JournaledNode`, feature `simnet-host`).
//!
//! **Determinism guarantee:** two `ReplicaNode`s constructed with the same
//! `(NodeId, ProtocolConfig)` and fed the same sequence of `(now, Input)`
//! pairs return byte-identical effect sequences and end in identical
//! states. Everything observable flows through `step`.
//!
//! Durable state (the paper's §4 per-node tuple plus the 2PC artifacts)
//! additionally travels through [`Effect::Persist`]: whenever a step
//! changes [`Durable`](crate::node::Durable), the engine prepends a
//! [`DurableDelta`] describing exactly what changed — epoch installation is
//! a single atomic delta, mirroring the paper's atomic epoch commit. The
//! shell appends the deltas to a [`FramedJournal`]; replaying the journal
//! reconstructs `Durable` after a crash.

pub mod codec;
pub mod ctx;
pub mod driver;
pub mod failpoint;
pub mod io;
pub mod metrics;
pub mod rng;
pub mod shell;
pub mod step;
pub mod storage;
pub mod trace;

pub use codec::{crc32, decode_delta, encode_delta, DecodeError};
pub use coterie_base::{SimDuration, SimTime, TimerId};
pub use ctx::NodeCtx;
pub use driver::{DriverEvent, StepDriver};
pub use failpoint::{sites, Failpoints, FaultKind, FiredFault};
pub use io::{Effect, Input};
pub use metrics::{keys, Histogram, MetricsRegistry};
pub use rng::Rng64;
pub use shell::{NodeShell, Outbox};
pub use storage::{DurableDelta, FramedJournal, FramedReplay, QuarantineReason, ReplayVerdict};
pub use trace::{
    causal_merge, render_jsonl, NoopSink, ReplayClass, TraceEvent, TraceRecord, TraceRing,
    TraceSink,
};

#[allow(unused_imports)] // doc links
use crate::node::ReplicaNode;
