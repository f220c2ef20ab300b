//! The host adapter binding node shells to the `coterie-simnet` threaded
//! host (feature `simnet-host`).
//!
//! [`JournaledNode`] is the [`Application`] the
//! [`ThreadedRuntime`](coterie_simnet::ThreadedRuntime) runs. It is a
//! [`NodeShell`] (engine, journal, group commit, ack-before-flush,
//! failpoints, trace ring, flush counter; see `engine/shell.rs`) plus the
//! pieces that only a real host has, kept here so engine code stays free
//! of clocks and files:
//!
//! * an optional `fdatasync` mirror of the journal ([`SyncSink`]), so each
//!   flush costs what it would on real storage;
//! * a wall-clock flush-latency histogram;
//! * the flush policy for a group-commit batch that has not reached its
//!   cap: flush when the inbox drains ([`Application::on_idle`]), or at
//!   the latest when the [`Timer::HostFlush`] deadline
//!   (`group_commit_max_delay`) fires.
//!
//! Every crash is recovered from the journal alone: the restart replays
//! it and installs the result. The threaded host never arms the shell's
//! failpoints.

use coterie_base::{SimDuration, SimTime, TimerId};
use coterie_quorum::NodeId;
use coterie_simnet::{Application, Ctx};

use crate::engine::io::Input;
use crate::engine::metrics::{keys, MetricsRegistry};
use crate::engine::shell::{NodeShell, Outbox};
use crate::msg::{ClientRequest, Msg, ProtocolEvent};
use crate::node::Timer;

/// What travels between threaded-host nodes: the protocol message plus the
/// sender's Lamport stamp. The stamp is trace metadata —
/// hosts thread it from [`Effect::Send`](crate::engine::Effect::Send) to
/// [`Input::Deliver`] so causal ordering survives the substrate; the
/// protocol itself never reads it.
#[derive(Clone, Debug)]
pub struct WireMsg {
    /// The sender's Lamport counter at send time.
    pub lamport: u64,
    /// The protocol message.
    pub msg: Msg,
}

/// The reserved timer id for the host-owned group-commit flush deadline.
/// The engine allocates ids from a counter starting at 0 and can never
/// reach this value in any feasible run.
pub const HOST_FLUSH_TIMER: TimerId = TimerId(u64::MAX);

/// A best-effort on-disk mirror of the journal image, used by the
/// throughput benchmarks to charge each flush a real `fsync`. Errors are
/// swallowed: the in-memory [`FramedJournal`](crate::engine::FramedJournal)
/// stays authoritative, the sink only exists so a flush costs what it
/// would on real storage.
#[derive(Clone, Debug)]
pub struct SyncSink {
    file: std::sync::Arc<std::fs::File>,
    /// Bytes of the journal image already on disk.
    synced: usize,
}

impl SyncSink {
    /// Wraps `file` (created/truncated by the caller) as a sink.
    pub fn new(file: std::fs::File) -> Self {
        SyncSink {
            file: std::sync::Arc::new(file),
            synced: 0,
        }
    }

    /// Mirrors `bytes` (the current journal image) to disk and issues one
    /// `fdatasync`. Appends write only the new suffix; the 16-byte header
    /// is rewritten every time (it carries the commit pointer); a shrink
    /// (truncated tail / quarantine reset) rewrites the whole image.
    fn commit(&mut self, bytes: &[u8]) {
        use std::io::{Seek, SeekFrom, Write};
        let mut f: &std::fs::File = &self.file;
        if bytes.len() < self.synced {
            let _ = f.set_len(0);
            self.synced = 0;
        }
        let header_end = bytes.len().min(16);
        let _ = f
            .seek(SeekFrom::Start(0))
            .and_then(|_| f.write_all(&bytes[..header_end]));
        let tail_from = self.synced.max(header_end);
        if bytes.len() > tail_from {
            let _ = f
                .seek(SeekFrom::Start(tail_from as u64))
                .and_then(|_| f.write_all(&bytes[tail_from..]));
        }
        self.synced = bytes.len();
        let _ = f.sync_data();
    }
}

impl Outbox for Ctx<'_, JournaledNode> {
    fn send(&mut self, to: NodeId, msg: Msg, lamport: u64) {
        Ctx::send(self, to, WireMsg { lamport, msg });
    }

    fn set_timer(&mut self, id: TimerId, delay: SimDuration, timer: Timer) {
        self.set_timer_with_id(id, delay, timer);
    }

    fn cancel_timer(&mut self, id: TimerId) {
        Ctx::cancel_timer(self, id);
    }

    fn output(&mut self, event: ProtocolEvent) {
        Ctx::output(self, event);
    }
}

/// A [`NodeShell`] hosted on the threaded runtime (see the module docs).
/// Dereferences to the shell, and through it to the engine.
#[derive(Clone, Debug)]
pub struct JournaledNode {
    shell: NodeShell,
    /// True while a [`HOST_FLUSH_TIMER`] is armed.
    flush_armed: bool,
    /// Optional on-disk mirror: every flush also writes the journal delta
    /// to a real file and `fdatasync`s it.
    sync: Option<SyncSink>,
    /// Host-level metrics: the wall-clock flush-latency histogram.
    host_metrics: MetricsRegistry,
}

impl JournaledNode {
    /// Creates a journaled node with pristine state and an empty journal.
    pub fn new(me: NodeId, config: crate::config::ProtocolConfig) -> Self {
        JournaledNode {
            shell: NodeShell::new(me, config),
            flush_armed: false,
            sync: None,
            host_metrics: MetricsRegistry::new(),
        }
    }

    /// Attaches a real file the journal image is mirrored to; every flush
    /// then costs one `fdatasync` on it. The file should be empty.
    pub fn attach_sync_file(&mut self, file: std::fs::File) {
        self.sync = Some(SyncSink::new(file));
    }

    /// A unified snapshot of this node's metrics: the shell's registry
    /// (engine counters plus journal flushes) merged with the host's
    /// flush-latency histogram.
    pub fn metrics(&self) -> MetricsRegistry {
        let mut merged = self.shell.metrics();
        merged.merge(&self.host_metrics);
        merged
    }

    fn run(&mut self, ctx: &mut Ctx<'_, Self>, input: Input) {
        let flushes = self.shell.flushes;
        self.shell.step(ctx.now(), input, ctx);
        self.after_shell(ctx, flushes);
    }

    fn flush(&mut self, ctx: &mut Ctx<'_, Self>) {
        let flushes = self.shell.flushes;
        self.shell.flush(ctx.now(), ctx);
        self.after_shell(ctx, flushes);
    }

    /// The host's half of every shell call: mirror a flush that just
    /// happened to disk, and keep the flush deadline armed exactly while
    /// a batch is buffered. Released effects only leave when the callback
    /// returns, so the mirror's `fdatasync` precedes them.
    fn after_shell(&mut self, ctx: &mut Ctx<'_, Self>, flushes_before: u64) {
        if self.shell.flushes != flushes_before {
            // Host boundary: wall-clock timing of the (possibly fsync'd)
            // flush — measurement only, never protocol-visible.
            #[allow(clippy::disallowed_methods)]
            let started = std::time::Instant::now();
            if let Some(sink) = &mut self.sync {
                sink.commit(self.shell.journal.bytes());
            }
            self.host_metrics
                .observe(keys::JOURNAL_FLUSH_US, started.elapsed().as_micros() as u64);
        }
        let buffered = self.shell.buffered() > 0;
        if buffered && !self.flush_armed {
            let delay = self.shell.node.config.group_commit_max_delay;
            ctx.set_timer_with_id(HOST_FLUSH_TIMER, delay, Timer::HostFlush);
            self.flush_armed = true;
        } else if !buffered && std::mem::take(&mut self.flush_armed) {
            ctx.cancel_timer(HOST_FLUSH_TIMER);
        }
    }
}

impl std::ops::Deref for JournaledNode {
    type Target = NodeShell;

    fn deref(&self) -> &NodeShell {
        &self.shell
    }
}

impl Application for JournaledNode {
    type Msg = WireMsg;
    type Timer = Timer;
    type External = ClientRequest;
    type Output = ProtocolEvent;

    fn on_start(&mut self, ctx: &mut Ctx<'_, Self>) {
        // A first start boots; a restart replays the journal first.
        let flushes = self.shell.flushes;
        self.shell.start(ctx.now(), ctx);
        self.after_shell(ctx, flushes);
    }

    fn on_crash(&mut self) {
        // The substrate drops our timers, the flush deadline included.
        self.shell.crash(SimTime::ZERO);
        self.flush_armed = false;
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, Self>, from: NodeId, wire: WireMsg) {
        self.run(
            ctx,
            Input::Deliver {
                from,
                msg: wire.msg,
                lamport: wire.lamport,
            },
        );
    }

    fn on_call_failed(&mut self, ctx: &mut Ctx<'_, Self>, to: NodeId, wire: WireMsg) {
        self.run(ctx, Input::CallFailed { to, msg: wire.msg });
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Self>, timer: Timer) {
        // The flush deadline is host-owned; it never reaches the engine.
        if matches!(timer, Timer::HostFlush) {
            self.flush_armed = false;
            self.flush(ctx);
            return;
        }
        self.run(ctx, Input::TimerFired(timer));
    }

    fn on_external(&mut self, ctx: &mut Ctx<'_, Self>, request: ClientRequest) {
        self.run(ctx, Input::External(request));
    }

    fn on_idle(&mut self, ctx: &mut Ctx<'_, Self>) {
        // The inbox is empty, so nothing else is coming to fill the
        // batch; waiting out the flush deadline would be pure latency.
        if self.shell.has_pending() {
            self.flush(ctx);
        }
    }
}
