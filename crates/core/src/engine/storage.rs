//! Durability: deltas, the framed journal, and the group-commit buffer.
//!
//! The engine never writes to disk; it *describes* what must become
//! durable. After every [`step`](crate::node::ReplicaNode::step) that
//! changes [`Durable`], the engine emits exactly one
//! [`Effect::Persist`](super::io::Effect::Persist) carrying a
//! [`DurableDelta`] — the precise set of fields that changed, computed by
//! diffing against a shadow copy. Two properties matter:
//!
//! * **Atomicity of epoch installation.** The paper requires the epoch
//!   tuple `(enumber, elist)` to change atomically; the delta carries the
//!   pair as one field, and a whole delta is committed atomically by
//!   [`FramedJournal`] (a record counts only once the header's commit
//!   pointer covers it), so no torn epoch can be observed on replay.
//! * **Write-ahead ordering.** The `Persist` effect is always the *first*
//!   effect of a step: a host that journals before sending guarantees the
//!   2PC prepare record is stable before the vote that promises it.

use bytes::Bytes;
use coterie_quorum::NodeId;

use crate::config::ProtocolConfig;
use crate::msg::{Action, OpId};
use crate::node::Durable;
use crate::store::{PageId, WriteLog};

/// The durable-state change produced by one engine step.
///
/// `None` / empty fields mean "unchanged". [`DurableDelta::apply`] replays
/// the change onto a [`Durable`]; [`DurableDelta::diff`] computes it.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DurableDelta {
    /// New replica version number.
    pub version: Option<u64>,
    /// New stale flag.
    pub stale: Option<bool>,
    /// New desired version.
    pub dversion: Option<u64>,
    /// New epoch `(enumber, elist)` — one field so the pair is atomic.
    pub epoch: Option<(u64, Vec<NodeId>)>,
    /// Rewritten pages of the object.
    pub pages: Vec<(PageId, Bytes)>,
    /// Full replacement write log (logs are tiny and bounded; shipping the
    /// whole log keeps the delta trivially correct under trimming).
    pub log: Option<WriteLog>,
    /// New prepared-transaction slot (outer `Some` = changed; inner
    /// `Option` is the slot's new value).
    pub prepared: Option<Option<(OpId, Action)>>,
    /// Coordinator decisions recorded by this step. The decision map is
    /// append-only, so a delta only ever adds entries.
    pub decisions: Vec<(OpId, bool)>,
    /// New durable operation counter.
    pub op_counter: Option<u64>,
    /// New good list from the most recent write.
    pub last_good: Option<Vec<NodeId>>,
    /// New quarantine fence (see [`Durable::quarantine_fence`]).
    pub quarantine_fence: Option<u64>,
    /// New rejoin-pending flag (see [`Durable::rejoin_pending`]).
    pub rejoin_pending: Option<bool>,
}

impl DurableDelta {
    /// Computes the delta carrying `old` to `new`, or `None` if the states
    /// are identical.
    ///
    /// Cheap by construction: scalar fields compare as integers, pages
    /// compare per-slot (`Bytes` content equality over refcounted slices),
    /// the log compares by `(len, newest version)` — sound because log
    /// versions are strictly increasing — and decisions compare by length,
    /// sound because the map is append-only.
    pub fn diff(old: &Durable, new: &Durable) -> Option<DurableDelta> {
        let mut d = DurableDelta::default();
        if new.version != old.version {
            d.version = Some(new.version);
        }
        if new.stale != old.stale {
            d.stale = Some(new.stale);
        }
        if new.dversion != old.dversion {
            d.dversion = Some(new.dversion);
        }
        if new.enumber != old.enumber || new.elist != old.elist {
            d.epoch = Some((new.enumber, new.elist.clone()));
        }
        debug_assert_eq!(old.object.n_pages(), new.object.n_pages());
        for p in 0..new.object.n_pages() as PageId {
            let (o, n) = (old.object.page(p), new.object.page(p));
            if o != n {
                // lint:allow(panic): p < n_pages, and old/new page counts are equal
                d.pages.push((p, n.expect("page in range").clone()));
            }
        }
        let log_id = |l: &WriteLog| (l.len(), l.newest_version());
        if log_id(&new.log) != log_id(&old.log) {
            d.log = Some(new.log.clone());
        }
        if new.prepared != old.prepared {
            d.prepared = Some(new.prepared.clone());
        }
        if new.decisions.len() != old.decisions.len() {
            // `decisions` is a BTreeMap, so the filtered additions come
            // out already sorted by op id — the order the journal records.
            let added: Vec<(OpId, bool)> = new
                .decisions
                .iter()
                .filter(|(op, _)| !old.decisions.contains_key(op))
                .map(|(op, commit)| (*op, *commit))
                .collect();
            debug_assert_eq!(
                added.len().saturating_add(old.decisions.len()),
                new.decisions.len(),
                "decision map must be append-only"
            );
            d.decisions = added;
        }
        if new.op_counter != old.op_counter {
            d.op_counter = Some(new.op_counter);
        }
        if new.last_good != old.last_good {
            d.last_good = Some(new.last_good.clone());
        }
        if new.quarantine_fence != old.quarantine_fence {
            d.quarantine_fence = Some(new.quarantine_fence);
        }
        if new.rejoin_pending != old.rejoin_pending {
            d.rejoin_pending = Some(new.rejoin_pending);
        }
        if d == DurableDelta::default() {
            None
        } else {
            Some(d)
        }
    }

    /// Applies this delta to `durable`.
    pub fn apply(&self, durable: &mut Durable) {
        if let Some(v) = self.version {
            durable.version = v;
        }
        if let Some(s) = self.stale {
            durable.stale = s;
        }
        if let Some(v) = self.dversion {
            durable.dversion = v;
        }
        if let Some((enumber, elist)) = &self.epoch {
            durable.enumber = *enumber;
            durable.elist = elist.clone();
        }
        for (p, contents) in &self.pages {
            durable.object.write_page(*p, contents.clone());
        }
        if let Some(log) = &self.log {
            durable.log = log.clone();
        }
        if let Some(prepared) = &self.prepared {
            durable.prepared = prepared.clone();
        }
        for (op, commit) in &self.decisions {
            durable.decisions.insert(*op, *commit);
        }
        if let Some(c) = self.op_counter {
            durable.op_counter = c;
        }
        if let Some(g) = &self.last_good {
            durable.last_good = g.clone();
        }
        if let Some(f) = self.quarantine_fence {
            durable.quarantine_fence = f;
        }
        if let Some(p) = self.rejoin_pending {
            durable.rejoin_pending = p;
        }
    }
}

/// Journal format v2 magic bytes (`"CTJ2"`).
pub const JOURNAL_MAGIC: [u8; 4] = *b"CTJ2";

/// Byte length of the v2 header: magic, record count, count checksum.
pub const JOURNAL_HEADER_LEN: usize = 16;

/// Why a replay quarantined a journal instead of recovering from it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum QuarantineReason {
    /// The magic bytes are wrong: this is not a v2 journal.
    BadMagic,
    /// The record-count header fails its checksum — the commit pointer
    /// itself is corrupt, so *which* records were acknowledged is unknown.
    HeaderCorrupt,
    /// A committed record (index < header count) extends past the end of
    /// the journal.
    RecordTruncated {
        /// 0-based index of the bad record.
        index: u64,
    },
    /// A committed record's payload fails its CRC-32.
    ChecksumMismatch {
        /// 0-based index of the bad record.
        index: u64,
    },
    /// A committed record's payload checksums correctly but does not
    /// decode as a [`DurableDelta`] (format damage the CRC missed, or an
    /// internal inconsistency such as non-increasing log versions).
    Undecodable {
        /// 0-based index of the bad record.
        index: u64,
        /// What the decoder objected to.
        what: &'static str,
    },
}

/// The outcome of a checked replay of a framed journal.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReplayVerdict {
    /// Every committed record replayed and no extra bytes followed.
    Clean,
    /// All committed records replayed; trailing bytes past the last
    /// committed record were dropped. This is the signature of a torn
    /// final append — the record was never acknowledged (the count was
    /// not bumped), so dropping it is a correct crash recovery.
    TornTail {
        /// Unacknowledged bytes dropped from the tail.
        dropped_bytes: usize,
    },
    /// A record *inside* the committed prefix is damaged. Acknowledged
    /// durable state has been lost; the replica must not trust the
    /// replayed prefix as current and instead rejoins the cluster stale
    /// (see `handle_boot_quarantined`).
    Quarantined {
        /// What was damaged.
        reason: QuarantineReason,
    },
}

impl ReplayVerdict {
    /// True when the replayed state may boot normally (clean or torn
    /// tail); false when the replica must take the stale-rejoin path.
    pub fn is_bootable(&self) -> bool {
        !matches!(self, ReplayVerdict::Quarantined { .. })
    }
}

/// A checked replay: the reconstructed durable state (of the longest
/// intact committed prefix), how many records built it, and the verdict.
#[derive(Clone, Debug)]
pub struct FramedReplay {
    /// State rebuilt from the intact committed prefix.
    pub durable: Durable,
    /// Records applied to build it.
    pub records_applied: u64,
    /// What the replay concluded about the journal.
    pub verdict: ReplayVerdict,
}

/// Journal format v2: a byte buffer of length-prefixed, CRC-checksummed
/// [`DurableDelta`] records behind a checksummed record-count header.
///
/// Layout:
///
/// ```text
/// [magic "CTJ2" | count: u64 LE | crc32(count bytes): u32 LE]   header, 16 B
/// [len: u32 LE | crc32(payload): u32 LE | payload: len B]*      records
/// ```
///
/// An append writes the whole record *after* the current end, then bumps
/// the count header (the commit point, one atomic in-place sector write).
/// A crash between the two leaves a complete-but-uncommitted or torn
/// record after the committed prefix — replay drops it as
/// [`ReplayVerdict::TornTail`]. Damage *inside* the committed prefix
/// (checksum or decode failure, truncation, corrupt header) can only come
/// from media corruption and yields [`ReplayVerdict::Quarantined`]:
/// acknowledged state was lost, and recovering "as far as we got" would
/// silently forget 2PC votes and decisions the cluster already observed.
#[derive(Clone, Debug)]
pub struct FramedJournal {
    buf: Vec<u8>,
    /// Mirror of the committed record count (authoritative for appends;
    /// replay always re-reads it from the buffer).
    count: u64,
    appended_total: u64,
}

impl Default for FramedJournal {
    fn default() -> Self {
        FramedJournal::new()
    }
}

/// Little-endian `len` prefix for one record. Payloads are bounded far
/// below `u32::MAX` (encoded collections are `MAX_COUNT`-capped), so the
/// saturation is unreachable; if it ever fired, the record would fail its
/// own length check on replay rather than silently truncate.
fn len_prefix(payload: &[u8]) -> [u8; 4] {
    debug_assert!(u32::try_from(payload.len()).is_ok(), "oversized payload");
    u32::try_from(payload.len())
        .unwrap_or(u32::MAX)
        .to_le_bytes()
}

impl FramedJournal {
    /// A fresh journal holding only the header (count 0).
    pub fn new() -> Self {
        let mut j = FramedJournal {
            buf: Vec::with_capacity(256),
            count: 0,
            appended_total: 0,
        };
        j.buf.extend_from_slice(&JOURNAL_MAGIC);
        j.buf.extend_from_slice(&0u64.to_le_bytes());
        j.buf
            .extend_from_slice(&super::codec::crc32(&0u64.to_le_bytes()).to_le_bytes());
        j
    }

    /// Adopts raw bytes as a journal (mutation tests and host recovery).
    /// The count mirror is taken from the header if it is intact, else 0 —
    /// appending to a corrupt journal is not meaningful anyway.
    pub fn from_bytes(buf: Vec<u8>) -> Self {
        let count = read_committed_count(&buf).unwrap_or(0);
        FramedJournal {
            buf,
            count,
            appended_total: count,
        }
    }

    /// The raw journal bytes (determinism tests serialize these).
    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Committed records, per the append-side mirror.
    pub fn committed_records(&self) -> u64 {
        self.count
    }

    /// Total records appended over the journal's lifetime (resets and
    /// torn appends included).
    pub fn appended_total(&self) -> u64 {
        self.appended_total
    }

    /// Appends one record and commits it by bumping the count header.
    pub fn append_delta(&mut self, delta: &DurableDelta) {
        let payload = super::codec::encode_delta(delta);
        self.buf.extend_from_slice(&len_prefix(&payload));
        self.buf
            .extend_from_slice(&super::codec::crc32(&payload).to_le_bytes());
        self.buf.extend_from_slice(&payload);
        self.count += 1;
        self.appended_total += 1;
        self.rewrite_header();
    }

    /// Group commit (DESIGN.md §10): appends every record of `deltas` and
    /// commits them all with a *single* header rewrite — one frame-flush
    /// (one fsync on real storage) amortized over the whole batch. The
    /// resulting bytes are identical to appending the same deltas one at a
    /// time: records are laid out in order and the header ends at the same
    /// final count, so replay cannot tell group commit happened.
    pub fn append_batch(&mut self, deltas: &[DurableDelta]) {
        if deltas.is_empty() {
            return;
        }
        for delta in deltas {
            let payload = super::codec::encode_delta(delta);
            self.buf.extend_from_slice(&len_prefix(&payload));
            self.buf
                .extend_from_slice(&super::codec::crc32(&payload).to_le_bytes());
            self.buf.extend_from_slice(&payload);
        }
        self.count += deltas.len() as u64;
        self.appended_total += deltas.len() as u64;
        self.rewrite_header();
    }

    /// A torn flush (a one-record batch is a torn write-through append):
    /// only `keep` bytes of the batch's records reach the journal and the
    /// count is *not* bumped, so replay drops the whole batch as a torn
    /// tail. Correct because the single header rewrite is the batch's only
    /// commit point — a crash anywhere before it loses every delta of the
    /// batch, none of which was acknowledged (ack-before-flush). At least
    /// one byte is always dropped (a fully written batch would be
    /// indistinguishable from a crash just before the commit, which
    /// recovers the same way).
    pub fn append_batch_torn(&mut self, deltas: &[DurableDelta], keep: usize) {
        let mut record = Vec::new();
        for delta in deltas {
            let payload = super::codec::encode_delta(delta);
            record.extend_from_slice(&len_prefix(&payload));
            record.extend_from_slice(&super::codec::crc32(&payload).to_le_bytes());
            record.extend_from_slice(&payload);
        }
        let keep = keep.min(record.len().saturating_sub(1));
        self.buf
            .extend_from_slice(record.get(..keep).unwrap_or(&record));
        self.appended_total += deltas.len() as u64;
    }

    /// Flips one bit in place; returns false if `byte` is out of range.
    pub fn flip_bit(&mut self, byte: usize, bit: u8) -> bool {
        match self.buf.get_mut(byte) {
            Some(b) => {
                *b ^= 1u8 << (bit % 8);
                true
            }
            None => false,
        }
    }

    /// Drops unacknowledged bytes past the last committed record — the
    /// torn tail a crash mid-append leaves behind. Recovery must call this
    /// before appending again, or the next record would land after the
    /// garbage and corrupt the committed prefix. Returns the bytes
    /// dropped. A journal whose committed prefix does not parse (a
    /// quarantine case) is left untouched; [`reset_to`](Self::reset_to)
    /// owns that recovery.
    pub fn truncate_tail(&mut self) -> usize {
        if self.buf.len() < JOURNAL_HEADER_LEN || self.buf[..4] != JOURNAL_MAGIC {
            return 0;
        }
        let Some(count) = read_committed_count(&self.buf) else {
            return 0;
        };
        let mut pos = JOURNAL_HEADER_LEN;
        for _ in 0..count {
            // checked_add: a corrupted length prefix near usize::MAX must
            // not wrap `pos` back into the committed prefix.
            let Some(body) = pos.checked_add(8) else {
                return 0;
            };
            let Some(header) = self.buf.get(pos..body) else {
                return 0;
            };
            let len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]) as usize;
            let Some(next) = body.checked_add(len) else {
                return 0;
            };
            if self.buf.len() < next {
                return 0;
            }
            pos = next;
        }
        let dropped = self.buf.len().saturating_sub(pos);
        self.buf.truncate(pos);
        self.count = count;
        dropped
    }

    /// Replaces the journal with a fresh one whose single record carries
    /// `durable` (as a delta from pristine). This is the quarantine-
    /// recovery baseline: the damaged history is discarded and the
    /// journal restarts from the state the replica rejoined with.
    pub fn reset_to(&mut self, durable: &Durable, config: &ProtocolConfig) {
        let mut fresh = FramedJournal::new();
        if let Some(delta) = DurableDelta::diff(&Durable::pristine(config), durable) {
            fresh.append_delta(&delta);
        }
        fresh.appended_total = self.appended_total.saturating_add(fresh.count);
        *self = fresh;
    }

    /// The durable state of the longest intact committed prefix. Hosts
    /// that care about the verdict call
    /// [`replay_checked`](FramedJournal::replay_checked).
    pub fn replay(&self, config: &ProtocolConfig) -> Durable {
        self.replay_checked(config).durable
    }

    /// Replays the journal, verifying framing and checksums (see the type
    /// docs for the verdict semantics). Never panics, whatever the bytes.
    pub fn replay_checked(&self, config: &ProtocolConfig) -> FramedReplay {
        let mut durable = Durable::pristine(config);
        let buf = &self.buf;
        if buf.len() < JOURNAL_HEADER_LEN {
            // Journal creation itself was torn; nothing was ever
            // committed, so pristine boot is correct.
            return FramedReplay {
                durable,
                records_applied: 0,
                verdict: ReplayVerdict::TornTail {
                    dropped_bytes: buf.len(),
                },
            };
        }
        if buf[..4] != JOURNAL_MAGIC {
            return quarantined(durable, 0, QuarantineReason::BadMagic);
        }
        let count = match read_committed_count(buf) {
            Some(c) => c,
            None => return quarantined(durable, 0, QuarantineReason::HeaderCorrupt),
        };
        let mut pos = JOURNAL_HEADER_LEN;
        for index in 0..count {
            // checked_add throughout: on 32-bit hosts a corrupted length
            // prefix could wrap `pos + 8 + len` back inside the buffer and
            // mis-parse instead of quarantining.
            let Some(body) = pos.checked_add(8) else {
                return quarantined(durable, index, QuarantineReason::RecordTruncated { index });
            };
            let Some(header) = buf.get(pos..body) else {
                return quarantined(durable, index, QuarantineReason::RecordTruncated { index });
            };
            let len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]) as usize;
            let crc = u32::from_le_bytes([header[4], header[5], header[6], header[7]]);
            let Some(end) = body.checked_add(len) else {
                return quarantined(durable, index, QuarantineReason::RecordTruncated { index });
            };
            let Some(payload) = buf.get(body..end) else {
                return quarantined(durable, index, QuarantineReason::RecordTruncated { index });
            };
            if super::codec::crc32(payload) != crc {
                return quarantined(durable, index, QuarantineReason::ChecksumMismatch { index });
            }
            match super::codec::decode_delta(payload) {
                Ok(delta) => delta.apply(&mut durable),
                Err(e) => {
                    return quarantined(
                        durable,
                        index,
                        QuarantineReason::Undecodable {
                            index,
                            what: e.what,
                        },
                    );
                }
            }
            pos = end;
        }
        let dropped = buf.len().saturating_sub(pos);
        FramedReplay {
            durable,
            records_applied: count,
            verdict: if dropped == 0 {
                ReplayVerdict::Clean
            } else {
                ReplayVerdict::TornTail {
                    dropped_bytes: dropped,
                }
            },
        }
    }

    fn rewrite_header(&mut self) {
        if self.buf.len() < JOURNAL_HEADER_LEN {
            // Adopted bytes shorter than a header (torn creation): nothing
            // to rewrite in place; replay treats this as an empty journal.
            return;
        }
        let count_bytes = self.count.to_le_bytes();
        let crc = super::codec::crc32(&count_bytes).to_le_bytes();
        self.buf[4..12].copy_from_slice(&count_bytes);
        self.buf[12..16].copy_from_slice(&crc);
    }
}

/// The coalescing half of group commit (DESIGN.md §10): deltas accumulate
/// here until the batch cap is hit or the host asks for a flush, then
/// commit as one [`FramedJournal::append_batch`]. The buffer itself is
/// bookkeeping — [`NodeShell`](super::shell::NodeShell) owns the two
/// correctness rules that make coalescing safe:
///
/// * **Ack-before-flush**: every effect of a step whose `Persist` is still
///   buffered (sends, outputs — anything observable) must be deferred
///   until the covering flush commits. A buffered delta that never reaches
///   media is then indistinguishable from a crash just before the step.
/// * **Crash = torn tail**: a crash with a non-empty buffer loses the
///   whole buffered suffix; since nothing it covered was acknowledged,
///   replay's torn-tail classification recovers correctly.
#[derive(Clone, Debug, Default)]
pub struct GroupCommitBuffer {
    pending: Vec<DurableDelta>,
    max_batch: usize,
}

impl GroupCommitBuffer {
    /// A buffer flushing after at most `max_batch` deltas (minimum 1).
    pub fn new(max_batch: usize) -> Self {
        GroupCommitBuffer {
            pending: Vec::new(),
            max_batch: max_batch.max(1),
        }
    }

    /// Buffers one delta; returns true when the batch cap is reached and
    /// the caller must flush now.
    pub fn push(&mut self, delta: DurableDelta) -> bool {
        self.pending.push(delta);
        self.pending.len() >= self.max_batch
    }

    /// Deltas currently buffered.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// True when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// The buffered deltas, oldest first.
    pub fn pending(&self) -> &[DurableDelta] {
        &self.pending
    }

    /// Empties the buffer once its batch is committed (or lost), keeping
    /// the allocation for the next batch.
    pub fn clear(&mut self) {
        self.pending.clear();
    }
}

/// Reads the committed count from a header, or `None` if the header is
/// missing or fails its checksum.
fn read_committed_count(buf: &[u8]) -> Option<u64> {
    let header = buf.get(..JOURNAL_HEADER_LEN)?;
    let mut count_bytes = [0u8; 8];
    count_bytes.copy_from_slice(&header[4..12]);
    let mut crc_bytes = [0u8; 4];
    crc_bytes.copy_from_slice(&header[12..16]);
    if super::codec::crc32(&count_bytes) != u32::from_le_bytes(crc_bytes) {
        return None;
    }
    Some(u64::from_le_bytes(count_bytes))
}

fn quarantined(durable: Durable, records_applied: u64, reason: QuarantineReason) -> FramedReplay {
    FramedReplay {
        durable,
        records_applied,
        verdict: ReplayVerdict::Quarantined { reason },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{LogEntry, PartialWrite};
    use coterie_quorum::GridCoterie;
    use std::sync::Arc;

    fn cfg() -> ProtocolConfig {
        ProtocolConfig::new(Arc::new(GridCoterie::new()), 4)
    }

    fn b(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    #[test]
    fn diff_of_identical_states_is_none() {
        let d = Durable::pristine(&cfg());
        assert!(DurableDelta::diff(&d, &d.clone()).is_none());
    }

    #[test]
    fn diff_then_apply_round_trips() {
        let config = cfg();
        let old = Durable::pristine(&config);
        let mut new = old.clone();
        new.version = 3;
        new.stale = true;
        new.dversion = 5;
        new.enumber = 2;
        new.elist = vec![NodeId(0), NodeId(2)];
        new.object
            .apply(&PartialWrite::new([(1, b("hello")), (3, b("world"))]));
        new.log.push(LogEntry {
            version: 3,
            write: PartialWrite::new([(1, b("hello"))]),
        });
        new.prepared = Some((
            OpId {
                node: NodeId(1),
                seq: 9,
            },
            Action::MarkStale { desired_version: 7 },
        ));
        new.decisions.insert(
            OpId {
                node: NodeId(0),
                seq: 1,
            },
            true,
        );
        new.op_counter = 11;
        new.last_good = vec![NodeId(0)];
        new.rejoin_pending = true;

        let delta = DurableDelta::diff(&old, &new).expect("changed");
        let mut rebuilt = old.clone();
        delta.apply(&mut rebuilt);
        assert_eq!(rebuilt, new);
    }

    #[test]
    fn journal_replay_reconstructs_state() {
        let config = cfg();
        let mut state = Durable::pristine(&config);
        let mut journal = FramedJournal::new();

        for v in 1..=6u64 {
            let mut next = state.clone();
            next.version = v;
            next.object
                .apply(&PartialWrite::new([((v % 4) as PageId, b("pg"))]));
            next.log.push(LogEntry {
                version: v,
                write: PartialWrite::new([((v % 4) as PageId, b("pg"))]),
            });
            let delta = DurableDelta::diff(&state, &next).expect("changed");
            journal.append_delta(&delta);
            state = next;

            assert_eq!(journal.replay(&config), state);
        }
        assert_eq!(journal.appended_total(), 6);
    }

    /// A journal of `n` simple version-bump deltas plus the final state.
    fn build_framed(config: &ProtocolConfig, n: u64) -> (FramedJournal, Durable) {
        let mut state = Durable::pristine(config);
        let mut journal = FramedJournal::new();
        for v in 1..=n {
            let mut next = state.clone();
            next.version = v;
            next.object
                .apply(&PartialWrite::new([((v % 4) as PageId, b("pg"))]));
            next.log.push(LogEntry {
                version: v,
                write: PartialWrite::new([((v % 4) as PageId, b("pg"))]),
            });
            let delta = DurableDelta::diff(&state, &next).expect("changed");
            journal.append_delta(&delta);
            state = next;
        }
        (journal, state)
    }

    #[test]
    fn framed_clean_replay_reconstructs_state() {
        let config = cfg();
        let (journal, state) = build_framed(&config, 6);
        let replay = journal.replay_checked(&config);
        assert_eq!(replay.verdict, ReplayVerdict::Clean);
        assert_eq!(replay.records_applied, 6);
        assert_eq!(replay.durable, state);
        assert_eq!(journal.committed_records(), 6);
    }

    #[test]
    fn framed_torn_append_recovers_committed_prefix() {
        let config = cfg();
        let (mut journal, state) = build_framed(&config, 3);
        let mut next = state.clone();
        next.version = 9;
        let delta = DurableDelta::diff(&state, &next).expect("changed");
        journal.append_batch_torn(&[delta], 5);
        let replay = journal.replay_checked(&config);
        assert_eq!(replay.verdict, ReplayVerdict::TornTail { dropped_bytes: 5 });
        assert_eq!(replay.durable, state, "torn record dropped, prefix kept");
        assert!(replay.verdict.is_bootable());
    }

    #[test]
    fn framed_torn_append_never_keeps_whole_record() {
        let config = cfg();
        let (mut journal, state) = build_framed(&config, 1);
        let mut next = state.clone();
        next.version = 2;
        let delta = DurableDelta::diff(&state, &next).expect("changed");
        journal.append_batch_torn(&[delta], usize::MAX);
        let replay = journal.replay_checked(&config);
        assert!(
            matches!(replay.verdict, ReplayVerdict::TornTail { .. }),
            "even keep=MAX drops at least one byte: {:?}",
            replay.verdict
        );
        assert_eq!(replay.durable, state);
    }

    #[test]
    fn framed_midstream_bit_flip_quarantines() {
        let config = cfg();
        let (journal, _) = build_framed(&config, 5);
        // Flip one payload bit of the second record: offset just past the
        // header and the first record's frame.
        let mut corrupt = journal.clone();
        assert!(corrupt.flip_bit(JOURNAL_HEADER_LEN + 8 + 2, 3));
        let replay = corrupt.replay_checked(&config);
        match replay.verdict {
            ReplayVerdict::Quarantined { .. } => {}
            other => panic!("expected quarantine, got {other:?}"),
        }
        assert!(!replay.verdict.is_bootable());
    }

    #[test]
    fn framed_header_count_flip_quarantines_not_truncates() {
        let config = cfg();
        let (journal, _) = build_framed(&config, 5);
        // Flip a count bit (header offset 4..12): without the header CRC
        // this would masquerade as a torn tail and silently drop
        // acknowledged records.
        let mut corrupt = journal.clone();
        assert!(corrupt.flip_bit(5, 0));
        let replay = corrupt.replay_checked(&config);
        assert_eq!(
            replay.verdict,
            ReplayVerdict::Quarantined {
                reason: QuarantineReason::HeaderCorrupt
            }
        );
    }

    #[test]
    fn framed_bad_magic_quarantines() {
        let config = cfg();
        let (journal, _) = build_framed(&config, 2);
        let mut corrupt = journal.clone();
        assert!(corrupt.flip_bit(0, 7));
        assert_eq!(
            corrupt.replay_checked(&config).verdict,
            ReplayVerdict::Quarantined {
                reason: QuarantineReason::BadMagic
            }
        );
    }

    #[test]
    fn framed_torn_creation_boots_pristine() {
        let config = cfg();
        let journal = FramedJournal::from_bytes(vec![b'C', b'T']);
        let replay = journal.replay_checked(&config);
        assert_eq!(replay.verdict, ReplayVerdict::TornTail { dropped_bytes: 2 });
        assert_eq!(replay.durable, Durable::pristine(&config));
    }

    #[test]
    fn framed_reset_to_restarts_history() {
        let config = cfg();
        let (mut journal, state) = build_framed(&config, 4);
        let total_before = journal.appended_total();
        journal.reset_to(&state, &config);
        let replay = journal.replay_checked(&config);
        assert_eq!(replay.verdict, ReplayVerdict::Clean);
        assert_eq!(replay.durable, state);
        assert_eq!(journal.committed_records(), 1);
        assert!(journal.appended_total() > total_before);
    }

    #[test]
    fn batch_append_is_byte_identical_to_sequential() {
        let config = cfg();
        let (one_by_one, state) = build_framed(&config, 5);
        // Re-derive the same delta sequence and append it as one batch.
        let mut deltas = Vec::new();
        let replayed = one_by_one.replay_checked(&config);
        assert_eq!(replayed.durable, state);
        let mut cur = Durable::pristine(&config);
        for v in 1..=5u64 {
            let mut next = cur.clone();
            next.version = v;
            next.object
                .apply(&PartialWrite::new([((v % 4) as PageId, b("pg"))]));
            next.log.push(LogEntry {
                version: v,
                write: PartialWrite::new([((v % 4) as PageId, b("pg"))]),
            });
            deltas.push(DurableDelta::diff(&cur, &next).expect("changed"));
            cur = next;
        }
        let mut batched = FramedJournal::new();
        batched.append_batch(&deltas);
        assert_eq!(batched.bytes(), one_by_one.bytes());
        assert_eq!(batched.committed_records(), 5);
    }

    #[test]
    fn torn_batch_flush_drops_whole_batch() {
        let config = cfg();
        let (mut journal, state) = build_framed(&config, 2);
        let d1 = DurableDelta {
            version: Some(3),
            ..DurableDelta::default()
        };
        let d2 = DurableDelta {
            version: Some(4),
            ..DurableDelta::default()
        };
        journal.append_batch_torn(&[d1, d2], usize::MAX);
        let replay = journal.replay_checked(&config);
        assert!(
            matches!(replay.verdict, ReplayVerdict::TornTail { .. }),
            "torn batch must classify as torn tail: {:?}",
            replay.verdict
        );
        assert_eq!(replay.durable, state, "no partial batch survives");
        // truncate_tail heals the journal for further appends.
        let mut healed = journal.clone();
        assert!(healed.truncate_tail() > 0);
        assert_eq!(healed.replay_checked(&config).verdict, ReplayVerdict::Clean);
    }

    #[test]
    fn epoch_changes_atomically() {
        let config = cfg();
        let old = Durable::pristine(&config);
        let mut new = old.clone();
        new.enumber = 4;
        new.elist = vec![NodeId(1), NodeId(3)];
        let delta = DurableDelta::diff(&old, &new).unwrap();
        assert_eq!(delta.epoch, Some((4, vec![NodeId(1), NodeId(3)])));
        // The rest of the delta is empty: nothing else is touched.
        assert_eq!(
            DurableDelta {
                epoch: None,
                ..delta
            },
            DurableDelta::default()
        );
    }
}
