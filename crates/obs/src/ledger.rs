//! The delivery ledger: expected-vs-delivered frames per rate class,
//! per epoch, per reader — with every miss attributed to a pipeline
//! stage.
//!
//! The ledger is *clock-free*: rows are keyed by the carrier-gap epoch
//! ordinal (`lf-fleet` uses the same ordinal for frame identity), a rate
//! class key (callers pass `rate_bps.to_bits()`), and a reader index.
//! Nothing in here reads a clock, so two runs over the same scenario
//! produce byte-identical ledgers.
//!
//! The core contract is a conservation invariant, checked per reader and
//! in aggregate:
//!
//! ```text
//! expected + unexpected == delivered + Σ attributed + unattributed
//! ```
//!
//! `expected` is ground truth (frames on the air — every reader hears
//! every frame), `delivered` is what a reader actually decoded (distinct
//! payload digests, so re-decodes never double count), and every
//! expected-but-undelivered frame is attributed to a named stage via the
//! per-epoch outcome and `lf_core::DecodeProvenance::failing_stage()`
//! feed:
//!
//! * `epoch-dropped` / `epoch-faulted` — the epoch never decoded
//!   (backpressure shed or a contained worker panic);
//! * the stage named by `DecodeProvenance::failing_stage()` when the
//!   epoch decoded but the class's stream was anomalous;
//! * `stream-folding` when the class was never tracked in that epoch at
//!   all (the folder is the stage that admits streams);
//! * `bit-decode` when the stream looked clean but its frames still
//!   failed CRC — the bits were wrong and nothing upstream noticed.
//!
//! `unattributed` stays for misses in epochs the wiring never reported
//! an outcome for: a non-zero value means a diagnosis gap, not a decode
//! loss, and CI fails on it.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Stage name charged when an epoch was shed by backpressure.
pub const STAGE_EPOCH_DROPPED: &str = "epoch-dropped";
/// Stage name charged when an epoch's worker panicked (contained fault).
pub const STAGE_EPOCH_FAULTED: &str = "epoch-faulted";
/// Stage charged when a class was never tracked in a decoded epoch.
pub const STAGE_NEVER_TRACKED: &str = "stream-folding";
/// Stage charged when a clean-looking stream's frames failed CRC.
pub const STAGE_BAD_BITS: &str = "bit-decode";

/// How one (reader, epoch) pair resolved, as seen by the runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EpochOutcome {
    /// The epoch decoded; stream-level detail arrives via
    /// [`TagLedger::observe_stream`].
    Decoded,
    /// The epoch was shed by backpressure (tombstoned).
    Dropped,
    /// The worker decoding the epoch panicked; the fault was contained.
    Faulted,
}

#[derive(Debug, Default)]
struct Inner {
    /// Ground-truth frames on the air per (epoch, class) — shared by all
    /// readers (every reader hears every transmission).
    expected: BTreeMap<(u64, u64), u64>,
    /// Distinct delivered frame digests per (reader, epoch, class).
    delivered: BTreeMap<(usize, u64, u64), BTreeSet<u64>>,
    /// Epoch outcome per (reader, epoch).
    outcomes: BTreeMap<(usize, u64), EpochOutcome>,
    /// Worst recorded failing stage per (reader, epoch, class); `None`
    /// means a stream of the class was tracked and looked clean.
    streams: BTreeMap<(usize, u64, u64), Option<&'static str>>,
    /// Every reader the ledger has heard from (or been told about).
    readers: BTreeSet<usize>,
}

/// One cell of the loss-attribution matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LossCell {
    /// The stage charged with the loss.
    pub stage: &'static str,
    /// The rate class the lost frames belonged to.
    pub class: u64,
    /// The reader that missed them.
    pub reader: usize,
    /// How many expected frames this cell accounts for.
    pub count: u64,
}

/// The stage × rate-class × reader loss matrix plus the conservation
/// remainder.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LossAttribution {
    /// Non-zero cells, sorted by (stage, class, reader).
    pub cells: Vec<LossCell>,
    /// Misses in epochs with no recorded outcome — a wiring gap, not a
    /// decode loss. Zero on a correctly instrumented run.
    pub unattributed: u64,
}

impl LossAttribution {
    /// Total attributed misses across all cells.
    pub fn attributed_total(&self) -> u64 {
        self.cells.iter().map(|c| c.count).sum()
    }

    /// Attributed misses summed per stage, sorted descending by count
    /// (ties broken by stage name for determinism).
    pub fn by_stage(&self) -> Vec<(&'static str, u64)> {
        let mut per: BTreeMap<&'static str, u64> = BTreeMap::new();
        for c in &self.cells {
            *per.entry(c.stage).or_default() += c.count;
        }
        let mut out: Vec<(&'static str, u64)> = per.into_iter().collect();
        out.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        out
    }

    /// The stage charged with the most misses, if any were attributed.
    pub fn top_stage(&self) -> Option<(&'static str, u64)> {
        self.by_stage().into_iter().next()
    }
}

/// Per-rate-class delivery totals (see [`LedgerSummary`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClassSummary {
    /// The rate class key (by convention `rate_bps.to_bits()`).
    pub class: u64,
    /// Ground-truth frames on the air for this class.
    pub expected: u64,
    /// Distinct frames delivered by *any* reader (fleet union).
    pub delivered_union: u64,
    /// Per-reader deliveries summed (counts redundancy).
    pub delivered_by_readers: u64,
}

impl ClassSummary {
    /// Fleet-level delivery ratio: union deliveries over expectations.
    pub fn delivery_ratio(&self) -> f64 {
        if self.expected == 0 {
            1.0
        } else {
            self.delivered_union as f64 / self.expected as f64
        }
    }
}

/// A point-in-time roll-up of the ledger.
#[derive(Debug, Clone, PartialEq)]
pub struct LedgerSummary {
    /// Readers the ledger has rows for, ascending.
    pub readers: Vec<usize>,
    /// Per-class totals, ascending by class key.
    pub classes: Vec<ClassSummary>,
    /// Ground-truth frames on the air (all classes, all epochs).
    pub expected_total: u64,
    /// Distinct frames delivered by any reader (fleet union).
    pub delivered_union: u64,
    /// Per-reader deliveries summed over all readers.
    pub delivered_by_readers: u64,
    /// Deliveries of frames the ground truth never announced.
    pub unexpected: u64,
    /// The loss matrix at summary time.
    pub attribution: LossAttribution,
}

impl LedgerSummary {
    /// The conservation invariant, per-reader rows summed: every
    /// expectation (once per reader) plus every surplus delivery is
    /// accounted for by a delivery, an attributed miss, or the
    /// unattributed remainder.
    pub fn conserved(&self) -> bool {
        let n_readers = self.readers.len() as u64;
        self.expected_total * n_readers + self.unexpected
            == self.delivered_by_readers
                + self.attribution.attributed_total()
                + self.attribution.unattributed
    }
}

/// The clock-free delivery ledger. See the module docs for the keying
/// and attribution rules; one instance serves a whole fleet (rows carry
/// the reader index).
#[derive(Debug, Default)]
pub struct TagLedger {
    inner: Mutex<Inner>,
}

fn recover<'a, T>(
    r: Result<MutexGuard<'a, T>, PoisonError<MutexGuard<'a, T>>>,
) -> MutexGuard<'a, T> {
    r.unwrap_or_else(PoisonError::into_inner)
}

impl TagLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        TagLedger::default()
    }

    /// Registers `frames` ground-truth frames of `class` in `epoch`.
    /// Shared by all readers; calling twice for the same cell adds.
    pub fn expect(&self, epoch: u64, class: u64, frames: u64) {
        let mut inner = recover(self.inner.lock());
        *inner.expected.entry((epoch, class)).or_default() += frames;
    }

    /// Makes `reader` part of the conservation accounting even if it
    /// never observes anything (a reader that dies silently must not
    /// shrink the invariant).
    pub fn register_reader(&self, reader: usize) {
        recover(self.inner.lock()).readers.insert(reader);
    }

    /// Records how (`reader`, `epoch`) resolved. Last write wins; the
    /// runtime reports each epoch exactly once per reader.
    pub fn observe_epoch(&self, reader: usize, epoch: u64, outcome: EpochOutcome) {
        let mut inner = recover(self.inner.lock());
        inner.readers.insert(reader);
        inner.outcomes.insert((reader, epoch), outcome);
    }

    /// Records a tracked stream of `class` in (`reader`, `epoch`) and the
    /// stage its provenance flagged (`None` = clean). A flagged stage
    /// sticks: a clean sibling stream never launders an anomalous one.
    pub fn observe_stream(
        &self,
        reader: usize,
        epoch: u64,
        class: u64,
        failing_stage: Option<&'static str>,
    ) {
        let mut inner = recover(self.inner.lock());
        inner.readers.insert(reader);
        let slot = inner.streams.entry((reader, epoch, class)).or_insert(None);
        if slot.is_none() {
            *slot = failing_stage;
        }
    }

    /// Records a CRC-verified frame decoded by `reader`. `digest` is the
    /// frame's content digest; repeats of the same digest in the same
    /// cell are idempotent.
    pub fn deliver(&self, reader: usize, epoch: u64, class: u64, digest: u64) {
        let mut inner = recover(self.inner.lock());
        inner.readers.insert(reader);
        inner
            .delivered
            .entry((reader, epoch, class))
            .or_default()
            .insert(digest);
    }

    /// Resolves every miss into the stage × class × reader matrix. See
    /// the module docs for the attribution rules.
    pub fn attribution(&self) -> LossAttribution {
        let inner = recover(self.inner.lock());
        let mut cells: BTreeMap<(&'static str, u64, usize), u64> = BTreeMap::new();
        let mut unattributed = 0u64;
        for reader in &inner.readers {
            for (&(epoch, class), &expected) in &inner.expected {
                let delivered = inner
                    .delivered
                    .get(&(*reader, epoch, class))
                    .map_or(0, |d| d.len() as u64);
                let miss = expected.saturating_sub(delivered);
                if miss == 0 {
                    continue;
                }
                let stage = match inner.outcomes.get(&(*reader, epoch)) {
                    None => {
                        unattributed += miss;
                        continue;
                    }
                    Some(EpochOutcome::Dropped) => STAGE_EPOCH_DROPPED,
                    Some(EpochOutcome::Faulted) => STAGE_EPOCH_FAULTED,
                    Some(EpochOutcome::Decoded) => {
                        match inner.streams.get(&(*reader, epoch, class)) {
                            Some(Some(stage)) => stage,
                            Some(None) => STAGE_BAD_BITS,
                            None => STAGE_NEVER_TRACKED,
                        }
                    }
                };
                *cells.entry((stage, class, *reader)).or_default() += miss;
            }
        }
        LossAttribution {
            cells: cells
                .into_iter()
                .map(|((stage, class, reader), count)| LossCell {
                    stage,
                    class,
                    reader,
                    count,
                })
                .collect(),
            unattributed,
        }
    }

    /// A full roll-up: per-class totals, union vs per-reader deliveries,
    /// surplus deliveries, and the attribution matrix.
    pub fn summary(&self) -> LedgerSummary {
        let attribution = self.attribution();
        let inner = recover(self.inner.lock());
        let mut classes: BTreeMap<u64, ClassSummary> = BTreeMap::new();
        for (&(_epoch, class), &expected) in &inner.expected {
            let entry = classes.entry(class).or_insert(ClassSummary {
                class,
                expected: 0,
                delivered_union: 0,
                delivered_by_readers: 0,
            });
            entry.expected += expected;
        }
        // Union deliveries per (epoch, class) across readers; per-reader
        // sums alongside. Surplus = deliveries beyond the expectation of
        // a cell (counted per reader, same basis as the attribution).
        let mut union: BTreeMap<(u64, u64), BTreeSet<u64>> = BTreeMap::new();
        let mut unexpected = 0u64;
        let mut delivered_by_readers = 0u64;
        for (&(_reader, epoch, class), digests) in &inner.delivered {
            let n = digests.len() as u64;
            delivered_by_readers += n;
            let expected = inner.expected.get(&(epoch, class)).copied().unwrap_or(0);
            unexpected += n.saturating_sub(expected);
            union
                .entry((epoch, class))
                .or_default()
                .extend(digests.iter().copied());
            let entry = classes.entry(class).or_insert(ClassSummary {
                class,
                expected: 0,
                delivered_union: 0,
                delivered_by_readers: 0,
            });
            entry.delivered_by_readers += n;
        }
        for ((_epoch, class), digests) in union {
            if let Some(entry) = classes.get_mut(&class) {
                entry.delivered_union += digests.len() as u64;
            }
        }
        let classes: Vec<ClassSummary> = classes.into_values().collect();
        LedgerSummary {
            readers: inner.readers.iter().copied().collect(),
            expected_total: classes.iter().map(|c| c.expected).sum(),
            delivered_union: classes.iter().map(|c| c.delivered_union).sum(),
            delivered_by_readers,
            unexpected,
            classes,
            attribution,
        }
    }

    /// A new ledger holding only `reader`'s rows (expectations are
    /// shared facts and are copied wholesale).
    pub fn split_reader(&self, reader: usize) -> TagLedger {
        let inner = recover(self.inner.lock());
        let mut out = Inner {
            expected: inner.expected.clone(),
            ..Inner::default()
        };
        out.readers.insert(reader);
        for (&(r, e, c), d) in &inner.delivered {
            if r == reader {
                out.delivered.insert((r, e, c), d.clone());
            }
        }
        for (&(r, e), &o) in &inner.outcomes {
            if r == reader {
                out.outcomes.insert((r, e), o);
            }
        }
        for (&(r, e, c), &s) in &inner.streams {
            if r == reader {
                out.streams.insert((r, e, c), s);
            }
        }
        TagLedger {
            inner: Mutex::new(out),
        }
    }

    /// Merges `other` into `self`. Expectations are shared facts, so the
    /// per-cell *maximum* is kept (merging N per-reader views of one
    /// ground truth must not multiply it); deliveries, outcomes, and
    /// stream observations union, with `self` winning outcome conflicts.
    pub fn merge_from(&self, other: &TagLedger) {
        let theirs = {
            let inner = recover(other.inner.lock());
            Inner {
                expected: inner.expected.clone(),
                delivered: inner.delivered.clone(),
                outcomes: inner.outcomes.clone(),
                streams: inner.streams.clone(),
                readers: inner.readers.clone(),
            }
        };
        let mut inner = recover(self.inner.lock());
        for (k, v) in theirs.expected {
            let slot = inner.expected.entry(k).or_default();
            *slot = (*slot).max(v);
        }
        for (k, v) in theirs.delivered {
            inner.delivered.entry(k).or_default().extend(v);
        }
        for (k, v) in theirs.outcomes {
            inner.outcomes.entry(k).or_insert(v);
        }
        for (k, v) in theirs.streams {
            let slot = inner.streams.entry(k).or_insert(None);
            if slot.is_none() {
                *slot = v;
            }
        }
        inner.readers.extend(theirs.readers);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fully_delivered_ledger_attributes_nothing() {
        let ledger = TagLedger::new();
        ledger.expect(0, 10, 2);
        ledger.observe_epoch(0, 0, EpochOutcome::Decoded);
        ledger.observe_stream(0, 0, 10, None);
        ledger.deliver(0, 0, 10, 0xa);
        ledger.deliver(0, 0, 10, 0xb);
        let s = ledger.summary();
        assert_eq!(s.expected_total, 2);
        assert_eq!(s.delivered_union, 2);
        assert!(s.attribution.cells.is_empty());
        assert_eq!(s.attribution.unattributed, 0);
        assert!(s.conserved());
    }

    #[test]
    fn misses_route_to_the_flagged_stage() {
        let ledger = TagLedger::new();
        ledger.expect(3, 7, 4);
        ledger.observe_epoch(1, 3, EpochOutcome::Decoded);
        ledger.observe_stream(1, 3, 7, Some("collision-separation"));
        ledger.deliver(1, 3, 7, 0x1);
        let att = ledger.attribution();
        assert_eq!(
            att.cells,
            vec![LossCell {
                stage: "collision-separation",
                class: 7,
                reader: 1,
                count: 3
            }]
        );
        assert_eq!(att.unattributed, 0);
        assert_eq!(att.top_stage(), Some(("collision-separation", 3)));
    }

    #[test]
    fn dropped_faulted_and_untracked_get_named_stages() {
        let ledger = TagLedger::new();
        for e in 0..3 {
            ledger.expect(e, 1, 1);
        }
        ledger.observe_epoch(0, 0, EpochOutcome::Dropped);
        ledger.observe_epoch(0, 1, EpochOutcome::Faulted);
        ledger.observe_epoch(0, 2, EpochOutcome::Decoded); // class never tracked
        let att = ledger.attribution();
        let stages: Vec<&str> = att.cells.iter().map(|c| c.stage).collect();
        assert!(stages.contains(&STAGE_EPOCH_DROPPED));
        assert!(stages.contains(&STAGE_EPOCH_FAULTED));
        assert!(stages.contains(&STAGE_NEVER_TRACKED));
        assert_eq!(att.unattributed, 0);
        assert!(ledger.summary().conserved());
    }

    #[test]
    fn clean_stream_with_missing_frames_blames_bit_decode() {
        let ledger = TagLedger::new();
        ledger.expect(0, 5, 2);
        ledger.observe_epoch(2, 0, EpochOutcome::Decoded);
        ledger.observe_stream(2, 0, 5, None); // tracked, looked clean
        let att = ledger.attribution();
        assert_eq!(att.cells.len(), 1);
        assert_eq!(att.cells[0].stage, STAGE_BAD_BITS);
        assert_eq!(att.cells[0].count, 2);
    }

    #[test]
    fn unreported_epoch_is_unattributed_not_invented() {
        let ledger = TagLedger::new();
        ledger.expect(0, 5, 3);
        ledger.register_reader(0);
        let att = ledger.attribution();
        assert!(att.cells.is_empty());
        assert_eq!(att.unattributed, 3);
        assert!(ledger.summary().conserved());
    }

    #[test]
    fn repeat_deliveries_are_idempotent() {
        let ledger = TagLedger::new();
        ledger.expect(0, 5, 1);
        ledger.observe_epoch(0, 0, EpochOutcome::Decoded);
        ledger.observe_stream(0, 0, 5, None);
        for _ in 0..4 {
            ledger.deliver(0, 0, 5, 0xdead);
        }
        let s = ledger.summary();
        assert_eq!(s.delivered_by_readers, 1);
        assert_eq!(s.unexpected, 0);
        assert!(s.conserved());
    }

    #[test]
    fn anomalous_stream_flag_sticks_over_clean_sibling() {
        let ledger = TagLedger::new();
        ledger.expect(0, 5, 2);
        ledger.observe_epoch(0, 0, EpochOutcome::Decoded);
        ledger.observe_stream(0, 0, 5, Some("stream-folding"));
        ledger.observe_stream(0, 0, 5, None); // clean sibling must not launder
        let att = ledger.attribution();
        assert_eq!(att.cells[0].stage, "stream-folding");
    }

    #[test]
    fn split_then_merge_reproduces_the_aggregate() {
        let ledger = TagLedger::new();
        for e in 0..2 {
            ledger.expect(e, 11, 2);
            ledger.expect(e, 22, 1);
        }
        for reader in 0..3usize {
            for e in 0..2 {
                ledger.observe_epoch(reader, e, EpochOutcome::Decoded);
                ledger.observe_stream(reader, e, 11, None);
                ledger.deliver(reader, e, 11, 0x100 + e);
                if reader != 1 {
                    ledger.observe_stream(reader, e, 22, Some("collision-separation"));
                }
            }
        }
        let merged = TagLedger::new();
        for reader in 0..3usize {
            merged.merge_from(&ledger.split_reader(reader));
        }
        assert_eq!(merged.summary(), ledger.summary());
        assert_eq!(merged.attribution(), ledger.attribution());
        assert!(merged.summary().conserved());
    }

    #[test]
    fn surplus_deliveries_keep_the_equation_balanced() {
        let ledger = TagLedger::new();
        ledger.expect(0, 5, 1);
        ledger.observe_epoch(0, 0, EpochOutcome::Decoded);
        ledger.observe_stream(0, 0, 5, None);
        ledger.deliver(0, 0, 5, 0x1);
        ledger.deliver(0, 0, 5, 0x2); // one more than announced
        let s = ledger.summary();
        assert_eq!(s.unexpected, 1);
        assert!(s.conserved());
    }
}
