//! The load generator: a pre-synthesized pool replayed as an IQ stream,
//! either as fast as the reader pulls (closed loop) or on the air-rate
//! schedule (open loop), logging every pull.
//!
//! Times are seconds since a round's origin `Instant`, shared by the
//! source, the decoder wrapper and the consumer, so one subtraction
//! relates any two stamps.

use lf_reader::IqSource;
use lf_types::Complex;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Seconds elapsed since `origin`.
pub fn secs_since(origin: Instant) -> f64 {
    origin.elapsed().as_secs_f64()
}

/// Where epochs and carrier gaps sit in the stream. Unit `k` is epoch `k`
/// followed by its gap; the pool holds `pool_epochs` units and the stream
/// cycles through it, so stream epoch `k` replays pool slot
/// `k % pool_epochs`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Layout {
    /// Carrier-on samples per epoch.
    pub epoch: usize,
    /// Carrier-off samples after each epoch.
    pub gap: usize,
    /// Distinct epochs in the pool.
    pub pool_epochs: usize,
}

impl Layout {
    /// Samples per epoch-plus-gap unit.
    pub fn period(&self) -> usize {
        self.epoch + self.gap
    }

    /// Samples in the whole pool.
    pub fn pool_len(&self) -> usize {
        self.period() * self.pool_epochs
    }

    /// Stream index of epoch `k`'s first sample.
    pub fn epoch_start(&self, k: u64) -> usize {
        k as usize * self.period()
    }

    /// Stream index one past epoch `k`'s last sample.
    pub fn epoch_end(&self, k: u64) -> usize {
        self.epoch_start(k) + self.epoch
    }

    /// Pool slot that stream epoch `k` replays.
    pub fn slot(&self, k: u64) -> usize {
        k as usize % self.pool_epochs
    }
}

/// How the source is driven.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pace {
    /// Closed loop: the next chunk is ready as soon as the previous pull
    /// returned, so a slow reader simply receives less input.
    Closed,
    /// Open loop at the air rate: sample `i` is due `i / sps` seconds
    /// after the round's pacing start, however slow the reader is.
    Live {
        /// Samples per second per reader.
        sps: f64,
    },
}

/// When a round's stream ends. Either way it ends after a whole carrier
/// gap, so the segmenter closes the last epoch exactly as every other.
#[derive(Debug, Clone, Copy)]
pub enum StopRule {
    /// After this many epochs (open loop: the input is fixed up front).
    Epochs(u64),
    /// At the first unit boundary after this instant (closed loop).
    Deadline(Instant),
}

/// One `next_chunk` call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PullRecord {
    /// Stream index of the chunk's first sample.
    pub start: usize,
    /// Samples in the chunk.
    pub len: usize,
    /// When the reader asked.
    pub t_call: f64,
    /// When the chunk was due: its last sample's air time (open loop) or
    /// the previous pull's return (closed loop).
    pub t_due: f64,
    /// When the chunk was handed over.
    pub t_ret: f64,
}

impl PullRecord {
    /// Stream index one past the chunk's last sample.
    pub fn end(&self) -> usize {
        self.start + self.len
    }

    /// How late the chunk was handed over against its due time.
    pub fn lateness(&self) -> f64 {
        self.t_ret - self.t_due
    }

    /// Time spent producing the chunk once it was both asked for and due
    /// (the copy; excludes any pacing sleep).
    pub fn pull_time(&self) -> f64 {
        self.t_ret - self.t_call.max(self.t_due)
    }
}

/// Open-loop due time of the sample just before stream index `end`: the
/// schedule starts at the round's origin.
pub fn live_due(end: usize, sps: f64) -> f64 {
    end as f64 / sps
}

/// Index of the pull whose chunk holds stream sample `sample`.
pub fn pull_holding(pulls: &[PullRecord], sample: usize) -> Option<usize> {
    let i = pulls.partition_point(|p| p.end() <= sample);
    (i < pulls.len() && pulls[i].start <= sample).then_some(i)
}

/// Due time of epoch `k`'s last sample: its air time (open loop), or the
/// due time of the chunk that carried it (closed loop).
pub fn epoch_due(pace: Pace, layout: &Layout, pulls: &[PullRecord], k: u64) -> Option<f64> {
    let end = layout.epoch_end(k);
    match pace {
        Pace::Live { sps } => Some(live_due(end, sps)),
        Pace::Closed => pull_holding(pulls, end - 1).map(|i| pulls[i].t_due),
    }
}

/// Open-loop epochs that fit in `secs` at `sps` (at least one).
pub fn epochs_in(secs: f64, sps: f64, layout: &Layout) -> u64 {
    ((secs * sps / layout.period() as f64).floor() as u64).max(1)
}

/// One stored sample: I and Q as 16-bit integers, the wire format of the
/// paper's USRP N210. A quarter of the memory of `Complex` lets a round
/// hold every epoch it replays.
pub type StoredSample = [i16; 2];

/// Amplitude of a full-scale `i16`: well above the synthesized IQ (set-up
/// fails on any sample that would clip), with a step (1.2e-4) 1/33 of the
/// simulated receiver noise σ (0.004).
pub const FULL_SCALE: f64 = 4.0;

/// A pool shared between a round's source and its replays.
pub type Pool = Arc<Vec<StoredSample>>;

/// The sample as the program receives it.
pub fn widen([re, im]: StoredSample) -> Complex {
    let step = FULL_SCALE / 32768.0;
    Complex::new(f64::from(re) * step, f64::from(im) * step)
}

/// Quantizes a synthesized sample; `None` when it would clip.
pub fn narrow(s: Complex) -> Option<StoredSample> {
    let q = |x: f64| {
        let v = (x * (32768.0 / FULL_SCALE)).round();
        (v.abs() < 32767.0).then_some(v as i16)
    };
    Some([q(s.re)?, q(s.im)?])
}

/// Copies stream samples `from..to` of a cycled pool into `out`.
pub fn copy_wrapped_into(pool: &[StoredSample], from: usize, to: usize, out: &mut Vec<Complex>) {
    out.clear();
    let n = pool.len();
    let mut p = from;
    while p < to {
        let i = p % n;
        let take = (to - p).min(n - i);
        out.extend(pool[i..i + take].iter().copied().map(widen));
        p += take;
    }
}

/// Shared pull log, read back after the runtime has dropped its source.
pub type PullLog = Arc<Mutex<Vec<PullRecord>>>;

/// Locks a log shared with the pipeline threads. A poisoned lock only
/// means a thread panicked mid-push of a complete record.
pub fn take_log<T>(log: &Mutex<Vec<T>>) -> Vec<T> {
    std::mem::take(&mut *log.lock().unwrap_or_else(PoisonError::into_inner))
}

/// How a round feeds its readers; every reader of a round shares one.
#[derive(Debug, Clone, Copy)]
pub struct Feed {
    /// Epoch/gap layout of the pools.
    pub layout: Layout,
    /// Samples per pull.
    pub chunk_len: usize,
    /// Closed or open loop.
    pub pace: Pace,
    /// When the stream ends.
    pub stop: StopRule,
    /// The round's clock origin, where the open-loop schedule starts.
    pub origin: Instant,
}

/// The benchmark's [`IqSource`]: replays a pool in fixed-size chunks,
/// paced or not, and logs every pull.
#[derive(Debug)]
pub struct PacedSource {
    pool: Pool,
    feed: Feed,
    pos: usize,
    end: Option<usize>,
    prev_ret: Option<f64>,
    log: PullLog,
}

impl PacedSource {
    /// A source replaying `pool` as `feed` says, logging into `log`.
    pub fn new(pool: Pool, feed: Feed, log: PullLog) -> Self {
        let end = match feed.stop {
            StopRule::Epochs(n) => Some(n as usize * feed.layout.period()),
            StopRule::Deadline(_) => None,
        };
        PacedSource {
            pool,
            feed,
            pos: 0,
            end,
            prev_ret: None,
            log,
        }
    }
}

impl IqSource for PacedSource {
    fn next_chunk(&mut self) -> Option<Vec<Complex>> {
        let origin = self.feed.origin;
        let t_call = secs_since(origin);
        let deadline_passed =
            matches!(self.feed.stop, StopRule::Deadline(d) if Instant::now() >= d);
        if self.end.is_none() && deadline_passed {
            let period = self.feed.layout.period();
            self.end = Some(self.pos.div_ceil(period) * period);
        }
        let end = self.end.unwrap_or(usize::MAX);
        if self.pos >= end {
            return None;
        }
        let stop = (self.pos + self.feed.chunk_len.max(1)).min(end);
        let t_due = match self.feed.pace {
            Pace::Live { sps } => {
                let due = live_due(stop, sps);
                let wait = due - secs_since(origin);
                if wait > 0.0 {
                    std::thread::sleep(Duration::from_secs_f64(wait));
                }
                due
            }
            Pace::Closed => self.prev_ret.unwrap_or(t_call),
        };
        let mut chunk = Vec::with_capacity(stop - self.pos);
        copy_wrapped_into(&self.pool, self.pos, stop, &mut chunk);
        let t_ret = secs_since(origin);
        self.log
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(PullRecord {
                start: self.pos,
                len: stop - self.pos,
                t_call,
                t_due,
                t_ret,
            });
        self.prev_ret = Some(t_ret);
        self.pos = stop;
        Some(chunk)
    }
}
