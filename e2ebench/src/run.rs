//! Runs one workload for one seed: set-up, timed rounds, output checks,
//! and (traced rounds only) the per-layer budget.
//!
//! A run is a few rounds. Each round synthesizes its own pool (timed as
//! set-up), spawns a fresh runtime over it, and stamps every pull, decode
//! (traced rounds) and delivery. An untraced run is three untraced rounds;
//! a traced run alternates untraced and traced rounds, so the two
//! `input_msps` figures it compares ran under the same conditions.

use crate::pace::{
    epoch_due, epochs_in, pull_holding, secs_since, take_log, Feed, Pace, PacedSource, PullLog,
    PullRecord, StopRule,
};
use crate::stats::{median, quantile_sorted, tail_quantile, Dist, Spread, MIN_BEYOND_TAIL};
use crate::trace::{
    replay_segmenter, BudgetInputs, DecodeIndex, DecodeRecord, EpochBudget, SegmentReplay,
    TracedDecoder, CORE_PARTS, COUNT_NAMES,
};
use crate::workload::{RoundInput, Spec, Workload};
use lf_core::pipeline::{Decoder, EpochDecode};
use lf_fleet::{
    Claim, DedupRegistry, DeliveredFrame, ExtractedFrame, FleetConfig, FleetRuntime, FrameBus,
    FrameExtractor, FrameId, ReaderId, WinReason,
};
use lf_obs::ObsContext;
use lf_reader::{Backpressure, EpochDecoder, EpochResult, ReaderRuntime, RuntimeConfig};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A segmented epoch may start or end this many samples away from the
/// synthesized one and still count as the same epoch (the segmenter
/// back-dates and trims by about a smoothing window, 12 samples here);
/// a merged or split epoch misses by a whole gap or more.
pub const RANGE_TOL: usize = 256;

/// How far inside the synthesized epoch a segmented one may start or end,
/// as a divisor of the epoch length. When the tags' idle levels pull the
/// carrier's power under half its in-epoch median (dense deployments
/// whose backscatter mostly adds to the static reflection), the epoch
/// really begins at the first tag edge and ends at the last one.
pub const TRIM_DIVISOR: usize = 10;

/// Epochs at the start of every round left out of the timing metrics:
/// the segmenter calibrates its threshold over the stream's first
/// samples (800k at paper scale) while the pipeline fills, costs a
/// reader pays once at power-up rather than per epoch.
pub const WARMUP_EPOCHS: u64 = 2;

const MIB: f64 = 1024.0 * 1024.0;

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Total measured seconds, split evenly over the rounds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Value.
    pub value: f64,
    /// How the metric varied across the run's rounds, when it has a
    /// per-round value.
    pub spread: Option<Spread>,
    /// Raw samples behind a quantile.
    pub samples: Option<usize>,
    /// Which quantile a tail is.
    pub quantile: Option<f64>,
}

impl Metric {
    fn plain(name: &str, unit: &'static str, value: f64) -> Metric {
        Metric {
            name: name.to_owned(),
            unit,
            value,
            spread: None,
            samples: None,
            quantile: None,
        }
    }

    fn across(name: &str, unit: &'static str, value: f64, per_round: &[f64]) -> Metric {
        Metric {
            spread: Spread::of(per_round),
            ..Metric::plain(name, unit, value)
        }
    }
}

/// Per-round facts printed with the result.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundSummary {
    /// Whether the round was traced.
    pub traced: bool,
    /// Set-up seconds.
    pub setup_s: f64,
    /// Digest of the round's input.
    pub digest: u64,
    /// Epochs each reader ingested.
    pub epochs: u64,
    /// Input Msps of the round.
    pub input_msps: f64,
    /// Frames the round's input carried.
    pub frames_sent: u64,
    /// Delivered frames that match ground truth.
    pub frames_matched: u64,
    /// Delivered CRC-verified frames that match no sent frame.
    pub frames_unmatched: u64,
    /// Peak heap bytes held above the post-set-up level, MiB.
    pub heap_growth_mib: f64,
}

/// A finished run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// Epochs offered to the program (all readers, all rounds).
    pub attempted: u64,
    /// Epochs shed, faulted or never delivered.
    pub failed: u64,
    /// The metrics, in report order.
    pub metrics: Vec<Metric>,
    /// Per-round facts.
    pub rounds: Vec<RoundSummary>,
    /// Why the checks failed, if they did.
    pub failures: Vec<String>,
    /// Decode workers per reader.
    pub workers: usize,
    /// `VmHWM` after the first round minus `VmRSS` after its set-up, MiB:
    /// RSS growth as the kernel sees it, printed beside the heap figure.
    pub vm_hwm_growth_mib: f64,
}

/// Per-layer samples of the traced rounds.
#[derive(Debug, Default)]
struct Layers {
    pull_time: Vec<f64>,
    push_s: f64,
    push_samples: usize,
    close_delay: Vec<f64>,
    forced_splits: u64,
    shed: u64,
    epochs_in: u64,
    queue: Vec<f64>,
    reorder: Vec<f64>,
    deliver: Vec<f64>,
    busy: Vec<f64>,
    busy_samples: f64,
    worker_window: f64,
    core: [Vec<f64>; 7],
    counts: Vec<[f64; 6]>,
    streams: u64,
    streams_with_frames: u64,
    extract_s: f64,
    extract_streams: u64,
    claim_s: f64,
    claims: u64,
    publish_s: f64,
    publishes: u64,
    dedup_entries: Vec<f64>,
    duplicates: u64,
    frames_seen: u64,
    residual: Vec<f64>,
    residual_violations: u64,
}

/// What one round observed.
#[derive(Debug, Default)]
struct RoundResult {
    epochs: u64,
    input_msps: f64,
    epoch_lat: Vec<f64>,
    frame_lat: Vec<f64>,
    /// Independent deliveries behind `frame_lat`: a bare reader hands over
    /// all of an epoch's frames at once, a fleet all of one reader's.
    frame_deliveries: usize,
    lateness: Vec<f64>,
    frames_sent: u64,
    frames_matched: u64,
    frames_unmatched: u64,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    layers: Layers,
}

impl RoundResult {
    fn fail(&mut self, why: String) {
        if self.failures.len() < 16 {
            self.failures.push(why);
        }
    }
}

/// Decode workers per reader a workload runs with.
pub fn workers_for(spec: &Spec, input: &RoundInput) -> usize {
    let dcfg = input.scenario.decoder_config();
    if spec.readers == 1 {
        RuntimeConfig::for_decoder(&dcfg).workers
    } else {
        FleetConfig::for_decoder(&dcfg, FrameExtractor::for_scenario(&input.scenario))
            .reader
            .workers
    }
}

/// Runs `opts` end to end; fails only when set-up cannot synthesize the
/// input.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let spec = opts.workload.spec();
    let plan: Vec<bool> = if opts.trace {
        vec![false, true, false, true]
    } else {
        vec![false; 4]
    };
    let round_secs = opts.seconds / plan.len() as f64;
    let (mut rss_after_setup, mut rss_peak) = (None, None);
    let mut summaries = Vec::new();
    let mut results = Vec::new();
    let mut workers = 1;
    for (r, &traced) in plan.iter().enumerate() {
        let t = Instant::now();
        let input = RoundInput::synthesize(opts.workload, opts.seed, r)?;
        let setup_s = t.elapsed().as_secs_f64();
        let heap_base = crate::heap::reset_peak();
        if rss_after_setup.is_none() {
            rss_after_setup = proc_status_kib("VmRSS");
        }
        workers = workers_for(&spec, &input);
        let result = if spec.readers == 1 {
            reader_round(&spec, &input, round_secs, traced)
        } else {
            fleet_round(&spec, &input, round_secs, traced)
        };
        if rss_peak.is_none() {
            // Later rounds' set-up would leave its own temporaries in the
            // high-water mark, so the growth is read after the first.
            rss_peak = proc_status_kib("VmHWM");
        }
        summaries.push(RoundSummary {
            traced,
            setup_s,
            digest: input.digest(),
            epochs: result.epochs,
            input_msps: result.input_msps,
            frames_sent: result.frames_sent,
            frames_matched: result.frames_matched,
            frames_unmatched: result.frames_unmatched,
            heap_growth_mib: crate::heap::peak().saturating_sub(heap_base) as f64 / MIB,
        });
        results.push(result);
    }
    let vm_hwm_growth_mib = match (rss_peak, rss_after_setup) {
        (Some(hwm), Some(rss)) => (hwm as f64 - rss as f64) / 1024.0,
        _ => f64::NAN,
    };

    let mut failures: Vec<String> = results.iter().flat_map(|r| r.failures.clone()).collect();
    let sent: u64 = results.iter().map(|r| r.frames_sent).sum();
    let matched: u64 = results.iter().map(|r| r.frames_matched).sum();
    let unmatched: u64 = results.iter().map(|r| r.frames_unmatched).sum();
    if (matched as f64) < spec.min_delivery * sent as f64 {
        failures.push(format!(
            "{matched} of {sent} frames delivered, below the floor of {}",
            spec.min_delivery
        ));
    }
    // CRC-16 lets a wrong frame through about once in 65536 windows, and
    // the extractor scans every phase of every decoded stream, so dense
    // epochs full of unresolved streams do yield a few; a quarter of the
    // true frames means the decode or the delivery path corrupts them.
    if unmatched * 4 > matched {
        failures.push(format!("{unmatched} delivered frames match nothing sent"));
    }
    let attempted = results.iter().map(|r| r.attempted).sum();
    let failed = results.iter().map(|r| r.failed).sum();
    let metrics = if opts.trace {
        layer_metrics(&summaries, &results)
    } else {
        end_to_end_metrics(&summaries, &results)
    };
    for m in &metrics {
        if !m.value.is_finite() {
            failures.push(format!("metric {} was not measured", m.name));
        }
    }
    Ok(Outcome {
        correct: failures.is_empty(),
        attempted,
        failed,
        metrics,
        rounds: summaries,
        failures,
        workers,
        vm_hwm_growth_mib,
    })
}

/// A `/proc/self/status` field in KiB.
fn proc_status_kib(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status.lines().find_map(|l| {
        let rest = l.strip_prefix(field)?.strip_prefix(':')?;
        rest.split_whitespace().next()?.parse().ok()
    })
}

/// The feed of one round: open-loop rounds fix their epoch count from
/// the round length, closed-loop rounds run to a deadline.
fn feed_for(spec: &Spec, origin: Instant, secs: f64) -> Feed {
    let stop = match spec.pace {
        Pace::Closed => StopRule::Deadline(origin + Duration::from_secs_f64(secs)),
        Pace::Live { sps } => StopRule::Epochs(epochs_in(secs, sps, &spec.layout)),
    };
    Feed {
        layout: spec.layout,
        chunk_len: spec.chunk_len,
        pace: spec.pace,
        stop,
        origin,
    }
}

/// Frames extracted from one decode, with how long extraction took.
struct Extracted {
    frames: Vec<ExtractedFrame>,
    streams: u64,
    streams_with_frames: u64,
    secs: f64,
}

fn extract_all(extractor: &FrameExtractor, decode: &EpochDecode) -> Extracted {
    let t = Instant::now();
    let mut frames = Vec::new();
    let mut with_frames = 0;
    for s in &decode.streams {
        let got = extractor.extract(s);
        with_frames += u64::from(!got.is_empty());
        frames.extend(got);
    }
    Extracted {
        frames,
        streams: decode.streams.len() as u64,
        streams_with_frames: with_frames,
        secs: t.elapsed().as_secs_f64(),
    }
}

/// Checks a segmented range against the synthesized epoch `k`.
fn range_matches(spec: &Spec, k: u64, range: &std::ops::Range<usize>) -> bool {
    let start = spec.layout.epoch_start(k);
    let end = spec.layout.epoch_end(k);
    let trim = spec.layout.epoch / TRIM_DIVISOR;
    range.start + RANGE_TOL >= start
        && range.start <= start + trim
        && range.end <= end + RANGE_TOL
        && range.end + trim >= end
}

/// The pulls past warm-up.
fn measured<'a>(pulls: &'a [PullRecord], spec: &Spec) -> impl Iterator<Item = &'a PullRecord> {
    let warm = spec.layout.epoch_start(WARMUP_EPOCHS);
    pulls.iter().filter(move |p| p.start >= warm)
}

/// Ingest lag of every timed epoch a reader ingested: how long after the
/// epoch's last sample was on the air, at the front end's rate from the
/// first pull on, the reader held it. Open loop, that air schedule is the
/// pacing; closed loop, it is the backlog a live 25 Msps antenna would
/// have built, which shrinks to the chunking delay once the reader keeps
/// up.
fn epoch_lags<'a>(spec: &'a Spec, pulls: &'a [PullRecord]) -> impl Iterator<Item = f64> + 'a {
    let t_start = pulls.first().map_or(0.0, |p| p.t_call.min(p.t_due));
    (WARMUP_EPOCHS..epochs_pulled(spec, pulls)).filter_map(move |k| {
        let end = spec.layout.epoch_end(k);
        let on_air = t_start + end as f64 / spec.air_sps;
        pull_holding(pulls, end - 1).map(|i| pulls[i].t_ret - on_air)
    })
}

/// Input Msps past warm-up: samples pulled after it, over the time from
/// the first such pull to the last delivery.
fn input_msps(spec: &Spec, pulls: &[&[PullRecord]], last_delivery: f64) -> f64 {
    let (mut samples, mut first) = (0usize, f64::INFINITY);
    for p in pulls.iter().flat_map(|p| measured(p, spec)) {
        samples += p.len;
        first = first.min(p.t_call);
    }
    samples as f64 / (last_delivery - first) / 1e6
}

/// Epochs a reader ingested: whole units pulled.
fn epochs_pulled(spec: &Spec, pulls: &[PullRecord]) -> u64 {
    pulls
        .last()
        .map_or(0, |p| (p.end() / spec.layout.period()) as u64)
}

/// One bare-reader round.
fn reader_round(spec: &Spec, input: &RoundInput, secs: f64, traced: bool) -> RoundResult {
    let dcfg = input.scenario.decoder_config();
    let mut rcfg = RuntimeConfig::for_decoder(&dcfg);
    rcfg.backpressure = spec.backpressure;
    let extractor = FrameExtractor::for_scenario(&input.scenario);
    let origin = Instant::now();
    let feed = feed_for(spec, origin, secs);
    let log = PullLog::default();
    let tracer = traced.then(|| {
        Arc::new(TracedDecoder::new(
            Decoder::new(dcfg.clone()),
            origin,
            false,
        ))
    });
    let decoder: Arc<dyn EpochDecoder> = match &tracer {
        Some(t) => Arc::clone(t) as Arc<dyn EpochDecoder>,
        None => Arc::new(Decoder::new(dcfg.clone())),
    };
    let source = PacedSource::new(Arc::clone(&input.pools[0]), feed, Arc::clone(&log));
    let mut runtime = ReaderRuntime::spawn(source, decoder, &rcfg);
    let mut reports = Vec::new();
    while let Some(report) = runtime.recv() {
        reports.push((secs_since(origin), report));
    }
    let stats = runtime.join();
    let pulls = take_log(&log);

    let mut res = RoundResult::default();
    let n = epochs_pulled(spec, &pulls);
    res.epochs = n;
    let last = reports.last().map_or(f64::NAN, |(t, _)| *t);
    res.input_msps = input_msps(spec, &[&pulls], last);
    res.lateness = epoch_lags(spec, &pulls).collect();
    if reports.len() as u64 != n {
        res.fail(format!(
            "{} epochs ingested but {} delivered",
            n,
            reports.len()
        ));
    }
    if stats.forced_splits > 0 {
        res.fail(format!("{} forced splits", stats.forced_splits));
    }

    // Scoring, and the extraction / delivery replays of traced rounds.
    let mut replay_frames: Vec<(usize, u64, ExtractedFrame)> = Vec::new();
    let mut per_epoch_streams: HashMap<u64, (u64, u64)> = HashMap::new();
    for (i, (t_recv, report)) in reports.iter().enumerate() {
        let k = report.seq;
        res.attempted += 1;
        if k != i as u64 {
            res.fail(format!("delivery {i} carried seq {k}"));
        }
        if !range_matches(spec, k, &report.range) {
            res.fail(format!("epoch {k} segmented as {:?}", report.range));
        }
        if report.forced_split {
            res.fail(format!("epoch {k} was force-split"));
        }
        res.frames_sent += input.frames_sent(k) as u64;
        match &report.result {
            EpochResult::Decoded { decode, .. } => {
                let Some(due) = epoch_due(spec.pace, &spec.layout, &pulls, k) else {
                    res.fail(format!("epoch {k} has no pull carrying its last sample"));
                    continue;
                };
                let latency = t_recv - due;
                let timed = k >= WARMUP_EPOCHS;
                if timed {
                    res.epoch_lat.push(latency);
                }
                let ex = extract_all(&extractor, decode);
                let truth: HashSet<FrameId> = input.truth_ids(k).into_iter().collect();
                let mut seen = HashSet::new();
                let delivered_before = res.frame_lat.len();
                for f in &ex.frames {
                    let id = f.id(k);
                    if seen.insert(id) {
                        if truth.contains(&id) {
                            res.frames_matched += 1;
                            if timed {
                                res.frame_lat.push(latency);
                            }
                        } else {
                            res.frames_unmatched += 1;
                        }
                    }
                }
                res.frame_deliveries += usize::from(res.frame_lat.len() > delivered_before);
                if traced {
                    let l = &mut res.layers;
                    l.extract_s += ex.secs;
                    l.extract_streams += ex.streams;
                    per_epoch_streams.insert(k, (ex.streams, ex.streams_with_frames));
                    replay_frames.extend(ex.frames.into_iter().map(|f| (0, k, f)));
                }
            }
            EpochResult::Dropped => res.failed += 1,
            EpochResult::Faulted { message } => {
                res.failed += 1;
                res.fail(format!("epoch {k} faulted: {message}"));
            }
        }
    }

    if let Some(tracer) = tracer {
        let replay = replay_segmenter(rcfg.segmenter, &input.pools[0], &pulls);
        let ranges: Vec<_> = reports.iter().map(|(_, r)| r.range.clone()).collect();
        let replayed: Vec<_> = replay.epochs.iter().map(|e| e.range.clone()).collect();
        if ranges != replayed {
            res.fail("segmenter replay disagrees with the runtime's epochs".to_owned());
        }
        let records = tracer.take();
        record_decode_load(
            &mut res.layers,
            &records,
            rcfg.workers,
            &pulls,
            reports.last().map(|r| r.0),
        );
        let mut index = DecodeIndex::new(records);
        let mut slots_seen = HashSet::new();
        for (t_recv, report) in &reports {
            let k = report.seq;
            let Some(rec) = replay
                .epochs
                .get(k as usize)
                .and_then(|e| index.claim(&e.key))
            else {
                continue;
            };
            let Some(b) = budget_of(spec, &pulls, &replay, k, &rec, *t_recv) else {
                res.fail(format!("epoch {k} has no complete trace"));
                continue;
            };
            let l = &mut res.layers;
            if k >= WARMUP_EPOCHS {
                push_decode_side(l, &b);
                l.reorder.push(b.deliver);
                push_residual(l, &b);
            }
            if slots_seen.insert(spec.layout.slot(k)) {
                l.counts.push(rec.counts.values());
                let (s, w) = per_epoch_streams.get(&k).copied().unwrap_or_default();
                l.streams += s;
                l.streams_with_frames += w;
            }
        }
        let l = &mut res.layers;
        l.pull_time = measured(&pulls, spec).map(PullRecord::pull_time).collect();
        l.push_s = replay.push_s.iter().sum();
        l.push_samples = replay.samples;
        l.forced_splits = stats.forced_splits;
        l.shed = stats.epochs_dropped;
        l.epochs_in = stats.epochs_in;
        let d = replay_delivery(&replay_frames);
        l.claim_s = d.claim_s;
        l.claims = d.claims;
        l.publish_s = d.publish_s;
        l.publishes = d.publishes;
        l.dedup_entries.push(d.entries as f64);
        l.frames_seen += d.claims;
        if l.residual_violations > 0 {
            let v = l.residual_violations;
            res.fail(format!("{v} epoch budgets exceed the stated residual"));
        }
    }
    res
}

/// One fleet round.
fn fleet_round(spec: &Spec, input: &RoundInput, secs: f64, traced: bool) -> RoundResult {
    let dcfg = input.scenario.decoder_config();
    let extractor = FrameExtractor::for_scenario(&input.scenario);
    let fcfg = FleetConfig::for_decoder(&dcfg, extractor.clone());
    let origin = Instant::now();
    let feed = feed_for(spec, origin, secs);
    let logs: Vec<PullLog> = (0..spec.readers).map(|_| PullLog::default()).collect();
    let sources: Vec<PacedSource> = input
        .pools
        .iter()
        .zip(&logs)
        .map(|(pool, log)| PacedSource::new(Arc::clone(pool), feed, Arc::clone(log)))
        .collect();
    let tracer =
        traced.then(|| Arc::new(TracedDecoder::new(Decoder::new(dcfg.clone()), origin, true)));
    let decoder: Arc<dyn EpochDecoder> = match &tracer {
        Some(t) => Arc::clone(t) as Arc<dyn EpochDecoder>,
        None => Arc::new(Decoder::new(dcfg.clone())),
    };
    let (fleet, subs) = FleetRuntime::spawn(sources, decoder, &fcfg, 1, ObsContext::disabled());
    let mut frames = Vec::new();
    for sub in &subs {
        while let Some(frame) = sub.recv() {
            frames.push((secs_since(origin), frame));
        }
    }
    let report = fleet.join();
    let pulls: Vec<Vec<PullRecord>> = logs.iter().map(|l| take_log(l)).collect();

    let mut res = RoundResult::default();
    let n = match feed.stop {
        StopRule::Epochs(n) => n,
        StopRule::Deadline(_) => epochs_pulled(spec, &pulls[0]),
    };
    res.epochs = n;
    let refs: Vec<&[PullRecord]> = pulls.iter().map(Vec::as_slice).collect();
    let last = frames.last().map_or(f64::NAN, |(t, _)| *t);
    res.input_msps = input_msps(spec, &refs, last);
    res.lateness = pulls.iter().flat_map(|p| epoch_lags(spec, p)).collect();
    res.attempted = n * spec.readers as u64;
    for (r, (p, s)) in pulls.iter().zip(&report.per_reader).enumerate() {
        res.failed += s.epochs_dropped + s.faults;
        if epochs_pulled(spec, p) != n || s.epochs_in != n || s.epochs_out != n {
            res.fail(format!(
                "reader {r}: {} epochs pulled, {} segmented, {} delivered, {n} sent",
                epochs_pulled(spec, p),
                s.epochs_in,
                s.epochs_out
            ));
        }
        if s.forced_splits > 0 || s.faults > 0 || s.epochs_dropped > 0 {
            res.fail(format!(
                "reader {r}: {} forced splits, {} faults, {} shed",
                s.forced_splits, s.faults, s.epochs_dropped
            ));
        }
    }
    if report.stats.epochs_decoded != res.attempted {
        res.fail(format!(
            "{} epochs decoded of {}",
            report.stats.epochs_decoded, res.attempted
        ));
    }

    let truth: Vec<HashSet<FrameId>> = (0..n)
        .map(|k| input.truth_ids(k).into_iter().collect())
        .collect();
    res.frames_sent = (0..n).map(|k| input.frames_sent(k) as u64).sum();
    let dues: Vec<f64> = (0..n)
        .map(|k| epoch_due(spec.pace, &spec.layout, &pulls[0], k).unwrap_or(f64::NAN))
        .collect();
    let mut ids = HashSet::new();
    let mut bursts = HashSet::new();
    let mut epoch_done: Vec<Option<f64>> = vec![None; n as usize];
    for (t_recv, f) in &frames {
        let k = f.epoch_ordinal;
        if !ids.insert(f.id) {
            res.fail(format!("frame {:?} of epoch {k} delivered twice", f.id));
        }
        let Some(due) = dues.get(k as usize) else {
            res.fail(format!(
                "frame delivered for epoch {k}, beyond the {n} sent"
            ));
            continue;
        };
        if !truth[k as usize].contains(&f.id) {
            res.frames_unmatched += 1;
            continue;
        }
        res.frames_matched += 1;
        if k >= WARMUP_EPOCHS {
            res.frame_lat.push(t_recv - due);
            // The coordinator publishes one reader's report in one burst.
            bursts.insert((f.winner, k));
        }
        let done = &mut epoch_done[k as usize];
        *done = Some(done.map_or(*t_recv, |d: f64| d.max(*t_recv)));
    }
    res.frame_deliveries = bursts.len();
    res.epoch_lat = epoch_done
        .iter()
        .zip(&dues)
        .skip(WARMUP_EPOCHS as usize)
        .filter_map(|(done, due)| done.map(|t| t - due))
        .collect();

    if let Some(tracer) = tracer {
        let records = tracer.take();
        record_decode_load(
            &mut res.layers,
            &records,
            spec.readers * fcfg.reader.workers,
            &pulls.concat(),
            frames.last().map(|f| f.0),
        );
        let mut index = DecodeIndex::new(records);
        let mut decodes: HashMap<(usize, u64), DecodeRecord> = HashMap::new();
        let mut replays = Vec::new();
        for (r, p) in pulls.iter().enumerate() {
            let replay = replay_segmenter(fcfg.reader.segmenter, &input.pools[r], p);
            if replay.epochs.len() as u64 != n
                || replay
                    .epochs
                    .iter()
                    .enumerate()
                    .any(|(k, e)| e.forced_split || !range_matches(spec, k as u64, &e.range))
            {
                res.fail(format!(
                    "reader {r}: segmented epochs differ from synthesized"
                ));
            }
            for (k, e) in replay.epochs.iter().enumerate() {
                if let Some(rec) = index.claim(&e.key) {
                    decodes.insert((r, k as u64), rec);
                }
            }
            res.layers.push_s += replay.push_s.iter().sum::<f64>();
            res.layers.push_samples += replay.samples;
            replays.push(replay);
        }
        let mut slots_seen = HashSet::new();
        let mut replay_frames = Vec::new();
        let mut keys: Vec<(usize, u64)> = decodes.keys().copied().collect();
        keys.sort_by_key(|&(r, k)| (k, r));
        for (r, k) in keys {
            let rec = &decodes[&(r, k)];
            if k >= WARMUP_EPOCHS {
                if let Some(b) = budget_of(spec, &pulls[r], &replays[r], k, rec, rec.t_exit) {
                    push_decode_side(&mut res.layers, &b);
                }
            }
            if let Some(decode) = &rec.decode {
                let ex = extract_all(&extractor, decode);
                let l = &mut res.layers;
                l.extract_s += ex.secs;
                l.extract_streams += ex.streams;
                if slots_seen.insert((r, spec.layout.slot(k))) {
                    l.counts.push(rec.counts.values());
                    l.streams += ex.streams;
                    l.streams_with_frames += ex.streams_with_frames;
                }
                replay_frames.extend(ex.frames.into_iter().map(|f| (r, k, f)));
            }
        }
        for (t_recv, f) in &frames {
            let (r, k) = (f.winner.0, f.epoch_ordinal);
            let Some(rec) = decodes.get(&(r, k)) else {
                res.fail(format!(
                    "frame of epoch {k} has no traced decode at reader {r}"
                ));
                continue;
            };
            let Some(b) = budget_of(spec, &pulls[r], &replays[r], k, rec, *t_recv) else {
                continue;
            };
            if k < WARMUP_EPOCHS {
                continue;
            }
            res.layers.deliver.push(b.deliver);
            push_residual(&mut res.layers, &b);
        }
        let d = replay_delivery(&replay_frames);
        let l = &mut res.layers;
        l.pull_time = pulls
            .iter()
            .flat_map(|p| measured(p, spec))
            .map(PullRecord::pull_time)
            .collect();
        l.forced_splits = report.per_reader.iter().map(|s| s.forced_splits).sum();
        l.shed = report.per_reader.iter().map(|s| s.epochs_dropped).sum();
        l.epochs_in = report.per_reader.iter().map(|s| s.epochs_in).sum();
        l.claim_s = d.claim_s;
        l.claims = d.claims;
        l.publish_s = d.publish_s;
        l.publishes = d.publishes;
        l.dedup_entries.push(report.stats.unique_frames as f64);
        l.duplicates += report.stats.duplicates_suppressed;
        l.frames_seen += report
            .stats
            .per_reader
            .iter()
            .map(|c| c.frames_seen)
            .sum::<u64>();
        if l.residual_violations > 0 {
            let v = l.residual_violations;
            res.fail(format!("{v} frame budgets exceed the stated residual"));
        }
    }
    res
}

/// Decode-call load: busy time per decode, samples decoded, and the
/// worker-seconds available over the round's window.
fn record_decode_load(
    l: &mut Layers,
    records: &[DecodeRecord],
    workers: usize,
    pulls: &[PullRecord],
    last_delivery: Option<f64>,
) {
    for rec in records {
        l.busy.push(rec.t_exit - rec.t_enter);
        l.busy_samples += rec.key.2 as f64;
    }
    let first = pulls.iter().map(|p| p.t_call).fold(f64::INFINITY, f64::min);
    if let Some(last) = last_delivery {
        l.worker_window += workers as f64 * (last - first);
    }
}

/// The budget of epoch `k` at one reader, delivered at `t_recv`.
fn budget_of(
    spec: &Spec,
    pulls: &[PullRecord],
    replay: &SegmentReplay,
    k: u64,
    rec: &DecodeRecord,
    t_recv: f64,
) -> Option<EpochBudget> {
    let due = epoch_due(spec.pace, &spec.layout, pulls, k)?;
    let last = pull_holding(pulls, spec.layout.epoch_end(k) - 1)?;
    let close = replay.epochs.get(k as usize)?.close_pull?;
    Some(EpochBudget::of(&BudgetInputs {
        due,
        t_ret_last: pulls[last].t_ret,
        t_ret_close: pulls[close].t_ret,
        push_close: replay.push_s[close],
        t_enter: rec.t_enter,
        t_exit: rec.t_exit,
        timings: rec.timings,
        t_recv,
    }))
}

fn push_decode_side(l: &mut Layers, b: &EpochBudget) {
    l.close_delay.push(b.segment);
    l.queue.push(b.queue);
    for (v, part) in l.core.iter_mut().zip(b.core) {
        v.push(part);
    }
}

fn push_residual(l: &mut Layers, b: &EpochBudget) {
    l.residual.push(b.residual);
    if !b.within_residual() {
        l.residual_violations += 1;
    }
}

/// Claims and publishes replayed through a fresh registry and bus.
struct DeliveryReplay {
    claim_s: f64,
    claims: u64,
    publish_s: f64,
    publishes: u64,
    entries: usize,
}

/// Replays the run's extracted frames, in (epoch, reader) order, through
/// a fresh `DedupRegistry` and a one-subscriber `FrameBus`, timing the
/// claim pass and the publish pass as wholes.
fn replay_delivery(frames: &[(usize, u64, ExtractedFrame)]) -> DeliveryReplay {
    let mut order: Vec<&(usize, u64, ExtractedFrame)> = frames.iter().collect();
    order.sort_by_key(|(r, k, _)| (*k, *r));
    let ids: Vec<FrameId> = order.iter().map(|(_, k, f)| f.id(*k)).collect();
    let registry = DedupRegistry::new();
    let t = Instant::now();
    let winners: Vec<bool> = order
        .iter()
        .zip(&ids)
        .enumerate()
        .map(|(tick, ((r, k, _), id))| {
            matches!(
                registry.claim(*id, ReaderId(*r), *k, tick as u64),
                Claim::Winner
            )
        })
        .collect();
    let claim_s = t.elapsed().as_secs_f64();
    let delivered: Vec<DeliveredFrame> = order
        .iter()
        .zip(&ids)
        .zip(&winners)
        .filter(|(_, &won)| won)
        .map(|(((r, k, f), id), _)| DeliveredFrame {
            payload: f.payload.clone(),
            rate_bps: f.rate_bps,
            kind: f.kind,
            epoch_ordinal: *k,
            winner: ReaderId(*r),
            reason: WinReason::FirstClaim,
            id: *id,
        })
        .collect();
    let bus = FrameBus::new(delivered.len().max(1), Backpressure::Block);
    let sub = bus.subscribe();
    let t = Instant::now();
    for d in &delivered {
        std::hint::black_box(bus.publish(d));
    }
    let publish_s = t.elapsed().as_secs_f64();
    bus.close();
    while sub.recv().is_some() {}
    DeliveryReplay {
        claim_s,
        claims: ids.len() as u64,
        publish_s,
        publishes: delivered.len() as u64,
        entries: registry.len(),
    }
}

/// A p50/tail pair in ms. The tail percentile is the highest the run's
/// samples support — at least ten beyond it, counting `support`
/// independent deliveries — and every round is summarized at it; the run
/// reports the median over rounds, so one round disturbed by the host
/// does not move the figure.
fn latency_pair(
    names: [&str; 2],
    results: &[RoundResult],
    f: impl Fn(&RoundResult) -> &Vec<f64>,
    support: impl Fn(&RoundResult) -> usize,
) -> [Metric; 2] {
    let n: usize = results.iter().map(|r| f(r).len()).sum();
    let supported: usize = results.iter().map(&support).sum();
    let q = tail_quantile(supported.min(n), MIN_BEYOND_TAIL).unwrap_or(0.5);
    let (mut p50s, mut tails) = (Vec::new(), Vec::new());
    for r in results {
        let mut ms: Vec<f64> = f(r).iter().map(|v| v * 1e3).collect();
        ms.sort_by(f64::total_cmp);
        if let (Some(p50), Some(tail)) = (quantile_sorted(&ms, 0.5), quantile_sorted(&ms, q)) {
            p50s.push(p50);
            tails.push(tail);
        }
    }
    let at = |name: &str, q: f64, values: &[f64]| Metric {
        samples: Some(n),
        quantile: Some(q),
        ..Metric::across(name, "ms", median(values).unwrap_or(f64::NAN), values)
    };
    [at(names[0], 0.5, &p50s), at(names[1], q, &tails)]
}

fn end_to_end_metrics(summaries: &[RoundSummary], results: &[RoundResult]) -> Vec<Metric> {
    let msps: Vec<f64> = summaries.iter().map(|s| s.input_msps).collect();
    let setups: Vec<f64> = summaries.iter().map(|s| s.setup_s).collect();
    let ratio = |r: &RoundResult| r.frames_matched as f64 / r.frames_sent.max(1) as f64;
    let delivery: Vec<f64> = results.iter().map(ratio).collect();
    let matched: u64 = results.iter().map(|r| r.frames_matched).sum();
    let sent: u64 = results.iter().map(|r| r.frames_sent).sum();
    let mut m = vec![Metric::across(
        "input_msps",
        "Msps",
        median(&msps).unwrap_or(f64::NAN),
        &msps,
    )];
    m.extend(latency_pair(
        ["epoch_latency_p50_ms", "epoch_latency_tail_ms"],
        results,
        |r| &r.epoch_lat,
        |r| r.epoch_lat.len(),
    ));
    m.extend(latency_pair(
        ["frame_latency_p50_ms", "frame_latency_tail_ms"],
        results,
        |r| &r.frame_lat,
        |r| r.frame_deliveries,
    ));
    let [_, lag_tail] = latency_pair(
        ["ingest_lag_p50_ms", "ingest_lag_tail_ms"],
        results,
        |r| &r.lateness,
        |r| r.lateness.len(),
    );
    m.push(lag_tail);
    m.push(Metric::across(
        "frame_delivery_ratio",
        "ratio",
        matched as f64 / sent.max(1) as f64,
        &delivery,
    ));
    m.push(Metric::across(
        "setup_s",
        "s",
        median(&setups).unwrap_or(f64::NAN),
        &setups,
    ));
    // Resident growth counted at the allocator (see `crate::heap`).
    let heap: Vec<f64> = summaries.iter().map(|s| s.heap_growth_mib).collect();
    m.push(Metric::across(
        "rss_growth_mb",
        "MiB",
        median(&heap).unwrap_or(f64::NAN),
        &heap,
    ));
    m
}

fn layer_metrics(summaries: &[RoundSummary], results: &[RoundResult]) -> Vec<Metric> {
    let traced: Vec<&RoundResult> = summaries
        .iter()
        .zip(results)
        .filter(|(s, _)| s.traced)
        .map(|(_, r)| r)
        .collect();
    let layers: Vec<&Layers> = traced.iter().map(|r| &r.layers).collect();
    let pool = |f: &dyn Fn(&Layers) -> &Vec<f64>, scale: f64| -> Option<Dist> {
        Dist::of(
            &layers
                .iter()
                .flat_map(|l| f(l).iter().map(|v| v * scale))
                .collect::<Vec<_>>(),
        )
    };
    let sum = |f: &dyn Fn(&Layers) -> f64| -> f64 { layers.iter().map(|l| f(l)).sum() };
    let mut m = Vec::new();
    let dist = |m: &mut Vec<Metric>, p50: &str, tail: Option<&str>, d: Option<Dist>| {
        let (v50, vt, n, q) = d.map_or((0.0, 0.0, 0, 0.5), |d| (d.p50, d.tail, d.n, d.tail_q));
        m.push(Metric {
            samples: Some(n),
            quantile: Some(0.5),
            ..Metric::plain(p50, "ms", v50)
        });
        if let Some(tail) = tail {
            m.push(Metric {
                samples: Some(n),
                quantile: Some(q),
                ..Metric::plain(tail, "ms", vt)
            });
        }
    };

    let pull = pool(&|l| &l.pull_time, 1e6);
    m.push(Metric {
        samples: pull.map(|d| d.n),
        quantile: Some(0.5),
        ..Metric::plain(
            "reader.source.pull_us_p50",
            "us",
            pull.map_or(0.0, |d| d.p50),
        )
    });
    m.push(Metric::plain(
        "reader.segment.ns_per_sample",
        "ns/sample",
        sum(&|l| l.push_s) * 1e9 / sum(&|l| l.push_samples as f64).max(1.0),
    ));
    dist(
        &mut m,
        "reader.segment.close_delay_ms_p50",
        None,
        pool(&|l| &l.close_delay, 1e3),
    );
    m.push(Metric::plain(
        "reader.segment.forced_splits",
        "count",
        sum(&|l| l.forced_splits as f64),
    ));
    dist(
        &mut m,
        "reader.queue.wait_ms_p50",
        Some("reader.queue.wait_ms_tail"),
        pool(&|l| &l.queue, 1e3),
    );
    m.push(Metric::plain(
        "reader.queue.shed_ratio",
        "ratio",
        sum(&|l| l.shed as f64) / sum(&|l| l.epochs_in as f64).max(1.0),
    ));
    dist(
        &mut m,
        "reader.reorder.wait_ms_p50",
        Some("reader.reorder.wait_ms_tail"),
        pool(&|l| &l.reorder, 1e3),
    );
    dist(
        &mut m,
        "core.decode.busy_ms_p50",
        Some("core.decode.busy_ms_tail"),
        pool(&|l| &l.busy, 1e3),
    );
    let busy = sum(&|l| l.busy.iter().sum());
    m.push(Metric::plain(
        "core.decode.msps_per_worker",
        "Msps",
        sum(&|l| l.busy_samples) / busy.max(1e-12) / 1e6,
    ));
    m.push(Metric::plain(
        "core.workers.busy_ratio",
        "ratio",
        busy / sum(&|l| l.worker_window).max(1e-12),
    ));
    for (i, part) in CORE_PARTS.iter().enumerate() {
        dist(
            &mut m,
            &format!("core.stage.{part}.ms_p50"),
            Some(&format!("core.stage.{part}.ms_tail")),
            pool(&|l| &l.core[i], 1e3),
        );
    }
    let slots = sum(&|l| l.counts.len() as f64).max(1.0);
    for (i, name) in COUNT_NAMES.iter().enumerate() {
        m.push(Metric::plain(
            &format!("core.{name}_per_epoch"),
            "count/epoch",
            sum(&|l| l.counts.iter().map(|c| c[i]).sum()) / slots,
        ));
    }
    m.push(Metric::plain(
        "core.streams_yielding_frames_ratio",
        "ratio",
        sum(&|l| l.streams_with_frames as f64) / sum(&|l| l.streams as f64).max(1.0),
    ));
    dist(
        &mut m,
        "fleet.deliver.wait_ms_p50",
        Some("fleet.deliver.wait_ms_tail"),
        pool(&|l| &l.deliver, 1e3),
    );
    m.push(Metric::plain(
        "fleet.extract.us_per_stream",
        "us",
        sum(&|l| l.extract_s) * 1e6 / sum(&|l| l.extract_streams as f64).max(1.0),
    ));
    m.push(Metric::plain(
        "fleet.dedup.claim_ns",
        "ns",
        sum(&|l| l.claim_s) * 1e9 / sum(&|l| l.claims as f64).max(1.0),
    ));
    m.push(Metric::plain(
        "fleet.bus.publish_ns",
        "ns",
        sum(&|l| l.publish_s) * 1e9 / sum(&|l| l.publishes as f64).max(1.0),
    ));
    let entries: Vec<f64> = layers
        .iter()
        .flat_map(|l| l.dedup_entries.clone())
        .collect();
    m.push(Metric::plain(
        "fleet.dedup.entries",
        "count",
        median(&entries).unwrap_or(0.0),
    ));
    m.push(Metric::plain(
        "fleet.duplicate_ratio",
        "ratio",
        sum(&|l| l.duplicates as f64) / sum(&|l| l.frames_seen as f64).max(1.0),
    ));
    dist(
        &mut m,
        "budget.residual_ms_p50",
        None,
        pool(&|l| &l.residual, 1e3),
    );
    let rate = |traced: bool| {
        let v: Vec<f64> = summaries
            .iter()
            .filter(|s| s.traced == traced)
            .map(|s| s.input_msps)
            .collect();
        median(&v).unwrap_or(f64::NAN)
    };
    m.push(Metric::plain(
        "budget.trace_overhead_ratio",
        "ratio",
        1.0 - rate(true) / rate(false),
    ));
    m
}
