//! End-to-end contract tests for the streaming runtime: determinism
//! against the sequential reference, one stage clock feeding one latency
//! family, exact backpressure accounting under both policies, and worker
//! panic containment.

// Shared fixture helpers sit outside any `#[test]` fn, where the
// workspace unwrap gate would fire; a panic is the failure report here
// exactly as it is inside the tests themselves.
#![allow(clippy::unwrap_used)]

use lf_core::pipeline::{Decoder, EpochDecode, StageTimings};
use lf_obs::{MetricValue, ObsContext, RecordKind};
use lf_reader::{
    sequential_decode, Backpressure, DiagSinks, EpochDecoder, EpochReport, EpochResult,
    ReaderRuntime, RuntimeConfig, ScenarioSource, SegmenterConfig, SliceSource, ThresholdPolicy,
};
use lf_sim::scenario::{Scenario, ScenarioTag};
use lf_types::{Complex, RatePlan, SampleRate};
use std::sync::Arc;
use std::time::Duration;

/// A seeded four-tag mixed-rate scenario (scaled to 1 Msps so the test
/// decodes in milliseconds).
fn four_tag_scenario() -> Scenario {
    let tags = vec![
        ScenarioTag::sensor(1_000.0)
            .with_payload_bits(16)
            .at_distance(2.2),
        ScenarioTag::sensor(5_000.0)
            .with_payload_bits(32)
            .at_distance(1.8),
        ScenarioTag::sensor(10_000.0)
            .with_payload_bits(32)
            .at_distance(1.6),
        ScenarioTag::sensor(20_000.0)
            .with_payload_bits(64)
            .at_distance(1.4),
    ];
    let mut s = Scenario::paper_default(tags, 20_000).at_sample_rate(SampleRate::from_msps(1.0));
    s.rate_plan = RatePlan::from_bps(100.0, &[1_000.0, 5_000.0, 10_000.0, 20_000.0]).unwrap();
    s.seed = 0x4ead_0042;
    s
}

fn drain(rt: &mut ReaderRuntime) -> Vec<EpochReport> {
    let mut got = Vec::new();
    while let Some(r) = rt.recv() {
        got.push(r);
    }
    got
}

/// The determinism guarantee: a 4-worker pool fed in 1 KiB chunks is
/// byte-identical (per epoch, in order) to the sequential reference fed
/// in 4 KiB chunks.
#[test]
fn parallel_pool_matches_sequential_decode() {
    let sc = four_tag_scenario();
    let dec_cfg = sc.decoder_config();
    let seg = SegmenterConfig::from_decoder(&dec_cfg);
    let decoder = Arc::new(Decoder::new(dec_cfg));

    let (seq_src, _) = ScenarioSource::new(sc.clone(), 4, 6_000, 4_096);
    let reference = sequential_decode(seq_src, &*decoder, seg);
    assert_eq!(reference.len(), 4, "segmenter must find all four epochs");
    for r in &reference {
        let d = r.decode().expect("sequential decode must succeed");
        assert!(!d.streams.is_empty(), "epoch {} decoded no streams", r.seq);
    }

    let (par_src, _) = ScenarioSource::new(sc, 4, 6_000, 1_024);
    let cfg = RuntimeConfig {
        workers: 4,
        job_queue: 2,
        result_queue: 2,
        backpressure: Backpressure::Block,
        segmenter: seg,
        diag: DiagSinks::default(),
    };
    let mut rt = ReaderRuntime::spawn(par_src, decoder, &cfg);
    let got = drain(&mut rt);
    let stats = rt.join();

    assert_eq!(got.len(), reference.len());
    for (a, b) in got.iter().zip(&reference) {
        assert_eq!(a.seq, b.seq);
        assert_eq!(a.range, b.range, "epoch {}", a.seq);
        assert_eq!(a.forced_split, b.forced_split);
        // Timings are wall-clock and may differ; the decodes may not.
        assert_eq!(
            format!("{:?}", a.decode()),
            format!("{:?}", b.decode()),
            "epoch {} decode differs from sequential reference",
            a.seq
        );
    }
    assert_eq!(stats.epochs_in, 4);
    assert_eq!(stats.epochs_out, 4);
    assert_eq!(stats.epochs_dropped, 0);
    assert_eq!(stats.faults, 0);
    assert_eq!(stats.latency.total.count, 4);
    assert!(stats.latency.total.p50 > Duration::ZERO);
    assert!(stats.latency.total.max >= stats.latency.total.p50);
}

/// One clock, one family: with an obs-enabled decoder sharing the
/// runtime's context, each stage's latency is measured once per epoch by
/// the graph runner and every view agrees with that measurement — the
/// `pipeline.stage.*` histograms, the stage spans in the trace ring, the
/// `StageTimings` on the reports, and the reader's latency ring. No second
/// family (`reader.stage.*`, `span.pipeline.<stage>.ns`) is registered.
#[test]
fn stage_latency_has_one_clock_and_one_family() {
    const N: u64 = 5;
    let sc = four_tag_scenario();
    let dec_cfg = sc.decoder_config();
    let seg = SegmenterConfig::from_decoder(&dec_cfg);
    // Big enough that no record of the run is overwritten.
    let obs = ObsContext::with_ring_capacity(1 << 16);
    let decoder = Arc::new(Decoder::with_obs(dec_cfg, obs.clone()));
    let (src, _) = ScenarioSource::new(sc, N, 6_000, 4_096);
    let cfg = RuntimeConfig {
        workers: 2,
        job_queue: 2,
        result_queue: 2,
        backpressure: Backpressure::Block,
        segmenter: seg,
        diag: DiagSinks::default(),
    };
    let mut rt = ReaderRuntime::spawn_with_obs(src, decoder, &cfg, obs.clone());
    let reports = drain(&mut rt);
    let stats = rt.join();
    let delivered: Vec<(u64, u64, StageTimings)> = reports
        .iter()
        .map(|r| match &r.result {
            EpochResult::Decoded { decode, timings } => {
                let class = decode.streams.first().map_or(0, |s| s.rate_bps.to_bits());
                (r.seq, class, *timings)
            }
            other => panic!("epoch {} not decoded: {other:?}", r.seq),
        })
        .collect();
    assert_eq!(delivered.len() as u64, N);

    // Stage slots in graph order, then the whole-epoch total (`None`).
    let names = StageTimings::names();
    let slots = || (0..names.len()).map(Some).chain([None]);
    let name = |i: Option<usize>| i.map_or("total", |i| names[i]);
    let took = |t: &StageTimings, i: Option<usize>| i.map_or(t.total, |i| t.per_stage[i]);
    let reported_ns = |i: Option<usize>| -> u64 {
        delivered
            .iter()
            .map(|(_, _, t)| u64::try_from(took(t, i).as_nanos()).unwrap())
            .sum()
    };

    // The one registry family: count N per slot, summing to the reports.
    let snap = obs.registry_snapshot();
    for i in slots() {
        let key = format!("pipeline.stage.{}.ns", name(i));
        let Some(MetricValue::Histogram(h)) = snap.get(&key) else {
            panic!("missing {key}");
        };
        assert_eq!(h.count, N, "{key}");
        assert_eq!(h.sum, reported_ns(i), "{key} disagrees with the reports");
        let span_key = format!("span.pipeline.{}.ns", name(i));
        assert!(snap.get(&span_key).is_none(), "{span_key} is registered");
    }
    assert!(
        snap.metrics
            .iter()
            .all(|m| !m.name.starts_with("reader.stage.")),
        "the reader registered a second stage-latency family"
    );

    // The trace ring: each slot's span exits (one per execution,
    // re-entries included) sum to the timings the reports carried.
    let trace = obs.recent_trace();
    assert_eq!(trace.first().map(|r| r.seq), Some(0), "trace ring wrapped");
    for i in slots() {
        let path = match i {
            Some(_) => format!("pipeline.total.pipeline.{}", name(i)),
            None => "pipeline.total".to_owned(),
        };
        let span_ns: u64 = trace
            .iter()
            .filter(|r| r.path == path)
            .filter_map(|r| match r.kind {
                RecordKind::SpanExit { dur_ns } => Some(dur_ns),
                _ => None,
            })
            .sum();
        assert_eq!(span_ns, reported_ns(i), "{path} spans");
    }

    // The reader's ring names the exact epoch at each p99 rank.
    for i in slots() {
        let summary = i.map_or(stats.latency.total, |i| stats.latency.per_stage[i]);
        assert_eq!(summary.count as u64, N);
        let (seq, class) = summary.p99_epoch.expect("p99 epoch");
        let (_, want_class, t) = delivered
            .iter()
            .find(|(s, ..)| *s == seq)
            .expect("the p99 epoch was delivered");
        assert_eq!(summary.p99, took(t, i), "{} p99 epoch {seq}", name(i));
        assert_eq!(class, *want_class, "{} p99 epoch {seq}", name(i));
    }
}

// --- synthetic fixtures for the policy/containment tests -----------------

/// `n` square carrier epochs of `epoch_len` samples separated by
/// `gap_len` zero-power gaps; `marked` epochs get amplitude 3.0 (a
/// poison marker the test decoders key on), the rest amplitude 1.0.
fn synthetic_session(n: usize, epoch_len: usize, gap_len: usize, marked: &[usize]) -> Vec<Complex> {
    let mut signal = Vec::new();
    for k in 0..n {
        let amp = if marked.contains(&k) { 3.0 } else { 1.0 };
        signal.extend(std::iter::repeat_n(Complex::new(amp, 0.0), epoch_len));
        if k + 1 < n {
            signal.extend(std::iter::repeat_n(Complex::new(0.001, 0.0), gap_len));
        }
    }
    signal
}

fn synthetic_seg() -> SegmenterConfig {
    SegmenterConfig {
        smooth: 8,
        min_gap: 32,
        min_epoch: 64,
        max_epoch: 1 << 20,
        threshold: ThresholdPolicy::Fixed(0.25),
    }
}

/// A decoder stub whose per-epoch cost is controlled by the test.
#[derive(Debug)]
struct SlowDecoder {
    delay: Duration,
}

impl EpochDecoder for SlowDecoder {
    fn decode_epoch(
        &self,
        samples: &[Complex],
        _scratch: &mut lf_core::DecodeScratch,
    ) -> (EpochDecode, StageTimings) {
        std::thread::sleep(self.delay);
        (
            EpochDecode {
                streams: vec![],
                n_edges: samples.len(),
                n_tracked: 0,
                provenance: Default::default(),
            },
            StageTimings::default(),
        )
    }
}

/// A decoder that panics on marked (amplitude-3) epochs.
#[derive(Debug)]
struct PoisonableDecoder;

impl EpochDecoder for PoisonableDecoder {
    fn decode_epoch(
        &self,
        samples: &[Complex],
        _scratch: &mut lf_core::DecodeScratch,
    ) -> (EpochDecode, StageTimings) {
        assert!(
            !samples.iter().any(|s| s.re > 2.0),
            "poisoned epoch payload"
        );
        (
            EpochDecode {
                streams: vec![],
                n_edges: samples.len(),
                n_tracked: 0,
                provenance: Default::default(),
            },
            StageTimings::default(),
        )
    }
}

/// Drop-oldest under a slow consumer (well, a slow *pool*): epochs are
/// shed, and the accounting is exact — every segmented epoch is
/// delivered exactly once, as either a decode or a `Dropped` tombstone,
/// and the dropped counter equals the tombstone count.
#[test]
fn drop_oldest_accounting_is_exact() {
    const N: usize = 20;
    let signal = synthetic_session(N, 512, 128, &[]);
    let source = SliceSource::new(signal, 256);
    let cfg = RuntimeConfig {
        workers: 1,
        job_queue: 2,
        result_queue: 64,
        backpressure: Backpressure::DropOldest,
        segmenter: synthetic_seg(),
        diag: DiagSinks::default(),
    };
    let mut rt = ReaderRuntime::spawn(
        source,
        Arc::new(SlowDecoder {
            delay: Duration::from_millis(5),
        }),
        &cfg,
    );
    let got = drain(&mut rt);
    let stats = rt.join();

    assert_eq!(stats.epochs_in, N as u64, "segmenter must find every epoch");
    assert_eq!(got.len(), N, "every epoch must be delivered exactly once");
    let mut seqs: Vec<u64> = got.iter().map(|r| r.seq).collect();
    seqs.dedup();
    assert_eq!(
        seqs,
        (0..N as u64).collect::<Vec<_>>(),
        "in order, no holes"
    );

    let dropped = got
        .iter()
        .filter(|r| matches!(r.result, EpochResult::Dropped))
        .count();
    let decoded = got.iter().filter(|r| r.decode().is_some()).count();
    assert_eq!(decoded + dropped, N);
    assert_eq!(
        stats.epochs_dropped, dropped as u64,
        "counter must be exact"
    );
    assert!(
        dropped > 0,
        "a 5 ms/epoch pool behind an instant source must shed load"
    );
    assert_eq!(stats.epochs_out, N as u64);
    assert_eq!(stats.faults, 0);
}

/// The block policy under the same slow pool: ingestion stalls instead
/// of shedding, and no epoch is ever lost.
#[test]
fn block_policy_loses_nothing() {
    const N: usize = 20;
    let signal = synthetic_session(N, 512, 128, &[]);
    let source = SliceSource::new(signal, 256);
    let cfg = RuntimeConfig {
        workers: 2,
        job_queue: 2,
        result_queue: 2,
        backpressure: Backpressure::Block,
        segmenter: synthetic_seg(),
        diag: DiagSinks::default(),
    };
    let mut rt = ReaderRuntime::spawn(
        source,
        Arc::new(SlowDecoder {
            delay: Duration::from_millis(2),
        }),
        &cfg,
    );
    let got = drain(&mut rt);
    let stats = rt.join();

    assert_eq!(got.len(), N);
    for (k, r) in got.iter().enumerate() {
        assert_eq!(r.seq, k as u64);
        assert!(r.decode().is_some(), "epoch {k} must be decoded, not shed");
    }
    assert_eq!(stats.epochs_in, N as u64);
    assert_eq!(stats.epochs_out, N as u64);
    assert_eq!(stats.epochs_dropped, 0);
    assert_eq!(stats.faults, 0);
}

/// A panic inside one epoch's decode is contained: that epoch reports
/// `Faulted`, every other epoch still decodes, and the pool keeps
/// serving epochs segmented *after* the poisoned one.
#[test]
fn worker_panic_is_contained() {
    const N: usize = 8;
    const POISONED: usize = 2;
    let signal = synthetic_session(N, 512, 128, &[POISONED]);
    let source = SliceSource::new(signal, 1024);
    let cfg = RuntimeConfig {
        workers: 2,
        job_queue: 4,
        result_queue: 4,
        backpressure: Backpressure::Block,
        segmenter: synthetic_seg(),
        diag: DiagSinks::default(),
    };
    let mut rt = ReaderRuntime::spawn(source, Arc::new(PoisonableDecoder), &cfg);
    let got = drain(&mut rt);
    let stats = rt.join();

    assert_eq!(got.len(), N);
    for (k, r) in got.iter().enumerate() {
        assert_eq!(r.seq, k as u64);
        if k == POISONED {
            match &r.result {
                EpochResult::Faulted { message } => {
                    assert!(message.contains("poisoned"), "payload: {message}");
                }
                other => panic!("epoch {k} should have faulted, got {other:?}"),
            }
        } else {
            assert!(r.decode().is_some(), "epoch {k} must decode normally");
        }
    }
    assert_eq!(stats.faults, 1);
    assert_eq!(stats.epochs_out, N as u64);
    assert_eq!(stats.epochs_dropped, 0);
}

/// The `try_recv` ordering contract: polling with `try_recv` +
/// `is_finished` (no blocked consumer thread — the fleet coordinator's
/// access pattern) delivers exactly the sequence `recv` would have, in
/// order, and `is_finished` turns true only after the last report.
#[test]
fn try_recv_polls_the_same_sequence_to_end_of_stream() {
    const N: usize = 12;
    let signal = synthetic_session(N, 512, 128, &[]);
    let source = SliceSource::new(signal, 256);
    let cfg = RuntimeConfig {
        workers: 2,
        job_queue: 2,
        result_queue: 2,
        backpressure: Backpressure::Block,
        segmenter: synthetic_seg(),
        diag: DiagSinks::default(),
    };
    let mut rt = ReaderRuntime::spawn(
        source,
        Arc::new(SlowDecoder {
            delay: Duration::from_millis(1),
        }),
        &cfg,
    );
    let mut got = Vec::new();
    while !rt.is_finished() {
        match rt.try_recv() {
            Some(r) => got.push(r),
            // Nothing deliverable right now — the pipeline is working.
            None => std::thread::sleep(Duration::from_micros(200)),
        }
    }
    // Stable end of stream: stays None / finished forever after.
    assert!(rt.try_recv().is_none());
    assert!(rt.is_finished());
    assert_eq!(got.len(), N);
    for (k, r) in got.iter().enumerate() {
        assert_eq!(r.seq, k as u64, "in epoch order, no holes, no repeats");
        assert!(r.decode().is_some());
    }
    let stats = rt.join();
    assert_eq!(stats.epochs_out, N as u64);
}

/// Interleaving `try_recv` and `recv` arbitrarily still yields the one
/// ordered report sequence (they drain the same stream).
#[test]
fn try_recv_and_recv_interleave_without_reordering() {
    const N: usize = 10;
    let signal = synthetic_session(N, 512, 128, &[]);
    let source = SliceSource::new(signal, 512);
    let cfg = RuntimeConfig {
        workers: 2,
        job_queue: 4,
        result_queue: 4,
        backpressure: Backpressure::Block,
        segmenter: synthetic_seg(),
        diag: DiagSinks::default(),
    };
    let mut rt = ReaderRuntime::spawn(source, Arc::new(PoisonableDecoder), &cfg);
    let mut seqs = Vec::new();
    let mut use_try = true;
    loop {
        let report = if use_try {
            match rt.try_recv() {
                Some(r) => Some(r),
                None if rt.is_finished() => None,
                None => {
                    std::thread::sleep(Duration::from_micros(200));
                    continue;
                }
            }
        } else {
            rt.recv()
        };
        use_try = !use_try;
        match report {
            Some(r) => seqs.push(r.seq),
            None => break,
        }
    }
    assert_eq!(seqs, (0..N as u64).collect::<Vec<_>>());
}

/// Graceful shutdown mid-stream: whatever was queued is decoded and
/// delivered in order with no holes up to the cut, and the runtime's
/// threads exit (join returns).
#[test]
fn shutdown_drains_and_joins() {
    const N: usize = 30;
    let signal = synthetic_session(N, 512, 128, &[]);
    let source = SliceSource::new(signal, 64);
    let cfg = RuntimeConfig {
        workers: 2,
        job_queue: 2,
        result_queue: 2,
        backpressure: Backpressure::Block,
        segmenter: synthetic_seg(),
        diag: DiagSinks::default(),
    };
    let mut rt = ReaderRuntime::spawn(
        source,
        Arc::new(SlowDecoder {
            delay: Duration::from_millis(1),
        }),
        &cfg,
    );
    let first = rt.recv().expect("at least one epoch before shutdown");
    assert_eq!(first.seq, 0);
    rt.shutdown();
    let rest = drain(&mut rt);
    let stats = rt.join();

    // Contiguous prefix: seq 1, 2, ... with no holes.
    for (k, r) in rest.iter().enumerate() {
        assert_eq!(r.seq, 1 + k as u64);
    }
    assert_eq!(stats.epochs_out, 1 + rest.len() as u64);
    assert!(stats.epochs_out <= stats.epochs_in);
}
