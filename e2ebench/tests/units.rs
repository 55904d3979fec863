//! Unit tests of the benchmark's own arithmetic: quantiles, pacing,
//! input determinism and the latency budget.

use lf_core::pipeline::StageTimings;
use lf_e2ebench::pace::{
    copy_wrapped_into, epoch_due, epochs_in, live_due, narrow, pull_holding, take_log, widen, Feed,
    Layout, Pace, PacedSource, PullLog, PullRecord, StopRule, FULL_SCALE,
};
use lf_e2ebench::stats::{median, nearest_rank, quantile_sorted, quartiles, tail_quantile, Dist};
use lf_e2ebench::trace::{BudgetInputs, EpochBudget, RESIDUAL_FLOOR_S};
use lf_e2ebench::workload::{RoundInput, Workload};
use lf_reader::IqSource;
use lf_types::Complex;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() < 1e-12
}

#[test]
fn nearest_rank_quantiles_are_exact_samples() {
    let xs: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quantile_sorted(&xs, 0.5), Some(5.0));
    assert_eq!(quantile_sorted(&xs, 0.9), Some(9.0));
    assert_eq!(quantile_sorted(&xs, 0.91), Some(10.0));
    assert_eq!(quantile_sorted(&xs, 0.0), Some(1.0));
    assert_eq!(quantile_sorted(&xs, 1.0), Some(10.0));
    assert_eq!(quantile_sorted(&[], 0.5), None);
    assert_eq!(nearest_rank(0.99, 1000), 990);
    assert_eq!(nearest_rank(0.5, 1), 1);
}

#[test]
fn tail_is_the_highest_ladder_percentile_with_ten_beyond() {
    assert_eq!(tail_quantile(10, 10), None);
    assert_eq!(tail_quantile(19, 10), None);
    assert_eq!(tail_quantile(20, 10), Some(0.5));
    assert_eq!(tail_quantile(39, 10), Some(0.5));
    assert_eq!(tail_quantile(40, 10), Some(0.75));
    assert_eq!(tail_quantile(99, 10), Some(0.75));
    assert_eq!(tail_quantile(100, 10), Some(0.90));
    assert_eq!(tail_quantile(200, 10), Some(0.95));
    assert_eq!(tail_quantile(999, 10), Some(0.95));
    assert_eq!(tail_quantile(1000, 10), Some(0.99));
    assert_eq!(tail_quantile(10_000, 10), Some(0.999));

    // 100 samples: p90 is the 90th value, and ten lie beyond it.
    let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
    let d = Dist::of(&xs).unwrap();
    assert_eq!((d.n, d.p50, d.tail, d.tail_q), (100, 50.0, 90.0, 0.90));
    assert_eq!(xs.iter().filter(|&&x| x > d.tail).count(), 10);
}

#[test]
fn quartiles_match_python_statistics() {
    // statistics.quantiles(data, n=4), method "exclusive".
    assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]), Some([1.5, 3.0, 4.5]));
    assert_eq!(quartiles(&[4.0, 3.0, 2.0, 1.0]), Some([1.25, 2.5, 3.75]));
    assert_eq!(quartiles(&[3.0, 1.0]), Some([0.5, 2.0, 3.5]));
    let tens: Vec<f64> = (1..=10).map(|k| f64::from(k) * 10.0).collect();
    assert_eq!(quartiles(&tens), Some([27.5, 55.0, 82.5]));
    assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), Some(2.5));
}

#[test]
fn live_due_times_and_lateness() {
    // The chunk ending at stream index 25M is due one second in.
    assert!(close(live_due(25_000_000, 25e6), 1.0));
    let p = PullRecord {
        start: 0,
        len: 100,
        t_call: 1.0,
        t_due: 1.25,
        t_ret: 1.3,
    };
    assert!(close(p.lateness(), 0.05));
    // Asked early: the copy starts when the chunk is due.
    assert!(close(p.pull_time(), 0.05));
    // Asked late: the copy starts when the reader asks.
    let late = PullRecord { t_call: 1.28, ..p };
    assert!(close(late.pull_time(), 0.02));

    let layout = Layout {
        epoch: 1000,
        gap: 250,
        pool_epochs: 4,
    };
    assert_eq!(layout.epoch_end(2), 3500);
    assert_eq!(layout.slot(5), 1);
    assert_eq!(epochs_in(1.0, 2500.0, &layout), 2);
    assert_eq!(epochs_in(0.1, 2500.0, &layout), 1);
    // Epoch 2 ends at sample 3500: due 3.5 s in.
    let due = epoch_due(Pace::Live { sps: 1000.0 }, &layout, &[], 2).unwrap();
    assert!(close(due, 3.5));

    // Closed loop: due when the chunk holding the last sample was due.
    let pulls: Vec<PullRecord> = (0..4)
        .map(|i| PullRecord {
            start: i * 1000,
            len: 1000,
            t_call: i as f64,
            t_due: i as f64 + 0.5,
            t_ret: i as f64 + 0.6,
        })
        .collect();
    assert_eq!(pull_holding(&pulls, 3499), Some(3));
    assert_eq!(pull_holding(&pulls, 999), Some(0));
    assert_eq!(pull_holding(&pulls, 4000), None);
    let due = epoch_due(Pace::Closed, &layout, &pulls, 2).unwrap();
    assert!(close(due, 3.5));
}

#[test]
fn stored_samples_round_trip_within_half_a_step() {
    let step = FULL_SCALE / 32768.0;
    for &(re, im) in &[(0.0, 0.0), (0.4, -0.25), (-1.5, 1.4999), (1e-5, -3.9)] {
        let back = widen(narrow(Complex::new(re, im)).unwrap());
        assert!((back.re - re).abs() <= step / 2.0 && (back.im - im).abs() <= step / 2.0);
    }
    assert_eq!(narrow(Complex::new(FULL_SCALE, 0.0)), None, "clips");
    assert_eq!(narrow(Complex::new(0.0, f64::NAN)), None);

    let pool: Vec<[i16; 2]> = (0..10).map(|k| [k, -k]).collect();
    let mut out = Vec::new();
    copy_wrapped_into(&pool, 8, 13, &mut out);
    let got: Vec<i16> = out.iter().map(|c| (c.re / step).round() as i16).collect();
    assert_eq!(got, vec![8, 9, 0, 1, 2], "wraps around the pool");
}

#[test]
fn closed_loop_source_replays_whole_units_and_logs_due_times() {
    let layout = Layout {
        epoch: 6,
        gap: 4,
        pool_epochs: 2,
    };
    let pool: Vec<[i16; 2]> = (0..20).map(|k| [k, 0]).collect();
    let log = PullLog::default();
    let feed = Feed {
        layout,
        chunk_len: 4,
        pace: Pace::Closed,
        stop: StopRule::Epochs(3),
        origin: Instant::now(),
    };
    let mut src = PacedSource::new(Arc::new(pool), feed, Arc::clone(&log));
    let mut total = 0;
    while let Some(chunk) = src.next_chunk() {
        total += chunk.len();
    }
    assert_eq!(total, 30, "three epoch+gap units");
    let pulls = take_log(&log);
    assert_eq!(pulls.len(), 8);
    assert_eq!(pulls.last().map(PullRecord::end), Some(30));
    for w in pulls.windows(2) {
        assert_eq!(w[1].start, w[0].end());
        assert!(
            close(w[1].t_due, w[0].t_ret),
            "due as soon as the last pull returned"
        );
    }
}

#[test]
fn live_source_never_hands_a_chunk_over_before_it_is_due() {
    let layout = Layout {
        epoch: 300,
        gap: 100,
        pool_epochs: 1,
    };
    let log = PullLog::default();
    let feed = Feed {
        layout,
        chunk_len: 100,
        pace: Pace::Live { sps: 100_000.0 },
        stop: StopRule::Epochs(2),
        origin: Instant::now(),
    };
    let mut src = PacedSource::new(Arc::new(vec![[1, 1]; 400]), feed, Arc::clone(&log));
    while src.next_chunk().is_some() {}
    let pulls = take_log(&log);
    assert_eq!(pulls.len(), 8);
    for p in &pulls {
        assert!(close(p.t_due, p.end() as f64 / 100_000.0));
        assert!(p.t_ret >= p.t_due && p.lateness() >= 0.0);
    }
}

#[test]
fn deadline_stops_after_a_whole_unit() {
    let layout = Layout {
        epoch: 5,
        gap: 3,
        pool_epochs: 1,
    };
    let log = PullLog::default();
    let origin = Instant::now();
    let feed = Feed {
        layout,
        chunk_len: 3,
        pace: Pace::Closed,
        stop: StopRule::Deadline(origin + Duration::from_millis(50)),
        origin,
    };
    let mut src = PacedSource::new(Arc::new(vec![[0, 0]; 8]), feed, Arc::clone(&log));
    let mut total = 0;
    while let Some(chunk) = src.next_chunk() {
        total += chunk.len();
        if total == 3 {
            std::thread::sleep(Duration::from_millis(60));
        }
    }
    assert_eq!(total, 8, "finishes the unit in progress, gap included");
}

#[test]
fn same_seed_gives_the_same_input() {
    let a = RoundInput::synthesize_slots(Workload::FleetCiLive, 7, 0, 2).unwrap();
    let b = RoundInput::synthesize_slots(Workload::FleetCiLive, 7, 0, 2).unwrap();
    let c = RoundInput::synthesize_slots(Workload::FleetCiLive, 8, 0, 2).unwrap();
    assert_eq!(a.digest(), b.digest());
    assert_ne!(a.digest(), c.digest(), "the seed draws the content");
    assert_eq!(a.pools.len(), 2, "one pool per reader");
    assert_ne!(a.pools[0], a.pools[1], "readers see their own channels");
    assert_eq!(a.pools[0].len(), a.layout.pool_len());
    // Ordinal-keyed identities: the same slot replayed in a later cycle
    // carries new frame identities.
    assert_eq!(a.frames_sent(0), a.frames_sent(2));
    assert_ne!(a.truth_ids(0), a.truth_ids(2));
    assert!(a.frames_sent(0) > 0);
}

#[test]
fn budget_layers_sum_to_the_latency_up_to_the_residual() {
    let mut timings = StageTimings::default();
    for (k, d) in timings.per_stage.iter_mut().enumerate() {
        *d = Duration::from_millis(k as u64 + 1); // 1..=6 ms, 21 ms in all
    }
    timings.total = Duration::from_millis(25); // 4 ms of set-up
    let inputs = BudgetInputs {
        due: 10.000,
        t_ret_last: 10.002,
        t_ret_close: 10.006,
        push_close: 0.001,
        t_enter: 10.050,
        t_exit: 10.0755, // 0.5 ms outside the decode's own clock
        timings,
        t_recv: 10.080,
    };
    let b = EpochBudget::of(&inputs);
    assert!(close(b.latency, 0.080));
    assert!(close(b.source, 0.002));
    assert!(close(b.segment, 0.005));
    assert!(close(b.queue, 0.043));
    assert!(close(b.core[0], 0.001) && close(b.core[5], 0.006));
    assert!(close(b.core[6], 0.004), "set-up is total minus stages");
    assert!(close(b.deliver, 0.0045));
    assert!((b.residual - 0.0005).abs() < 1e-9);
    let sum = b.source + b.segment + b.queue + b.core.iter().sum::<f64>() + b.deliver + b.residual;
    assert!(close(sum, b.latency));
    assert!(b.within_residual());

    let slow_call = BudgetInputs {
        t_exit: 10.0755 + 2.0 * RESIDUAL_FLOOR_S,
        t_recv: 10.080 + 2.0 * RESIDUAL_FLOOR_S,
        ..inputs
    };
    let b = EpochBudget::of(&slow_call);
    assert!((b.residual - 0.0025).abs() < 1e-9);
    assert!(!b.within_residual(), "2.5 ms uncovered out of 82 ms");
}
