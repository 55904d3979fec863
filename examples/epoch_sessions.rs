//! Epoch sessions: the reader's carrier-off delimiters, end to end.
//!
//! §3.2: "the reader chops up time into shorter epochs, where each epoch
//! is initiated by the reader by shutting off and re-starting its carrier
//! wave." This example synthesizes a continuous capture containing three
//! epochs separated by carrier-off gaps, lets the reader's segmenter find
//! the gaps itself (`sequential_decode` over a `SliceSource`), and shows
//! the tag's offset re-randomizing across epochs (the §3.6
//! collision-recovery mechanism).
//!
//! Run with: `cargo run --release --example epoch_sessions`

use lf_backscatter::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let fs = SampleRate::from_msps(2.5);
    let mut rng = StdRng::seed_from_u64(2015);
    let mut session: Vec<Complex> = Vec::new();

    // One tag with a *physical* comparator: its start offset differs
    // every epoch because the capacitor-charging noise re-randomizes it.
    // The comparator RC is scaled by 25 Msps / fs so collision and
    // re-randomization statistics match the paper's sampling rate (see
    // lf_sim::scenario::Scenario::comparator_rc_scale).
    let mut comparator = Comparator::draw(0.2, &mut rng);
    comparator.rc_s *= SampleRate::USRP_N210.sps() / fs.sps();
    let tag = LfTag::new(TagConfig {
        id: TagId(0),
        rate: BitRate::from_bps(10_000.0, 100.0)?,
        clock: ClockModel::crystal(150.0, &mut rng),
        comparator,
    });

    let payload = BitVec::from_str_binary("110100111000101101001110");
    let frame = Frame::sensor(payload.clone());
    let mut true_offsets = Vec::new();
    for epoch in 0..3u64 {
        let plan = tag.plan_epoch(frame.to_bits(), fs, 100.0, &mut rng);
        true_offsets.push(plan.offset_samples);
        let mut air = AirConfig::paper_default(14_000);
        air.sample_rate = fs;
        air.noise_sigma = 0.004;
        air.seed = 100 + epoch;
        session.extend(synthesize(
            &air,
            &[TagAir {
                events: plan.events,
                initial_level: 0.0,
                process: Box::new(StaticChannel(Complex::new(0.1, 0.05))),
            }],
        ));
        // Carrier off between epochs: no environment reflection, no tags.
        let mut gap = AirConfig::paper_default(1_500);
        gap.sample_rate = fs;
        gap.env_reflection = Complex::ZERO;
        gap.noise_sigma = 0.004;
        gap.seed = 200 + epoch;
        session.extend(synthesize(&gap, &[]));
    }
    println!("session: {} samples, 3 epochs + gaps", session.len());

    let mut cfg = DecoderConfig::at_sample_rate(fs);
    cfg.rate_plan = RatePlan::from_bps(100.0, &[10_000.0])?;
    let decoder = Decoder::new(cfg.clone());
    let epochs = sequential_decode(
        SliceSource::new(session, 4_096),
        &decoder,
        SegmenterConfig::from_decoder(&cfg),
    );
    println!("carrier-gap segmentation found {} epochs", epochs.len());
    assert_eq!(epochs.len(), 3, "one epoch per carrier-on segment");

    for (k, e) in epochs.iter().enumerate() {
        let stream = e
            .decode()
            .ok_or("epoch was not decoded")?
            .streams
            .iter()
            .max_by_key(|s| s.bits.len())
            .ok_or("no stream decoded in epoch")?;
        let frame_bits = frame.to_bits();
        let ok = stream.bits.len() >= frame_bits.len()
            && stream.bits.slice(0, frame_bits.len()) == frame_bits;
        println!(
            "epoch {k}: samples {:?}, offset {:>6.0} (true {:>6.0}), frame {}",
            e.range,
            stream.offset,
            true_offsets[k],
            if ok { "recovered" } else { "FAILED" }
        );
        assert!(ok, "every epoch must decode in this clean scenario");
    }
    // The offsets must actually differ across epochs — that is what makes
    // retransmission after a collision worthwhile.
    let spread = true_offsets
        .iter()
        .fold(0.0f64, |m, &o| m.max((o - true_offsets[0]).abs()));
    println!("offsets: {true_offsets:?}");
    println!("offset re-randomization across epochs: up to {spread:.1} samples");
    assert!(spread > 1.0, "offsets should visibly re-randomize");
    println!("ok: session segmented, every epoch decoded, offsets re-randomized.");

    Ok(())
}
