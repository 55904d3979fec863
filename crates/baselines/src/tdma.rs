//! The TDMA / stripped EPC Gen 2 baseline (§4.2).
//!
//! Two operating modes, matching the two experiments it appears in:
//!
//! * **Scheduled data transfer** ([`TdmaSchedule`]) — the Fig. 8
//!   throughput baseline. The reader knows the population and assigns
//!   slots round-robin; the cost is serialization plus per-slot protocol
//!   overhead (slot-boundary control and settling). This is TDMA at its
//!   best — and it still loses by >16× at 16 nodes, because one 100 kbps
//!   channel is shared.
//! * **Q-algorithm inventory** ([`Gen2Inventory`]) — the Fig. 12
//!   identification baseline. Tags pick random slots in a frame of size
//!   2^Q; the reader observes idle/success/collision slots and adapts Q
//!   (the standard Gen 2 estimator, "inexact cardinality estimation" being
//!   its well-known overhead, §5.2).

use rand::Rng;

/// Timing parameters of the stripped Gen 2 link.
#[derive(Debug, Clone, Copy)]
pub struct Gen2Config {
    /// Tag bitrate in bps (paper: 100 kbps).
    pub bitrate_bps: f64,
    /// Payload bits per slot (paper: 96).
    pub slot_bits: usize,
    /// Protocol overhead bits per occupied slot (Query/QueryRep + RN16 +
    /// ACK in full Gen 2; stripped here to a small settling + control
    /// budget).
    pub per_slot_overhead_bits: usize,
    /// Bits of reader signalling consumed by an idle slot (idle slots are
    /// short — the reader times out quickly).
    pub idle_slot_bits: usize,
    /// Initial Q for inventory rounds.
    pub initial_q: u32,
}

impl Gen2Config {
    /// The paper's parameters.
    pub fn paper_default() -> Self {
        Gen2Config {
            bitrate_bps: 100_000.0,
            slot_bits: 96,
            per_slot_overhead_bits: 10,
            idle_slot_bits: 24,
            initial_q: 4,
        }
    }

    fn slot_secs(&self) -> f64 {
        (self.slot_bits + self.per_slot_overhead_bits) as f64 / self.bitrate_bps
    }

    fn idle_secs(&self) -> f64 {
        self.idle_slot_bits as f64 / self.bitrate_bps
    }
}

/// Deterministic reader-scheduled TDMA for continuous data transfer.
#[derive(Debug, Clone)]
pub struct TdmaSchedule {
    cfg: Gen2Config,
    n_tags: usize,
}

impl TdmaSchedule {
    /// A schedule over `n_tags` tags.
    pub fn new(cfg: Gen2Config, n_tags: usize) -> Self {
        assert!(n_tags > 0, "need at least one tag");
        TdmaSchedule { cfg, n_tags }
    }

    /// Aggregate goodput (payload bits/second) across the network: the
    /// channel is serialized, so this is slot efficiency × bitrate,
    /// independent of the population.
    pub fn aggregate_goodput_bps(&self) -> f64 {
        let cfg = &self.cfg;
        cfg.bitrate_bps * cfg.slot_bits as f64 / (cfg.slot_bits + cfg.per_slot_overhead_bits) as f64
    }

    /// Per-tag goodput in bps.
    pub fn per_tag_goodput_bps(&self) -> f64 {
        self.aggregate_goodput_bps() / self.n_tags as f64
    }

    /// Time for every tag to deliver one `slot_bits` message.
    pub fn round_secs(&self) -> f64 {
        self.cfg.slot_secs() * self.n_tags as f64
    }
}

/// Outcome of one inventory run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InventoryOutcome {
    /// Seconds until every tag was acknowledged.
    pub duration_secs: f64,
    /// Total slots elapsed (including idle and collided).
    pub slots: usize,
    /// Slots that were collisions.
    pub collision_slots: usize,
    /// Slots that were idle.
    pub idle_slots: usize,
}

/// Q-algorithm framed-slotted-ALOHA inventory.
#[derive(Debug, Clone)]
pub struct Gen2Inventory {
    cfg: Gen2Config,
}

impl Gen2Inventory {
    /// Creates an inventory runner.
    pub fn new(cfg: Gen2Config) -> Self {
        Gen2Inventory { cfg }
    }

    /// Runs one full inventory of `n_tags` tags, returning the time and
    /// slot accounting. Uses the standard Q-algorithm: Qfp += C on a
    /// collision, −= C on an idle (C = 0.35), re-framing when Q changes or
    /// the frame is exhausted.
    pub fn run<R: Rng>(&self, n_tags: usize, rng: &mut R) -> InventoryOutcome {
        let cfg = &self.cfg;
        let mut remaining = n_tags;
        let mut qfp = cfg.initial_q as f64;
        let mut duration = 0.0;
        let mut slots = 0usize;
        let mut collision_slots = 0usize;
        let mut idle_slots = 0usize;
        const C: f64 = 0.35;

        while remaining > 0 {
            let q = qfp.round().clamp(0.0, 15.0) as u32;
            let frame = 1usize << q;
            // Tags draw slots uniformly in the frame.
            let mut slot_counts = vec![0usize; frame];
            for _ in 0..remaining {
                slot_counts[rng.gen_range(0..frame)] += 1;
            }
            for &count in &slot_counts {
                slots += 1;
                match count {
                    0 => {
                        duration += cfg.idle_secs();
                        idle_slots += 1;
                        qfp = (qfp - C).max(0.0);
                    }
                    1 => {
                        duration += cfg.slot_secs();
                        remaining -= 1;
                    }
                    _ => {
                        duration += cfg.slot_secs();
                        collision_slots += 1;
                        qfp = (qfp + C).min(15.0);
                    }
                }
                if remaining == 0 {
                    break;
                }
            }
        }
        InventoryOutcome {
            duration_secs: duration,
            slots,
            collision_slots,
            idle_slots,
        }
    }

    /// Mean inventory duration over `trials` seeded runs.
    pub fn mean_duration_secs<R: Rng>(&self, n_tags: usize, trials: usize, rng: &mut R) -> f64 {
        (0..trials)
            .map(|_| self.run(n_tags, rng).duration_secs)
            .sum::<f64>()
            / trials as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn scheduled_goodput_is_population_independent_aggregate() {
        let cfg = Gen2Config::paper_default();
        let t4 = TdmaSchedule::new(cfg, 4);
        let t16 = TdmaSchedule::new(cfg, 16);
        assert!((t4.aggregate_goodput_bps() - t16.aggregate_goodput_bps()).abs() < 1e-9);
        // ~90.6 kbps: 96/(96+10) × 100 kbps.
        assert!((t4.aggregate_goodput_bps() - 90_566.0).abs() < 1.0);
        assert!((t16.per_tag_goodput_bps() - 90_566.0 / 16.0).abs() < 1.0);
    }

    #[test]
    fn round_time_scales_with_population() {
        let cfg = Gen2Config::paper_default();
        let t = TdmaSchedule::new(cfg, 16);
        // 16 slots of 106 bits at 100 kbps = 16.96 ms.
        assert!((t.round_secs() - 0.016_96).abs() < 1e-6);
    }

    #[test]
    fn inventory_identifies_everyone() {
        let inv = Gen2Inventory::new(Gen2Config::paper_default());
        let mut rng = StdRng::seed_from_u64(1);
        for n in [1, 4, 16, 64] {
            let out = inv.run(n, &mut rng);
            // At least n successful slots happened.
            assert!(out.slots >= n);
            assert!(out.duration_secs > 0.0);
        }
    }

    #[test]
    fn inventory_time_roughly_matches_fig12_scale() {
        // Fig. 12: TDMA identifies 16 tags in ~30+ ms — i.e. the ALOHA
        // inefficiency costs ~2× over perfect serialization (16.96 ms).
        let inv = Gen2Inventory::new(Gen2Config::paper_default());
        let mut rng = StdRng::seed_from_u64(2);
        let mean = inv.mean_duration_secs(16, 200, &mut rng);
        assert!(
            (0.022..0.050).contains(&mean),
            "16-tag inventory took {mean} s"
        );
    }

    #[test]
    fn inventory_scales_superlinearly_vs_population() {
        let inv = Gen2Inventory::new(Gen2Config::paper_default());
        let mut rng = StdRng::seed_from_u64(3);
        let t4 = inv.mean_duration_secs(4, 200, &mut rng);
        let t16 = inv.mean_duration_secs(16, 200, &mut rng);
        assert!(t16 > 3.0 * t4, "t4={t4}, t16={t16}");
    }

    #[test]
    fn collisions_and_idles_are_observed() {
        let inv = Gen2Inventory::new(Gen2Config::paper_default());
        let mut rng = StdRng::seed_from_u64(4);
        let out = inv.run(32, &mut rng);
        assert!(out.collision_slots > 0);
        assert!(out.idle_slots > 0);
    }

    #[test]
    #[should_panic(expected = "at least one tag")]
    fn empty_schedule_rejected() {
        let _ = TdmaSchedule::new(Gen2Config::paper_default(), 0);
    }
}
