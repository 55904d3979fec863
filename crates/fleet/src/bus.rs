//! The delivery bus: bounded per-subscriber queues, exactly-once fan-out.
//!
//! Each subscriber owns a [`BoundedQueue`] of [`DeliveredFrame`]s. A
//! publish pushes the frame into *every* subscriber queue exactly once,
//! under the same two backpressure disciplines as the reader runtime's
//! queues ([`Backpressure::Block`]: a slow subscriber stalls the
//! coordinator, nothing is lost; [`Backpressure::DropOldest`]: the
//! subscriber's oldest undelivered frame is shed and counted). Queues
//! are model-checked primitives (`lf_reader::BoundedQueue`), and the
//! bus's own subscriber list is exercised by `tests/model_dedup.rs`.

use crate::dedup::{ReaderId, WinReason};
use crate::identity::FrameId;
use lf_reader::{Backpressure, BoundedQueue};
use lf_tag::frame::FrameKind;
use lf_types::BitVec;
use std::sync::Arc;
// Same cfg-swap as the dedup registry: the subscriber list's mutex is
// explorable by the model scheduler under the `lf-check` feature.
#[cfg(feature = "lf-check")]
use lf_check::sync::{Mutex, MutexGuard, PoisonError};
#[cfg(not(feature = "lf-check"))]
use std::sync::{Mutex, MutexGuard, PoisonError};

fn recover<'a, T>(
    r: Result<MutexGuard<'a, T>, PoisonError<MutexGuard<'a, T>>>,
) -> MutexGuard<'a, T> {
    r.unwrap_or_else(PoisonError::into_inner)
}

/// One exactly-once frame delivery, as a subscriber receives it.
#[derive(Debug, Clone)]
pub struct DeliveredFrame {
    /// The CRC-verified payload bits.
    pub payload: BitVec,
    /// Bitrate of the stream that carried the frame.
    pub rate_bps: f64,
    /// Frame kind (sensor data or identification).
    pub kind: FrameKind,
    /// Epoch ordinal (carrier-gap count) the frame was observed in.
    pub epoch_ordinal: u64,
    /// The reader whose copy won delivery.
    pub winner: ReaderId,
    /// Why that copy won.
    pub reason: WinReason,
    /// The frame's content-addressed identity.
    pub id: FrameId,
}

/// What one publish did across the subscriber population.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PublishOutcome {
    /// Queues the frame landed in.
    pub delivered: usize,
    /// Frames shed from subscriber queues to make room (`DropOldest`
    /// policy only).
    pub shed: usize,
}

#[derive(Debug)]
struct Subscribers {
    queues: Vec<Arc<BoundedQueue<DeliveredFrame>>>,
    closed: bool,
}

/// The fan-out bus. See the module docs for the delivery discipline.
#[derive(Debug)]
pub struct FrameBus {
    subs: Mutex<Subscribers>,
    capacity: usize,
    policy: Backpressure,
}

impl FrameBus {
    /// A bus whose subscriber queues hold `capacity` frames (min 1)
    /// under `policy`.
    pub fn new(capacity: usize, policy: Backpressure) -> Self {
        FrameBus {
            subs: Mutex::new(Subscribers {
                queues: Vec::new(),
                closed: false,
            }),
            capacity,
            policy,
        }
    }

    /// Adds a subscriber. Frames published *before* the subscription are
    /// not replayed — subscribe before the fleet starts delivering (the
    /// fleet runtime takes its subscriber count at spawn for exactly
    /// this reason). Subscribing to a closed bus yields a subscription
    /// that reports end of stream immediately.
    pub fn subscribe(&self) -> Subscription {
        let queue = Arc::new(BoundedQueue::new(self.capacity));
        let mut subs = recover(self.subs.lock());
        if subs.closed {
            queue.close();
        } else {
            subs.queues.push(Arc::clone(&queue));
        }
        drop(subs);
        Subscription { queue }
    }

    /// Publishes one frame to every subscriber, exactly once each, under
    /// the bus's backpressure policy. Under `Block` a full subscriber
    /// queue blocks the publish (and with it the coordinator — lossless
    /// delivery propagates backpressure all the way to ingest, exactly
    /// like the reader's job queue).
    pub fn publish(&self, frame: &DeliveredFrame) -> PublishOutcome {
        let subs = recover(self.subs.lock());
        let mut outcome = PublishOutcome::default();
        for q in &subs.queues {
            match self.policy {
                Backpressure::Block => {
                    if q.push_block(frame.clone()).is_ok() {
                        outcome.delivered += 1;
                    }
                }
                Backpressure::DropOldest => match q.push_drop_oldest(frame.clone()) {
                    Ok(Some(_evicted)) => {
                        outcome.delivered += 1;
                        outcome.shed += 1;
                    }
                    Ok(None) => outcome.delivered += 1,
                    Err(_) => {}
                },
            }
        }
        outcome
    }

    /// Closes the bus: subscribers drain what is queued and then see end
    /// of stream; later publishes reach nobody; later subscriptions are
    /// born finished. Idempotent.
    pub fn close(&self) {
        let mut subs = recover(self.subs.lock());
        subs.closed = true;
        let queues = std::mem::take(&mut subs.queues);
        drop(subs);
        for q in queues {
            q.close();
        }
    }
}

/// One subscriber's end of the bus.
#[derive(Debug)]
pub struct Subscription {
    queue: Arc<BoundedQueue<DeliveredFrame>>,
}

impl Subscription {
    /// The next delivered frame; blocks while the fleet is working.
    /// `None` means the bus closed and everything queued was drained.
    pub fn recv(&self) -> Option<DeliveredFrame> {
        self.queue.pop()
    }

    /// Non-blocking [`Subscription::recv`]: `None` means nothing is
    /// deliverable right now — check [`Subscription::is_finished`] to
    /// distinguish end of stream, mirroring `ReaderRuntime::try_recv`.
    pub fn try_recv(&self) -> Option<DeliveredFrame> {
        self.queue.try_pop()
    }

    /// True once the bus has closed and this subscription is drained.
    /// Stable — once true, true forever.
    pub fn is_finished(&self) -> bool {
        self.queue.is_closed_and_empty()
    }

    /// Frames currently queued for this subscriber.
    pub fn backlog(&self) -> usize {
        self.queue.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(n: u64) -> DeliveredFrame {
        DeliveredFrame {
            payload: BitVec::from_u64(n, 32),
            rate_bps: 10_000.0,
            kind: FrameKind::SensorData,
            epoch_ordinal: n / 8,
            winner: ReaderId(0),
            reason: WinReason::FirstClaim,
            id: FrameId {
                tag_key: 1,
                epoch_fp: n / 8,
                payload_digest: n,
            },
        }
    }

    #[test]
    fn every_subscriber_gets_every_frame_once_in_order() {
        let bus = FrameBus::new(8, Backpressure::Block);
        let a = bus.subscribe();
        let b = bus.subscribe();
        for n in 0..5 {
            let out = bus.publish(&frame(n));
            assert_eq!(
                out,
                PublishOutcome {
                    delivered: 2,
                    shed: 0
                }
            );
        }
        bus.close();
        for sub in [&a, &b] {
            let got: Vec<u64> = std::iter::from_fn(|| sub.recv())
                .map(|f| f.id.payload_digest)
                .collect();
            assert_eq!(got, vec![0, 1, 2, 3, 4]);
            assert!(sub.is_finished());
        }
    }

    #[test]
    fn drop_oldest_sheds_per_subscriber_and_counts() {
        let bus = FrameBus::new(2, Backpressure::DropOldest);
        let slow = bus.subscribe();
        let mut shed = 0;
        for n in 0..5 {
            shed += bus.publish(&frame(n)).shed;
        }
        bus.close();
        assert_eq!(shed, 3, "capacity 2, five publishes, no draining");
        let got: Vec<u64> = std::iter::from_fn(|| slow.recv())
            .map(|f| f.id.payload_digest)
            .collect();
        assert_eq!(got, vec![3, 4], "freshest frames win");
    }

    #[test]
    fn late_subscriber_is_born_finished() {
        let bus = FrameBus::new(4, Backpressure::Block);
        bus.publish(&frame(0));
        bus.close();
        let late = bus.subscribe();
        assert!(late.is_finished());
        assert!(late.recv().is_none());
        // Publishing after close reaches nobody.
        assert_eq!(bus.publish(&frame(1)).delivered, 0);
    }

    #[test]
    fn try_recv_distinguishes_pending_from_finished() {
        let bus = FrameBus::new(4, Backpressure::Block);
        let sub = bus.subscribe();
        assert!(sub.try_recv().is_none());
        assert!(!sub.is_finished(), "empty but open is not end of stream");
        bus.publish(&frame(7));
        assert_eq!(sub.backlog(), 1);
        assert!(sub.try_recv().is_some());
        bus.close();
        assert!(sub.try_recv().is_none());
        assert!(sub.is_finished());
    }
}
