//! A bounded MPMC queue on `Mutex` + `Condvar`.
//!
//! The runtime's stages are tied together by queues whose depth is a hard
//! bound, not a hint: an SDR appliance that buffers without limit falls
//! arbitrarily far behind the air interface and then dies of memory
//! instead of shedding load. `std::sync::mpsc::channel` is unbounded (and
//! single-consumer), so the runtime uses this queue everywhere — the
//! `disallowed-methods` entry for it in `clippy.toml` keeps it that way.
//!
//! Two produce disciplines implement the two backpressure policies:
//! [`BoundedQueue::push_block`] (lossless, producer waits) and
//! [`BoundedQueue::push_drop_oldest`] (lossy, evicts the oldest queued
//! item and never blocks). [`BoundedQueue::push_forced`] exists for
//! constant-size tombstone records that must not be lost *and* must not
//! deadlock the producer; it may transiently exceed the capacity.

use std::collections::VecDeque;
// Under the `lf-check` feature the sync primitives come from the model
// scheduler's shims (passthrough outside a model run), so the queue's
// interleavings can be explored exhaustively by tests/model_queue.rs.
// The code below is identical either way — the shims are std-shaped,
// down to `PoisonError` on panicked owners.
#[cfg(feature = "lf-check")]
use lf_check::sync::{Condvar, Mutex, MutexGuard, PoisonError};
#[cfg(not(feature = "lf-check"))]
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// A panic in one worker must not wedge the whole runtime: locks are
/// recovered from poisoning instead of propagating it. The protected
/// state is a plain `VecDeque` whose invariants hold between operations,
/// so a poisoned lock only means some *other* thread died — the queue
/// itself is intact.
fn recover<'a, T>(
    r: Result<MutexGuard<'a, T>, PoisonError<MutexGuard<'a, T>>>,
) -> MutexGuard<'a, T> {
    r.unwrap_or_else(PoisonError::into_inner)
}

#[derive(Debug)]
struct State<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A bounded multi-producer multi-consumer FIFO.
#[derive(Debug)]
pub struct BoundedQueue<T> {
    state: Mutex<State<T>>,
    capacity: usize,
    not_empty: Condvar,
    not_full: Condvar,
}

impl<T> BoundedQueue<T> {
    /// Creates a queue holding at most `capacity` items (min 1).
    pub fn new(capacity: usize) -> Self {
        BoundedQueue {
            state: Mutex::new(State {
                items: VecDeque::new(),
                closed: false,
            }),
            capacity: capacity.max(1),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current depth (racy by nature; for stats snapshots).
    pub fn len(&self) -> usize {
        recover(self.state.lock()).items.len()
    }

    /// Whether the queue is currently empty (racy; for stats snapshots).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True once the queue is closed *and* drained — the end-of-stream
    /// condition under which [`BoundedQueue::pop`] returns `None`
    /// immediately. Unlike [`BoundedQueue::is_empty`] this observation
    /// is stable: `closed` is sticky and a closed queue rejects every
    /// producer, so once this returns true it returns true forever.
    /// Lets a non-blocking consumer distinguish "nothing *yet*"
    /// ([`BoundedQueue::try_pop`] → `None` while open) from "nothing
    /// *ever again*".
    pub fn is_closed_and_empty(&self) -> bool {
        let st = recover(self.state.lock());
        st.closed && st.items.is_empty()
    }

    /// Blocks until there is room, then enqueues. Returns the item back
    /// if the queue was closed before room appeared.
    pub fn push_block(&self, item: T) -> Result<(), T> {
        let mut st = recover(self.state.lock());
        while st.items.len() >= self.capacity && !st.closed {
            st = recover(self.not_full.wait(st));
        }
        if st.closed {
            return Err(item);
        }
        st.items.push_back(item);
        drop(st);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Enqueues without ever blocking: if the queue is full, the *oldest*
    /// queued item is evicted and returned. Returns `Err(item)` if closed.
    pub fn push_drop_oldest(&self, item: T) -> Result<Option<T>, T> {
        let mut st = recover(self.state.lock());
        if st.closed {
            return Err(item);
        }
        let evicted = if st.items.len() >= self.capacity {
            st.items.pop_front()
        } else {
            None
        };
        st.items.push_back(item);
        drop(st);
        self.not_empty.notify_one();
        Ok(evicted)
    }

    /// Enqueues regardless of capacity (never blocks, never evicts).
    /// Reserved for constant-size accounting records — anything larger
    /// would defeat the queue's bound. Returns `Err(item)` if closed.
    pub fn push_forced(&self, item: T) -> Result<(), T> {
        let mut st = recover(self.state.lock());
        if st.closed {
            return Err(item);
        }
        st.items.push_back(item);
        drop(st);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Blocks until an item is available or the queue is closed *and*
    /// drained; `None` means end of stream.
    pub fn pop(&self) -> Option<T> {
        let mut st = recover(self.state.lock());
        loop {
            if let Some(item) = st.items.pop_front() {
                drop(st);
                self.not_full.notify_one();
                return Some(item);
            }
            if st.closed {
                return None;
            }
            st = recover(self.not_empty.wait(st));
        }
    }

    /// Non-blocking pop; `None` means currently empty (closed or not).
    pub fn try_pop(&self) -> Option<T> {
        let mut st = recover(self.state.lock());
        let item = st.items.pop_front();
        drop(st);
        if item.is_some() {
            self.not_full.notify_one();
        }
        item
    }

    /// Closes the queue: producers fail fast, consumers drain what is
    /// left and then see `None`. Idempotent.
    pub fn close(&self) {
        let mut st = recover(self.state.lock());
        st.closed = true;
        drop(st);
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn fifo_order_and_close_drain() {
        let q = BoundedQueue::new(4);
        for k in 0..3 {
            q.push_block(k).unwrap();
        }
        q.close();
        assert_eq!(q.pop(), Some(0));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
        assert!(q.push_block(9).is_err());
    }

    #[test]
    fn drop_oldest_evicts_head() {
        let q = BoundedQueue::new(2);
        assert_eq!(q.push_drop_oldest(1).unwrap(), None);
        assert_eq!(q.push_drop_oldest(2).unwrap(), None);
        assert_eq!(q.push_drop_oldest(3).unwrap(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(3));
    }

    #[test]
    fn forced_push_exceeds_capacity() {
        let q = BoundedQueue::new(1);
        q.push_block(1).unwrap();
        q.push_forced(2).unwrap();
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn blocked_producer_wakes_on_pop() {
        let q = Arc::new(BoundedQueue::new(1));
        q.push_block(0).unwrap();
        let q2 = Arc::clone(&q);
        let producer = thread::spawn(move || q2.push_block(1).is_ok());
        thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(q.pop(), Some(0));
        assert!(producer.join().unwrap());
        assert_eq!(q.pop(), Some(1));
    }

    #[test]
    fn blocked_producer_wakes_on_close() {
        let q = Arc::new(BoundedQueue::new(1));
        q.push_block(0).unwrap();
        let q2 = Arc::clone(&q);
        let producer = thread::spawn(move || q2.push_block(1));
        thread::sleep(std::time::Duration::from_millis(20));
        q.close();
        assert_eq!(producer.join().unwrap(), Err(1));
    }

    #[test]
    fn close_drains_queued_items_before_none() {
        // Receiver-side close semantics: items enqueued before the close
        // are never lost — consumers drain them and only then see `None`.
        let q = BoundedQueue::new(4);
        q.push_block(10).unwrap();
        q.push_block(11).unwrap();
        q.close();
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some(10));
        assert_eq!(q.pop(), Some(11));
        assert_eq!(q.pop(), None);
        assert_eq!(q.try_pop(), None);
    }

    #[test]
    fn closed_and_empty_is_stable_end_of_stream() {
        let q = BoundedQueue::new(4);
        assert!(
            !q.is_closed_and_empty(),
            "open + empty is not end of stream"
        );
        q.push_block(1).unwrap();
        q.close();
        assert!(!q.is_closed_and_empty(), "closed but not yet drained");
        assert_eq!(q.pop(), Some(1));
        assert!(q.is_closed_and_empty());
        // Stable: producers can no longer disturb it.
        assert!(q.push_block(2).is_err());
        assert!(q.push_forced(3).is_err());
        assert!(q.push_drop_oldest(4).is_err());
        assert!(q.is_closed_and_empty());
    }

    #[test]
    fn capacity_one_eviction_chain() {
        // At the minimum capacity every drop-oldest push evicts, so the
        // queue holds exactly the newest item at all times.
        let q = BoundedQueue::new(1);
        assert_eq!(q.push_drop_oldest(1).unwrap(), None);
        assert_eq!(q.push_drop_oldest(2).unwrap(), Some(1));
        assert_eq!(q.push_drop_oldest(3).unwrap(), Some(2));
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some(3));
    }

    #[test]
    fn drop_oldest_does_not_wake_blocked_sender() {
        // A drop-oldest push on a full queue evicts and replaces — the
        // queue stays full, so a sender blocked in push_block must keep
        // waiting until a consumer actually pops.
        let q = Arc::new(BoundedQueue::new(1));
        q.push_block(0).unwrap();
        let q2 = Arc::clone(&q);
        let blocked = thread::spawn(move || q2.push_block(99));
        thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(q.push_drop_oldest(1).unwrap(), Some(0));
        thread::sleep(std::time::Duration::from_millis(20));
        // Queue still holds exactly the drop-oldest item; the pop frees a
        // slot and the blocked sender completes.
        assert_eq!(q.pop(), Some(1));
        assert!(blocked.join().unwrap().is_ok());
        assert_eq!(q.pop(), Some(99));
    }
}
