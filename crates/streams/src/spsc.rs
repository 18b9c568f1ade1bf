//! A bounded single-producer / single-consumer ring, hand-rolled on `std`
//! atomics — the ingest spine of the persistent sharded runtime
//! (`tps_core::runtime`).
//!
//! The workspace is offline, so this is deliberately a small, auditable
//! queue rather than a vendored dependency:
//!
//! * **Lock-free fast path.** One cache-padded head (consumer) and tail
//!   (producer) index over a fixed power-of-two slot array. `try_push` /
//!   `try_pop` are wait-free: one load of the opposite index, one slot
//!   move, one store of the own index.
//! * **Parking slow path.** Blocking [`Producer::push`] /
//!   [`Consumer::pop`] spin briefly, then park on a `Mutex`/`Condvar`
//!   pair. The runtime's host may have *fewer cores than shards* (CI
//!   runners routinely do), so unbounded spinning would starve the very
//!   worker the caller is waiting on. Wakeups cannot be lost: the parking
//!   side publishes its parked flag (SeqCst) *before* re-checking the
//!   queue, and the waking side publishes its index (SeqCst) *before*
//!   reading the flag — one of the two must observe the other.
//! * **Disconnect semantics.** Dropping either endpoint closes the
//!   channel: a closed-and-empty `pop` returns `None`, a closed `push`
//!   hands the value back.
//!
//! The ring has no flow-control policy of its own: a full ring either
//! rejects a [`Producer::try_push`] or parks a [`Producer::push`]. The
//! runtime uses exactly that pair — try, count the miss, then block — so a
//! routed chunk is never dropped or buffered outside the ring.
//!
//! The indices are monotonically increasing `usize` values reduced by a
//! power-of-two mask; `tail - head` is the queue length (wrapping
//! subtraction keeps this correct across index overflow).

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Error returned by [`Producer::try_push`], carrying the rejected value.
#[derive(Debug, PartialEq, Eq)]
pub enum PushError<T> {
    /// The ring is full; retry after the consumer makes progress.
    Full(T),
    /// The consumer is gone; the value can never be delivered.
    Disconnected(T),
}

impl<T> PushError<T> {
    /// Recovers the value that could not be enqueued.
    pub fn into_inner(self) -> T {
        match self {
            PushError::Full(v) | PushError::Disconnected(v) => v,
        }
    }
}

/// Error returned by [`Consumer::try_pop`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PopError {
    /// The ring is currently empty (the producer may still push).
    Empty,
    /// The ring is empty and the producer is gone: no value will ever
    /// arrive.
    Disconnected,
}

/// Pads the hot indices to their own cache lines so the producer's tail
/// stores never invalidate the consumer's head line and vice versa.
#[repr(align(64))]
struct CachePadded<T>(T);

struct Shared<T> {
    buf: Box<[UnsafeCell<MaybeUninit<T>>]>,
    mask: usize,
    /// Next slot to pop; written only by the consumer.
    head: CachePadded<AtomicUsize>,
    /// Next slot to push; written only by the producer.
    tail: CachePadded<AtomicUsize>,
    /// Set when either endpoint drops.
    closed: AtomicBool,
    /// Dekker flags for the parking protocol (see module docs).
    producer_parked: AtomicBool,
    consumer_parked: AtomicBool,
    lock: Mutex<()>,
    not_full: Condvar,
    not_empty: Condvar,
}

// The slots are only ever touched by exactly one side at a time (producer
// before the tail store publishes them, consumer after the head load claims
// them), so shipping the shared block across threads only needs `T: Send`.
unsafe impl<T: Send> Send for Shared<T> {}
unsafe impl<T: Send> Sync for Shared<T> {}

impl<T> Drop for Shared<T> {
    fn drop(&mut self) {
        // Both endpoints are gone; whatever is still queued is dropped here.
        let head = self.head.0.load(Ordering::Relaxed);
        let tail = self.tail.0.load(Ordering::Relaxed);
        let mut at = head;
        while at != tail {
            unsafe { (*self.buf[at & self.mask].get()).assume_init_drop() };
            at = at.wrapping_add(1);
        }
    }
}

/// The sending half of a bounded SPSC ring. `!Clone` — single producer.
pub struct Producer<T> {
    shared: Arc<Shared<T>>,
}

/// The receiving half of a bounded SPSC ring. `!Clone` — single consumer.
pub struct Consumer<T> {
    shared: Arc<Shared<T>>,
}

/// How many times the blocking paths re-try the fast path before parking.
/// Kept small: on an oversubscribed host the peer needs the core more than
/// we need the latency.
const SPIN_TRIES: u32 = 64;

/// Creates a bounded SPSC ring holding at most `capacity` values.
/// `capacity` is rounded up to a power of two (minimum 2).
pub fn ring<T>(capacity: usize) -> (Producer<T>, Consumer<T>) {
    let cap = capacity.max(2).next_power_of_two();
    let buf = (0..cap)
        .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
        .collect::<Vec<_>>()
        .into_boxed_slice();
    let shared = Arc::new(Shared {
        buf,
        mask: cap - 1,
        head: CachePadded(AtomicUsize::new(0)),
        tail: CachePadded(AtomicUsize::new(0)),
        closed: AtomicBool::new(false),
        producer_parked: AtomicBool::new(false),
        consumer_parked: AtomicBool::new(false),
        lock: Mutex::new(()),
        not_full: Condvar::new(),
        not_empty: Condvar::new(),
    });
    (
        Producer {
            shared: Arc::clone(&shared),
        },
        Consumer { shared },
    )
}

impl<T> Shared<T> {
    /// Wakes a parked consumer, if any. Called by the producer after its
    /// SeqCst tail store; taking the lock orders the notify after the
    /// consumer's park decision.
    fn wake_consumer(&self) {
        if self.consumer_parked.load(Ordering::SeqCst) {
            let _guard = self.lock.lock().unwrap();
            self.not_empty.notify_one();
        }
    }

    fn wake_producer(&self) {
        if self.producer_parked.load(Ordering::SeqCst) {
            let _guard = self.lock.lock().unwrap();
            self.not_full.notify_one();
        }
    }

    fn close(&self) {
        self.closed.store(true, Ordering::SeqCst);
        let _guard = self.lock.lock().unwrap();
        self.not_full.notify_one();
        self.not_empty.notify_one();
    }
}

impl<T> Producer<T> {
    /// Capacity of the ring (after power-of-two rounding).
    pub fn capacity(&self) -> usize {
        self.shared.mask + 1
    }

    /// Number of values currently queued (racy but monotone-consistent:
    /// only the consumer can shrink it concurrently).
    pub fn len(&self) -> usize {
        let shared = &self.shared;
        shared
            .tail
            .0
            .load(Ordering::Relaxed)
            .wrapping_sub(shared.head.0.load(Ordering::SeqCst))
    }

    /// Whether the ring is currently empty (from the producer's view).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the ring is currently full (from the producer's view).
    pub fn is_full(&self) -> bool {
        self.len() == self.capacity()
    }

    /// Whether the consumer has been dropped.
    pub fn is_disconnected(&self) -> bool {
        self.shared.closed.load(Ordering::SeqCst)
    }

    /// Non-blocking push. On success the value is visible to the consumer
    /// before the call returns.
    pub fn try_push(&mut self, value: T) -> Result<(), PushError<T>> {
        let shared = &*self.shared;
        if shared.closed.load(Ordering::SeqCst) {
            return Err(PushError::Disconnected(value));
        }
        let tail = shared.tail.0.load(Ordering::Relaxed);
        let head = shared.head.0.load(Ordering::SeqCst);
        if tail.wrapping_sub(head) > shared.mask {
            return Err(PushError::Full(value));
        }
        unsafe { (*shared.buf[tail & shared.mask].get()).write(value) };
        // SeqCst publish: pairs with the consumer's Dekker flag read in the
        // parking protocol *and* releases the slot write.
        shared.tail.0.store(tail.wrapping_add(1), Ordering::SeqCst);
        shared.wake_consumer();
        Ok(())
    }

    /// Blocking push: parks until a slot frees up. Returns the value if the
    /// consumer disconnected before it could be delivered.
    pub fn push(&mut self, mut value: T) -> Result<(), T> {
        for _ in 0..SPIN_TRIES {
            match self.try_push(value) {
                Ok(()) => return Ok(()),
                Err(PushError::Disconnected(v)) => return Err(v),
                Err(PushError::Full(v)) => value = v,
            }
            std::hint::spin_loop();
        }
        loop {
            {
                let shared = &*self.shared;
                let mut guard = shared.lock.lock().unwrap();
                loop {
                    shared.producer_parked.store(true, Ordering::SeqCst);
                    // Re-check *after* publishing the flag: either we see
                    // the consumer's progress here, or the consumer sees
                    // our flag and notifies under the lock.
                    let tail = shared.tail.0.load(Ordering::Relaxed);
                    let head = shared.head.0.load(Ordering::SeqCst);
                    let full = tail.wrapping_sub(head) > shared.mask;
                    if !full || shared.closed.load(Ordering::SeqCst) {
                        break;
                    }
                    guard = shared.not_full.wait(guard).unwrap();
                }
                shared.producer_parked.store(false, Ordering::SeqCst);
            }
            match self.try_push(value) {
                Ok(()) => return Ok(()),
                Err(PushError::Disconnected(v)) => return Err(v),
                Err(PushError::Full(v)) => value = v,
            }
        }
    }
}

impl<T> Drop for Producer<T> {
    fn drop(&mut self) {
        self.shared.close();
    }
}

impl<T> Consumer<T> {
    /// Capacity of the ring (after power-of-two rounding).
    pub fn capacity(&self) -> usize {
        self.shared.mask + 1
    }

    /// Number of values currently queued (racy but monotone-consistent:
    /// only the producer can grow it concurrently).
    pub fn len(&self) -> usize {
        let shared = &self.shared;
        shared
            .tail
            .0
            .load(Ordering::SeqCst)
            .wrapping_sub(shared.head.0.load(Ordering::Relaxed))
    }

    /// Whether the ring is currently empty (from the consumer's view).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the producer has been dropped.
    pub fn is_disconnected(&self) -> bool {
        self.shared.closed.load(Ordering::SeqCst)
    }

    /// Non-blocking pop.
    pub fn try_pop(&mut self) -> Result<T, PopError> {
        let shared = &*self.shared;
        let head = shared.head.0.load(Ordering::Relaxed);
        let tail = shared.tail.0.load(Ordering::SeqCst);
        if head == tail {
            return if shared.closed.load(Ordering::SeqCst) {
                Err(PopError::Disconnected)
            } else {
                Err(PopError::Empty)
            };
        }
        let value = unsafe { (*shared.buf[head & shared.mask].get()).assume_init_read() };
        shared.head.0.store(head.wrapping_add(1), Ordering::SeqCst);
        shared.wake_producer();
        Ok(value)
    }

    /// Blocking pop: parks until a value arrives. Returns `None` once the
    /// producer has disconnected *and* the ring is drained.
    pub fn pop(&mut self) -> Option<T> {
        for _ in 0..SPIN_TRIES {
            match self.try_pop() {
                Ok(v) => return Some(v),
                Err(PopError::Disconnected) => return None,
                Err(PopError::Empty) => std::hint::spin_loop(),
            }
        }
        loop {
            {
                let shared = &*self.shared;
                let mut guard = shared.lock.lock().unwrap();
                loop {
                    shared.consumer_parked.store(true, Ordering::SeqCst);
                    let head = shared.head.0.load(Ordering::Relaxed);
                    let tail = shared.tail.0.load(Ordering::SeqCst);
                    if head != tail || shared.closed.load(Ordering::SeqCst) {
                        break;
                    }
                    guard = shared.not_empty.wait(guard).unwrap();
                }
                shared.consumer_parked.store(false, Ordering::SeqCst);
            }
            match self.try_pop() {
                Ok(v) => return Some(v),
                Err(PopError::Disconnected) => return None,
                Err(PopError::Empty) => {}
            }
        }
    }
}

impl<T> Drop for Consumer<T> {
    fn drop(&mut self) {
        self.shared.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_within_capacity() {
        let (mut tx, mut rx) = ring::<u64>(4);
        for v in 0..4 {
            tx.try_push(v).unwrap();
        }
        assert!(matches!(tx.try_push(99), Err(PushError::Full(99))));
        for v in 0..4 {
            assert_eq!(rx.try_pop(), Ok(v));
        }
        assert_eq!(rx.try_pop(), Err(PopError::Empty));
    }

    #[test]
    fn capacity_rounds_up_to_power_of_two() {
        let (tx, _rx) = ring::<u8>(5);
        assert_eq!(tx.capacity(), 8);
        let (tx, _rx) = ring::<u8>(0);
        assert_eq!(tx.capacity(), 2);
    }

    /// Indices wrap around the mask many times; FIFO order and the
    /// full/empty distinction must survive every wrap.
    #[test]
    fn wrap_around_preserves_fifo_and_fullness() {
        let (mut tx, mut rx) = ring::<u64>(4);
        let mut next_in = 0u64;
        let mut next_out = 0u64;
        // Drive the indices through > 8 full wraps with a sawtooth fill.
        for round in 0..40u64 {
            let fill = 1 + (round % 4) as usize;
            for _ in 0..fill {
                tx.try_push(next_in).unwrap();
                next_in += 1;
            }
            assert_eq!(tx.len(), fill);
            for _ in 0..fill {
                assert_eq!(rx.try_pop(), Ok(next_out));
                next_out += 1;
            }
            assert!(rx.is_empty());
        }
        // Fill to capacity exactly at a wrapped offset.
        for v in 0..4 {
            tx.try_push(1000 + v).unwrap();
        }
        assert!(tx.is_full());
        assert!(matches!(tx.try_push(0), Err(PushError::Full(0))));
    }

    #[test]
    fn dropping_producer_disconnects_after_drain() {
        let (mut tx, mut rx) = ring::<String>(4);
        tx.try_push("a".to_string()).unwrap();
        tx.try_push("b".to_string()).unwrap();
        drop(tx);
        assert_eq!(rx.pop().as_deref(), Some("a"));
        assert_eq!(rx.try_pop(), Ok("b".to_string()));
        assert_eq!(rx.try_pop(), Err(PopError::Disconnected));
        assert_eq!(rx.pop(), None);
    }

    #[test]
    fn dropping_consumer_rejects_pushes_with_the_value() {
        let (mut tx, rx) = ring::<u32>(4);
        drop(rx);
        assert!(matches!(tx.try_push(7), Err(PushError::Disconnected(7))));
        assert_eq!(tx.push(9), Err(9));
    }

    #[test]
    fn queued_values_drop_when_both_ends_drop() {
        use std::sync::atomic::AtomicUsize;
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct Counted;
        impl Drop for Counted {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }
        let (mut tx, rx) = ring::<Counted>(8);
        for _ in 0..5 {
            assert!(tx.try_push(Counted).is_ok());
        }
        drop(rx);
        drop(tx);
        assert_eq!(DROPS.load(Ordering::SeqCst), 5);
    }

    /// Cross-thread stress: a blocking producer pushes a long monotone
    /// sequence through a tiny ring while the consumer drains with a mix of
    /// blocking and non-blocking pops. Exercises the full/empty parking
    /// races from both sides.
    #[test]
    fn stress_blocking_producer_and_mixed_consumer() {
        const N: u64 = 200_000;
        let (mut tx, mut rx) = ring::<u64>(4);
        let producer = std::thread::spawn(move || {
            for v in 0..N {
                tx.push(v).unwrap();
            }
        });
        let mut expected = 0u64;
        while expected < N {
            // Alternate try_pop and pop so both the parked and spinning
            // consumer paths run.
            let got = if expected.is_multiple_of(3) {
                rx.pop()
            } else {
                match rx.try_pop() {
                    Ok(v) => Some(v),
                    Err(PopError::Empty) => continue,
                    Err(PopError::Disconnected) => None,
                }
            };
            assert_eq!(got, Some(expected));
            expected += 1;
        }
        producer.join().unwrap();
    }

    /// The reverse stress: fast producer bursts against a deliberately slow
    /// consumer, forcing the producer through its parking path.
    #[test]
    fn stress_parking_producer_under_slow_consumer() {
        const N: u64 = 20_000;
        let (mut tx, mut rx) = ring::<u64>(2);
        let consumer = std::thread::spawn(move || {
            let mut sum = 0u64;
            let mut ticks = 0u64;
            while let Some(v) = rx.pop() {
                sum += v;
                ticks += 1;
                if ticks.is_multiple_of(64) {
                    std::thread::yield_now();
                }
            }
            sum
        });
        for v in 0..N {
            tx.push(v).unwrap();
        }
        drop(tx);
        assert_eq!(consumer.join().unwrap(), N * (N - 1) / 2);
    }
}
