//! `timeq` — a deterministic time-ordered event queue.
//!
//! The wave loop ([`crate::timing`]) parks scoreboard completions and
//! deferred load writebacks at their delivery cycle. `std`'s `BinaryHeap`
//! is only *weakly* ordered for equal keys (pop order among ties is
//! unspecified across implementations), and the loop must produce
//! bit-stable results. `TimeQueue` therefore pins the full order: entries
//! pop by `(time, key)` with FIFO order among exact ties (a monotonic
//! sequence number), so any two runs that push the same entries pop them
//! identically.

/// A min-queue of `(time, key) -> value` with deterministic pop order:
/// ascending `time`, then ascending `key`, then insertion order.
#[derive(Debug)]
pub(crate) struct TimeQueue<K: Ord + Copy, V> {
    heap: Vec<Entry<K, V>>,
    seq: u64,
}

#[derive(Debug)]
struct Entry<K, V> {
    time: u64,
    key: K,
    seq: u64,
    value: V,
}

impl<K: Ord + Copy, V> Entry<K, V> {
    fn rank(&self) -> (u64, &K, u64) {
        (self.time, &self.key, self.seq)
    }
}

impl<K: Ord + Copy, V> TimeQueue<K, V> {
    pub(crate) fn new() -> Self {
        TimeQueue {
            heap: Vec::new(),
            seq: 0,
        }
    }

    /// Earliest scheduled time, if any entry is queued.
    pub(crate) fn peek_time(&self) -> Option<u64> {
        self.heap.first().map(|e| e.time)
    }

    /// Schedule `value` under `key` at `time`.
    pub(crate) fn push(&mut self, time: u64, key: K, value: V) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Entry {
            time,
            key,
            seq,
            value,
        });
        self.sift_up(self.heap.len() - 1);
    }

    /// Remove and return the earliest entry.
    pub(crate) fn pop(&mut self) -> Option<(u64, K, V)> {
        if self.heap.is_empty() {
            return None;
        }
        let last = self.heap.len() - 1;
        self.heap.swap(0, last);
        let e = self.heap.pop().unwrap();
        if !self.heap.is_empty() {
            self.sift_down(0);
        }
        Some((e.time, e.key, e.value))
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.heap[i].rank() < self.heap[parent].rank() {
                self.heap.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut best = i;
            if l < self.heap.len() && self.heap[l].rank() < self.heap[best].rank() {
                best = l;
            }
            if r < self.heap.len() && self.heap[r].rank() < self.heap[best].rank() {
                best = r;
            }
            if best == i {
                break;
            }
            self.heap.swap(i, best);
            i = best;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_then_key_order() {
        let mut q: TimeQueue<(usize, u8), &str> = TimeQueue::new();
        q.push(9, (0, 0), "late");
        q.push(3, (2, 1), "t3-w2");
        q.push(3, (1, 0), "t3-w1");
        q.push(1, (5, 0), "first");
        assert_eq!(q.peek_time(), Some(1));
        assert_eq!(q.pop().unwrap().2, "first");
        assert_eq!(q.pop().unwrap().2, "t3-w1");
        assert_eq!(q.pop().unwrap().2, "t3-w2");
        assert_eq!(q.pop().unwrap().2, "late");
        assert!(q.pop().is_none());
    }

    #[test]
    fn exact_ties_pop_fifo() {
        let mut q: TimeQueue<u32, u32> = TimeQueue::new();
        for v in 0..16 {
            q.push(7, 1, v);
        }
        for v in 0..16 {
            assert_eq!(q.pop(), Some((7, 1, v)));
        }
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q: TimeQueue<u32, u64> = TimeQueue::new();
        // Deterministic pseudo-random schedule, no RNG dependency.
        let mut x: u64 = 0x2545_f491_4f6c_dd1d;
        let mut popped = Vec::new();
        for i in 0..200u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            q.push(x % 50, (x % 7) as u32, i);
            if i % 3 == 0 {
                if let Some((t, _, _)) = q.pop() {
                    popped.push(t);
                }
            }
        }
        let mut last = 0;
        while let Some((t, _, _)) = q.pop() {
            // Within the drain phase, times must be non-decreasing.
            assert!(t >= last);
            last = t;
        }
        assert_eq!(popped.len(), 67);
    }
}
