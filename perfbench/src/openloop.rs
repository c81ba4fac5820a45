//! The open-loop generator: request `i` is due at `start + i / rate`
//! whether or not earlier requests have finished. A fixed pool of
//! senders takes requests in order; a request whose sender was busy
//! goes out late, and its latency still counts from when it was due.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Timing of one request, relative to its due time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    /// Sent minus due: how late the generator ran (never negative).
    pub late: Duration,
    /// Completed minus due: the latency a user arriving on schedule saw.
    pub latency: Duration,
}

impl Timing {
    pub fn new(due: Instant, sent: Instant, done: Instant) -> Timing {
        Timing {
            late: sent.saturating_duration_since(due),
            latency: done.saturating_duration_since(due),
        }
    }
}

/// Runs `n` requests at `rate` per second over `senders` threads and
/// returns, by request index, each timing and what `send` returned.
pub fn run<T: Send>(
    n: usize,
    rate: f64,
    senders: usize,
    send: impl Fn(usize) -> T + Sync,
) -> Vec<(Timing, T)> {
    let period = Duration::from_secs_f64(1.0 / rate);
    let next = AtomicUsize::new(0);
    let out: Mutex<Vec<Option<(Timing, T)>>> = Mutex::new((0..n).map(|_| None).collect());
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..senders.max(1) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::SeqCst);
                if i >= n {
                    break;
                }
                let due = start + period * i as u32;
                let now = Instant::now();
                if now < due {
                    std::thread::sleep(due - now);
                }
                let sent = Instant::now();
                let result = send(i);
                let timing = Timing::new(due, sent, Instant::now());
                out.lock().expect("no sender panics holding the lock")[i] = Some((timing, result));
            });
        }
    });
    out.into_inner()
        .expect("senders joined")
        .into_iter()
        .map(|r| r.expect("every request index was taken by a sender"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timing_counts_from_the_due_time() {
        let due = Instant::now();
        let t = Timing::new(
            due,
            due + Duration::from_millis(3),
            due + Duration::from_millis(10),
        );
        assert_eq!(t.late, Duration::from_millis(3));
        assert_eq!(t.latency, Duration::from_millis(10));
        // A sender that started early (clock granularity) is not late.
        let early = Timing::new(due + Duration::from_millis(1), due, due);
        assert_eq!(early.late, Duration::ZERO);
    }

    #[test]
    fn a_busy_sender_makes_later_requests_late() {
        // One sender, due every 2 ms, each request busy for 10 ms: request
        // i cannot start before 10·i ms, so it is at least 8·i ms late and
        // its latency includes that lateness plus its own 10 ms.
        let service = Duration::from_millis(10);
        let out = run(6, 500.0, 1, |_| std::thread::sleep(service));
        for (i, (t, ())) in out.iter().enumerate() {
            let min_late = Duration::from_millis(8 * i as u64);
            assert!(
                t.late >= min_late.saturating_sub(Duration::from_millis(1)),
                "{i}: {t:?}"
            );
            assert!(t.latency >= t.late + service, "{i}: {t:?}");
        }
    }

    #[test]
    fn results_come_back_in_request_order() {
        let out = run(20, 2000.0, 3, |i| i * 2);
        let values: Vec<usize> = out.iter().map(|(_, v)| *v).collect();
        assert_eq!(values, (0..20).map(|i| i * 2).collect::<Vec<_>>());
    }
}
