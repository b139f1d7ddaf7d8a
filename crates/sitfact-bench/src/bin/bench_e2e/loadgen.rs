//! Open-loop pacing: requests leave on a fixed schedule, whatever the server
//! does, and every latency is counted from the moment the request was *due*.
//!
//! One connection sends one request at a time, so a request that stalls past
//! the next due time delays the sends behind it. Counting from the due time
//! charges that wait to the requests that suffered it, and `late_ns` reports
//! how far behind the schedule the generator ran.

use std::time::{Duration, Instant};

/// A monotonic clock the pacer can wait on; injected so the scheduler is
/// testable without real time.
pub trait Clock {
    /// Nanoseconds since the clock's origin.
    fn now_ns(&self) -> u64;
    /// Returns once `now_ns() >= deadline_ns`.
    fn wait_until(&self, deadline_ns: u64);
}

/// The real clock: sleeps until shortly before the deadline, then spins, so
/// sends leave within a few microseconds of their due time without burning a
/// core of the 2-core box for the whole gap.
#[derive(Debug, Clone, Copy)]
pub struct WallClock {
    origin: Instant,
}

/// How long before a deadline the wall clock stops sleeping and spins
/// (covers the kernel's default 50 us timer slack).
const SPIN_NS: u64 = 120_000;

impl WallClock {
    /// A clock whose origin is now.
    pub fn start() -> Self {
        WallClock {
            origin: Instant::now(),
        }
    }
}

impl Clock for WallClock {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn wait_until(&self, deadline_ns: u64) {
        loop {
            let now = self.now_ns();
            if now >= deadline_ns {
                return;
            }
            let left = deadline_ns - now;
            if left > SPIN_NS {
                std::thread::sleep(Duration::from_nanos(left - SPIN_NS));
            } else {
                std::hint::spin_loop();
            }
        }
    }
}

/// What one paced connection measured, one entry per request.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct PacedSamples {
    /// Reply received minus *due* time.
    pub latency_ns: Vec<u64>,
    /// Actual send minus due time: the generator's own lag.
    pub late_ns: Vec<u64>,
    /// When the reply was received, on the pacing clock.
    pub done_ns: Vec<u64>,
}

/// Sends `count` requests, request `i` due at `start_ns + i / hz` seconds.
/// `send` performs the round trip; `after` runs once the reply's timestamp is
/// taken (reply checking belongs there, outside the measured interval).
pub fn run_paced<T>(
    clock: &impl Clock,
    start_ns: u64,
    hz: u64,
    count: usize,
    mut send: impl FnMut(usize) -> T,
    mut after: impl FnMut(usize, T),
) -> PacedSamples {
    let mut samples = PacedSamples {
        latency_ns: Vec::with_capacity(count),
        late_ns: Vec::with_capacity(count),
        done_ns: Vec::with_capacity(count),
    };
    for i in 0..count {
        let due = start_ns + (i as u64 * 1_000_000_000) / hz;
        clock.wait_until(due);
        let sent = clock.now_ns();
        let reply = send(i);
        let done = clock.now_ns();
        samples.late_ns.push(sent - due);
        samples.latency_ns.push(done - due);
        samples.done_ns.push(done);
        after(i, reply);
    }
    samples
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// A clock that only moves when told to: waiting jumps to the deadline,
    /// serving a request advances it by the service time.
    struct FakeClock(Cell<u64>);

    impl Clock for FakeClock {
        fn now_ns(&self) -> u64 {
            self.0.get()
        }
        fn wait_until(&self, deadline_ns: u64) {
            self.0.set(self.0.get().max(deadline_ns));
        }
    }

    #[test]
    fn a_stalled_request_delays_the_requests_behind_it() {
        let clock = FakeClock(Cell::new(0));
        // 1 000 requests/s: one due every 1 ms. Request 1 stalls for 3.5 ms,
        // every other request is served in 0.2 ms.
        let service_ns = |i: usize| if i == 1 { 3_500_000 } else { 200_000 };
        let samples = run_paced(
            &clock,
            1_000_000,
            1_000,
            6,
            |i| clock.0.set(clock.0.get() + service_ns(i)),
            |_, ()| {},
        );
        // Request 1 is due at 2 ms and done at 5.5 ms. Requests 2–4 were due
        // at 3, 4 and 5 ms but could only leave at 5.5, 5.7 and 5.9 ms; by
        // request 5 (due 6 ms) the backlog is gone.
        assert_eq!(
            samples.late_ns,
            vec![0, 0, 2_500_000, 1_700_000, 900_000, 100_000]
        );
        assert_eq!(
            samples.latency_ns,
            vec![200_000, 3_500_000, 2_700_000, 1_900_000, 1_100_000, 300_000]
        );
        assert_eq!(samples.done_ns[5], 6_300_000);
    }

    #[test]
    fn wall_clock_waits_for_the_deadline() {
        let clock = WallClock::start();
        let deadline = clock.now_ns() + 300_000;
        clock.wait_until(deadline);
        assert!(clock.now_ns() >= deadline);
    }
}
