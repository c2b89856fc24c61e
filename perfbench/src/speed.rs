//! The reference clock: times read at reference speed.
//!
//! On a shared host the same code runs at very different speeds from
//! one second to the next. On a 2-vCPU KVM guest of a shared Xeon host,
//! a fixed computation on an otherwise idle guest took anywhere from
//! 1.0x to 1.8x its usual CPU time, in phases of about a second (the
//! cores themselves run slower while neighbours are busy), and on top
//! of that the host takes the virtual CPUs away for a while (steal).
//! Whole 30-second runs of the same workload differed by 15-30% in
//! wall time. A run's median cannot average that out, so the benchmark
//! reads its times off a [`RefClock`]: a clock that advances at the
//! host's current speed relative to a quiet host. A sampler thread
//! times one round of a fixed kernel every [`SAMPLE_EVERY`] in its own
//! CPU time (which leaves out waiting for a core, so the program's own
//! load does not read as a slow host) and takes off the share of time
//! the host took from the virtual CPUs; the clock runs at the median of
//! the recent samples. On that guest this cut the run-to-run spread
//! of the workloads' median latencies to between a half and a fifth of
//! the wall clock's. The kernel is the benchmark's own code and
//! allocates nothing after start, so no change to the program moves
//! it; a change that makes the program faster or slower moves the
//! reference-speed times as much as the wall times.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How often the sampler times a kernel round (~1 ms of one core, so
/// ~2% of one core).
pub const SAMPLE_EVERY: Duration = Duration::from_millis(50);
/// What one kernel round takes on a core of the 2-vCPU guest above
/// when its host is quiet, s of CPU time: the scale that keeps
/// reference-speed times near the wall times of a quiet host.
const ROUND_NOMINAL_S: f64 = 0.00105;
/// Speed samples the clock's speed is the median of (~0.5 s of them):
/// a sample the scheduler interrupted reads slow, and a median ignores
/// it.
const RECENT: usize = 9;
/// Virtual CPUs of the target, for the steal share.
const CPUS: f64 = 2.0;
/// Slots of the kernel's table (256 KiB of `u64`, the size of a
/// private L2 cache: a busy sibling hyperthread slows it, the program's
/// own use of the shared cache barely does).
const TABLE: usize = 1 << 15;
/// Table probes and formatted numbers per kernel round.
const PROBES: usize = 20_000;
const FORMATS: usize = 1_500;

/// The kernel's preallocated state.
struct Kernel {
    table: Vec<u64>,
    text: String,
    x: u64,
}

impl Kernel {
    fn new() -> Self {
        Kernel {
            table: (0..TABLE as u64).map(crate::plan::mix).collect(),
            text: String::with_capacity(64 * FORMATS),
            x: 1,
        }
    }

    /// One round: dependent random probes into the table (hashing and
    /// map lookups) and number formatting, the kinds of work the
    /// pipeline does, with no allocation.
    fn round(&mut self) -> u64 {
        use std::fmt::Write;
        let mask = TABLE as u64 - 1;
        for _ in 0..PROBES {
            let slot = (self.x & mask) as usize;
            self.x = crate::plan::mix(self.x ^ self.table[slot]);
            self.table[slot] = self.table[slot].rotate_left(7) ^ self.x;
        }
        self.text.clear();
        for i in 0..FORMATS as u64 {
            let v = (self.x ^ i) >> 20;
            let _ = write!(self.text, "{:.3};", v as f64 / 7.0);
        }
        self.x ^ self.text.len() as u64
    }
}

/// CPU time of the calling thread, s, to the nanosecond (the first
/// field of `/proc/thread-self/schedstat`). The kernel brings a running
/// thread's count up to date only when it schedules, so the thread
/// yields first.
fn thread_cpu_s() -> f64 {
    std::thread::yield_now();
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |ns| ns / 1e9)
}

/// Time the host took from this guest's virtual CPUs so far, summed
/// over them, s (the `steal` column of `/proc/stat`).
fn steal_s() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            s.lines()
                .next()?
                .split_whitespace()
                .nth(8)?
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |ticks| ticks / crate::CLOCK_TICKS)
}

/// The clock's reading at its last sample and its speed since.
#[derive(Debug, Clone, Copy)]
struct Anchor {
    wall: Instant,
    at_s: f64,
    /// Reference seconds per wall second.
    speed: f64,
}

impl Anchor {
    fn at(&self, wall: Instant) -> f64 {
        let since = if wall >= self.wall {
            (wall - self.wall).as_secs_f64()
        } else {
            -(self.wall - wall).as_secs_f64()
        };
        self.at_s + since * self.speed
    }
}

/// A clock that runs at reference speed (see the module docs). Its
/// sampler thread stops and is joined when the clock is dropped.
pub struct RefClock {
    anchor: Arc<Mutex<Anchor>>,
    stop: Arc<AtomicBool>,
    sampler: Option<std::thread::JoinHandle<()>>,
}

impl RefClock {
    /// Starts the clock at 0 with a first speed sample.
    pub fn start() -> Self {
        let mut kernel = Kernel::new();
        kernel.round();
        let first = Self::speed(&mut kernel, 1.0);
        let anchor = Arc::new(Mutex::new(Anchor {
            wall: Instant::now(),
            at_s: 0.0,
            speed: first,
        }));
        let stop = Arc::new(AtomicBool::new(false));
        let sampler = {
            let (anchor, stop) = (anchor.clone(), stop.clone());
            std::thread::spawn(move || {
                let mut stolen = steal_s();
                let mut last = Instant::now();
                let mut recent = std::collections::VecDeque::from([first]);
                while !stop.load(Ordering::Relaxed) {
                    std::thread::sleep(SAMPLE_EVERY);
                    let now_stolen = steal_s();
                    let wall_s = last.elapsed().as_secs_f64().max(1e-3);
                    let steal_share = ((now_stolen - stolen) / (CPUS * wall_s)).clamp(0.0, 0.9);
                    stolen = now_stolen;
                    last = Instant::now();
                    if recent.len() == RECENT {
                        recent.pop_front();
                    }
                    recent.push_back(Self::speed(&mut kernel, 1.0 - steal_share));
                    let speed = crate::stats::median(recent.make_contiguous()).unwrap_or(first);
                    let mut a = anchor.lock().expect("clock anchor");
                    let now = Instant::now();
                    a.at_s = a.at(now);
                    a.wall = now;
                    a.speed = speed;
                }
            })
        };
        RefClock {
            anchor,
            stop,
            sampler: Some(sampler),
        }
    }

    /// One speed sample: the round's nominal over its CPU time, times
    /// the share of the CPUs the host left.
    fn speed(kernel: &mut Kernel, left: f64) -> f64 {
        let cpu = thread_cpu_s();
        std::hint::black_box(kernel.round());
        let round = thread_cpu_s() - cpu;
        (ROUND_NOMINAL_S / round * left).clamp(0.1, 10.0)
    }

    fn anchor(&self) -> Anchor {
        *self.anchor.lock().expect("clock anchor")
    }

    /// Reference seconds since the clock started.
    pub fn now_s(&self) -> f64 {
        self.anchor().at(Instant::now())
    }

    /// The wall instant at which the clock is expected to read `at_s`.
    pub fn wall_at(&self, at_s: f64) -> Instant {
        let a = self.anchor();
        let wall_s = (at_s - a.at_s) / a.speed;
        if wall_s >= 0.0 {
            a.wall + Duration::from_secs_f64(wall_s)
        } else {
            a.wall
                .checked_sub(Duration::from_secs_f64(-wall_s))
                .unwrap_or(a.wall)
        }
    }

    /// Runs `work` and returns its result with its duration in
    /// reference seconds and in wall seconds.
    pub fn time<T>(&self, work: impl FnOnce() -> T) -> (T, f64, f64) {
        let (at, wall) = (self.now_s(), Instant::now());
        let out = work();
        (out, self.now_s() - at, wall.elapsed().as_secs_f64())
    }
}

impl Drop for RefClock {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(sampler) = self.sampler.take() {
            let _ = sampler.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_is_deterministic() {
        let (mut a, mut b) = (Kernel::new(), Kernel::new());
        assert_eq!(a.round(), b.round());
        assert_eq!(a.round(), b.round());
    }

    #[test]
    fn the_clock_runs_forward_and_maps_back_to_wall_time() {
        let clock = RefClock::start();
        let (_, ref_s, wall_s) = clock.time(|| std::thread::sleep(3 * SAMPLE_EVERY));
        assert!(ref_s > 0.0 && wall_s >= 0.15);
        let at = clock.now_s() + 0.5;
        let wall = clock.wall_at(at);
        assert!(wall > Instant::now());
        assert!(clock.anchor().at(wall) - at < 1e-9);
    }

    #[test]
    fn anchors_extrapolate_both_ways() {
        let wall = Instant::now();
        let a = Anchor {
            wall,
            at_s: 10.0,
            speed: 2.0,
        };
        assert!((a.at(wall + Duration::from_secs(1)) - 12.0).abs() < 1e-9);
        assert!((a.at(wall.checked_sub(Duration::from_secs(1)).unwrap()) - 8.0).abs() < 1e-9);
    }
}
