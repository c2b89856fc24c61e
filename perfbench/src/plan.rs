//! Inputs made from the workload seed: seed sets and the open-loop
//! schedule. The same workload seed always gives the same inputs.

/// SplitMix64 step: a well-mixed 64-bit value from `x`.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A seed derived from `seed` for the purpose named by `tag`.
pub fn derive(seed: u64, tag: &str) -> u64 {
    tag.bytes().fold(mix(seed), |h, b| mix(h ^ u64::from(b)))
}

/// Pipeline seeds are kept below 2^31 so they read like the paper's
/// (and survive any 32-bit path in the program untouched).
fn pipeline_seed(x: u64) -> u64 {
    x % (1 << 31)
}

/// `n` distinct pipeline seeds derived from the workload seed.
pub fn seed_set(seed: u64, tag: &str, n: usize) -> Vec<u64> {
    let mut state = derive(seed, tag);
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        state = mix(state);
        let s = pipeline_seed(state);
        if !out.contains(&s) {
            out.push(s);
        }
    }
    out
}

/// A small deterministic generator for the schedule's draws.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Which part of the serve-mix a submission belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The seed whose store the daemon reads through.
    Stored,
    /// One of the warmed hot seeds: crawl computed, frames reused.
    Hot,
    /// A never-seen seed: fully cold.
    Fresh,
    /// One of a burst of identical submissions of the stored seed a
    /// few ms apart (many users asking for the same popular
    /// measurement at once).
    Burst,
}

/// One scheduled submission.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    /// Seconds after the phase start.
    pub due_s: f64,
    pub seed: u64,
    pub kind: Kind,
}

/// Submissions in one burst.
pub const BURST_SIZE: usize = 3;
/// Gap between the submissions of one burst.
pub const BURST_GAP_S: f64 = 0.003;

/// What the stored and hot seeds of every serve-mix run derive from.
/// They are fixed because a job's cost depends on its seed and ~60% of
/// submissions ask for the stored seed: while they followed the
/// workload seed, two workload seeds run twice each differed by ~10% in
/// latency, the repeats by less. The workload seed drives the schedule
/// and the fresh seeds.
const SERVE_POOL: u64 = 1307;

/// The seeds a serve-mix run submits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeSeeds {
    /// The seed whose store the daemon reads through.
    pub stored: u64,
    /// The hot set, warmed in set-up.
    pub hot: Vec<u64>,
    /// The workload seed the fresh seeds derive from.
    fresh_root: u64,
}

impl ServeSeeds {
    pub fn new(seed: u64) -> Self {
        let mut set = seed_set(SERVE_POOL, "serve-mix", 5);
        let stored = set.remove(0);
        ServeSeeds {
            stored,
            hot: set,
            fresh_root: derive(seed, "serve-mix/fresh"),
        }
    }

    /// The `i`-th never-seen seed (distinct from the stored and hot
    /// seeds and from each other).
    pub fn fresh(&self, i: u64) -> u64 {
        let mut x = mix(self.fresh_root ^ i.wrapping_mul(0xA24B_AED4_963E_E407));
        loop {
            let s = pipeline_seed(x);
            if s != self.stored && !self.hot.contains(&s) {
                return s;
            }
            x = mix(x);
        }
    }
}

/// Length of the windows a phase's arrivals are spread over, s.
const STRATUM_S: f64 = 2.0;

/// The seeded schedule of one phase: `events` arrival events spread
/// over `seconds`. The phase is cut into windows of about
/// [`STRATUM_S`], each gets an even share of the events, and within a
/// window the events are a Poisson process conditioned on its count
/// (sorted uniform draws). The events' kinds are a deck with the mix's
/// exact shares — 1/2 stored, 1/3 hot, 1/10 fresh and the rest bursts
/// of the stored seed — so every run offers the same mix (the stored
/// seed is then ~60% of submissions, which keeps the median job inside
/// one class of job). The `j`-th of a kind's `n` events sits at a
/// seeded point of the `j`-th `n`-th of the phase, so each kind is
/// spread over the whole phase. Stratifying both keeps runs of
/// different seeds from differing much in how the heavy jobs bunch up,
/// which queueing turns into latency; the order and timing within a
/// window still vary with the seed. `fresh_next`
/// numbers the fresh seeds across phases so no seed is ever submitted
/// fresh twice.
pub fn schedule(
    rng: &mut Rng,
    seeds: &ServeSeeds,
    events: usize,
    seconds: f64,
    fresh_next: &mut u64,
) -> Vec<Arrival> {
    let windows = ((seconds / STRATUM_S).round() as usize).clamp(1, events.max(1));
    let width = seconds / windows as f64;
    let mut times = Vec::with_capacity(events);
    for w in 0..windows {
        let n = events * (w + 1) / windows - events * w / windows;
        let mut within: Vec<f64> = (0..n).map(|_| (w as f64 + rng.unit()) * width).collect();
        within.sort_by(f64::total_cmp);
        times.extend(within);
    }
    let share = |d: usize| (events as f64 / d as f64).round() as usize;
    let (stored, hot, fresh) = (share(2), share(3), share(10));
    let mut deck: Vec<(f64, Kind)> = Vec::with_capacity(events);
    for (kind, n) in [
        (Kind::Stored, stored),
        (Kind::Hot, hot),
        (Kind::Fresh, fresh),
        (Kind::Burst, events.saturating_sub(stored + hot + fresh)),
    ] {
        for j in 0..n {
            deck.push(((j as f64 + rng.unit()) / n as f64, kind));
        }
    }
    deck.sort_by(|a, b| a.0.total_cmp(&b.0));
    deck.truncate(events);
    let deck = deck.into_iter().map(|(_, kind)| kind);
    let mut out = Vec::with_capacity(events + events / 8);
    for (due_s, kind) in times.into_iter().zip(deck) {
        match kind {
            Kind::Stored => out.push(Arrival {
                due_s,
                seed: seeds.stored,
                kind,
            }),
            Kind::Hot => out.push(Arrival {
                due_s,
                seed: seeds.hot[rng.below(seeds.hot.len())],
                kind,
            }),
            Kind::Fresh => {
                out.push(Arrival {
                    due_s,
                    seed: seeds.fresh(*fresh_next),
                    kind,
                });
                *fresh_next += 1;
            }
            Kind::Burst => {
                for k in 0..BURST_SIZE {
                    out.push(Arrival {
                        due_s: due_s + k as f64 * BURST_GAP_S,
                        seed: seeds.stored,
                        kind,
                    });
                }
            }
        }
    }
    out.sort_by(|a, b| a.due_s.total_cmp(&b.due_s));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn phase_plan(seed: u64) -> Vec<Arrival> {
        let seeds = ServeSeeds::new(seed);
        let mut rng = Rng::new(derive(seed, "schedule"));
        let mut fresh = 0;
        schedule(&mut rng, &seeds, 400, 60.0, &mut fresh)
    }

    #[test]
    fn same_workload_seed_same_inputs() {
        assert_eq!(seed_set(7, "measure", 3), seed_set(7, "measure", 3));
        assert_eq!(ServeSeeds::new(7), ServeSeeds::new(7));
        assert_eq!(phase_plan(7), phase_plan(7));
        assert_ne!(seed_set(7, "measure", 3), seed_set(8, "measure", 3));
        assert_ne!(phase_plan(7), phase_plan(8));
        assert_ne!(seed_set(7, "measure", 3), seed_set(7, "reanalyze", 3));
    }

    #[test]
    fn seed_sets_are_distinct() {
        let set = seed_set(1, "x", 8);
        let mut dedup = set.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 8);
        assert!(set.iter().all(|s| *s < 1 << 31));
    }

    #[test]
    fn schedule_is_sorted_within_the_phase_and_follows_the_mix() {
        let plan = phase_plan(11);
        assert!(plan.windows(2).all(|w| w[0].due_s <= w[1].due_s));
        assert!(plan.iter().all(|a| a.due_s >= 0.0 && a.due_s < 60.0 + 0.01));
        let count = |k: Kind| plan.iter().filter(|a| a.kind == k).count();
        assert_eq!(count(Kind::Stored), 200);
        assert_eq!(count(Kind::Hot), 133);
        assert_eq!(count(Kind::Fresh), 40);
        assert_eq!(count(Kind::Burst), 27 * BURST_SIZE);
        let seeds = ServeSeeds::new(11);
        let fresh: Vec<u64> = plan
            .iter()
            .filter(|a| a.kind == Kind::Fresh)
            .map(|a| a.seed)
            .collect();
        let mut dedup = fresh.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), fresh.len(), "fresh seeds never repeat");
        assert!(fresh
            .iter()
            .all(|s| *s != seeds.stored && !seeds.hot.contains(s)));
    }
}
