//! Input generation. Every key, op kind and arrival time a run issues is
//! produced here from `--seed`, before any clock starts; the product sees
//! only these inputs.

use crate::spec::{Pacing, Role, Workload, CLIENTS, REPS, SCAN_LEN};

/// SplitMix64: small, seedable, and good enough for key choice.
pub struct Rng(u64);

impl Rng {
    /// A generator for `(seed, stream)`. Both pass through the output
    /// mix before they are combined: SplitMix64 steps its state by a
    /// constant, so states that differ by a small multiple of it would
    /// yield the same sequence a few steps apart.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let a = Rng(seed).next_u64();
        let b = Rng(!stream).next_u64();
        Rng(Rng(a ^ b.rotate_left(32)).next_u64())
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)` (multiply-shift; bias below 2^-32 for our `n`).
    pub fn below(&mut self, n: u32) -> u32 {
        (((self.next_u64() >> 32) * n as u64) >> 32) as u32
    }

    /// Uniform in `(0, 1]`.
    fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    /// Exponential inter-arrival gap in nanoseconds at `rate_hz`.
    fn gap_ns(&mut self, rate_hz: u32) -> u64 {
        (-self.unit().ln() / rate_hz as f64 * 1e9) as u64
    }
}

/// What an op does.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    Update,
    Get,
    Scan,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::Update, Kind::Get, Kind::Scan];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Update => "commit",
            Kind::Get => "get",
            Kind::Scan => "scan",
        }
    }
}

/// One pre-generated operation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Op {
    /// Scheduled send time from the start of the repetition (0 in a closed loop).
    pub due_ns: u64,
    pub kind: Kind,
    /// The key (first key of the range for a scan).
    pub key: u32,
}

/// Everything one run issues: `warmup[client]` and `reps[rep][client]`.
#[derive(PartialEq, Eq, Debug)]
pub struct Inputs {
    pub warmup: [Vec<Op>; CLIENTS],
    pub reps: Vec<[Vec<Op>; CLIENTS]>,
}

/// The keys client `c` draws from: `(first, count)`.
pub fn key_range(w: &Workload, c: usize) -> (u32, u32) {
    match w.roles[c] {
        Role::Writer => {
            let stripe = w.rows / CLIENTS as u32;
            (c as u32 * stripe, (stripe / w.hot_div).max(1))
        }
        Role::Reader | Role::SecondaryReader => (0, w.rows),
    }
}

fn draw(w: &Workload, c: usize, rng: &mut Rng, due_ns: u64) -> Op {
    let (first, count) = key_range(w, c);
    match w.roles[c] {
        Role::Writer => Op { due_ns, kind: Kind::Update, key: first + rng.below(count) },
        Role::Reader => Op { due_ns, kind: Kind::Get, key: first + rng.below(count) },
        Role::SecondaryReader => {
            // 90 % point reads, 10 % scans of SCAN_LEN consecutive keys.
            if rng.below(10) == 0 {
                Op { due_ns, kind: Kind::Scan, key: rng.below(count - SCAN_LEN) }
            } else {
                Op { due_ns, kind: Kind::Get, key: rng.below(count) }
            }
        }
    }
}

/// Generate a run's inputs. Same `(workload, seed, seconds)` ⇒ same inputs.
pub fn generate(w: &Workload, seed: u64, seconds: u64) -> Inputs {
    let stream = |rep: u64, c: usize| Rng::new(seed, (rep << 8) | c as u64);
    let warmup = std::array::from_fn(|c| {
        let mut rng = stream(0xFF, c);
        (0..w.warmup_ops).map(|_| draw(w, c, &mut rng, 0)).collect()
    });
    let reps = (0..REPS as u64)
        .map(|rep| {
            std::array::from_fn(|c| {
                let mut rng = stream(rep, c);
                match w.pacing {
                    Pacing::Closed { ops_per_s } => {
                        let n = (ops_per_s as u64 * seconds / REPS as u64).max(1);
                        (0..n).map(|_| draw(w, c, &mut rng, 0)).collect()
                    }
                    Pacing::Open { rate_hz } => {
                        let horizon = seconds * 1_000_000_000 / REPS as u64;
                        let mut ops = Vec::new();
                        let mut due = rng.gap_ns(rate_hz);
                        while due < horizon {
                            ops.push(draw(w, c, &mut rng, due));
                            due += rng.gap_ns(rate_hz);
                        }
                        ops
                    }
                }
            })
        })
        .collect();
    Inputs { warmup, reps }
}

/// FNV-1a over the measured op sequences, printed with every run so two
/// runs can be shown to have issued the same inputs.
pub fn fingerprint(inputs: &Inputs) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x100_0000_01B3);
        }
    };
    for rep in &inputs.reps {
        for ops in rep {
            for op in ops {
                eat(op.due_ns);
                eat(op.kind as u64);
                eat(op.key as u64);
            }
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WORKLOADS;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        for w in &WORKLOADS {
            let a = generate(w, 7, 2);
            assert_eq!(a, generate(w, 7, 2), "{}", w.name);
            assert_eq!(fingerprint(&a), fingerprint(&generate(w, 7, 2)));
            assert_ne!(fingerprint(&a), fingerprint(&generate(w, 8, 2)), "{}", w.name);
        }
    }

    #[test]
    fn the_two_clients_do_not_issue_shifted_copies_of_one_sequence() {
        let w = crate::spec::workload("read_remote").unwrap();
        for seed in 0..64 {
            let inputs = generate(w, seed, 1);
            let [a, b] = &inputs.reps[0];
            for shift in 0..8 {
                let same = a.iter().skip(shift).zip(b).filter(|(x, y)| x.key == y.key).count();
                let same_back = b.iter().skip(shift).zip(a).filter(|(x, y)| x.key == y.key).count();
                assert!(same.max(same_back) < 10, "seed {seed}: shift {shift} matches {same} keys");
            }
        }
    }

    #[test]
    fn keys_stay_in_their_range_and_writers_are_disjoint() {
        for w in &WORKLOADS {
            let inputs = generate(w, 3, 2);
            for rep in &inputs.reps {
                for (c, ops) in rep.iter().enumerate() {
                    let (first, count) = key_range(w, c);
                    for op in ops {
                        let span = if op.kind == Kind::Scan { SCAN_LEN } else { 1 };
                        assert!(op.key >= first && op.key + span <= first + count);
                    }
                }
            }
            if w.roles == [Role::Writer, Role::Writer] {
                let (a, n) = key_range(w, 0);
                assert!(a + n <= key_range(w, 1).0);
            }
        }
    }

    #[test]
    fn poisson_schedule_is_increasing_and_near_its_rate() {
        let w = crate::spec::workload("mixed_open").unwrap();
        let inputs = generate(w, 1, 20);
        for c in 0..CLIENTS {
            let total: usize = inputs.reps.iter().map(|rep| rep[c].len()).sum();
            assert!((1700..2300).contains(&total), "{total} ops in 20 s at 100 Hz");
            for rep in &inputs.reps {
                assert!(rep[c].windows(2).all(|p| p[0].due_ns <= p[1].due_ns));
                assert!(rep[c].iter().all(|op| op.due_ns < 20_000_000_000 / REPS as u64));
            }
        }
    }
}
