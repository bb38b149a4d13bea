//! Workload definitions and the seeded generator. Rates, sizes and mixes
//! are constants of the benchmark: they are never scaled to the host, so
//! a parent commit and a change are always compared at the same offered
//! load. The program under test receives only the generated operations.

use twe_apps::kmeans::KMeansConfig;

/// SplitMix64: the benchmark's only source of randomness.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Zipf sampler over ranks `0..n`: rank `r` has weight `1 / (r + 1)^s`.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let weights: Vec<f64> = (1..=n).map(|r| (r as f64).powf(-s)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        let u = rng.next_f64();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// What a request does to the keyed store.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `reads T:Key:[j]`
    Read,
    /// `writes T:Key:[j]`
    Write,
    /// `reads T:*`
    Scan,
}

/// One generated request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Op {
    /// Nanoseconds after the start of the measured phase at which an
    /// open-loop request is due (`0` for warm-up and closed-loop requests).
    pub due_ns: u64,
    pub kind: Kind,
    /// `tenant * keys + key`; a scan names its tenant through it.
    pub key: u16,
}

/// How the driver offers load.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Loop {
    /// Poisson arrivals (a fixed number of them, at uniform instants) of
    /// bursts of `burst` requests sharing one due time, `rate` requests
    /// per second in total.
    Open { rate: f64, burst: usize },
    /// Waves of `wave` requests, as fast as admission lets the driver go.
    Closed { wave: usize },
}

/// Request mix in percent (sums to 100).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Mix {
    pub read: u32,
    pub write: u32,
    pub scan: u32,
}

/// A keyed-store service workload.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SvcSpec {
    pub name: &'static str,
    pub tenants: usize,
    pub keys: usize,
    pub mix: Mix,
    /// Zipf exponent over tenants and keys; `None` is uniform.
    pub zipf: Option<f64>,
    pub looping: Loop,
    /// Replace one tenant (round robin) after every this many requests.
    pub retire_every: Option<usize>,
    /// `BoundedBlock` depth cap; `None` is the unbounded policy.
    pub max_queued: Option<usize>,
}

/// Requests issued, untimed, before a closed-loop measured phase. Open-loop
/// workloads warm up on the first 5 % of their schedule instead.
pub const WARMUP_CLOSED: usize = 16_384;
/// While this many requests are in flight, the warm-up and the open-loop
/// driver hold back the next wave (its due times stand, so the wait is
/// charged to its requests). Both schedulers slow down with the square of a
/// conflicting backlog — `svc-contended`'s mix completes 81 000 req/s with
/// 128 in flight, 9 000 with 512, 3 000 with 1 024, 700 with 4 096 — so
/// without the cap one 100 ms stall of the host leaves an open loop with a
/// backlog it can never work off.
pub const IN_FLIGHT_CAP: usize = 128;
/// Most requests one `submit_all` wave carries.
pub const MAX_WAVE: usize = 64;
/// Closed-loop requests cycle through a pool of this many generated ops.
pub const CLOSED_POOL: usize = 1 << 18;

pub const SVC_DISJOINT: SvcSpec = SvcSpec {
    name: "svc-disjoint",
    tenants: 16,
    keys: 1024,
    mix: Mix {
        read: 90,
        write: 10,
        scan: 0,
    },
    zipf: None,
    looping: Loop::Open {
        rate: 20_000.0,
        burst: 1,
    },
    retire_every: None,
    max_queued: None,
};

pub const SVC_CONTENDED: SvcSpec = SvcSpec {
    name: "svc-contended",
    tenants: 4,
    keys: 64,
    mix: Mix {
        read: 60,
        write: 30,
        scan: 10,
    },
    zipf: Some(1.1),
    looping: Loop::Open {
        rate: 12_800.0,
        burst: 64,
    },
    retire_every: None,
    max_queued: None,
};

pub const SVC_CHURN: SvcSpec = SvcSpec {
    name: "svc-churn",
    tenants: 8,
    keys: 64,
    mix: Mix {
        read: 90,
        write: 9,
        scan: 1,
    },
    zipf: None,
    looping: Loop::Open {
        rate: 20_000.0,
        burst: 1,
    },
    retire_every: Some(100),
    max_queued: None,
};

pub const SVC_CAPACITY: SvcSpec = SvcSpec {
    name: "svc-capacity",
    tenants: 16,
    keys: 1024,
    mix: Mix {
        read: 90,
        write: 9,
        scan: 1,
    },
    zipf: None,
    looping: Loop::Closed { wave: 64 },
    retire_every: None,
    max_queued: Some(1024),
};

pub const KMEANS_BATCH: &str = "kmeans-batch";

/// The five workloads, in the order `--workload all` runs them.
pub const WORKLOADS: [&str; 5] = [
    SVC_DISJOINT.name,
    SVC_CONTENDED.name,
    SVC_CHURN.name,
    SVC_CAPACITY.name,
    KMEANS_BATCH,
];

impl SvcSpec {
    /// The tenant slot replaced just before request `seq` is built, if any:
    /// one per `retire_every` requests, round robin.
    pub fn retires_before(&self, seq: u64) -> Option<usize> {
        let every = self.retire_every? as u64;
        (seq > 0 && seq % every == 0).then(|| ((seq / every - 1) % self.tenants as u64) as usize)
    }
}

pub fn svc_spec(name: &str) -> Option<SvcSpec> {
    [SVC_DISJOINT, SVC_CONTENDED, SVC_CHURN, SVC_CAPACITY]
        .into_iter()
        .find(|s| s.name == name)
}

/// The Fig. 6.3 shape — one `reads Root` WorkTask per point, each running a
/// nested `reads Root, writes Clusters:[k]` accumulate — at 50 points per
/// cluster. 2 000 points, not the 20 000 first planned: the tree
/// scheduler's time per job grows with the square of the point count
/// (0.07 s at 1 000, 0.34 s at 2 000, 1.7 s at 4 000, 6.9 s at 8 000 on the
/// 2-CPU reference host) and from 8 000 points a worker overflows its
/// stack running nested `execute` calls.
pub fn kmeans_config(seed: u64) -> KMeansConfig {
    KMeansConfig {
        n_points: 2_000,
        n_clusters: 40,
        n_features: 8,
        seed,
        points_per_task: 1,
    }
}

/// The generated request sequence of one service run.
pub struct SvcTrace {
    pub ops: Vec<Op>,
    /// The first `warmup` ops are issued untimed; statistics start after.
    pub warmup: usize,
}

/// Generates the requests of `spec` for a measured phase of `seconds`.
/// Same seed, same trace.
pub fn generate_svc(spec: &SvcSpec, seed: u64, seconds: f64) -> SvcTrace {
    assert_eq!(spec.mix.read + spec.mix.write + spec.mix.scan, 100);
    assert!(spec.tenants * spec.keys <= usize::from(u16::MAX));
    let mut rng = SplitMix64::new(seed);
    let zipf = spec
        .zipf
        .map(|s| (Zipf::new(spec.tenants, s), Zipf::new(spec.keys, s)));
    let next_op = |rng: &mut SplitMix64, due_ns: u64| -> Op {
        let roll = rng.below(100) as u32;
        let (tenant, key) = match &zipf {
            Some((tenants, keys)) => (tenants.sample(rng), keys.sample(rng)),
            None => (rng.below(spec.tenants), rng.below(spec.keys)),
        };
        let kind = if roll < spec.mix.read {
            Kind::Read
        } else if roll < spec.mix.read + spec.mix.write {
            Kind::Write
        } else {
            Kind::Scan
        };
        Op {
            due_ns,
            kind,
            key: (tenant * spec.keys + key) as u16,
        }
    };

    match spec.looping {
        Loop::Closed { .. } => SvcTrace {
            ops: (0..CLOSED_POOL).map(|_| next_op(&mut rng, 0)).collect(),
            warmup: WARMUP_CLOSED,
        },
        Loop::Open { rate, burst } => {
            // Poisson arrivals conditioned on their number: exactly
            // `rate x seconds` requests at independent uniform instants, so
            // the offered load is the stated rate on every seed. One stream
            // covers warm-up and measured phase: the first 5 % of it (by
            // time) is the warm-up, whose due times are dropped.
            let warmup_ns = seconds * 0.05 * 1e9;
            let end_ns = warmup_ns + seconds * 1e9;
            let bursts = (rate * seconds * 1.05 / burst as f64).round() as usize;
            let mut arrivals: Vec<f64> = (0..bursts).map(|_| rng.next_f64() * end_ns).collect();
            arrivals.sort_by(f64::total_cmp);
            let mut ops = Vec::with_capacity(bursts * burst);
            let mut warmup = 0;
            for at in arrivals {
                let due_ns = if at < warmup_ns {
                    0
                } else {
                    (at - warmup_ns) as u64
                };
                for _ in 0..burst {
                    ops.push(next_op(&mut rng, due_ns));
                }
                if at < warmup_ns {
                    warmup = ops.len();
                }
            }
            SvcTrace { ops, warmup }
        }
    }
}

/// FNV-1a over a byte stream: the fingerprint of a generated trace.
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    pub fn finish(&self) -> u64 {
        self.0
    }
}

pub fn hash_svc(trace: &SvcTrace) -> u64 {
    let mut h = Fnv::new();
    for op in &trace.ops {
        h.write(&op.due_ns.to_le_bytes());
        h.write(&[op.kind as u8]);
        h.write(&op.key.to_le_bytes());
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_trace_and_another_seed_another_trace() {
        for spec in [SVC_DISJOINT, SVC_CONTENDED, SVC_CHURN, SVC_CAPACITY] {
            let a = hash_svc(&generate_svc(&spec, 11, 0.2));
            let b = hash_svc(&generate_svc(&spec, 11, 0.2));
            let c = hash_svc(&generate_svc(&spec, 12, 0.2));
            assert_eq!(a, b, "{}", spec.name);
            assert_ne!(a, c, "{}", spec.name);
        }
    }

    #[test]
    fn open_loop_schedule_has_the_stated_rate_and_shape() {
        let trace = generate_svc(&SVC_CONTENDED, 3, 2.0);
        let measured = &trace.ops[trace.warmup..];
        let rate = measured.len() as f64 / 2.0;
        assert!((rate / 12_800.0 - 1.0).abs() < 0.15, "rate {rate}");
        assert!((trace.warmup as f64 / measured.len() as f64 - 0.05).abs() < 0.03);
        // Bursts of 64 share one due time, due times never go backwards.
        assert_eq!(measured.len() % 64, 0);
        for burst in measured.chunks(64) {
            assert!(burst.iter().all(|op| op.due_ns == burst[0].due_ns));
        }
        assert!(measured.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
        let share = |kind| {
            measured.iter().filter(|op| op.kind == kind).count() as f64 / measured.len() as f64
        };
        assert!((share(Kind::Read) - 0.6).abs() < 0.02 && (share(Kind::Scan) - 0.1).abs() < 0.02);
    }

    #[test]
    fn zipf_rank_frequency_is_sane() {
        let zipf = Zipf::new(64, 1.1);
        let mut rng = SplitMix64::new(5);
        let mut counts = [0u32; 64];
        let n = 200_000;
        for _ in 0..n {
            counts[zipf.sample(&mut rng)] += 1;
        }
        // Rank 0 holds its analytic share, and frequency falls with rank.
        let h: f64 = (1..=64).map(|r| (r as f64).powf(-1.1)).sum();
        let share0 = f64::from(counts[0]) / f64::from(n);
        assert!((share0 - 1.0 / h).abs() < 0.01, "rank-0 share {share0}");
        let ratio = f64::from(counts[0]) / f64::from(counts[1]);
        assert!(
            (ratio - 2f64.powf(1.1)).abs() < 0.15,
            "rank 0 : rank 1 = {ratio}"
        );
        assert!(counts[0] > counts[3] && counts[3] > counts[15] && counts[15] > counts[63]);
        assert!(counts.iter().all(|&c| c > 0));
    }
}
