//! Workload inputs, generated from `--seed` with the repository's pinned
//! generators: the `perf::suite` specs behind `BENCH_lp.json` and the
//! `session_mixed` spec behind `BENCH_session.json`. Only the generator
//! seed varies; shapes (job count, machines, `T`, horizon) stay pinned.

use ise_bench::perf::{suite, WorkloadSpec};
use ise_bench::session::{session_spec, SessionSpec};
use ise_model::Instance;
use ise_workloads::{short_only, WorkloadParams};

/// Generator seed of the `index`-th instance of a pinned spec under
/// benchmark seed `seed`. Seed 0 is the pinned stream itself — index 0 is
/// the spec's own instance, so `--seed 0` starts from exactly the
/// `BENCH_*.json` inputs; any other seed scrambles the whole stream.
pub fn derive(pinned: u64, seed: u64, index: usize) -> u64 {
    let scramble = if seed == 0 {
        0
    } else {
        Rng::new(seed).next_u64()
    };
    pinned.wrapping_add(index as u64) ^ scramble
}

/// The `perf::suite` shapes `solve_long` cycles through. `long_wide`
/// (0.37–0.54 s per solve) and `ill_cond` (0.4–1.2 s) are left out: either
/// would take most of every run on its own.
pub const LONG_SHAPES: [&str; 4] = ["long_small", "long_medium", "mixed_uniform", "long_large"];

/// The `index`-th `solve_long` input: the four shapes in turn.
pub fn long_instance(seed: u64, index: usize) -> Instance {
    let spec = suite(false)
        .into_iter()
        .filter(|s| LONG_SHAPES.contains(&s.name.as_str()))
        .nth(index % LONG_SHAPES.len())
        .expect("perf::suite keeps every LONG_SHAPES spec");
    WorkloadSpec {
        seed: derive(spec.seed, seed, index / LONG_SHAPES.len()),
        ..spec
    }
    .instance()
    .expect("pinned suite families generate")
}

/// `solve_short` shape: only short-window jobs, 2400 of them on 4 machines
/// over 15000 ticks. The density is what keeps the exact MM search tame:
/// at 240 jobs per 300 ticks one instance in eight exhausts the 2M-node
/// budget and solve times span 13–215 ms per instance; at 0.16 jobs per
/// tick the slowest of 2048 instances of a fifth of this size took 20x the
/// median. The size makes one solve take about 8 ms, so a few milliseconds
/// of stolen host time move a solve's latency by less than half; at a
/// fifth of the size a solve took under 2 ms and such a stall tripled it.
pub const SHORT: WorkloadParams = WorkloadParams {
    jobs: 2400,
    machines: 4,
    calib_len: 10,
    horizon: 15000,
};
const SHORT_PINNED_SEED: u64 = 41;

/// The `index`-th `solve_short` input.
pub fn short_instance(seed: u64, index: usize) -> Instance {
    short_only(&SHORT, derive(SHORT_PINNED_SEED, seed, index))
}

/// The `index`-th `session_mixed` base instance (and its pinned delta log
/// via [`SessionSpec::delta_log`]).
pub fn session_base(seed: u64, index: usize) -> SessionSpec {
    let pinned = session_spec();
    SessionSpec {
        seed: derive(pinned.seed, seed, index),
        ..pinned
    }
}

/// Small short-window requests mixed into `serve_mixed`.
pub const SERVE_SHORT: WorkloadParams = WorkloadParams {
    jobs: 100,
    machines: 2,
    calib_len: 10,
    horizon: 600,
};

/// Tiny splitmix64 stream for the request mix and arrival times.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5EED_BEAC_0FF1_CE00)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_zero_starts_from_the_pinned_instances() {
        let pinned = suite(false)
            .into_iter()
            .filter(|s| LONG_SHAPES.contains(&s.name.as_str()));
        for (i, spec) in pinned.enumerate() {
            assert_eq!(long_instance(0, i), spec.instance().unwrap());
        }
        assert_eq!(session_base(0, 0), session_spec());
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        assert_eq!(long_instance(3, 5), long_instance(3, 5));
        assert_ne!(long_instance(3, 5), long_instance(4, 5));
        assert_eq!(short_instance(3, 2), short_instance(3, 2));
        assert_ne!(short_instance(3, 2), short_instance(3, 3));
        assert_ne!(session_base(3, 0).instance(), session_base(4, 0).instance());
    }
}
