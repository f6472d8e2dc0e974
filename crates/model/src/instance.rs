//! A complete ISE problem instance.

use crate::error::ModelError;
use crate::job::{Job, JobId};
use crate::time::{Dur, Time};
use serde::{Deserialize, Serialize};

/// An ISE problem instance: a set of jobs, a number of identical machines
/// `m`, and a calibration length `T`. In standard scheduling notation this is
/// `P | r_j, d_j | #calibrations`.
///
/// Invariants (enforced by [`Instance::new`] / [`InstanceBuilder`], and so
/// by deserialization, which goes through the builder):
/// * `T > 0`, `0 < m <= MAX_MACHINES`;
/// * for every job: `p_j > 0`, `p_j <= T`, and `r_j + p_j <= d_j`;
/// * job ids equal their index in [`Instance::jobs`];
/// * every time value lies within [`MAX_INSTANCE_TICKS`](crate::MAX_INSTANCE_TICKS).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
#[serde(try_from = "InstanceRepr")]
pub struct Instance {
    jobs: Vec<Job>,
    machines: usize,
    calib_len: Dur,
}

/// The wire form of an [`Instance`], before validation.
#[derive(Deserialize)]
struct InstanceRepr {
    jobs: Vec<Job>,
    machines: usize,
    calib_len: Dur,
}

impl TryFrom<InstanceRepr> for Instance {
    type Error = ModelError;

    /// Rebuild through [`InstanceBuilder`], so a deserialized instance
    /// meets the same invariants as a constructed one.
    fn try_from(repr: InstanceRepr) -> Result<Instance, ModelError> {
        let mut b = InstanceBuilder::new(repr.machines, repr.calib_len.ticks());
        for (position, job) in repr.jobs.iter().enumerate() {
            if job.id.index() != position {
                return Err(ModelError::JobIdMismatch {
                    position,
                    id: job.id.0,
                });
            }
            b.push(job.release.ticks(), job.deadline.ticks(), job.proc.ticks());
        }
        b.build()
    }
}

impl Instance {
    /// Build an instance from `(release, deadline, proc)` triples.
    ///
    /// ```
    /// use ise_model::Instance;
    /// // Two jobs, one machine, calibration length T = 10.
    /// let inst = Instance::new([(0, 30, 4), (5, 40, 7)], 1, 10).unwrap();
    /// assert_eq!(inst.len(), 2);
    /// assert_eq!(inst.total_work().ticks(), 11);
    /// // Ill-formed inputs are rejected, not clamped:
    /// assert!(Instance::new([(0, 5, 6)], 1, 10).is_err()); // window < proc
    /// ```
    pub fn new(
        triples: impl IntoIterator<Item = (i64, i64, i64)>,
        machines: usize,
        calib_len: i64,
    ) -> Result<Instance, ModelError> {
        let mut b = InstanceBuilder::new(machines, calib_len);
        for (r, d, p) in triples {
            b.push(r, d, p);
        }
        b.build()
    }

    /// The jobs, indexed by [`JobId`].
    #[inline]
    pub fn jobs(&self) -> &[Job] {
        &self.jobs
    }

    /// Look up a job by id. Ids equal indices for instances straight from
    /// the builder; restricted sub-instances ([`Instance::restrict`]) keep
    /// their parent's (sparse) ids, so a fallback scan covers that case.
    /// Panics if the id is not present.
    #[inline]
    pub fn job(&self, id: JobId) -> &Job {
        if let Some(j) = self.jobs.get(id.index()) {
            if j.id == id {
                return j;
            }
        }
        self.jobs
            .iter()
            .find(|j| j.id == id)
            .expect("job id present in instance")
    }

    /// Look up a job by id, returning `None` for unknown ids.
    pub fn find_job(&self, id: JobId) -> Option<&Job> {
        if let Some(j) = self.jobs.get(id.index()) {
            if j.id == id {
                return Some(j);
            }
        }
        self.jobs.iter().find(|j| j.id == id)
    }

    /// Number of jobs `n`.
    #[inline]
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// True if the instance has no jobs.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Number of machines `m`.
    #[inline]
    pub fn machines(&self) -> usize {
        self.machines
    }

    /// Calibration length `T`.
    #[inline]
    pub fn calib_len(&self) -> Dur {
        self.calib_len
    }

    /// Earliest release time, or `Time::ZERO` for an empty instance.
    pub fn min_release(&self) -> Time {
        self.jobs
            .iter()
            .map(|j| j.release)
            .min()
            .unwrap_or(Time::ZERO)
    }

    /// Latest deadline, or `Time::ZERO` for an empty instance.
    pub fn max_deadline(&self) -> Time {
        self.jobs
            .iter()
            .map(|j| j.deadline)
            .max()
            .unwrap_or(Time::ZERO)
    }

    /// Total processing time of all jobs.
    pub fn total_work(&self) -> Dur {
        self.jobs.iter().map(|j| j.proc).sum()
    }

    /// Partition into (long-window, short-window) jobs per Definition 1 of
    /// the paper: long iff `d_j - r_j >= 2T`.
    pub fn partition_long_short(&self) -> (Vec<Job>, Vec<Job>) {
        self.jobs
            .iter()
            .copied()
            .partition(|j| j.is_long(self.calib_len))
    }

    /// True if every job is long-window.
    pub fn all_long(&self) -> bool {
        self.jobs.iter().all(|j| j.is_long(self.calib_len))
    }

    /// True if every job is short-window.
    pub fn all_short(&self) -> bool {
        self.jobs.iter().all(|j| j.is_short(self.calib_len))
    }

    /// True if every job has unit processing time (the special case covered
    /// by Bender et al. 2013).
    pub fn all_unit(&self) -> bool {
        self.jobs.iter().all(|j| j.proc == Dur(1))
    }

    /// A copy of this instance with a different machine count. Used by the
    /// algorithms when granting machine augmentation (e.g. `m' = 3m`).
    pub fn with_machines(&self, machines: usize) -> Instance {
        assert!(machines > 0);
        Instance {
            jobs: self.jobs.clone(),
            machines,
            calib_len: self.calib_len,
        }
    }

    /// A new instance over a subset of this instance's jobs, preserving
    /// their original ids. Used when splitting into long/short sub-problems
    /// and when slicing time intervals (Algorithm 4).
    pub fn restrict(&self, jobs: Vec<Job>, machines: usize) -> Instance {
        assert!(machines > 0);
        debug_assert!(
            jobs.iter().all(|j| self.jobs.contains(j)),
            "restrict: jobs must come from this instance"
        );
        Instance {
            jobs,
            machines,
            calib_len: self.calib_len,
        }
    }

    /// Trivial per-instance lower bound on the number of calibrations: every
    /// calibration supplies at most `T` units of work, so at least
    /// `ceil(total_work / T)` calibrations are needed (and at least 1 if any
    /// job exists).
    pub fn work_lower_bound(&self) -> u64 {
        if self.jobs.is_empty() {
            return 0;
        }
        (self.total_work().div_ceil(self.calib_len) as u64).max(1)
    }
}

/// Largest machine count a validated instance may have. The pipeline
/// multiplies `m` by small constants: the long-window LP runs on `3·m`
/// machines (Lemma 2), Theorem 12 bounds its schedule by `18·m`, and
/// Theorem 14 trades `c·m` machines for speed `2c` with `c = 18`. The
/// same factor 36 that bounds [`MAX_INSTANCE_TICKS`](crate::MAX_INSTANCE_TICKS)
/// keeps every such multiple inside `usize`.
pub const MAX_MACHINES: usize = usize::MAX / 36;

/// Fallible builder for [`Instance`].
#[derive(Clone, Debug)]
pub struct InstanceBuilder {
    jobs: Vec<(i64, i64, i64)>,
    machines: usize,
    calib_len: i64,
}

impl InstanceBuilder {
    /// Start a builder with `m` machines and calibration length `T`.
    pub fn new(machines: usize, calib_len: i64) -> InstanceBuilder {
        InstanceBuilder {
            jobs: Vec::new(),
            machines,
            calib_len,
        }
    }

    /// Add a job with release `r`, deadline `d`, and processing time `p`.
    pub fn push(&mut self, release: i64, deadline: i64, proc: i64) -> &mut Self {
        self.jobs.push((release, deadline, proc));
        self
    }

    /// Validate and build the instance.
    pub fn build(&self) -> Result<Instance, ModelError> {
        if self.calib_len <= 0 {
            return Err(ModelError::NonPositiveCalibrationLength {
                calib_len: self.calib_len,
            });
        }
        if self.machines == 0 {
            return Err(ModelError::NoMachines);
        }
        if self.machines > MAX_MACHINES {
            return Err(ModelError::TooManyMachines {
                machines: self.machines,
            });
        }
        // Magnitude validation runs before any arithmetic on the inputs:
        // it both guards the `r + p > d` check below against wrapping and
        // guarantees every validated instance survives the Lemma 13
        // speed-36 refinement without overflowing i64.
        let in_range =
            |v: i64| (-crate::MAX_INSTANCE_TICKS..=crate::MAX_INSTANCE_TICKS).contains(&v);
        if !in_range(self.calib_len) {
            return Err(ModelError::HorizonOverflow {
                job: None,
                ticks: self.calib_len,
            });
        }
        let mut jobs = Vec::with_capacity(self.jobs.len());
        for (i, &(r, d, p)) in self.jobs.iter().enumerate() {
            for v in [r, d, p] {
                if !in_range(v) {
                    return Err(ModelError::HorizonOverflow {
                        job: Some(i),
                        ticks: v,
                    });
                }
            }
            if p <= 0 {
                return Err(ModelError::NonPositiveProcessingTime { job: i });
            }
            if p > self.calib_len {
                return Err(ModelError::ProcessingTimeExceedsCalibration {
                    job: i,
                    proc: p,
                    calib_len: self.calib_len,
                });
            }
            if r + p > d {
                return Err(ModelError::WindowTooSmall { job: i });
            }
            jobs.push(Job {
                id: JobId(i as u32),
                release: Time(r),
                deadline: Time(d),
                proc: Dur(p),
            });
        }
        Ok(Instance {
            jobs,
            machines: self.machines,
            calib_len: Dur(self.calib_len),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_valid_instance() {
        let inst = Instance::new([(0, 20, 5), (3, 40, 10)], 2, 10).unwrap();
        assert_eq!(inst.len(), 2);
        assert_eq!(inst.machines(), 2);
        assert_eq!(inst.calib_len(), Dur(10));
        assert_eq!(inst.job(JobId(1)).proc, Dur(10));
        assert_eq!(inst.total_work(), Dur(15));
        assert_eq!(inst.min_release(), Time(0));
        assert_eq!(inst.max_deadline(), Time(40));
    }

    #[test]
    fn rejects_bad_inputs() {
        assert_eq!(
            Instance::new([(0, 20, 5)], 0, 10).unwrap_err(),
            ModelError::NoMachines
        );
        assert_eq!(
            Instance::new([(0, 20, 5)], 1, 0).unwrap_err(),
            ModelError::NonPositiveCalibrationLength { calib_len: 0 }
        );
        assert!(matches!(
            Instance::new([(0, 20, 11)], 1, 10).unwrap_err(),
            ModelError::ProcessingTimeExceedsCalibration { job: 0, .. }
        ));
        assert!(matches!(
            Instance::new([(0, 4, 5)], 1, 10).unwrap_err(),
            ModelError::WindowTooSmall { job: 0 }
        ));
        assert!(matches!(
            Instance::new([(0, 4, 0)], 1, 10).unwrap_err(),
            ModelError::NonPositiveProcessingTime { job: 0 }
        ));
    }

    #[test]
    fn rejects_times_beyond_the_representable_horizon() {
        // Pre-validation, `r + p > d` wrapped in release for inputs near
        // i64::MAX; now every out-of-range magnitude is rejected before
        // any arithmetic runs.
        let big = crate::MAX_INSTANCE_TICKS + 1;
        assert_eq!(
            Instance::new([(0, big, 5)], 1, 10).unwrap_err(),
            ModelError::HorizonOverflow {
                job: Some(0),
                ticks: big
            }
        );
        assert_eq!(
            Instance::new([(-big, 20, 5)], 1, 10).unwrap_err(),
            ModelError::HorizonOverflow {
                job: Some(0),
                ticks: -big
            }
        );
        assert_eq!(
            Instance::new([(0, 20, 5)], 1, big).unwrap_err(),
            ModelError::HorizonOverflow {
                job: None,
                ticks: big
            }
        );
        // The classic wrap witness: r near i64::MAX makes the window check
        // `r + p > d` overflow without the magnitude guard.
        assert!(matches!(
            Instance::new([(i64::MAX - 2, i64::MAX - 1, 5)], 1, 10).unwrap_err(),
            ModelError::HorizonOverflow { job: Some(0), .. }
        ));
        // The boundary itself is legal.
        let edge = crate::MAX_INSTANCE_TICKS;
        assert!(Instance::new([(edge - 10, edge, 5)], 1, 10).is_ok());
    }

    #[test]
    fn partitions_by_window_length() {
        // T = 10: long needs window >= 20.
        let inst = Instance::new([(0, 20, 5), (0, 19, 5), (5, 26, 3)], 1, 10).unwrap();
        let (long, short) = inst.partition_long_short();
        assert_eq!(long.iter().map(|j| j.id.0).collect::<Vec<_>>(), vec![0, 2]);
        assert_eq!(short.iter().map(|j| j.id.0).collect::<Vec<_>>(), vec![1]);
        assert!(!inst.all_long());
        assert!(!inst.all_short());
    }

    #[test]
    fn work_lower_bound_rounds_up() {
        let inst = Instance::new([(0, 40, 7), (0, 40, 7), (0, 40, 7)], 1, 10).unwrap();
        // 21 units of work / T=10 => at least 3 calibrations.
        assert_eq!(inst.work_lower_bound(), 3);
        let single = Instance::new([(0, 40, 1)], 1, 10).unwrap();
        assert_eq!(single.work_lower_bound(), 1);
    }

    #[test]
    fn serde_round_trip() {
        let inst = Instance::new([(0, 20, 5), (3, 40, 10)], 2, 10).unwrap();
        let json = serde_json::to_string(&inst).unwrap();
        let back: Instance = serde_json::from_str(&json).unwrap();
        assert_eq!(inst, back);
    }

    /// Deserialize an instance with one job `(id, r, d, p)`, `m` machines
    /// and calibration length `t`.
    fn parse_one(id: u32, (r, d, p): (i64, i64, i64), m: i64, t: i64) -> Result<Instance, String> {
        let json = format!(
            "{{\"jobs\": [{{\"id\": {id}, \"release\": {r}, \"deadline\": {d}, \"proc\": {p}}}], \
             \"machines\": {m}, \"calib_len\": {t}}}"
        );
        serde_json::from_str(&json).map_err(|e| e.to_string())
    }

    #[test]
    fn deserialize_rejects_non_positive_calibration_length() {
        for t in [0, -10] {
            let err = parse_one(0, (0, 30, 4), 1, t).unwrap_err();
            assert!(
                err.contains("calibration length T must be positive"),
                "{err}"
            );
        }
    }

    #[test]
    fn deserialize_rejects_zero_machines() {
        let err = parse_one(0, (0, 30, 4), 0, 10).unwrap_err();
        assert!(err.contains("at least one machine"), "{err}");
    }

    #[test]
    fn deserialize_rejects_machine_counts_beyond_the_bound() {
        // 3 * 6148914691236517206 wraps to 2 in usize arithmetic.
        let bound = crate::MAX_MACHINES as i64;
        for m in [bound + 1, 6_148_914_691_236_517_206] {
            let err = parse_one(0, (0, 30, 4), m, 10).unwrap_err();
            assert!(err.contains("exceeds the supported maximum"), "{err}");
        }
        let inst = parse_one(0, (0, 30, 4), bound, 10).unwrap();
        assert_eq!(inst.machines(), crate::MAX_MACHINES);
        assert!(3 * inst.machines() > inst.machines());
    }

    #[test]
    fn deserialize_rejects_non_positive_processing_time() {
        let err = parse_one(0, (0, 30, 0), 1, 10).unwrap_err();
        assert!(err.contains("processing time must be positive"), "{err}");
    }

    #[test]
    fn deserialize_rejects_processing_time_above_calibration_length() {
        let err = parse_one(0, (0, 30, 15), 1, 10).unwrap_err();
        assert!(err.contains("exceeds calibration length 10"), "{err}");
    }

    #[test]
    fn deserialize_rejects_a_window_too_small_for_the_job() {
        let err = parse_one(0, (0, 5, 8), 1, 10).unwrap_err();
        assert!(err.contains("window cannot fit processing time"), "{err}");
    }

    #[test]
    fn deserialize_rejects_ids_that_differ_from_positions() {
        let err = parse_one(5, (0, 30, 4), 1, 10).unwrap_err();
        assert!(err.contains("position 0 has id 5"), "{err}");
    }

    #[test]
    fn deserialize_rejects_times_beyond_the_tick_bound() {
        let big = crate::MAX_INSTANCE_TICKS + 1;
        let err = parse_one(0, (0, big, 4), 1, 10).unwrap_err();
        assert!(err.contains("exceeds the representable horizon"), "{err}");
    }

    #[test]
    fn restrict_preserves_ids() {
        let inst = Instance::new([(0, 20, 5), (3, 40, 10), (0, 25, 2)], 2, 10).unwrap();
        let sub = inst.restrict(vec![*inst.job(JobId(2)), *inst.job(JobId(0))], 1);
        assert_eq!(sub.len(), 2);
        assert_eq!(sub.jobs()[0].id, JobId(2));
        assert_eq!(sub.machines(), 1);
    }
}
