//! Error type shared by model construction.

use std::fmt;

/// Errors raised when constructing an [`crate::Instance`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ModelError {
    /// The calibration length `T` must be positive.
    NonPositiveCalibrationLength {
        /// The offending value.
        calib_len: i64,
    },
    /// The machine count `m` must be positive.
    NoMachines,
    /// A job's processing time must be positive.
    NonPositiveProcessingTime {
        /// Offending job index.
        job: usize,
    },
    /// A job's processing time exceeds the calibration length `T`; such a job
    /// can never run inside a single calibration.
    ProcessingTimeExceedsCalibration {
        /// Offending job index.
        job: usize,
        /// The job's processing time.
        proc: i64,
        /// The calibration length.
        calib_len: i64,
    },
    /// A job's window `[r_j, d_j)` is too small for its processing time
    /// (`d_j < r_j + p_j`).
    WindowTooSmall {
        /// Offending job index.
        job: usize,
    },
    /// A deserialized job's id differs from its position in the job list.
    JobIdMismatch {
        /// Position of the job in the list.
        position: usize,
        /// The id it carries.
        id: u32,
    },
    /// A time value's magnitude exceeds
    /// [`MAX_INSTANCE_TICKS`](crate::MAX_INSTANCE_TICKS): downstream
    /// arithmetic (the Lemma 13 speed transform refines ticks by up to 36)
    /// would overflow `i64`.
    HorizonOverflow {
        /// Offending job index; `None` when the calibration length itself
        /// is out of range.
        job: Option<usize>,
        /// The out-of-range tick value.
        ticks: i64,
    },
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::NonPositiveCalibrationLength { calib_len } => {
                write!(f, "calibration length T must be positive, got {calib_len}")
            }
            ModelError::NoMachines => write!(f, "instance must have at least one machine"),
            ModelError::NonPositiveProcessingTime { job } => {
                write!(f, "job {job}: processing time must be positive")
            }
            ModelError::ProcessingTimeExceedsCalibration {
                job,
                proc,
                calib_len,
            } => write!(
                f,
                "job {job}: processing time {proc} exceeds calibration length {calib_len}"
            ),
            ModelError::WindowTooSmall { job } => {
                write!(f, "job {job}: window cannot fit processing time")
            }
            ModelError::JobIdMismatch { position, id } => write!(
                f,
                "job at position {position} has id {id}; job ids must equal their positions"
            ),
            ModelError::HorizonOverflow { job, ticks } => match job {
                Some(job) => write!(
                    f,
                    "job {job}: time value {ticks} exceeds the representable horizon \
                     (|ticks| <= i64::MAX / 36)"
                ),
                None => write!(
                    f,
                    "calibration length {ticks} exceeds the representable horizon \
                     (|ticks| <= i64::MAX / 36)"
                ),
            },
        }
    }
}

impl std::error::Error for ModelError {}
