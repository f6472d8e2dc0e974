//! # ise-model — problem model for calibration scheduling
//!
//! This crate defines the data model for the *Integrated Stockpile
//! Evaluation* (ISE) problem of Fineman & Sheridan (SPAA 2015):
//! `n` jobs with release times, deadlines, and processing times must be
//! scheduled nonpreemptively on `m` identical machines so that every job runs
//! completely inside a *calibrated interval* of its machine, minimizing the
//! total number of calibrations.
//!
//! The model is deliberately exact: all times are integer *ticks*
//! ([`Time`]/[`Dur`]), so feasibility checking never involves floating-point
//! decisions. Schedules carry an optional refinement factor
//! ([`Schedule::time_scale`]) and speed augmentation ([`Schedule::speed`]) so
//! that the paper's machine-for-speed transformation (Theorem 14) can be
//! represented and validated exactly as well.
//!
//! The modules:
//! * [`time`] — integer tick time points and durations.
//! * [`job`] — jobs and job identifiers.
//! * [`instance`] — a full ISE problem instance (jobs + `m` + `T`).
//! * [`schedule`] — calibrations, placements, and complete schedules.
//! * [`mod@validate`] — the exact feasibility validator (ISE properties 1–4 and
//!   the TISE restriction).
//! * [`stats`] — summary statistics of schedules used by experiments.
//! * [`error`] — shared error type.

pub mod error;
pub mod instance;
pub mod job;
pub mod render;
pub mod schedule;
pub mod stats;
pub mod time;
pub mod transform;
pub mod validate;

pub use error::ModelError;
pub use instance::{Instance, InstanceBuilder, MAX_MACHINES};
pub use job::{Job, JobId};
pub use render::{render_gantt, RenderOptions};
pub use schedule::{Calibration, Placement, Schedule};
pub use stats::{MachineStats, ScheduleStats};
pub use time::{Dur, Time, TimeOverflow, MAX_INSTANCE_TICKS};
pub use transform::{normalize_origin, rescale_ticks, shift_schedule, shift_time};
pub use validate::{validate, validate_relaxed, validate_tise, ValidationError, ValidationReport};
