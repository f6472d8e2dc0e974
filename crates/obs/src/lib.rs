//! # ise-obs — std-only tracing for the calibration scheduler
//!
//! A lightweight span API threaded through every solver phase so each
//! solve can report where its wall time went, without external crates and
//! with near-zero cost when no trace is active.
//!
//! ## Model
//!
//! A [`Trace`] owns a lock-free ring-buffer sink ([`ring::RingSink`]) and a
//! monotone span-id counter. Installing a trace on a thread
//! ([`Trace::install`]) makes [`Span::enter`] live on that thread: each
//! span records its name, start offset, duration, and parent (the
//! innermost open span on the same thread, tracked by a thread-local
//! stack). When no trace is installed, `Span::enter` is a no-op costing
//! one thread-local read.
//!
//! Work that fans out to other threads carries the trace across with
//! [`SpanContext::current`] + [`SpanContext::install`]: spans on the child
//! thread attach to the capturing thread's current span, so the tree stays
//! connected through `std::thread::scope` boundaries.
//!
//! Finished traces are drained with [`Trace::drain`] and consumed two
//! ways:
//!
//! * [`PhaseTimings::from_records`] — per-phase totals (name, calls,
//!   total µs), the `phases` block serialized into solve reports and
//!   engine responses;
//! * [`TraceTree::build`] + [`TraceTree::render`] — the indented span
//!   tree with per-span µs and % of wall time that `ise trace` prints.
//!
//! ## Span taxonomy
//!
//! The scheduler uses dotted names grouped by subsystem: `solve.*`
//! (partition, union/trim), `lp.*` (discretize, trim, build, solve),
//! `simplex.*` (warm_install, phase1, phase2, refactor, pricing,
//! residual_check, recovery, lu_factor, lu_update),
//! `long.*` (round, mirror, edf), `short.*` (partition, mm, emit), and
//! `engine.*` (queue_wait, cache_probe, solve). See DESIGN.md §10 for the
//! full table.

pub mod ring;
pub mod tree;

pub use ring::RingSink;
pub use tree::{PhaseStat, PhaseTimings, TraceTree};

use std::cell::RefCell;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One completed span, as stored in the sink.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    /// Span id, unique within its trace; ids start at 1.
    pub id: u32,
    /// Id of the enclosing span, or 0 for a root.
    pub parent: u32,
    /// Static phase name (see the module docs for the taxonomy).
    pub name: &'static str,
    /// Microseconds from trace creation to span entry.
    pub start_us: u64,
    /// Span duration in microseconds.
    pub dur_us: u64,
}

/// A trace: the sink plus the id counter and time origin shared by all
/// spans recorded under it.
pub struct Trace {
    started: Instant,
    sink: RingSink,
    next_id: AtomicU32,
    dropped: AtomicU64,
}

struct Active {
    trace: Arc<Trace>,
    parent: u32,
}

thread_local! {
    static ACTIVE: RefCell<Option<Active>> = const { RefCell::new(None) };
}

impl Trace {
    /// A new trace whose sink holds at least `capacity` spans (rounded up
    /// to a power of two). Spans beyond capacity are counted, not stored.
    pub fn new(capacity: usize) -> Arc<Trace> {
        Arc::new(Trace {
            started: Instant::now(),
            sink: RingSink::new(capacity),
            next_id: AtomicU32::new(1),
            dropped: AtomicU64::new(0),
        })
    }

    /// Make this trace current on the calling thread until the guard
    /// drops. Subsequent [`Span::enter`] calls on this thread record here.
    pub fn install(self: &Arc<Trace>) -> TraceGuard {
        let prev = ACTIVE.with(|a| {
            a.replace(Some(Active {
                trace: Arc::clone(self),
                parent: 0,
            }))
        });
        TraceGuard { prev }
    }

    /// Drain all recorded spans, sorted by start offset (stable under the
    /// out-of-order completion that concurrent phases produce). Producers
    /// should be quiescent — in practice every span guard has dropped and
    /// every scoped thread has joined before a trace is drained.
    pub fn drain(&self) -> Vec<SpanRecord> {
        let mut records = Vec::new();
        while let Some(r) = self.sink.pop() {
            records.push(r);
        }
        records.sort_by_key(|r| (r.start_us, r.id));
        records
    }

    /// Spans lost to sink overflow.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    fn push(&self, record: SpanRecord) {
        if !self.sink.push(record) {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Restores the thread's previous trace (usually none) on drop.
pub struct TraceGuard {
    prev: Option<Active>,
}

impl Drop for TraceGuard {
    fn drop(&mut self) {
        ACTIVE.with(|a| a.replace(self.prev.take()));
    }
}

/// A snapshot of "the current trace and span" that can cross threads.
///
/// Capture with [`SpanContext::current`] before spawning, install with
/// [`SpanContext::install`] inside the spawned closure; spans on the child
/// thread then attach under the capturing thread's current span. A context
/// captured with no trace active installs nothing, so callers never need
/// to branch.
#[derive(Clone)]
pub struct SpanContext {
    inner: Option<(Arc<Trace>, u32)>,
}

impl SpanContext {
    /// The calling thread's current trace and innermost span, if any.
    pub fn current() -> SpanContext {
        SpanContext {
            inner: ACTIVE.with(|a| {
                a.borrow()
                    .as_ref()
                    .map(|active| (Arc::clone(&active.trace), active.parent))
            }),
        }
    }

    /// Install the captured context on the calling thread until the guard
    /// drops (a no-op guard when the context is empty).
    pub fn install(&self) -> TraceGuard {
        match &self.inner {
            None => TraceGuard { prev: None },
            Some((trace, parent)) => {
                let prev = ACTIVE.with(|a| {
                    a.replace(Some(Active {
                        trace: Arc::clone(trace),
                        parent: *parent,
                    }))
                });
                TraceGuard { prev }
            }
        }
    }
}

/// An open span; records itself into the current trace on drop.
///
/// ```
/// let trace = ise_obs::Trace::new(64);
/// let guard = trace.install();
/// {
///     let _solve = ise_obs::Span::enter("solve");
///     let _lp = ise_obs::Span::enter("lp.solve"); // child of `solve`
/// }
/// drop(guard);
/// let records = trace.drain();
/// assert_eq!(records.len(), 2);
/// assert_eq!(records[1].parent, records[0].id);
/// ```
#[must_use = "a span measures the scope it is bound to; an unbound span closes immediately"]
pub struct Span {
    inner: Option<SpanInner>,
}

struct SpanInner {
    trace: Arc<Trace>,
    id: u32,
    prev_parent: u32,
    name: &'static str,
    entered: Instant,
}

impl Span {
    /// Open a span named `name` under the thread's current trace; a no-op
    /// when no trace is installed.
    pub fn enter(name: &'static str) -> Span {
        let inner = ACTIVE.with(|a| {
            let mut active = a.borrow_mut();
            let active = active.as_mut()?;
            let id = active.trace.next_id.fetch_add(1, Ordering::Relaxed);
            let prev_parent = active.parent;
            active.parent = id;
            Some(SpanInner {
                trace: Arc::clone(&active.trace),
                id,
                prev_parent,
                name,
                entered: Instant::now(),
            })
        });
        Span { inner }
    }

    /// Record an already-measured duration as a completed span ending now
    /// (e.g. queue wait measured before the trace existed). Does not alter
    /// the thread's span stack.
    pub fn record(name: &'static str, dur: Duration) {
        ACTIVE.with(|a| {
            let active = a.borrow();
            let Some(active) = active.as_ref() else {
                return;
            };
            let id = active.trace.next_id.fetch_add(1, Ordering::Relaxed);
            let end_us = active.trace.started.elapsed().as_micros() as u64;
            let dur_us = dur.as_micros().min(u128::from(u64::MAX)) as u64;
            active.trace.push(SpanRecord {
                id,
                parent: active.parent,
                name,
                start_us: end_us.saturating_sub(dur_us),
                dur_us,
            });
        });
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(inner) = self.inner.take() else {
            return;
        };
        ACTIVE.with(|a| {
            if let Some(active) = a.borrow_mut().as_mut() {
                // Restore the parent only if this span is still innermost
                // on its own trace (guards drop in LIFO order, so it is).
                if Arc::ptr_eq(&active.trace, &inner.trace) && active.parent == inner.id {
                    active.parent = inner.prev_parent;
                }
            }
        });
        let start_us = inner
            .entered
            .duration_since(inner.trace.started)
            .as_micros() as u64;
        inner.trace.push(SpanRecord {
            id: inner.id,
            parent: inner.prev_parent,
            name: inner.name,
            start_us,
            dur_us: inner.entered.elapsed().as_micros() as u64,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_trace_means_no_records() {
        let _span = Span::enter("orphan");
        // Nothing to assert beyond "does not panic": there is no sink.
    }

    #[test]
    fn nesting_links_parents() {
        let trace = Trace::new(16);
        let guard = trace.install();
        {
            let _a = Span::enter("a");
            {
                let _b = Span::enter("b");
            }
            let _c = Span::enter("c");
        }
        drop(guard);
        let records = trace.drain();
        assert_eq!(records.len(), 3);
        let a = records.iter().find(|r| r.name == "a").unwrap();
        let b = records.iter().find(|r| r.name == "b").unwrap();
        let c = records.iter().find(|r| r.name == "c").unwrap();
        assert_eq!(a.parent, 0);
        assert_eq!(b.parent, a.id);
        assert_eq!(c.parent, a.id);
    }

    #[test]
    fn context_carries_across_threads() {
        let trace = Trace::new(64);
        let guard = trace.install();
        {
            let _root = Span::enter("root");
            let ctx = SpanContext::current();
            std::thread::scope(|s| {
                s.spawn(move || {
                    let _g = ctx.install();
                    let _child = Span::enter("child");
                });
            });
        }
        drop(guard);
        let records = trace.drain();
        let root = records.iter().find(|r| r.name == "root").unwrap();
        let child = records.iter().find(|r| r.name == "child").unwrap();
        assert_eq!(child.parent, root.id);
    }

    #[test]
    fn empty_context_installs_nothing() {
        let ctx = SpanContext::current();
        let _g = ctx.install();
        let _span = Span::enter("still-disabled");
        assert!(SpanContext::current().inner.is_none());
    }

    #[test]
    fn overflow_is_counted_not_stored() {
        let trace = Trace::new(2);
        let guard = trace.install();
        for _ in 0..10 {
            let _s = Span::enter("x");
        }
        drop(guard);
        assert!(trace.dropped() >= 8);
        assert_eq!(trace.drain().len(), 2);
    }

    #[test]
    fn record_attaches_to_current_parent() {
        let trace = Trace::new(16);
        let guard = trace.install();
        {
            let _root = Span::enter("root");
            Span::record("pre-measured", Duration::from_micros(250));
        }
        drop(guard);
        let records = trace.drain();
        let root = records.iter().find(|r| r.name == "root").unwrap();
        let pre = records.iter().find(|r| r.name == "pre-measured").unwrap();
        assert_eq!(pre.parent, root.id);
        assert_eq!(pre.dur_us, 250);
    }

    #[test]
    fn install_is_reentrant_per_thread() {
        let outer = Trace::new(16);
        let inner = Trace::new(16);
        let og = outer.install();
        let _o = Span::enter("outer");
        {
            let ig = inner.install();
            let _i = Span::enter("inner");
            drop(_i);
            drop(ig);
        }
        let _o2 = Span::enter("outer2");
        drop(_o2);
        drop(_o);
        drop(og);
        assert_eq!(inner.drain().len(), 1);
        assert_eq!(outer.drain().len(), 2);
    }
}
