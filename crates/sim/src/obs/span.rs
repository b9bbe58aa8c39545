//! RAII host-time spans.
//!
//! A [`Span`] measures the wall-clock between its creation and its drop
//! on a thread-aware monotonic clock. Spans nest per thread via a
//! thread-local stack that also attributes *self time*: each close
//! subtracts the time spent in child spans opened on the same thread, so
//! a hot leaf is visible even when buried under wrapper spans. A
//! [`wait_span`] marks time a thread spends blocked (a pool join), so the
//! registry books its self time as waiting rather than work. When
//! observability is off (`obs::profiling_enabled() == false`), [`span`]
//! is a single relaxed atomic load returning an inert guard.

use super::{bump_opened, now_ns, profiling_enabled, record_close, tid};
use std::borrow::Cow;
use std::cell::RefCell;

thread_local! {
    /// One entry per open span on this thread: accumulated child ns.
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// A scoped host-time span; closes (and records) on drop. Inert when
/// observability was off at open time.
#[derive(Debug)]
pub struct Span(Option<SpanInner>);

#[derive(Debug)]
struct SpanInner {
    name: Cow<'static, str>,
    start_ns: u64,
    wait: bool,
}

/// Opens a span with a static name. One branch when observability is off.
#[inline]
pub fn span(name: &'static str) -> Span {
    if !profiling_enabled() {
        return Span(None);
    }
    open(Cow::Borrowed(name), false)
}

/// Opens a span whose self time is the calling thread *waiting* (e.g. on
/// a worker-pool join), not working. One branch when observability is off.
#[inline]
pub fn wait_span(name: &'static str) -> Span {
    if !profiling_enabled() {
        return Span(None);
    }
    open(Cow::Borrowed(name), true)
}

/// Opens a span with a dynamically built name (e.g. `figure.table1`).
#[inline]
pub fn span_owned(name: String) -> Span {
    if !profiling_enabled() {
        return Span(None);
    }
    open(Cow::Owned(name), false)
}

fn open(name: Cow<'static, str>, wait: bool) -> Span {
    bump_opened();
    STACK.with(|s| s.borrow_mut().push(0));
    Span(Some(SpanInner {
        name,
        start_ns: now_ns(),
        wait,
    }))
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(inner) = self.0.take() else { return };
        let dur_ns = now_ns().saturating_sub(inner.start_ns);
        let (child_ns, depth) = STACK.with(|s| {
            let mut s = s.borrow_mut();
            let child = s.pop().unwrap_or(0);
            if let Some(parent) = s.last_mut() {
                *parent += dur_ns;
            }
            (child, s.len() as u32)
        });
        record_close(
            &inner.name,
            tid(),
            inner.start_ns,
            dur_ns,
            dur_ns.saturating_sub(child_ns),
            depth,
            inner.wait,
        );
    }
}
