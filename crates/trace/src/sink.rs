//! Trace sinks: where emitted events go.
//!
//! A producer keeps its sink in an `Option` and skips the emit entirely when
//! it is `None`, so the *off* mode costs a single branch per emit site
//! (guarded by the `trace_overhead` bench's <2% budget).  [`NullSink`] exists
//! for callers that must pass *a* sink but want events discarded;
//! [`EventTrace`] buffers them in order; [`SharedTrace`] is a cloneable handle
//! that lets the caller keep reading a buffer it lent to an engine.

use crate::event::TraceEvent;
use std::cell::RefCell;
use std::rc::Rc;

/// Destination for emitted trace events.
pub trait TraceSink {
    /// Record one event.  Implementations must preserve emission order.
    fn emit(&mut self, event: TraceEvent);
}

/// A sink that discards every event.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn emit(&mut self, _event: TraceEvent) {}
}

/// A buffering sink that records events in emission order.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct EventTrace {
    events: Vec<TraceEvent>,
}

impl EventTrace {
    /// An empty trace.
    pub fn new() -> Self {
        EventTrace::default()
    }

    /// The recorded events, in emission order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Consume the trace, yielding the recorded events.
    pub fn into_events(self) -> Vec<TraceEvent> {
        self.events
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no events were recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of recorded events of the given [`kind`](TraceEvent::kind).
    pub fn count(&self, kind: &str) -> usize {
        self.events.iter().filter(|e| e.kind() == kind).count()
    }
}

impl TraceSink for EventTrace {
    fn emit(&mut self, event: TraceEvent) {
        self.events.push(event);
    }
}

/// A cloneable handle to a shared [`EventTrace`] buffer.
///
/// Install one clone in an engine (as a `Box<dyn TraceSink>`) and keep the
/// other; after the run, [`take_events`](SharedTrace::take_events) yields what
/// the engine emitted.  Single-threaded by construction (`Rc`), matching the
/// engines, which never share a sink across threads.
#[derive(Debug, Default, Clone)]
pub struct SharedTrace {
    inner: Rc<RefCell<EventTrace>>,
}

impl SharedTrace {
    /// A handle to a fresh, empty buffer.
    pub fn new() -> Self {
        SharedTrace::default()
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.inner.borrow().len()
    }

    /// Whether no events were recorded so far.
    pub fn is_empty(&self) -> bool {
        self.inner.borrow().is_empty()
    }

    /// Drain the buffer, returning the events recorded so far in order.
    pub fn take_events(&self) -> Vec<TraceEvent> {
        std::mem::take(&mut self.inner.borrow_mut().events)
    }
}

impl TraceSink for SharedTrace {
    fn emit(&mut self, event: TraceEvent) {
        self.inner.borrow_mut().emit(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(t: u64) -> TraceEvent {
        TraceEvent::ReadyDepth { t, depth: t }
    }

    #[test]
    fn null_sink_discards() {
        let mut sink = NullSink;
        sink.emit(sample(1));
    }

    #[test]
    fn event_trace_buffers_in_order() {
        let mut trace = EventTrace::new();
        assert!(trace.is_empty());
        trace.emit(sample(1));
        trace.emit(TraceEvent::CoreIdle { t: 2, core: 0 });
        trace.emit(sample(3));
        assert_eq!(trace.len(), 3);
        assert_eq!(trace.count("ready_depth"), 2);
        assert_eq!(trace.count("core_idle"), 1);
        let events = trace.into_events();
        assert_eq!(events[0].time(), 1);
        assert_eq!(events[2].time(), 3);
    }

    #[test]
    fn shared_trace_clones_observe_each_others_emits() {
        let handle = SharedTrace::new();
        let mut lent = handle.clone();
        lent.emit(sample(1));
        lent.emit(sample(2));
        assert_eq!(handle.len(), 2);
        let events = handle.take_events();
        assert_eq!(events.len(), 2);
        assert!(handle.is_empty(), "take drains the shared buffer");
    }

    #[test]
    fn shared_trace_works_as_a_boxed_dyn_sink() {
        let handle = SharedTrace::new();
        let mut boxed: Box<dyn TraceSink> = Box::new(handle.clone());
        boxed.emit(sample(7));
        assert_eq!(handle.take_events(), vec![sample(7)]);
    }
}
