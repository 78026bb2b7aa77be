//! A forwarding [`Sink`] that times every record it hands to the wrapped
//! sink, so the telemetry layer's cost is measured from outside the
//! program.

use harmony_telemetry::{Record, Sink};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

pub struct TimingSink<S: Sink> {
    pub inner: Arc<S>,
    nanos: AtomicU64,
    records: AtomicU64,
}

impl<S: Sink> TimingSink<S> {
    pub fn new(inner: Arc<S>) -> Self {
        TimingSink {
            inner,
            nanos: AtomicU64::new(0),
            records: AtomicU64::new(0),
        }
    }

    /// Nanoseconds spent inside the wrapped sink's `record`.
    pub fn nanos(&self) -> u64 {
        self.nanos.load(Ordering::Relaxed)
    }

    /// Records forwarded.
    pub fn records(&self) -> u64 {
        self.records.load(Ordering::Relaxed)
    }
}

impl<S: Sink> Sink for TimingSink<S> {
    fn record(&self, record: Record) {
        let t = Instant::now();
        self.inner.record(record);
        self.nanos
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.records.fetch_add(1, Ordering::Relaxed);
    }

    fn flush(&self) {
        self.inner.flush();
    }

    fn enabled(&self) -> bool {
        self.inner.enabled()
    }
}
