//! Host-time phase spans: the clock, the per-track recorder, and the
//! span event the Perfetto exporter renders.
//!
//! **This is the one file in `califorms-telemetry` allowed to read host
//! time** (`std::time::Instant`), and the `califorms-analyze` determinism
//! linter enforces exactly that: span *timers* are telemetry-only output,
//! while anything that could feed a counter — and through it a simulated
//! result — must stay off the host clock. Durations recorded here never
//! flow back into `RuntimeStats`, `SimStats`, or a [`crate::counters`]
//! registry.

use std::time::Instant;

/// The engine phase a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Parallel bound phase: private-L1-completable replay on a worker.
    Bound,
    /// Serial weave phase: coherence transactions on the main thread.
    Weave,
    /// Barrier wait / quantum bookkeeping.
    Barrier,
}

impl Phase {
    /// Stable lowercase name (the Perfetto event name).
    pub fn as_str(self) -> &'static str {
        match self {
            Phase::Bound => "bound",
            Phase::Weave => "weave",
            Phase::Barrier => "barrier",
        }
    }
}

/// One recorded span: a phase on a track, within a quantum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanEvent {
    /// Track id (core id; the runtime track uses the first id past the
    /// cores).
    pub track: u32,
    /// Which phase the span covers.
    pub phase: Phase,
    /// Cycle-quantum index the span belongs to.
    pub quantum: u64,
    /// Start, in nanoseconds since the run's [`TelemetryClock`] origin.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

/// A shared time origin: every recorder in a run copies the same clock so
/// spans from different threads land on one timeline.
#[derive(Debug, Clone, Copy)]
pub struct TelemetryClock {
    origin: Instant,
}

impl TelemetryClock {
    /// Starts the run clock.
    pub fn start() -> Self {
        Self {
            origin: Instant::now(),
        }
    }

    /// Nanoseconds since the clock started. Saturates at `u64::MAX`
    /// (≈ 584 years).
    #[inline]
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// Spans one track keeps before dropping new ones (a multi-hour replay
/// must not grow the timeline without bound; drops are counted, never
/// silent).
pub const MAX_EVENTS_PER_TRACK: usize = 1 << 18;

/// Records spans for one track (one core, or the runtime track). Owned by
/// exactly one thread at a time — the multicore engine lends a core's
/// recorder to its worker for the bound phase and takes it back for the
/// weave, so no synchronisation is ever needed.
#[derive(Debug, Clone)]
pub struct TrackRecorder {
    track: u32,
    clock: TelemetryClock,
    events: Vec<SpanEvent>,
    dropped: u64,
}

impl TrackRecorder {
    /// A recorder for `track` on the run clock `clock`.
    pub fn new(track: u32, clock: TelemetryClock) -> Self {
        Self {
            track,
            clock,
            events: Vec::new(),
            dropped: 0,
        }
    }

    /// The track id.
    pub fn track(&self) -> u32 {
        self.track
    }

    /// Reads the run clock (nanoseconds since origin) — the start stamp
    /// for a later [`Self::record_since`].
    #[inline]
    pub fn start(&self) -> u64 {
        self.clock.now_ns()
    }

    /// Records a span from `start_ns` (a previous [`Self::start`]) to
    /// now, returning its duration in nanoseconds. Past
    /// [`MAX_EVENTS_PER_TRACK`] events the span is counted as dropped
    /// instead of stored.
    pub fn record_since(&mut self, phase: Phase, quantum: u64, start_ns: u64) -> u64 {
        let end = self.clock.now_ns();
        let dur = end.saturating_sub(start_ns);
        self.push(SpanEvent {
            track: self.track,
            phase,
            quantum,
            start_ns,
            dur_ns: dur,
        });
        dur
    }

    /// Records a fully formed span (the caller computed both stamps, e.g.
    /// a barrier-wait span derived from two other spans' endpoints).
    pub fn record(&mut self, phase: Phase, quantum: u64, start_ns: u64, dur_ns: u64) {
        self.push(SpanEvent {
            track: self.track,
            phase,
            quantum,
            start_ns,
            dur_ns,
        });
    }

    fn push(&mut self, ev: SpanEvent) {
        if self.events.len() < MAX_EVENTS_PER_TRACK {
            self.events.push(ev);
        } else {
            self.dropped += 1;
        }
    }

    /// End stamp (`start_ns + dur_ns`) of the most recent span, if any.
    pub fn last_end_ns(&self) -> Option<u64> {
        self.events.last().map(|e| e.start_ns + e.dur_ns)
    }

    /// The recorded spans, in recording order.
    pub fn events(&self) -> &[SpanEvent] {
        &self.events
    }

    /// Spans dropped after the track filled up.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Consumes the recorder, returning its spans and drop count.
    pub fn into_parts(self) -> (Vec<SpanEvent>, u64) {
        (self.events, self.dropped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_since_measures_nonnegative_durations() {
        let clock = TelemetryClock::start();
        let mut rec = TrackRecorder::new(2, clock);
        let t0 = rec.start();
        let dur = rec.record_since(Phase::Bound, 7, t0);
        assert_eq!(rec.events().len(), 1);
        let ev = rec.events()[0];
        assert_eq!(ev.track, 2);
        assert_eq!(ev.phase, Phase::Bound);
        assert_eq!(ev.quantum, 7);
        assert_eq!(ev.dur_ns, dur);
        assert_eq!(rec.last_end_ns(), Some(ev.start_ns + ev.dur_ns));
    }

    #[test]
    fn overflow_is_counted_not_silent() {
        let clock = TelemetryClock::start();
        let mut rec = TrackRecorder::new(0, clock);
        for q in 0..(MAX_EVENTS_PER_TRACK as u64 + 10) {
            rec.record(Phase::Weave, q, q, 1);
        }
        assert_eq!(rec.events().len(), MAX_EVENTS_PER_TRACK);
        assert_eq!(rec.dropped(), 10);
    }

    #[test]
    fn phase_names_are_stable() {
        assert_eq!(Phase::Bound.as_str(), "bound");
        assert_eq!(Phase::Weave.as_str(), "weave");
        assert_eq!(Phase::Barrier.as_str(), "barrier");
    }
}
