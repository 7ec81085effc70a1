//! The host wall-clock stopwatch: the one place the simulated-path
//! crates read a host clock.

// lint:allow(determinism, the single host clock of the simulated-path crates: HostStopwatch reads it only when a Recorder has host_timing on, and its readings ride in span args, never in simulated results)
use std::time::Instant as HostInstant;

/// Measures host wall-clock time for span annotations.
///
/// Obtained from [`Recorder::host_stopwatch`](crate::Recorder::host_stopwatch).
/// It reads the host clock only when the recorder has
/// [`TelemetryConfig::host_timing`](crate::TelemetryConfig::host_timing)
/// on; otherwise it never touches the clock and reports zero.
#[derive(Copy, Clone, Debug)]
pub struct HostStopwatch(Option<HostInstant>);

impl HostStopwatch {
    /// A stopwatch started now when `enabled`, inert otherwise.
    pub(crate) fn start(enabled: bool) -> Self {
        Self(enabled.then(HostInstant::now))
    }

    /// Host nanoseconds since the stopwatch started, saturating at
    /// `u64::MAX` (after ~584 years); zero when inert.
    pub fn elapsed_ns(&self) -> u64 {
        self.0.map_or(0, |t| {
            u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inert_stopwatch_reports_zero() {
        let inert = HostStopwatch::start(false);
        let running = HostStopwatch::start(true);
        std::thread::sleep(std::time::Duration::from_millis(1));
        assert_eq!(inert.elapsed_ns(), 0);
        assert!(running.elapsed_ns() >= 1_000_000);
    }
}
