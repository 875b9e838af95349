//! The phase profiler: monotonic span timers for engine phases.
//!
//! Both engine builders and run loops bracket their phases with [`span`].
//! A span records only while a trial is open on its thread, from
//! [`begin_trial`] to [`take_trial`]: it adds its elapsed time to that
//! trial's [`TrialProfile`]. `le_bench::Workspace::cell` opens a trial
//! around each one it runs when the sweep is profiled, and folds the
//! profiles into per-cell `p50`/`p99` timing columns of the experiment
//! CSVs (merged deterministically in submission order by the sweep
//! runner).
//!
//! Outside an open trial, [`span`] takes no clock reading at all — the
//! guard holds `None` and its `Drop` is a single branch — so the
//! fingerprinted hot paths are untouched.

use std::cell::RefCell;
use std::time::Instant;

/// The engine phases the profiler distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Building a simulation: ID assignment, node construction, arena
    /// recycling / port-map reset.
    Build,
    /// The run loop: rounds (sync) or event dispatch (async).
    Run,
    /// Outcome assembly and buffer stash-back at the end of a run.
    Reset,
}

/// Number of [`Phase`] variants.
pub const PHASES: usize = 3;

impl Phase {
    /// Dense index of this phase, in `0..PHASES`.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            Phase::Build => 0,
            Phase::Run => 1,
            Phase::Reset => 2,
        }
    }

    /// The phase's display name.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Build => "build",
            Phase::Run => "run",
            Phase::Reset => "reset",
        }
    }
}

/// Per-trial phase wall-clocks, in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TrialProfile {
    /// Seconds spent in each phase, indexed by [`Phase::index`].
    pub secs: [f64; PHASES],
}

impl TrialProfile {
    /// Seconds spent in `phase`.
    pub fn phase(&self, phase: Phase) -> f64 {
        self.secs[phase.index()]
    }

    /// Accumulates another profile into this one.
    pub fn add(&mut self, other: &TrialProfile) {
        for (a, b) in self.secs.iter_mut().zip(other.secs) {
            *a += b;
        }
    }
}

thread_local! {
    /// The trial open on this thread, if any.
    static CURRENT: RefCell<Option<TrialProfile>> = const { RefCell::new(None) };
}

/// A live span: accumulates its elapsed time into the open trial's
/// profile when dropped. Inert (no clock reading) when no trial was open
/// at [`span`].
#[derive(Debug)]
pub struct Span {
    phase: Phase,
    start: Option<Instant>,
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            let secs = start.elapsed().as_secs_f64();
            CURRENT.with_borrow_mut(|trial| {
                if let Some(trial) = trial {
                    trial.secs[self.phase.index()] += secs;
                }
            });
        }
    }
}

/// Opens a span over `phase` on this thread.
#[inline]
pub fn span(phase: Phase) -> Span {
    Span {
        phase,
        start: CURRENT.with_borrow(Option::is_some).then(Instant::now),
    }
}

/// Opens a trial on this thread, from zero (call before a trial).
pub fn begin_trial() {
    CURRENT.set(Some(TrialProfile::default()));
}

/// Closes this thread's trial and returns its profile (call after a
/// trial); all zero when no trial was open.
pub fn take_trial() -> TrialProfile {
    CURRENT.take().unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phases_index_densely() {
        for (i, p) in [Phase::Build, Phase::Run, Phase::Reset]
            .into_iter()
            .enumerate()
        {
            assert_eq!(p.index(), i);
        }
    }

    #[test]
    fn trial_profile_accumulates() {
        let mut a = TrialProfile {
            secs: [1.0, 2.0, 3.0],
        };
        let b = TrialProfile {
            secs: [0.5, 0.0, 1.0],
        };
        a.add(&b);
        assert_eq!(a.secs, [1.5, 2.0, 4.0]);
        assert_eq!(a.phase(Phase::Reset), 4.0);
    }

    #[test]
    fn spans_record_only_inside_an_open_trial() {
        // A span outside an open trial reads no clock and records nothing.
        drop(span(Phase::Run));
        assert_eq!(take_trial(), TrialProfile::default());
        // Inside one, it records its phase and only its phase.
        begin_trial();
        let s = span(Phase::Run);
        std::thread::sleep(std::time::Duration::from_millis(1));
        drop(s);
        let trial = take_trial();
        assert!(trial.phase(Phase::Run) > 0.0, "{trial:?}");
        assert_eq!(trial.phase(Phase::Build), 0.0);
        assert_eq!(trial.phase(Phase::Reset), 0.0);
        // Taking the profile closes the trial.
        drop(span(Phase::Run));
        assert_eq!(take_trial(), TrialProfile::default());
    }
}
