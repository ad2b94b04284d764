//! Simulated time: nanosecond clock values and the paper's `timeRange`.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// One microsecond in nanoseconds.
pub const MICROS: u64 = 1_000;
/// One millisecond in nanoseconds.
pub const MILLIS: u64 = 1_000_000;
/// One second in nanoseconds.
pub const SECONDS: u64 = 1_000_000_000;

/// A point in simulated time, in nanoseconds since simulation start.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Nanos(pub u64);

impl Nanos {
    /// Time zero.
    pub const ZERO: Nanos = Nanos(0);
    /// The maximum representable time (used as "never").
    pub const MAX: Nanos = Nanos(u64::MAX);

    /// Builds a time from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        Nanos(s * SECONDS)
    }

    /// Builds a time from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        Nanos(ms * MILLIS)
    }

    /// Builds a time from whole microseconds.
    pub const fn from_micros(us: u64) -> Self {
        Nanos(us * MICROS)
    }

    /// Returns the time as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / SECONDS as f64
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: Nanos) -> Nanos {
        Nanos(self.0.saturating_sub(rhs.0))
    }

    /// Checked addition, saturating at [`Nanos::MAX`].
    pub fn saturating_add(self, rhs: Nanos) -> Nanos {
        Nanos(self.0.saturating_add(rhs.0))
    }
}

impl Add for Nanos {
    type Output = Nanos;
    fn add(self, rhs: Nanos) -> Nanos {
        Nanos(self.0 + rhs.0)
    }
}

impl AddAssign for Nanos {
    fn add_assign(&mut self, rhs: Nanos) {
        self.0 += rhs.0;
    }
}

impl Sub for Nanos {
    type Output = Nanos;
    fn sub(self, rhs: Nanos) -> Nanos {
        Nanos(self.0 - rhs.0)
    }
}

impl fmt::Debug for Nanos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 == u64::MAX {
            return write!(f, "t=inf");
        }
        let ns = self.0;
        if ns >= SECONDS {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if ns >= MILLIS {
            write!(f, "{:.3}ms", ns as f64 / MILLIS as f64)
        } else if ns >= MICROS {
            write!(f, "{:.3}us", ns as f64 / MICROS as f64)
        } else {
            write!(f, "{ns}ns")
        }
    }
}

impl fmt::Display for Nanos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// The paper's `timeRange`: a pair of timestamps `<ti, tj>` with wildcard
/// support — `<ti, ?>` is interpreted as "since time ti" (§2.1).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub struct TimeRange {
    /// Inclusive start; `None` means "since the beginning".
    pub start: Option<Nanos>,
    /// Inclusive end; `None` means "until now".
    pub end: Option<Nanos>,
}

impl TimeRange {
    /// The fully wildcarded range `<*, *>`.
    pub const ANY: TimeRange = TimeRange {
        start: None,
        end: None,
    };

    /// Builds the closed range `[start, end]`.
    ///
    /// # Panics
    ///
    /// Panics if `start > end`.
    pub fn between(start: Nanos, end: Nanos) -> Self {
        assert!(start <= end, "TimeRange start must not exceed end");
        TimeRange {
            start: Some(start),
            end: Some(end),
        }
    }

    /// Builds the range `<ti, ?>` — everything since `start`.
    pub const fn since(start: Nanos) -> Self {
        TimeRange {
            start: Some(start),
            end: None,
        }
    }

    /// Builds the range `<?, tj>` — everything up to `end`.
    pub const fn until(end: Nanos) -> Self {
        TimeRange {
            start: None,
            end: Some(end),
        }
    }

    /// Returns true if instant `t` lies inside this range.
    pub fn contains(&self, t: Nanos) -> bool {
        self.start.is_none_or(|s| t >= s) && self.end.is_none_or(|e| t <= e)
    }

    /// Returns true if the record interval `[stime, etime]` overlaps the range.
    ///
    /// TIB records carry a start and end time; a record is relevant to a
    /// query when the two intervals intersect.
    pub fn overlaps(&self, stime: Nanos, etime: Nanos) -> bool {
        self.start.is_none_or(|s| etime >= s) && self.end.is_none_or(|e| stime <= e)
    }

    /// Intersects the record interval with this range, returning the clamped
    /// `[stime, etime]` or `None` when they do not overlap.
    pub fn clamp(&self, stime: Nanos, etime: Nanos) -> Option<(Nanos, Nanos)> {
        if !self.overlaps(stime, etime) {
            return None;
        }
        let s = self.start.map_or(stime, |s| s.max(stime));
        let e = self.end.map_or(etime, |e| e.min(etime));
        Some((s, e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        assert_eq!(Nanos::from_secs(2).0, 2 * SECONDS);
        assert_eq!(Nanos::from_millis(3).0, 3 * MILLIS);
        assert_eq!(Nanos::from_micros(5).0, 5 * MICROS);
    }

    #[test]
    fn display_scales() {
        assert_eq!(format!("{}", Nanos(500)), "500ns");
        assert_eq!(format!("{}", Nanos(1_500)), "1.500us");
        assert_eq!(format!("{}", Nanos(2 * MILLIS)), "2.000ms");
        assert_eq!(format!("{}", Nanos::from_secs(1)), "1.000s");
    }

    #[test]
    fn range_contains() {
        let r = TimeRange::between(Nanos(10), Nanos(20));
        assert!(!r.contains(Nanos(9)));
        assert!(r.contains(Nanos(10)));
        assert!(r.contains(Nanos(20)));
        assert!(!r.contains(Nanos(21)));
        assert!(TimeRange::ANY.contains(Nanos(0)));
        assert!(TimeRange::since(Nanos(5)).contains(Nanos(6)));
        assert!(!TimeRange::since(Nanos(5)).contains(Nanos(4)));
        assert!(TimeRange::until(Nanos(5)).contains(Nanos(4)));
        assert!(!TimeRange::until(Nanos(5)).contains(Nanos(6)));
    }

    #[test]
    fn range_overlap_and_clamp() {
        let r = TimeRange::between(Nanos(10), Nanos(20));
        assert!(r.overlaps(Nanos(0), Nanos(10)));
        assert!(r.overlaps(Nanos(20), Nanos(30)));
        assert!(!r.overlaps(Nanos(0), Nanos(9)));
        assert!(!r.overlaps(Nanos(21), Nanos(30)));
        assert_eq!(r.clamp(Nanos(5), Nanos(15)), Some((Nanos(10), Nanos(15))));
        assert_eq!(r.clamp(Nanos(0), Nanos(5)), None);
        assert_eq!(
            TimeRange::ANY.clamp(Nanos(1), Nanos(2)),
            Some((Nanos(1), Nanos(2)))
        );
    }

    #[test]
    #[should_panic(expected = "start must not exceed")]
    fn bad_range_panics() {
        let _ = TimeRange::between(Nanos(2), Nanos(1));
    }

    #[test]
    fn saturating_ops() {
        assert_eq!(Nanos(5).saturating_sub(Nanos(10)), Nanos(0));
        assert_eq!(Nanos::MAX.saturating_add(Nanos(1)), Nanos::MAX);
    }
}
