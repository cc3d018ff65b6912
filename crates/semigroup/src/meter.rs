//! A deterministic count of the work a classification does.
//!
//! [`WorkMeter`] counts abstract *units* that the decision procedure
//! charges as it goes: product-table lookups, relation rows and words,
//! search nodes, candidate-walk steps, bridging entries, concept and
//! witness-walk steps.
//! Nothing in it reads a clock, so the same problem always charges the
//! same units, on any host and under any load.
//!
//! A classification runs as a sequence of stages. A meter bounds each
//! stage by a *cap*: [`WorkMeter::start_stage`] opens a stage, and a charge
//! that would take the stage past its cap fails with
//! [`SemigroupError::WorkCapReached`] and charges nothing, so the stage
//! stops where it is. The *slice* is the budget checked between stages
//! ([`WorkMeter::within_slice`]): a caller that wants bounded work runs the
//! next stage only while the meter is under it. A stage opened under the
//! slice charges at most the cap, so a caller that stops at the slice never
//! charges more than `slice + cap` units in total.

use crate::{Result, SemigroupError};

/// Counts work units against a per-stage cap and a slice (see the module
/// documentation).
#[derive(Clone, Debug)]
pub struct WorkMeter {
    used: u64,
    slice: u64,
    cap: u64,
    /// The most units the open stage may bring `used` to.
    limit: u64,
}

impl WorkMeter {
    /// A meter that never stops a stage and whose slice is never passed.
    pub fn unlimited() -> Self {
        WorkMeter::new(u64::MAX, u64::MAX)
    }

    /// A meter with the given slice and per-stage cap.
    pub fn new(slice: u64, cap: u64) -> Self {
        WorkMeter {
            used: 0,
            slice,
            cap,
            limit: cap,
        }
    }

    /// The units charged so far.
    #[inline]
    pub fn used(&self) -> u64 {
        self.used
    }

    /// The per-stage cap.
    #[inline]
    pub fn cap(&self) -> u64 {
        self.cap
    }

    /// Whether the units charged so far are under the slice.
    #[inline]
    pub fn within_slice(&self) -> bool {
        self.used < self.slice
    }

    /// Opens a stage: from here on, charges may add up to the cap.
    #[inline]
    pub fn start_stage(&mut self) {
        self.limit = self.used.saturating_add(self.cap);
    }

    /// Charges `units` to the open stage.
    ///
    /// # Errors
    ///
    /// Returns [`SemigroupError::WorkCapReached`], charging nothing, when
    /// the stage would pass its cap.
    #[inline]
    pub fn charge(&mut self, units: u64) -> Result<()> {
        let used = self.used.saturating_add(units);
        if used > self.limit {
            return Err(SemigroupError::WorkCapReached { cap: self.cap });
        }
        self.used = used;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_stage_stops_at_its_cap_and_charges_nothing_past_it() {
        let mut meter = WorkMeter::new(10, 8);
        meter.start_stage();
        meter.charge(5).unwrap();
        assert!(meter.within_slice());
        assert_eq!(
            meter.charge(4),
            Err(SemigroupError::WorkCapReached { cap: 8 })
        );
        assert_eq!(meter.used(), 5, "a refused charge is not counted");
        meter.charge(3).unwrap();
        // The next stage may charge the cap again, past the slice.
        meter.start_stage();
        meter.charge(8).unwrap();
        assert_eq!(meter.used(), 16);
        assert!(!meter.within_slice());
        assert!(meter.charge(1).is_err());
    }

    #[test]
    fn an_unlimited_meter_never_stops() {
        let mut meter = WorkMeter::unlimited();
        meter.start_stage();
        meter.charge(u64::MAX / 2).unwrap();
        meter.charge(u64::MAX).unwrap();
        assert_eq!(meter.used(), u64::MAX);
    }
}
