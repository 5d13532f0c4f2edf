//! The lazy decay-schedule algebra.
//!
//! Between two touches of a line, everything the refresh machinery does to it
//! is fully determined by the policy, the retention parameters and the
//! line's state at the last touch:
//!
//! * Refrint opportunities occur every sentry period after the touch;
//!   Periodic opportunities occur at global period boundaries.
//! * The data policy turns each opportunity into a refresh, a write-back
//!   (dirty lines whose budget expired) or an invalidation (clean lines whose
//!   budget expired).
//!
//! [`DecaySchedule::settle`] therefore computes, in O(1), how many refreshes
//! a line received in an interval, whether and when it was written back, and
//! whether and when it was invalidated. The CMP simulator calls it whenever a
//! line is touched, evicted, invalidated by coherence, or at the end of the
//! simulation. The `refrint-oracle` crate re-derives the same settlements by
//! replaying every opportunity, and the tests check this algebra against it.

use refrint_engine::time::Cycle;

use crate::policy::{RefreshPolicy, TimePolicy};

/// The residency state of a line as far as refresh is concerned.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LineKind {
    /// Valid and dirty with respect to the next level.
    Dirty,
    /// Valid and clean.
    Clean,
    /// Not holding valid data.
    Invalid,
}

/// What happened to an untouched line over a settlement interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Settlement {
    /// Number of line refreshes charged (the write-back's implicit refresh is
    /// *not* included; the write-back itself is reported separately).
    pub refreshes: u64,
    /// When the line was written back (dirty → clean), if that happened
    /// within the interval.
    pub writeback_at: Option<Cycle>,
    /// When the line was invalidated, if that happened within the interval.
    pub invalidated_at: Option<Cycle>,
    /// The line's state at the end of the interval.
    pub final_kind: LineKind,
}

impl Settlement {
    /// A settlement in which nothing happened.
    #[must_use]
    pub const fn nothing(kind: LineKind) -> Self {
        Settlement {
            refreshes: 0,
            writeback_at: None,
            invalidated_at: None,
            final_kind: kind,
        }
    }

    /// Whether the line survived the interval with valid data.
    #[must_use]
    pub const fn survived(&self) -> bool {
        !matches!(self.final_kind, LineKind::Invalid)
    }
}

/// The decay/refresh schedule for one cache level under one policy and one
/// retention configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecaySchedule {
    policy: RefreshPolicy,
    /// Line retention period (Periodic refresh interval).
    retention: Cycle,
    /// Sentry-bit retention period (Refrint refresh interval).
    sentry_period: Cycle,
    /// Phase offset of the Periodic boundaries (used to stagger banks).
    periodic_offset: Cycle,
}

impl DecaySchedule {
    /// Creates a schedule.
    ///
    /// `sentry_margin` is the number of cycles by which the sentry bit decays
    /// earlier than the line (the paper's bound: the maximum number of
    /// simultaneously-firing sentry bits).
    ///
    /// # Panics
    ///
    /// Panics if the margin is not smaller than the retention period, or if
    /// the retention period is zero.
    #[must_use]
    pub fn new(
        policy: RefreshPolicy,
        retention: Cycle,
        sentry_margin: Cycle,
        periodic_offset: Cycle,
    ) -> Self {
        assert!(retention > Cycle::ZERO, "retention must be non-zero");
        assert!(
            sentry_margin < retention,
            "sentry margin must be smaller than the retention period"
        );
        DecaySchedule {
            policy,
            retention,
            sentry_period: retention - sentry_margin,
            periodic_offset: periodic_offset % retention,
        }
    }

    /// The policy this schedule implements.
    #[must_use]
    pub const fn policy(&self) -> RefreshPolicy {
        self.policy
    }

    /// The line retention period.
    #[must_use]
    pub const fn retention(&self) -> Cycle {
        self.retention
    }

    /// The interval between successive refresh opportunities for an idle
    /// line: the sentry period for Refrint, the retention period for
    /// Periodic.
    #[must_use]
    pub const fn opportunity_period(&self) -> Cycle {
        match self.policy.time {
            TimePolicy::Periodic => self.retention,
            TimePolicy::Refrint => self.sentry_period,
        }
    }

    /// The `k`-th (1-based) refresh opportunity strictly after a touch at
    /// `touch`.
    #[must_use]
    pub fn opportunity(&self, touch: Cycle, k: u64) -> Cycle {
        debug_assert!(k >= 1, "opportunities are 1-based");
        match self.policy.time {
            TimePolicy::Refrint => touch + self.sentry_period * k,
            TimePolicy::Periodic => {
                // First boundary strictly after `touch`, then every period.
                let rel = touch.saturating_sub(self.periodic_offset);
                let periods_elapsed = rel.div_span(self.retention);
                self.periodic_offset + self.retention * (periods_elapsed + k)
            }
        }
    }

    /// Number of refresh opportunities in the half-open interval
    /// `(touch, until]`.
    #[must_use]
    pub fn opportunities_between(&self, touch: Cycle, until: Cycle) -> u64 {
        if until <= touch {
            return 0;
        }
        let first = self.opportunity(touch, 1);
        if first > until {
            return 0;
        }
        1 + (until - first).div_span(self.opportunity_period())
    }

    /// Settles a line of kind `kind`, last touched at `touch`, over the
    /// interval `(touch, until]`.
    ///
    /// Invalid lines only accrue refreshes under the `All` data policy (a
    /// naive eDRAM controller refreshes every physical line); under every
    /// other policy they are untouched.
    #[must_use]
    pub fn settle(&self, kind: LineKind, touch: Cycle, until: Cycle) -> Settlement {
        let total = self.opportunities_between(touch, until);
        if total == 0 {
            return Settlement::nothing(kind);
        }
        match kind {
            LineKind::Invalid => {
                if self.policy.data.refreshes_invalid_lines() {
                    Settlement {
                        refreshes: total,
                        writeback_at: None,
                        invalidated_at: None,
                        final_kind: LineKind::Invalid,
                    }
                } else {
                    Settlement::nothing(LineKind::Invalid)
                }
            }
            LineKind::Clean => self.settle_clean(touch, total),
            LineKind::Dirty => self.settle_dirty(touch, total),
        }
    }

    fn settle_clean(&self, touch: Cycle, total: u64) -> Settlement {
        match self.policy.data.clean_budget() {
            None => Settlement {
                refreshes: total,
                writeback_at: None,
                invalidated_at: None,
                final_kind: LineKind::Clean,
            },
            Some(m) => {
                let m = u64::from(m);
                let refreshes = total.min(m);
                if total > m {
                    Settlement {
                        refreshes,
                        writeback_at: None,
                        invalidated_at: Some(self.opportunity(touch, m + 1)),
                        final_kind: LineKind::Invalid,
                    }
                } else {
                    Settlement {
                        refreshes,
                        writeback_at: None,
                        invalidated_at: None,
                        final_kind: LineKind::Clean,
                    }
                }
            }
        }
    }

    fn settle_dirty(&self, touch: Cycle, total: u64) -> Settlement {
        match self.policy.data.dirty_budget() {
            None => Settlement {
                refreshes: total,
                writeback_at: None,
                invalidated_at: None,
                final_kind: LineKind::Dirty,
            },
            Some(n) => {
                let n = u64::from(n);
                let dirty_refreshes = total.min(n);
                if total < n + 1 {
                    return Settlement {
                        refreshes: dirty_refreshes,
                        writeback_at: None,
                        invalidated_at: None,
                        final_kind: LineKind::Dirty,
                    };
                }
                // The (n+1)-th opportunity writes the line back; it then
                // behaves as a clean line with a fresh clean budget.
                let writeback_at = self.opportunity(touch, n + 1);
                let remaining = total - (n + 1);
                let m = self
                    .policy
                    .data
                    .clean_budget()
                    .map(u64::from)
                    .unwrap_or(u64::MAX);
                let clean_refreshes = remaining.min(m);
                if m != u64::MAX && remaining > m {
                    Settlement {
                        refreshes: dirty_refreshes + clean_refreshes,
                        writeback_at: Some(writeback_at),
                        invalidated_at: Some(self.opportunity(touch, n + 1 + m + 1)),
                        final_kind: LineKind::Invalid,
                    }
                } else {
                    Settlement {
                        refreshes: dirty_refreshes + clean_refreshes,
                        writeback_at: Some(writeback_at),
                        invalidated_at: None,
                        final_kind: LineKind::Clean,
                    }
                }
            }
        }
    }

    /// The cycle at which an idle line of kind `kind`, last touched at
    /// `touch`, will be invalidated — or `None` if the policy never
    /// invalidates it.
    #[must_use]
    pub fn invalidation_time(&self, kind: LineKind, touch: Cycle) -> Option<Cycle> {
        match kind {
            LineKind::Invalid => None,
            LineKind::Clean => self
                .policy
                .data
                .clean_budget()
                .map(|m| self.opportunity(touch, u64::from(m) + 1)),
            LineKind::Dirty => match (
                self.policy.data.dirty_budget(),
                self.policy.data.clean_budget(),
            ) {
                (Some(n), Some(m)) => {
                    Some(self.opportunity(touch, u64::from(n) + 1 + u64::from(m) + 1))
                }
                _ => None,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{DataPolicy, TimePolicy};

    fn refrint(data: DataPolicy) -> DecaySchedule {
        DecaySchedule::new(
            RefreshPolicy::new(TimePolicy::Refrint, data),
            Cycle::new(1000),
            Cycle::new(100),
            Cycle::ZERO,
        )
    }

    fn periodic(data: DataPolicy) -> DecaySchedule {
        DecaySchedule::new(
            RefreshPolicy::new(TimePolicy::Periodic, data),
            Cycle::new(1000),
            Cycle::new(100),
            Cycle::ZERO,
        )
    }

    #[test]
    fn refrint_opportunities_follow_the_touch() {
        let s = refrint(DataPolicy::Valid);
        // Sentry period = 900.
        assert_eq!(s.opportunity(Cycle::new(50), 1), Cycle::new(950));
        assert_eq!(s.opportunity(Cycle::new(50), 3), Cycle::new(2750));
        assert_eq!(s.opportunities_between(Cycle::new(50), Cycle::new(949)), 0);
        assert_eq!(s.opportunities_between(Cycle::new(50), Cycle::new(950)), 1);
        assert_eq!(s.opportunities_between(Cycle::new(50), Cycle::new(2750)), 3);
    }

    #[test]
    fn periodic_opportunities_are_global_boundaries() {
        let s = periodic(DataPolicy::Valid);
        // Boundaries at 1000, 2000, 3000 ... regardless of the touch time.
        assert_eq!(s.opportunity(Cycle::new(50), 1), Cycle::new(1000));
        assert_eq!(s.opportunity(Cycle::new(999), 1), Cycle::new(1000));
        assert_eq!(s.opportunity(Cycle::new(1000), 1), Cycle::new(2000));
        assert_eq!(s.opportunity(Cycle::new(50), 2), Cycle::new(2000));
        assert_eq!(
            s.opportunities_between(Cycle::new(999), Cycle::new(3000)),
            3
        );
    }

    #[test]
    fn periodic_offset_staggers_boundaries() {
        let s = DecaySchedule::new(
            RefreshPolicy::new(TimePolicy::Periodic, DataPolicy::Valid),
            Cycle::new(1000),
            Cycle::new(0),
            Cycle::new(250),
        );
        assert_eq!(s.opportunity(Cycle::new(0), 1), Cycle::new(1250));
        assert_eq!(s.opportunity(Cycle::new(1250), 1), Cycle::new(2250));
        assert_eq!(s.opportunity(Cycle::new(1300), 1), Cycle::new(2250));
    }

    #[test]
    fn periodic_refreshes_a_just_touched_line_refrint_does_not() {
        // This is the key wastefulness of Periodic that the paper calls out:
        // a line touched just before a boundary is refreshed immediately.
        let p = periodic(DataPolicy::Valid);
        let r = refrint(DataPolicy::Valid);
        let touch = Cycle::new(999);
        let until = Cycle::new(1100);
        assert_eq!(p.settle(LineKind::Clean, touch, until).refreshes, 1);
        assert_eq!(r.settle(LineKind::Clean, touch, until).refreshes, 0);
    }

    #[test]
    fn valid_policy_refreshes_forever_without_evicting() {
        let s = refrint(DataPolicy::Valid);
        let out = s.settle(LineKind::Clean, Cycle::ZERO, Cycle::new(90_000));
        assert_eq!(out.refreshes, 100);
        assert_eq!(out.writeback_at, None);
        assert_eq!(out.invalidated_at, None);
        assert_eq!(out.final_kind, LineKind::Clean);
        let out = s.settle(LineKind::Dirty, Cycle::ZERO, Cycle::new(90_000));
        assert_eq!(out.refreshes, 100);
        assert_eq!(out.final_kind, LineKind::Dirty);
    }

    #[test]
    fn dirty_policy_invalidates_clean_lines_at_first_opportunity() {
        let s = refrint(DataPolicy::Dirty);
        let out = s.settle(LineKind::Clean, Cycle::ZERO, Cycle::new(10_000));
        assert_eq!(out.refreshes, 0);
        assert_eq!(out.invalidated_at, Some(Cycle::new(900)));
        assert_eq!(out.final_kind, LineKind::Invalid);
        // Dirty lines are refreshed forever under Dirty.
        let out = s.settle(LineKind::Dirty, Cycle::ZERO, Cycle::new(10_000));
        assert_eq!(out.invalidated_at, None);
        assert_eq!(out.final_kind, LineKind::Dirty);
    }

    #[test]
    fn wb_policy_dirty_line_lifecycle() {
        // WB(2,3), sentry period 900: refreshes at 900, 1800; write-back at
        // 2700; clean refreshes at 3600, 4500, 5400; invalidation at 6300.
        let s = refrint(DataPolicy::write_back(2, 3));
        let full = s.settle(LineKind::Dirty, Cycle::ZERO, Cycle::new(100_000));
        assert_eq!(full.refreshes, 2 + 3);
        assert_eq!(full.writeback_at, Some(Cycle::new(2700)));
        assert_eq!(full.invalidated_at, Some(Cycle::new(6300)));
        assert_eq!(full.final_kind, LineKind::Invalid);

        // Truncated before the write-back.
        let early = s.settle(LineKind::Dirty, Cycle::ZERO, Cycle::new(2000));
        assert_eq!(early.refreshes, 2);
        assert_eq!(early.writeback_at, None);
        assert_eq!(early.final_kind, LineKind::Dirty);

        // Truncated between write-back and invalidation.
        let mid = s.settle(LineKind::Dirty, Cycle::ZERO, Cycle::new(4000));
        assert_eq!(mid.refreshes, 3);
        assert_eq!(mid.writeback_at, Some(Cycle::new(2700)));
        assert_eq!(mid.invalidated_at, None);
        assert_eq!(mid.final_kind, LineKind::Clean);
    }

    #[test]
    fn wb_policy_clean_line_lifecycle() {
        let s = refrint(DataPolicy::write_back(2, 3));
        let full = s.settle(LineKind::Clean, Cycle::ZERO, Cycle::new(100_000));
        assert_eq!(full.refreshes, 3);
        assert_eq!(full.writeback_at, None);
        assert_eq!(full.invalidated_at, Some(Cycle::new(3600)));
        assert_eq!(full.final_kind, LineKind::Invalid);
    }

    #[test]
    fn wb_0_0_discards_immediately() {
        let s = refrint(DataPolicy::write_back(0, 0));
        let dirty = s.settle(LineKind::Dirty, Cycle::ZERO, Cycle::new(100_000));
        assert_eq!(dirty.refreshes, 0);
        assert_eq!(dirty.writeback_at, Some(Cycle::new(900)));
        assert_eq!(dirty.invalidated_at, Some(Cycle::new(1800)));
        let clean = s.settle(LineKind::Clean, Cycle::ZERO, Cycle::new(100_000));
        assert_eq!(clean.refreshes, 0);
        assert_eq!(clean.invalidated_at, Some(Cycle::new(900)));
    }

    #[test]
    fn dirty_equals_wb_inf_0_and_valid_equals_wb_inf_inf() {
        let horizon = Cycle::new(500_000);
        let dirty_policy = refrint(DataPolicy::Dirty);
        let wb_inf_0 = refrint(DataPolicy::write_back(u32::MAX, 0));
        let valid = refrint(DataPolicy::Valid);
        let wb_inf_inf = refrint(DataPolicy::write_back(u32::MAX, u32::MAX));
        for kind in [LineKind::Dirty, LineKind::Clean] {
            // With budgets far beyond the horizon, the settlements coincide.
            let a = dirty_policy.settle(kind, Cycle::ZERO, horizon);
            let b = wb_inf_0.settle(kind, Cycle::ZERO, horizon);
            assert_eq!(a, b, "Dirty vs WB(inf,0) for {kind:?}");
            let a = valid.settle(kind, Cycle::ZERO, horizon);
            let b = wb_inf_inf.settle(kind, Cycle::ZERO, horizon);
            assert_eq!(a, b, "Valid vs WB(inf,inf) for {kind:?}");
        }
    }

    #[test]
    fn invalid_lines_only_refreshed_under_all() {
        let all = refrint(DataPolicy::All);
        let valid = refrint(DataPolicy::Valid);
        let out = all.settle(LineKind::Invalid, Cycle::ZERO, Cycle::new(9_000));
        assert_eq!(out.refreshes, 10);
        let out = valid.settle(LineKind::Invalid, Cycle::ZERO, Cycle::new(9_000));
        assert_eq!(out.refreshes, 0);
    }

    #[test]
    fn empty_interval_settles_to_nothing() {
        let s = refrint(DataPolicy::write_back(4, 4));
        for kind in [LineKind::Dirty, LineKind::Clean, LineKind::Invalid] {
            let out = s.settle(kind, Cycle::new(100), Cycle::new(100));
            assert_eq!(out, Settlement::nothing(kind));
            let out = s.settle(kind, Cycle::new(100), Cycle::new(50));
            assert_eq!(out, Settlement::nothing(kind));
        }
    }

    #[test]
    fn invalidation_time_matches_settlement() {
        let s = refrint(DataPolicy::write_back(4, 4));
        let t = s.invalidation_time(LineKind::Dirty, Cycle::ZERO).unwrap();
        let settled = s.settle(LineKind::Dirty, Cycle::ZERO, t);
        assert_eq!(settled.invalidated_at, Some(t));
        assert_eq!(
            s.invalidation_time(LineKind::Clean, Cycle::ZERO).unwrap(),
            Cycle::new(900 * 5)
        );
        assert_eq!(s.invalidation_time(LineKind::Invalid, Cycle::ZERO), None);
        assert_eq!(
            refrint(DataPolicy::Valid).invalidation_time(LineKind::Dirty, Cycle::ZERO),
            None
        );
        // Dirty policy never invalidates dirty lines but kills clean ones.
        assert_eq!(
            refrint(DataPolicy::Dirty).invalidation_time(LineKind::Dirty, Cycle::ZERO),
            None
        );
        assert_eq!(
            refrint(DataPolicy::Dirty).invalidation_time(LineKind::Clean, Cycle::ZERO),
            Some(Cycle::new(900))
        );
    }

    #[test]
    fn refrint_never_refreshes_more_than_periodic_needs_for_idle_lines() {
        // Over a long window an idle line is refreshed every sentry period
        // under Refrint (slightly more often than every retention period) —
        // but Periodic additionally refreshes lines right after they are
        // touched. For a line touched frequently, Refrint does strictly
        // better. Here: touch every 800 cycles < sentry period, so Refrint
        // performs zero refreshes while Periodic still refreshes each period.
        let p = periodic(DataPolicy::Valid);
        let r = refrint(DataPolicy::Valid);
        let mut p_total = 0;
        let mut r_total = 0;
        let mut touch = Cycle::ZERO;
        while touch < Cycle::new(50_000) {
            let next = touch + Cycle::new(800);
            p_total += p.settle(LineKind::Clean, touch, next).refreshes;
            r_total += r.settle(LineKind::Clean, touch, next).refreshes;
            touch = next;
        }
        assert_eq!(r_total, 0);
        assert!(p_total >= 49);
    }

    #[test]
    #[should_panic(expected = "margin must be smaller")]
    fn margin_larger_than_retention_panics() {
        let _ = DecaySchedule::new(
            RefreshPolicy::default(),
            Cycle::new(100),
            Cycle::new(100),
            Cycle::ZERO,
        );
    }
}
