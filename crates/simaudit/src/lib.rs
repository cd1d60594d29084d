//! # simaudit — runtime invariant auditor
//!
//! Conservation-law and sanity checking for the helmsim executors.
//! The simulator's correctness rests on a handful of invariants that
//! no single unit test can pin down globally:
//!
//! * **byte conservation** — every byte scheduled on a transfer path
//!   is eventually delivered or explicitly dropped ([`ByteLedger`]);
//! * **time monotonicity** — simulated clocks never run backwards
//!   ([`Auditor::observe_time`], plus the event-loop check that
//!   reports [`simcore::SimError`]);
//! * **unit sanity** — durations and bandwidths stay finite and
//!   non-negative ([`Auditor::check_duration`],
//!   [`Auditor::check_bandwidth`]);
//! * **placement feasibility** — percent splits sum to 100 and tier
//!   capacities are never exceeded ([`Auditor::check_percent_split`],
//!   [`Auditor::check_tier_capacity`]).
//!
//! An [`Auditor`] is cheap to create and no-ops entirely when auditing
//! is disabled ([`enabled`]); it is on by default in debug builds and
//! can be forced on in release builds (the CLI's `--audit` flag, via
//! [`force_enable`]). Violations are *recorded*, not panicked on, so a
//! run always completes and reports everything it found at once
//! ([`AuditReport`]).
//!
//! # Examples
//!
//! ```
//! use simaudit::Auditor;
//! use simcore::units::ByteSize;
//!
//! let mut audit = Auditor::new();
//! audit.scheduled("h2d:cpu", ByteSize::from_mb(8.0));
//! audit.delivered("h2d:cpu", ByteSize::from_mb(8.0));
//! let report = audit.finish();
//! assert!(report.is_clean());
//! ```

use simcore::time::{SimDuration, SimTime};
use simcore::units::{Bandwidth, ByteSize};
use std::collections::BTreeMap;
use std::fmt;

pub use simcore::audit::{enabled, force_enable, is_forced};

/// One byte-conservation ledger: a named transfer channel on which
/// every scheduled byte must be delivered or explicitly dropped.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ByteLedger {
    /// Bytes handed to the channel for transfer.
    pub scheduled: ByteSize,
    /// Bytes that arrived.
    pub delivered: ByteSize,
    /// Bytes intentionally abandoned (cancelled transfers).
    pub dropped: ByteSize,
}

impl ByteLedger {
    /// Bytes scheduled but neither delivered nor dropped.
    pub fn outstanding(&self) -> ByteSize {
        self.scheduled.saturating_sub(self.delivered + self.dropped)
    }

    /// Whether the ledger balances: delivered + dropped == scheduled.
    pub fn is_balanced(&self) -> bool {
        self.delivered + self.dropped == self.scheduled
    }
}

/// One request-conservation ledger: a named service channel on which
/// every enqueued request must complete or be explicitly abandoned —
/// the discrete analogue of [`ByteLedger`] for the online serving
/// layer (arrived = queued + in-flight + completed at all times, and
/// everything completes by the end of the run).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CountLedger {
    /// Requests handed to the channel.
    pub enqueued: u64,
    /// Requests that finished service.
    pub completed: u64,
    /// Requests intentionally abandoned (cancelled / shed load).
    pub abandoned: u64,
}

impl CountLedger {
    /// Requests enqueued but neither completed nor abandoned.
    pub fn outstanding(&self) -> u64 {
        self.enqueued
            .saturating_sub(self.completed + self.abandoned)
    }

    /// Whether the ledger balances: completed + abandoned == enqueued.
    pub fn is_balanced(&self) -> bool {
        self.completed + self.abandoned == self.enqueued
    }
}

/// One recorded invariant violation.
#[derive(Debug, Clone, PartialEq)]
pub enum Violation {
    /// A channel's ledger did not balance at the end of the run.
    LedgerImbalance {
        /// Channel name (e.g. `"h2d:cpu"`).
        channel: String,
        /// Final ledger state.
        ledger: ByteLedger,
    },
    /// More bytes were delivered or dropped on a channel than were
    /// ever scheduled.
    OverDelivery {
        /// Channel name.
        channel: String,
        /// Final ledger state.
        ledger: ByteLedger,
    },
    /// A clock was observed running backwards.
    TimeRegression {
        /// Which clock.
        clock: String,
        /// The previously observed instant.
        previous: SimTime,
        /// The regressed observation.
        observed: SimTime,
    },
    /// A duration was NaN or negative.
    InvalidDuration {
        /// What the duration measured.
        label: String,
        /// The offending value in seconds.
        secs: f64,
    },
    /// A bandwidth was NaN, infinite, or non-positive.
    InvalidBandwidth {
        /// What the rate described.
        label: String,
        /// The offending value in bytes/second.
        bytes_per_s: f64,
    },
    /// A (disk, cpu, gpu) percent split did not sum to 100, or a
    /// component fell outside [0, 100].
    BadPercentSplit {
        /// Which split.
        label: String,
        /// The offending (disk, cpu, gpu) percentages.
        percents: [f64; 3],
    },
    /// A tier held more bytes than its capacity.
    CapacityExceeded {
        /// Tier name.
        tier: String,
        /// Bytes placed on the tier.
        used: ByteSize,
        /// The tier's capacity.
        capacity: ByteSize,
    },
    /// A channel's request counts did not conserve: completed plus
    /// abandoned differs from enqueued at the end of the run.
    CountImbalance {
        /// Channel name (e.g. `"req:pipe0"`).
        channel: String,
        /// Final ledger state.
        ledger: CountLedger,
    },
    /// A server's accumulated busy time exceeded the wall-clock span
    /// it fit inside — a single pipeline cannot be busy for longer
    /// than it exists.
    BusyExceedsElapsed {
        /// Which busy-time ledger.
        label: String,
        /// Accumulated busy time.
        busy: SimDuration,
        /// Wall-clock span available.
        elapsed: SimDuration,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::LedgerImbalance { channel, ledger } => write!(
                f,
                "ledger imbalance on {channel}: scheduled {}, delivered {}, dropped {} ({} outstanding)",
                ledger.scheduled,
                ledger.delivered,
                ledger.dropped,
                ledger.outstanding()
            ),
            Violation::OverDelivery { channel, ledger } => write!(
                f,
                "over-delivery on {channel}: scheduled {}, delivered {}, dropped {}",
                ledger.scheduled, ledger.delivered, ledger.dropped
            ),
            Violation::TimeRegression {
                clock,
                previous,
                observed,
            } => write!(
                f,
                "clock {clock} ran backwards: {:.9}s after {:.9}s",
                observed.as_secs(),
                previous.as_secs()
            ),
            Violation::InvalidDuration { label, secs } => {
                write!(f, "invalid duration for {label}: {secs}s")
            }
            Violation::InvalidBandwidth { label, bytes_per_s } => {
                write!(f, "invalid bandwidth for {label}: {bytes_per_s} B/s")
            }
            Violation::BadPercentSplit { label, percents } => write!(
                f,
                "bad percent split for {label}: ({:.3}, {:.3}, {:.3}) sums to {:.3}",
                percents[0],
                percents[1],
                percents[2],
                percents.iter().sum::<f64>()
            ),
            Violation::CapacityExceeded {
                tier,
                used,
                capacity,
            } => write!(f, "tier {tier} over capacity: {used} placed in {capacity}"),
            Violation::CountImbalance { channel, ledger } => write!(
                f,
                "request imbalance on {channel}: enqueued {}, completed {}, abandoned {} ({} outstanding)",
                ledger.enqueued,
                ledger.completed,
                ledger.abandoned,
                ledger.outstanding()
            ),
            Violation::BusyExceedsElapsed {
                label,
                busy,
                elapsed,
            } => write!(
                f,
                "busy time for {label} exceeds the elapsed span: {:.6}s busy in {:.6}s",
                busy.as_secs(),
                elapsed.as_secs()
            ),
        }
    }
}

/// The outcome of one audited run: every channel's final ledger plus
/// every violation observed along the way.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AuditReport {
    /// Final per-channel ledgers, in channel-name order.
    pub ledgers: Vec<(String, ByteLedger)>,
    /// Final per-channel request-count ledgers, in channel-name order.
    pub counts: Vec<(String, CountLedger)>,
    /// Everything that went wrong (empty on a clean run).
    pub violations: Vec<Violation>,
}

impl AuditReport {
    /// Whether the run upheld every audited invariant.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// The final ledger of `channel`, if any bytes moved on it.
    pub fn ledger(&self, channel: &str) -> Option<&ByteLedger> {
        self.ledgers
            .iter()
            .find(|(name, _)| name == channel)
            .map(|(_, l)| l)
    }

    /// The final request-count ledger of `channel`, if any requests
    /// moved on it.
    pub fn count_ledger(&self, channel: &str) -> Option<&CountLedger> {
        self.counts
            .iter()
            .find(|(name, _)| name == channel)
            .map(|(_, l)| l)
    }

    /// Total requests completed across all count channels with the
    /// given prefix (e.g. `"req:"`).
    pub fn completed_with_prefix(&self, prefix: &str) -> u64 {
        self.counts
            .iter()
            .filter(|(name, _)| name.starts_with(prefix))
            .map(|(_, l)| l.completed)
            .sum()
    }

    /// Total requests enqueued across all count channels with the
    /// given prefix — the offered load a conservation check balances
    /// completions and abandonments against.
    pub fn enqueued_with_prefix(&self, prefix: &str) -> u64 {
        self.counts
            .iter()
            .filter(|(name, _)| name.starts_with(prefix))
            .map(|(_, l)| l.enqueued)
            .sum()
    }

    /// Total requests abandoned (rejected at admission, expired in
    /// queue, or dropped mid-flight) across all count channels with
    /// the given prefix.
    pub fn abandoned_with_prefix(&self, prefix: &str) -> u64 {
        self.counts
            .iter()
            .filter(|(name, _)| name.starts_with(prefix))
            .map(|(_, l)| l.abandoned)
            .sum()
    }

    /// Total bytes delivered across all channels with the given
    /// prefix (e.g. `"h2d:"`).
    pub fn delivered_with_prefix(&self, prefix: &str) -> ByteSize {
        self.ledgers
            .iter()
            .filter(|(name, _)| name.starts_with(prefix))
            .map(|(_, l)| l.delivered)
            .sum()
    }
}

impl fmt::Display for AuditReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "audit: {} ({} channel(s), {} violation(s))",
            if self.is_clean() { "clean" } else { "VIOLATED" },
            self.ledgers.len(),
            self.violations.len()
        )?;
        for (channel, ledger) in &self.ledgers {
            writeln!(
                f,
                "  {channel:<12} scheduled {:>12} delivered {:>12} dropped {:>10} [{}]",
                ledger.scheduled.to_string(),
                ledger.delivered.to_string(),
                ledger.dropped.to_string(),
                if ledger.is_balanced() {
                    "ok"
                } else {
                    "IMBALANCED"
                }
            )?;
        }
        for (channel, ledger) in &self.counts {
            writeln!(
                f,
                "  {channel:<12} enqueued  {:>12} completed {:>12} abandoned {:>9} [{}]",
                ledger.enqueued,
                ledger.completed,
                ledger.abandoned,
                if ledger.is_balanced() {
                    "ok"
                } else {
                    "IMBALANCED"
                }
            )?;
        }
        for v in &self.violations {
            writeln!(f, "  violation: {v}")?;
        }
        Ok(())
    }
}

/// Records invariant observations during one run.
///
/// Create with [`Auditor::capture`] in executor code (no-ops when
/// auditing is off) or [`Auditor::new`] in tests (always on). Feed it
/// observations as the run progresses and call [`Auditor::finish`] at
/// the end; un-balanced ledgers become violations there.
#[derive(Debug, Default)]
pub struct Auditor {
    active: bool,
    ledgers: BTreeMap<String, ByteLedger>,
    counts: BTreeMap<String, CountLedger>,
    clocks: BTreeMap<String, SimTime>,
    violations: Vec<Violation>,
}

impl Auditor {
    /// An always-active auditor.
    pub fn new() -> Self {
        Auditor {
            active: true,
            ..Auditor::default()
        }
    }

    /// An auditor that is active only when auditing is [`enabled`] —
    /// the constructor executor code uses. When inactive, every
    /// method is a no-op and [`Auditor::finish_if_active`] returns
    /// `None`.
    pub fn capture() -> Self {
        Auditor {
            active: enabled(),
            ..Auditor::default()
        }
    }

    /// Whether observations are being recorded.
    pub fn is_active(&self) -> bool {
        self.active
    }

    /// Records bytes handed to `channel` for transfer.
    pub fn scheduled(&mut self, channel: &str, bytes: ByteSize) {
        if !self.active {
            return;
        }
        self.ledgers
            .entry(channel.to_owned())
            .or_default()
            .scheduled += bytes;
    }

    /// Records bytes arriving on `channel`.
    pub fn delivered(&mut self, channel: &str, bytes: ByteSize) {
        if !self.active {
            return;
        }
        self.ledgers
            .entry(channel.to_owned())
            .or_default()
            .delivered += bytes;
    }

    /// Records bytes abandoned on `channel` (a cancelled transfer):
    /// they are accounted for, not lost.
    pub fn dropped(&mut self, channel: &str, bytes: ByteSize) {
        if !self.active {
            return;
        }
        self.ledgers.entry(channel.to_owned()).or_default().dropped += bytes;
    }

    /// Records `n` requests handed to service channel `channel`.
    pub fn enqueued(&mut self, channel: &str, n: u64) {
        if !self.active {
            return;
        }
        self.counts.entry(channel.to_owned()).or_default().enqueued += n;
    }

    /// Records `n` requests finishing service on `channel`.
    pub fn completed(&mut self, channel: &str, n: u64) {
        if !self.active {
            return;
        }
        self.counts.entry(channel.to_owned()).or_default().completed += n;
    }

    /// Records `n` requests abandoned on `channel` (cancelled or shed
    /// load): they are accounted for, not lost.
    pub fn abandoned(&mut self, channel: &str, n: u64) {
        if !self.active {
            return;
        }
        self.counts.entry(channel.to_owned()).or_default().abandoned += n;
    }

    /// Checks a busy-time ledger against the wall-clock span it must
    /// fit inside (a small relative tolerance absorbs floating-point
    /// accumulation).
    pub fn check_busy_time(&mut self, label: &str, busy: SimDuration, elapsed: SimDuration) {
        if !self.active {
            return;
        }
        if busy.as_secs() > elapsed.as_secs() * (1.0 + 1e-9) + 1e-12 {
            self.violations.push(Violation::BusyExceedsElapsed {
                label: label.to_owned(),
                busy,
                elapsed,
            });
        }
    }

    /// Observes `clock` at instant `now`, recording a violation if it
    /// moved backwards since the previous observation.
    pub fn observe_time(&mut self, clock: &str, now: SimTime) {
        if !self.active {
            return;
        }
        match self.clocks.get_mut(clock) {
            Some(prev) if now < *prev => {
                let previous = *prev;
                self.violations.push(Violation::TimeRegression {
                    clock: clock.to_owned(),
                    previous,
                    observed: now,
                });
            }
            Some(prev) => *prev = now,
            None => {
                self.clocks.insert(clock.to_owned(), now);
            }
        }
    }

    /// Checks a duration for NaN/negative values. The
    /// [`SimDuration::INFINITY`] sentinel is deliberately allowed.
    pub fn check_duration(&mut self, label: &str, d: SimDuration) {
        if !self.active {
            return;
        }
        let secs = d.as_secs();
        if secs.is_nan() || secs < 0.0 {
            self.violations.push(Violation::InvalidDuration {
                label: label.to_owned(),
                secs,
            });
        }
    }

    /// Checks a bandwidth for NaN/infinite/non-positive rates.
    pub fn check_bandwidth(&mut self, label: &str, bw: Bandwidth) {
        if !self.active {
            return;
        }
        let bps = bw.as_bytes_per_s();
        if !bps.is_finite() || bps <= 0.0 {
            self.violations.push(Violation::InvalidBandwidth {
                label: label.to_owned(),
                bytes_per_s: bps,
            });
        }
    }

    /// Checks a (disk, cpu, gpu) percent split: each component in
    /// [0, 100] and the total within `0.5` of 100 (placement math is
    /// floating-point; achieved splits carry rounding).
    pub fn check_percent_split(&mut self, label: &str, percents: [f64; 3]) {
        if !self.active {
            return;
        }
        let sum: f64 = percents.iter().sum();
        let components_ok = percents
            .iter()
            .all(|p| p.is_finite() && (-1e-9..=100.0 + 1e-9).contains(p));
        if !components_ok || (sum - 100.0).abs() > 0.5 {
            self.violations.push(Violation::BadPercentSplit {
                label: label.to_owned(),
                percents,
            });
        }
    }

    /// Checks that a tier's placed bytes fit its capacity.
    pub fn check_tier_capacity(&mut self, tier: &str, used: ByteSize, capacity: ByteSize) {
        if !self.active {
            return;
        }
        if used > capacity {
            self.violations.push(Violation::CapacityExceeded {
                tier: tier.to_owned(),
                used,
                capacity,
            });
        }
    }

    /// Closes the books: un-balanced ledgers become violations and
    /// everything recorded is returned.
    pub fn finish(self) -> AuditReport {
        let mut violations = self.violations;
        let mut ledgers = Vec::with_capacity(self.ledgers.len());
        for (channel, ledger) in self.ledgers {
            if ledger.delivered + ledger.dropped > ledger.scheduled {
                violations.push(Violation::OverDelivery {
                    channel: channel.clone(),
                    ledger,
                });
            } else if !ledger.is_balanced() {
                violations.push(Violation::LedgerImbalance {
                    channel: channel.clone(),
                    ledger,
                });
            }
            ledgers.push((channel, ledger));
        }
        let mut counts = Vec::with_capacity(self.counts.len());
        for (channel, ledger) in self.counts {
            if !ledger.is_balanced() {
                violations.push(Violation::CountImbalance {
                    channel: channel.clone(),
                    ledger,
                });
            }
            counts.push((channel, ledger));
        }
        AuditReport {
            ledgers,
            counts,
            violations,
        }
    }

    /// Like [`Auditor::finish`], but `None` for an inactive auditor —
    /// what executors store into their run reports.
    pub fn finish_if_active(self) -> Option<AuditReport> {
        if self.active {
            Some(self.finish())
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mb(x: f64) -> ByteSize {
        ByteSize::from_mb(x)
    }

    #[test]
    fn balanced_ledger_is_clean() {
        let mut a = Auditor::new();
        a.scheduled("h2d:cpu", mb(10.0));
        a.delivered("h2d:cpu", mb(6.0));
        a.delivered("h2d:cpu", mb(4.0));
        let report = a.finish();
        assert!(report.is_clean(), "{report}");
        assert!(report.ledger("h2d:cpu").unwrap().is_balanced());
    }

    #[test]
    fn outstanding_bytes_are_an_imbalance() {
        let mut a = Auditor::new();
        a.scheduled("h2d:disk", mb(10.0));
        a.delivered("h2d:disk", mb(7.0));
        let report = a.finish();
        assert!(!report.is_clean());
        assert!(matches!(
            &report.violations[0],
            Violation::LedgerImbalance { channel, ledger }
                if channel == "h2d:disk" && ledger.outstanding() == mb(3.0)
        ));
    }

    #[test]
    fn dropped_bytes_balance_the_ledger() {
        let mut a = Auditor::new();
        a.scheduled("d2h:kv", mb(5.0));
        a.delivered("d2h:kv", mb(3.0));
        a.dropped("d2h:kv", mb(2.0));
        assert!(a.finish().is_clean());
    }

    #[test]
    fn over_delivery_is_flagged() {
        let mut a = Auditor::new();
        a.scheduled("h2d:kv", mb(1.0));
        a.delivered("h2d:kv", mb(2.0));
        let report = a.finish();
        assert!(matches!(
            &report.violations[0],
            Violation::OverDelivery { channel, .. } if channel == "h2d:kv"
        ));
    }

    #[test]
    fn clocks_must_be_monotone() {
        let mut a = Auditor::new();
        a.observe_time("des", SimTime::from_secs(1.0));
        a.observe_time("des", SimTime::from_secs(2.0));
        a.observe_time("des", SimTime::from_secs(1.5));
        let report = a.finish();
        assert_eq!(report.violations.len(), 1);
        assert!(matches!(
            &report.violations[0],
            Violation::TimeRegression { clock, .. } if clock == "des"
        ));
    }

    #[test]
    fn unit_guards_catch_nan_and_nonpositive() {
        let mut a = Auditor::new();
        a.check_duration("step", SimDuration::from_secs(0.25));
        a.check_duration("step", SimDuration::INFINITY); // sentinel: allowed
        a.check_bandwidth("link", Bandwidth::from_gb_per_s(32.0));
        let report = a.finish();
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn percent_split_checks_sum_and_range() {
        let mut a = Auditor::new();
        a.check_percent_split("ok", [20.0, 70.0, 10.0]);
        a.check_percent_split("rounded", [19.9, 70.2, 10.0]);
        a.check_percent_split("short", [20.0, 20.0, 10.0]);
        a.check_percent_split("negative", [-10.0, 100.0, 10.0]);
        let report = a.finish();
        assert_eq!(report.violations.len(), 2);
    }

    #[test]
    fn capacity_check_flags_overflow_only() {
        let mut a = Auditor::new();
        a.check_tier_capacity("cpu", mb(100.0), mb(100.0));
        a.check_tier_capacity("gpu", mb(101.0), mb(100.0));
        let report = a.finish();
        assert_eq!(report.violations.len(), 1);
        assert!(matches!(
            &report.violations[0],
            Violation::CapacityExceeded { tier, .. } if tier == "gpu"
        ));
    }

    #[test]
    fn inactive_auditor_records_nothing() {
        let mut a = Auditor {
            active: false,
            ..Auditor::default()
        };
        a.scheduled("h2d:cpu", mb(10.0));
        a.observe_time("des", SimTime::from_secs(1.0));
        assert!(a.finish_if_active().is_none());
    }

    #[test]
    fn balanced_request_counts_are_clean() {
        let mut a = Auditor::new();
        a.enqueued("req:pipe0", 10);
        a.completed("req:pipe0", 8);
        a.abandoned("req:pipe0", 2);
        let report = a.finish();
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.count_ledger("req:pipe0").unwrap().outstanding(), 0);
        assert_eq!(report.completed_with_prefix("req:"), 8);
    }

    #[test]
    fn prefix_sums_cover_the_abandoned_path() {
        // Conservation with admission control in play: everything
        // offered is either completed or abandoned, across channels.
        let mut a = Auditor::new();
        a.enqueued("req:pipe0", 10);
        a.completed("req:pipe0", 7);
        a.abandoned("req:pipe0", 3);
        a.enqueued("req:pipe1", 4);
        a.completed("req:pipe1", 4);
        let report = a.finish();
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.enqueued_with_prefix("req:"), 14);
        assert_eq!(report.abandoned_with_prefix("req:"), 3);
        assert_eq!(
            report.enqueued_with_prefix("req:"),
            report.completed_with_prefix("req:") + report.abandoned_with_prefix("req:")
        );
    }

    #[test]
    fn outstanding_requests_are_an_imbalance() {
        let mut a = Auditor::new();
        a.enqueued("req:pipe1", 5);
        a.completed("req:pipe1", 3);
        let report = a.finish();
        assert!(!report.is_clean());
        assert!(matches!(
            &report.violations[0],
            Violation::CountImbalance { channel, ledger }
                if channel == "req:pipe1" && ledger.outstanding() == 2
        ));
        assert!(report.to_string().contains("req:pipe1"));
    }

    /// Million-request-scale guard: counts past `u32::MAX` — fed both
    /// as one large increment and as many batched increments whose sum
    /// exceeds 32 bits — must stay exact end to end. A 32-bit counter
    /// anywhere on this path would wrap and either false-positive an
    /// imbalance or, worse, silently balance a corrupted ledger.
    #[test]
    fn ledgers_stay_exact_past_u32_counts() {
        let big = u64::from(u32::MAX) + 7;
        let mut a = Auditor::new();
        a.enqueued("req:pipe0", big);
        a.completed("req:pipe0", big - 3);
        a.abandoned("req:pipe0", 3);
        let report = a.finish();
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.enqueued_with_prefix("req:"), big);
        assert_eq!(report.completed_with_prefix("req:"), big - 3);

        let step = u64::from(u32::MAX) / 2;
        let batches = 64u64;
        let mut b = Auditor::new();
        for _ in 0..batches {
            b.enqueued("req:pipe1", step);
            b.completed("req:pipe1", step);
        }
        let report = b.finish();
        assert!(report.is_clean(), "{report}");
        let total = step * batches;
        assert!(total > u64::from(u32::MAX));
        assert_eq!(report.count_ledger("req:pipe1").unwrap().enqueued, total);
        assert_eq!(report.count_ledger("req:pipe1").unwrap().completed, total);
    }

    #[test]
    fn busy_time_must_fit_the_elapsed_span() {
        let mut a = Auditor::new();
        a.check_busy_time(
            "pipe0",
            SimDuration::from_secs(5.0),
            SimDuration::from_secs(5.0),
        );
        a.check_busy_time(
            "pipe1",
            SimDuration::from_secs(6.0),
            SimDuration::from_secs(5.0),
        );
        let report = a.finish();
        assert_eq!(report.violations.len(), 1);
        assert!(matches!(
            &report.violations[0],
            Violation::BusyExceedsElapsed { label, .. } if label == "pipe1"
        ));
    }

    #[test]
    fn report_aggregates_by_prefix_and_renders() {
        let mut a = Auditor::new();
        a.scheduled("h2d:cpu", mb(4.0));
        a.delivered("h2d:cpu", mb(4.0));
        a.scheduled("h2d:kv", mb(2.0));
        a.delivered("h2d:kv", mb(2.0));
        a.scheduled("d2h:kv", mb(1.0));
        a.delivered("d2h:kv", mb(1.0));
        let report = a.finish();
        assert_eq!(report.delivered_with_prefix("h2d:"), mb(6.0));
        let text = report.to_string();
        assert!(text.contains("clean") && text.contains("h2d:cpu"));
    }
}
