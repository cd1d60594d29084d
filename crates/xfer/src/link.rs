//! Shared-link scheduling with per-flow rate caps.
//!
//! PCIe serves concurrent DMA transfers (weight loads, KV movement,
//! hidden-state hops) by sharing link bandwidth — but each transfer is
//! also individually capped by its source device (a weight load out of
//! Optane cannot exceed ~20 GB/s no matter how idle the link is).
//!
//! [`CappedLink`] implements *water-filling* processor sharing: link
//! capacity is distributed fairly, and any flow whose fair share
//! exceeds its cap is clamped, with the slack redistributed among the
//! remaining flows. The model is analytic — rates are piecewise
//! constant between arrival/departure events, so a caller only needs
//! `next_completion`.

use simcore::time::{SimDuration, SimTime};
use simcore::units::Bandwidth;
use std::collections::BTreeMap;

/// Identifier of an active transfer on one [`CappedLink`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TransferId(u64);

#[derive(Debug, Clone)]
struct ActiveFlow {
    remaining: f64,
    cap: f64,
}

/// A bandwidth-shared link whose flows carry individual rate caps.
///
/// # Examples
///
/// A capped flow cannot be sped up by an idle link:
///
/// ```
/// use xfer::link::CappedLink;
/// use simcore::units::Bandwidth;
/// use simcore::SimTime;
///
/// let mut link = CappedLink::new(Bandwidth::from_gb_per_s(25.0));
/// let slow = link.start(
///     SimTime::ZERO,
///     20e9, // 20 GB
///     Bandwidth::from_gb_per_s(20.0), // Optane-capped
/// );
/// let (done, id) = link.next_completion(SimTime::ZERO).unwrap();
/// assert_eq!(id, slow);
/// assert!((done.as_secs() - 1.0).abs() < 1e-9);
/// ```
#[derive(Debug)]
pub struct CappedLink {
    capacity: f64,
    // BTreeMap, not HashMap: iteration order reaches rate and
    // progress arithmetic, and hash order would make it
    // run-dependent.
    flows: BTreeMap<TransferId, ActiveFlow>,
    last_update: SimTime,
    next_id: u64,
}

impl CappedLink {
    /// Creates a link with the given capacity.
    pub fn new(capacity: Bandwidth) -> Self {
        CappedLink {
            capacity: capacity.as_bytes_per_s(),
            flows: BTreeMap::new(),
            last_update: SimTime::ZERO,
            next_id: 0,
        }
    }

    /// Link capacity.
    pub fn capacity(&self) -> Bandwidth {
        Bandwidth::from_bytes_per_s(self.capacity)
    }

    /// Number of in-flight transfers.
    pub fn active(&self) -> usize {
        self.flows.len()
    }

    /// Starts a transfer of `bytes` whose rate never exceeds `cap`.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is negative/NaN or `now` precedes the last
    /// update.
    // lint: allow(untyped-unit-fn): fluid-flow model — fractional byte counts are meaningful, so `bytes` stays f64
    pub fn start(&mut self, now: SimTime, bytes: f64, cap: Bandwidth) -> TransferId {
        assert!(bytes >= 0.0 && !bytes.is_nan(), "invalid bytes: {bytes}");
        self.advance_to(now);
        let id = TransferId(self.next_id);
        self.next_id += 1;
        self.flows.insert(
            id,
            ActiveFlow {
                remaining: bytes,
                cap: cap.as_bytes_per_s(),
            },
        );
        id
    }

    /// Current per-flow rates under water-filling.
    pub fn rates(&self) -> BTreeMap<TransferId, Bandwidth> {
        self.compute_rates()
            .into_iter()
            .map(|(id, r)| (id, Bandwidth::from_bytes_per_s(r.max(f64::MIN_POSITIVE))))
            .collect()
    }

    fn compute_rates(&self) -> BTreeMap<TransferId, f64> {
        let mut rates: BTreeMap<TransferId, f64> = BTreeMap::new();
        if self.flows.is_empty() {
            return rates;
        }
        // Water-filling: repeatedly hand every unassigned flow an
        // equal share; flows whose cap is below the share are clamped
        // and their slack returned to the pool.
        let mut unassigned: Vec<(TransferId, f64)> =
            self.flows.iter().map(|(&id, f)| (id, f.cap)).collect();
        unassigned.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        let mut remaining_capacity = self.capacity;
        let mut i = 0;
        while i < unassigned.len() {
            let n_left = (unassigned.len() - i) as f64;
            let fair = remaining_capacity / n_left;
            let (id, cap) = unassigned[i];
            if cap <= fair {
                rates.insert(id, cap);
                remaining_capacity -= cap;
                i += 1;
            } else {
                // Every remaining flow has cap > fair share: all get
                // the fair share.
                for &(id, _) in &unassigned[i..] {
                    rates.insert(id, fair);
                }
                return rates;
            }
        }
        rates
    }

    /// The next transfer to finish, or `None` when idle.
    pub fn next_completion(&self, now: SimTime) -> Option<(SimTime, TransferId)> {
        if self.flows.is_empty() {
            return None;
        }
        debug_assert!(now >= self.last_update);
        let elapsed = (now - self.last_update).as_secs();
        let rates = self.compute_rates();
        let mut best: Option<(f64, TransferId)> = None;
        for (&id, flow) in &self.flows {
            let rate = rates[&id];
            let progressed = (rate * elapsed).min(flow.remaining);
            let remaining = flow.remaining - progressed;
            let finish_in = if rate > 0.0 {
                remaining / rate
            } else {
                f64::INFINITY
            };
            best = Some(match best {
                None => (finish_in, id),
                Some(b) if finish_in < b.0 || (finish_in == b.0 && id < b.1) => (finish_in, id),
                Some(b) => b,
            });
        }
        let (finish_in, id) = best.expect("non-empty"); // lint: allow(no-panic): loop above ran over a non-empty map, so `best` is set
        Some((now + SimDuration::from_secs(finish_in.max(0.0)), id))
    }

    /// Runs the link dry from `from`: repeatedly takes the next
    /// completion, removes it, and reports it to `on_complete` in
    /// completion order, returning the instant the last transfer
    /// finished (`from` when the link was already idle). The loop is
    /// the exact `next_completion`/`complete` sequence an event-driven
    /// caller would issue, one call per step — coalescing it here
    /// keeps the f64 water-filling arithmetic identical while sparing
    /// the caller a scheduler round-trip per transfer.
    pub fn drain(
        &mut self,
        from: SimTime,
        mut on_complete: impl FnMut(SimTime, TransferId),
    ) -> SimTime {
        let mut t = from;
        while let Some((at, id)) = self.next_completion(t) {
            t = at;
            self.complete(t, id);
            on_complete(t, id);
        }
        t
    }

    /// Declares `id` complete at `now`, removing it.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not active.
    pub fn complete(&mut self, now: SimTime, id: TransferId) {
        self.advance_to(now);
        self.flows.remove(&id).expect("unknown transfer id"); // lint: allow(no-panic): structural invariant — ids are issued by this link itself
    }

    /// Cancels `id` at `now`, returning the bytes it had left to
    /// move. Progress up to `now` counts as transferred; the returned
    /// remainder is what a conservation ledger must account as
    /// dropped rather than delivered.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not active.
    pub fn cancel(&mut self, now: SimTime, id: TransferId) -> f64 {
        self.advance_to(now);
        let flow = self.flows.remove(&id);
        assert!(flow.is_some(), "unknown transfer id");
        flow.map_or(0.0, |f| f.remaining)
    }

    fn advance_to(&mut self, now: SimTime) {
        assert!(now >= self.last_update, "link time went backwards");
        let elapsed = (now - self.last_update).as_secs();
        self.last_update = now;
        if elapsed == 0.0 || self.flows.is_empty() {
            return;
        }
        let rates = self.compute_rates();
        for (id, flow) in self.flows.iter_mut() {
            let progressed = (rates[id] * elapsed).min(flow.remaining);
            flow.remaining -= progressed;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn gbps(x: f64) -> Bandwidth {
        Bandwidth::from_gb_per_s(x)
    }

    #[test]
    fn uncapped_flows_share_fairly() {
        let mut link = CappedLink::new(gbps(20.0));
        let a = link.start(t(0.0), 10e9, gbps(100.0));
        let _b = link.start(t(0.0), 10e9, gbps(100.0));
        // Each gets 10 GB/s -> 1 s for 10 GB.
        let (done, first) = link.next_completion(t(0.0)).unwrap();
        assert_eq!(first, a);
        assert!((done.as_secs() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn capped_flow_leaves_slack_to_others() {
        let mut link = CappedLink::new(gbps(25.0));
        // Optane-fed flow capped at 5 GB/s; DRAM-fed flow can take 20.
        let slow = link.start(t(0.0), 5e9, gbps(5.0));
        let fast = link.start(t(0.0), 20e9, gbps(100.0));
        let rates = link.rates();
        assert!((rates[&slow].as_gb_per_s() - 5.0).abs() < 1e-9);
        assert!((rates[&fast].as_gb_per_s() - 20.0).abs() < 1e-9);
        let (done, id) = link.next_completion(t(0.0)).unwrap();
        // Both finish at t=1.0; the lower id wins ties.
        assert_eq!(id, slow);
        assert!((done.as_secs() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn departure_speeds_up_survivors() {
        let mut link = CappedLink::new(gbps(20.0));
        let a = link.start(t(0.0), 5e9, gbps(100.0));
        let b = link.start(t(0.0), 20e9, gbps(100.0));
        // Shared 10/10: a finishes at 0.5 s with b holding 15 GB.
        let (ta, fa) = link.next_completion(t(0.0)).unwrap();
        assert_eq!(fa, a);
        assert!((ta.as_secs() - 0.5).abs() < 1e-9);
        link.complete(ta, a);
        // b now runs at 20 GB/s: 15 GB -> 0.75 s more.
        let (tb, fb) = link.next_completion(ta).unwrap();
        assert_eq!(fb, b);
        assert!((tb.as_secs() - 1.25).abs() < 1e-9);
    }

    #[test]
    fn single_capped_flow_ignores_idle_capacity() {
        let mut link = CappedLink::new(gbps(25.0));
        let id = link.start(t(0.0), 10e9, gbps(2.0));
        let (done, got) = link.next_completion(t(0.0)).unwrap();
        assert_eq!(got, id);
        assert!((done.as_secs() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn water_filling_conserves_capacity() {
        let mut link = CappedLink::new(gbps(30.0));
        let _a = link.start(t(0.0), 1e9, gbps(4.0));
        let _b = link.start(t(0.0), 1e9, gbps(8.0));
        let _c = link.start(t(0.0), 1e9, gbps(100.0));
        let total: f64 = link.rates().values().map(|r| r.as_gb_per_s()).sum();
        // 4 + 8 + 18 = 30: fully used.
        assert!((total - 30.0).abs() < 1e-9);
    }

    #[test]
    fn caps_below_fair_share_redistribute() {
        let mut link = CappedLink::new(gbps(30.0));
        let a = link.start(t(0.0), 1e9, gbps(3.0));
        let b = link.start(t(0.0), 1e9, gbps(100.0));
        let c = link.start(t(0.0), 1e9, gbps(100.0));
        let rates = link.rates();
        assert!((rates[&a].as_gb_per_s() - 3.0).abs() < 1e-9);
        assert!((rates[&b].as_gb_per_s() - 13.5).abs() < 1e-9);
        assert!((rates[&c].as_gb_per_s() - 13.5).abs() < 1e-9);
    }

    #[test]
    fn drain_replays_the_stepwise_completion_sequence() {
        let mk = || {
            let mut link = CappedLink::new(gbps(25.0));
            link.start(t(0.0), 5e9, gbps(5.0));
            link.start(t(0.0), 20e9, gbps(100.0));
            link.start(t(0.0), 1e9, gbps(2.0));
            link
        };
        // Reference: the manual next_completion/complete loop.
        let mut stepwise = mk();
        let mut expected = Vec::new();
        let mut tt = t(0.0);
        while let Some((at, id)) = stepwise.next_completion(tt) {
            tt = at;
            stepwise.complete(tt, id);
            expected.push((at.as_secs().to_bits(), id));
        }
        let mut coalesced = mk();
        let mut got = Vec::new();
        let end = coalesced.drain(t(0.0), |at, id| got.push((at.as_secs().to_bits(), id)));
        assert_eq!(got, expected);
        assert_eq!(end.as_secs().to_bits(), tt.as_secs().to_bits());
        assert_eq!(coalesced.active(), 0);
        // Idle drain is a no-op anchored at `from`.
        assert_eq!(coalesced.drain(end, |_, _| unreachable!()), end);
    }

    #[test]
    fn idle_link_reports_none() {
        let link = CappedLink::new(gbps(1.0));
        assert!(link.next_completion(SimTime::ZERO).is_none());
        assert_eq!(link.active(), 0);
    }

    #[test]
    #[should_panic(expected = "unknown transfer id")]
    fn completing_unknown_panics() {
        let mut link = CappedLink::new(gbps(1.0));
        link.complete(SimTime::ZERO, TransferId(3));
    }

    #[test]
    fn cancel_returns_the_unmoved_remainder() {
        let mut link = CappedLink::new(gbps(20.0));
        let a = link.start(t(0.0), 10e9, gbps(100.0));
        let b = link.start(t(0.0), 10e9, gbps(100.0));
        // Shared 10/10 GB/s: after 0.5 s each flow has moved 5 GB.
        let remaining = link.cancel(t(0.5), a);
        assert!((remaining - 5e9).abs() < 1.0, "remaining {remaining}");
        assert_eq!(link.active(), 1);
        // The survivor speeds up to the full link: 5 GB at 20 GB/s.
        let (done, id) = link.next_completion(t(0.5)).unwrap();
        assert_eq!(id, b);
        assert!((done.as_secs() - 0.75).abs() < 1e-9);
    }
}
