//! Property tests on the shared link model, `xfer::CappedLink`, which
//! prices every split-tier weight load: capacity limits and cap
//! enforcement over random sets of concurrent transfers.

use proptest::prelude::*;
use simcore::units::Bandwidth;
use simcore::SimTime;
use xfer::link::CappedLink;

#[derive(Debug, Clone)]
struct Transfer {
    bytes: f64,
    cap_gbps: f64,
}

fn transfers_strategy() -> impl Strategy<Value = Vec<Transfer>> {
    prop::collection::vec(
        (1.0f64..5e9, 0.5f64..50.0).prop_map(|(bytes, cap_gbps)| Transfer { bytes, cap_gbps }),
        1..20,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// CappedLink: a flow never finishes earlier than bytes/cap, and
    /// the whole batch never finishes earlier than bytes/capacity.
    #[test]
    fn capped_link_respects_caps_and_capacity(transfers in transfers_strategy()) {
        let capacity_gbps = 25.0;
        let mut link = CappedLink::new(Bandwidth::from_gb_per_s(capacity_gbps));
        // Start everything at t=0 for a clean bound.
        let mut earliest_possible: f64 = 0.0;
        let mut total_bytes = 0.0;
        for a in &transfers {
            link.start(SimTime::ZERO, a.bytes, Bandwidth::from_gb_per_s(a.cap_gbps));
            earliest_possible = earliest_possible.max(a.bytes / (a.cap_gbps * 1e9));
            total_bytes += a.bytes;
        }
        earliest_possible = earliest_possible.max(total_bytes / (capacity_gbps * 1e9));
        let mut now = SimTime::ZERO;
        let mut completions = 0;
        while let Some((at, id)) = link.next_completion(now) {
            now = at;
            link.complete(now, id);
            completions += 1;
        }
        prop_assert_eq!(completions, transfers.len());
        prop_assert!(
            now.as_secs() + 1e-9 >= earliest_possible,
            "drained in {} but lower bound is {}",
            now.as_secs(),
            earliest_possible
        );
    }

    /// Water-filling never hands out more than the link capacity and
    /// never exceeds any flow's cap.
    #[test]
    fn water_filling_rates_are_feasible(transfers in transfers_strategy()) {
        let capacity = Bandwidth::from_gb_per_s(25.0);
        let mut link = CappedLink::new(capacity);
        let mut caps = Vec::new();
        for a in &transfers {
            let cap = Bandwidth::from_gb_per_s(a.cap_gbps);
            let id = link.start(SimTime::ZERO, a.bytes, cap);
            caps.push((id, cap));
        }
        let rates = link.rates();
        let total: f64 = rates.values().map(|r| r.as_bytes_per_s()).sum();
        prop_assert!(total <= capacity.as_bytes_per_s() * (1.0 + 1e-9));
        for (id, cap) in caps {
            prop_assert!(rates[&id] <= cap.scale(1.0 + 1e-9));
        }
    }
}
