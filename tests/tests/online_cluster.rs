//! Integration tests for the multi-pipeline online serving path:
//! cross-validation of the hand-rolled loop against the event-driven
//! cluster with arrivals landing mid-batch, request conservation
//! under randomized load/dispatch, saturation absorption by extra
//! replicas, and the cancelled-transfer path of the byte auditor.

use helm_core::exec::RecordMode;
use helm_core::online::{
    run_cluster, run_cluster_mix, run_online, AdmissionPolicy, ClusterSpec, DeadlineSpec,
    PoissonArrivals, SchedulerKind,
};
use helm_core::placement::PlacementKind;
use helm_core::policy::Policy;
use helm_core::server::Server;
use helm_core::system::SystemConfig;
use hetmem::{HostMemoryConfig, MemoryConfigKind};
use llm::ModelConfig;
use proptest::prelude::*;
use simaudit::Auditor;
use simcore::units::{Bandwidth, ByteSize};
use simcore::{SimDuration, SimTime};
use workload::WorkloadSpec;
use xfer::link::CappedLink;

fn server(placement: PlacementKind, batch: u32) -> Server {
    let model = ModelConfig::opt_175b();
    let policy = Policy::paper_default(&model, MemoryConfigKind::NvDram)
        .with_placement(placement)
        .with_compression(true)
        .with_batch_size(batch);
    Server::new(
        SystemConfig::paper_platform(HostMemoryConfig::nvdram()),
        model,
        policy,
    )
    .expect("paper config fits")
}

#[test]
fn loop_and_des_agree_with_arrivals_landing_mid_batch() {
    // λ chosen so the mean inter-arrival (~10 s) is far below the
    // pipeline service time (minutes): nearly every arrival lands
    // while a batch is in flight and must wait for the free-up
    // instant. The loop and a one-pipeline run of the event engine
    // must then agree on the exact batch formation, not just on
    // aggregate statistics.
    let ws = WorkloadSpec::paper_default();
    for (placement, batch) in [(PlacementKind::Baseline, 8u32), (PlacementKind::AllCpu, 44)] {
        let s = server(placement, batch);
        let a = run_online(&s, &ws, &mut PoissonArrivals::new(0.1, 77), 64).expect("loop");
        let b = run_cluster(
            &s,
            &ws,
            &mut PoissonArrivals::new(0.1, 77),
            64,
            ClusterSpec::new(1),
        )
        .expect("des");
        // Mid-batch arrivals actually happened: some batch is > 1.
        assert!(
            a.batch_sizes.iter().any(|&x| x > 1),
            "{placement}: load too light to exercise mid-batch arrivals"
        );
        assert_eq!(a.batch_sizes, b.batch_sizes, "{placement} batches");
        assert_eq!(
            a.makespan.as_secs().to_bits(),
            b.makespan.as_secs().to_bits(),
            "{placement} makespan"
        );
        assert_eq!(
            a.queue_delay.samples(),
            b.queue_delay.samples(),
            "{placement} queue delays"
        );
        assert_eq!(
            a.e2e_latency.samples(),
            b.e2e_latency.samples(),
            "{placement} latencies"
        );
    }
}

#[test]
fn four_pipelines_absorb_a_rate_that_saturates_one() {
    // Acceptance scenario from the issue: a λ that saturates the N=1
    // All-CPU pipeline is sustained by N=4, with the online simaudit
    // conservation checks passing.
    simaudit::force_enable();
    let s = server(PlacementKind::AllCpu, 8);
    let ws = WorkloadSpec::paper_default();
    let lambda = 0.10;
    let one = run_cluster(
        &s,
        &ws,
        &mut PoissonArrivals::new(lambda, 5),
        100,
        ClusterSpec::new(1),
    )
    .expect("N=1");
    let four = run_cluster(
        &s,
        &ws,
        &mut PoissonArrivals::new(lambda, 5),
        100,
        ClusterSpec::new(4).with_scheduler(SchedulerKind::JoinShortestQueue),
    )
    .expect("N=4");
    assert!(
        one.utilization > 0.95,
        "N=1 not saturated: {}",
        one.utilization
    );
    assert!(
        four.e2e_percentile_ms(95.0) < one.e2e_percentile_ms(95.0) / 2.0,
        "N=4 p95 {} vs N=1 {}",
        four.e2e_percentile_ms(95.0),
        one.e2e_percentile_ms(95.0)
    );
    assert!(four.tokens_per_s > one.tokens_per_s * 1.5);
    for r in [&one, &four] {
        let audit = r.audit.as_ref().expect("auditing forced on");
        assert!(audit.is_clean(), "audit:\n{audit}");
        assert_eq!(audit.completed_with_prefix("requests:"), 100);
    }
}

#[test]
fn audit_dropped_balances_a_cancelled_transfer() {
    // The DES transfer path can abandon an in-flight DMA (e.g. a
    // prefetch made useless by a placement change). The byte auditor
    // must then balance the channel through `dropped`, not lose the
    // bytes: scheduled = delivered + dropped.
    simaudit::force_enable();
    let mut audit = Auditor::capture();
    let mut link = CappedLink::new(Bandwidth::from_gb_per_s(20.0));
    let total = 10e9;
    audit.scheduled("h2d:weights", ByteSize::from_bytes(total as u64));
    audit.scheduled("h2d:weights", ByteSize::from_bytes(total as u64));
    let keep = link.start(SimTime::ZERO, total, Bandwidth::from_gb_per_s(100.0));
    let cancel = link.start(SimTime::ZERO, total, Bandwidth::from_gb_per_s(100.0));

    // Cancel the second flow mid-flight; its progress so far counts
    // as delivered, the remainder as dropped.
    let at = SimTime::from_secs(0.5);
    let remaining = link.cancel(at, cancel);
    assert!(remaining > 0.0 && remaining < total);
    audit.delivered(
        "h2d:weights",
        ByteSize::from_bytes((total - remaining) as u64),
    );
    audit.dropped("h2d:weights", ByteSize::from_bytes(remaining as u64));

    // The surviving flow finishes and delivers everything.
    let (done, id) = link.next_completion(at).expect("one flow left");
    assert_eq!(id, keep);
    link.complete(done, keep);
    audit.delivered("h2d:weights", ByteSize::from_bytes(total as u64));

    let report = audit.finish();
    assert!(report.is_clean(), "audit:\n{report}");
    let (_, ledger) = report
        .ledgers
        .iter()
        .find(|(name, _)| name == "h2d:weights")
        .expect("channel ledgered");
    assert_eq!(ledger.dropped.as_u64(), remaining as u64);
    assert_eq!(
        ledger.scheduled.as_u64(),
        ledger.delivered.as_u64() + ledger.dropped.as_u64()
    );
}

#[test]
fn transfer_completing_one_step_before_batch_balances_the_ledger() {
    // Epoch edge case on the transfer path: a weight prefetch whose
    // completion lands exactly one decode step before the batch
    // boundary. Draining the link from time zero must report that
    // completion at exactly the stepwise water-filling instant
    // (10 s − 1 s, bit for bit) and deliver the scheduled bytes, and
    // a second drain anchored at the boundary itself must be a no-op
    // with the ledger already balanced.
    simaudit::force_enable();
    let mut audit = Auditor::capture();
    let bw = Bandwidth::from_gb_per_s(10.0);
    let mut link = CappedLink::new(bw);
    // Batch span [0, 10] s with 1 s decode steps; the flow's size at
    // the link rate completes at exactly t = 9 s.
    let step = SimDuration::from_secs(1.0);
    let batch_done = SimTime::from_secs(10.0);
    let bytes = 9.0 * bw.as_bytes_per_s();
    audit.scheduled("h2d:weights", ByteSize::from_bytes(bytes as u64));
    let id = link.start(SimTime::ZERO, bytes, bw);
    let mut completions = Vec::new();
    let end = link.drain(SimTime::ZERO, |at, done| completions.push((at, done)));
    assert_eq!(completions.len(), 1);
    let (at, done) = completions[0];
    assert_eq!(done, id);
    assert_eq!(
        at.as_secs().to_bits(),
        (batch_done.as_secs() - step.as_secs()).to_bits(),
        "flow must complete exactly one step before the batch boundary"
    );
    assert_eq!(end.as_secs().to_bits(), at.as_secs().to_bits());
    audit.delivered("h2d:weights", ByteSize::from_bytes(bytes as u64));
    let idle = link.drain(batch_done, |_, _| unreachable!("no flows left"));
    assert_eq!(idle.as_secs().to_bits(), batch_done.as_secs().to_bits());
    let report = audit.finish();
    assert!(report.is_clean(), "audit:\n{report}");
    let (_, ledger) = report
        .ledgers
        .iter()
        .find(|(name, _)| name == "h2d:weights")
        .expect("channel ledgered");
    assert_eq!(ledger.scheduled.as_u64(), ledger.delivered.as_u64());
    assert_eq!(ledger.dropped.as_u64(), 0);
}

proptest! {
    // Each case runs two full pipeline calibrations; keep the count
    // modest so the suite stays fast.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Sharded dispatch conserves requests: whatever the arrival
    /// rate, seed, replica count, scheduler, admission policy,
    /// deadlines, batching granularity, and record mode, every
    /// arrival is served, rejected, or expired exactly once and the
    /// audit ledgers balance. A homogeneous cluster is also exactly a
    /// one-group mix: `run_cluster` over `ClusterSpec::new(n)` and
    /// `run_cluster_mix` over `[(server, n)]` render `Debug`-identical
    /// reports.
    #[test]
    fn sharded_dispatch_conserves_requests(
        lambda in 0.01f64..0.5,
        seed in 0u64..1000,
        pipelines in 1usize..=5,
        sched_idx in 0usize..4,
        adm_idx in 0usize..3,
        continuous in any::<bool>(),
        aggregate in any::<bool>(),
        deadline in any::<bool>(),
        slo_s in 150.0f64..2000.0,
        n in 1usize..=40,
    ) {
        simaudit::force_enable();
        let s = server(PlacementKind::Helm, 4);
        let spec = ClusterSpec::new(pipelines)
            .with_scheduler(
                [
                    SchedulerKind::RoundRobin,
                    SchedulerKind::JoinShortestQueue,
                    SchedulerKind::LeastFinishTime,
                    SchedulerKind::DeadlineAware,
                ][sched_idx],
            )
            .with_admission(
                [
                    AdmissionPolicy::AcceptAll,
                    AdmissionPolicy::QueueCap(3),
                    AdmissionPolicy::DeadlineFeasible,
                ][adm_idx],
            )
            .with_deadlines(if deadline {
                DeadlineSpec::Fixed(SimDuration::from_secs(slo_s))
            } else {
                DeadlineSpec::None
            })
            .with_continuous(continuous)
            .with_record(if aggregate {
                RecordMode::Aggregate
            } else {
                RecordMode::Full
            });
        let ws = WorkloadSpec::paper_default();
        let r = run_cluster(&s, &ws, &mut PoissonArrivals::new(lambda, seed), n, spec)
            .expect("cluster run");
        let mix = run_cluster_mix(
            &[(&s, pipelines)],
            &ws,
            &mut PoissonArrivals::new(lambda, seed),
            n,
            spec,
        )
        .expect("one-group mix run");
        prop_assert_eq!(format!("{r:?}"), format!("{mix:?}"), "homogeneous != one-group mix");
        prop_assert_eq!(r.served + r.rejected + r.expired, n as u64);
        prop_assert_eq!(r.queue_delay.count(), r.served);
        prop_assert_eq!(r.e2e_latency.count(), r.served);
        let per_pipe: u64 = r.per_pipeline.iter().map(|p| p.served).sum();
        prop_assert_eq!(per_pipe, r.served);
        if !continuous && !aggregate {
            let batched: u32 = r.batch_sizes.iter().sum();
            prop_assert_eq!(u64::from(batched), r.served);
        }
        let audit = r.audit.as_ref().expect("auditing forced on");
        prop_assert!(audit.is_clean(), "audit:\n{}", audit);
        prop_assert_eq!(audit.enqueued_with_prefix("requests:"), n as u64);
        prop_assert_eq!(audit.completed_with_prefix("requests:"), r.served);
    }

    /// Admission control and deadline-aware dispatch never lose a
    /// request, across schedulers × admission policies ×
    /// heterogeneous mixes: every arrival is served, rejected, or
    /// expired — never silently dropped — and the per-pipeline audit
    /// ledgers balance (`enqueued == completed + abandoned`).
    #[test]
    fn admission_and_mixes_conserve_requests(
        lambda in 0.02f64..0.4,
        seed in 0u64..1000,
        sched_idx in 0usize..4,
        adm_idx in 0usize..3,
        helm_replicas in 1usize..=2,
        allcpu_replicas in 0usize..=2,
        continuous in any::<bool>(),
        slo_s in 150.0f64..2000.0,
        n in 1usize..=40,
    ) {
        simaudit::force_enable();
        let scheduler = [
            SchedulerKind::RoundRobin,
            SchedulerKind::JoinShortestQueue,
            SchedulerKind::LeastFinishTime,
            SchedulerKind::DeadlineAware,
        ][sched_idx];
        let admission = [
            AdmissionPolicy::AcceptAll,
            AdmissionPolicy::QueueCap(3),
            AdmissionPolicy::DeadlineFeasible,
        ][adm_idx];
        let helm = server(PlacementKind::Helm, 4);
        let allcpu = server(PlacementKind::AllCpu, 44);
        let mut groups = vec![(&helm, helm_replicas)];
        if allcpu_replicas > 0 {
            groups.push((&allcpu, allcpu_replicas));
        }
        let spec = ClusterSpec::new(1)
            .with_scheduler(scheduler)
            .with_admission(admission)
            .with_continuous(continuous)
            .with_deadlines(DeadlineSpec::Fixed(SimDuration::from_secs(slo_s)));
        let ws = WorkloadSpec::paper_default();
        let r = run_cluster_mix(&groups, &ws, &mut PoissonArrivals::new(lambda, seed), n, spec)
            .expect("cluster run");
        prop_assert_eq!(r.served + r.rejected + r.expired, n as u64);
        prop_assert_eq!(r.queue_delay.count(), r.served);
        prop_assert_eq!(r.e2e_latency.count(), r.served);
        prop_assert_eq!(r.met + r.slo_violations, r.served);
        let audit = r.audit.as_ref().expect("auditing forced on");
        prop_assert!(audit.is_clean(), "audit:\n{}", audit);
        prop_assert_eq!(audit.enqueued_with_prefix("requests:"), n as u64);
        prop_assert_eq!(
            audit.completed_with_prefix("requests:") + audit.abandoned_with_prefix("requests:"),
            n as u64
        );
        for (p, stats) in r.per_pipeline.iter().enumerate() {
            match audit.count_ledger(&format!("requests:pipe{p}")) {
                Some(l) => {
                    prop_assert_eq!(l.enqueued, l.completed + l.abandoned);
                    prop_assert_eq!(l.completed, stats.served);
                    prop_assert_eq!(l.abandoned, stats.rejected + stats.expired);
                }
                None => prop_assert_eq!(stats.served + stats.rejected + stats.expired, 0),
            }
        }
    }

    /// Tightening a uniform SLO never increases goodput: under
    /// accept-all admission with a deadline-blind dispatcher the
    /// serving trajectory is SLO-invariant, so the requests meeting a
    /// tighter deadline are a subset of those meeting a looser one.
    #[test]
    fn tighter_slo_never_increases_goodput(
        lambda in 0.02f64..0.3,
        seed in 0u64..1000,
        jsq in any::<bool>(),
        tight_s in 100.0f64..500.0,
        slack_s in 1.0f64..2000.0,
        n in 1usize..=30,
    ) {
        let s = server(PlacementKind::AllCpu, 8);
        let ws = WorkloadSpec::paper_default();
        let sched = if jsq {
            SchedulerKind::JoinShortestQueue
        } else {
            SchedulerKind::RoundRobin
        };
        let run = |slo: f64| {
            run_cluster(
                &s,
                &ws,
                &mut PoissonArrivals::new(lambda, seed),
                n,
                ClusterSpec::new(2)
                    .with_scheduler(sched)
                    .with_deadlines(DeadlineSpec::Fixed(SimDuration::from_secs(slo))),
            )
            .expect("cluster run")
        };
        let tight = run(tight_s);
        let loose = run(tight_s + slack_s);
        prop_assert_eq!(tight.served, n as u64);
        prop_assert_eq!(loose.served, n as u64);
        // The deadline is observation-only here, so the trajectories
        // are identical and the comparison is exact, not statistical.
        prop_assert_eq!(
            tight.makespan.as_secs().to_bits(),
            loose.makespan.as_secs().to_bits()
        );
        prop_assert!(tight.met <= loose.met, "tight {} loose {}", tight.met, loose.met);
        prop_assert!(tight.tokens_per_s_met <= loose.tokens_per_s_met);
    }
}

#[test]
fn mix_beats_both_homogeneous_clusters_under_mixed_slo() {
    // The tentpole scenario: mixed traffic where 10% of requests are
    // latency-critical (130 s SLO — only the HeLM batch-4 replica can
    // meet it, All-CPU's batch-1 service time is already ~137 s) and
    // 90% are throughput traffic (400 s SLO — needs All-CPU's
    // batch-44 capacity at this λ: HeLM replicas serve ~0.04 req/s,
    // so an all-HeLM cluster's backlog outgrows the loose deadline
    // early in the run). A heterogeneous {HeLM-4, AllCpu-44} pair
    // behind a deadline-aware dispatcher serves the blend better
    // than two replicas of either homogeneous configuration: best-fit
    // dispatch keeps the HeLM replica free for the tight traffic only
    // it can serve in time.
    simaudit::force_enable();
    let ws = WorkloadSpec::paper_default();
    let helm = server(PlacementKind::Helm, 4);
    let allcpu = server(PlacementKind::AllCpu, 44);
    let deadlines = DeadlineSpec::Bimodal {
        tight: SimDuration::from_secs(130.0),
        loose: SimDuration::from_secs(400.0),
        tight_fraction: 0.1,
        seed: 9,
    };
    let spec = ClusterSpec::new(1)
        .with_scheduler(SchedulerKind::DeadlineAware)
        .with_deadlines(deadlines);
    let lambda = 0.15;
    let n = 150;
    let run = |groups: &[(&Server, usize)]| {
        run_cluster_mix(groups, &ws, &mut PoissonArrivals::new(lambda, 9), n, spec)
            .expect("cluster run")
    };
    let mix = run(&[(&helm, 1), (&allcpu, 1)]);
    let homog_helm = run(&[(&helm, 2)]);
    let homog_allcpu = run(&[(&allcpu, 2)]);
    for (name, r) in [
        ("mix", &mix),
        ("all-helm", &homog_helm),
        ("all-allcpu", &homog_allcpu),
    ] {
        assert_eq!(
            r.served + r.rejected + r.expired,
            n as u64,
            "{name} conservation"
        );
        let audit = r.audit.as_ref().expect("auditing forced on");
        assert!(audit.is_clean(), "{name} audit:\n{audit}");
    }
    // The mix wins on SLO attainment (requests finishing under their
    // deadline, the p95-under-SLO proxy the bench sweeps): it meets
    // tight deadlines the all-AllCpu cluster structurally cannot...
    assert!(
        mix.slo_attainment() > homog_allcpu.slo_attainment(),
        "mix {} vs all-allcpu {}",
        mix.slo_attainment(),
        homog_allcpu.slo_attainment()
    );
    assert!(mix.met > homog_allcpu.met);
    // ...while clearing the backlog the all-HeLM cluster drowns in.
    assert!(
        mix.slo_attainment() > homog_helm.slo_attainment(),
        "mix {} vs all-helm {}",
        mix.slo_attainment(),
        homog_helm.slo_attainment()
    );
    assert!(mix.tokens_per_s_met > homog_helm.tokens_per_s_met);
}
