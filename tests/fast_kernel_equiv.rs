//! Differential property tests for the candidate-set placement kernel:
//! on every random DAG × uniform-connectivity RC where the fast path
//! engages, MCP and DLS must produce bit-identical schedules (host,
//! start, finish) and identical modeled operation counts to the naive
//! full-host-scan reference implementations. This is the contract that
//! lets the observation sweep use the kernel without perturbing any
//! paper-facing number. The same holds for DAG preparation: one
//! `PreparedDag` shared by every size of a ladder schedules exactly
//! like a DAG prepared afresh for each evaluation.

use proptest::prelude::*;
use rsg::prelude::*;
use rsg::sched::heuristics::{fast_placement_available, Dls, DlsNaive, Mcp, McpNaive};
use rsg::sched::{ExecutionContext, Heuristic, PreparedDag};

fn dag_spec_strategy() -> impl Strategy<Value = RandomDagSpec> {
    (
        10usize..250,
        0.0f64..2.0,
        0.0f64..=1.0,
        0.05f64..=1.0,
        0.01f64..=1.0,
        1.0f64..50.0,
    )
        .prop_map(
            |(size, ccr, parallelism, density, regularity, mean_comp)| RandomDagSpec {
                size,
                ccr,
                parallelism,
                density,
                regularity,
                mean_comp,
            },
        )
}

/// A uniform-connectivity RC with few speed classes — the configurations
/// the fast path accepts. `classes * 4 <= hosts` holds by construction.
fn fast_path_rc(classes: usize, extra_hosts: usize) -> ResourceCollection {
    let pool = [1500.0f64, 2800.0, 750.0];
    let hosts = classes * 4 + extra_hosts;
    let clocks: Vec<f64> = (0..hosts).map(|h| pool[h % classes]).collect();
    ResourceCollection::new(clocks, rsg::platform::CommModel::Uniform)
}

fn assert_same_schedule(
    label: &str,
    fast: (&rsg::sched::Schedule, rsg::sched::OpCount),
    naive: (&rsg::sched::Schedule, rsg::sched::OpCount),
) {
    assert_eq!(fast.0.host, naive.0.host, "{label}: host placement");
    assert_eq!(fast.0.start, naive.0.start, "{label}: start times");
    assert_eq!(fast.0.finish, naive.0.finish, "{label}: finish times");
    assert_eq!(fast.1, naive.1, "{label}: op counts");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// MCP through the kernel ≡ the naive scan, bit for bit.
    #[test]
    fn mcp_fast_kernel_equivalent(
        spec in dag_spec_strategy(),
        seed in 0u64..1000,
        classes in 1usize..4,
        extra_hosts in 0usize..120,
    ) {
        let dag = spec.generate(seed);
        let rc = fast_path_rc(classes, extra_hosts);
        let ctx = ExecutionContext::new(&dag, &rc);
        prop_assert!(fast_placement_available(&ctx));
        let (s_fast, ops_fast) = Mcp.schedule(&ctx);
        let (s_naive, ops_naive) = McpNaive.schedule(&ctx);
        assert_same_schedule("MCP", (&s_fast, ops_fast), (&s_naive, ops_naive));
    }

    /// DLS through the kernel ≡ the naive scan, bit for bit.
    #[test]
    fn dls_fast_kernel_equivalent(
        spec in dag_spec_strategy(),
        seed in 0u64..1000,
        classes in 1usize..4,
        extra_hosts in 0usize..60,
    ) {
        let dag = spec.generate(seed);
        let rc = fast_path_rc(classes, extra_hosts);
        let ctx = ExecutionContext::new(&dag, &rc);
        prop_assert!(fast_placement_available(&ctx));
        let (s_fast, ops_fast) = Dls.schedule(&ctx);
        let (s_naive, ops_naive) = DlsNaive.schedule(&ctx);
        assert_same_schedule("DLS", (&s_fast, ops_fast), (&s_naive, ops_naive));
    }

    /// When the kernel declines (non-uniform bandwidth, or continuously
    /// heterogeneous clocks), the gated heuristics still match the
    /// reference — the gate itself must never perturb results.
    #[test]
    fn declined_fast_path_is_harmless(
        spec in dag_spec_strategy(),
        seed in 0u64..1000,
        hosts in 1usize..40,
        het in 0.05f64..0.6,
    ) {
        let dag = spec.generate(seed);
        let rc = ResourceCollection::heterogeneous(hosts, 3000.0, het, seed)
            .with_bandwidth_heterogeneity(0.3, seed ^ 5);
        let ctx = ExecutionContext::new(&dag, &rc);
        prop_assert!(!fast_placement_available(&ctx));
        let (s_fast, ops_fast) = Mcp.schedule(&ctx);
        let (s_naive, ops_naive) = McpNaive.schedule(&ctx);
        assert_same_schedule("MCP/declined", (&s_fast, ops_fast), (&s_naive, ops_naive));
        let (d_fast, d_ops_fast) = Dls.schedule(&ctx);
        let (d_naive, d_ops_naive) = DlsNaive.schedule(&ctx);
        assert_same_schedule("DLS/declined", (&d_fast, d_ops_fast), (&d_naive, d_ops_naive));
    }

    /// Prefix evaluation over one max-size RC ≡ a fresh reference
    /// evaluation on the materialized prefix, for every heuristic — the
    /// sweep's RC-reuse contract end to end.
    #[test]
    fn prefix_reuse_matches_reference(
        spec in dag_spec_strategy(),
        seed in 0u64..1000,
        size in 1usize..64,
    ) {
        let dag = spec.generate(seed);
        let family = rsg::core::curve::RcFamily::reference();
        let big = family.build(64);
        let exact = family.build(size);
        let model = rsg::sched::SchedTimeModel::default();
        for kind in HeuristicKind::all() {
            let via_prefix = rsg::sched::evaluate_prefix(&dag, &big, size, kind, &model);
            let reference = rsg::sched::evaluate_reference(&dag, &exact, kind, &model);
            prop_assert_eq!(via_prefix.ops, reference.ops, "{} ops", kind);
            prop_assert_eq!(
                via_prefix.makespan_s,
                reference.makespan_s,
                "{} makespan", kind
            );
            prop_assert_eq!(
                via_prefix.sched_time_s,
                reference.sched_time_s,
                "{} sched time", kind
            );
        }
    }
}

proptest! {
    // Each case schedules a whole ladder five ways per heuristic and RC
    // (the reference DLS among them), so it runs fewer, smaller DAGs.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// One `PreparedDag` reused across every size of the DAG's ladder ≡
    /// a fresh `evaluate_prefix` (and the reference implementation) at
    /// each size, for every heuristic, on an RC where the placement
    /// kernel engages and on one where it declines: same hosts, start
    /// and finish times, op counts and turnaround bits.
    #[test]
    fn prepared_dag_matches_fresh_evaluation(
        spec in dag_spec_strategy().prop_map(|s| RandomDagSpec { size: s.size.min(120), ..s }),
        seed in 0u64..1000,
        classes in 1usize..4,
        het in 0.05f64..0.6,
    ) {
        let dag = spec.generate(seed);
        let width = dag.width() as usize;
        let ladder = rsg::core::curve::size_ladder(width);
        let prepared = PreparedDag::new(&dag);
        let model = rsg::sched::SchedTimeModel::default();
        let engaging = fast_path_rc(classes, width);
        let declined = ResourceCollection::heterogeneous(width, 3000.0, het, seed)
            .with_bandwidth_heterogeneity(0.3, seed ^ 5);
        prop_assert!(fast_placement_available(&ExecutionContext::new(&dag, &engaging)));
        prop_assert!(!fast_placement_available(&ExecutionContext::new(&dag, &declined)));
        for (rc_label, rc) in [("engaging", &engaging), ("declined", &declined)] {
            for &size in &ladder {
                for kind in HeuristicKind::all() {
                    let label = format!("{kind}/{rc_label} P={size}");
                    let shared = ExecutionContext::with_prepared(&prepared, rc, size);
                    let fresh = ExecutionContext::with_host_limit(&dag, rc, size);
                    let (s_shared, ops_shared) = kind.run(&shared);
                    let (s_fresh, ops_fresh) = kind.run(&fresh);
                    let (s_ref, ops_ref) = kind.run_reference(&fresh);
                    assert_same_schedule(&label, (&s_shared, ops_shared), (&s_fresh, ops_fresh));
                    assert_same_schedule(&label, (&s_shared, ops_shared), (&s_ref, ops_ref));

                    let via_prepared =
                        rsg::sched::evaluate_prepared(&prepared, rc, size, kind, &model);
                    let via_prefix = rsg::sched::evaluate_prefix(&dag, rc, size, kind, &model);
                    prop_assert_eq!(via_prepared.ops, via_prefix.ops, "{} ops", label);
                    prop_assert_eq!(
                        via_prepared.turnaround_s().to_bits(),
                        via_prefix.turnaround_s().to_bits(),
                        "{} turnaround", label
                    );
                }
            }
        }
    }
}
