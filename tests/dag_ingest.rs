//! Seeded properties of DAG ingest: `analyze_dag` (decode once → lint
//! → build) must hand back exactly the DAG the generator wrote, with no
//! error-level finding, report the same diagnostics as the batch
//! analyzer, and build a `Dag` exactly when `read_dag` accepts the
//! text.

use proptest::prelude::*;
use rsg::analyze::{analyze, analyze_dag, Code, Input, Severity};
use rsg::dag::io::{read_dag, write_dag};
use rsg::dag::stats::DagStats;
use rsg::dag::{Dag, RandomDagSpec};

fn generate(size: usize, alpha: f64, ccr: f64, regularity: f64, seed: u64) -> Dag {
    RandomDagSpec {
        size,
        ccr,
        parallelism: alpha,
        density: 0.5,
        regularity,
        mean_comp: 40.0,
    }
    .generate(seed)
}

/// The document with `line` inserted right before its `end`.
fn before_end(text: &str, line: &str) -> String {
    let body = text
        .strip_suffix("end\n")
        .expect("write_dag ends with 'end'");
    format!("{body}{line}\nend\n")
}

/// The document with task `t`'s cost replaced by `cost`.
fn with_task_cost(text: &str, t: u32, cost: &str) -> String {
    let prefix = format!("task {t} ");
    text.lines()
        .map(|l| match l.strip_prefix(&prefix) {
            Some(_) => format!("{prefix}{cost}\n"),
            None => format!("{l}\n"),
        })
        .collect()
}

/// One seeded defect: the mutated document and the code it must trip.
fn mutate(dag: &Dag, text: &str, kind: usize, pick: usize) -> (String, Code) {
    let n = dag.len() as u32;
    let edges: Vec<(u32, u32)> = dag
        .tasks()
        .flat_map(|t| dag.children(t).iter().map(move |e| (t.0, e.task.0)))
        .collect();
    let (a, b) = edges[pick % edges.len()];
    let t = (pick % dag.len()) as u32;
    match kind {
        0 => (before_end(text, &format!("edge {a} {b} 0.5")), Code::Dag002),
        1 => (before_end(text, &format!("edge {t} {t} 0.5")), Code::Dag002),
        2 => (before_end(text, &format!("edge {t} {n} 0.5")), Code::Dag002),
        3 => (before_end(text, &format!("edge {b} {a} 0.1")), Code::Dag001),
        4 => (with_task_cost(text, t, "NaN"), Code::Dag003),
        5 => (with_task_cost(text, t, "-1"), Code::Dag003),
        6 => (with_task_cost(text, t, "0"), Code::Dag003),
        _ => {
            // A new last task that no edge touches.
            let last = format!("task {} ", n - 1);
            let at = text.find(&last).expect("last task line");
            let eol = at + text[at..].find('\n').expect("line end") + 1;
            let orphan = format!("{}task {n} 1\n{}", &text[..eol], &text[eol..]);
            (orphan, Code::Dag004)
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn generated_dags_ingest_clean_and_identical(
        size in 1usize..=800,
        alpha in 0.1f64..=1.0,
        ccr in 0.01f64..=1.0,
        regularity in 0.01f64..=1.0,
        seed in 0u64..1_000_000,
    ) {
        let dag = generate(size, alpha, ccr, regularity, seed);
        let (diags, back) = analyze_dag(&write_dag(&dag), "gen.dag");
        // The generator can leave a task isolated in a DAG that has
        // edges; the only findings allowed are DAG004 warnings, one
        // for each such task.
        let isolated = dag
            .tasks()
            .filter(|&t| dag.parents(t).is_empty() && dag.children(t).is_empty())
            .count();
        let orphans = if dag.edge_count() > 0 { isolated } else { 0 };
        prop_assert!(
            diags.iter().all(|d| d.code == Code::Dag004 && d.severity == Severity::Warn),
            "{:?}",
            diags
        );
        prop_assert_eq!(diags.len(), orphans);
        let back = back.expect("a clean document builds");
        prop_assert_eq!(DagStats::measure(&back), DagStats::measure(&dag));
        prop_assert_eq!(back.level_sizes(), dag.level_sizes());
        prop_assert_eq!(back.width(), dag.width());
        for t in dag.tasks() {
            prop_assert_eq!(back.children(t), dag.children(t));
        }
    }

    #[test]
    fn mutated_documents_trip_their_code_in_both_analyzers(
        size in 2usize..=300,
        alpha in 0.1f64..=0.9,
        seed in 0u64..1_000_000,
        kind in 0usize..8,
        pick in 0usize..10_000,
    ) {
        let dag = generate(size, alpha, 0.5, 0.5, seed);
        if dag.edge_count() == 0 {
            // Nothing to duplicate, reverse or orphan against.
            return Ok(());
        }
        let (text, code) = mutate(&dag, &write_dag(&dag), kind, pick);
        let (diags, built) = analyze_dag(&text, "m.dag");
        let batch = analyze(&[Input::new("m.dag", &text)], None);
        prop_assert_eq!(&diags, &batch.diagnostics);
        prop_assert!(diags.iter().any(|d| d.code == code), "want {code}, got {:?}", diags);
        let errors = diags.iter().any(|d| d.severity == Severity::Error);
        prop_assert_eq!(built.is_some(), !errors);
    }

    #[test]
    fn arbitrary_text_builds_exactly_when_read_dag_does(s in "[ -~\\n\\t]{0,300}") {
        for text in [s.clone(), format!("rsg-dag v1\n{s}"), format!("rsg-dag v1\n{s}\nend\n")] {
            prop_assert_eq!(analyze_dag(&text, "x").1.is_some(), read_dag(&text).is_ok());
        }
    }

    #[test]
    fn near_valid_text_builds_exactly_when_read_dag_does(
        lines in prop::collection::vec((0u32..8, 0u32..6, 0u32..6, 0u32..4), 0..14),
    ) {
        // Small documents from well-formed and off-by-one lines, so
        // both accepted and refused documents are common.
        let mut text = String::from("rsg-dag v1\n");
        let mut tasks = 0;
        for (kind, a, b, c) in lines {
            let cost = ["1", "0", "-1", "NaN"][c as usize];
            let line = match kind {
                0 | 1 => {
                    tasks += 1;
                    format!("task {} {}", tasks - 1, if c == 3 { "2.5" } else { cost })
                }
                2 | 3 => format!("edge {a} {b} {}", if c == 2 { "0.25" } else { cost }),
                4 => format!("edge {a}.0 {b} 1"),
                5 => format!("task {a} 1"),
                6 => "# comment".to_string(),
                _ => String::new(),
            };
            text.push_str(&line);
            text.push('\n');
        }
        text.push_str("end\n");
        prop_assert_eq!(analyze_dag(&text, "x").1.is_some(), read_dag(&text).is_ok());
    }
}
