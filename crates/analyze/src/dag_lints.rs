//! DAG lint family (`DAG001`–`DAG005`): structural and weight checks
//! over the *raw* decoded DAG, so a defective document yields
//! diagnostics instead of a builder panic or a single opaque error.

use crate::diag::{Code, Diagnostic};
use rsg_dag::io::RawDag;

/// Lints one raw DAG. `subject` names the input in the diagnostics.
///
/// Returns the findings plus the DAG's maximum level width when the
/// graph is valid enough to compute one (used by the cross-file
/// `DAG005` width-vs-spec-size check).
pub fn lint_dag(raw: &RawDag, subject: &str) -> (Vec<Diagnostic>, Option<u32>) {
    let mut out = Vec::new();
    let n = raw.tasks.len();

    // --- DAG003: weights --------------------------------------------
    for (id, &cost) in raw.tasks.iter().enumerate() {
        if cost.is_nan() || cost.is_infinite() || cost < 0.0 {
            out.push(Diagnostic::error(
                Code::Dag003,
                subject,
                format!("task {id} has invalid computation cost {cost}"),
            ));
        } else if cost == 0.0 {
            out.push(Diagnostic::warn(
                Code::Dag003,
                subject,
                format!("task {id} has zero computation cost"),
            ));
        }
    }
    for &(a, b, comm) in &raw.edges {
        if comm.is_nan() || comm.is_infinite() || comm < 0.0 {
            out.push(Diagnostic::error(
                Code::Dag003,
                subject,
                format!("edge {a} -> {b} has invalid communication cost {comm}"),
            ));
        }
    }

    // --- DAG002: structural defects ---------------------------------
    if n == 0 {
        out.push(Diagnostic::error(Code::Dag002, subject, "DAG has no tasks"));
    }
    // Well-formed edges (both endpoints known, not a self edge) sorted
    // by (parent, child, position): a repeated pair sorts right behind
    // its first occurrence, which is the one that stays.
    let mut order: Vec<(u32, u32, u32)> = (0u32..)
        .zip(&raw.edges)
        .filter(|&(_, &(a, b, _))| (a as usize) < n && (b as usize) < n && a != b)
        .map(|(i, &(a, b, _))| (a, b, i))
        .collect();
    order.sort_unstable();
    let mut duplicate = vec![false; raw.edges.len()];
    let mut edges: Vec<(u32, u32)> = Vec::with_capacity(order.len());
    for &(a, b, i) in &order {
        if edges.last() == Some(&(a, b)) {
            duplicate[i as usize] = true;
        } else {
            edges.push((a, b));
        }
    }
    for (&(a, b, _), &dup) in raw.edges.iter().zip(&duplicate) {
        let detail = if a as usize >= n || b as usize >= n {
            format!("edge {a} -> {b} references an unknown task (task count {n})")
        } else if a == b {
            format!("self edge on task {a}")
        } else if dup {
            format!("duplicate edge {a} -> {b}")
        } else {
            continue;
        };
        out.push(Diagnostic::error(Code::Dag002, subject, detail));
    }

    // --- DAG001: cycles (Kahn over the well-formed edge subset) ------
    let width = match level_width(n, &edges) {
        Ok(w) => (n > 0).then_some(w),
        Err(cycle) => {
            out.push(Diagnostic::error(
                Code::Dag001,
                subject,
                format!("cycle among tasks {cycle:?}"),
            ));
            None
        }
    };

    // --- DAG004: orphan tasks ----------------------------------------
    // A task no edge touches, in a graph that otherwise *has* edges,
    // is almost always a generator or transcription bug. A fully
    // disconnected DAG (no edges at all) is a legitimate bag of tasks.
    if !raw.edges.is_empty() && n > 1 {
        let mut touched = vec![false; n];
        for &(a, b, _) in &raw.edges {
            if (a as usize) < n {
                touched[a as usize] = true;
            }
            if (b as usize) < n {
                touched[b as usize] = true;
            }
        }
        for (id, t) in touched.iter().enumerate() {
            if !t {
                out.push(Diagnostic::warn(
                    Code::Dag004,
                    subject,
                    format!("task {id} is connected to nothing else in the DAG"),
                ));
            }
        }
    }

    (out, width)
}

/// Kahn levelling over unique edges sorted by parent: the widest
/// level's size, or, when the edges close a cycle, the tasks Kahn
/// cannot place — a superset of every cycle, good enough to point a
/// human at the problem.
fn level_width(n: usize, edges: &[(u32, u32)]) -> Result<u32, Vec<u32>> {
    // `start[t]..start[t + 1]` is task t's run of out-edges.
    let mut start = vec![0u32; n + 1];
    let mut indeg = vec![0u32; n];
    for &(a, b) in edges {
        start[a as usize + 1] += 1;
        indeg[b as usize] += 1;
    }
    for t in 0..n {
        start[t + 1] += start[t];
    }
    let mut placed: Vec<u32> = Vec::with_capacity(n);
    placed.extend((0..n as u32).filter(|&t| indeg[t as usize] == 0));
    let (mut level, mut width) = (0, 0);
    while level < placed.len() {
        let next = placed.len();
        width = width.max(next - level);
        for k in level..next {
            let t = placed[k] as usize;
            for &(_, s) in &edges[start[t] as usize..start[t + 1] as usize] {
                indeg[s as usize] -= 1;
                if indeg[s as usize] == 0 {
                    placed.push(s);
                }
            }
        }
        level = next;
    }
    if placed.len() == n {
        Ok(width as u32)
    } else {
        Err((0..n as u32).filter(|&t| indeg[t as usize] > 0).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsg_dag::io::read_dag_raw;

    fn raw(doc: &str) -> RawDag {
        read_dag_raw(doc).expect("syntactically valid doc")
    }

    #[test]
    fn clean_dag_has_no_findings_and_a_width() {
        let doc = "rsg-dag v1\ntask 0 1.0\ntask 1 2.0\ntask 2 2.0\n\
                   edge 0 1 0.5\nedge 0 2 0.5\nend\n";
        let (diags, width) = lint_dag(&raw(doc), "t");
        assert!(diags.is_empty(), "{diags:?}");
        assert_eq!(width, Some(2));
    }

    #[test]
    fn cycle_is_a_diagnostic_not_a_panic() {
        let doc = "rsg-dag v1\ntask 0 1.0\ntask 1 1.0\ntask 2 1.0\n\
                   edge 0 1 0.1\nedge 1 2 0.1\nedge 2 1 0.1\nend\n";
        let (diags, width) = lint_dag(&raw(doc), "t");
        assert!(diags.iter().any(|d| d.code == Code::Dag001));
        assert!(width.is_none());
        let cyc = diags.iter().find(|d| d.code == Code::Dag001).unwrap();
        assert!(cyc.detail.contains('1') && cyc.detail.contains('2'));
    }

    #[test]
    fn structural_defects_and_weights() {
        let doc = "rsg-dag v1\ntask 0 1.0\ntask 1 nan\ntask 2 0.0\n\
                   edge 0 1 0.1\nedge 0 1 0.1\nedge 1 1 0.2\nedge 0 9 0.3\nedge 1 2 -1.0\nend\n";
        let (diags, _) = lint_dag(&raw(doc), "t");
        let codes: Vec<_> = diags.iter().map(|d| (d.code, d.severity)).collect();
        use crate::diag::Severity::*;
        assert!(codes.contains(&(Code::Dag003, Error)), "NaN task cost");
        assert!(codes.contains(&(Code::Dag003, Warn)), "zero task cost");
        assert!(diags
            .iter()
            .any(|d| d.code == Code::Dag002 && d.detail.contains("duplicate")));
        assert!(diags
            .iter()
            .any(|d| d.code == Code::Dag002 && d.detail.contains("self edge")));
        assert!(diags
            .iter()
            .any(|d| d.code == Code::Dag002 && d.detail.contains("unknown task")));
        assert!(diags
            .iter()
            .any(|d| d.code == Code::Dag003 && d.detail.contains("-1")));
    }

    #[test]
    fn orphan_task_warns_only_when_graph_has_edges() {
        let doc = "rsg-dag v1\ntask 0 1.0\ntask 1 1.0\ntask 2 1.0\nedge 0 1 0.1\nend\n";
        let (diags, _) = lint_dag(&raw(doc), "t");
        assert!(diags
            .iter()
            .any(|d| d.code == Code::Dag004 && d.detail.contains("task 2")));
        // A pure bag of tasks is fine.
        let bag = "rsg-dag v1\ntask 0 1.0\ntask 1 1.0\nend\n";
        let (diags, width) = lint_dag(&raw(bag), "t");
        assert!(diags.is_empty());
        assert_eq!(width, Some(2));
    }
}
