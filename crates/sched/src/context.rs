//! Execution context: a DAG paired with a resource collection.
//!
//! Implements the execution model of Section III: uniform processors
//! (task time inversely proportional to clock rate), non-preemptive
//! tasks, data transfers charged in seconds at the reference bandwidth
//! scaled by the RC's pairwise communication factor, free intra-host
//! transfers.

use rsg_dag::{CriticalPathInfo, Dag, TaskId};
use rsg_platform::ResourceCollection;
use std::borrow::Cow;
use std::sync::{Arc, OnceLock};

/// A DAG with the scheduling work that does not depend on the RC:
/// its critical-path quantities ([`CriticalPathInfo`]) and MCP's
/// priority order. Each is computed on first use and then shared by
/// every [`ExecutionContext`] built on this value, so a sweep that
/// schedules one DAG at every size of an RC-size ladder builds them
/// once per DAG instead of once per size.
///
/// This is the DAG-side twin of the RC's cached speed factors. It
/// changes no result: heuristics still charge the modeled
/// [`OpCount`](crate::OpCount) of the critical-path sweeps and the
/// priority sort on every evaluation, because the scheduling-time
/// model prices a scheduler that runs from scratch.
#[derive(Debug, Clone)]
pub struct PreparedDag<'a> {
    dag: Cow<'a, Dag>,
    critical_path: OnceLock<CriticalPathInfo>,
    mcp_order: OnceLock<Vec<u32>>,
}

impl<'a> PreparedDag<'a> {
    /// Prepares a borrowed DAG.
    pub fn new(dag: &'a Dag) -> PreparedDag<'a> {
        Self::from_cow(Cow::Borrowed(dag))
    }

    /// Prepares a DAG it takes ownership of (for holders that outlive
    /// the code that generated the DAG, such as a sweep's inputs).
    pub fn owned(dag: Dag) -> PreparedDag<'static> {
        PreparedDag::from_cow(Cow::Owned(dag))
    }

    fn from_cow(dag: Cow<'a, Dag>) -> PreparedDag<'a> {
        PreparedDag {
            dag,
            critical_path: OnceLock::new(),
            mcp_order: OnceLock::new(),
        }
    }

    /// The DAG.
    #[inline]
    pub fn dag(&self) -> &Dag {
        &self.dag
    }

    /// Critical-path quantities of the DAG (computed on first use).
    pub fn critical_path(&self) -> &CriticalPathInfo {
        self.critical_path
            .get_or_init(|| CriticalPathInfo::compute(&self.dag))
    }

    /// MCP's priority list: task indices in scheduling order (computed
    /// on first use; see [`Mcp`](crate::heuristics::Mcp)).
    pub fn mcp_order(&self) -> &[u32] {
        self.mcp_order
            .get_or_init(|| crate::heuristics::mcp_priority_order(&self.dag, self.critical_path()))
    }
}

/// A scheduling problem instance: `(dag, rc)` plus precomputed speed
/// factors and the DAG's [`PreparedDag`].
///
/// The speed factors live in one flat, contiguous `f64` array over the
/// *whole* RC, cached inside the RC and shared by every context built
/// on it ([`ResourceCollection::speed_factors`]): constructing a
/// context is O(1) after the first build, and prefix-limited contexts
/// (the sweep's RC-size ladder) are just a smaller `hosts` bound over
/// the same array. The DAG side works the same way: a context built
/// with [`with_prepared`](Self::with_prepared) borrows a
/// [`PreparedDag`] shared across sizes; [`new`](Self::new) and
/// [`with_host_limit`](Self::with_host_limit) prepare a fresh one.
pub struct ExecutionContext<'a> {
    /// The workflow to schedule.
    pub dag: &'a Dag,
    /// The resource collection to schedule onto.
    pub rc: &'a ResourceCollection,
    prepared: Cow<'a, PreparedDag<'a>>,
    speeds: Arc<[f64]>,
    hosts: usize,
}

impl<'a> ExecutionContext<'a> {
    /// Pairs a DAG with an RC.
    pub fn new(dag: &'a Dag, rc: &'a ResourceCollection) -> ExecutionContext<'a> {
        Self::with_host_limit(dag, rc, rc.len())
    }

    /// Pairs a DAG with the first `hosts` hosts of `rc` (clamped to
    /// `[1, rc.len()]`). Because RC families are prefix-stable, this is
    /// equivalent to `ExecutionContext::new(dag, &rc.prefix(hosts))`
    /// without cloning the RC — the key to sweeping RC sizes over one
    /// max-size host family.
    pub fn with_host_limit(
        dag: &'a Dag,
        rc: &'a ResourceCollection,
        hosts: usize,
    ) -> ExecutionContext<'a> {
        Self::build(dag, Cow::Owned(PreparedDag::new(dag)), rc, hosts)
    }

    /// [`with_host_limit`](Self::with_host_limit) over a prepared DAG:
    /// the context borrows `prepared`, so its critical path and priority
    /// order are computed at most once across all contexts built on it.
    pub fn with_prepared(
        prepared: &'a PreparedDag<'a>,
        rc: &'a ResourceCollection,
        hosts: usize,
    ) -> ExecutionContext<'a> {
        Self::build(prepared.dag(), Cow::Borrowed(prepared), rc, hosts)
    }

    fn build(
        dag: &'a Dag,
        prepared: Cow<'a, PreparedDag<'a>>,
        rc: &'a ResourceCollection,
        hosts: usize,
    ) -> ExecutionContext<'a> {
        let hosts = hosts.clamp(1, rc.len());
        let speeds = rc.speed_factors(dag.reference_clock_mhz());
        ExecutionContext {
            dag,
            rc,
            prepared,
            speeds,
            hosts,
        }
    }

    /// The DAG's RC-independent preparation.
    #[inline]
    pub fn prepared(&self) -> &PreparedDag<'a> {
        &self.prepared
    }

    /// Clock rate of host `h` in MHz (only hosts below [`hosts()`]
    /// belong to this context).
    ///
    /// [`hosts()`]: ExecutionContext::hosts
    #[inline]
    pub fn clock_mhz(&self, h: usize) -> f64 {
        debug_assert!(h < self.hosts());
        self.rc.clock_mhz(h)
    }

    /// Number of hosts.
    #[inline]
    pub fn hosts(&self) -> usize {
        self.hosts
    }

    /// Execution time of task `t` on host `h`, seconds.
    #[inline]
    pub fn task_time(&self, t: TaskId, h: usize) -> f64 {
        debug_assert!(h < self.hosts);
        self.dag.comp(t) / self.speeds[h]
    }

    /// Speed factor of host `h` relative to the DAG reference clock.
    #[inline]
    pub fn speed(&self, h: usize) -> f64 {
        debug_assert!(h < self.hosts);
        self.speeds[h]
    }

    /// All speed factors of this context as one flat slice (length
    /// [`hosts()`]), for branch-free min/argmin scans.
    ///
    /// [`hosts()`]: ExecutionContext::hosts
    #[inline]
    pub fn speeds(&self) -> &[f64] {
        &self.speeds[..self.hosts]
    }

    /// Transfer time of an edge with reference cost `comm` seconds from
    /// host `from` to host `to` (0 when co-located).
    #[inline]
    pub fn comm_time(&self, comm: f64, from: usize, to: usize) -> f64 {
        comm * self.rc.comm_factor(from, to)
    }

    /// Earliest time the inputs of `t` are available on host `h`, given
    /// parent finish times and placements. Returns 0 for entry tasks.
    #[inline]
    pub fn data_ready(&self, t: TaskId, h: usize, finish: &[f64], host_of: &[u32]) -> f64 {
        let mut ready = 0.0f64;
        for e in self.dag.parents(t) {
            let p = e.task.index();
            let arr = finish[p] + self.comm_time(e.comm, host_of[p] as usize, h);
            if arr > ready {
                ready = arr;
            }
        }
        ready
    }

    /// Index of (one of) the fastest hosts.
    pub fn fastest_host(&self) -> usize {
        let mut best = 0usize;
        for h in 1..self.hosts {
            if self.speeds[h] > self.speeds[best] {
                best = h;
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsg_dag::DagBuilder;
    use rsg_platform::ResourceCollection;

    fn two_task_dag() -> Dag {
        let mut b = DagBuilder::new();
        let a = b.add_task(15.0);
        let c = b.add_task(30.0);
        b.add_edge(a, c, 4.0).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn task_time_scales_with_clock() {
        let dag = two_task_dag(); // ref clock 1500 MHz
        let rc = ResourceCollection::new(vec![1500.0, 3000.0], rsg_platform::CommModel::Uniform);
        let ctx = ExecutionContext::new(&dag, &rc);
        assert!((ctx.task_time(TaskId(0), 0) - 15.0).abs() < 1e-12);
        assert!((ctx.task_time(TaskId(0), 1) - 7.5).abs() < 1e-12);
    }

    #[test]
    fn comm_time_zero_same_host() {
        let dag = two_task_dag();
        let rc = ResourceCollection::homogeneous(2, 1500.0);
        let ctx = ExecutionContext::new(&dag, &rc);
        assert_eq!(ctx.comm_time(4.0, 1, 1), 0.0);
        assert!((ctx.comm_time(4.0, 0, 1) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn data_ready_accounts_for_placement() {
        let dag = two_task_dag();
        let rc = ResourceCollection::homogeneous(2, 1500.0);
        let ctx = ExecutionContext::new(&dag, &rc);
        let finish = vec![15.0, 0.0];
        let host_of = vec![0u32, 0u32];
        // Child on same host as parent: data ready when parent ends.
        assert!((ctx.data_ready(TaskId(1), 0, &finish, &host_of) - 15.0).abs() < 1e-12);
        // Different host: + transfer.
        assert!((ctx.data_ready(TaskId(1), 1, &finish, &host_of) - 19.0).abs() < 1e-12);
        // Entry task: zero.
        assert_eq!(ctx.data_ready(TaskId(0), 1, &finish, &host_of), 0.0);
    }

    #[test]
    fn host_limit_matches_prefix_rc() {
        let dag = two_task_dag();
        let rc = ResourceCollection::heterogeneous(8, 3000.0, 0.4, 11);
        let prefix = rc.prefix(3);
        let limited = ExecutionContext::with_host_limit(&dag, &rc, 3);
        let direct = ExecutionContext::new(&dag, &prefix);
        assert_eq!(limited.hosts(), 3);
        for h in 0..3 {
            assert_eq!(limited.speed(h), direct.speed(h));
            assert_eq!(limited.clock_mhz(h), direct.clock_mhz(h));
            assert_eq!(
                limited.task_time(TaskId(0), h),
                direct.task_time(TaskId(0), h)
            );
        }
        assert_eq!(limited.comm_time(4.0, 0, 2), direct.comm_time(4.0, 0, 2));
        // Limit clamps to the RC size.
        assert_eq!(ExecutionContext::with_host_limit(&dag, &rc, 99).hosts(), 8);
        assert_eq!(ExecutionContext::with_host_limit(&dag, &rc, 0).hosts(), 1);
    }

    #[test]
    fn fastest_host_found() {
        let dag = two_task_dag();
        let rc = ResourceCollection::new(
            vec![1000.0, 3000.0, 2000.0],
            rsg_platform::CommModel::Uniform,
        );
        let ctx = ExecutionContext::new(&dag, &rc);
        assert_eq!(ctx.fastest_host(), 1);
    }
}
