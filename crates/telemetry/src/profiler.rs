//! Scoped self-time profiler with a compile-out `profile` feature.
//!
//! The scale observatory needs to know *which subsystem* the wall clock went
//! to at a given topology size: event-loop dispatch, beaconing, segment-store
//! ops, path-database combine/lookup, or the router batch passes. Each subsystem
//! brackets its work in a [`ProfScope`] guard obtained from
//! `Telemetry::prof_scope`; scopes nest into a call tree keyed
//! `(parent, name)` and every exit attributes the elapsed wall time to the
//! scope's node. **Self time** is the inclusive wall time of a node minus the
//! inclusive time of the scopes nested directly inside it — the portion the
//! subsystem spent in its own code. Ranking nodes by self time names the
//! bottleneck without double counting parents for their children's work.
//!
//! Attribution soundness rests on three properties:
//!
//! * guards are closed by `Drop`, so early returns and panics exit the scope
//!   exactly once and in stack order;
//! * per-thread scope stacks mean concurrent subsystems never corrupt each
//!   other's nesting (trees from different threads share nodes only when
//!   their `(parent, name)` paths coincide);
//! * child intervals are disjoint sub-intervals of the parent's interval on a
//!   monotonic clock, so the sum of direct children's inclusive time never
//!   exceeds the parent's inclusive time and self time is never negative.
//!
//! Externally measured durations (e.g. the time spent *waiting* on a
//! contended lock, which by definition cannot run inside a scope of its
//! own) enter the tree through [`Profiler::record_leaf`].
//!
//! With the `profile` feature disabled (the default) every type here is a
//! zero-sized no-op and `prof_scope` compiles to nothing, keeping the
//! forwarding and combine hot paths untouched.

/// One node of the flattened profile tree, pre-order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileEntry {
    /// Scope name (static — scopes are code sites, not data).
    pub name: &'static str,
    /// Nesting depth (0 = root scope).
    pub depth: usize,
    /// Number of times the scope was entered.
    pub calls: u64,
    /// Total wall time between enter and exit, summed over calls.
    pub inclusive_ns: u64,
    /// Inclusive time minus directly nested scopes' inclusive time.
    pub self_ns: u64,
}

/// A point-in-time flattening of the profile tree.
#[derive(Debug, Clone, Default)]
pub struct ProfileReport {
    /// Nodes in pre-order (parents before children).
    pub entries: Vec<ProfileEntry>,
}

impl ProfileReport {
    /// Whether anything was recorded (always true with `profile` off).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total self time aggregated per scope name (a name used under several
    /// parents sums), ranked descending — the bottleneck table.
    pub fn ranked_self_time(&self) -> Vec<(&'static str, u64)> {
        let mut by_name: Vec<(&'static str, u64)> = Vec::new();
        for e in &self.entries {
            match by_name.iter_mut().find(|(n, _)| *n == e.name) {
                Some((_, ns)) => *ns += e.self_ns,
                None => by_name.push((e.name, e.self_ns)),
            }
        }
        by_name.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        by_name
    }

    /// The scope with the largest aggregate self time, if any.
    pub fn top_bottleneck(&self) -> Option<(&'static str, u64)> {
        self.ranked_self_time().into_iter().next()
    }

    /// An indented, human-readable table of the tree.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("scope                                    calls  inclusive_ms   self_ms\n");
        for e in &self.entries {
            let label = format!("{:indent$}{}", "", e.name, indent = e.depth * 2);
            out.push_str(&format!(
                "{label:<40} {:>5} {:>13.3} {:>9.3}\n",
                e.calls,
                e.inclusive_ns as f64 / 1e6,
                e.self_ns as f64 / 1e6,
            ));
        }
        out
    }
}

#[cfg(feature = "profile")]
mod enabled {
    use std::collections::HashMap;
    use std::sync::Arc;
    use std::thread::ThreadId;
    use std::time::Instant;

    use parking_lot::Mutex;

    use super::{ProfileEntry, ProfileReport};
    use crate::metrics::MetricsRegistry;

    #[derive(Debug)]
    struct NodeStat {
        name: &'static str,
        parent: Option<usize>,
        calls: u64,
        inclusive_ns: u64,
        self_ns: u64,
    }

    #[derive(Debug)]
    struct Frame {
        node: usize,
        start: Instant,
        /// Inclusive nanoseconds of scopes that already closed directly
        /// under this frame.
        child_ns: u64,
    }

    #[derive(Default, Debug)]
    struct ProfState {
        nodes: Vec<NodeStat>,
        index: HashMap<(Option<usize>, &'static str), usize>,
        stacks: HashMap<ThreadId, Vec<Frame>>,
    }

    impl ProfState {
        fn node_id(&mut self, parent: Option<usize>, name: &'static str) -> usize {
            if let Some(&id) = self.index.get(&(parent, name)) {
                return id;
            }
            let id = self.nodes.len();
            self.nodes.push(NodeStat {
                name,
                parent,
                calls: 0,
                inclusive_ns: 0,
                self_ns: 0,
            });
            self.index.insert((parent, name), id);
            id
        }

        /// Closes `frame` as of `now`: attributes its elapsed time to its
        /// node and rolls the elapsed time into the new stack top.
        fn close(&mut self, tid: ThreadId, frame: Frame, now: Instant) {
            let elapsed = now.duration_since(frame.start).as_nanos() as u64;
            let stat = &mut self.nodes[frame.node];
            stat.calls += 1;
            stat.inclusive_ns += elapsed;
            stat.self_ns += elapsed.saturating_sub(frame.child_ns);
            if let Some(top) = self.stacks.get_mut(&tid).and_then(|s| s.last_mut()) {
                top.child_ns += elapsed;
            }
        }
    }

    /// The shared profile tree. Cloning shares the underlying state.
    #[derive(Clone, Default, Debug)]
    pub struct Profiler {
        state: Arc<Mutex<ProfState>>,
    }

    impl Profiler {
        /// Fresh, empty profiler.
        pub fn new() -> Self {
            Self::default()
        }

        /// Enters a scope named `name` under the calling thread's current
        /// scope; the returned guard exits it on drop.
        pub fn scope(&self, name: &'static str) -> ProfScope {
            let tid = std::thread::current().id();
            let mut st = self.state.lock();
            let parent = st.stacks.get(&tid).and_then(|s| s.last()).map(|f| f.node);
            let node = st.node_id(parent, name);
            st.stacks.entry(tid).or_default().push(Frame {
                node,
                start: Instant::now(),
                child_ns: 0,
            });
            ProfScope {
                profiler: Some(self.clone()),
                node,
            }
        }

        /// Attributes an externally measured duration as a leaf scope under
        /// the calling thread's current scope (root level when none is open).
        pub fn record_leaf(&self, name: &'static str, ns: u64) {
            let tid = std::thread::current().id();
            let mut st = self.state.lock();
            let parent = st.stacks.get(&tid).and_then(|s| s.last()).map(|f| f.node);
            let node = st.node_id(parent, name);
            let stat = &mut st.nodes[node];
            stat.calls += 1;
            stat.inclusive_ns += ns;
            stat.self_ns += ns;
            if let Some(top) = st.stacks.get_mut(&tid).and_then(|s| s.last_mut()) {
                top.child_ns += ns;
            }
        }

        fn exit(&self, node: usize) {
            let now = Instant::now();
            let tid = std::thread::current().id();
            let mut st = self.state.lock();
            // Guards drop in stack order, so the matching frame is the top.
            // Should a guard outlive its inner guards anyway (e.g. guards
            // stored and dropped out of order), close the abandoned inner
            // frames as of now — time stays attributed, nesting degrades
            // gracefully instead of corrupting the stack.
            while let Some(frame) = st.stacks.get_mut(&tid).and_then(|s| s.pop()) {
                let done = frame.node == node;
                st.close(tid, frame, now);
                if done {
                    break;
                }
            }
        }

        /// Flattens the tree (pre-order, children in creation order).
        pub fn report(&self) -> ProfileReport {
            let st = self.state.lock();
            let mut children: Vec<Vec<usize>> = vec![Vec::new(); st.nodes.len()];
            let mut roots = Vec::new();
            for (id, n) in st.nodes.iter().enumerate() {
                match n.parent {
                    Some(p) => children[p].push(id),
                    None => roots.push(id),
                }
            }
            let mut entries = Vec::with_capacity(st.nodes.len());
            let mut stack: Vec<(usize, usize)> = roots.iter().rev().map(|&r| (r, 0)).collect();
            while let Some((id, depth)) = stack.pop() {
                let n = &st.nodes[id];
                entries.push(ProfileEntry {
                    name: n.name,
                    depth,
                    calls: n.calls,
                    inclusive_ns: n.inclusive_ns,
                    self_ns: n.self_ns,
                });
                for &c in children[id].iter().rev() {
                    stack.push((c, depth + 1));
                }
            }
            ProfileReport { entries }
        }

        /// Clears all recorded nodes and open stacks. Guards still alive
        /// across a reset close as no-ops.
        pub fn reset(&self) {
            let mut st = self.state.lock();
            st.nodes.clear();
            st.index.clear();
            st.stacks.clear();
        }

        /// Publishes the aggregate self-time table as gauges named
        /// `profile.self_ns.<scope>` so the console and the Prometheus
        /// exposition pick the profile up through the ordinary registry.
        pub fn publish(&self, metrics: &MetricsRegistry) {
            for (name, ns) in self.report().ranked_self_time() {
                metrics.gauge(&format!("profile.self_ns.{name}")).set(ns);
            }
        }
    }

    /// Guard returned by [`Profiler::scope`]; exits the scope on drop.
    #[must_use = "a profiler scope measures until it is dropped"]
    pub struct ProfScope {
        profiler: Option<Profiler>,
        node: usize,
    }

    impl Drop for ProfScope {
        fn drop(&mut self) {
            if let Some(p) = self.profiler.take() {
                p.exit(self.node);
            }
        }
    }
}

#[cfg(not(feature = "profile"))]
mod disabled {
    use super::ProfileReport;
    use crate::metrics::MetricsRegistry;

    /// No-op profiler (`profile` feature disabled).
    #[derive(Clone, Copy, Default, Debug)]
    pub struct Profiler;

    impl Profiler {
        /// No-op constructor mirroring the enabled profiler's.
        #[inline(always)]
        pub fn new() -> Self {
            Profiler
        }

        /// No-op; the guard is zero-sized.
        #[inline(always)]
        pub fn scope(&self, _name: &'static str) -> ProfScope {
            ProfScope
        }

        /// No-op.
        #[inline(always)]
        pub fn record_leaf(&self, _name: &'static str, _ns: u64) {}

        /// Always empty.
        #[inline(always)]
        pub fn report(&self) -> ProfileReport {
            ProfileReport::default()
        }

        /// No-op.
        #[inline(always)]
        pub fn reset(&self) {}

        /// No-op.
        #[inline(always)]
        pub fn publish(&self, _metrics: &MetricsRegistry) {}
    }

    /// Zero-sized guard (`profile` feature disabled).
    #[must_use = "a profiler scope measures until it is dropped"]
    pub struct ProfScope;
}

#[cfg(feature = "profile")]
pub use enabled::{ProfScope, Profiler};

#[cfg(not(feature = "profile"))]
pub use disabled::{ProfScope, Profiler};

#[cfg(all(test, feature = "profile"))]
mod tests {
    use super::*;

    #[test]
    fn nesting_attributes_self_and_inclusive() {
        let p = Profiler::default();
        {
            let _outer = p.scope("outer");
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _inner = p.scope("inner");
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        }
        let rep = p.report();
        let outer = rep.entries.iter().find(|e| e.name == "outer").unwrap();
        let inner = rep.entries.iter().find(|e| e.name == "inner").unwrap();
        assert_eq!(outer.depth, 0);
        assert_eq!(inner.depth, 1);
        assert!(inner.inclusive_ns <= outer.inclusive_ns);
        assert_eq!(
            outer.self_ns,
            outer.inclusive_ns - inner.inclusive_ns,
            "parent self time excludes the nested scope"
        );
    }

    #[test]
    fn panic_unwinds_close_scopes_in_order() {
        let p = Profiler::default();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _a = p.scope("a");
            let _b = p.scope("b");
            panic!("boom");
        }));
        assert!(result.is_err());
        let rep = p.report();
        let a = rep.entries.iter().find(|e| e.name == "a").unwrap();
        let b = rep.entries.iter().find(|e| e.name == "b").unwrap();
        assert_eq!((a.calls, b.calls), (1, 1), "both scopes closed by unwind");
        assert_eq!(b.depth, 1, "nesting survived the panic");
        // A fresh scope opens at the root again: the stack fully unwound.
        drop(p.scope("after"));
        let rep = p.report();
        assert_eq!(
            rep.entries
                .iter()
                .find(|e| e.name == "after")
                .unwrap()
                .depth,
            0
        );
    }

    #[test]
    fn record_leaf_lands_under_current_scope() {
        let p = Profiler::default();
        {
            let _q = p.scope("query");
            p.record_leaf("lock_wait", 1_000_000);
        }
        let rep = p.report();
        let q = rep.entries.iter().find(|e| e.name == "query").unwrap();
        let l = rep.entries.iter().find(|e| e.name == "lock_wait").unwrap();
        assert_eq!(l.depth, 1);
        assert_eq!(l.self_ns, 1_000_000);
        // The leaf duration is externally measured and may exceed the
        // parent's real wall window; the parent's self time saturates at
        // zero instead of going negative.
        assert!(q.self_ns <= q.inclusive_ns);
    }

    #[test]
    fn ranked_self_time_names_the_bottleneck() {
        let p = Profiler::default();
        p.record_leaf("cheap", 10);
        p.record_leaf("hot", 1_000);
        p.record_leaf("hot", 500);
        let rep = p.report();
        assert_eq!(rep.top_bottleneck(), Some(("hot", 1_500)));
        assert_eq!(rep.ranked_self_time()[1], ("cheap", 10));
    }

    #[test]
    fn reset_clears_tree_and_orphans_live_guards_safely() {
        let p = Profiler::default();
        let guard = p.scope("stale");
        p.reset();
        drop(guard); // must not panic or resurrect the node
        assert!(p.report().is_empty());
    }
}
