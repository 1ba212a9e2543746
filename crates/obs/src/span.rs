//! Hierarchical span tracing with a near-zero disabled fast path.
//!
//! A [`SpanSink`] receives enter/exit notifications for named spans.
//! Two installation slots exist:
//!
//! * a **process-global** sink ([`install_global`]) — used by long-lived
//!   surfaces such as `qspr serve`, which folds span durations into its
//!   metrics registry;
//! * a **thread-local** sink ([`install_thread`]) — used by one-shot
//!   profiling (`qspr map --profile`), so concurrently running threads
//!   (e.g. parallel tests) never leak spans into each other's capture.
//!   The thread-local slot wins when both are installed.
//!
//! When *no* sink is installed anywhere, [`span`] costs a single
//! relaxed atomic load and returns an inert guard — cheap enough to
//! leave call sites in release builds unconditionally. Hot inner loops
//! that fire tens of thousands of spans per mapping should still cache
//! [`enabled`] once in a local and skip the call entirely (see
//! `qspr-sim`), which keeps the disabled overhead under the 2% gate of
//! `tests/obs_overhead.rs`.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Receives span enter/exit notifications.
///
/// `enter` returns an opaque token that is handed back to `exit`
/// together with the measured wall-clock nanoseconds. Implementations
/// must be cheap and must not call [`span`] themselves.
pub trait SpanSink: Send + Sync {
    /// A span named `name` opened; `parent` is the token of the
    /// innermost open span on the calling thread, if any.
    fn enter(&self, parent: Option<u32>, name: &'static str) -> u32;
    /// The span identified by `token` closed after `nanos` ns.
    fn exit(&self, token: u32, name: &'static str, nanos: u64);
}

/// Count of installed sinks (global slot contributes 1, each installed
/// thread-local contributes 1). The disabled fast path is exactly one
/// relaxed load of this.
static ACTIVE: AtomicUsize = AtomicUsize::new(0);

static GLOBAL: Mutex<Option<Arc<dyn SpanSink>>> = Mutex::new(None);

thread_local! {
    static LOCAL: RefCell<Option<Arc<dyn SpanSink>>> = const { RefCell::new(None) };
    /// Stack of open span tokens on this thread (parents for nesting).
    static STACK: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

/// True when any sink is installed (global or on some thread). Cache
/// this in a local before a hot loop rather than calling [`span`]
/// per iteration.
#[inline]
pub fn enabled() -> bool {
    ACTIVE.load(Ordering::Relaxed) != 0
}

/// Installs `sink` as the process-global span sink (replacing any
/// previous one).
pub fn install_global(sink: Arc<dyn SpanSink>) {
    let mut slot = GLOBAL.lock().expect("span sink lock");
    if slot.is_none() {
        ACTIVE.fetch_add(1, Ordering::SeqCst);
    }
    *slot = Some(sink);
}

/// Removes the process-global span sink, if any.
pub fn uninstall_global() {
    let mut slot = GLOBAL.lock().expect("span sink lock");
    if slot.take().is_some() {
        ACTIVE.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Installs `sink` for the current thread only; the returned guard
/// restores the previous thread-local sink (usually none) on drop.
#[must_use = "dropping the guard immediately uninstalls the sink"]
pub fn install_thread(sink: Arc<dyn SpanSink>) -> ThreadSinkGuard {
    let prev = LOCAL.with(|l| l.borrow_mut().replace(sink));
    if prev.is_none() {
        ACTIVE.fetch_add(1, Ordering::SeqCst);
    }
    ThreadSinkGuard { prev }
}

/// RAII guard from [`install_thread`]; restores the prior thread-local
/// sink when dropped.
pub struct ThreadSinkGuard {
    prev: Option<Arc<dyn SpanSink>>,
}

impl Drop for ThreadSinkGuard {
    fn drop(&mut self) {
        let removing = self.prev.is_none();
        LOCAL.with(|l| *l.borrow_mut() = self.prev.take());
        if removing {
            ACTIVE.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

/// Opens a span named `name`, closed when the returned guard drops.
///
/// With no sink installed this is one relaxed atomic load plus the
/// construction of an inert guard.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    if ACTIVE.load(Ordering::Relaxed) == 0 {
        return SpanGuard { active: None };
    }
    span_slow(name)
}

#[cold]
fn span_slow(name: &'static str) -> SpanGuard {
    let sink = LOCAL
        .with(|l| l.borrow().clone())
        .or_else(|| GLOBAL.lock().expect("span sink lock").clone());
    let Some(sink) = sink else {
        // Some *other* thread has a thread-local sink installed; this
        // thread records nothing.
        return SpanGuard { active: None };
    };
    let parent = STACK.with(|s| s.borrow().last().copied());
    let token = sink.enter(parent, name);
    STACK.with(|s| s.borrow_mut().push(token));
    SpanGuard {
        active: Some(ActiveSpan {
            sink,
            token,
            name,
            started: Instant::now(),
        }),
    }
}

struct ActiveSpan {
    sink: Arc<dyn SpanSink>,
    token: u32,
    name: &'static str,
    started: Instant,
}

/// Guard holding one open span; dropping it records the duration.
/// Guards must drop in LIFO order on a given thread (the natural
/// consequence of binding them to lexical scopes).
#[must_use = "dropping the guard immediately closes the span"]
pub struct SpanGuard {
    active: Option<ActiveSpan>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(a) = self.active.take() {
            let nanos = a.started.elapsed().as_nanos() as u64;
            STACK.with(|s| {
                let mut stack = s.borrow_mut();
                if stack.last() == Some(&a.token) {
                    stack.pop();
                }
            });
            a.sink.exit(a.token, a.name, nanos);
        }
    }
}

/// A captured span context for carrying the calling thread's sink and
/// innermost open span into worker threads.
///
/// Parallel sections (the placers' seed workers) run work on
/// scoped threads, but spans are delivered to per-thread sinks and
/// parented by a per-thread stack — a worker would either record
/// nothing (thread-local sink elsewhere) or start a fresh root tree.
/// `Relay::capture` snapshots the active sink *and* the innermost open
/// span on the forking thread; [`Relay::install`] then installs a
/// forwarding sink on the worker that parents the worker's root spans
/// under that anchor, so the merged tree reads as if the work had run
/// inline.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use qspr_obs::{span, Collector, Relay};
///
/// let collector = Arc::new(Collector::new());
/// let guard = qspr_obs::install_thread(collector.clone());
/// {
///     let _parent = span("parent");
///     let relay = Relay::capture();
///     std::thread::scope(|scope| {
///         scope.spawn(move || {
///             let _guard = relay.install();
///             let _child = span("child");
///         });
///     });
/// }
/// drop(guard);
/// let roots = collector.snapshot();
/// assert_eq!(roots.len(), 1, "child attaches under parent, not as a root");
/// assert_eq!(roots[0].children[0].name, "child");
/// ```
#[derive(Clone)]
pub struct Relay {
    sink: Option<Arc<dyn SpanSink>>,
    anchor: Option<u32>,
}

impl Relay {
    /// Snapshots the calling thread's span context: its effective sink
    /// (thread-local, else global) and the token of its innermost open
    /// span. Cheap when tracing is disabled.
    pub fn capture() -> Relay {
        if ACTIVE.load(Ordering::Relaxed) == 0 {
            return Relay {
                sink: None,
                anchor: None,
            };
        }
        let sink = LOCAL
            .with(|l| l.borrow().clone())
            .or_else(|| GLOBAL.lock().expect("span sink lock").clone());
        let anchor = STACK.with(|s| s.borrow().last().copied());
        Relay { sink, anchor }
    }

    /// Installs the captured context on the current (worker) thread.
    /// Returns `None` when the capturing thread had no sink — the
    /// worker then records nothing, exactly like the capturer.
    #[must_use = "dropping the guard immediately uninstalls the relayed sink"]
    pub fn install(&self) -> Option<ThreadSinkGuard> {
        let inner = self.sink.clone()?;
        Some(install_thread(Arc::new(RelaySink {
            inner,
            anchor: self.anchor,
        })))
    }
}

/// The forwarding sink behind [`Relay::install`]: parentless spans are
/// re-parented under the captured anchor; everything else passes
/// through.
struct RelaySink {
    inner: Arc<dyn SpanSink>,
    anchor: Option<u32>,
}

impl SpanSink for RelaySink {
    fn enter(&self, parent: Option<u32>, name: &'static str) -> u32 {
        self.inner.enter(parent.or(self.anchor), name)
    }

    fn exit(&self, token: u32, name: &'static str, nanos: u64) {
        self.inner.exit(token, name, nanos);
    }
}

/// A thread-safe span aggregator building a call tree.
///
/// Spans with the same `(parent, name)` pair aggregate into one node
/// (count + total time), so memory stays bounded no matter how many
/// times a hot phase fires. The token handed out by `enter` *is* the
/// node id. Child wall time is accumulated on the parent so a
/// snapshot can report self time.
#[derive(Default)]
pub struct Collector {
    inner: Mutex<CollectorInner>,
}

#[derive(Default)]
struct CollectorInner {
    nodes: Vec<NodeData>,
    /// `(parent node id + 1, name) -> node id`; 0 encodes "root".
    index: HashMap<(u32, &'static str), u32>,
    roots: Vec<u32>,
}

struct NodeData {
    name: &'static str,
    parent: Option<u32>,
    count: u64,
    total_ns: u64,
    child_ns: u64,
    children: Vec<u32>,
}

/// One aggregated node of a [`Collector`] snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanNode {
    /// Span name.
    pub name: &'static str,
    /// How many spans aggregated into this node.
    pub count: u64,
    /// Total wall nanoseconds across all occurrences.
    pub total_ns: u64,
    /// Total minus time attributed to child spans.
    pub self_ns: u64,
    /// Child nodes in first-seen order.
    pub children: Vec<SpanNode>,
}

impl Collector {
    /// Creates an empty collector.
    pub fn new() -> Collector {
        Collector::default()
    }

    /// Snapshot of the aggregated span tree, roots in first-seen order.
    pub fn snapshot(&self) -> Vec<SpanNode> {
        let inner = self.inner.lock().expect("collector lock");
        inner
            .roots
            .iter()
            .map(|&id| inner.node_snapshot(id))
            .collect()
    }

    /// Total number of recorded (closed) spans.
    pub fn total_spans(&self) -> u64 {
        let inner = self.inner.lock().expect("collector lock");
        inner.nodes.iter().map(|n| n.count).sum()
    }

    /// Sum of `count` over every node named `name`, anywhere in the
    /// tree.
    pub fn count_of(&self, name: &str) -> u64 {
        let inner = self.inner.lock().expect("collector lock");
        inner
            .nodes
            .iter()
            .filter(|n| n.name == name)
            .map(|n| n.count)
            .sum()
    }
}

impl CollectorInner {
    fn node_snapshot(&self, id: u32) -> SpanNode {
        let node = &self.nodes[id as usize];
        SpanNode {
            name: node.name,
            count: node.count,
            total_ns: node.total_ns,
            self_ns: node.total_ns.saturating_sub(node.child_ns),
            children: node
                .children
                .iter()
                .map(|&c| self.node_snapshot(c))
                .collect(),
        }
    }
}

impl SpanSink for Collector {
    fn enter(&self, parent: Option<u32>, name: &'static str) -> u32 {
        let mut inner = self.inner.lock().expect("collector lock");
        let key = (parent.map_or(0, |p| p + 1), name);
        if let Some(&id) = inner.index.get(&key) {
            return id;
        }
        let id = inner.nodes.len() as u32;
        inner.nodes.push(NodeData {
            name,
            parent,
            count: 0,
            total_ns: 0,
            child_ns: 0,
            children: Vec::new(),
        });
        inner.index.insert(key, id);
        match parent {
            Some(p) => inner.nodes[p as usize].children.push(id),
            None => inner.roots.push(id),
        }
        id
    }

    fn exit(&self, token: u32, _name: &'static str, nanos: u64) {
        let mut inner = self.inner.lock().expect("collector lock");
        let node = &mut inner.nodes[token as usize];
        node.count += 1;
        node.total_ns = node.total_ns.saturating_add(nanos);
        if let Some(p) = node.parent {
            let parent = &mut inner.nodes[p as usize];
            parent.child_ns = parent.child_ns.saturating_add(nanos);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uninstalled_span_is_inert() {
        // No sink on this thread and none global (obs tests never
        // install a global sink, precisely so they can run in
        // parallel): the guard must be inert even if sibling test
        // threads have thread-local sinks installed.
        let guard = span("nothing");
        assert!(guard.active.is_none());
    }

    #[test]
    fn thread_local_collector_builds_a_tree() {
        let collector = Arc::new(Collector::new());
        let guard = install_thread(collector.clone());
        assert!(enabled());
        {
            let _outer = span("outer");
            for _ in 0..3 {
                let _inner = span("inner");
            }
            let _other = span("other");
        }
        drop(guard);

        let roots = collector.snapshot();
        assert_eq!(roots.len(), 1);
        let outer = &roots[0];
        assert_eq!(outer.name, "outer");
        assert_eq!(outer.count, 1);
        assert_eq!(
            outer.children.iter().map(|c| c.name).collect::<Vec<_>>(),
            vec!["inner", "other"]
        );
        assert_eq!(outer.children[0].count, 3);
        // Self time excludes child time.
        let child_total: u64 = outer.children.iter().map(|c| c.total_ns).sum();
        assert_eq!(outer.self_ns, outer.total_ns - child_total);
        assert_eq!(collector.total_spans(), 5);
        assert_eq!(collector.count_of("inner"), 3);
    }

    #[test]
    fn thread_guard_restores_previous_sink() {
        let a = Arc::new(Collector::new());
        let b = Arc::new(Collector::new());
        let ga = install_thread(a.clone());
        {
            let gb = install_thread(b.clone());
            {
                let _s = span("in_b");
            }
            drop(gb);
        }
        {
            let _s = span("in_a");
        }
        drop(ga);
        assert_eq!(b.count_of("in_b"), 1);
        assert_eq!(b.count_of("in_a"), 0);
        assert_eq!(a.count_of("in_a"), 1);
        assert_eq!(a.count_of("in_b"), 0);
    }

    #[test]
    fn relay_carries_spans_across_threads_under_the_anchor() {
        let collector = Arc::new(Collector::new());
        let guard = install_thread(collector.clone());
        {
            let _outer = span("outer");
            let relay = Relay::capture();
            std::thread::scope(|scope| {
                for _ in 0..2 {
                    let relay = relay.clone();
                    scope.spawn(move || {
                        let _g = relay.install();
                        let _leg = span("leg");
                        let _work = span("work");
                    });
                }
            });
        }
        drop(guard);
        let roots = collector.snapshot();
        assert_eq!(roots.len(), 1, "worker spans must not become new roots");
        assert_eq!(roots[0].name, "outer");
        let leg = &roots[0].children[0];
        assert_eq!((leg.name, leg.count), ("leg", 2));
        assert_eq!((leg.children[0].name, leg.children[0].count), ("work", 2));
    }

    #[test]
    fn relay_from_a_sinkless_thread_installs_nothing() {
        let relay = Relay::capture();
        assert!(relay.install().is_none());
        // And spans on this thread stay inert.
        let _s = span("nothing");
    }

    #[test]
    fn sibling_thread_does_not_capture_into_thread_local_sink() {
        let collector = Arc::new(Collector::new());
        let guard = install_thread(collector.clone());
        std::thread::spawn(|| {
            // Other threads see `enabled()` but have no sink: inert.
            let _s = span("elsewhere");
        })
        .join()
        .expect("thread joins");
        drop(guard);
        assert_eq!(collector.total_spans(), 0);
    }
}
