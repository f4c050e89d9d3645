//! The measuring apparatus: an in-memory span recorder, a counting global
//! allocator and the peak-RSS reader. All three observe from outside the
//! library crates.

use crate::json::Value;
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// Counts allocations while [`CountingAlloc::set_enabled`] is on. An
/// untraced run pays one relaxed load per allocation call.
pub struct CountingAlloc;

// Statistics only: the counters publish no other data, so `Relaxed` is enough.
static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

#[inline]
fn count(bytes: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: `layout` is the caller's, passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` came from this allocator, which is `System` underneath,
        // with `layout`; both are passed through as received.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as in `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

impl CountingAlloc {
    pub fn set_enabled(on: bool) {
        COUNTING.store(on, Ordering::Relaxed);
    }

    /// `(calls, bytes)` requested since the process started counting.
    pub fn totals() -> (u64, u64) {
        (ALLOC_CALLS.load(Ordering::Relaxed), ALLOC_BYTES.load(Ordering::Relaxed))
    }
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status =
        std::fs::read_to_string("/proc/self/status").map_err(|e| format!("/proc/self/status: {e}"))?;
    let line =
        status.lines().find(|l| l.starts_with("VmHWM:")).ok_or("no VmHWM line in /proc/self/status")?;
    let kb: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("unreadable VmHWM line: {line}"))?;
    Ok(kb / 1024.0)
}

/// What the kernel has charged this process so far (`/proc/self/stat`):
/// minor page faults, and user and system CPU time in clock ticks, threads
/// included. All zero where the file cannot be read.
#[derive(Debug, Clone, Copy, Default)]
pub struct OsCounters {
    pub minor_faults: u64,
    pub user_ticks: u64,
    pub system_ticks: u64,
}

impl OsCounters {
    pub fn read() -> OsCounters {
        let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
        // The command name (field 2) may hold spaces; fields count from the
        // closing parenthesis, which ends it.
        let fields: Vec<u64> = stat
            .rsplit(')')
            .next()
            .unwrap_or("")
            .split_whitespace()
            .map(|f| f.parse().unwrap_or(0))
            .collect();
        // After the name: state is index 0, minflt 7, utime 11, stime 12.
        let field = |i: usize| fields.get(i).copied().unwrap_or(0);
        OsCounters { minor_faults: field(7), user_ticks: field(11), system_ticks: field(12) }
    }
}

/// No kernel: the span belongs to no single expression of the list.
pub const NO_KERNEL: u16 = u16::MAX;
const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub kernel: u16,
    pub query_id: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    parent: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle of an open span, returned by [`Tracer::open`].
#[derive(Debug, Clone, Copy)]
pub struct Open(u32);

/// Records spans in memory; a disabled tracer records nothing and takes no
/// clock reads.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer { enabled, origin: Instant::now(), spans: Vec::new(), stack: Vec::new() }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn since_origin(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open one.
    pub fn open(&mut self, name: &'static str, kernel: u16, query_id: u64) -> Open {
        if !self.enabled {
            return Open(NO_PARENT);
        }
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        let index = self.spans.len() as u32;
        let start_ns = self.since_origin(Instant::now());
        self.spans.push(Span { name, kernel, query_id, start_ns, end_ns: start_ns, parent });
        self.stack.push(index);
        Open(index)
    }

    /// Closes `open`, which must be the innermost open span.
    pub fn close(&mut self, open: Open) {
        if !self.enabled {
            return;
        }
        assert_eq!(self.stack.pop(), Some(open.0), "spans close innermost first");
        self.spans[open.0 as usize].end_ns = self.since_origin(Instant::now());
    }

    /// Records a finished span timed elsewhere (a client thread's query),
    /// as a child of the innermost open span. Returns its handle so callers
    /// can hang children off it with [`Tracer::add_child`].
    pub fn add(
        &mut self,
        name: &'static str,
        kernel: u16,
        query_id: u64,
        start: Instant,
        end: Instant,
    ) -> Open {
        if !self.enabled {
            return Open(NO_PARENT);
        }
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        self.push_finished(name, kernel, query_id, start, end, parent)
    }

    pub fn add_child(&mut self, parent: Open, name: &'static str, start: Instant, end: Instant) {
        if self.enabled {
            let Span { kernel, query_id, .. } = self.spans[parent.0 as usize];
            self.push_finished(name, kernel, query_id, start, end, parent.0);
        }
    }

    fn push_finished(
        &mut self,
        name: &'static str,
        kernel: u16,
        query_id: u64,
        start: Instant,
        end: Instant,
        parent: u32,
    ) -> Open {
        let index = self.spans.len() as u32;
        let (start_ns, end_ns) = (self.since_origin(start), self.since_origin(end));
        self.spans.push(Span { name, kernel, query_id, start_ns, end_ns, parent });
        Open(index)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in nanoseconds of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.dur_ns() as f64).collect()
    }

    /// Self time per span name under spans called `root`: each span's
    /// duration minus the part its direct children cover, summed by name.
    pub fn self_times(&self, root: &str) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        let mut under_root = vec![false; self.spans.len()];
        for (i, span) in self.spans.iter().enumerate() {
            // Parents are recorded before their children, so one pass settles
            // membership.
            under_root[i] =
                span.name == root || (span.parent != NO_PARENT && under_root[span.parent as usize]);
            if span.parent != NO_PARENT {
                child_ns[span.parent as usize] += span.dur_ns();
            }
        }
        let mut by_name = BTreeMap::new();
        for (i, span) in self.spans.iter().enumerate().filter(|(i, _)| under_root[*i]) {
            *by_name.entry(span.name).or_insert(0) += span.dur_ns().saturating_sub(child_ns[i]);
        }
        by_name
    }

    /// Chrome `trace_event` JSON of the first `limit` spans (complete `X`
    /// events, microseconds; parent and query id ride in `args`).
    pub fn chrome_trace(&self, limit: usize, kernel_name: impl Fn(u16) -> Option<&'static str>) -> Value {
        let events = self
            .spans
            .iter()
            .take(limit)
            .enumerate()
            .map(|(i, s)| {
                let mut args =
                    vec![("span", Value::from(i as f64)), ("query_id", Value::from(s.query_id as f64))];
                if s.parent != NO_PARENT {
                    args.push(("parent", Value::from(f64::from(s.parent))));
                }
                if let Some(kernel) = kernel_name(s.kernel) {
                    args.push(("kernel", Value::from(kernel)));
                }
                Value::object(vec![
                    ("name", Value::from(s.name)),
                    ("ph", Value::from("X")),
                    ("pid", Value::from(1.0)),
                    ("tid", Value::from(1.0)),
                    ("ts", Value::from(s.start_ns as f64 / 1e3)),
                    ("dur", Value::from(s.dur_ns() as f64 / 1e3)),
                    ("args", Value::object(args)),
                ])
            })
            .collect();
        Value::object(vec![
            ("traceEvents", Value::Array(events)),
            ("displayTimeUnit", Value::from("ms")),
            ("spansRecorded", Value::from(self.spans.len() as f64)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut tr = Tracer::new(true);
        let t0 = tr.origin;
        let at = |us: u64| t0 + std::time::Duration::from_micros(us);
        let q = tr.add("query", 0, 1, at(0), at(100));
        tr.add_child(q, "exec.plan", at(0), at(10));
        tr.add_child(q, "exec.run", at(10), at(90));
        tr.add("setup", NO_KERNEL, 0, at(200), at(300));
        let shares = tr.self_times("query");
        assert_eq!(shares["query"], 10_000);
        assert_eq!(shares["exec.plan"], 10_000);
        assert_eq!(shares["exec.run"], 80_000);
        assert!(!shares.contains_key("setup"));
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        let open = tr.open("query", 0, 1);
        tr.close(open);
        assert!(tr.spans().is_empty());
    }
}
