//! Chrome `trace_event` JSON export.

use crate::counts::TokenCounts;
use crate::profile::ExecProfile;
use crate::sink::{CountersSink, TraceSink};
use std::fmt::Write as _;
use std::sync::Mutex;

struct Span {
    track: usize,
    name: String,
    start_ns: u64,
    dur_ns: u64,
}

#[derive(Default)]
struct Timeline {
    /// Track names in registration order; the index is the Chrome `tid`.
    tracks: Vec<String>,
    spans: Vec<Span>,
}

impl Timeline {
    fn track_id(&mut self, track: &str) -> usize {
        match self.tracks.iter().position(|t| t == track) {
            Some(i) => i,
            None => {
                self.tracks.push(track.to_string());
                self.tracks.len() - 1
            }
        }
    }
}

/// Escapes a string for embedding in a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// A [`TraceSink`] that accumulates everything [`CountersSink`] does *and*
/// records timeline spans, exported as Chrome `trace_event` JSON loadable
/// in `chrome://tracing` or [Perfetto](https://ui.perfetto.dev).
///
/// Each distinct `track` passed to [`TraceSink::record_span`] becomes one
/// timeline row (a Chrome thread with a `thread_name` metadata event): the
/// fast backend puts every node on one `serial` track, the cycle backend
/// uses one track per simulated block, the tiled backend one `tiles` track
/// with a span per tile tuple.
///
/// ```
/// use sam_trace::{ChromeTraceSink, TraceSink};
///
/// let sink = ChromeTraceSink::new();
/// sink.record_span("serial", "scan B0", 0, 1500);
/// let json = sink.to_json();
/// assert!(json.contains("\"traceEvents\""));
/// assert!(json.contains("scan B0"));
/// ```
#[derive(Default)]
pub struct ChromeTraceSink {
    counters: CountersSink,
    timeline: Mutex<Timeline>,
}

impl std::fmt::Debug for ChromeTraceSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChromeTraceSink").finish_non_exhaustive()
    }
}

impl ChromeTraceSink {
    /// A fresh, empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// The counter rollup accumulated so far (identical to what a
    /// [`CountersSink`] would have collected).
    pub fn profile(&self) -> ExecProfile {
        self.counters.profile()
    }

    /// Number of spans recorded so far.
    pub fn span_count(&self) -> usize {
        self.timeline.lock().expect("trace timeline").spans.len()
    }

    /// Serializes the timeline as Chrome `trace_event` JSON (the "JSON
    /// object format": a `traceEvents` array of `ph:"X"` complete events
    /// plus `thread_name` metadata, timestamps in microseconds).
    pub fn to_json(&self) -> String {
        let timeline = self.timeline.lock().expect("trace timeline");
        let mut out = String::from("{\n  \"traceEvents\": [\n");
        let mut first = true;
        let mut push_event = |line: String, out: &mut String| {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            out.push_str("    ");
            out.push_str(&line);
        };
        push_event(
            "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":1,\"tid\":0,\"args\":{\"name\":\"sam\"}}"
                .to_string(),
            &mut out,
        );
        for (tid, track) in timeline.tracks.iter().enumerate() {
            push_event(
                format!(
                    "{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":{},\"args\":{{\"name\":\"{}\"}}}}",
                    tid,
                    json_escape(track)
                ),
                &mut out,
            );
        }
        for span in &timeline.spans {
            push_event(
                format!(
                    "{{\"ph\":\"X\",\"name\":\"{}\",\"cat\":\"sam\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3}}}",
                    json_escape(&span.name),
                    span.track,
                    span.start_ns as f64 / 1e3,
                    span.dur_ns as f64 / 1e3,
                ),
                &mut out,
            );
        }
        out.push_str("\n  ],\n  \"displayTimeUnit\": \"ms\"\n}\n");
        out
    }

    /// Writes [`Self::to_json`] to a file.
    pub fn write_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }
}

impl TraceSink for ChromeTraceSink {
    fn define_node(&self, node: usize, label: &str) {
        self.counters.define_node(node, label);
    }

    fn record_tokens(&self, node: usize, counts: TokenCounts) {
        self.counters.record_tokens(node, counts);
    }

    fn record_invocations(&self, node: usize, n: u64) {
        self.counters.record_invocations(node, n);
    }

    fn record_node_wall(&self, node: usize, ns: u64) {
        self.counters.record_node_wall(node, ns);
    }

    fn record_span(&self, track: &str, name: &str, start_ns: u64, dur_ns: u64) {
        let mut timeline = self.timeline.lock().expect("trace timeline");
        let track = timeline.track_id(track);
        timeline.spans.push(Span { track, name: name.to_string(), start_ns, dur_ns });
    }

    fn snapshot(&self) -> Option<ExecProfile> {
        Some(self.profile())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracks_are_deduplicated_and_named() {
        let sink = ChromeTraceSink::new();
        sink.record_span("serial", "a", 0, 10);
        sink.record_span("tiles", "b", 5, 10);
        sink.record_span("serial", "c", 12, 3);
        assert_eq!(sink.span_count(), 3);
        let json = sink.to_json();
        // Two thread_name metadata events, not three.
        assert_eq!(json.matches("thread_name").count(), 2);
        assert!(json.contains("serial"));
        assert!(json.contains("tiles"));
    }

    #[test]
    fn json_is_structurally_sound() {
        let sink = ChromeTraceSink::new();
        sink.record_span("t", "quote\" and \\slash", 1000, 2000);
        let json = sink.to_json();
        assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(json.contains("\\\"") && json.contains("\\\\"));
        // ts/dur are microseconds: 1000ns -> 1.000us.
        assert!(json.contains("\"ts\":1.000"));
        assert!(json.contains("\"dur\":2.000"));
    }

    #[test]
    fn counters_flow_through_to_the_profile() {
        let sink = ChromeTraceSink::new();
        sink.define_node(0, "scan");
        sink.record_tokens(0, TokenCounts { crd: 4, ..Default::default() });
        sink.record_span("serial", "scan", 0, 100);
        let p = sink.snapshot().unwrap();
        assert_eq!(p.nodes[0].tokens.crd, 4);
        assert_eq!(p.nodes[0].label, "scan");
    }

    #[test]
    fn empty_timeline_is_still_valid_json() {
        let sink = ChromeTraceSink::new();
        let json = sink.to_json();
        assert!(json.contains("traceEvents"));
        assert!(json.contains("process_name"));
    }
}
