//! Per-query execution profiles.
//!
//! A [`QueryProfile`] is a tree of [`SpanNode`]s — parse → plan →
//! execute, with one child per physical operator wave — each carrying
//! its start offset and wall time, rows in/out, operator attributes
//! (sorts, elisions, runs emitted, shuffle bytes, …), and the per-task
//! walls of the wave that ran it. Spans are recorded only when
//! profiling is requested, so the disabled path costs nothing; the
//! recorded timings are pure observations, which is what keeps answers
//! bit-identical with profiling on or off.
//!
//! Two serializations: [`QueryProfile::to_json`] for the HTTP
//! `profile=1` surface, and [`chrome_trace`] emitting the Chrome trace
//! event format for `chrome://tracing` / Perfetto flame graphs.

use crate::json::push_escaped;

/// Wall time of one task of a wave, offset from the profile's start.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskSpan {
    /// Task index within its wave.
    pub index: usize,
    /// Seconds from the profile start to the task starting on a worker.
    pub start_seconds: f64,
    /// Task wall-clock seconds.
    pub wall_seconds: f64,
}

/// One span of the profile tree.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SpanNode {
    /// Span name, e.g. `parse`, `plan`, `MapScan#2`.
    pub name: String,
    /// Seconds from the profile start to this span beginning.
    pub start_seconds: f64,
    /// Span wall-clock seconds.
    pub wall_seconds: f64,
    /// Tuples entering the span (sum over inputs).
    pub rows_in: u64,
    /// Tuples leaving the span.
    pub rows_out: u64,
    /// Operator attributes: sorts, elisions, runs emitted, shuffle bytes…
    pub attrs: Vec<(String, u64)>,
    /// Per-task wall times of the wave that ran this span.
    pub tasks: Vec<TaskSpan>,
    /// Child spans.
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    /// A zeroed span with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            ..Self::default()
        }
    }

    /// Adds `value` to the named attribute, creating it if absent.
    pub fn add_attr(&mut self, name: &str, value: u64) {
        if let Some(entry) = self.attrs.iter_mut().find(|(n, _)| n == name) {
            entry.1 += value;
        } else {
            self.attrs.push((name.to_string(), value));
        }
    }

    /// Shifts this span and everything below it `delta` seconds later —
    /// used to rebase an execute subtree onto the query's own epoch.
    pub fn shift(&mut self, delta: f64) {
        self.start_seconds += delta;
        for task in &mut self.tasks {
            task.start_seconds += delta;
        }
        for child in &mut self.children {
            child.shift(delta);
        }
    }

    /// Sum of direct children's wall seconds.
    pub fn children_wall_seconds(&self) -> f64 {
        self.children.iter().map(|c| c.wall_seconds).sum()
    }

    fn render_json(&self, out: &mut String) {
        out.push_str("{\"name\":\"");
        push_escaped(out, &self.name);
        out.push_str(&format!(
            "\",\"start_s\":{},\"wall_s\":{},\"rows_in\":{},\"rows_out\":{}",
            self.start_seconds, self.wall_seconds, self.rows_in, self.rows_out
        ));
        out.push_str(",\"attrs\":{");
        for (index, (name, value)) in self.attrs.iter().enumerate() {
            if index > 0 {
                out.push(',');
            }
            out.push('"');
            push_escaped(out, name);
            out.push_str(&format!("\":{value}"));
        }
        out.push_str("},\"tasks\":[");
        for (index, task) in self.tasks.iter().enumerate() {
            if index > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"task\":{},\"start_s\":{},\"wall_s\":{}}}",
                task.index, task.start_seconds, task.wall_seconds
            ));
        }
        out.push_str("],\"children\":[");
        for (index, child) in self.children.iter().enumerate() {
            if index > 0 {
                out.push(',');
            }
            child.render_json(out);
        }
        out.push_str("]}");
    }
}

/// A complete per-query profile: the span tree plus query-level facts.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryProfile {
    /// The query's name or text.
    pub query: String,
    /// Worker threads the execution ran with.
    pub threads: usize,
    /// End-to-end wall seconds (parse through decode).
    pub total_wall_seconds: f64,
    /// The span tree; children are typically parse, plan, execute.
    pub root: SpanNode,
}

impl QueryProfile {
    /// The profile as a self-contained JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\"query\":\"");
        push_escaped(&mut out, &self.query);
        out.push_str(&format!(
            "\",\"threads\":{},\"total_wall_s\":{},\"root\":",
            self.threads, self.total_wall_seconds
        ));
        self.root.render_json(&mut out);
        out.push('}');
        out
    }
}

/// Renders profiles as a Chrome trace (open in `chrome://tracing` or
/// [Perfetto](https://ui.perfetto.dev)). Each query becomes a process;
/// spans land on thread 0 and each wave task on its own thread row, so
/// the flame graph shows driver time above per-task parallelism.
pub fn chrome_trace(profiles: &[QueryProfile]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    for (index, profile) in profiles.iter().enumerate() {
        let pid = index + 1;
        begin_event(&mut out, &mut first);
        out.push_str(&format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
             \"args\":{{\"name\":\""
        ));
        push_escaped(&mut out, &profile.query);
        out.push_str("\"}}");
        chrome_node(&mut out, &mut first, &profile.root, pid);
    }
    out.push_str("]}");
    out
}

fn chrome_node(out: &mut String, first: &mut bool, node: &SpanNode, pid: usize) {
    begin_event(out, first);
    out.push_str("{\"name\":\"");
    push_escaped(out, &node.name);
    out.push_str(&format!(
        "\",\"cat\":\"span\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
         \"pid\":{pid},\"tid\":0,\"args\":{{\"rows_in\":{},\"rows_out\":{}}}}}",
        micros(node.start_seconds),
        micros(node.wall_seconds),
        node.rows_in,
        node.rows_out
    ));
    for task in &node.tasks {
        begin_event(out, first);
        out.push_str("{\"name\":\"");
        push_escaped(out, &node.name);
        out.push_str(&format!(
            "[{}]\",\"cat\":\"task\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
             \"pid\":{pid},\"tid\":{}}}",
            task.index,
            micros(task.start_seconds),
            micros(task.wall_seconds),
            task.index + 1
        ));
    }
    for child in &node.children {
        chrome_node(out, first, child, pid);
    }
}

/// Separates the next trace event from the previous one.
fn begin_event(out: &mut String, first: &mut bool) {
    if !*first {
        out.push(',');
    }
    *first = false;
}

fn micros(seconds: f64) -> u64 {
    (seconds * 1e6).round().max(0.0) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> QueryProfile {
        let mut execute = SpanNode::new("execute");
        execute.start_seconds = 0.002;
        execute.wall_seconds = 0.01;
        let mut scan = SpanNode::new("MapScan#0");
        scan.start_seconds = 0.002;
        scan.wall_seconds = 0.004;
        scan.rows_in = 100;
        scan.rows_out = 40;
        scan.add_attr("sorts_performed", 2);
        scan.add_attr("sorts_performed", 1);
        scan.tasks.push(TaskSpan {
            index: 0,
            start_seconds: 0.0021,
            wall_seconds: 0.003,
        });
        execute.children.push(scan);
        let mut root = SpanNode::new("query");
        root.wall_seconds = 0.012;
        root.children.push(execute);
        QueryProfile {
            query: "Q1".into(),
            threads: 2,
            total_wall_seconds: 0.012,
            root,
        }
    }

    #[test]
    fn json_contains_tree() {
        let json = sample().to_json();
        assert!(json.starts_with("{\"query\":\"Q1\""));
        assert!(json.contains("\"threads\":2"));
        assert!(json.contains("\"name\":\"MapScan#0\""));
        assert!(json.contains("\"sorts_performed\":3"));
        assert!(json.contains("\"tasks\":[{\"task\":0"));
        assert!(json.ends_with("}"));
    }

    #[test]
    fn shift_rebases_everything() {
        let mut profile = sample();
        profile.root.shift(1.0);
        assert!((profile.root.start_seconds - 1.0).abs() < 1e-12);
        let scan = &profile.root.children[0].children[0];
        assert!((scan.start_seconds - 1.002).abs() < 1e-12);
        assert!((scan.tasks[0].start_seconds - 1.0021).abs() < 1e-12);
    }

    #[test]
    fn chrome_trace_shape() {
        let trace = chrome_trace(&[sample()]);
        assert!(trace.starts_with("{\"traceEvents\":["));
        assert!(trace.contains("\"process_name\""));
        assert!(trace.contains("\"name\":\"MapScan#0\""));
        assert!(trace.contains("\"name\":\"MapScan#0[0]\""));
        assert!(trace.contains("\"dur\":4000"));
        assert!(trace.ends_with("]}"));
    }

    #[test]
    fn children_wall_sums() {
        let profile = sample();
        assert!((profile.root.children_wall_seconds() - 0.01).abs() < 1e-12);
    }
}
