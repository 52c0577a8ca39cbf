//! Per-operator execution tracing.
//!
//! When an [`ExecContext`](crate::ExecContext) runs with
//! [`TraceLevel::Spans`], every physical operator records a [`TraceSpan`]
//! — operator kind, input/output rows, cells charged, wall time and the
//! representation it ran on — into a per-query [`TraceTree`] mirroring
//! the executed plan. The engine surfaces the tree on `Answer::trace` and
//! pretty-prints it next to the optimizer's cardinality estimates
//! (`Database::explain_analyze`), which is what makes cost-model drift
//! visible operator-by-operator: the paper's CS/CS+/VE/VE+ strategies
//! differ exactly in the per-operator join/group-by sizes induced by the
//! elimination order.
//!
//! Tracing is structured as a span *stack* owned by the context:
//!
//! * the interpreter opens a span per plan node before evaluating it and
//!   closes it afterwards (inclusive wall time, PostgreSQL
//!   `EXPLAIN ANALYZE` convention); the operator's own
//!   `record_join`/`record_group_by`/`record_select_ex`/`record_scan`
//!   accounting call fills the open span's row counts;
//! * inference entry points (`VeCache::build_in`,
//!   `JunctionTree::populate_in`, `bp::calibrate_in`) open a *phase* span;
//!   operator accounting calls with no fillable open span attach leaf
//!   spans, so ad-hoc operator sequences trace too (without per-leaf
//!   timing — only spans opened explicitly carry wall time).
//!
//! A context records its tree on the thread that runs its plan. A dense
//! step's output-row workers record nothing, so the tree shape is
//! identical at every thread count.
//!
//! At [`TraceLevel::Off`] (the default) every hook is a single branch on
//! the level — no allocation, no clock reads.

use std::time::{Duration, Instant};

use mpf_storage::VarId;

/// How much execution tracing a context records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TraceLevel {
    /// No tracing: every trace hook is a no-op (the default).
    #[default]
    Off,
    /// Record a [`TraceSpan`] per physical operator into a [`TraceTree`].
    Spans,
}

/// The kind of operator (or grouping phase) a span describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// Base-relation scan.
    Scan,
    /// Equality selection.
    Select,
    /// Product join (any algorithm).
    Join,
    /// Marginalization / group-by (any algorithm).
    GroupBy,
    /// A named phase grouping child operator spans (e.g.
    /// `vecache::build`); never filled by operator accounting.
    Phase,
}

impl SpanKind {
    /// Stable lower-case name (used in JSON export and default labels).
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Scan => "scan",
            SpanKind::Select => "select",
            SpanKind::Join => "join",
            SpanKind::GroupBy => "group_by",
            SpanKind::Phase => "phase",
        }
    }
}

/// The storage representation an operator actually ran on — the span
/// annotation that distinguishes the hash path (`Rows`) from the sorted
/// coordinate tensor (`Sparse`) and the odometer grid (`Dense`) in
/// traces and `explain_analyze` output.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OpRepr {
    /// Row-major hash operators (the general path).
    #[default]
    Rows,
    /// Sparse-tensor kernels (sorted-merge join / coordinate collapse).
    Sparse,
    /// Dense odometer kernels.
    Dense,
}

impl OpRepr {
    /// Stable lower-case name (`rows`/`sparse`/`dense`), the span's
    /// `repr=` tag in text and JSON.
    pub fn name(self) -> &'static str {
        match self {
            OpRepr::Rows => "rows",
            OpRepr::Sparse => "sparse",
            OpRepr::Dense => "dense",
        }
    }
}

/// What a span records when it is opened (before the operator runs).
#[derive(Debug, Clone)]
pub struct SpanDesc {
    /// Operator kind.
    pub kind: SpanKind,
    /// Display label (e.g. `Scan r1`, `ProductJoin (Hash)`).
    pub label: String,
    /// Pre-marks the span's representation. Normally left [`OpRepr::Rows`]
    /// — execution sets the annotation on the span when a sparse or dense
    /// kernel actually records into it, so traces distinguish
    /// planned-representation from ran-representation.
    pub repr: OpRepr,
}

impl SpanDesc {
    /// A phase span (groups child operator spans under a name).
    pub fn phase(label: impl Into<String>) -> SpanDesc {
        SpanDesc {
            kind: SpanKind::Phase,
            label: label.into(),
            repr: OpRepr::Rows,
        }
    }

    /// An operator span, pre-marked [`OpRepr::Rows`].
    pub fn op(kind: SpanKind, label: impl Into<String>) -> SpanDesc {
        SpanDesc {
            kind,
            label: label.into(),
            repr: OpRepr::Rows,
        }
    }
}

/// One operator's recorded execution.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSpan {
    /// Operator kind.
    pub kind: SpanKind,
    /// Display label.
    pub label: String,
    /// Rows entering the operator (sum over inputs; 0 for scans).
    pub rows_in: u64,
    /// Rows the operator produced.
    pub rows_out: u64,
    /// Cells charged for the output (`rows_out × (arity + 1)`), the unit
    /// [`crate::ExecBudget`] meters.
    pub cells: u64,
    /// Inclusive wall time (children included), like PostgreSQL's
    /// `EXPLAIN ANALYZE` actual time. Zero for leaf spans attached by
    /// operator accounting outside an explicitly opened span.
    pub elapsed: Duration,
    /// The storage representation the operator ran on.
    pub repr: OpRepr,
    /// The loop nest a fused contraction ran: dense `"tile"` (register
    /// tiles along output axes) or `"cell"` (one serial fold per output
    /// cell), sparse `"stream"`, `"scatter"` or `"staged"`; `None` for
    /// every other operator.
    pub nest: Option<&'static str>,
    /// The instruction-set tier a fused dense contraction's kernel was
    /// compiled for (`"base"`, `"avx2"`, `"avx512"`; see
    /// [`mpf_semiring::kernel::SimdTier`]); `None` for every other
    /// operator.
    pub simd: Option<&'static str>,
    /// Where a sparse operator's stored-relation operands were keyed
    /// from: `"memo"` (every memo lookup hit) or `"built"` (it filled a
    /// memo); `None` when no operand had a memo to consult.
    pub keyed: Option<&'static str>,
    /// The variables a selection pinned when it ran as a grid's pinned
    /// slice (`repr=dense`); empty for every other operator.
    pub pinned: Vec<VarId>,
    /// True when the span is a fused join→marginalize contraction (one
    /// operator accounting as a join *and* a group-by).
    pub fused: bool,
    /// Optimizer-estimated output rows, filled by the engine's
    /// estimate-annotation pass (`None` inside bare algebra runs).
    pub est_rows: Option<f64>,
    /// The error the operator failed with, when it did (records the
    /// fault site when fault injection tripped it).
    pub fault: Option<String>,
    /// Child spans in execution (plan) order.
    pub children: Vec<TraceSpan>,
}

impl TraceSpan {
    fn new(desc: SpanDesc) -> TraceSpan {
        TraceSpan {
            kind: desc.kind,
            label: desc.label,
            rows_in: 0,
            rows_out: 0,
            cells: 0,
            elapsed: Duration::ZERO,
            repr: desc.repr,
            nest: None,
            simd: None,
            keyed: None,
            pinned: Vec::new(),
            fused: false,
            est_rows: None,
            fault: None,
            children: Vec::new(),
        }
    }

    /// This span plus all descendants.
    pub fn span_count(&self) -> usize {
        1 + self.children.iter().map(TraceSpan::span_count).sum::<usize>()
    }

    /// Visit this span and all descendants, pre-order.
    pub fn for_each(&self, f: &mut impl FnMut(&TraceSpan)) {
        f(self);
        for c in &self.children {
            c.for_each(f);
        }
    }

    /// Visit this span and all descendants mutably, pre-order.
    pub fn for_each_mut(&mut self, f: &mut impl FnMut(&mut TraceSpan)) {
        f(self);
        for c in &mut self.children {
            c.for_each_mut(f);
        }
    }

    fn render_into(&self, out: &mut String, depth: usize, var_name: &dyn Fn(VarId) -> String) {
        let indent = "  ".repeat(depth);
        out.push_str(&format!("{indent}{}", self.label));
        if self.kind == SpanKind::Phase {
            out.push_str(&format!("  (time={:.1?})", self.elapsed));
        } else {
            out.push_str("  (");
            if let Some(est) = self.est_rows {
                out.push_str(&format!("est rows={est:.1}, "));
            }
            out.push_str(&format!(
                "rows={}, cells={}, time={:.1?}",
                self.rows_out, self.cells, self.elapsed
            ));
            out.push_str(&format!(", repr={}", self.repr.name()));
            if let Some(n) = self.nest {
                out.push_str(&format!(", nest={n}"));
            }
            if let Some(t) = self.simd {
                out.push_str(&format!(", simd={t}"));
            }
            if let Some(k) = self.keyed {
                out.push_str(&format!(", keyed={k}"));
            }
            if !self.pinned.is_empty() {
                let names: Vec<String> = self.pinned.iter().map(|&v| var_name(v)).collect();
                out.push_str(&format!(", pinned={}", names.join(",")));
            }
            if self.fused {
                out.push_str(", fused=true");
            }
            out.push(')');
        }
        if let Some(fault) = &self.fault {
            out.push_str(&format!("  [failed: {fault}]"));
        }
        out.push('\n');
        for c in &self.children {
            c.render_into(out, depth + 1, var_name);
        }
    }

    fn json_into(&self, out: &mut String) {
        out.push_str(&format!(
            "{{\"kind\":\"{}\",\"label\":{},\"rows_in\":{},\"rows_out\":{},\"cells\":{},\"elapsed_us\":{}",
            self.kind.name(),
            json_string(&self.label),
            self.rows_in,
            self.rows_out,
            self.cells,
            self.elapsed.as_micros()
        ));
        if self.kind != SpanKind::Phase {
            out.push_str(&format!(",\"repr\":\"{}\"", self.repr.name()));
        }
        if let Some(n) = self.nest {
            out.push_str(&format!(",\"nest\":\"{n}\""));
        }
        if let Some(t) = self.simd {
            out.push_str(&format!(",\"simd\":\"{t}\""));
        }
        if let Some(k) = self.keyed {
            out.push_str(&format!(",\"keyed\":\"{k}\""));
        }
        if !self.pinned.is_empty() {
            let ids: Vec<String> = self.pinned.iter().map(|v| v.0.to_string()).collect();
            out.push_str(&format!(",\"pinned\":[{}]", ids.join(",")));
        }
        if self.fused {
            out.push_str(",\"fused\":true");
        }
        if let Some(e) = self.est_rows {
            if e.is_finite() {
                out.push_str(&format!(",\"est_rows\":{e:.3}"));
            }
        }
        if let Some(f) = &self.fault {
            out.push_str(&format!(",\"fault\":{}", json_string(f)));
        }
        out.push_str(",\"children\":[");
        for (i, c) in self.children.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            c.json_into(out);
        }
        out.push_str("]}");
    }
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A per-query trace: the forest of finished root spans (a single plan
/// execution yields one root; a phase-structured build may yield several).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceTree {
    /// Finished top-level spans, in execution order.
    pub roots: Vec<TraceSpan>,
}

impl TraceTree {
    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.roots.is_empty()
    }

    /// Total number of spans in the tree.
    pub fn span_count(&self) -> usize {
        self.roots.iter().map(TraceSpan::span_count).sum()
    }

    /// Visit every span, pre-order.
    pub fn for_each(&self, f: &mut impl FnMut(&TraceSpan)) {
        for r in &self.roots {
            r.for_each(f);
        }
    }

    /// Visit every span mutably, pre-order.
    pub fn for_each_mut(&mut self, f: &mut impl FnMut(&mut TraceSpan)) {
        for r in &mut self.roots {
            r.for_each_mut(f);
        }
    }

    /// Render as an indented tree with per-span actuals, naming pinned
    /// variables by id (`pinned=v1`); see [`TraceTree::render_with`].
    pub fn render(&self) -> String {
        self.render_with(&|v| v.to_string())
    }

    /// [`TraceTree::render`] with pinned variables named by `var_name`
    /// (the engine passes the catalog's names: `pinned=b`).
    pub fn render_with(&self, var_name: &dyn Fn(VarId) -> String) -> String {
        let mut out = String::new();
        for r in &self.roots {
            r.render_into(&mut out, 0, var_name);
        }
        out
    }

    /// Export as JSON (hand-rolled; the tree is the artifact CI uploads).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"spans\":[");
        for (i, r) in self.roots.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            r.json_into(&mut out);
        }
        out.push_str("]}");
        out
    }
}

/// The span stack a context collects into. All methods are no-ops at
/// [`TraceLevel::Off`].
#[derive(Debug)]
pub(crate) struct TraceCollector {
    level: TraceLevel,
    stack: Vec<OpenSpan>,
    roots: Vec<TraceSpan>,
}

#[derive(Debug)]
struct OpenSpan {
    span: TraceSpan,
    /// Whether operator accounting already filled the row counts.
    filled: bool,
    start: Instant,
}

impl TraceCollector {
    pub(crate) fn new(level: TraceLevel) -> TraceCollector {
        TraceCollector {
            level,
            stack: Vec::new(),
            roots: Vec::new(),
        }
    }

    pub(crate) fn level(&self) -> TraceLevel {
        self.level
    }

    pub(crate) fn set_level(&mut self, level: TraceLevel) {
        self.level = level;
    }

    #[inline]
    pub(crate) fn enabled(&self) -> bool {
        self.level != TraceLevel::Off
    }

    /// Open a span; `desc` is only evaluated when tracing is on.
    pub(crate) fn open(&mut self, desc: impl FnOnce() -> SpanDesc) {
        if !self.enabled() {
            return;
        }
        let desc = desc();
        // Phase spans are never filled by operator accounting; operator
        // spans expect exactly one fill from the operator they wrap.
        let filled = desc.kind == SpanKind::Phase;
        self.stack.push(OpenSpan {
            span: TraceSpan::new(desc),
            filled,
            start: Instant::now(),
        });
    }

    /// Close the innermost open span, attaching it to its parent (or the
    /// roots). `fault` is only evaluated when tracing is on.
    pub(crate) fn close(&mut self, fault: impl FnOnce() -> Option<String>) {
        if !self.enabled() {
            return;
        }
        let Some(mut open) = self.stack.pop() else {
            return;
        };
        open.span.elapsed = open.start.elapsed();
        open.span.fault = fault();
        self.attach(open.span);
    }

    /// Operator accounting: fill the innermost unfilled open span of the
    /// same kind, or attach a leaf span (ad-hoc operator calls outside
    /// the interpreter). `repr` marks the storage representation the
    /// operator actually ran on (a sparse/dense mark overrides the
    /// span's planned annotation; `Rows` leaves a pre-mark in place).
    pub(crate) fn record_op(
        &mut self,
        kind: SpanKind,
        rows_in: u64,
        rows_out: u64,
        cells: u64,
        repr: OpRepr,
    ) {
        if !self.enabled() {
            return;
        }
        if let Some(top) = self.stack.last_mut() {
            if !top.filled && top.span.kind == kind {
                top.span.rows_in = rows_in;
                top.span.rows_out = rows_out;
                top.span.cells = cells;
                if repr != OpRepr::Rows {
                    top.span.repr = repr;
                }
                top.filled = true;
                return;
            }
        }
        let mut leaf = TraceSpan::new(SpanDesc::op(kind, kind.name()));
        leaf.rows_in = rows_in;
        leaf.rows_out = rows_out;
        leaf.cells = cells;
        leaf.repr = repr;
        self.attach(leaf);
    }

    /// Tag the active span with the fused kernel's loop nest: the
    /// innermost open span when one exists (interpreter path), else the
    /// span most recently attached at the current level (ad-hoc operator
    /// calls, whose accounting attaches a leaf just before this runs).
    pub(crate) fn set_nest(&mut self, nest: &'static str) {
        if let Some(span) = self.active_span() {
            span.nest = Some(nest);
        }
    }

    /// Tag the active span with the instruction-set tier its kernel ran
    /// (same targeting rule as [`TraceCollector::set_nest`]).
    pub(crate) fn set_simd(&mut self, simd: &'static str) {
        if let Some(span) = self.active_span() {
            span.simd = Some(simd);
        }
    }

    /// Tag the active span with where its operands were keyed from (same
    /// targeting rule as [`TraceCollector::set_nest`]).
    pub(crate) fn set_keyed(&mut self, keyed: &'static str) {
        if let Some(span) = self.active_span() {
            span.keyed = Some(keyed);
        }
    }

    /// Tag the active span with the variables a pinned slice fixed (same
    /// targeting rule as [`TraceCollector::set_nest`]).
    pub(crate) fn set_pinned(&mut self, vars: Vec<VarId>) {
        if let Some(span) = self.active_span() {
            span.pinned = vars;
        }
    }

    /// Mark the active span as a fused join→marginalize contraction (same
    /// targeting rule as [`TraceCollector::set_nest`]).
    pub(crate) fn set_fused(&mut self, fused: bool) {
        if let Some(span) = self.active_span() {
            span.fused = fused;
        }
    }

    /// The span a tag belongs to; `None` when tracing is off.
    fn active_span(&mut self) -> Option<&mut TraceSpan> {
        if !self.enabled() {
            return None;
        }
        match self.stack.last_mut() {
            // A filled operator span is the operator this tag belongs
            // to; a phase span (or an operator span whose accounting
            // attached a leaf instead of filling) routes to the most
            // recently attached child.
            Some(top) => {
                if top.span.kind != SpanKind::Phase && top.filled {
                    Some(&mut top.span)
                } else {
                    top.span.children.last_mut()
                }
            }
            None => self.roots.last_mut(),
        }
    }

    /// Take the finished tree, resetting the collector (open spans are
    /// discarded — callers close spans on both success and error paths).
    pub(crate) fn take(&mut self) -> TraceTree {
        self.stack.clear();
        TraceTree {
            roots: std::mem::take(&mut self.roots),
        }
    }

    fn attach(&mut self, span: TraceSpan) {
        match self.stack.last_mut() {
            Some(top) => top.span.children.push(span),
            None => self.roots.push(span),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn desc(kind: SpanKind, label: &str) -> SpanDesc {
        SpanDesc::op(kind, label)
    }

    #[test]
    fn off_collects_nothing() {
        let mut c = TraceCollector::new(TraceLevel::Off);
        c.open(|| desc(SpanKind::Join, "j"));
        c.record_op(SpanKind::Join, 4, 2, 6, OpRepr::Rows);
        c.close(|| None);
        assert!(c.take().is_empty());
    }

    #[test]
    fn operator_accounting_fills_the_open_span() {
        let mut c = TraceCollector::new(TraceLevel::Spans);
        c.open(|| desc(SpanKind::Join, "ProductJoin (Hash)"));
        c.open(|| desc(SpanKind::Scan, "Scan r1"));
        c.record_op(SpanKind::Scan, 0, 4, 12, OpRepr::Rows);
        c.close(|| None);
        c.record_op(SpanKind::Join, 8, 16, 64, OpRepr::Rows);
        c.close(|| None);
        let t = c.take();
        assert_eq!(t.span_count(), 2);
        let root = &t.roots[0];
        assert_eq!(root.rows_out, 16);
        assert_eq!(root.children.len(), 1);
        assert_eq!(root.children[0].rows_out, 4);
        assert_eq!(root.children[0].cells, 12);
    }

    #[test]
    fn unmatched_accounting_attaches_leaves() {
        let mut c = TraceCollector::new(TraceLevel::Spans);
        c.open(|| SpanDesc::phase("vecache::build"));
        c.record_op(SpanKind::Join, 8, 16, 48, OpRepr::Rows);
        c.record_op(SpanKind::GroupBy, 16, 4, 8, OpRepr::Rows);
        c.close(|| None);
        let t = c.take();
        assert_eq!(t.roots.len(), 1);
        assert_eq!(t.roots[0].kind, SpanKind::Phase);
        assert_eq!(t.roots[0].children.len(), 2);
        assert_eq!(t.roots[0].children[1].kind, SpanKind::GroupBy);
    }

    #[test]
    fn faults_are_recorded() {
        let mut c = TraceCollector::new(TraceLevel::Spans);
        c.open(|| desc(SpanKind::Join, "j"));
        c.close(|| Some("boom".into()));
        let t = c.take();
        assert_eq!(t.roots[0].fault.as_deref(), Some("boom"));
        assert!(t.render().contains("[failed: boom]"));
    }

    #[test]
    fn json_and_render_are_well_formed() {
        let mut c = TraceCollector::new(TraceLevel::Spans);
        c.open(|| SpanDesc {
            kind: SpanKind::Join,
            label: "ProductJoin (SparseTensor)".into(),
            repr: OpRepr::Dense,
        });
        c.record_op(SpanKind::Join, 8, 3, 9, OpRepr::Sparse);
        c.close(|| None);
        let t = c.take();
        let json = t.to_json();
        assert!(json.contains("\"rows_out\":3"));
        assert!(json.contains("\"repr\":\"sparse\""));
        let text = t.render();
        assert!(text.contains("repr=sparse"));
        assert!(json_string("a\"b\\c\n").contains("\\\""));
    }
}
