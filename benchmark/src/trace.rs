//! Pass-through wrappers that count every call into a layer's public
//! functions from outside the program and, in a traced run, time it.
//!
//! [`TracedAdaptor`] wraps any [`DfsAdaptor`] together with its
//! [`SnapshotCapable`] and [`CrashExplorable`] capabilities,
//! [`TracedStrategy`] wraps a [`Strategy`] and [`TracedWorkload`] a
//! [`Workload`]. Each forwards to the wrapped value unchanged, so the
//! program behaves exactly as without them; the only addition is a
//! [`Recorder`] update per call. A timed run builds the recorder with
//! [`Recorder::counting`], which never reads a clock; a traced run uses
//! [`Recorder::timing`], which also keeps per-boundary busy time, latency
//! histograms and (up to a cap) one span per call.

use std::cell::RefCell;
use std::io::Write;
use std::rc::Rc;
use std::time::Instant;
use themis::adaptor::{
    AdaptorError, CrashExplorable, CrashOracleViolation, DfsAdaptor, LoadReport, NodeInventory,
    SnapshotCapable,
};
use themis::spec::{Operation, Operator, TestCase};
use themis::{ExecFeedback, GenCtx, Strategy};
use workload::Workload;

/// A layer boundary: one public function (or a small family of them)
/// timed from outside the program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Boundary {
    /// `Strategy::next_case`.
    GenNextCase,
    /// `Strategy::feedback`.
    GenFeedback,
    /// `Strategy::on_reset`.
    GenOnReset,
    /// `DfsAdaptor::send` of create/append/overwrite/truncate.
    SendData,
    /// `DfsAdaptor::send` of open/delete/mkdir/rmdir/rename.
    SendNs,
    /// `DfsAdaptor::send` of node and volume changes.
    SendConfig,
    /// `DfsAdaptor::load_report` and `load_report_into`.
    LoadReport,
    /// `DfsAdaptor::topology`.
    QueryTopology,
    /// `DfsAdaptor::inventory`.
    QueryInventory,
    /// `DfsAdaptor::{name, coverage, now_ms, free_space}`.
    QueryOther,
    /// `DfsAdaptor::rebalance`.
    Rebalance,
    /// `DfsAdaptor::rebalance_done`.
    RebalanceDone,
    /// `DfsAdaptor::wait`.
    Wait,
    /// `DfsAdaptor::reset`.
    Reset,
    /// `SnapshotCapable::snapshot` and `release`.
    SnapMark,
    /// `SnapshotCapable::restore`.
    SnapRestore,
    /// `CrashExplorable` arming, disarming and polling.
    CrashControl,
    /// `CrashExplorable::recover`.
    CrashRecover,
    /// `CrashExplorable::check_invariants`.
    CrashOracle,
    /// `Workload::next_block`.
    NextBlock,
}

impl Boundary {
    /// Every boundary, in index order.
    pub const ALL: [Boundary; 20] = [
        Boundary::GenNextCase,
        Boundary::GenFeedback,
        Boundary::GenOnReset,
        Boundary::SendData,
        Boundary::SendNs,
        Boundary::SendConfig,
        Boundary::LoadReport,
        Boundary::QueryTopology,
        Boundary::QueryInventory,
        Boundary::QueryOther,
        Boundary::Rebalance,
        Boundary::RebalanceDone,
        Boundary::Wait,
        Boundary::Reset,
        Boundary::SnapMark,
        Boundary::SnapRestore,
        Boundary::CrashControl,
        Boundary::CrashRecover,
        Boundary::CrashOracle,
        Boundary::NextBlock,
    ];

    /// Stable name used in span files and counter digests.
    pub fn name(self) -> &'static str {
        match self {
            Boundary::GenNextCase => "gen.next_case",
            Boundary::GenFeedback => "gen.feedback",
            Boundary::GenOnReset => "gen.on_reset",
            Boundary::SendData => "send.data",
            Boundary::SendNs => "send.ns",
            Boundary::SendConfig => "send.config",
            Boundary::LoadReport => "load_report",
            Boundary::QueryTopology => "query.topology",
            Boundary::QueryInventory => "query.inventory",
            Boundary::QueryOther => "query.other",
            Boundary::Rebalance => "balancer.rebalance",
            Boundary::RebalanceDone => "balancer.done",
            Boundary::Wait => "balancer.wait",
            Boundary::Reset => "reset",
            Boundary::SnapMark => "snapshot.mark",
            Boundary::SnapRestore => "snapshot.restore",
            Boundary::CrashControl => "crash.control",
            Boundary::CrashRecover => "crash.recover",
            Boundary::CrashOracle => "crash.oracle",
            Boundary::NextBlock => "workload.next_block",
        }
    }

    fn index(self) -> usize {
        self as usize
    }

    /// The send boundary an operation's class maps to.
    pub fn for_send(op: &Operation) -> Boundary {
        match op.opt {
            Operator::Create
            | Operator::Append
            | Operator::Overwrite
            | Operator::TruncateOverwrite => Boundary::SendData,
            Operator::Open
            | Operator::Delete
            | Operator::Mkdir
            | Operator::Rmdir
            | Operator::Rename => Boundary::SendNs,
            _ => Boundary::SendConfig,
        }
    }

    /// Whether calls of this boundary keep a latency histogram.
    fn has_histogram(self) -> bool {
        matches!(
            self,
            Boundary::SendData | Boundary::SendNs | Boundary::SendConfig | Boundary::SnapRestore
        )
    }
}

const SUB_BITS: u32 = 5;
const SUB: u64 = 1 << SUB_BITS;
const BUCKETS: usize = (64 - SUB_BITS as usize + 1) << SUB_BITS;

/// Log-linear latency histogram over nanoseconds: 32 buckets per power
/// of two, so a reported percentile is within about 3% of the true one.
#[derive(Debug, Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: vec![0; BUCKETS],
            total: 0,
        }
    }
}

impl Histogram {
    fn bucket(v: u64) -> usize {
        if v < SUB {
            return v as usize;
        }
        let e = 63 - v.leading_zeros();
        let shift = e - SUB_BITS;
        ((((e - SUB_BITS + 1) as u64) << SUB_BITS) | ((v >> shift) & (SUB - 1))) as usize
    }

    fn bucket_low(i: usize) -> u64 {
        let i = i as u64;
        if i < SUB {
            return i;
        }
        let e = (i >> SUB_BITS) + SUB_BITS as u64 - 1;
        (SUB + (i & (SUB - 1))) << (e - SUB_BITS as u64)
    }

    /// Records one duration.
    pub fn record(&mut self, ns: u64) {
        self.counts[Self::bucket(ns)] += 1;
        self.total += 1;
    }

    /// Adds another histogram's counts.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }

    /// Recorded durations.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The `q`-quantile (0 < q ≤ 1) in nanoseconds: the midpoint of the
    /// bucket holding it, or 0 when empty.
    pub fn quantile_ns(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let lo = Self::bucket_low(i) as f64;
                let hi = if i + 1 < BUCKETS {
                    Self::bucket_low(i + 1) as f64
                } else {
                    lo
                };
                return (lo + hi) / 2.0;
            }
        }
        unreachable!("rank is at most the total count")
    }
}

/// One timed call: which boundary, in which cell and iteration, and when.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Nanoseconds from the recorder's epoch to the call's start.
    pub start_ns: u64,
    /// Call duration in nanoseconds (saturating).
    pub dur_ns: u32,
    /// `Strategy::next_case` calls made in this cell so far.
    pub iter: u32,
    /// Cell (campaign, flavor run or crash campaign) the call belongs to.
    pub cell: u32,
    /// Boundary index into [`Boundary::ALL`].
    pub boundary: u8,
}

/// Per-boundary call record.
#[derive(Debug, Clone, Default)]
pub struct BoundaryStats {
    /// Calls made.
    pub calls: u64,
    /// Calls that returned an error (sends only).
    pub failed: u64,
    /// Nanoseconds spent inside the calls (traced runs only).
    pub busy_ns: u64,
    /// Call latencies (traced runs only, selected boundaries).
    pub hist: Option<Histogram>,
}

/// Everything the wrappers of one cell (or a merge of cells) recorded.
#[derive(Debug, Clone)]
pub struct Recorder {
    epoch: Option<Instant>,
    span_cap: usize,
    /// Per-boundary records, indexed like [`Boundary::ALL`].
    pub stats: Vec<BoundaryStats>,
    /// Sends rejected by the target (`AdaptorError::Rejected`).
    pub rejected: u64,
    /// Sends that found the target unreachable (`AdaptorError::Down`).
    pub down: u64,
    /// Kept spans, in call order per cell.
    pub spans: Vec<Span>,
    /// Spans dropped because the cap was reached (still in the histograms).
    pub spans_dropped: u64,
    cell: u32,
    iter: u32,
}

impl Recorder {
    fn new(epoch: Option<Instant>, span_cap: usize) -> Self {
        Recorder {
            epoch,
            span_cap,
            stats: Boundary::ALL
                .iter()
                .map(|b| BoundaryStats {
                    hist: (epoch.is_some() && b.has_histogram()).then(Histogram::default),
                    ..BoundaryStats::default()
                })
                .collect(),
            rejected: 0,
            down: 0,
            spans: Vec::new(),
            spans_dropped: 0,
            cell: 0,
            iter: 0,
        }
    }

    /// A recorder that counts calls and outcomes and never reads a clock.
    pub fn counting() -> Self {
        Self::new(None, 0)
    }

    /// A recorder that also times every call against `epoch`, keeping at
    /// most `span_cap` spans.
    pub fn timing(epoch: Instant, span_cap: usize) -> Self {
        Self::new(Some(epoch), span_cap)
    }

    /// Whether calls are timed.
    pub fn is_timing(&self) -> bool {
        self.epoch.is_some()
    }

    /// Tags subsequent spans with `cell` and restarts the iteration count.
    pub fn set_cell(&mut self, cell: u32) {
        self.cell = cell;
        self.iter = 0;
    }

    /// Record of one boundary.
    pub fn get(&self, b: Boundary) -> &BoundaryStats {
        &self.stats[b.index()]
    }

    /// Total busy nanoseconds over every boundary.
    pub fn busy_ns_total(&self) -> u64 {
        self.stats.iter().map(|s| s.busy_ns).sum()
    }

    /// Total sends over the three send classes.
    pub fn sends(&self) -> u64 {
        [Boundary::SendData, Boundary::SendNs, Boundary::SendConfig]
            .iter()
            .map(|b| self.get(*b).calls)
            .sum()
    }

    /// Reads the start instant of a call, or nothing in a counting run.
    #[inline]
    fn start(&self) -> Option<Instant> {
        self.epoch.map(|_| Instant::now())
    }

    #[inline]
    fn finish(&mut self, b: Boundary, t0: Option<Instant>, failed: bool) {
        let s = &mut self.stats[b.index()];
        s.calls += 1;
        s.failed += failed as u64;
        if let (Some(t0), Some(epoch)) = (t0, self.epoch) {
            let dur = t0.elapsed().as_nanos() as u64;
            s.busy_ns += dur;
            if let Some(h) = s.hist.as_mut() {
                h.record(dur);
            }
            if self.spans.len() < self.span_cap {
                self.spans.push(Span {
                    start_ns: t0.duration_since(epoch).as_nanos() as u64,
                    dur_ns: dur.min(u32::MAX as u64) as u32,
                    iter: self.iter,
                    cell: self.cell,
                    boundary: b.index() as u8,
                });
            } else {
                self.spans_dropped += 1;
            }
        }
    }

    /// Adds `other`'s records to this one; its spans are appended after
    /// this recorder's own, up to `span_cap`.
    pub fn merge(&mut self, other: &Recorder, span_cap: usize) {
        for (a, b) in self.stats.iter_mut().zip(&other.stats) {
            a.calls += b.calls;
            a.failed += b.failed;
            a.busy_ns += b.busy_ns;
            match (a.hist.as_mut(), b.hist.as_ref()) {
                (Some(x), Some(y)) => x.merge(y),
                (None, Some(y)) => a.hist = Some(y.clone()),
                _ => {}
            }
        }
        self.rejected += other.rejected;
        self.down += other.down;
        let room = span_cap.saturating_sub(self.spans.len());
        let kept = other.spans.len().min(room);
        self.spans_dropped += other.spans_dropped + (other.spans.len() - kept) as u64;
        self.spans.extend_from_slice(&other.spans[..kept]);
    }

    /// Writes kept spans as tab-separated lines:
    /// `cell iter boundary start_ns dur_ns`.
    pub fn write_spans(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "cell\titer\tboundary\tstart_ns\tdur_ns")?;
        for s in &self.spans {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}",
                s.cell,
                s.iter,
                Boundary::ALL[s.boundary as usize].name(),
                s.start_ns,
                s.dur_ns
            )?;
        }
        out.flush()
    }
}

/// A shared handle on one cell's recorder.
pub type Rec = Rc<RefCell<Recorder>>;

/// Pass-through wrapper over an adaptor and its optional capabilities.
pub struct TracedAdaptor<'a> {
    inner: &'a mut dyn DfsAdaptor,
    rec: Rec,
    /// The wrapped target's crash-window quantum, read once here because
    /// `CrashExplorable::window_step_ms` takes `&self` while reaching the
    /// capability takes `&mut`.
    step_ms: u64,
}

impl<'a> TracedAdaptor<'a> {
    /// Wraps `inner`, recording into `rec`.
    pub fn new(inner: &'a mut dyn DfsAdaptor, rec: Rec) -> Self {
        let step_ms = inner.crash_points().map_or(0, |c| c.window_step_ms());
        TracedAdaptor {
            inner,
            rec,
            step_ms,
        }
    }

    #[inline]
    fn call<T>(&mut self, b: Boundary, f: impl FnOnce(&mut dyn DfsAdaptor) -> T) -> T {
        let t0 = self.rec.borrow().start();
        let out = f(&mut *self.inner);
        self.rec.borrow_mut().finish(b, t0, false);
        out
    }

    fn snap(&mut self) -> &mut dyn SnapshotCapable {
        self.inner
            .snapshots()
            .expect("advertised only when the wrapped adaptor has snapshots")
    }

    fn crash(&mut self) -> &mut dyn CrashExplorable {
        self.inner
            .crash_points()
            .expect("advertised only when the wrapped adaptor has crash points")
    }

    #[inline]
    fn call_snap<T>(&mut self, b: Boundary, f: impl FnOnce(&mut dyn SnapshotCapable) -> T) -> T {
        let t0 = self.rec.borrow().start();
        let out = f(self.snap());
        self.rec.borrow_mut().finish(b, t0, false);
        out
    }

    #[inline]
    fn call_crash<T>(&mut self, b: Boundary, f: impl FnOnce(&mut dyn CrashExplorable) -> T) -> T {
        let t0 = self.rec.borrow().start();
        let out = f(self.crash());
        self.rec.borrow_mut().finish(b, t0, false);
        out
    }
}

impl DfsAdaptor for TracedAdaptor<'_> {
    fn name(&self) -> String {
        // `&self` cannot reach the timing path's `&mut` borrow; the name
        // is read once per campaign, so it is counted but never timed.
        self.rec
            .borrow_mut()
            .finish(Boundary::QueryOther, None, false);
        self.inner.name()
    }

    fn send(&mut self, op: &Operation) -> Result<(), AdaptorError> {
        let b = Boundary::for_send(op);
        let t0 = self.rec.borrow().start();
        let out = self.inner.send(op);
        let mut rec = self.rec.borrow_mut();
        match &out {
            Ok(()) => {}
            Err(AdaptorError::Rejected(_)) => rec.rejected += 1,
            Err(AdaptorError::Down(_)) => rec.down += 1,
        }
        rec.finish(b, t0, out.is_err());
        out
    }

    fn load_report(&mut self) -> LoadReport {
        self.call(Boundary::LoadReport, |a| a.load_report())
    }

    fn load_report_into(&mut self, out: &mut LoadReport) {
        self.call(Boundary::LoadReport, |a| a.load_report_into(out))
    }

    fn rebalance(&mut self) {
        self.call(Boundary::Rebalance, |a| a.rebalance())
    }

    fn rebalance_done(&mut self) -> bool {
        self.call(Boundary::RebalanceDone, |a| a.rebalance_done())
    }

    fn wait(&mut self, ms: u64) {
        self.call(Boundary::Wait, |a| a.wait(ms))
    }

    fn reset(&mut self) {
        self.call(Boundary::Reset, |a| a.reset())
    }

    fn coverage(&mut self) -> u64 {
        self.call(Boundary::QueryOther, |a| a.coverage())
    }

    fn now_ms(&mut self) -> u64 {
        self.call(Boundary::QueryOther, |a| a.now_ms())
    }

    fn inventory(&mut self) -> NodeInventory {
        self.call(Boundary::QueryInventory, |a| a.inventory())
    }

    fn free_space(&mut self) -> u64 {
        self.call(Boundary::QueryOther, |a| a.free_space())
    }

    fn topology(&mut self) -> NodeInventory {
        self.call(Boundary::QueryTopology, |a| a.topology())
    }

    fn snapshots(&mut self) -> Option<&mut dyn SnapshotCapable> {
        if self.inner.snapshots().is_some() {
            Some(self)
        } else {
            None
        }
    }

    fn crash_points(&mut self) -> Option<&mut dyn CrashExplorable> {
        if self.inner.crash_points().is_some() {
            Some(self)
        } else {
            None
        }
    }
}

impl SnapshotCapable for TracedAdaptor<'_> {
    fn snapshot(&mut self) -> u64 {
        self.call_snap(Boundary::SnapMark, |s| s.snapshot())
    }

    fn restore(&mut self, id: u64) -> bool {
        self.call_snap(Boundary::SnapRestore, |s| s.restore(id))
    }

    fn release(&mut self, id: u64) {
        self.call_snap(Boundary::SnapMark, |s| s.release(id))
    }
}

impl CrashExplorable for TracedAdaptor<'_> {
    fn arm_enumeration(&mut self) {
        self.call_crash(Boundary::CrashControl, |c| c.arm_enumeration())
    }

    fn arm_crash_at(&mut self, k: u64) {
        self.call_crash(Boundary::CrashControl, |c| c.arm_crash_at(k))
    }

    fn disarm(&mut self) -> Vec<String> {
        self.call_crash(Boundary::CrashControl, |c| c.disarm())
    }

    fn crash_fired(&mut self) -> bool {
        self.call_crash(Boundary::CrashControl, |c| c.crash_fired())
    }

    fn recover(&mut self) -> Option<String> {
        self.call_crash(Boundary::CrashRecover, |c| c.recover())
    }

    fn check_invariants(&mut self) -> Option<CrashOracleViolation> {
        self.call_crash(Boundary::CrashOracle, |c| c.check_invariants())
    }

    fn window_step_ms(&self) -> u64 {
        // Read once per exploration arm through `&self`; counted, not timed.
        self.rec
            .borrow_mut()
            .finish(Boundary::CrashControl, None, false);
        self.step_ms
    }

    fn set_runtime_audit(&mut self, on: bool) {
        self.call_crash(Boundary::CrashControl, |c| c.set_runtime_audit(on))
    }
}

/// Pass-through wrapper over a test-case generation strategy.
pub struct TracedStrategy {
    inner: Box<dyn Strategy>,
    rec: Rec,
}

impl TracedStrategy {
    /// Wraps `inner`, recording into `rec`.
    pub fn new(inner: Box<dyn Strategy>, rec: Rec) -> Self {
        TracedStrategy { inner, rec }
    }
}

impl Strategy for TracedStrategy {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn next_case(&mut self, ctx: &mut GenCtx<'_>) -> TestCase {
        let t0 = self.rec.borrow().start();
        let case = self.inner.next_case(ctx);
        let mut rec = self.rec.borrow_mut();
        rec.finish(Boundary::GenNextCase, t0, false);
        rec.iter += 1;
        case
    }

    fn feedback(&mut self, case: &TestCase, fb: &ExecFeedback) {
        let t0 = self.rec.borrow().start();
        self.inner.feedback(case, fb);
        self.rec
            .borrow_mut()
            .finish(Boundary::GenFeedback, t0, false);
    }

    fn on_reset(&mut self) {
        let t0 = self.rec.borrow().start();
        self.inner.on_reset();
        self.rec
            .borrow_mut()
            .finish(Boundary::GenOnReset, t0, false);
    }
}

/// Pass-through wrapper over a client workload generator.
pub struct TracedWorkload {
    inner: Box<dyn Workload>,
    rec: Rec,
}

impl TracedWorkload {
    /// Wraps `inner`, recording into `rec`.
    pub fn new(inner: Box<dyn Workload>, rec: Rec) -> Self {
        TracedWorkload { inner, rec }
    }
}

impl Workload for TracedWorkload {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn next_block(&mut self) -> Vec<Operation> {
        let t0 = self.rec.borrow().start();
        let block = self.inner.next_block();
        self.rec.borrow_mut().finish(Boundary::NextBlock, t0, false);
        block
    }
}
