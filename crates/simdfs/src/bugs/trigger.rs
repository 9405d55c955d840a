//! Trigger predicates for latent imbalance failures.
//!
//! A trigger is a small state machine observing the stream of simulator
//! events (operations, balancer activity, load-variance samples). When its
//! condition is met the bug *fires*: its effect is armed and the simulated
//! DFS starts misbehaving, exactly like tripping the faulty code path in a
//! real system. Trigger structure encodes the paper's study findings:
//! input-space requirements (Finding 4), bounded trigger depth (Finding 5)
//! and gradual variance accumulation (Finding 6).

use crate::request::OpClass;
use crate::types::{Bytes, SimTime};
use std::collections::VecDeque;

/// Which load metric a variance-based trigger observes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Metric {
    /// Bytes stored per storage node.
    Storage,
    /// CPU utilization per management node.
    Cpu,
    /// Requests + IO per management node.
    Network,
}

/// An event emitted by the simulator and fed to every armed trigger.
#[derive(Debug, Clone, PartialEq)]
pub enum SimEvent {
    /// A request finished executing.
    Op {
        /// The request's class.
        class: OpClass,
        /// Whether it succeeded.
        ok: bool,
        /// Bytes written/moved by the request.
        size: Bytes,
    },
    /// The storage balancer started a rebalance round.
    RebalanceStart,
    /// A rebalance round completed.
    RebalanceDone {
        /// Number of file moves the round performed.
        moves: usize,
    },
    /// One file migration was executed by the balancer.
    MigrationStep {
        /// The file's hashed id was still in the DHT migration cache.
        cache_hit: bool,
        /// The file had an associated linkfile at its hash location.
        had_link: bool,
    },
    /// Cluster membership changed (node or volume topology).
    MembershipChange {
        /// The configuration class that changed membership.
        class: OpClass,
    },
    /// A load-variance sample taken after request execution.
    Variance {
        /// Storage max/mean ratio across storage nodes.
        storage: f64,
        /// CPU max/mean ratio across management nodes.
        cpu: f64,
        /// Network max/mean ratio across management nodes.
        network: f64,
    },
}

/// A stateful trigger predicate.
///
/// `observe` consumes events; it returns `true` exactly once, on the event
/// that completes the condition. Callers stop feeding a trigger after it
/// fires.
#[derive(Debug, Clone)]
pub enum Trigger {
    /// Match `classes` as a subsequence of executed operations, where
    /// consecutive matches must occur within `window` operations of each
    /// other (a "short sequence executed over a short duration").
    Subseq {
        /// The class pattern, in order.
        classes: Vec<OpClass>,
        /// Max operations between consecutive pattern advances.
        window: usize,
        /// Progress through `classes` (internal).
        progress: usize,
        /// Ops since the last advance (internal).
        since: usize,
    },
    /// At least `count` operations whose class is in `classes` within the
    /// last `window` operations — and, when `max_span_ms` is nonzero, all
    /// hits must also fall within that much virtual time (so idle gaps
    /// between bursts do not count as one burst).
    OpCount {
        /// Accepted classes.
        classes: Vec<OpClass>,
        /// Required hits.
        count: usize,
        /// Sliding window length in operations.
        window: usize,
        /// Maximum virtual-time span of the hits (0 = unlimited).
        max_span_ms: u64,
        /// Op indices and times of hits (internal).
        hits: VecDeque<(usize, u64)>,
        /// Total ops observed (internal).
        opno: usize,
    },
    /// Within the last `n` size-carrying writes, max/min size ratio reaches
    /// `ratio` (mishandling of wildly different file sizes).
    SizeSpread {
        /// Number of recent writes considered.
        n: usize,
        /// Required max/min ratio.
        ratio: f64,
        /// Recent write sizes (internal).
        sizes: VecDeque<Bytes>,
    },
    /// The load-variance ratio for `metric` crosses above `ratio` at least
    /// `needed` distinct times (rising edges) — the paper's accumulation of
    /// minor imbalances (Finding 6).
    VarianceEpisodes {
        /// Observed metric.
        metric: Metric,
        /// Ratio that counts as an episode (e.g. 1.15 = 15% over mean).
        ratio: f64,
        /// Episodes required.
        needed: u32,
        /// Episodes seen (internal).
        seen: u32,
        /// Currently above the ratio (internal, for edge detection).
        above: bool,
    },
    /// At least `count` rebalance rounds started within `window_ms` of
    /// virtual time.
    RebalanceBurst {
        /// Required round count.
        count: u32,
        /// Window in virtual milliseconds.
        window_ms: u64,
        /// Start times of recent rounds (internal).
        times: VecDeque<u64>,
    },
    /// A migration step hit the DHT hash cache for a file that has a
    /// linkfile (the GlusterFS dht-rebalance double-migration path).
    CacheRemigration,
    /// At least `count` membership changes within `window_ms`.
    MembershipChurn {
        /// Required changes.
        count: u32,
        /// Window in virtual milliseconds.
        window_ms: u64,
        /// Times of recent changes (internal).
        times: VecDeque<u64>,
    },
    /// A membership change occurred while a rebalance round was in flight
    /// (the HDFS-13279 stale-clusterMap scenario).
    OfflineDuringRebalance {
        /// Rebalance in flight (internal).
        running: bool,
    },
    /// At least `count` client-request operations executed while a
    /// rebalance round was in flight.
    RequestsDuringRebalance {
        /// Required requests.
        count: usize,
        /// Requests seen during rebalances (internal).
        seen: usize,
        /// Rebalance in flight (internal).
        running: bool,
    },
    /// The load-variance ratio for `metric` stays at or above `ratio` for
    /// `samples` consecutive variance samples — the accumulated steady
    /// imbalance of Finding 6, which the balancer does not fight (the
    /// ratio sits below its activation threshold) and which transient
    /// random churn does not sustain.
    SustainedVariance {
        /// Observed metric.
        metric: Metric,
        /// Ratio that must be sustained.
        ratio: f64,
        /// Consecutive samples required.
        samples: u32,
        /// Current run length (internal).
        run: u32,
    },
    /// The operation stream contains `repeats` consecutive non-overlapping
    /// chunks of `len` operations whose class multisets are near-identical
    /// (at most `tol` differing elements) and mix both input spaces.
    ///
    /// This is Finding 5's triggering shape: distributed nodes "repeatedly
    /// executing short sequences of up to 8 operations, with gradual
    /// variation in the operation sequences as they are repeated" — the
    /// signature of seed-pool fuzzing over the unified sequence space, and
    /// exactly what independent random generation does not produce.
    EchoedMix {
        /// Chunk length in operations.
        len: usize,
        /// Consecutive similar chunks required.
        repeats: u32,
        /// Maximum multiset distance between consecutive chunks.
        tol: usize,
        /// Classes of the current chunk (internal).
        chunk: Vec<OpClass>,
        /// Previous chunk's class multiset (internal).
        prev: Vec<OpClass>,
        /// Current run of similar chunks (internal).
        run: u32,
    },
    /// All sub-triggers must fire (each fires stickily, in any order).
    All {
        /// Sub-triggers.
        subs: Vec<Trigger>,
        /// Which sub-triggers already fired (internal).
        fired: Vec<bool>,
    },
    /// All sub-triggers must fire within a bounded horizon of each other:
    /// each sub-fire is remembered for `horizon` operations and expires
    /// afterwards. This is the co-occurrence form of a deep condition —
    /// the coordinated circumstances must hold over one short stretch of
    /// execution, not merely each happen once somewhere in a 24-hour run.
    Within {
        /// Sub-triggers.
        subs: Vec<Trigger>,
        /// Horizon in operations within which all sub-fires must land.
        horizon: usize,
        /// Horizon in virtual milliseconds (0 = unlimited).
        horizon_ms: u64,
        /// Operation index and time of each sub's most recent fire
        /// (internal).
        stamps: Vec<Option<(usize, u64)>>,
        /// Operations observed (internal).
        opno: usize,
    },
    /// Never fires: the bug is gated on an environment this reproduction
    /// (like the paper's Linux testbed) cannot provide.
    Never,
}

impl Trigger {
    /// Builds a subsequence trigger.
    pub fn subseq(classes: Vec<OpClass>, window: usize) -> Trigger {
        Trigger::Subseq {
            classes,
            window,
            progress: 0,
            since: 0,
        }
    }

    /// Builds an operation-count trigger (no time bound).
    pub fn op_count(classes: Vec<OpClass>, count: usize, window: usize) -> Trigger {
        Trigger::OpCount {
            classes,
            count,
            window,
            max_span_ms: 0,
            hits: VecDeque::new(),
            opno: 0,
        }
    }

    /// Builds an operation-count trigger whose hits must also fall within
    /// `max_span_ms` of virtual time.
    pub fn op_count_timed(
        classes: Vec<OpClass>,
        count: usize,
        window: usize,
        max_span_ms: u64,
    ) -> Trigger {
        Trigger::OpCount {
            classes,
            count,
            window,
            max_span_ms,
            hits: VecDeque::new(),
            opno: 0,
        }
    }

    /// Builds a size-spread trigger.
    pub fn size_spread(n: usize, ratio: f64) -> Trigger {
        Trigger::SizeSpread {
            n,
            ratio,
            sizes: VecDeque::new(),
        }
    }

    /// Builds a variance-episode trigger.
    pub fn variance_episodes(metric: Metric, ratio: f64, needed: u32) -> Trigger {
        Trigger::VarianceEpisodes {
            metric,
            ratio,
            needed,
            seen: 0,
            above: false,
        }
    }

    /// Builds a rebalance-burst trigger.
    pub fn rebalance_burst(count: u32, window_ms: u64) -> Trigger {
        Trigger::RebalanceBurst {
            count,
            window_ms,
            times: VecDeque::new(),
        }
    }

    /// Builds a membership-churn trigger.
    pub fn membership_churn(count: u32, window_ms: u64) -> Trigger {
        Trigger::MembershipChurn {
            count,
            window_ms,
            times: VecDeque::new(),
        }
    }

    /// Builds an offline-during-rebalance trigger.
    pub fn offline_during_rebalance() -> Trigger {
        Trigger::OfflineDuringRebalance { running: false }
    }

    /// Builds a requests-during-rebalance trigger.
    pub fn requests_during_rebalance(count: usize) -> Trigger {
        Trigger::RequestsDuringRebalance {
            count,
            seen: 0,
            running: false,
        }
    }

    /// Builds a sustained-variance trigger.
    pub fn sustained_variance(metric: Metric, ratio: f64, samples: u32) -> Trigger {
        Trigger::SustainedVariance {
            metric,
            ratio,
            samples,
            run: 0,
        }
    }

    /// Builds an echoed-mix trigger.
    pub fn echoed_mix(len: usize, repeats: u32, tol: usize) -> Trigger {
        Trigger::EchoedMix {
            len,
            repeats,
            tol,
            chunk: Vec::new(),
            prev: Vec::new(),
            run: 0,
        }
    }

    /// Builds a conjunction.
    pub fn all(subs: Vec<Trigger>) -> Trigger {
        let fired = vec![false; subs.len()];
        Trigger::All { subs, fired }
    }

    /// Builds a bounded-horizon conjunction (operation-count horizon only).
    pub fn within(subs: Vec<Trigger>, horizon: usize) -> Trigger {
        Self::within_timed(subs, horizon, 0)
    }

    /// Builds a bounded-horizon conjunction with both an operation-count
    /// and a virtual-time horizon.
    pub fn within_timed(subs: Vec<Trigger>, horizon: usize, horizon_ms: u64) -> Trigger {
        let stamps = vec![None; subs.len()];
        Trigger::Within {
            subs,
            horizon,
            horizon_ms,
            stamps,
            opno: 0,
        }
    }

    /// The number of "steps" (operation classes) a tester must coordinate
    /// to fire this trigger — the paper's trigger-depth notion (Finding 5).
    pub fn depth(&self) -> usize {
        match self {
            Trigger::Subseq { classes, .. } => classes.len(),
            Trigger::OpCount { .. } => 1,
            Trigger::SizeSpread { .. } => 1,
            Trigger::VarianceEpisodes { .. } => 1,
            Trigger::SustainedVariance { .. } => 1,
            Trigger::EchoedMix { len, .. } => *len,
            Trigger::RebalanceBurst { .. } => 1,
            Trigger::CacheRemigration => 2,
            Trigger::MembershipChurn { .. } => 1,
            Trigger::OfflineDuringRebalance { .. } => 2,
            Trigger::RequestsDuringRebalance { .. } => 2,
            Trigger::All { subs, .. } => subs.iter().map(Trigger::depth).sum(),
            Trigger::Within { subs, .. } => subs.iter().map(Trigger::depth).sum(),
            Trigger::Never => usize::MAX,
        }
    }

    /// Whether firing requires client-request operations.
    pub fn needs_requests(&self) -> bool {
        match self {
            Trigger::Subseq { classes, .. } => classes.iter().any(|c| c.is_request()),
            Trigger::OpCount { classes, .. } => classes.iter().all(|c| c.is_request()),
            Trigger::SizeSpread { .. } => true,
            Trigger::RequestsDuringRebalance { .. } => true,
            Trigger::All { subs, .. } => subs.iter().any(Trigger::needs_requests),
            Trigger::Within { subs, .. } => subs.iter().any(Trigger::needs_requests),
            _ => false,
        }
    }

    /// Whether firing requires configuration operations.
    pub fn needs_configs(&self) -> bool {
        match self {
            Trigger::Subseq { classes, .. } => classes.iter().any(|c| c.is_config()),
            Trigger::OpCount { classes, .. } => classes.iter().all(|c| c.is_config()),
            Trigger::MembershipChurn { .. } => true,
            Trigger::OfflineDuringRebalance { .. } => true,
            Trigger::All { subs, .. } => subs.iter().any(Trigger::needs_configs),
            Trigger::Within { subs, .. } => subs.iter().any(Trigger::needs_configs),
            _ => false,
        }
    }

    /// Feeds one event; returns `true` when the trigger fires on it.
    pub fn observe(&mut self, now: SimTime, ev: &SimEvent) -> bool {
        match self {
            Trigger::Subseq {
                classes,
                window,
                progress,
                since,
            } => {
                if let SimEvent::Op {
                    class, ok: true, ..
                } = ev
                {
                    if *progress > 0 {
                        *since += 1;
                        if *since > *window {
                            *progress = 0;
                            *since = 0;
                        }
                    }
                    if *progress < classes.len() && *class == classes[*progress] {
                        *progress += 1;
                        *since = 0;
                        if *progress == classes.len() {
                            *progress = 0;
                            return true;
                        }
                    }
                }
                false
            }
            Trigger::OpCount {
                classes,
                count,
                window,
                max_span_ms,
                hits,
                opno,
            } => {
                if let SimEvent::Op {
                    class, ok: true, ..
                } = ev
                {
                    *opno += 1;
                    if classes.contains(class) {
                        hits.push_back((*opno, now.as_millis()));
                    }
                    while hits.front().is_some_and(|&(h, _)| *opno - h >= *window) {
                        hits.pop_front();
                    }
                    if *max_span_ms > 0 {
                        while hits
                            .front()
                            .is_some_and(|&(_, t)| now.as_millis().saturating_sub(t) > *max_span_ms)
                        {
                            hits.pop_front();
                        }
                    }
                    return hits.len() >= *count;
                }
                false
            }
            Trigger::SizeSpread { n, ratio, sizes } => {
                if let SimEvent::Op {
                    class,
                    ok: true,
                    size,
                } = ev
                {
                    if matches!(class, OpClass::Create | OpClass::Resize) && *size > 0 {
                        sizes.push_back(*size);
                        if sizes.len() > *n {
                            sizes.pop_front();
                        }
                        if sizes.len() == *n {
                            let min = *sizes.iter().min().expect("nonempty");
                            let max = *sizes.iter().max().expect("nonempty");
                            return max as f64 / min.max(1) as f64 >= *ratio;
                        }
                    }
                }
                false
            }
            Trigger::VarianceEpisodes {
                metric,
                ratio,
                needed,
                seen,
                above,
            } => {
                if let SimEvent::Variance {
                    storage,
                    cpu,
                    network,
                } = ev
                {
                    let v = match metric {
                        Metric::Storage => *storage,
                        Metric::Cpu => *cpu,
                        Metric::Network => *network,
                    };
                    let is_above = v >= *ratio;
                    if is_above && !*above {
                        *seen += 1;
                        if *seen >= *needed {
                            *above = is_above;
                            return true;
                        }
                    }
                    *above = is_above;
                }
                false
            }
            Trigger::RebalanceBurst {
                count,
                window_ms,
                times,
            } => {
                if matches!(ev, SimEvent::RebalanceStart) {
                    times.push_back(now.as_millis());
                    while times
                        .front()
                        .is_some_and(|&t| now.as_millis().saturating_sub(t) > *window_ms)
                    {
                        times.pop_front();
                    }
                    return times.len() as u32 >= *count;
                }
                false
            }
            Trigger::CacheRemigration => {
                matches!(
                    ev,
                    SimEvent::MigrationStep {
                        cache_hit: true,
                        had_link: true
                    }
                )
            }
            Trigger::MembershipChurn {
                count,
                window_ms,
                times,
            } => {
                if matches!(ev, SimEvent::MembershipChange { .. }) {
                    times.push_back(now.as_millis());
                    while times
                        .front()
                        .is_some_and(|&t| now.as_millis().saturating_sub(t) > *window_ms)
                    {
                        times.pop_front();
                    }
                    return times.len() as u32 >= *count;
                }
                false
            }
            Trigger::OfflineDuringRebalance { running } => match ev {
                SimEvent::RebalanceStart => {
                    *running = true;
                    false
                }
                SimEvent::RebalanceDone { .. } => {
                    *running = false;
                    false
                }
                SimEvent::MembershipChange { class } => {
                    *running
                        && matches!(
                            class,
                            OpClass::StorageRemove | OpClass::MgmtRemove | OpClass::VolumeRemove
                        )
                }
                _ => false,
            },
            Trigger::RequestsDuringRebalance {
                count,
                seen,
                running,
            } => match ev {
                SimEvent::RebalanceStart => {
                    *running = true;
                    false
                }
                SimEvent::RebalanceDone { .. } => {
                    *running = false;
                    false
                }
                SimEvent::Op {
                    class, ok: true, ..
                } if class.is_request() => {
                    if *running {
                        *seen += 1;
                    }
                    *seen >= *count
                }
                _ => false,
            },
            Trigger::SustainedVariance {
                metric,
                ratio,
                samples,
                run,
            } => {
                if let SimEvent::Variance {
                    storage,
                    cpu,
                    network,
                } = ev
                {
                    let v = match metric {
                        Metric::Storage => *storage,
                        Metric::Cpu => *cpu,
                        Metric::Network => *network,
                    };
                    if v >= *ratio {
                        *run += 1;
                        return *run >= *samples;
                    }
                    *run = 0;
                }
                false
            }
            Trigger::EchoedMix {
                len,
                repeats,
                tol,
                chunk,
                prev,
                run,
            } => {
                if let SimEvent::Op {
                    class, ok: true, ..
                } = ev
                {
                    chunk.push(*class);
                    if chunk.len() == *len {
                        let mut cur = std::mem::take(chunk);
                        cur.sort_by_key(|c| c.index());
                        let mixed =
                            cur.iter().any(|c| c.is_request()) && cur.iter().any(|c| c.is_config());
                        // Multiset distance: elements of `cur` not matched
                        // in `prev` (symmetric because lengths are equal).
                        let mut rest = prev.clone();
                        let mut diff = 0usize;
                        for c in &cur {
                            if let Some(i) = rest.iter().position(|p| p == c) {
                                rest.swap_remove(i);
                            } else {
                                diff += 1;
                            }
                        }
                        let similar = !prev.is_empty() && diff <= *tol;
                        *prev = cur;
                        if similar && mixed {
                            *run += 1;
                            if *run + 1 >= *repeats {
                                return true;
                            }
                        } else {
                            *run = 0;
                        }
                    }
                }
                false
            }
            Trigger::All { subs, fired } => {
                let mut all = true;
                for (sub, f) in subs.iter_mut().zip(fired.iter_mut()) {
                    if !*f && sub.observe(now, ev) {
                        *f = true;
                    }
                    all &= *f;
                }
                all
            }
            Trigger::Within {
                subs,
                horizon,
                horizon_ms,
                stamps,
                opno,
            } => {
                if matches!(ev, SimEvent::Op { ok: true, .. }) {
                    *opno += 1;
                }
                let now_op = *opno;
                let now_ms = now.as_millis();
                for (sub, stamp) in subs.iter_mut().zip(stamps.iter_mut()) {
                    if sub.observe(now, ev) {
                        *stamp = Some((now_op, now_ms));
                        // Re-arm the sub so it can fire again in a later
                        // stretch after this one expires.
                        *sub = rearmed(sub);
                    }
                }
                stamps.iter().all(|s| {
                    s.is_some_and(|(at_op, at_ms)| {
                        now_op.saturating_sub(at_op) <= *horizon
                            && (*horizon_ms == 0 || now_ms.saturating_sub(at_ms) <= *horizon_ms)
                    })
                })
            }
            Trigger::Never => false,
        }
    }
}

/// A fresh copy of a trigger with its internal state reset, preserving its
/// parameters (used by [`Trigger::Within`] to re-arm expired sub-fires).
fn rearmed(t: &Trigger) -> Trigger {
    match t {
        Trigger::Subseq {
            classes, window, ..
        } => Trigger::subseq(classes.clone(), *window),
        Trigger::OpCount {
            classes,
            count,
            window,
            max_span_ms,
            ..
        } => Trigger::op_count_timed(classes.clone(), *count, *window, *max_span_ms),
        Trigger::SizeSpread { n, ratio, .. } => Trigger::size_spread(*n, *ratio),
        Trigger::VarianceEpisodes {
            metric,
            ratio,
            needed,
            ..
        } => Trigger::variance_episodes(*metric, *ratio, *needed),
        Trigger::RebalanceBurst {
            count, window_ms, ..
        } => Trigger::rebalance_burst(*count, *window_ms),
        Trigger::CacheRemigration => Trigger::CacheRemigration,
        Trigger::MembershipChurn {
            count, window_ms, ..
        } => Trigger::membership_churn(*count, *window_ms),
        Trigger::OfflineDuringRebalance { .. } => Trigger::offline_during_rebalance(),
        Trigger::RequestsDuringRebalance { count, .. } => {
            Trigger::requests_during_rebalance(*count)
        }
        Trigger::SustainedVariance {
            metric,
            ratio,
            samples,
            ..
        } => Trigger::sustained_variance(*metric, *ratio, *samples),
        Trigger::EchoedMix {
            len, repeats, tol, ..
        } => Trigger::echoed_mix(*len, *repeats, *tol),
        Trigger::All { subs, .. } => Trigger::all(subs.iter().map(rearmed).collect()),
        Trigger::Within {
            subs,
            horizon,
            horizon_ms,
            ..
        } => Trigger::within_timed(subs.iter().map(rearmed).collect(), *horizon, *horizon_ms),
        Trigger::Never => Trigger::Never,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(class: OpClass) -> SimEvent {
        SimEvent::Op {
            class,
            ok: true,
            size: 0,
        }
    }

    fn write(size: Bytes) -> SimEvent {
        SimEvent::Op {
            class: OpClass::Create,
            ok: true,
            size,
        }
    }

    #[test]
    fn subseq_fires_in_order_within_window() {
        let mut t = Trigger::subseq(
            vec![OpClass::Create, OpClass::VolumeAdd, OpClass::Delete],
            2,
        );
        assert!(!t.observe(SimTime::ZERO, &op(OpClass::Create)));
        assert!(!t.observe(SimTime::ZERO, &op(OpClass::Read)));
        assert!(!t.observe(SimTime::ZERO, &op(OpClass::VolumeAdd)));
        assert!(t.observe(SimTime::ZERO, &op(OpClass::Delete)));
    }

    #[test]
    fn subseq_resets_when_window_exceeded() {
        let mut t = Trigger::subseq(vec![OpClass::Create, OpClass::Delete], 1);
        assert!(!t.observe(SimTime::ZERO, &op(OpClass::Create)));
        // Two unrelated ops exceed the window of 1.
        assert!(!t.observe(SimTime::ZERO, &op(OpClass::Read)));
        assert!(!t.observe(SimTime::ZERO, &op(OpClass::Read)));
        assert!(
            !t.observe(SimTime::ZERO, &op(OpClass::Delete)),
            "progress must have reset"
        );
    }

    #[test]
    fn subseq_ignores_failed_ops() {
        let mut t = Trigger::subseq(vec![OpClass::Create], 4);
        let failed = SimEvent::Op {
            class: OpClass::Create,
            ok: false,
            size: 0,
        };
        assert!(!t.observe(SimTime::ZERO, &failed));
        assert!(t.observe(SimTime::ZERO, &op(OpClass::Create)));
    }

    #[test]
    fn op_count_sliding_window() {
        let mut t = Trigger::op_count(vec![OpClass::Create], 2, 3);
        assert!(!t.observe(SimTime::ZERO, &op(OpClass::Create))); // op 1
        assert!(!t.observe(SimTime::ZERO, &op(OpClass::Read))); // op 2
        assert!(!t.observe(SimTime::ZERO, &op(OpClass::Read))); // op 3
                                                                // Op 4: the create at op 1 has slid out of the window of 3.
        assert!(!t.observe(SimTime::ZERO, &op(OpClass::Create)));
        // Op 5: creates at ops 4 and 5 are both inside the window.
        assert!(t.observe(SimTime::ZERO, &op(OpClass::Create)));
    }

    #[test]
    fn size_spread_requires_ratio() {
        let mut t = Trigger::size_spread(3, 10.0);
        assert!(!t.observe(SimTime::ZERO, &write(100)));
        assert!(!t.observe(SimTime::ZERO, &write(150)));
        assert!(!t.observe(SimTime::ZERO, &write(200)));
        assert!(t.observe(SimTime::ZERO, &write(2_000)));
    }

    #[test]
    fn variance_episodes_counts_rising_edges() {
        let mut t = Trigger::variance_episodes(Metric::Storage, 1.3, 2);
        let hi = SimEvent::Variance {
            storage: 1.5,
            cpu: 1.0,
            network: 1.0,
        };
        let lo = SimEvent::Variance {
            storage: 1.0,
            cpu: 1.0,
            network: 1.0,
        };
        assert!(!t.observe(SimTime::ZERO, &hi)); // episode 1
        assert!(!t.observe(SimTime::ZERO, &hi)); // still above: same episode
        assert!(!t.observe(SimTime::ZERO, &lo));
        assert!(t.observe(SimTime::ZERO, &hi)); // episode 2 fires
    }

    #[test]
    fn variance_episodes_watches_selected_metric_only() {
        let mut t = Trigger::variance_episodes(Metric::Cpu, 1.3, 1);
        let storage_hi = SimEvent::Variance {
            storage: 9.0,
            cpu: 1.0,
            network: 1.0,
        };
        assert!(!t.observe(SimTime::ZERO, &storage_hi));
        let cpu_hi = SimEvent::Variance {
            storage: 1.0,
            cpu: 2.0,
            network: 1.0,
        };
        assert!(t.observe(SimTime::ZERO, &cpu_hi));
    }

    #[test]
    fn rebalance_burst_within_window() {
        let mut t = Trigger::rebalance_burst(2, 1_000);
        assert!(!t.observe(SimTime(0), &SimEvent::RebalanceStart));
        assert!(!t.observe(SimTime(2_000), &SimEvent::RebalanceStart));
        assert!(t.observe(SimTime(2_500), &SimEvent::RebalanceStart));
    }

    #[test]
    fn offline_during_rebalance_needs_active_round() {
        let mut t = Trigger::offline_during_rebalance();
        let remove = SimEvent::MembershipChange {
            class: OpClass::StorageRemove,
        };
        assert!(!t.observe(SimTime::ZERO, &remove));
        assert!(!t.observe(SimTime::ZERO, &SimEvent::RebalanceStart));
        assert!(t.observe(SimTime::ZERO, &remove));
    }

    #[test]
    fn offline_during_rebalance_ignores_additions() {
        let mut t = Trigger::offline_during_rebalance();
        t.observe(SimTime::ZERO, &SimEvent::RebalanceStart);
        let add = SimEvent::MembershipChange {
            class: OpClass::StorageAdd,
        };
        assert!(!t.observe(SimTime::ZERO, &add));
    }

    #[test]
    fn requests_during_rebalance_accumulates() {
        let mut t = Trigger::requests_during_rebalance(2);
        assert!(!t.observe(SimTime::ZERO, &op(OpClass::Create)));
        t.observe(SimTime::ZERO, &SimEvent::RebalanceStart);
        assert!(!t.observe(SimTime::ZERO, &op(OpClass::Create)));
        t.observe(SimTime::ZERO, &SimEvent::RebalanceDone { moves: 1 });
        t.observe(SimTime::ZERO, &SimEvent::RebalanceStart);
        assert!(t.observe(SimTime::ZERO, &op(OpClass::Read)));
    }

    #[test]
    fn all_requires_every_sub_trigger() {
        let mut t = Trigger::all(vec![
            Trigger::subseq(vec![OpClass::Create], 4),
            Trigger::rebalance_burst(1, 1_000),
        ]);
        assert!(!t.observe(SimTime::ZERO, &op(OpClass::Create)));
        assert!(t.observe(SimTime::ZERO, &SimEvent::RebalanceStart));
    }

    #[test]
    fn all_sub_fires_are_sticky() {
        let mut t = Trigger::all(vec![
            Trigger::subseq(vec![OpClass::Create], 4),
            Trigger::subseq(vec![OpClass::VolumeAdd], 4),
        ]);
        assert!(!t.observe(SimTime::ZERO, &op(OpClass::Create)));
        // Many unrelated ops later, the first sub-fire must persist.
        for _ in 0..20 {
            assert!(!t.observe(SimTime::ZERO, &op(OpClass::Read)));
        }
        assert!(t.observe(SimTime::ZERO, &op(OpClass::VolumeAdd)));
    }

    #[test]
    fn sustained_variance_requires_consecutive_samples() {
        let mut t = Trigger::sustained_variance(Metric::Storage, 1.1, 3);
        let hi = SimEvent::Variance {
            storage: 1.2,
            cpu: 1.0,
            network: 1.0,
        };
        let lo = SimEvent::Variance {
            storage: 1.0,
            cpu: 1.0,
            network: 1.0,
        };
        assert!(!t.observe(SimTime::ZERO, &hi));
        assert!(!t.observe(SimTime::ZERO, &hi));
        assert!(
            !t.observe(SimTime::ZERO, &lo),
            "run must reset on a low sample"
        );
        assert!(!t.observe(SimTime::ZERO, &hi));
        assert!(!t.observe(SimTime::ZERO, &hi));
        assert!(t.observe(SimTime::ZERO, &hi));
    }

    #[test]
    fn echoed_mix_fires_on_repeated_similar_mixed_chunks() {
        let mut t = Trigger::echoed_mix(3, 3, 1);
        // Three near-identical chunks mixing both spaces.
        let chunks = [
            [OpClass::Create, OpClass::VolumeAdd, OpClass::Delete],
            [OpClass::Create, OpClass::VolumeAdd, OpClass::Read], // 1 diff
            [OpClass::Create, OpClass::VolumeAdd, OpClass::Read],
        ];
        let mut fired = false;
        for chunk in chunks {
            for c in chunk {
                fired |= t.observe(SimTime::ZERO, &op(c));
            }
        }
        assert!(fired);
    }

    #[test]
    fn echoed_mix_requires_both_spaces() {
        let mut t = Trigger::echoed_mix(2, 3, 0);
        // Identical file-only chunks never fire.
        for _ in 0..20 {
            assert!(!t.observe(SimTime::ZERO, &op(OpClass::Create)));
            assert!(!t.observe(SimTime::ZERO, &op(OpClass::Read)));
        }
    }

    #[test]
    fn echoed_mix_resets_on_dissimilar_chunk() {
        let mut t = Trigger::echoed_mix(2, 3, 0);
        let a = [OpClass::Create, OpClass::VolumeAdd];
        let b = [OpClass::Rename, OpClass::MgmtRemove];
        // Alternate dissimilar chunks: run never accumulates.
        for _ in 0..10 {
            for c in a {
                assert!(!t.observe(SimTime::ZERO, &op(c)));
            }
            for c in b {
                assert!(!t.observe(SimTime::ZERO, &op(c)));
            }
        }
    }

    #[test]
    fn within_requires_co_occurrence() {
        let mut t = Trigger::within(
            vec![
                Trigger::subseq(vec![OpClass::VolumeAdd], 4),
                Trigger::subseq(vec![OpClass::Create], 4),
            ],
            3,
        );
        // VolumeAdd fires, then far too many ops pass before Create.
        assert!(!t.observe(SimTime::ZERO, &op(OpClass::VolumeAdd)));
        for _ in 0..10 {
            assert!(!t.observe(SimTime::ZERO, &op(OpClass::Read)));
        }
        assert!(
            !t.observe(SimTime::ZERO, &op(OpClass::Create)),
            "stale sub-fire must have expired"
        );
        // But close together, the conjunction fires.
        assert!(t.observe(SimTime::ZERO, &op(OpClass::VolumeAdd)));
    }

    #[test]
    fn within_subs_rearm_after_firing() {
        let mut t = Trigger::within(
            vec![
                Trigger::subseq(vec![OpClass::VolumeAdd], 4),
                Trigger::subseq(vec![OpClass::Create], 4),
            ],
            100,
        );
        assert!(!t.observe(SimTime::ZERO, &op(OpClass::VolumeAdd)));
        assert!(t.observe(SimTime::ZERO, &op(OpClass::Create)));
    }

    #[test]
    fn never_never_fires() {
        let mut t = Trigger::Never;
        for _ in 0..100 {
            assert!(!t.observe(SimTime::ZERO, &op(OpClass::Create)));
            assert!(!t.observe(SimTime::ZERO, &SimEvent::RebalanceStart));
        }
        assert_eq!(t.depth(), usize::MAX);
    }

    #[test]
    fn input_space_classification() {
        let both = Trigger::all(vec![
            Trigger::op_count(vec![OpClass::Create], 3, 10),
            Trigger::membership_churn(2, 1_000),
        ]);
        assert!(both.needs_requests());
        assert!(both.needs_configs());

        let req_only = Trigger::size_spread(5, 4.0);
        assert!(req_only.needs_requests());
        assert!(!req_only.needs_configs());

        let conf_only = Trigger::membership_churn(2, 1_000);
        assert!(!conf_only.needs_requests());
        assert!(conf_only.needs_configs());
    }

    #[test]
    fn depth_sums_over_all() {
        let t = Trigger::all(vec![
            Trigger::subseq(vec![OpClass::Create, OpClass::Delete], 4),
            Trigger::CacheRemigration,
        ]);
        assert_eq!(t.depth(), 4);
    }

    #[test]
    fn cache_remigration_needs_both_flags() {
        let mut t = Trigger::CacheRemigration;
        assert!(!t.observe(
            SimTime::ZERO,
            &SimEvent::MigrationStep {
                cache_hit: true,
                had_link: false
            }
        ));
        assert!(!t.observe(
            SimTime::ZERO,
            &SimEvent::MigrationStep {
                cache_hit: false,
                had_link: true
            }
        ));
        assert!(t.observe(
            SimTime::ZERO,
            &SimEvent::MigrationStep {
                cache_hit: true,
                had_link: true
            }
        ));
    }
}
