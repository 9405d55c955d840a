//! The migration executor and its crash stepping: every balancer move
//! runs as enumerable micro-steps with a crash point after each (see
//! [`crate::crash`]), plus arming, recovery and the crash-consistency
//! oracle.

use super::DfsSim;
use crate::balancer::MigrationMove;
use crate::bugs::{Effect, SimEvent};
use crate::crash::{
    fragment_bytes, fragment_count, CrashClass, CrashPlan, CrashRuntime, CrashViolation,
    InFlightMove, MigrationStepKind,
};
use crate::hashing::mix;
use crate::types::{Bytes, NodeId, VolumeId};

impl DfsSim {
    pub(super) fn execute_move(&mut self, m: &MigrationMove) {
        // The plan may be stale: the file may be gone or moved meanwhile.
        let Some(meta) = self.cluster.files().get(&m.file) else {
            return;
        };
        let Some(moved) = meta
            .replicas
            .iter()
            .find(|r| r.volume == m.from)
            .map(|r| r.bytes)
        else {
            return;
        };
        let key = meta.key;
        let had_link = meta.linkfile_at.is_some();
        let now = self.clock.now();
        let cache_hit = self
            .hash_cache
            .get(&key)
            .is_some_and(|expiry| now.as_millis() < expiry.as_millis());

        if self.faults.any() {
            // Faulted endpoints: a migration cannot reach an offline or
            // partitioned node (the move is dropped like a failed balancer
            // iteration), and slow storage nodes stall their moves to
            // every `factor`-th step.
            let reachable = |id: NodeId| {
                self.cluster.storage.get(&id).is_some_and(|n| n.online)
                    && !self.faults.is_partitioned(id)
            };
            if !reachable(m.from_node) || !reachable(m.to_node) {
                return;
            }
            let stall = self
                .faults
                .slow_storage_factor(m.from_node)
                .max(self.faults.slow_storage_factor(m.to_node));
            if stall > 1 && !self.faults.defer_tick(stall) {
                self.balancer.requeue(m.clone());
                return;
            }
        }

        // Data-loss effects and lossy-migration faults corrupt the move;
        // the worse of the two loss rates applies.
        let bug_loss = self
            .bugs
            .active_effects()
            .find_map(|(s, _)| match s.effect {
                Effect::DeleteMigratedData { pct } => Some(pct),
                _ => None,
            })
            .unwrap_or(0);
        let kept = lossy_kept(m.bytes, bug_loss.max(self.faults.loss_pct())).min(moved);

        self.run_move_microsteps(m, key, moved, kept);
        if self.crash.in_flight.is_some() {
            // The victim died mid-move: no step event is emitted — the
            // balancer never hears back, like a lost RPC.
            return;
        }
        let ev = SimEvent::MigrationStep {
            cache_hit,
            had_link,
        };
        self.feed_bugs(&ev);
        let variance_bucket = self.variance_bucket();
        self.touch_deep(
            mix(0x4D16, (cache_hit as u64) << 1 | had_link as u64),
            variance_bucket,
        );
    }

    // ------------------------------------------------------------------
    // Crash-point exploration (see crate::crash)
    // ------------------------------------------------------------------

    /// Moves the `moved`-byte source replica as enumerable micro-steps,
    /// landing `kept` bytes on the destination, with a crash point after
    /// each step. A destination that cannot take `kept` drops the move,
    /// as a real balancer iteration would skip it.
    fn run_move_microsteps(&mut self, m: &MigrationMove, key: u64, moved: Bytes, kept: Bytes) {
        if self.cluster.volume(m.to).is_none_or(|v| v.free() < kept) {
            return;
        }
        if self.crash_point(m, MigrationStepKind::Plan, 0, moved, kept, key) {
            return;
        }
        let frags = fragment_count(kept);
        let mut copied: Bytes = 0;
        for i in 0..frags {
            let share = fragment_bytes(kept, frags, i);
            if self.cluster.migrate_copy(m.to, share).is_err() {
                // Unreachable after the up-front check; drop the move,
                // leaving no partial state behind.
                self.cluster.migrate_rollback_copy(m.to, copied);
                return;
            }
            copied += share;
            let step = MigrationStepKind::Copy {
                fragment: i + 1,
                of: frags,
            };
            if self.crash_point(m, step, copied, moved, kept, key) {
                return;
            }
        }
        if self
            .cluster
            .migrate_commit_swap(m.file, m.from, m.to, kept)
            .is_err()
        {
            self.cluster.migrate_rollback_copy(m.to, copied);
            return;
        }
        if self.crash_point(m, MigrationStepKind::CommitSwap, copied, moved, kept, key) {
            return;
        }
        self.cluster.migrate_commit_account(m.from, moved);
        if self.crash_point(
            m,
            MigrationStepKind::CommitAccount,
            copied,
            moved,
            kept,
            key,
        ) {
            return;
        }
        // Cleanup: move statistics, Gluster hash-cache bookkeeping and
        // linkfile maintenance, then IO/CPU accounting for both ends.
        self.stats.migrations += 1;
        self.stats.bytes_migrated += moved;
        self.balancer.total_moves += 1;
        self.balancer.total_bytes_moved += moved;
        if moved > kept {
            self.stats.bytes_lost += moved - kept;
        }
        let now = self.clock.now();
        if self.cfg.hash_cache_ttl_ms > 0 {
            self.hash_cache
                .insert(key, now.advanced(self.cfg.hash_cache_ttl_ms));
            self.recompute_linkfile(m.file, key);
        }
        self.charge_storage_write(m.to);
        if let Some(load) = self.cluster.storage_load_mut(m.from_node) {
            load.read_io.add(now, 1.0);
            load.cpu.add(now, 1.0);
        }
        let _ = self.crash_point(m, MigrationStepKind::Cleanup, copied, moved, kept, key);
    }

    /// Passes one crash point. Enumeration mode counts and labels it;
    /// crash mode kills the machine applying the step when the armed
    /// index matches. Returns `true` when a crash fired (the move halts).
    fn crash_point(
        &mut self,
        m: &MigrationMove,
        step: MigrationStepKind,
        copied: Bytes,
        moved: Bytes,
        kept: Bytes,
        key: u64,
    ) -> bool {
        // Disarmed, the normal case: a crash point changes no state.
        let Some(plan) = self.crash.plan else {
            return false;
        };
        let idx = self.crash.points_seen;
        self.crash.points_seen += 1;
        match plan {
            CrashPlan::Enumerate => {
                let label = format!("{} f{} {}->{}", step.label(), m.file, m.from, m.to);
                self.crash.labels.push(label);
                false
            }
            CrashPlan::At(k) => {
                if idx != k {
                    return false;
                }
                // The machine applying this micro-step dies: the
                // destination while data is landing, the source side for
                // commit and cleanup.
                let victim = match step {
                    MigrationStepKind::Plan | MigrationStepKind::Copy { .. } => m.to_node,
                    _ => m.from_node,
                };
                self.crash.in_flight = Some(InFlightMove {
                    mv: m.clone(),
                    step,
                    copied,
                    moved,
                    kept,
                    key,
                    victim,
                    point: idx,
                });
                self.cluster.set_offline(victim);
                if !self.crashed.contains(&victim) {
                    self.crashed.push(victim);
                }
                // A crashed mover aborts the round, exactly like an
                // environment crash fault.
                self.balancer.abort();
                true
            }
        }
    }

    /// Arms crash-point enumeration: migration execution counts and
    /// labels every crash point it passes, crashing nothing. Drive time
    /// forward, then read the labels back with [`DfsSim::disarm_crash`].
    pub fn arm_crash_enumeration(&mut self) {
        self.crash = CrashRuntime {
            plan: Some(CrashPlan::Enumerate),
            ..CrashRuntime::default()
        };
    }

    /// Arms a crash at the `k`-th (0-based) crash point passed from now
    /// on. With the same driving sequence, point indices line up exactly
    /// with a previous enumeration from the same state.
    pub fn arm_crash_at(&mut self, k: u64) {
        self.crash = CrashRuntime {
            plan: Some(CrashPlan::At(k)),
            ..CrashRuntime::default()
        };
    }

    /// Disarms the crash instrumentation, returning the labels collected
    /// while enumerating. A fired-but-unrecovered crash and the last
    /// recovered move survive disarming — the oracle still needs them.
    pub fn disarm_crash(&mut self) -> Vec<String> {
        self.crash.plan = None;
        self.crash.points_seen = 0;
        std::mem::take(&mut self.crash.labels)
    }

    /// Crash points passed since the instrumentation was armed.
    pub fn crash_points_seen(&self) -> u64 {
        self.crash.points_seen
    }

    /// The migration interrupted by a fired crash, until recovery runs.
    pub fn crashed_in_flight(&self) -> Option<&InFlightMove> {
        self.crash.in_flight.as_ref()
    }

    /// Restarts the machine an armed crash killed and runs the restart
    /// repair a real node performs when it rejoins after dying mid-move.
    ///
    /// The repair deliberately carries the three **seeded crash-window
    /// bug classes** this explorer exists to find; each one manifests
    /// only when the crash landed inside its micro-window, which is why
    /// random-time injection rarely triggers them:
    ///
    /// - crash mid-**copy** → *orphan replica*: the restart-time volume
    ///   scan re-registers partially copied bytes as allocated space but
    ///   never cross-checks them against the file table, so nobody owns
    ///   or reclaims them (correct recovery would roll the copy back);
    /// - crash after **commit-swap** → *double-counted blocks*: the file
    ///   table already names the destination, so recovery declares the
    ///   move complete and never reclaims the source space (correct
    ///   recovery would finish the source-side accounting);
    /// - crash after **commit-account** → *lost linkfile*: the linkfile
    ///   rewrite scheduled after the commit is forgotten across the
    ///   restart, so DHT lookups at the hash location find neither data
    ///   nor a pointer (correct recovery would recompute the linkfile;
    ///   only linkfile-routing flavors are affected).
    ///
    /// Returns the interrupted move's record, also kept internally for
    /// [`DfsSim::check_crash_invariants`]. `None` if no crash is pending.
    pub fn recover_crashed_machine(&mut self) -> Option<InFlightMove> {
        let inf = self.crash.in_flight.take()?;
        self.cluster.set_online(inf.victim);
        self.crashed.retain(|n| *n != inf.victim);
        match inf.step {
            MigrationStepKind::Plan | MigrationStepKind::Cleanup => {
                // Nothing was mid-flight: before the first fragment or
                // after full durability, a restart is clean.
            }
            MigrationStepKind::Copy { .. } => {
                // SEEDED BUG — orphan replica (see the doc comment). The
                // correct repair is:
                //   self.cluster.migrate_rollback_copy(inf.mv.to, inf.copied);
            }
            MigrationStepKind::CommitSwap => {
                // SEEDED BUG — double-counted blocks. The correct repair:
                //   self.cluster.migrate_commit_account(inf.mv.from, inf.moved);
            }
            MigrationStepKind::CommitAccount => {
                // SEEDED BUG — lost linkfile: the pending linkfile
                // recompute for `inf.mv.file` is dropped on restart.
            }
        }
        self.crash.recovered = Some(inf.clone());
        Some(inf)
    }

    /// Crash-consistency oracle: after a crash-and-recover cycle,
    /// re-derives the namespace/replica/accounting invariants from first
    /// principles and classifies any violation into the seeded
    /// crash-window classes. Runs in every build profile — it is the
    /// release-mode face of [`DfsSim::audit_state`], which backstops the
    /// scoped checks here. One pass over the file table feeds both the
    /// scoped byte checks and the backstop.
    pub fn check_crash_invariants(&mut self) -> Result<(), CrashViolation> {
        let usage = self.cluster.file_table_usage();
        if let Some(inf) = self.crash.recovered.clone() {
            // Destination first: bytes present on disk that the file table
            // does not account for are an orphaned partial copy.
            let to_used = self.cluster.volume(inf.mv.to).map_or(0, |v| v.used);
            let to_expect = usage.used(inf.mv.to);
            if to_used > to_expect {
                return Err(CrashViolation {
                    class: CrashClass::OrphanReplica,
                    detail: format!(
                        "volume {} holds {} bytes but the file table accounts for {}: \
                         {} orphan bytes left by '{}'",
                        inf.mv.to,
                        to_used,
                        to_expect,
                        to_used - to_expect,
                        inf.label()
                    ),
                });
            }
            // Source next: space still charged for a replica the file
            // table re-pointed elsewhere means the bytes count twice.
            let from_used = self.cluster.volume(inf.mv.from).map_or(0, |v| v.used);
            let from_expect = usage.used(inf.mv.from);
            if from_used > from_expect {
                return Err(CrashViolation {
                    class: CrashClass::DoubleCountedBlocks,
                    detail: format!(
                        "volume {} still charges {} bytes but the file table accounts \
                         for {}: {} bytes double-counted across {} and {} after '{}'",
                        inf.mv.from,
                        from_used,
                        from_expect,
                        from_used - from_expect,
                        inf.mv.from,
                        inf.mv.to,
                        inf.label()
                    ),
                });
            }
            // Linkfile invariant, for committed moves on linkfile-routing
            // flavors: the moved file must end with exactly the linkfile
            // its post-move layout requires.
            if inf.step.committed() && self.cfg.hash_cache_ttl_ms > 0 {
                let layout = self.cluster.files().get(&inf.mv.file).map(|meta| {
                    let data_at: Vec<VolumeId> = meta.replicas.iter().map(|r| r.volume).collect();
                    (meta.linkfile_at, data_at)
                });
                if let Some((link, data_at)) = layout {
                    let hash_loc = self.hash_location(inf.key);
                    let expected = match hash_loc {
                        Some(h) if !data_at.contains(&h) => Some(h),
                        _ => None,
                    };
                    if link != expected {
                        return Err(CrashViolation {
                            class: CrashClass::LostLinkfile,
                            detail: format!(
                                "file f{} data sits at {:?} with hash location {:?}, \
                                 which requires linkfile {:?}, but the namespace holds \
                                 {:?} after '{}'",
                                inf.mv.file,
                                data_at,
                                hash_loc,
                                expected,
                                link,
                                inf.label()
                            ),
                        });
                    }
                }
            }
        }
        // Backstop: the full first-principles audit catches anything the
        // scoped checks above did not classify. Nothing above writes the
        // file table, so the pass made on entry still describes it.
        self.audit_state_with(&usage)
            .map_err(|detail| CrashViolation {
                class: CrashClass::Other,
                detail,
            })
    }
}

/// Bytes surviving a lossy migration: `bytes * (100 - pct) / 100`,
/// widened to `u128` because the straight `u64` product overflows for
/// fragments larger than `u64::MAX / 100`.
pub(super) fn lossy_kept(bytes: Bytes, loss_pct: u8) -> Bytes {
    let keep = 100 - loss_pct.min(100) as u128;
    (bytes as u128 * keep / 100) as Bytes
}
