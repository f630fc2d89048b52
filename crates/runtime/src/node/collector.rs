//! The fan-in state machine every aggregation tier shares: gather one
//! contribution per source per sample, substitute blanks for the missing,
//! guard completed samples with a watermark and garbage-collect stale
//! partials. The gateway, the feature tiers and the raw-image baseline all
//! finalize through this one path.

use crate::node::report::NodeReport;
use crate::obs::RunObs;
use crate::topology::DeadlineConfig;
use std::collections::HashMap;
use std::sync::Arc;

/// One sample's partially gathered contributions.
struct PendingSample<T> {
    slots: Vec<Option<T>>,
    /// Milliseconds on the run clock.
    deadline: f64,
}

/// What a collector did with one inserted contribution.
pub(crate) enum Ingest<T> {
    /// All required contributions present (blanks substituted): act on it.
    Complete {
        /// The completed sample.
        seq: u64,
        /// Per-source contributions, blanks substituted where missing.
        items: Vec<T>,
        /// How many of `items` are substituted blanks rather than genuine
        /// contributions (a priori failed sources and deadline misses).
        substituted: usize,
    },
    /// Contribution for the most recently completed sample — a duplicate,
    /// or a retry racing the decision: the node should replay its cached
    /// decision so a lost downstream frame can be recovered.
    Replay {
        /// The already-completed sample.
        seq: u64,
    },
    /// Below the completion watermark (older duplicate): ignore.
    Stale,
    /// Still waiting for more contributions.
    Pending,
}

/// Gathers one contribution per source for each sample, substituting the
/// source's blank signature when its contribution misses the deadline or
/// the source is an a priori failed device. A missed device is charged to
/// its `node.device{d}.timeouts` cell. Completed samples are
/// guarded by a watermark so late duplicates can never re-open a pending
/// entry (the pending-map leak), and stale partials are garbage-collected.
pub(crate) struct Collector<T> {
    num_sources: usize,
    blanks: Vec<T>,
    /// Dynamic graceful degradation: wait for every source up to
    /// `aggregation_ms` after a sample's first contribution, then
    /// substitute blanks. Sources missing `suspect_after` consecutive
    /// deadlines are presumed dead and no longer waited for; they revive
    /// on their next frame. On a fault-free run no deadline fires, and the
    /// only substituted sources are the a priori failed devices — the
    /// paper's static fault model.
    deadline: DeadlineConfig,
    /// Source index → device index (`None` when the source is not an end
    /// device, e.g. a tier feeding the next tier).
    device_of_source: Vec<Option<usize>>,
    /// Per device: not failed before the run began. A failed device's
    /// source is never waited for, never charged a timeout, never counted
    /// as degradation and never revived — the paper's §IV-G substitution.
    live_devices: Vec<bool>,
    pending: HashMap<u64, PendingSample<T>>,
    /// Consecutive deadline misses per source.
    misses: Vec<u32>,
    /// Samples finalized with at least one substitution.
    degraded: Vec<u64>,
    /// Highest completed sample.
    watermark: Option<u64>,
    /// Where deadline substitutions are charged.
    obs: Arc<RunObs>,
}

impl<T: Clone> Collector<T> {
    pub(crate) fn new(
        num_sources: usize,
        blanks: Vec<T>,
        deadline: DeadlineConfig,
        device_of_source: Vec<Option<usize>>,
        live_devices: Vec<bool>,
        obs: Arc<RunObs>,
    ) -> Self {
        Collector {
            num_sources,
            blanks,
            deadline,
            device_of_source,
            live_devices,
            pending: HashMap::new(),
            misses: vec![0; num_sources],
            degraded: Vec::new(),
            watermark: None,
            obs,
        }
    }

    /// Drops every pending partial and refuses samples below `floor` from
    /// now on (the watermark advances to `floor - 1`): called on a
    /// topology-epoch change, so traffic from the previous epoch can never
    /// complete a sample under the new routing.
    pub(crate) fn resync(&mut self, floor: u64) {
        self.pending.clear();
        if floor > 0 {
            let w = floor - 1;
            self.watermark = Some(self.watermark.map_or(w, |cur| cur.max(w)));
        }
    }

    /// The blank substituted for `source`: the shape its genuine
    /// contributions have.
    pub(crate) fn blank(&self, source: usize) -> &T {
        &self.blanks[source]
    }

    /// Whether `source` is a device that failed before the run began.
    fn failed(&self, source: usize) -> bool {
        self.device_of_source[source].is_some_and(|d| !self.live_devices[d])
    }

    /// Marks a source as known-dead: the collector stops waiting for it
    /// immediately (its slots substitute blanks at each deadline) instead
    /// of paying `suspect_after` discovery misses. Any genuine frame from
    /// the source revives it, exactly like organically suspected sources.
    pub(crate) fn mark_suspect(&mut self, source: usize) {
        self.misses[source] = u32::MAX;
    }

    /// Clears a source's suspicion (a membership join observed it alive).
    pub(crate) fn clear_suspect(&mut self, source: usize) {
        self.misses[source] = 0;
    }

    /// Replaces the collector's source geometry in place — a re-parented
    /// tier switches between device fan-in and single-tier fan-in at an
    /// epoch boundary. Pending partials are dropped (the epoch floor
    /// guards them anyway), per-source state is rebuilt for the new
    /// geometry; charges already made stay in their counter cells.
    pub(crate) fn reconfigure(
        &mut self,
        num_sources: usize,
        blanks: Vec<T>,
        device_of_source: Vec<Option<usize>>,
    ) {
        debug_assert_eq!(blanks.len(), num_sources);
        debug_assert_eq!(device_of_source.len(), num_sources);
        self.num_sources = num_sources;
        self.blanks = blanks;
        self.device_of_source = device_of_source;
        self.pending.clear();
        self.misses = vec![0; num_sources];
    }

    /// Records one source's contribution for `seq`, arrived at `now`
    /// (milliseconds on the run clock).
    pub(crate) fn insert(&mut self, seq: u64, source: usize, item: T, now: f64) -> Ingest<T> {
        // Any frame proves the source is alive, whatever its sample.
        self.misses[source] = 0;
        match self.watermark {
            Some(w) if seq < w => return Ingest::Stale,
            Some(w) if seq == w => return Ingest::Replay { seq },
            _ => {}
        }
        let deadline = now + self.deadline.aggregation_ms as f64;
        let entry = self
            .pending
            .entry(seq)
            .or_insert_with(|| PendingSample { slots: vec![None; self.num_sources], deadline });
        entry.slots[source] = Some(item);
        // Complete once every source that is still waited for has sent.
        let suspect_after = self.deadline.suspect_after;
        let done =
            self.pending[&seq].slots.iter().enumerate().all(|(s, slot)| {
                slot.is_some() || self.failed(s) || self.misses[s] >= suspect_after
            });
        match done.then(|| self.pending.remove(&seq)).flatten() {
            Some(entry) => {
                let (seq, items, substituted) = self.finalize(seq, entry);
                Ingest::Complete { seq, items, substituted }
            }
            None => Ingest::Pending,
        }
    }

    /// The earliest deadline among pending samples, if any.
    pub(crate) fn next_deadline(&self) -> Option<f64> {
        self.pending.values().map(|p| p.deadline).reduce(f64::min)
    }

    /// Finalizes (with blank substitution) the oldest pending sample whose
    /// deadline is not after `now`, if any.
    pub(crate) fn expire(&mut self, now: f64) -> Option<(u64, Vec<T>, usize)> {
        let seq = self.pending.iter().filter(|(_, p)| p.deadline <= now).map(|(&k, _)| k).min()?;
        let entry = self.pending.remove(&seq)?;
        Some(self.finalize(seq, entry))
    }

    /// Finalizes `seq`, just removed from pending as `entry`: substitutes
    /// blanks for missing slots, advances the watermark and
    /// garbage-collects stale partials. The third element of the result
    /// counts substituted slots (a priori failed devices and deadline
    /// misses alike) so aggregation events can report every blank; only
    /// the misses are charged as timeouts (to the missed device, if the
    /// source is one) and degradation.
    fn finalize(&mut self, seq: u64, entry: PendingSample<T>) -> (u64, Vec<T>, usize) {
        let mut items = Vec::with_capacity(self.num_sources);
        let mut substituted = 0usize;
        let mut missing_any = false;
        for (s, slot) in entry.slots.into_iter().enumerate() {
            match slot {
                Some(item) => items.push(item),
                None => {
                    items.push(self.blanks[s].clone());
                    substituted += 1;
                    if !self.failed(s) {
                        if let Some(d) = self.device_of_source[s] {
                            let cell = format!("node.device{d}.timeouts");
                            self.obs.registry().counter(&cell).incr();
                        }
                        self.misses[s] = self.misses[s].saturating_add(1);
                        missing_any = true;
                    }
                }
            }
        }
        if missing_any {
            self.degraded.push(seq);
        }
        let watermark = self.watermark.map_or(seq, |w| w.max(seq));
        self.watermark = Some(watermark);
        // Partials below the watermark can never complete: their sources
        // would be classified Stale on arrival.
        self.pending.retain(|&k, _| k > watermark);
        (seq, items, substituted)
    }

    pub(crate) fn into_report(self) -> NodeReport {
        NodeReport { degraded: self.degraded }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Far enough out never to expire in-test.
    fn far_deadline() -> DeadlineConfig {
        deadline(60_000, u32::MAX)
    }

    fn deadline(aggregation_ms: u64, suspect_after: u32) -> DeadlineConfig {
        DeadlineConfig { aggregation_ms, suspect_after, ..DeadlineConfig::fast() }
    }

    /// `k` device sources with blanks `1000 + s`, the `failed` ones dead
    /// before the run.
    fn collector(k: usize, deadline: DeadlineConfig, failed: &[usize]) -> Collector<u32> {
        Collector::new(
            k,
            (0..k).map(|s| 1000 + s as u32).collect(),
            deadline,
            (0..k).map(Some).collect(),
            (0..k).map(|d| !failed.contains(&d)).collect(),
            RunObs::disabled(),
        )
    }

    /// The `(cell, charges)` a collector booked: its registry holds only
    /// timeout cells.
    fn charges(c: &Collector<u32>) -> Vec<(String, u64)> {
        c.obs.registry().snapshot()
    }

    fn charged(d: usize, n: u64) -> Vec<(String, u64)> {
        vec![(format!("node.device{d}.timeouts"), n)]
    }

    fn deadline_collector(k: usize) -> Collector<u32> {
        collector(k, far_deadline(), &[])
    }

    /// Deterministic Fisher–Yates permutation of `0..k` from a seed (a
    /// plain LCG keeps the property test independent of external RNGs).
    fn permutation(k: usize, seed: u64) -> Vec<usize> {
        let mut order: Vec<usize> = (0..k).collect();
        let mut state = seed;
        for i in (1..k).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let j = (state >> 33) as usize % (i + 1);
            order.swap(i, j);
        }
        order
    }

    fn check_order_independence(
        mut collector: Collector<u32>,
        k: usize,
        seed: u64,
        dups: &[usize],
    ) {
        // Reference: in-order arrival of every source's contribution.
        let reference: Vec<u32> = (0..k as u32).collect();
        let order = permutation(k, seed);
        let mut completions: Vec<Vec<u32>> = Vec::new();
        for (idx, &s) in order.iter().enumerate() {
            // Interleave duplicates of already-delivered sources; they must
            // never complete the sample early or corrupt a slot.
            for &d in dups {
                if d < idx {
                    assert!(
                        matches!(
                            collector.insert(7, order[d], order[d] as u32, 0.0),
                            Ingest::Pending
                        ),
                        "duplicate must stay pending"
                    );
                }
            }
            match collector.insert(7, s, s as u32, 0.0) {
                Ingest::Complete { seq, items, substituted } => {
                    assert_eq!(seq, 7);
                    assert_eq!(substituted, 0, "all slots genuinely filled");
                    completions.push(items);
                }
                Ingest::Pending => assert!(idx + 1 < k, "last insert must complete"),
                Ingest::Replay { .. } | Ingest::Stale => panic!("fresh contribution misclassified"),
            }
        }
        // Exactly one completion, and its items are in source order — the
        // arrival permutation and the duplicates leave no trace.
        assert_eq!(completions.len(), 1);
        assert_eq!(completions.remove(0), reference);
        // After completion the watermark holds: duplicates replay, older
        // sequences are stale.
        assert!(matches!(collector.insert(7, order[0], 0, 0.0), Ingest::Replay { seq: 7 }));
        assert!(matches!(collector.insert(3, 0, 0, 0.0), Ingest::Stale));
        // No degradation was recorded: every slot was genuinely filled.
        assert!(charges(&collector).is_empty());
        assert!(collector.into_report().degraded.is_empty());
    }

    proptest! {
        #[test]
        fn deadline_finalization_is_order_independent(
            k in 2usize..6,
            seed in 0u64..1024,
            dups in prop::collection::vec(0usize..6, 0..5),
        ) {
            check_order_independence(deadline_collector(k), k, seed, &dups);
        }
    }

    #[test]
    fn a_priori_failed_sources_are_blanked_without_waiting_or_charging() {
        // 3 sources, one (index 1) dead before the run: it is never
        // waited for.
        let mut c = collector(3, far_deadline(), &[1]);
        assert!(matches!(c.insert(0, 0, 7, 0.0), Ingest::Pending));
        match c.insert(0, 2, 9, 0.0) {
            Ingest::Complete { seq, items, substituted } => {
                assert_eq!(seq, 0);
                assert_eq!(items, vec![7, 1001, 9]); // blank substituted in place
                assert_eq!(substituted, 1, "the a priori dead source counts");
            }
            _ => panic!("second live contribution must complete"),
        }
        // Static substitution is the paper's intended §IV-G behavior,
        // not dynamic degradation: nothing is reported.
        assert!(charges(&c).is_empty());
        assert!(c.into_report().degraded.is_empty());
    }

    #[test]
    fn marked_suspect_source_is_not_waited_for_and_revives_on_a_frame() {
        // 3 device sources under a deadline policy; source 1's upstream is
        // known crashed (a tier-crash or membership leave), so the control
        // plane marks it suspect up front.
        let mut c = deadline_collector(3);
        c.mark_suspect(1);
        assert!(matches!(c.insert(0, 0, 7, 0.0), Ingest::Pending));
        match c.insert(0, 2, 9, 0.0) {
            Ingest::Complete { seq, items, substituted } => {
                assert_eq!(seq, 0);
                assert_eq!(items, vec![7, 1001, 9], "blank substituted immediately");
                assert_eq!(substituted, 1);
            }
            _ => panic!("suspect source must not be waited for"),
        }
        // The substitution is charged like any deadline miss.
        // A genuine frame from the source revives it: sample 1 waits again.
        assert!(matches!(c.insert(1, 1, 8, 0.0), Ingest::Pending));
        assert!(matches!(c.insert(1, 0, 7, 0.0), Ingest::Pending));
        assert!(matches!(c.insert(1, 2, 9, 0.0), Ingest::Complete { .. }));
        // clear_suspect is idempotent relief for a join without traffic.
        c.mark_suspect(0);
        c.clear_suspect(0);
        assert!(matches!(c.insert(2, 1, 8, 0.0), Ingest::Pending));
        assert_eq!(charges(&c), charged(1, 1));
        assert_eq!(c.into_report().degraded, vec![0]);
    }

    #[test]
    fn a_sample_expires_at_its_first_contribution_plus_the_deadline() {
        let mut c = collector(2, deadline(40, 2), &[]);
        assert!(matches!(c.insert(0, 0, 7, 10.0), Ingest::Pending));
        // A repeat contribution does not move the deadline; another
        // sample's first one starts its own.
        assert!(matches!(c.insert(0, 0, 7, 30.0), Ingest::Pending));
        assert!(matches!(c.insert(1, 0, 7, 30.0), Ingest::Pending));
        assert_eq!(c.next_deadline(), Some(50.0));
        assert!(c.expire(49.999).is_none(), "not an instant earlier");
        assert_eq!(c.expire(50.0), Some((0, vec![7, 1001], 1)));
        assert_eq!(c.next_deadline(), Some(70.0));
        assert_eq!(charges(&c), charged(1, 1));
    }

    #[test]
    fn a_source_is_suspect_after_its_misses_and_revives_on_its_next_frame() {
        let mut c = collector(2, deadline(10, 2), &[]);
        // Source 1 misses two deadlines in a row...
        for seq in 0..2 {
            let t = 100.0 * seq as f64;
            assert!(matches!(c.insert(seq, 0, 7, t), Ingest::Pending));
            assert!(c.expire(t + 10.0).is_some());
        }
        // ...so sample 2 no longer waits for it, and its next frame
        // revives it: sample 3 waits again.
        let ingest = c.insert(2, 0, 7, 200.0);
        assert!(matches!(ingest, Ingest::Complete { substituted: 1, .. }));
        assert!(matches!(c.insert(3, 1, 8, 300.0), Ingest::Pending));
        let ingest = c.insert(3, 0, 7, 300.0);
        assert!(matches!(ingest, Ingest::Complete { substituted: 0, .. }));
        assert_eq!(charges(&c), charged(1, 3));
        assert_eq!(c.into_report().degraded, vec![0, 1, 2]);
    }

    #[test]
    fn suspect_tier_source_charges_no_device() {
        // Single-tier fan-in: the source maps to no device, so crash
        // substitutions must not leak into the per-device timeout report.
        let obs = RunObs::disabled();
        let mut c = Collector::new(1, vec![500u32], far_deadline(), vec![None], vec![true; 3], obs);
        c.mark_suspect(0);
        // With every source suspect, nothing can arrive to trigger the
        // done-check; the deadline path finalizes instead. Simulate it.
        c.pending.insert(0, PendingSample { slots: vec![None], deadline: 5.0 });
        let (seq, items, substituted) = c.expire(5.0).unwrap();
        assert_eq!((seq, substituted), (0, 1));
        assert_eq!(items, vec![500]);
        assert!(charges(&c).is_empty(), "tier sources charge no device");
        assert_eq!(c.into_report().degraded, vec![0]);
    }

    #[test]
    fn resync_discards_pending_and_floors_the_watermark() {
        let mut c = deadline_collector(2);
        assert!(matches!(c.insert(4, 0, 1, 0.0), Ingest::Pending));
        c.resync(6);
        // The partial for sample 4 is gone and 4/5 are now stale; 5 == the
        // new watermark replays, 6 onward collects normally.
        assert!(matches!(c.insert(4, 1, 2, 0.0), Ingest::Stale));
        assert!(matches!(c.insert(5, 1, 2, 0.0), Ingest::Replay { seq: 5 }));
        assert!(matches!(c.insert(6, 0, 1, 0.0), Ingest::Pending));
        assert!(matches!(c.insert(6, 1, 2, 0.0), Ingest::Complete { .. }));
        // resync never regresses the watermark.
        c.resync(2);
        assert!(matches!(c.insert(6, 0, 1, 0.0), Ingest::Replay { seq: 6 }));
    }

    #[test]
    fn reconfigure_switches_geometry_and_preserves_device_charges() {
        // Start as a device fan-in of 2, with one charged substitution.
        let mut c = deadline_collector(2);
        c.mark_suspect(1);
        match c.insert(0, 0, 7, 0.0) {
            Ingest::Complete { substituted, .. } => assert_eq!(substituted, 1),
            _ => panic!("must complete around the suspect source"),
        }
        // Re-parent: now a single-tier fan-in.
        c.reconfigure(1, vec![900], vec![None]);
        match c.insert(1, 0, 3, 0.0) {
            Ingest::Complete { items, substituted, .. } => {
                assert_eq!(items, vec![3]);
                assert_eq!(substituted, 0);
            }
            _ => panic!("single-source sample must complete at once"),
        }
        // And back to devices: old charges survive both transitions.
        c.reconfigure(2, vec![1000, 1001], vec![Some(0), Some(1)]);
        c.mark_suspect(1);
        assert!(matches!(c.insert(2, 0, 7, 0.0), Ingest::Complete { .. }));
        assert_eq!(charges(&c), charged(1, 2), "charges add up across geometries");
    }
}
