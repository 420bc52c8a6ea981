//! Pair-end bookkeeping: for every `(node, correlator)` end a node
//! holds, the physical pair behind it, its armed timers and its
//! delivery record, plus the reverse `pair -> ends` references.
//!
//! [`Ends`] owns all of these tables. The rest of the runtime reaches
//! them only through the named operations below, so the state of one
//! pair end has one owner, and freeing an end is written once.

use super::*;

/// Retransmission state for one unacknowledged TRACK at its origin
/// end-node, keyed `(node, origin correlator)`.
#[derive(Clone, Copy)]
pub(super) struct TrackRetry {
    /// Retries already sent.
    pub(super) attempt: u32,
    /// The armed [`Ev::TrackRetransmit`] (cancelled on TRACK_ACK).
    pub(super) event: EventId,
    /// Direction the original TRACK was sent in.
    pub(super) downstream: bool,
    /// The frame to re-send, verbatim.
    pub(super) track: Track,
}

/// Dense per-node correlator table: a `(NodeId, Correlator) -> T` map,
/// stored as one short row per node. A node's row holds one entry per
/// qubit it currently has entangled — bounded by its memory size, not
/// by circuit count — so lookups are a short linear scan and idle
/// circuits cost nothing.
struct NodeTable<T> {
    rows: Vec<Vec<(Correlator, T)>>,
}

impl<T: Copy> NodeTable<T> {
    fn new(n_nodes: usize) -> Self {
        NodeTable {
            rows: (0..n_nodes).map(|_| Vec::new()).collect(),
        }
    }

    /// Insert or overwrite the entry for `(node, c)`.
    fn insert(&mut self, node: NodeId, c: Correlator, value: T) {
        let row = &mut self.rows[node.0 as usize];
        match row.iter_mut().find(|(k, _)| *k == c) {
            Some(entry) => entry.1 = value,
            None => row.push((c, value)),
        }
    }

    fn get(&self, node: NodeId, c: Correlator) -> Option<T> {
        self.rows[node.0 as usize]
            .iter()
            .find(|(k, _)| *k == c)
            .map(|(_, v)| *v)
    }

    fn remove(&mut self, node: NodeId, c: Correlator) -> Option<T> {
        let row = &mut self.rows[node.0 as usize];
        let i = row.iter().position(|(k, _)| *k == c)?;
        Some(row.swap_remove(i).1)
    }

    /// Take the whole row of `node` (a crashed node loses every entry
    /// at once).
    fn drain_row(&mut self, node: NodeId) -> Vec<(Correlator, T)> {
        std::mem::take(&mut self.rows[node.0 as usize])
    }

    /// Total entries across all rows (leak introspection).
    fn len(&self) -> usize {
        self.rows.iter().map(Vec::len).sum()
    }
}

/// Reverse references `pair -> (node, correlator)` views, stored
/// slab-parallel to the [`qn_hardware::PairStore`]: slot `i` belongs to
/// the pair whose id currently occupies slab slot `i` (the full id bits
/// are kept for the generation check). Vacated slots keep their `Vec`
/// capacity for the slot's next occupant, so steady-state churn does
/// not allocate; iteration is slot-ordered and thus deterministic.
struct PairRefs {
    slots: Vec<(u64, Vec<(NodeId, Correlator)>)>,
}

/// Slot id marking a vacant [`PairRefs`] entry.
const REFS_VACANT: u64 = u64::MAX;

impl PairRefs {
    /// Register a pair's ends, reusing the slot's capacity.
    fn insert(&mut self, pid: PairId, ends: impl IntoIterator<Item = (NodeId, Correlator)>) {
        let i = pid.index();
        if self.slots.len() <= i {
            self.slots.resize_with(i + 1, || (REFS_VACANT, Vec::new()));
        }
        let slot = &mut self.slots[i];
        slot.0 = pid.0;
        slot.1.clear();
        slot.1.extend(ends);
    }

    /// Vacate the pair's slot, returning its references (the slot keeps
    /// no capacity).
    fn take(&mut self, pid: PairId) -> Option<Vec<(NodeId, Correlator)>> {
        let slot = self.slots.get_mut(pid.index())?;
        if slot.0 != pid.0 {
            return None;
        }
        slot.0 = REFS_VACANT;
        Some(std::mem::take(&mut slot.1))
    }

    /// Vacate the pair's slot in place (keeps the `Vec` capacity for the
    /// slot's next occupant).
    fn remove(&mut self, pid: PairId) {
        if let Some(slot) = self.slots.get_mut(pid.index()) {
            if slot.0 == pid.0 {
                slot.0 = REFS_VACANT;
                slot.1.clear();
            }
        }
    }

    /// Iterate live entries in slot order (deterministic by
    /// construction).
    fn iter(&self) -> impl Iterator<Item = (PairId, &[(NodeId, Correlator)])> {
        self.slots
            .iter()
            .filter(|(id, _)| *id != REFS_VACANT)
            .map(|(id, ends)| (PairId(*id), ends.as_slice()))
    }
}

/// Every pair end a node holds, with its timers and records.
pub(super) struct Ends {
    /// (node, correlator) -> physical pair currently holding that qubit.
    qubit_owner: NodeTable<PairId>,
    /// Reverse references: pair -> (node, correlator) views.
    refs: PairRefs,
    /// Armed [`Ev::Cutoff`] timers at repeaters.
    cutoff_events: NodeTable<EventId>,
    /// Armed [`Ev::TrackExpiry`] timers: cancelled the moment the pair
    /// resolves, so a completed pair never sees a late timeout.
    track_expiry_events: NodeTable<EventId>,
    /// Unacknowledged TRACKs at their origin end-nodes
    /// (`signalling_on_wire` only).
    track_retransmits: NodeTable<TrackRetry>,
    /// PAIR_READY frames already delivered to a node's QNP: a
    /// duplication fault must not hand the protocol the same pair twice
    /// (`signalling_on_wire` only).
    link_delivered: NodeTable<()>,
}

impl Ends {
    pub(super) fn new(n_nodes: usize) -> Self {
        Ends {
            qubit_owner: NodeTable::new(n_nodes),
            refs: PairRefs { slots: Vec::new() },
            cutoff_events: NodeTable::new(n_nodes),
            track_expiry_events: NodeTable::new(n_nodes),
            track_retransmits: NodeTable::new(n_nodes),
            link_delivered: NodeTable::new(n_nodes),
        }
    }

    /// The physical pair holding `node`'s end `c`, if the end is live.
    pub(super) fn owner(&self, node: NodeId, c: Correlator) -> Option<PairId> {
        self.qubit_owner.get(node, c)
    }

    /// The live ends of `node` that pass `keep`, in table row order
    /// (the order releases run in, which drives the device and slab
    /// free lists).
    pub(super) fn held(&self, node: NodeId, keep: impl Fn(&Correlator) -> bool) -> Vec<Correlator> {
        self.qubit_owner.rows[node.0 as usize]
            .iter()
            .map(|(c, _)| *c)
            .filter(keep)
            .collect()
    }

    /// Register a freshly heralded link pair with one end at each of
    /// `a` and `b`.
    pub(super) fn register_pair(&mut self, pid: PairId, a: NodeId, b: NodeId, c: Correlator) {
        self.qubit_owner.insert(a, c, pid);
        self.qubit_owner.insert(b, c, pid);
        self.refs.insert(pid, [(a, c), (b, c)]);
    }

    /// The pairs other than `except` with an end at `node`, in slot
    /// order.
    pub(super) fn pairs_at(&self, node: NodeId, except: PairId) -> Vec<PairId> {
        self.refs
            .iter()
            .filter(|(p, ends)| *p != except && ends.iter().any(|(n, _)| *n == node))
            .map(|(p, _)| p)
            .collect()
    }

    /// A swap at `node` consumed its two local ends and joined their
    /// pairs into `joined`: resolve the consumed ends and re-point every
    /// surviving end to the joined pair. Returns `false` when no end
    /// survives (both outer ends were already abandoned).
    pub(super) fn rejoin(
        &mut self,
        ctx: &mut Context<'_, Ev>,
        node: NodeId,
        consumed: [(PairId, Correlator); 2],
        joined: PairId,
    ) -> bool {
        let mut new_refs = Vec::with_capacity(2);
        for (old_pid, consumed_corr) in consumed {
            // The swap consumed the link pair at this node: its
            // (wire-mode) reclamation timer and dedup entry are done.
            self.take_end(node, consumed_corr);
            self.cancel_track_expiry(ctx, node, consumed_corr);
            if let Some(old) = self.refs.take(old_pid) {
                for (n, c) in old {
                    if n == node && c == consumed_corr {
                        continue;
                    }
                    self.qubit_owner.insert(n, c, joined);
                    new_refs.push((n, c));
                }
            }
        }
        if new_refs.is_empty() {
            return false;
        }
        self.refs.insert(joined, new_refs);
        true
    }

    /// Resolve `node`'s end `c`: forget its owner and its delivery
    /// record, returning the pair that held it.
    pub(super) fn take_end(&mut self, node: NodeId, c: Correlator) -> Option<PairId> {
        self.link_delivered.remove(node, c);
        self.qubit_owner.remove(node, c)
    }

    /// Drop `node`'s reference to `pid`. `None` when the pair has no
    /// references left to trim; otherwise whether that was the last one
    /// (the slot is then vacated).
    fn drop_ref(&mut self, pid: PairId, node: NodeId, c: Correlator) -> Option<bool> {
        let slot = self
            .refs
            .slots
            .get_mut(pid.index())
            .filter(|s| s.0 == pid.0)?;
        slot.1.retain(|(n, k)| !(*n == node && *k == c));
        let empty = slot.1.is_empty();
        if empty {
            self.refs.remove(pid);
        }
        Some(empty)
    }

    pub(super) fn arm_cutoff(&mut self, node: NodeId, c: Correlator, event: EventId) {
        self.cutoff_events.insert(node, c, event);
    }

    pub(super) fn cancel_cutoff(&mut self, ctx: &mut Context<'_, Ev>, node: NodeId, c: Correlator) {
        if let Some(ev) = self.cutoff_events.remove(node, c) {
            ctx.cancel(ev);
        }
    }

    pub(super) fn arm_track_expiry(&mut self, node: NodeId, c: Correlator, event: EventId) {
        self.track_expiry_events.insert(node, c, event);
    }

    /// Cancel the track-expiry timer of `(node, c)`, if armed.
    pub(super) fn cancel_track_expiry(
        &mut self,
        ctx: &mut Context<'_, Ev>,
        node: NodeId,
        c: Correlator,
    ) {
        if let Some(ev) = self.track_expiry_events.remove(node, c) {
            ctx.cancel(ev);
        }
    }

    pub(super) fn arm_track_retry(&mut self, node: NodeId, origin: Correlator, retry: TrackRetry) {
        self.track_retransmits.insert(node, origin, retry);
    }

    /// The TRACK retry of `(node, origin)`, if still unacknowledged.
    pub(super) fn take_track_retry(
        &mut self,
        node: NodeId,
        origin: Correlator,
    ) -> Option<TrackRetry> {
        self.track_retransmits.remove(node, origin)
    }

    /// The peer end-node confirmed the TRACK of `(node, origin)`: disarm
    /// its retransmission. A stray ack (corruption, or an ack raced by
    /// the retry it answers) is a silent no-op.
    pub(super) fn ack_track(
        &mut self,
        ctx: &mut Context<'_, Ev>,
        node: NodeId,
        origin: Correlator,
    ) {
        if let Some(retry) = self.track_retransmits.remove(node, origin) {
            ctx.cancel(retry.event);
        }
    }

    /// Record that `node`'s QNP received the PAIR_READY of `c`: `false`
    /// if it already had (a duplication fault).
    pub(super) fn first_delivery(&mut self, node: NodeId, c: Correlator) -> bool {
        let first = self.link_delivered.get(node, c).is_none();
        self.link_delivered.insert(node, c, ());
        first
    }

    /// Timers armed in these tables (leak introspection).
    fn armed(&self) -> usize {
        self.cutoff_events.len() + self.track_expiry_events.len() + self.track_retransmits.len()
    }
}

impl NetworkModel {
    /// Free one end of a pair at a node: release the memory slot, drop
    /// the reference, and — because freed qubits get re-initialised for
    /// new attempts — replace the abandoned end with white noise when the
    /// pair survives at the other end.
    pub(super) fn release_end(
        &mut self,
        ctx: &mut Context<'_, Ev>,
        node: NodeId,
        correlator: Correlator,
        reinitialise: bool,
    ) {
        // The pair is resolved at this node whatever happens below: its
        // track-expiry timer (if armed) must never fire late, and the
        // wire-delivery dedup entry is done.
        self.ends.cancel_track_expiry(ctx, node, correlator);
        let Some(pid) = self.ends.take_end(node, correlator) else {
            return;
        };
        self.free_end(node, correlator, pid, reinitialise);
        self.poll_links_of(ctx, node);
    }

    /// Free `node`'s qubit of `pid` and drop its reference; the pair
    /// leaves the store with its last reference, otherwise its surviving
    /// end is depolarised if `reinitialise`.
    pub(super) fn free_end(
        &mut self,
        node: NodeId,
        correlator: Correlator,
        pid: PairId,
        reinitialise: bool,
    ) {
        let Some(empty) = self.ends.drop_ref(pid, node, correlator) else {
            return;
        };
        if let Some(pair) = self.pairs.get(pid) {
            if let Some(idx) = pair.end_at(node) {
                let qubit = pair.ends()[idx].qubit;
                self.nodes[node.0 as usize].device.free(qubit);
            }
        }
        if empty {
            self.pairs.discard(pid);
        } else if reinitialise {
            // Full depolarisation of the abandoned end: dephase, then
            // mix the populations.
            self.pairs.apply_dephasing(pid, node, 0.5);
            self.pairs.depolarize_end(pid, node, 1.0);
        }
    }

    /// A crashed node forgets everything: every pair end it holds is
    /// reclaimed (memory power loss: the far ends of swapped chains
    /// survive, depolarised) and every timer and record keyed at it is
    /// disarmed.
    pub(super) fn forget_node(&mut self, ctx: &mut Context<'_, Ev>, node: NodeId) {
        for correlator in self.ends.held(node, |_| true) {
            self.discarded_pairs += 1;
            self.release_end(ctx, node, correlator, true);
        }
        let ends = &mut self.ends;
        let timers = ends.cutoff_events.drain_row(node).into_iter();
        for (_, ev) in timers.chain(ends.track_expiry_events.drain_row(node)) {
            ctx.cancel(ev);
        }
        for (_, retry) in ends.track_retransmits.drain_row(node) {
            ctx.cancel(retry.event);
        }
        ends.link_delivered.drain_row(node);
    }

    /// An end-node's unconfirmed pair expires: its track-timeout fired,
    /// or its link died. The timer is disarmed either way (for a timer
    /// that is firing, that is a no-op).
    pub(super) fn track_expiry_fire(
        &mut self,
        ctx: &mut Context<'_, Ev>,
        node: NodeId,
        circuit: CircuitId,
        correlator: Correlator,
    ) {
        self.ends.cancel_track_expiry(ctx, node, correlator);
        let input = NetInput::TrackTimeout {
            circuit,
            correlator,
        };
        self.qnp_input(ctx, node, circuit, input);
    }

    /// A repeater's queued pair expires: its cutoff fired, or its link
    /// died. The timer is disarmed either way.
    pub(super) fn cutoff_fire(
        &mut self,
        ctx: &mut Context<'_, Ev>,
        node: NodeId,
        circuit: CircuitId,
        side: LinkSide,
        correlator: Correlator,
    ) {
        self.ends.cancel_cutoff(ctx, node, correlator);
        let input = NetInput::CutoffExpired {
            circuit,
            side,
            correlator,
        };
        self.qnp_input(ctx, node, circuit, input);
    }

    /// Leak introspection: every timer currently armed with the
    /// scheduler — cutoffs, track expiries, TRACK retransmits and
    /// signalling retransmits. Zero after a settled run.
    pub fn armed_timers(&self) -> usize {
        self.ends.armed() + self.signal_state.pending()
    }

    /// Leak introspection: correlator state the runtime retains — live
    /// pair ends plus PAIR_READY dedup records. Zero after a settled
    /// run.
    pub fn retained_correlators(&self) -> usize {
        self.ends.qubit_owner.len() + self.ends.link_delivered.len()
    }
}
