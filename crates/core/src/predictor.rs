//! The bounded, hybrid, path-based next trace predictor (§3 of the paper).
//!
//! Two tables run in parallel:
//!
//! * the **correlating table**, indexed by a DOLC hash of the path history,
//!   tagged with 10 bits of the preceding trace's hashed identifier, holding
//!   a predicted trace and a +1/−2 two-bit counter;
//! * the **secondary table**, indexed by the hashed identifier of the most
//!   recent trace alone, holding a predicted trace and a 4-bit counter.
//!
//! Selection: a saturated secondary counter wins outright (and a correct
//! saturated secondary suppresses the correlated update, keeping
//! single-successor traces out of the big table); otherwise a tag hit uses
//! the correlating table; otherwise the secondary serves as warm-start.
//!
//! # Table layout
//!
//! Both tables are stored as **structures of arrays**: tags, counters,
//! targets and alternates live in separate dense arrays, and validity (and
//! the alternate-present flag) are `u64` bitset words. A probe therefore
//! touches a 2-byte tag and a 1-bit valid flag instead of dragging a
//! 32-byte entry struct through the cache, the small metadata arrays
//! (tags/counters/validity) stay cache-resident across sweeps, and the
//! alternate array is never read at all when the §6 alternate prediction is
//! disabled. The layout is guarded by `const` assertions below so a future
//! field addition fails the build instead of silently fattening the hot
//! arrays. Gathered multi-session sweeps over this layout run through
//! [`crate::replay`].

use crate::{
    Counter, PathHistory, Prediction, PredictorConfig, ReturnHistoryStack, Source, StoredTarget,
    Target, TracePredictor,
};
use ntp_trace::{HashedId, TraceId, TraceRecord};
use std::fmt;

// Layout contract of the hot arrays: one byte per counter, two bytes per
// tag, eight per stored target, and a 12-byte index snapshot. A field
// added to `Counter` or `IndexSnapshot` (or a widened tag) must be a
// conscious decision, not an accident — these assertions fail the build
// the moment the element sizes grow.
const _: () = {
    assert!(std::mem::size_of::<Counter>() == 1);
    assert!(std::mem::size_of::<u16>() == 2);
    assert!(std::mem::size_of::<u64>() == 8);
    assert!(std::mem::size_of::<IndexSnapshot>() == 12);
    assert!(std::mem::align_of::<Counter>() == 1);
};

/// One bit per table entry, packed into `u64` words. Powers the validity
/// and alternate-present flags of both tables; `count_ones` makes the
/// occupancy sweep O(entries/64) instead of O(entries).
#[derive(Clone, Debug, Default)]
struct BitWords(Vec<u64>);

impl BitWords {
    fn new(entries: usize) -> BitWords {
        BitWords(vec![0; entries.div_ceil(64)])
    }

    #[inline(always)]
    fn get(&self, i: usize) -> bool {
        (self.0[i >> 6] >> (i & 63)) & 1 != 0
    }

    #[inline(always)]
    fn set(&mut self, i: usize) {
        self.0[i >> 6] |= 1 << (i & 63);
    }

    #[inline(always)]
    fn clear(&mut self, i: usize) {
        self.0[i >> 6] &= !(1u64 << (i & 63));
    }

    fn clear_all(&mut self) {
        self.0.fill(0);
    }

    fn count_ones(&self) -> u64 {
        self.0.iter().map(|w| w.count_ones() as u64).sum()
    }

    fn words(&self) -> &[u64] {
        &self.0
    }

    /// Overwrites the bitmap from raw words; `words` must already have the
    /// right length (checked by `restore_state` before any mutation).
    fn load_words(&mut self, words: &[u64]) {
        self.0.copy_from_slice(words);
    }
}

/// The correlating table in structure-of-arrays form. Indexed by the DOLC
/// hash; `valid` and `has_alt` are bitset words, everything else a dense
/// array with one element per entry.
struct CorrTable {
    tags: Vec<u16>,
    ctrs: Vec<Counter>,
    targets: Vec<u64>,
    alts: Vec<u64>,
    valid: BitWords,
    has_alt: BitWords,
}

impl CorrTable {
    fn new(entries: usize) -> CorrTable {
        CorrTable {
            tags: vec![0; entries],
            ctrs: vec![Counter::new(); entries],
            targets: vec![0; entries],
            alts: vec![0; entries],
            valid: BitWords::new(entries),
            has_alt: BitWords::new(entries),
        }
    }

    fn len(&self) -> usize {
        self.tags.len()
    }

    fn clear(&mut self) {
        self.tags.fill(0);
        self.ctrs.fill(Counter::new());
        self.targets.fill(0);
        self.alts.fill(0);
        self.valid.clear_all();
        self.has_alt.clear_all();
    }
}

/// The secondary table in structure-of-arrays form, indexed by the newest
/// hashed identifier alone.
struct SecTable {
    targets: Vec<u64>,
    ctrs: Vec<Counter>,
    valid: BitWords,
}

impl SecTable {
    fn new(entries: usize) -> SecTable {
        SecTable {
            targets: vec![0; entries],
            ctrs: vec![Counter::new(); entries],
            valid: BitWords::new(entries),
        }
    }

    fn len(&self) -> usize {
        self.targets.len()
    }

    fn clear(&mut self) {
        self.targets.fill(0);
        self.ctrs.fill(Counter::new());
        self.valid.clear_all();
    }
}

/// Issues a best-effort prefetch for the cache line holding `*ptr`.
/// A hint only — never a memory access — and a no-op off x86_64.
#[inline(always)]
fn prefetch_read<T>(ptr: *const T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: prefetch is a pure hint; it performs no access and is safe
    // for any address, valid or not.
    unsafe {
        core::arch::x86_64::_mm_prefetch::<{ core::arch::x86_64::_MM_HINT_T0 }>(ptr as *const i8);
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = ptr;
}

/// Table indexes captured at prediction time.
///
/// In a real pipeline the table entry trained at retirement is the one read
/// at prediction; capturing the indexes (rather than recomputing them from a
/// possibly-repaired history) models that. Immediate-update callers never
/// see this type — [`TracePredictor::update`] captures and consumes one
/// internally.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct IndexSnapshot {
    corr_index: u32,
    tag: u16,
    sec_index: u32,
}

/// A checkpoint of the speculative front-end state (history register and
/// return history stack), used by the execution engine to repair after a
/// misprediction.
#[derive(Clone, Debug)]
pub struct Checkpoint {
    history: Vec<HashedId>,
    rhs: Option<Vec<Vec<HashedId>>>,
}

/// Table-pressure counters accumulated on the training path.
///
/// A *steal* replaces a valid correlating entry whose tag belonged to a
/// different path — destructive aliasing, the effect §5.2's unbounded model
/// removes. A *cold fill* claims a never-used entry. The ratio of steals to
/// fills is the direct measure of how undersized the table is for a
/// workload.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct AliasingCounters {
    /// Valid correlating entries overwritten for a different path (tag
    /// mismatch).
    pub steals: u64,
    /// Invalid correlating entries claimed for the first time.
    pub cold_fills: u64,
    /// Secondary entries claimed for the first time.
    pub sec_fills: u64,
}

/// Point-in-time valid-entry counts for both tables.
///
/// Captured by [`NextTracePredictor::occupancy`]; a popcount over the
/// validity bitset words (O(entries/64)), cheap enough for periodic
/// reporting though still meant for end-of-run summaries, not the hot
/// path.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct TableOccupancy {
    /// Valid correlating-table entries.
    pub corr_valid: u64,
    /// Correlating-table capacity.
    pub corr_capacity: u64,
    /// Valid secondary-table entries.
    pub sec_valid: u64,
    /// Secondary-table capacity.
    pub sec_capacity: u64,
}

impl TableOccupancy {
    /// Correlating-table fill fraction in [0, 1].
    pub fn corr_fraction(&self) -> f64 {
        if self.corr_capacity == 0 {
            0.0
        } else {
            self.corr_valid as f64 / self.corr_capacity as f64
        }
    }

    /// Secondary-table fill fraction in [0, 1].
    pub fn sec_fraction(&self) -> f64 {
        if self.sec_capacity == 0 {
            0.0
        } else {
            self.sec_valid as f64 / self.sec_capacity as f64
        }
    }
}

/// The complete learned state of a [`NextTracePredictor`] as plain data.
///
/// Produced by [`NextTracePredictor::save_state`] and consumed by
/// [`NextTracePredictor::restore_state`]; every field is a dense array or
/// scalar so an external codec (the on-disk `.nts` snapshot format) can
/// serialize it without reaching into predictor internals. Restoring into
/// a predictor built with the *same configuration* reproduces the original
/// bit-for-bit: identical predictions, counters, occupancy and aliasing
/// statistics from that point on.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PredictorState {
    /// Correlating-table tags, one per entry.
    pub corr_tags: Vec<u16>,
    /// Correlating-table counter values, one per entry.
    pub corr_ctrs: Vec<u8>,
    /// Correlating-table stored targets, one per entry.
    pub corr_targets: Vec<u64>,
    /// Correlating-table alternate targets (§6), one per entry.
    pub corr_alts: Vec<u64>,
    /// Correlating-table validity bitmap, 64 entries per word.
    pub corr_valid: Vec<u64>,
    /// Correlating-table alternate-present bitmap, 64 entries per word.
    pub corr_has_alt: Vec<u64>,
    /// Secondary-table stored targets, one per entry.
    pub sec_targets: Vec<u64>,
    /// Secondary-table counter values, one per entry.
    pub sec_ctrs: Vec<u8>,
    /// Secondary-table validity bitmap, 64 entries per word.
    pub sec_valid: Vec<u64>,
    /// Path-history register, newest first, as raw hashed identifiers.
    pub history: Vec<u16>,
    /// Return-history-stack snapshots, oldest call first; empty when the
    /// RHS is disabled.
    pub rhs: Vec<Vec<u16>>,
    /// Training-path aliasing counters: `[steals, cold_fills, sec_fills]`.
    pub aliasing: [u64; 3],
}

/// Why a [`PredictorState`] was refused by
/// [`NextTracePredictor::restore_state`].
///
/// Restoration is all-or-nothing: a refused state leaves the predictor
/// exactly as it was (cold-start fallback is the caller's decision).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StateError {
    /// An array has the wrong length for the predictor's configuration.
    Geometry {
        /// Which array.
        field: &'static str,
        /// Length the configuration requires.
        expected: usize,
        /// Length the state carried.
        found: usize,
    },
    /// A stored value exceeds what the configuration can represent.
    Value {
        /// Which array.
        field: &'static str,
        /// Offending element index.
        index: usize,
        /// The out-of-range value.
        value: u64,
        /// The configuration's maximum for this field.
        max: u64,
    },
}

impl fmt::Display for StateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StateError::Geometry {
                field,
                expected,
                found,
            } => write!(
                f,
                "state geometry mismatch: {field} has {found} elements, config requires {expected}"
            ),
            StateError::Value {
                field,
                index,
                value,
                max,
            } => write!(
                f,
                "state value out of range: {field}[{index}] = {value} exceeds config maximum {max}"
            ),
        }
    }
}

impl std::error::Error for StateError {}

/// Checks that any bits beyond `entries` in the final bitmap word are zero
/// (a corrupted tail would silently skew `count_ones` occupancy).
fn check_bitmap(field: &'static str, words: &[u64], entries: usize) -> Result<(), StateError> {
    let expected = entries.div_ceil(64);
    if words.len() != expected {
        return Err(StateError::Geometry {
            field,
            expected,
            found: words.len(),
        });
    }
    let tail = entries % 64;
    if tail != 0 {
        let last = words[expected - 1];
        if last >> tail != 0 {
            return Err(StateError::Value {
                field,
                index: expected - 1,
                value: last,
                max: (1u64 << tail) - 1,
            });
        }
    }
    Ok(())
}

fn check_len<T>(field: &'static str, got: &[T], expected: usize) -> Result<(), StateError> {
    if got.len() != expected {
        return Err(StateError::Geometry {
            field,
            expected,
            found: got.len(),
        });
    }
    Ok(())
}

fn check_max(field: &'static str, values: &[u64], max: u64) -> Result<(), StateError> {
    if let Some(index) = values.iter().position(|&v| v > max) {
        return Err(StateError::Value {
            field,
            index,
            value: values[index],
            max,
        });
    }
    Ok(())
}

/// The bounded hybrid path-based next trace predictor.
///
/// # Examples
///
/// ```
/// use ntp_core::{NextTracePredictor, PredictorConfig, TracePredictor};
/// use ntp_trace::TraceRecord;
///
/// let mut p = NextTracePredictor::new(PredictorConfig::paper(15, 7));
/// let pred = p.predict();
/// assert!(pred.target.is_none(), "cold predictor has no opinion");
/// ```
pub struct NextTracePredictor {
    cfg: PredictorConfig,
    history: PathHistory<HashedId>,
    rhs: Option<ReturnHistoryStack<HashedId>>,
    corr: CorrTable,
    sec: SecTable,
    aliasing: AliasingCounters,
    /// Table indexes implied by the current history, recomputed once per
    /// history change (push/merge/restore) instead of a gather+fold per
    /// [`TracePredictor::predict`] *and* [`TracePredictor::update`] — the
    /// incremental DOLC hot-path optimisation.
    cached_idx: IndexSnapshot,
}

impl NextTracePredictor {
    /// Builds a predictor.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`PredictorConfig::validate`]).
    pub fn new(cfg: PredictorConfig) -> NextTracePredictor {
        if let Err(e) = cfg.validate() {
            panic!("invalid predictor config: {e}");
        }
        let mut p = NextTracePredictor {
            history: PathHistory::new(cfg.history_capacity()),
            rhs: cfg.rhs.map(ReturnHistoryStack::new),
            corr: CorrTable::new(cfg.corr_entries()),
            sec: SecTable::new(cfg.secondary_entries()),
            aliasing: AliasingCounters::default(),
            cfg,
            cached_idx: IndexSnapshot::default(),
        };
        p.refresh_indices();
        p
    }

    /// The configuration in force.
    pub fn config(&self) -> &PredictorConfig {
        &self.cfg
    }

    /// The key under which `id` would be stored (full packed identifier or
    /// its hash, per [`StoredTarget`]).
    fn key_of(&self, id: TraceId) -> u64 {
        match self.cfg.stored_target {
            StoredTarget::Full => id.packed(),
            StoredTarget::Hashed => id.hashed().0 as u64,
        }
    }

    fn target_of(&self, key: u64) -> Target {
        match self.cfg.stored_target {
            StoredTarget::Full => Target::Full(TraceId::from_packed(key)),
            StoredTarget::Hashed => Target::Hashed(HashedId(key as u16)),
        }
    }

    /// The table indexes implied by the current history.
    ///
    /// This is a cached copy maintained across history changes: the
    /// gather-and-XOR-fold of [`Dolc::index`](crate::Dolc::index) runs once
    /// per retired trace, at push time, rather than once per `predict`
    /// *and* once per `update`.
    pub fn indices(&self) -> IndexSnapshot {
        self.cached_idx
    }

    /// Recomputes [`NextTracePredictor::indices`] from the history
    /// register; called after every history mutation.
    fn refresh_indices(&mut self) {
        let corr_index = self.cfg.dolc.index(&self.history, self.cfg.index_bits);
        let newest = self.history.newest().unwrap_or_default();
        self.cached_idx = IndexSnapshot {
            corr_index,
            tag: newest.low_bits(self.cfg.tag_bits) as u16,
            sec_index: newest.low_bits(self.cfg.secondary_index_bits),
        };
    }

    /// Hints the cache that the table lines named by the current index
    /// snapshot are about to be probed. The gathered-probe pass of
    /// [`crate::replay`] issues this across many lanes before resolving
    /// any of them, so the gathers overlap instead of serializing on each
    /// miss. A pure hint: no-op off x86_64, never changes behaviour.
    #[inline]
    pub fn prefetch_tables(&self) {
        let c = self.cached_idx.corr_index as usize;
        let s = self.cached_idx.sec_index as usize;
        prefetch_read(&self.corr.tags[c]);
        prefetch_read(&self.corr.ctrs[c]);
        prefetch_read(&self.corr.targets[c]);
        prefetch_read(&self.sec.targets[s]);
        prefetch_read(&self.sec.ctrs[s]);
    }

    /// Predicts using previously captured indexes (the engine's read port).
    pub fn predict_at(&self, idx: IndexSnapshot) -> Prediction {
        let c = idx.corr_index as usize;
        let s = idx.sec_index as usize;
        let corr_usable = self.corr.valid.get(c) && self.corr.tags[c] == idx.tag;
        let sec_valid = self.sec.valid.get(s);
        let sec_wins = sec_valid && self.sec.ctrs[s].is_saturated(self.cfg.secondary_counter);

        let alternate = if self.cfg.alternate && corr_usable && self.corr.has_alt.get(c) {
            Some(self.target_of(self.corr.alts[c]))
        } else {
            None
        };

        if sec_wins || !corr_usable {
            if sec_valid {
                Prediction {
                    target: Some(self.target_of(self.sec.targets[s])),
                    alternate,
                    source: Source::Secondary,
                }
            } else if corr_usable {
                Prediction {
                    target: Some(self.target_of(self.corr.targets[c])),
                    alternate,
                    source: Source::Correlated,
                }
            } else {
                Prediction {
                    alternate,
                    ..Prediction::cold()
                }
            }
        } else {
            Prediction {
                target: Some(self.target_of(self.corr.targets[c])),
                alternate,
                source: Source::Correlated,
            }
        }
    }

    /// Trains the tables for the prediction made at `idx`, given the trace
    /// that actually executed. Does not touch the history register.
    pub fn train_at(&mut self, idx: IndexSnapshot, actual: &TraceRecord) {
        let key = self.key_of(actual.id());
        let sec_spec = self.cfg.secondary_counter;
        let prim_spec = self.cfg.primary_counter;

        // Evaluate suppression with the secondary's *pre-update* state.
        let s = idx.sec_index as usize;
        let suppress_corr;
        if self.sec.valid.get(s) {
            let sec_hit = self.sec.targets[s] == key;
            suppress_corr = sec_hit && self.sec.ctrs[s].is_saturated(sec_spec);
            if sec_hit {
                self.sec.ctrs[s].on_correct(sec_spec);
            } else if self.sec.ctrs[s].on_incorrect(sec_spec) {
                self.sec.targets[s] = key;
            }
        } else {
            suppress_corr = false;
            self.sec.targets[s] = key;
            self.sec.ctrs[s] = Counter::new();
            self.sec.valid.set(s);
            self.aliasing.sec_fills += 1;
        }

        if suppress_corr {
            return;
        }

        let alternate = self.cfg.alternate;
        let c = idx.corr_index as usize;
        if self.corr.valid.get(c) && self.corr.tags[c] == idx.tag {
            if self.corr.targets[c] == key {
                self.corr.ctrs[c].on_correct(prim_spec);
            } else if self.corr.ctrs[c].on_incorrect(prim_spec) {
                // Counter was zero: demote the old target to the alternate
                // slot and install the actual trace (§6).
                if alternate {
                    self.corr.alts[c] = self.corr.targets[c];
                    self.corr.has_alt.set(c);
                }
                self.corr.targets[c] = key;
            } else if alternate {
                self.corr.alts[c] = key;
                self.corr.has_alt.set(c);
            }
        } else {
            // Invalid or aliased by a different path: steal the entry.
            let stolen = self.corr.valid.get(c);
            self.corr.tags[c] = idx.tag;
            self.corr.ctrs[c] = Counter::new();
            self.corr.targets[c] = key;
            self.corr.alts[c] = 0;
            self.corr.valid.set(c);
            self.corr.has_alt.clear(c);
            if stolen {
                self.aliasing.steals += 1;
            } else {
                self.aliasing.cold_fills += 1;
            }
        }
    }

    /// Shifts `trace` into the path history and performs return-history-
    /// stack pushes/pops. In immediate-update mode this runs at update; the
    /// engine runs it speculatively at fetch with the *predicted* trace.
    pub fn advance_history(&mut self, id: TraceId, calls: u8, ends_in_return: bool) {
        self.history.push(id.hashed());
        if let Some(rhs) = &mut self.rhs {
            rhs.on_trace(&mut self.history, calls, ends_in_return);
        }
        self.refresh_indices();
    }

    /// Captures the speculative front-end state.
    pub fn checkpoint(&self) -> Checkpoint {
        Checkpoint {
            history: self.history.snapshot(),
            rhs: self.rhs.as_ref().map(ReturnHistoryStack::snapshot),
        }
    }

    /// Restores a [`Checkpoint`] (misprediction repair).
    pub fn restore(&mut self, cp: &Checkpoint) {
        self.history.restore(&cp.history);
        if let (Some(rhs), Some(saved)) = (&mut self.rhs, &cp.rhs) {
            rhs.restore(saved.clone());
        }
        self.refresh_indices();
    }

    /// Read access to the path history (for tests and diagnostics).
    pub fn history(&self) -> &PathHistory<HashedId> {
        &self.history
    }

    /// Training-path aliasing counters accumulated since construction (or
    /// the last [`TracePredictor::reset`]).
    pub fn aliasing(&self) -> AliasingCounters {
        self.aliasing
    }

    /// Reports valid-entry counts for both tables: a popcount over the
    /// validity bitset words, O(entries/64).
    pub fn occupancy(&self) -> TableOccupancy {
        TableOccupancy {
            corr_valid: self.corr.valid.count_ones(),
            corr_capacity: self.corr.len() as u64,
            sec_valid: self.sec.valid.count_ones(),
            sec_capacity: self.sec.len() as u64,
        }
    }

    /// Captures the complete learned state — both tables with their
    /// bitmaps, the path history, the return history stack and the
    /// aliasing counters — as plain data for external serialization.
    pub fn save_state(&self) -> PredictorState {
        PredictorState {
            corr_tags: self.corr.tags.clone(),
            corr_ctrs: self.corr.ctrs.iter().map(|c| c.value()).collect(),
            corr_targets: self.corr.targets.clone(),
            corr_alts: self.corr.alts.clone(),
            corr_valid: self.corr.valid.words().to_vec(),
            corr_has_alt: self.corr.has_alt.words().to_vec(),
            sec_targets: self.sec.targets.clone(),
            sec_ctrs: self.sec.ctrs.iter().map(|c| c.value()).collect(),
            sec_valid: self.sec.valid.words().to_vec(),
            history: self.history.snapshot().iter().map(|h| h.0).collect(),
            rhs: self
                .rhs
                .as_ref()
                .map(ReturnHistoryStack::snapshot)
                .unwrap_or_default()
                .iter()
                .map(|saved| saved.iter().map(|h| h.0).collect())
                .collect(),
            aliasing: [
                self.aliasing.steals,
                self.aliasing.cold_fills,
                self.aliasing.sec_fills,
            ],
        }
    }

    /// Restores a state captured by [`NextTracePredictor::save_state`] into
    /// a predictor built with the *same* configuration, reproducing the
    /// saved predictor bit-for-bit.
    ///
    /// Every array is validated against the configuration's geometry and
    /// value ranges *before* anything is written, so a refused state (wrong
    /// table sizes, counter values past saturation, tags wider than
    /// `tag_bits`, bitmap tail bits beyond the table, an RHS deeper than
    /// configured) leaves the predictor untouched. Config mismatches
    /// between a snapshot file and the serving predictor are meant to be
    /// caught earlier by the codec's fingerprint; this layer is the final
    /// defence.
    pub fn restore_state(&mut self, state: &PredictorState) -> Result<(), StateError> {
        let corr_n = self.corr.len();
        let sec_n = self.sec.len();
        check_len("corr_tags", &state.corr_tags, corr_n)?;
        check_len("corr_ctrs", &state.corr_ctrs, corr_n)?;
        check_len("corr_targets", &state.corr_targets, corr_n)?;
        check_len("corr_alts", &state.corr_alts, corr_n)?;
        check_bitmap("corr_valid", &state.corr_valid, corr_n)?;
        check_bitmap("corr_has_alt", &state.corr_has_alt, corr_n)?;
        check_len("sec_targets", &state.sec_targets, sec_n)?;
        check_len("sec_ctrs", &state.sec_ctrs, sec_n)?;
        check_bitmap("sec_valid", &state.sec_valid, sec_n)?;

        let prim_max = self.cfg.primary_counter.max() as u64;
        if let Some(index) = state.corr_ctrs.iter().position(|&v| v as u64 > prim_max) {
            return Err(StateError::Value {
                field: "corr_ctrs",
                index,
                value: state.corr_ctrs[index] as u64,
                max: prim_max,
            });
        }
        let sec_max = self.cfg.secondary_counter.max() as u64;
        if let Some(index) = state.sec_ctrs.iter().position(|&v| v as u64 > sec_max) {
            return Err(StateError::Value {
                field: "sec_ctrs",
                index,
                value: state.sec_ctrs[index] as u64,
                max: sec_max,
            });
        }
        if self.cfg.tag_bits < 16 {
            let tag_max = (1u64 << self.cfg.tag_bits) - 1;
            if let Some(index) = state.corr_tags.iter().position(|&t| t as u64 > tag_max) {
                return Err(StateError::Value {
                    field: "corr_tags",
                    index,
                    value: state.corr_tags[index] as u64,
                    max: tag_max,
                });
            }
        }
        if self.cfg.stored_target == StoredTarget::Hashed {
            // Hashed targets round-trip through u16; wider values would be
            // silently truncated on the next predict.
            check_max("corr_targets", &state.corr_targets, u16::MAX as u64)?;
            check_max("corr_alts", &state.corr_alts, u16::MAX as u64)?;
            check_max("sec_targets", &state.sec_targets, u16::MAX as u64)?;
        }
        if state.history.len() > self.history.capacity() {
            return Err(StateError::Geometry {
                field: "history",
                expected: self.history.capacity(),
                found: state.history.len(),
            });
        }
        match (&self.rhs, self.cfg.rhs) {
            (Some(_), Some(rhs_cfg)) => {
                if state.rhs.len() > rhs_cfg.max_depth {
                    return Err(StateError::Geometry {
                        field: "rhs",
                        expected: rhs_cfg.max_depth,
                        found: state.rhs.len(),
                    });
                }
                for saved in &state.rhs {
                    if saved.len() > crate::RHS_SNAPSHOT_CAP {
                        return Err(StateError::Geometry {
                            field: "rhs entry",
                            expected: crate::RHS_SNAPSHOT_CAP,
                            found: saved.len(),
                        });
                    }
                }
            }
            _ => {
                if !state.rhs.is_empty() {
                    return Err(StateError::Geometry {
                        field: "rhs",
                        expected: 0,
                        found: state.rhs.len(),
                    });
                }
            }
        }

        // Everything checked; from here on the restore cannot fail.
        self.corr.tags.copy_from_slice(&state.corr_tags);
        for (dst, &v) in self.corr.ctrs.iter_mut().zip(&state.corr_ctrs) {
            *dst = Counter::from_value(v);
        }
        self.corr.targets.copy_from_slice(&state.corr_targets);
        self.corr.alts.copy_from_slice(&state.corr_alts);
        self.corr.valid.load_words(&state.corr_valid);
        self.corr.has_alt.load_words(&state.corr_has_alt);
        self.sec.targets.copy_from_slice(&state.sec_targets);
        for (dst, &v) in self.sec.ctrs.iter_mut().zip(&state.sec_ctrs) {
            *dst = Counter::from_value(v);
        }
        self.sec.valid.load_words(&state.sec_valid);
        let history: Vec<HashedId> = state.history.iter().map(|&h| HashedId(h)).collect();
        self.history.restore(&history);
        if let Some(rhs) = &mut self.rhs {
            rhs.restore(
                state
                    .rhs
                    .iter()
                    .map(|saved| saved.iter().map(|&h| HashedId(h)).collect())
                    .collect(),
            );
        }
        self.aliasing = AliasingCounters {
            steals: state.aliasing[0],
            cold_fills: state.aliasing[1],
            sec_fills: state.aliasing[2],
        };
        self.refresh_indices();
        Ok(())
    }
}

impl TracePredictor for NextTracePredictor {
    fn predict(&self) -> Prediction {
        self.predict_at(self.indices())
    }

    fn update(&mut self, actual: &TraceRecord) {
        let idx = self.indices();
        self.train_at(idx, actual);
        self.advance_history(actual.id(), actual.call_count(), actual.ends_in_return());
    }

    fn reset(&mut self) {
        self.history.clear();
        if let Some(rhs) = &mut self.rhs {
            rhs.clear();
        }
        self.corr.clear();
        self.sec.clear();
        self.aliasing = AliasingCounters::default();
        self.refresh_indices();
    }

    fn history_len(&self) -> usize {
        self.history.len()
    }

    #[inline]
    fn prefetch(&self) {
        self.prefetch_tables();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ntp_trace::TraceId;

    fn rec(pc: u32, bits: u8, n: u8) -> TraceRecord {
        TraceRecord::new(TraceId::new(pc, bits, n), 8, 0, false, false)
    }

    fn rec_callret(pc: u32, calls: u8, ret: bool) -> TraceRecord {
        TraceRecord::new(TraceId::new(pc, 0, 0), 8, calls, ret, ret)
    }

    fn cfg_small() -> PredictorConfig {
        PredictorConfig {
            secondary_index_bits: 8,
            ..PredictorConfig::paper(12, 3)
        }
    }

    #[test]
    fn bitwords_set_clear_count() {
        let mut b = BitWords::new(130);
        assert_eq!(b.0.len(), 3, "130 bits pack into three words");
        assert_eq!(b.count_ones(), 0);
        for i in [0usize, 63, 64, 129] {
            assert!(!b.get(i));
            b.set(i);
            assert!(b.get(i));
        }
        assert_eq!(b.count_ones(), 4);
        b.clear(64);
        assert!(!b.get(64));
        assert!(b.get(63) && b.get(129), "clear touches only its bit");
        assert_eq!(b.count_ones(), 3);
        b.clear_all();
        assert_eq!(b.count_ones(), 0);
    }

    #[test]
    fn learns_a_repeating_sequence() {
        let mut p = NextTracePredictor::new(cfg_small());
        let seq = [
            rec(0x0040_0000, 0b01, 2),
            rec(0x0040_0100, 0b10, 2),
            rec(0x0040_0200, 0b00, 1),
        ];
        for _ in 0..3 {
            for r in &seq {
                p.update(r);
            }
        }
        // Going around again, every successor should be predicted.
        for k in 0..6 {
            let next = seq[k % 3];
            let pred = p.predict();
            assert!(pred.is_correct(next.id()), "step {k}: {pred:?}");
            p.update(&next);
        }
    }

    #[test]
    fn secondary_serves_cold_correlated_entries() {
        // Depth-3 paths take several visits to warm; the secondary predictor
        // (indexed by last trace only) learns after one visit.
        let mut p = NextTracePredictor::new(cfg_small());
        let a = rec(0x0040_0004, 0, 0);
        let b = rec(0x0040_0128, 0, 0);
        p.update(&a);
        p.update(&b); // secondary now knows a → b
                      // New path context (different older history) but same last trace.
        p.update(&rec(0x0040_1450, 0, 0));
        p.update(&a);
        let pred = p.predict();
        assert_eq!(pred.source, Source::Secondary);
        assert!(pred.is_correct(b.id()));
    }

    #[test]
    fn saturated_secondary_suppresses_correlated_update() {
        let mut p = NextTracePredictor::new(cfg_small());
        let b = rec(0x0040_0400, 0, 0);
        let c = rec(0x0040_0800, 0, 0);
        // Fixed (empty-history) context; saturate the secondary on b.
        let idx = p.indices();
        for _ in 0..20 {
            p.train_at(idx, &b);
        }
        let pred = p.predict_at(idx);
        assert_eq!(pred.source, Source::Secondary);
        assert!(pred.is_correct(b.id()));

        // Plant a sentinel in the correlated slot; a suppressed update must
        // leave it untouched.
        let ci = idx.corr_index as usize;
        p.corr.tags[ci] = idx.tag;
        p.corr.ctrs[ci] = Counter::new();
        p.corr.targets[ci] = 12345;
        p.corr.alts[ci] = 0;
        p.corr.valid.set(ci);
        p.corr.has_alt.clear(ci);
        p.train_at(idx, &b); // secondary saturated AND correct ⇒ suppressed
        assert_eq!(p.corr.targets[ci], 12345);

        p.train_at(idx, &c); // secondary wrong ⇒ correlated trains (replace at ctr 0)
        assert_eq!(p.corr.targets[ci], p.key_of(c.id()));
    }

    #[test]
    fn counter_protects_against_single_anomaly() {
        let mut p = NextTracePredictor::new(PredictorConfig {
            rhs: None,
            secondary_index_bits: 8,
            secondary_counter: crate::CounterSpec {
                bits: 4,
                inc: 1,
                dec: 8,
            },
            ..PredictorConfig::paper(12, 0)
        });
        let a = rec(0x0040_0000, 0, 0);
        let b = rec(0x0040_0400, 0, 0);
        let z = rec(0x0040_0800, 0, 0);
        // Teach a → b until confident (counter ≥ 2).
        p.update(&a);
        for _ in 0..4 {
            p.update(&b);
            p.update(&a);
        }
        // One anomalous successor.
        p.update(&z);
        p.update(&a);
        let pred = p.predict();
        assert!(
            pred.is_correct(b.id()),
            "one anomaly must not replace a confident target: {pred:?}"
        );
    }

    #[test]
    fn rhs_disambiguates_return_successors_by_caller() {
        // Two call sites invoke the same long subroutine; the trace after
        // the return depends on the caller. The subroutine is longer than
        // the history, so without the RHS the post-return context is
        // caller-independent and the successor is unpredictable; with the
        // RHS the pre-call path is restored and both successors are learned.
        let cfg = PredictorConfig::paper(12, 3);
        let subs: Vec<_> = (0..6).map(|k| rec(0x0040_1004 + k * 0x34, 0, 0)).collect();
        let ret = rec_callret(0x0040_2008, 0, true);
        let x1 = rec(0x0040_0004, 0, 0);
        let call_x = rec_callret(0x0040_0250, 1, false);
        let after_x = rec(0x0040_0374, 0, 0);
        let y1 = rec(0x0040_0528, 0, 0);
        let call_y = rec_callret(0x0040_0650, 1, false);
        let after_y = rec(0x0040_0794, 0, 0);

        let mispredicts = |p: &mut NextTracePredictor| -> u32 {
            let mut wrong = 0;
            for round in 0..12 {
                for (one, call, after) in [(x1, call_x, after_x), (y1, call_y, after_y)] {
                    p.update(&one);
                    p.update(&call);
                    for s in &subs {
                        p.update(s);
                    }
                    p.update(&ret);
                    let pred = p.predict();
                    if round >= 2 && !pred.is_correct(after.id()) {
                        wrong += 1;
                    }
                    p.update(&after);
                }
            }
            wrong
        };
        let with = mispredicts(&mut NextTracePredictor::new(cfg));
        let without = mispredicts(&mut NextTracePredictor::new(PredictorConfig {
            rhs: None,
            ..cfg
        }));
        assert_eq!(with, 0, "RHS predictor learns both return successors");
        assert!(
            without >= 10,
            "without the RHS the post-return context is ambiguous: {without}"
        );
    }

    #[test]
    fn checkpoint_restore_roundtrip() {
        let mut p = NextTracePredictor::new(cfg_small());
        p.update(&rec(0x0040_0000, 0, 0));
        p.update(&rec_callret(0x0040_0100, 1, false));
        let cp = p.checkpoint();
        let before: Vec<_> = p.history().iter_newest_first().copied().collect();
        p.update(&rec(0x0041_0000, 0, 0));
        p.update(&rec_callret(0x0041_0100, 0, true));
        p.restore(&cp);
        let after: Vec<_> = p.history().iter_newest_first().copied().collect();
        assert_eq!(before, after);
    }

    #[test]
    fn alternate_tracks_second_choice() {
        let mut p = NextTracePredictor::new(PredictorConfig {
            secondary_index_bits: 8,
            // Disable secondary dominance by making saturation unreachable
            // in this short test: heavy traffic alternates successors, so
            // the 4-bit counter never saturates anyway.
            ..PredictorConfig::paper_with_alternate(12, 0)
        });
        let a = rec(0x0040_0000, 0, 0);
        let b = rec(0x0040_0400, 0, 0);
        let c = rec(0x0040_0800, 0, 0);
        // a alternates between successors b and c.
        p.update(&a);
        for _ in 0..8 {
            p.update(&b);
            p.update(&a);
            p.update(&c);
            p.update(&a);
        }
        let pred = p.predict();
        let (Some(t), Some(alt)) = (pred.target, pred.alternate) else {
            panic!("expected primary and alternate: {pred:?}");
        };
        let covers = |x: Target| x.matches(b.id()) || x.matches(c.id());
        assert!(covers(t) && covers(alt));
        assert_ne!(t, alt, "alternate differs from primary");
    }

    #[test]
    fn cost_reduced_predictor_matches_on_hash() {
        let mut p = NextTracePredictor::new(PredictorConfig {
            stored_target: StoredTarget::Hashed,
            secondary_index_bits: 8,
            ..PredictorConfig::paper(12, 1)
        });
        let a = rec(0x0040_0000, 0, 0);
        let b = rec(0x0040_0400, 0, 0);
        for _ in 0..3 {
            p.update(&a);
            p.update(&b);
        }
        p.update(&a);
        let pred = p.predict();
        assert!(matches!(pred.target, Some(Target::Hashed(_))));
        assert!(pred.is_correct(b.id()));
    }

    #[test]
    fn aliasing_counters_split_fills_from_steals() {
        // A tiny 2^1-entry correlating table forces steals quickly.
        let mut p = NextTracePredictor::new(PredictorConfig {
            index_bits: 1,
            dolc: crate::Dolc {
                depth: 3,
                older: 4,
                last: 6,
                current: 8,
            },
            secondary_index_bits: 8,
            ..PredictorConfig::paper(12, 3)
        });
        for k in 0..64u32 {
            p.update(&rec(0x0040_0000 + k * 0x40, 0, 0));
        }
        let a = p.aliasing();
        assert!(a.cold_fills >= 1, "{a:?}");
        assert!(a.cold_fills <= 2, "only two entries can fill cold: {a:?}");
        assert!(a.steals > 0, "64 distinct paths through 2 entries: {a:?}");
        assert!(a.sec_fills > 0, "{a:?}");

        let occ = p.occupancy();
        assert_eq!(occ.corr_capacity, 2);
        assert_eq!(occ.corr_valid, 2);
        assert!((occ.corr_fraction() - 1.0).abs() < 1e-12);
        assert!(occ.sec_valid > 0 && occ.sec_valid <= occ.sec_capacity);

        p.reset();
        assert_eq!(p.aliasing(), AliasingCounters::default());
        assert_eq!(p.occupancy().corr_valid, 0);
    }

    #[test]
    fn occupancy_popcount_matches_per_entry_scan() {
        // The bitset popcount must agree with the plain definition: the
        // number of entries whose valid bit is set.
        let mut p = NextTracePredictor::new(cfg_small());
        for k in 0..500u32 {
            p.update(&rec(0x0040_0000 + (k % 211) * 0x40, 0, 0));
        }
        let occ = p.occupancy();
        let corr_scan = (0..p.corr.len()).filter(|&i| p.corr.valid.get(i)).count() as u64;
        let sec_scan = (0..p.sec.len()).filter(|&i| p.sec.valid.get(i)).count() as u64;
        assert_eq!(occ.corr_valid, corr_scan);
        assert_eq!(occ.sec_valid, sec_scan);
        assert!(occ.corr_valid > 0 && occ.sec_valid > 0);
    }

    #[test]
    fn cached_indices_always_match_recomputation() {
        // The hot path serves `indices()` from a cache refreshed at history
        // pushes; it must stay bit-identical to recomputing from scratch,
        // including across RHS pushes/merges and checkpoint restores.
        let mut p = NextTracePredictor::new(PredictorConfig::paper(15, 7));
        let expect = |p: &NextTracePredictor| {
            let cfg = p.config();
            let newest = p.history().newest().unwrap_or_default();
            IndexSnapshot {
                corr_index: cfg.dolc.index(p.history(), cfg.index_bits),
                tag: newest.low_bits(cfg.tag_bits) as u16,
                sec_index: newest.low_bits(cfg.secondary_index_bits),
            }
        };
        assert_eq!(p.indices(), expect(&p), "fresh predictor");

        let mut seed = 0x2545F491u64;
        let mut rng = move || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (seed >> 33) as u32
        };
        let mut cp = p.checkpoint();
        for k in 0..400 {
            let r = rng();
            let calls = (r & 3) as u8 % 3;
            let ret = r & 4 != 0;
            let rec = TraceRecord::new(
                TraceId::new(0x0040_0000 + (r % 97) * 0x40, (r >> 8) as u8 & 0b11, 2),
                8,
                calls,
                ret,
                ret,
            );
            p.update(&rec);
            assert_eq!(p.indices(), expect(&p), "step {k}");
            if k % 67 == 0 {
                cp = p.checkpoint();
            }
            if k % 131 == 130 {
                p.restore(&cp);
                assert_eq!(p.indices(), expect(&p), "after restore at {k}");
            }
        }
        p.reset();
        assert_eq!(p.indices(), expect(&p), "after reset");
    }

    #[test]
    fn history_len_reports_occupancy() {
        let mut p = NextTracePredictor::new(cfg_small());
        assert_eq!(p.history_len(), 0);
        p.update(&rec(0x0040_0000, 0, 0));
        p.update(&rec(0x0040_0400, 0, 0));
        assert_eq!(p.history_len(), 2);
    }

    #[test]
    fn save_restore_state_is_bit_identical() {
        // Train one predictor, snapshot, restore into a fresh predictor,
        // then drive both in lockstep: every prediction, occupancy and
        // aliasing counter must agree from the cut point on.
        let cfg = PredictorConfig::paper(12, 3);
        let mut trained = NextTracePredictor::new(cfg);
        let mut seed = 0x9E3779B9u64;
        let mut rng = move || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (seed >> 33) as u32
        };
        let step = |r: u32| {
            let calls = (r & 3) as u8 % 3;
            let ret = r & 4 != 0;
            TraceRecord::new(
                TraceId::new(0x0040_0000 + (r % 131) * 0x40, (r >> 8) as u8 & 0b11, 2),
                8,
                calls,
                ret,
                ret,
            )
        };
        for _ in 0..700 {
            let r = rng();
            trained.update(&step(r));
        }
        let state = trained.save_state();
        let mut restored = NextTracePredictor::new(cfg);
        restored.restore_state(&state).expect("state is valid");
        assert_eq!(restored.save_state(), state, "save∘restore is identity");
        assert_eq!(restored.aliasing(), trained.aliasing());
        assert_eq!(restored.occupancy(), trained.occupancy());
        assert_eq!(restored.indices(), trained.indices());
        for k in 0..400 {
            let r = rng();
            let rec = step(r);
            assert_eq!(restored.predict(), trained.predict(), "step {k}");
            trained.update(&rec);
            restored.update(&rec);
        }
        assert_eq!(restored.aliasing(), trained.aliasing());
    }

    #[test]
    fn restore_state_refuses_bad_geometry_and_values() {
        let cfg = cfg_small();
        let mut p = NextTracePredictor::new(cfg);
        for k in 0..200u32 {
            p.update(&rec(0x0040_0000 + (k % 61) * 0x40, 0, 0));
        }
        let good = p.save_state();
        let fingerprint = p.save_state();

        let mut wrong_len = good.clone();
        wrong_len.corr_tags.pop();
        let mut oversize_ctr = good.clone();
        oversize_ctr.sec_ctrs[0] = 200; // 4-bit counter maxes at 15
        let mut wide_tag = good.clone();
        wide_tag.corr_tags[3] = u16::MAX; // paper tag is 10 bits
        let mut deep_history = good.clone();
        deep_history.history = vec![1; 40];
        let mut deep_rhs = good.clone();
        deep_rhs.rhs = vec![vec![1; 2]; 64];
        let mut fat_rhs = good.clone();
        fat_rhs.rhs = vec![vec![1; crate::RHS_SNAPSHOT_CAP + 1]];

        for (name, bad) in [
            ("truncated corr_tags", wrong_len),
            ("oversize secondary counter", oversize_ctr),
            ("tag wider than tag_bits", wide_tag),
            ("history deeper than capacity", deep_history),
            ("rhs deeper than max_depth", deep_rhs),
            ("rhs entry wider than inline cap", fat_rhs),
        ] {
            assert!(p.restore_state(&bad).is_err(), "{name} must be refused");
            assert_eq!(
                p.save_state(),
                fingerprint,
                "{name}: refused restore must not mutate the predictor"
            );
        }
        assert!(p.restore_state(&good).is_ok());
    }

    #[test]
    fn restore_state_refuses_stray_bitmap_tail_bits() {
        // A 2-entry correlating table uses 2 bits of one word; any higher
        // bit is corruption that would skew occupancy popcounts.
        let cfg = PredictorConfig {
            index_bits: 1,
            dolc: crate::Dolc {
                depth: 3,
                older: 4,
                last: 6,
                current: 8,
            },
            secondary_index_bits: 8,
            ..PredictorConfig::paper(12, 3)
        };
        let mut p = NextTracePredictor::new(cfg);
        p.update(&rec(0x0040_0000, 0, 0));
        let mut state = p.save_state();
        state.corr_valid[0] |= 1 << 2;
        assert!(matches!(
            p.restore_state(&state),
            Err(StateError::Value {
                field: "corr_valid",
                ..
            })
        ));
    }

    #[test]
    fn restore_state_refuses_rhs_when_disabled() {
        let cfg = PredictorConfig {
            rhs: None,
            ..cfg_small()
        };
        let mut with_rhs = NextTracePredictor::new(cfg_small());
        with_rhs.update(&rec_callret(0x0040_0100, 1, false));
        let mut state = with_rhs.save_state();
        state.rhs = vec![vec![7]];
        // Same table geometry, but the target predictor has no RHS.
        let mut p = NextTracePredictor::new(cfg);
        assert!(matches!(
            p.restore_state(&state),
            Err(StateError::Geometry { field: "rhs", .. })
        ));
    }

    #[test]
    fn restore_state_refuses_wide_hashed_targets() {
        let cfg = PredictorConfig {
            stored_target: StoredTarget::Hashed,
            secondary_index_bits: 8,
            ..PredictorConfig::paper(12, 1)
        };
        let mut p = NextTracePredictor::new(cfg);
        p.update(&rec(0x0040_0000, 0, 0));
        p.update(&rec(0x0040_0400, 0, 0));
        let mut state = p.save_state();
        state.sec_targets[0] = u16::MAX as u64 + 1;
        assert!(matches!(
            p.restore_state(&state),
            Err(StateError::Value {
                field: "sec_targets",
                ..
            })
        ));
    }

    #[test]
    fn state_error_reports_are_specific() {
        let g = StateError::Geometry {
            field: "corr_tags",
            expected: 4096,
            found: 4095,
        };
        let v = StateError::Value {
            field: "sec_ctrs",
            index: 7,
            value: 200,
            max: 15,
        };
        assert!(g.to_string().contains("corr_tags"), "{g}");
        assert!(g.to_string().contains("4095"), "{g}");
        assert!(v.to_string().contains("sec_ctrs[7]"), "{v}");
        assert!(v.to_string().contains("200"), "{v}");
    }

    #[test]
    fn reset_forgets_everything() {
        let mut p = NextTracePredictor::new(cfg_small());
        let a = rec(0x0040_0000, 0, 0);
        let b = rec(0x0040_0400, 0, 0);
        for _ in 0..3 {
            p.update(&a);
            p.update(&b);
        }
        p.reset();
        assert!(p.history().is_empty());
        let pred = p.predict();
        assert_eq!(pred.source, Source::Cold);
    }
}
