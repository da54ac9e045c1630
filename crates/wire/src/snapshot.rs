//! The owned snapshot model: what a mined world looks like to the wire
//! layer, stripped of every process-local artifact.
//!
//! The model is deliberately neutral — plain strings, dense `u32` table
//! indexes, raw `f64`s — so the wire crate depends on nothing and the
//! format outlives any refactor of the pipeline's in-memory types.
//! Property references are **indexes into the snapshot's own property
//! table** (section `PROP`), never the process-local interner ids, which
//! depend on thread interleaving and must not reach disk.

/// A subjective property as stored in the snapshot's property table:
/// adverbs in surface order, then the head adjective.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Default)]
pub struct SnapshotProperty {
    /// Preceding adverbs, leftmost first.
    pub adverbs: Vec<String>,
    /// The head adjective.
    pub adjective: String,
}

/// An entity type row of section `TYPE`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SnapshotType {
    /// Lowercase type name.
    pub name: String,
    /// Generic nouns denoting the type.
    pub head_nouns: Vec<String>,
    /// Disambiguation cue words.
    pub context_cues: Vec<String>,
}

/// An entity row of section `ENTS`. The row index is the entity id.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SnapshotEntity {
    /// Canonical display name.
    pub name: String,
    /// Alternative surface forms.
    pub aliases: Vec<String>,
    /// Index into the type table (= the dense `TypeId`).
    pub type_index: u32,
    /// Objective attributes, sorted by key.
    pub attributes: Vec<(String, f64)>,
}

/// One evidence counter row of section `EVID`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EvidenceRow {
    /// The entity (row index into `ENTS`).
    pub entity: u32,
    /// Index into the property table.
    pub property: u32,
    /// Positive statement count.
    pub positive: u64,
    /// Negative statement count.
    pub negative: u64,
}

/// One provenance row of section `PROV`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ProvenanceRow {
    /// The entity.
    pub entity: u32,
    /// Index into the property table.
    pub property: u32,
    /// Supporting document ids, ascending.
    pub documents: Vec<u64>,
}

/// One fitted-model row of section `MODL`: the parameters and EM
/// summary of a (type, property) combination. Its decisions are not
/// stored: a loader derives each from these parameters and the entity's
/// `EVID` counts.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ModelRow {
    /// Index into the type table.
    pub type_index: u32,
    /// Index into the property table.
    pub property: u32,
    /// Fitted author-agreement probability `pA`.
    pub p_agree: f64,
    /// Fitted positive statement rate `np+S`.
    pub rate_pos: f64,
    /// Fitted negative statement rate `np-S`.
    pub rate_neg: f64,
    /// EM iterations actually run.
    pub iterations: u64,
    /// Convergence-reason code (the model crate owns the mapping).
    pub converged: u8,
    /// Mixture log-likelihood of the fitted parameters.
    pub log_likelihood: f64,
}

/// Incremental-mining state carried by the optional `INCR` section: which
/// shards of the source corpus a snapshot has ingested, which quarantined
/// shards still await replay, and the digests an updater checks before
/// merging a delta.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct IncrementalState {
    /// The evidence threshold `rho` the snapshot was mined with. An
    /// update must run at the same threshold or the carried-forward
    /// groups would be wrong.
    pub rho: u64,
    /// Digest of the mining configuration (EM grid, extraction window,
    /// threshold — everything except thread count). An updater refuses a
    /// delta mined under a different configuration.
    pub config_digest: u64,
    /// Digest of the corpus identity (preset, seed, region filter) as
    /// supplied by the producer; `0` means unknown (no check possible).
    pub corpus_digest: u64,
    /// Half-open shard ranges `[start, end)` already ingested, sorted,
    /// strictly increasing, and disjoint (adjacent ranges are merged).
    pub ingested: Vec<(u64, u64)>,
    /// Shard ids that were attempted but quarantined — the replay queue.
    /// Sorted, strictly increasing, disjoint from `ingested`.
    pub pending: Vec<u64>,
}

impl IncrementalState {
    /// Inserts a half-open shard range into `ingested`, merging with
    /// overlapping or adjacent ranges so the invariant (sorted, disjoint,
    /// maximally coalesced) holds afterwards. Empty ranges are ignored.
    pub fn ingest_range(&mut self, start: u64, end: u64) {
        if start >= end {
            return;
        }
        self.ingested.push((start, end));
        self.ingested.sort_unstable();
        let mut merged: Vec<(u64, u64)> = Vec::with_capacity(self.ingested.len());
        for &(s, e) in &self.ingested {
            match merged.last_mut() {
                // `s <= last end` merges overlapping AND adjacent ranges
                // (half-open, so end == next start means contiguous).
                Some(last) if s <= last.1 => last.1 = last.1.max(e),
                _ => merged.push((s, e)),
            }
        }
        self.ingested = merged;
    }

    /// Whether shard `shard` lies inside an ingested range.
    pub fn contains(&self, shard: u64) -> bool {
        self.ingested.iter().any(|&(s, e)| s <= shard && shard < e)
    }

    /// Total number of ingested shards.
    pub fn ingested_count(&self) -> u64 {
        self.ingested.iter().map(|&(s, e)| e - s).sum()
    }
}

/// One group fingerprint row of the optional `GRPF` section: a digest of
/// one (type, property) group's evidence, used to report which groups a
/// delta dirtied without replaying the evidence itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GroupFingerprintRow {
    /// Index into the type table.
    pub type_index: u32,
    /// Index into the property table.
    pub property: u32,
    /// Entities of the type with at least one statement on the property.
    pub entities: u64,
    /// Total statements (positive + negative) in the group.
    pub total: u64,
    /// FNV-1a digest over the group's entity-sorted evidence rows.
    pub fingerprint: u64,
}

/// A complete owned snapshot: one of the writer's sources and the
/// materialized form of a decode.
///
/// Invariants the encoder relies on for byte-stable output (and
/// [`crate::SnapshotReader`] verifies or preserves):
///
/// - `properties` is deduplicated and sorted (its derived `Ord`), so the
///   same mined world always produces the same table bytes;
/// - `evidence` and `provenance` rows are sorted by
///   `(entity, property)`;
/// - `models` and `fingerprints` are sorted by `(type_index, property)`.
///
/// The `incremental` and `fingerprints` fields are optional: `None`/empty
/// values encode to the six required sections alone.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Snapshot {
    /// The property table.
    pub properties: Vec<SnapshotProperty>,
    /// The entity types.
    pub types: Vec<SnapshotType>,
    /// The entities.
    pub entities: Vec<SnapshotEntity>,
    /// Evidence counters.
    pub evidence: Vec<EvidenceRow>,
    /// Provenance sample bound (documents kept per pair).
    pub provenance_sample_size: u64,
    /// Provenance samples.
    pub provenance: Vec<ProvenanceRow>,
    /// Fitted models.
    pub models: Vec<ModelRow>,
    /// Incremental-mining state (optional section `INCR`).
    pub incremental: Option<IncrementalState>,
    /// Group fingerprints (optional section `GRPF`); empty = absent.
    pub fingerprints: Vec<GroupFingerprintRow>,
}

/// 64-bit FNV-1a over a byte stream, the digest behind group
/// fingerprints and configuration digests. Stable by definition — the
/// constants are part of the on-disk format.
#[derive(Debug, Clone, Copy)]
pub struct Fnv64(u64);

impl Fnv64 {
    /// The FNV-1a offset basis.
    pub fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    /// Folds `bytes` into the digest.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds a little-endian `u64` into the digest.
    pub fn write_u64(&mut self, value: u64) {
        self.write(&value.to_le_bytes());
    }

    /// The current digest value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Self::new()
    }
}

/// Accumulates the group fingerprint table from evidence rows, one row
/// at a time: the one computation behind the writer's `GRPF` fold
/// ([`crate::Fingerprints::Folded`]), [`group_fingerprints`] (the owned
/// export) and the load-time check, which feeds it straight from a
/// [`crate::SnapshotReader`] without an owned [`Snapshot`].
///
/// Rows must arrive in evidence order — sorted by `(entity, property)` —
/// so that within any (type, property) group entities are visited in
/// ascending order, exactly the digest order the format specifies.
#[derive(Debug, Default)]
pub struct GroupFingerprinter {
    groups: std::collections::BTreeMap<(u32, u32), GroupDigest>,
}

#[derive(Debug)]
struct GroupDigest {
    hash: Fnv64,
    entities: u64,
    total: u64,
}

impl GroupFingerprinter {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one evidence row into the group of its entity's type
    /// (`type_index`, from the entity table) and its property.
    pub fn add(&mut self, type_index: u32, row: &EvidenceRow) {
        let acc = self
            .groups
            .entry((type_index, row.property))
            .or_insert_with(|| GroupDigest {
                hash: Fnv64::new(),
                entities: 0,
                total: 0,
            });
        acc.hash.write(&row.entity.to_le_bytes());
        acc.hash.write_u64(row.positive);
        acc.hash.write_u64(row.negative);
        acc.entities += 1;
        // A loader has bounded the grand total before it gets here; rows
        // from anywhere else (a decoded snapshot handed to
        // `group_fingerprints`) wrap rather than panic.
        acc.total = acc
            .total
            .wrapping_add(row.positive)
            .wrapping_add(row.negative);
    }

    /// The table: one row per group seen, sorted by
    /// `(type_index, property)`.
    pub fn finish(self) -> Vec<GroupFingerprintRow> {
        self.groups
            .into_iter()
            .map(|((type_index, property), acc)| GroupFingerprintRow {
                type_index,
                property,
                entities: acc.entities,
                total: acc.total,
                fingerprint: acc.hash.finish(),
            })
            .collect()
    }
}

/// Computes the group fingerprint table of a snapshot: one row per
/// (type, property) combination with evidence, sorted by
/// `(type_index, property)`, digesting the entity-sorted evidence rows
/// `(entity, positive, negative)` with [`Fnv64`].
///
/// A pure function of the evidence and entity sections — two snapshots
/// with the same evidence always fingerprint identically, regardless of
/// how they were produced (from scratch or by incremental update).
/// Evidence rows naming an out-of-range entity are skipped (snapshot
/// validation elsewhere rejects such rows).
pub fn group_fingerprints(snapshot: &Snapshot) -> Vec<GroupFingerprintRow> {
    let mut fingerprinter = GroupFingerprinter::new();
    for row in &snapshot.evidence {
        if let Some(entity) = snapshot.entities.get(row.entity as usize) {
            fingerprinter.add(entity.type_index, row);
        }
    }
    fingerprinter.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ingest_range_merges_overlaps_and_adjacency() {
        let mut state = IncrementalState::default();
        state.ingest_range(4, 6);
        state.ingest_range(0, 2);
        assert_eq!(state.ingested, vec![(0, 2), (4, 6)]);
        state.ingest_range(2, 4); // adjacent on both sides: coalesce all
        assert_eq!(state.ingested, vec![(0, 6)]);
        state.ingest_range(5, 9); // overlap
        assert_eq!(state.ingested, vec![(0, 9)]);
        state.ingest_range(20, 20); // empty: ignored
        assert_eq!(state.ingested, vec![(0, 9)]);
        assert_eq!(state.ingested_count(), 9);
        assert!(state.contains(0) && state.contains(8));
        assert!(!state.contains(9));
    }

    #[test]
    fn group_fingerprints_digest_evidence_per_type_property_group() {
        let mut snapshot = Snapshot {
            types: vec![SnapshotType::default(), SnapshotType::default()],
            entities: vec![
                SnapshotEntity {
                    type_index: 0,
                    ..Default::default()
                },
                SnapshotEntity {
                    type_index: 1,
                    ..Default::default()
                },
            ],
            evidence: vec![
                EvidenceRow {
                    entity: 0,
                    property: 0,
                    positive: 3,
                    negative: 1,
                },
                EvidenceRow {
                    entity: 1,
                    property: 0,
                    positive: 2,
                    negative: 0,
                },
            ],
            ..Default::default()
        };
        let rows = group_fingerprints(&snapshot);
        assert_eq!(rows.len(), 2);
        assert_eq!((rows[0].type_index, rows[0].property), (0, 0));
        assert_eq!((rows[1].type_index, rows[1].property), (1, 0));
        assert_eq!(rows[0].entities, 1);
        assert_eq!(rows[0].total, 4);
        assert_ne!(rows[0].fingerprint, rows[1].fingerprint);

        // The digest is sensitive to the counts: bump one statement and
        // only that group's fingerprint moves.
        snapshot.evidence[1].positive += 1;
        let changed = group_fingerprints(&snapshot);
        assert_eq!(changed[0].fingerprint, rows[0].fingerprint);
        assert_ne!(changed[1].fingerprint, rows[1].fingerprint);
    }

    #[test]
    fn property_ordering_is_adverbs_then_adjective() {
        let bare = SnapshotProperty {
            adverbs: vec![],
            adjective: "big".into(),
        };
        let very = SnapshotProperty {
            adverbs: vec!["very".into()],
            adjective: "big".into(),
        };
        assert!(bare < very);
    }
}
