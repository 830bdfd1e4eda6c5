//! The on-disk artifact format (docs/DESIGN.md §10).
//!
//! ```text
//! offset  size  field
//! 0       8     magic  "PSARTFCT"
//! 8       4     format version (u32 LE)           — bump on any change
//! 12      4     flags (u32 LE, reserved, 0)
//! 16      8     whole-file sum over bytes[32..]
//! 24      4     section count (u32 LE)
//! 28      4     reserved (0)
//! 32      32×n  section table: kind u32, reserved u32,
//!               offset u64, len u64, sum u64
//! ...           section payloads, each starting 32-aligned
//! ```
//!
//! Format v4 writes five sections: meta, query, config, memo and best.
//! It stores neither links nor counts. A load builds the plan space of
//! the decoded memo as an in-process `PlanSpace::build` does: the links
//! with the scan a prepare runs (`Links::build`, §3.1), and the counts
//! folded over them (§3.2, `Counts::compute`), so a loaded plan space is
//! its memo's by construction: the sums vouch for the bytes,
//! `Memo::from_parts` for the memo's shape — an optimizer's, joins
//! splitting their groups' relation sets, hence acyclic and at most 130
//! levels deep — and the scan for the plan graph.
//!
//! Every sum is a [`lane_sum`]: four chains over interleaved words.
//! Every payload starts on a 32-byte *file* offset — one block of the
//! four lanes — so lane `j` of a section's sum reads the same words as
//! lane `j` of the whole-file sum.
//!
//! [`encode`] builds the file as one image: room for the header and the
//! table, then each section encoded in place at the next aligned
//! offset, then the table and the two kinds of sum patched in. The
//! sums are two passes over the payload — the whole-file sum covers the
//! table, and the table holds the section sums. A reader is *given*
//! both, so [`decode`] and [`inspect`] verify them in one pass (`sums`):
//! a section laid out as the writer lays them out shares its blocks
//! with the whole-file lanes, and any other table entry is summed on
//! its own.
//!
//! Decode validation order is part of the contract (the fault-injection
//! suite pins it): length → magic → version → section-table bounds →
//! whole-file checksum → per-section checksums → per-section structural
//! decode — the order errors are *reported* in, whatever has been
//! computed by then. A zero-length or cut-short file is [`Truncated`]; a section
//! table pointing past EOF is [`Truncated`] (caught *before* any
//! checksum, so the nature of the damage — not its side effects on the
//! checksum — names the error); a bit flip anywhere after the header is
//! [`ChecksumMismatch`].
//!
//! Compatibility policy: readers accept exactly [`FORMAT_VERSION`]
//! (v3 stored the links; v2 also the counts, and summed on one chain; an
//! older file is a [`VersionMismatch`], which the store quarantines and
//! re-prepares).
//! Unknown section kinds are *tolerated* (skipped), so a future minor
//! revision may append sections without a version bump; any change to
//! an existing section's layout bumps the version, and old artifacts
//! are re-prepared rather than migrated — they are caches, not data.
//!
//! [`Truncated`]: ArtifactError::Truncated
//! [`VersionMismatch`]: ArtifactError::VersionMismatch
//! [`ChecksumMismatch`]: ArtifactError::ChecksumMismatch

use crate::codec::{Reader, Writer};
use crate::sum::{self, Lanes, BLOCK};
use crate::{lane_sum, ArtifactError};
use plansample_catalog::{Datum, TableId};
use plansample_core::{cache_key, PlanSpace, PreparedQuery};
use plansample_memo::{
    GroupId, GroupKey, LogicalOp, Memo, PhysId, PhysicalExpr, PhysicalOp, PlanNode, SortOrder,
};
use plansample_optimizer::{CostModel, OptimizerConfig};
use plansample_query::{
    AggExpr, AggFunc, Aggregate, CmpOp, ColRef, Filter, JoinEdge, QuerySpec, RelId, RelRef, RelSet,
};
use std::fs;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// First eight bytes of every artifact.
pub const MAGIC: [u8; 8] = *b"PSARTFCT";

/// The one format version this build reads and writes.
pub const FORMAT_VERSION: u32 = 4;

/// Fixed header size (magic through reserved).
const HEADER_LEN: usize = 32;

/// Bytes per section-table entry.
const ENTRY_LEN: usize = 32;

/// Sections [`encode`] writes: one of each kind below.
const WRITTEN_SECTIONS: usize = 5;

/// Sanity cap on the declared section count: far above anything the
/// writer produces, low enough that a hostile count cannot drive a
/// large allocation.
const MAX_SECTIONS: u32 = 256;

/// Section kinds, by table order. Values are stable wire constants; 5
/// was v3's links section and 6 v2's counts, and neither is reused.
const SEC_META: u32 = 1;
const SEC_QUERY: u32 = 2;
const SEC_CONFIG: u32 = 3;
const SEC_MEMO: u32 = 4;
const SEC_BEST: u32 = 7;

fn section_name(kind: u32) -> &'static str {
    match kind {
        SEC_META => "meta",
        SEC_QUERY => "query",
        SEC_CONFIG => "config",
        SEC_MEMO => "memo",
        SEC_BEST => "best",
        _ => "unknown",
    }
}

fn malformed(reason: impl Into<String>) -> ArtifactError {
    ArtifactError::Malformed {
        reason: reason.into(),
    }
}

fn truncated(detail: impl Into<String>) -> ArtifactError {
    ArtifactError::Truncated {
        detail: detail.into(),
    }
}

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

/// Serializes a prepared query into a self-contained artifact image.
///
/// One buffer, written once: it is reserved at (an estimate of) the
/// final size, every section is encoded into it at the next 32-aligned
/// offset, and the header, the table and the sums are patched into the
/// room left for them at the front.
pub fn encode(prepared: &PreparedQuery) -> Vec<u8> {
    let memo = prepared.memo();
    let (root, groups) = (memo.root(), memo.groups());

    let table_end = HEADER_LEN + WRITTEN_SECTIONS * ENTRY_LEN;
    let mut w = Writer::new();
    // The memo's widest common operator (a merge join, 41 bytes) a
    // physical expression. A low guess costs one regrowth, a high one
    // untouched address space.
    w.reserve(
        table_end
            + 4096
            + 48 * memo.num_physical()
            + 9 * memo.num_logical()
            + 17 * memo.num_groups(),
    );
    w.zeros(table_end);
    let entries: [_; WRITTEN_SECTIONS] = [
        section(&mut w, SEC_META, |w| encode_meta(w, prepared)),
        section(&mut w, SEC_QUERY, |w| encode_query(w, prepared.query())),
        section(&mut w, SEC_CONFIG, |w| encode_config(w, prepared.config())),
        section(&mut w, SEC_MEMO, |w| encode_memo(w, root, groups)),
        section(&mut w, SEC_BEST, |w| encode_best(w, prepared)),
    ];

    let mut out = w.into_inner();
    out[0..8].copy_from_slice(&MAGIC);
    out[8..12].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
    // flags [12..16) and reserved [28..32) stay zero.
    out[24..28].copy_from_slice(&(entries.len() as u32).to_le_bytes());
    for (i, (kind, offset, len)) in entries.into_iter().enumerate() {
        let sum = lane_sum(&out[offset..offset + len]);
        let e = HEADER_LEN + i * ENTRY_LEN;
        out[e..e + 4].copy_from_slice(&kind.to_le_bytes());
        out[e + 8..e + 16].copy_from_slice(&(offset as u64).to_le_bytes());
        out[e + 16..e + 24].copy_from_slice(&(len as u64).to_le_bytes());
        out[e + 24..e + 32].copy_from_slice(&sum.to_le_bytes());
    }
    // A second pass by necessity: the file sum covers the table, which
    // holds the section sums.
    let file_sum = lane_sum(&out[HEADER_LEN..]);
    out[16..24].copy_from_slice(&file_sum.to_le_bytes());
    out
}

/// Appends one section at the next 32-aligned offset and returns its
/// table row: kind, offset, length.
fn section(w: &mut Writer, kind: u32, body: impl FnOnce(&mut Writer)) -> (u32, usize, usize) {
    w.align(BLOCK);
    let offset = w.len();
    body(w);
    (kind, offset, w.len() - offset)
}

/// Encodes and writes atomically: the bytes go to a hidden temp file in
/// `path`'s directory, then a `rename` publishes them — a reader (or a
/// crash) never observes a half-written artifact. Returns the byte
/// count written.
pub fn save(prepared: &PreparedQuery, path: &Path) -> Result<u64, ArtifactError> {
    let bytes = encode(prepared);
    let dir = path.parent().unwrap_or_else(|| Path::new("."));
    let stem = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "artifact".to_string());
    // Unique per call, not just per process: two threads publishing one
    // key must not truncate each other's file between write and rename.
    static SAVES: AtomicU64 = AtomicU64::new(0);
    let seq = SAVES.fetch_add(1, Ordering::Relaxed);
    let tmp = dir.join(format!(".{stem}.tmp-{}-{seq}", std::process::id()));
    if let Err(e) = fs::write(&tmp, &bytes) {
        let _ = fs::remove_file(&tmp);
        return Err(e.into());
    }
    if let Err(e) = fs::rename(&tmp, path) {
        let _ = fs::remove_file(&tmp);
        return Err(e.into());
    }
    Ok(bytes.len() as u64)
}

/// Reads and decodes one artifact file.
pub fn load(path: &Path) -> Result<PreparedQuery, ArtifactError> {
    decode(&fs::read(path)?)
}

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------

struct SectionRef<'a> {
    kind: u32,
    offset: u64,
    bytes: &'a [u8],
    sum: u64,
}

/// Parses the header and section table and verifies every checksum —
/// the shared front half of [`decode`] and [`inspect`]. Validation
/// order per the module docs.
fn parse_sections(bytes: &[u8]) -> Result<(u32, Vec<SectionRef<'_>>), ArtifactError> {
    if bytes.len() < HEADER_LEN {
        return Err(truncated(format!(
            "file is {} bytes, the header alone is {HEADER_LEN}",
            bytes.len()
        )));
    }
    if bytes[0..8] != MAGIC {
        return Err(ArtifactError::BadMagic);
    }
    let le32 = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
    let le64 = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
    let version = le32(8);
    if version != FORMAT_VERSION {
        return Err(ArtifactError::VersionMismatch { found: version });
    }
    let flags = le32(12);
    let file_sum = le64(16);
    let count = le32(24);
    if count > MAX_SECTIONS {
        return Err(malformed(format!("section count {count} exceeds the cap")));
    }
    let table_end = HEADER_LEN + count as usize * ENTRY_LEN;
    if bytes.len() < table_end {
        return Err(truncated(format!(
            "section table needs {table_end} bytes, file has {}",
            bytes.len()
        )));
    }
    let mut sections = Vec::with_capacity(count as usize);
    for i in 0..count as usize {
        let e = HEADER_LEN + i * ENTRY_LEN;
        let kind = le32(e);
        let offset = le64(e + 8);
        let len = le64(e + 16);
        let sum = le64(e + 24);
        let end = offset.checked_add(len).ok_or_else(|| {
            truncated(format!(
                "section {} offset+len overflows",
                section_name(kind)
            ))
        })?;
        if offset < table_end as u64 || end > bytes.len() as u64 {
            return Err(truncated(format!(
                "section table points past EOF ({} at {offset}+{len}, file is {} bytes)",
                section_name(kind),
                bytes.len()
            )));
        }
        sections.push(SectionRef {
            kind,
            offset,
            bytes: &bytes[offset as usize..end as usize],
            sum,
        });
    }
    let (computed_file_sum, computed) = sums(bytes, &sections);
    if computed_file_sum != file_sum {
        return Err(ArtifactError::ChecksumMismatch { section: "file" });
    }
    for (s, computed) in sections.iter().zip(computed) {
        if computed != s.sum {
            return Err(ArtifactError::ChecksumMismatch {
                section: section_name(s.kind),
            });
        }
    }
    Ok((flags, sections))
}

/// `lane_sum(&bytes[HEADER_LEN..])` and every `lane_sum(section.bytes)`,
/// in one pass over the file.
///
/// The file's lanes walk the blocks after the header in order. A
/// section that starts on a 32-byte offset at or after the point the
/// walk has reached — every section of a layout [`encode`] produces —
/// is made of those same blocks, word `j` of each in lane `j` of both
/// sums, so each block is read once and stepped into eight chains that
/// do not depend on each other. Only a short last block differs:
/// zero-padded for the section, filled by whatever follows it in the
/// file for the file. A table entry of any other shape (unaligned,
/// overlapping, out of order) is summed on its own, and the walk passes
/// over its bytes as over any gap.
fn sums(bytes: &[u8], sections: &[SectionRef<'_>]) -> (u64, Vec<u64>) {
    let mut file = Lanes::start(bytes.len() - HEADER_LEN);
    // Where the file's walk stands: on a block boundary until it has
    // eaten the file's own short tail.
    let mut at = HEADER_LEN;
    let mut computed = Vec::with_capacity(sections.len());
    for s in sections {
        let offset = s.offset as usize;
        if offset % BLOCK != 0 || offset < at {
            computed.push(lane_sum(s.bytes));
            continue;
        }
        file.feed(&bytes[at..offset]);
        let mut section = Lanes::start(s.bytes.len());
        let mut blocks = s.bytes.chunks_exact(BLOCK);
        for b in &mut blocks {
            let b = b.try_into().expect("chunks of a block");
            file.block(b);
            section.block(b);
        }
        let rem = blocks.remainder();
        at = offset + s.bytes.len() - rem.len();
        if !rem.is_empty() {
            section.block(&sum::padded(rem));
            let end = bytes.len().min(at + BLOCK);
            file.block(&sum::padded(&bytes[at..end]));
            at = end;
        }
        computed.push(section.finish());
    }
    file.feed(&bytes[at..]);
    (file.finish(), computed)
}

fn required<'a, 'b>(
    sections: &'b [SectionRef<'a>],
    kind: u32,
) -> Result<&'b SectionRef<'a>, ArtifactError> {
    let mut found = None;
    for s in sections.iter().filter(|s| s.kind == kind) {
        if found.is_some() {
            return Err(malformed(format!(
                "duplicate {} section",
                section_name(kind)
            )));
        }
        found = Some(s);
    }
    found.ok_or_else(|| malformed(format!("missing {} section", section_name(kind))))
}

/// Decodes an artifact image back into a [`PreparedQuery`], validating
/// integrity (checksums), structure (every table invariant), and
/// identity (the stored fingerprint must equal the fingerprint
/// recomputed from the decoded content). Neither links nor counts are
/// stored: the links are the decoded memo's, built by §3.1's scan, and
/// §3.2's fold counts over them on the narrowest tier that holds them.
pub fn decode(bytes: &[u8]) -> Result<PreparedQuery, ArtifactError> {
    decode_with_fingerprint(bytes).map(|(prepared, _)| prepared)
}

/// [`decode`], also handing back the fingerprint it verified, so a
/// caller comparing it with a requested key formats nothing again.
pub(crate) fn decode_with_fingerprint(
    bytes: &[u8],
) -> Result<(PreparedQuery, String), ArtifactError> {
    let (_, sections) = parse_sections(bytes)?;

    let fingerprint = decode_meta(required(&sections, SEC_META)?.bytes)?;
    let query = Arc::new(decode_query(required(&sections, SEC_QUERY)?.bytes)?);
    let config = decode_config(required(&sections, SEC_CONFIG)?.bytes)?;
    let memo = Arc::new(decode_memo(required(&sections, SEC_MEMO)?.bytes)?);
    let space = PlanSpace::build_shared(memo, query)?;
    let (best_plan, best_cost) = decode_best(required(&sections, SEC_BEST)?.bytes)?;
    let prepared = PreparedQuery::from_parts(space, best_plan, best_cost, config)?;

    // Identity: a mislabeled artifact (edited content under an old
    // fingerprint) must not impersonate another query's plan space.
    if cache_key(prepared.query(), prepared.config()) != fingerprint {
        return Err(malformed(
            "stored fingerprint does not match the decoded query + config",
        ));
    }
    Ok((prepared, fingerprint))
}

/// One section-table row, as reported by [`inspect`].
#[derive(Debug, Clone)]
pub struct SectionInfo {
    /// Section name (`"memo"`, `"best"`, …; `"unknown"` for kinds this
    /// build does not know).
    pub name: &'static str,
    /// Byte offset of the payload in the file.
    pub offset: u64,
    /// Payload length in bytes.
    pub len: u64,
    /// Stored (and verified) payload checksum.
    pub checksum: u64,
}

/// Header-level description of an artifact: what [`inspect`] returns.
#[derive(Debug, Clone)]
pub struct Inspection {
    /// Declared format version.
    pub version: u32,
    /// Header flags.
    pub flags: u32,
    /// Whole-file size in bytes.
    pub total_bytes: u64,
    /// The query + config fingerprint the artifact was saved under.
    pub fingerprint: String,
    /// The section table, in file order.
    pub sections: Vec<SectionInfo>,
}

/// Verifies integrity (header, bounds, every checksum) and reports the
/// section-level byte breakdown *without* decoding the plan space —
/// cheap enough to run over a whole store.
pub fn inspect(bytes: &[u8]) -> Result<Inspection, ArtifactError> {
    let (flags, sections) = parse_sections(bytes)?;
    let fingerprint = decode_meta(required(&sections, SEC_META)?.bytes)?;
    Ok(Inspection {
        version: FORMAT_VERSION,
        flags,
        total_bytes: bytes.len() as u64,
        fingerprint,
        sections: sections
            .iter()
            .map(|s| SectionInfo {
                name: section_name(s.kind),
                offset: s.offset,
                len: s.bytes.len() as u64,
                checksum: s.sum,
            })
            .collect(),
    })
}

// ---------------------------------------------------------------------
// META
// ---------------------------------------------------------------------

fn encode_meta(w: &mut Writer, prepared: &PreparedQuery) {
    w.str(&cache_key(prepared.query(), prepared.config()));
    w.u64(prepared.memo().num_groups() as u64);
    w.u64(prepared.memo().num_physical() as u64);
}

fn decode_meta(bytes: &[u8]) -> Result<String, ArtifactError> {
    let mut r = Reader::new(bytes);
    let fingerprint = r.str()?;
    let _groups = r.u64()?;
    let _exprs = r.u64()?;
    r.finish()?;
    Ok(fingerprint)
}

// ---------------------------------------------------------------------
// QUERY
// ---------------------------------------------------------------------

fn write_colref(w: &mut Writer, c: ColRef) {
    w.u32(c.rel.0);
    w.u32(c.col);
}

fn read_colref(r: &mut Reader<'_>) -> Result<ColRef, ArtifactError> {
    Ok(ColRef {
        rel: RelId(r.u32()?),
        col: r.u32()?,
    })
}

fn write_datum(w: &mut Writer, d: &Datum) {
    match d {
        Datum::Null => w.u8(0),
        Datum::Int(v) => {
            w.u8(1);
            w.i64(*v);
        }
        Datum::Float(v) => {
            w.u8(2);
            w.f64(*v);
        }
        Datum::Str(s) => {
            w.u8(3);
            w.str(s);
        }
    }
}

fn read_datum(r: &mut Reader<'_>) -> Result<Datum, ArtifactError> {
    Ok(match r.u8()? {
        0 => Datum::Null,
        1 => Datum::Int(r.i64()?),
        2 => Datum::Float(r.f64()?),
        3 => Datum::Str(r.str()?),
        t => return Err(malformed(format!("unknown datum tag {t}"))),
    })
}

fn cmp_tag(op: CmpOp) -> u8 {
    match op {
        CmpOp::Eq => 0,
        CmpOp::Ne => 1,
        CmpOp::Lt => 2,
        CmpOp::Le => 3,
        CmpOp::Gt => 4,
        CmpOp::Ge => 5,
    }
}

fn cmp_from(tag: u8) -> Result<CmpOp, ArtifactError> {
    Ok(match tag {
        0 => CmpOp::Eq,
        1 => CmpOp::Ne,
        2 => CmpOp::Lt,
        3 => CmpOp::Le,
        4 => CmpOp::Gt,
        5 => CmpOp::Ge,
        t => return Err(malformed(format!("unknown comparison tag {t}"))),
    })
}

fn agg_tag(f: AggFunc) -> u8 {
    match f {
        AggFunc::CountStar => 0,
        AggFunc::Sum => 1,
        AggFunc::Min => 2,
        AggFunc::Max => 3,
        AggFunc::Avg => 4,
    }
}

fn agg_from(tag: u8) -> Result<AggFunc, ArtifactError> {
    Ok(match tag {
        0 => AggFunc::CountStar,
        1 => AggFunc::Sum,
        2 => AggFunc::Min,
        3 => AggFunc::Max,
        4 => AggFunc::Avg,
        t => return Err(malformed(format!("unknown aggregate tag {t}"))),
    })
}

fn encode_query(w: &mut Writer, q: &QuerySpec) {
    w.u32(q.relations.len() as u32);
    for rel in &q.relations {
        w.u32(rel.table.0);
        w.str(&rel.alias);
    }
    w.u32(q.join_edges.len() as u32);
    for e in &q.join_edges {
        write_colref(w, e.left);
        write_colref(w, e.right);
        w.f64(e.selectivity);
    }
    w.u32(q.filters.len() as u32);
    for f in &q.filters {
        write_colref(w, f.col);
        w.u8(cmp_tag(f.op));
        write_datum(w, &f.value);
        w.f64(f.selectivity);
    }
    match &q.aggregate {
        None => w.u8(0),
        Some(agg) => {
            w.u8(1);
            w.u32(agg.group_by.len() as u32);
            for &c in &agg.group_by {
                write_colref(w, c);
            }
            w.u32(agg.aggs.len() as u32);
            for a in &agg.aggs {
                w.u8(agg_tag(a.func));
                match a.arg {
                    None => w.u8(0),
                    Some(c) => {
                        w.u8(1);
                        write_colref(w, c);
                    }
                }
            }
        }
    }
    match &q.projection {
        None => w.u8(0),
        Some(cols) => {
            w.u8(1);
            w.u32(cols.len() as u32);
            for &c in cols {
                write_colref(w, c);
            }
        }
    }
}

fn read_bool(r: &mut Reader<'_>, what: &str) -> Result<bool, ArtifactError> {
    match r.u8()? {
        0 => Ok(false),
        1 => Ok(true),
        t => Err(malformed(format!("{what} flag must be 0 or 1, got {t}"))),
    }
}

fn decode_query(bytes: &[u8]) -> Result<QuerySpec, ArtifactError> {
    let mut r = Reader::new(bytes);
    let nrels = r.u32()?;
    // A load scans the memo against this query, which reads its
    // relations as the bits of one `RelSet`.
    if nrels as usize > RelSet::MAX_RELS {
        return Err(malformed(format!(
            "{nrels} relations, more than a query holds ({})",
            RelSet::MAX_RELS
        )));
    }
    let mut relations = Vec::new();
    for _ in 0..nrels {
        relations.push(RelRef {
            table: TableId(r.u32()?),
            alias: r.str()?,
        });
    }
    let nedges = r.u32()?;
    let mut join_edges = Vec::new();
    for _ in 0..nedges {
        join_edges.push(JoinEdge {
            left: read_colref(&mut r)?,
            right: read_colref(&mut r)?,
            selectivity: r.f64()?,
        });
    }
    let nfilters = r.u32()?;
    let mut filters = Vec::new();
    for _ in 0..nfilters {
        filters.push(Filter {
            col: read_colref(&mut r)?,
            op: cmp_from(r.u8()?)?,
            value: read_datum(&mut r)?,
            selectivity: r.f64()?,
        });
    }
    let aggregate = if read_bool(&mut r, "aggregate")? {
        let ngroup = r.u32()?;
        let mut group_by = Vec::new();
        for _ in 0..ngroup {
            group_by.push(read_colref(&mut r)?);
        }
        let naggs = r.u32()?;
        let mut aggs = Vec::new();
        for _ in 0..naggs {
            let func = agg_from(r.u8()?)?;
            let arg = if read_bool(&mut r, "aggregate argument")? {
                Some(read_colref(&mut r)?)
            } else {
                None
            };
            aggs.push(AggExpr { func, arg });
        }
        Some(Aggregate { group_by, aggs })
    } else {
        None
    };
    let projection = if read_bool(&mut r, "projection")? {
        let n = r.u32()?;
        let mut cols = Vec::new();
        for _ in 0..n {
            cols.push(read_colref(&mut r)?);
        }
        Some(cols)
    } else {
        None
    };
    r.finish()?;
    Ok(QuerySpec {
        relations,
        join_edges,
        filters,
        aggregate,
        projection,
    })
}

// ---------------------------------------------------------------------
// CONFIG
// ---------------------------------------------------------------------

fn encode_config(w: &mut Writer, c: &OptimizerConfig) {
    w.u8(c.allow_cross_products as u8);
    // The explorer byte: 0 is bottom-up subset enumeration, the only
    // explorer `optimize` runs. The format keeps the byte.
    w.u8(0);
    w.u8(c.enable_merge_joins as u8);
    w.u8(c.enable_index_scans as u8);
    w.u8(c.enable_enforcers as u8);
    let m = &c.cost_model;
    for v in [
        m.seq_row,
        m.idx_row,
        m.sort_factor,
        m.hash_build_row,
        m.hash_probe_row,
        m.merge_row,
        m.nlj_pair,
        m.stream_agg_row,
    ] {
        w.f64(v);
    }
}

fn decode_config(bytes: &[u8]) -> Result<OptimizerConfig, ArtifactError> {
    let mut r = Reader::new(bytes);
    let allow_cross_products = read_bool(&mut r, "cross products")?;
    match r.u8()? {
        0 => {}
        t => {
            return Err(malformed(format!(
                "explorer tag {t}: only 0 (bottom-up) is written"
            )))
        }
    }
    let enable_merge_joins = read_bool(&mut r, "merge joins")?;
    let enable_index_scans = read_bool(&mut r, "index scans")?;
    let enable_enforcers = read_bool(&mut r, "enforcers")?;
    let mut vals = [0.0f64; 8];
    for v in &mut vals {
        *v = r.f64()?;
    }
    r.finish()?;
    Ok(OptimizerConfig {
        allow_cross_products,
        enable_merge_joins,
        enable_index_scans,
        enable_enforcers,
        cost_model: CostModel {
            seq_row: vals[0],
            idx_row: vals[1],
            sort_factor: vals[2],
            hash_build_row: vals[3],
            hash_probe_row: vals[4],
            merge_row: vals[5],
            nlj_pair: vals[6],
            stream_agg_row: vals[7],
        },
    })
}

// ---------------------------------------------------------------------
// MEMO
// ---------------------------------------------------------------------

fn write_sort_order(w: &mut Writer, order: &SortOrder) {
    let cols = order.cols();
    w.u32(cols.len() as u32);
    for &c in cols {
        write_colref(w, c);
    }
}

fn read_sort_order(r: &mut Reader<'_>) -> Result<SortOrder, ArtifactError> {
    let n = r.u32()?;
    let mut cols = Vec::new();
    for _ in 0..n {
        cols.push(read_colref(r)?);
    }
    Ok(SortOrder::on(cols))
}

/// The memo section: the root, then each group (a test's may not fit).
fn encode_memo<'m>(
    w: &mut Writer,
    root: GroupId,
    groups: impl ExactSizeIterator<Item = &'m plansample_memo::Group>,
) {
    w.u32(root.0);
    w.u32(groups.len() as u32);
    for group in groups {
        match group.key {
            GroupKey::Rels(set) => {
                w.u8(0);
                w.u64(set.mask());
            }
            GroupKey::Agg => w.u8(1),
        }
        w.u32(group.logical.len() as u32);
        for op in &group.logical {
            match op {
                LogicalOp::Scan { rel } => {
                    w.u8(0);
                    w.u32(rel.0);
                }
                LogicalOp::Join { left, right } => {
                    w.u8(1);
                    w.u32(left.0);
                    w.u32(right.0);
                }
                LogicalOp::Agg { input } => {
                    w.u8(2);
                    w.u32(input.0);
                }
            }
        }
        w.u32(group.physical.len() as u32);
        for expr in &group.physical {
            match &expr.op {
                PhysicalOp::TableScan { rel } => {
                    w.u8(0);
                    w.u32(rel.0);
                }
                PhysicalOp::SortedIdxScan { rel, col } => {
                    w.u8(1);
                    w.u32(rel.0);
                    write_colref(w, *col);
                }
                PhysicalOp::Sort { target } => {
                    w.u8(2);
                    write_sort_order(w, target);
                }
                PhysicalOp::NestedLoopJoin { left, right } => {
                    w.u8(3);
                    w.u32(left.0);
                    w.u32(right.0);
                }
                PhysicalOp::HashJoin { left, right } => {
                    w.u8(4);
                    w.u32(left.0);
                    w.u32(right.0);
                }
                PhysicalOp::MergeJoin {
                    left,
                    right,
                    left_key,
                    right_key,
                } => {
                    w.u8(5);
                    w.u32(left.0);
                    w.u32(right.0);
                    write_colref(w, *left_key);
                    write_colref(w, *right_key);
                }
                PhysicalOp::HashAgg { input } => {
                    w.u8(6);
                    w.u32(input.0);
                }
                PhysicalOp::StreamAgg { input, group_order } => {
                    w.u8(7);
                    w.u32(input.0);
                    write_sort_order(w, group_order);
                }
            }
            w.f64(expr.local_cost);
            w.f64(expr.out_card);
        }
    }
}

fn relset_from_mask(mask: u64) -> RelSet {
    (0..64)
        .filter(|i| mask >> i & 1 == 1)
        .map(|i| RelId(i as u32))
        .collect()
}

/// The fewest bytes a group (aggregate key, two empty lists), a logical
/// expression (a scan) and a physical one (a table scan and its two
/// costs) encode to: what bounds a declared count by the bytes present.
const MIN_GROUP_LEN: usize = 9;
const MIN_LOGICAL_LEN: usize = 5;
const MIN_PHYSICAL_LEN: usize = 21;

/// A vector for the `declared` items about to be read, each at least
/// `min_len` bytes: reserved exactly for an honest count, and for no
/// more items than `r` has bytes left to hold for a hostile one.
fn reserved<T>(declared: u32, min_len: usize, r: &Reader<'_>) -> Vec<T> {
    Vec::with_capacity((declared as usize).min(r.remaining() / min_len))
}

fn decode_memo(bytes: &[u8]) -> Result<Memo, ArtifactError> {
    let mut r = Reader::new(bytes);
    let root = r.u32()?;
    let ngroups = r.u32()?;
    let mut parts = reserved(ngroups, MIN_GROUP_LEN, &r);
    for _ in 0..ngroups {
        let key = match r.u8()? {
            0 => GroupKey::Rels(relset_from_mask(r.u64()?)),
            1 => GroupKey::Agg,
            t => return Err(malformed(format!("unknown group-key tag {t}"))),
        };
        let nlogical = r.u32()?;
        let mut logical = reserved(nlogical, MIN_LOGICAL_LEN, &r);
        for _ in 0..nlogical {
            logical.push(match r.u8()? {
                0 => LogicalOp::Scan {
                    rel: RelId(r.u32()?),
                },
                1 => LogicalOp::Join {
                    left: GroupId(r.u32()?),
                    right: GroupId(r.u32()?),
                },
                2 => LogicalOp::Agg {
                    input: GroupId(r.u32()?),
                },
                t => return Err(malformed(format!("unknown logical-op tag {t}"))),
            });
        }
        let nphysical = r.u32()?;
        let mut physical = reserved(nphysical, MIN_PHYSICAL_LEN, &r);
        for _ in 0..nphysical {
            let op = match r.u8()? {
                0 => PhysicalOp::TableScan {
                    rel: RelId(r.u32()?),
                },
                1 => PhysicalOp::SortedIdxScan {
                    rel: RelId(r.u32()?),
                    col: read_colref(&mut r)?,
                },
                2 => PhysicalOp::Sort {
                    target: read_sort_order(&mut r)?,
                },
                3 => PhysicalOp::NestedLoopJoin {
                    left: GroupId(r.u32()?),
                    right: GroupId(r.u32()?),
                },
                4 => PhysicalOp::HashJoin {
                    left: GroupId(r.u32()?),
                    right: GroupId(r.u32()?),
                },
                5 => PhysicalOp::MergeJoin {
                    left: GroupId(r.u32()?),
                    right: GroupId(r.u32()?),
                    left_key: read_colref(&mut r)?,
                    right_key: read_colref(&mut r)?,
                },
                6 => PhysicalOp::HashAgg {
                    input: GroupId(r.u32()?),
                },
                7 => PhysicalOp::StreamAgg {
                    input: GroupId(r.u32()?),
                    group_order: read_sort_order(&mut r)?,
                },
                t => return Err(malformed(format!("unknown physical-op tag {t}"))),
            };
            let local_cost = r.f64()?;
            let out_card = r.f64()?;
            physical.push(PhysicalExpr::new(op, local_cost, out_card));
        }
        parts.push((key, logical, physical));
    }
    r.finish()?;
    Memo::from_parts(parts, root).map_err(malformed)
}

// ---------------------------------------------------------------------
// BEST (the optimizer's chosen plan)
// ---------------------------------------------------------------------

fn encode_best(w: &mut Writer, prepared: &PreparedQuery) {
    let (plan, cost) = prepared.best();
    w.f64(cost);
    let mut nodes = Vec::new();
    preorder(plan, &mut nodes);
    w.u32(nodes.len() as u32);
    for (id, nchildren) in nodes {
        w.u32(id.group.0);
        w.u32(id.index as u32);
        w.u32(nchildren as u32);
    }
}

fn preorder(node: &PlanNode, out: &mut Vec<(PhysId, usize)>) {
    out.push((node.id, node.children.len()));
    for child in &node.children {
        preorder(child, out);
    }
}

fn decode_best(bytes: &[u8]) -> Result<(PlanNode, f64), ArtifactError> {
    let mut r = Reader::new(bytes);
    let cost = r.f64()?;
    let count = r.u32()? as usize;
    if count == 0 {
        return Err(malformed("best plan must have at least one node"));
    }
    // Rebuild the preorder iteratively: recursion depth would otherwise
    // be attacker-controlled (a long chain of single-child nodes).
    let read_node = |r: &mut Reader<'_>| -> Result<(PlanNode, usize), ArtifactError> {
        let group = GroupId(r.u32()?);
        let index = r.u32()? as usize;
        let nchildren = r.u32()? as usize;
        Ok((
            PlanNode {
                id: PhysId { group, index },
                children: Vec::new(),
            },
            nchildren,
        ))
    };
    let mut consumed = 1usize;
    let (root, root_pending) = read_node(&mut r)?;
    let mut stack: Vec<(PlanNode, usize)> = vec![(root, root_pending)];
    let finished = loop {
        let &(_, pending) = stack.last().expect("stack starts non-empty");
        if pending == 0 {
            let (node, _) = stack.pop().expect("checked non-empty");
            match stack.last_mut() {
                Some((parent, parent_pending)) => {
                    parent.children.push(node);
                    *parent_pending -= 1;
                }
                None => break node,
            }
        } else {
            if consumed == count {
                return Err(malformed("best plan declares more children than nodes"));
            }
            consumed += 1;
            let (node, nchildren) = read_node(&mut r)?;
            stack.push((node, nchildren));
        }
    };
    if consumed != count {
        return Err(malformed("best plan has unreachable trailing nodes"));
    }
    r.finish()?;
    Ok((finished, cost))
}

#[cfg(test)]
mod tests {
    use super::*;
    use plansample_memo::Group;
    use plansample_optimizer::OptimizerConfig;
    use proptest::prelude::*;

    /// `sums` against its definition: the two kinds of sum computed apart.
    fn assert_sums_match_their_definition(bytes: &[u8], spans: &[(usize, usize)]) {
        let sections: Vec<SectionRef<'_>> = spans
            .iter()
            .map(|&(offset, len)| SectionRef {
                kind: SEC_META,
                offset: offset as u64,
                bytes: &bytes[offset..offset + len],
                sum: 0,
            })
            .collect();
        let (file, computed) = sums(bytes, &sections);
        assert_eq!(file, lane_sum(&bytes[HEADER_LEN..]), "file sum, {spans:?}");
        let apart: Vec<u64> = sections.iter().map(|s| lane_sum(s.bytes)).collect();
        assert_eq!(computed, apart, "section sums, {spans:?}");
    }

    /// Written images of three queries, each as written, and each with
    /// two foreign entries spliced into its table: one unaligned entry
    /// before the best plan, and one after it overlapping the memo. The
    /// images between them end sections on a short word, on a whole
    /// word inside a block, and the file short of a block.
    #[test]
    fn one_pass_sums_of_written_images_match_their_definition() {
        let (catalog, _) = plansample_catalog::tpch::catalog();
        let q10 = plansample_query::tpch::q10(&catalog);
        // With cross products, Q10's memo section is a whole number of
        // words short of a block.
        let q10 = PreparedQuery::prepare(&catalog, &q10, &OptimizerConfig::with_cross_products())
            .expect("q10 optimizes");
        let (mut short_word, mut whole_words, mut short_file) = (false, false, false);
        for prepared in [prepared(false), prepared(true), q10] {
            let bytes = encode(&prepared);
            let info = inspect(&bytes).expect("inspects");
            let spans: Vec<(usize, usize)> = info
                .sections
                .iter()
                .map(|s| (s.offset as usize, s.len as usize))
                .collect();
            assert!(spans.iter().all(|&(offset, _)| offset % BLOCK == 0));
            short_word |= spans.iter().any(|(_, len)| len % 8 != 0);
            whole_words |= spans
                .iter()
                .any(|(_, len)| len % 8 == 0 && len % BLOCK != 0);
            short_file |= bytes.len() % BLOCK != 0;
            assert_sums_match_their_definition(&bytes, &spans);

            let memo = spans[3];
            let mut foreign = spans.clone();
            foreign.insert(4, (memo.0 + 3, 100));
            foreign.push((memo.0 + BLOCK, memo.1 / 2));
            assert_sums_match_their_definition(&bytes, &foreign);
        }
        assert!(short_word && whole_words && short_file);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Random section tables over random bytes — in file order and
        /// aligned like the writer's, or unaligned, overlapping, out of
        /// order, zero-length, ending at EOF on a 1–31-byte tail: whether
        /// an entry is walked with the file's lanes or summed on its own,
        /// every sum is the one `lane_sum` gives.
        #[test]
        fn one_pass_sums_match_their_definition_on_any_table(
            bytes in proptest::collection::vec(any::<u8>(), HEADER_LEN..400),
            entries in proptest::collection::vec((0u8..5, any::<u16>(), any::<u16>()), 0..8),
        ) {
            let total = bytes.len();
            let mut spans = Vec::new();
            let mut prev_end = HEADER_LEN;
            for (shape, a, b) in entries {
                let (a, b) = (a as usize, b as usize);
                let offset = match shape {
                    // As the writer lays sections out: the next aligned
                    // offset, sometimes after a gap.
                    0 | 1 => prev_end.next_multiple_of(BLOCK) + BLOCK * (a % 3),
                    // Anywhere at all.
                    _ => a % (total + 1),
                }
                .min(total);
                let len = match shape {
                    0 | 2 => b % (total - offset + 1),
                    // To EOF, short tail included.
                    1 | 3 => total - offset,
                    _ => 0,
                };
                spans.push((offset, len));
                prev_end = offset + len;
            }
            assert_sums_match_their_definition(&bytes, &spans);
        }
    }

    fn prepared(sql_cross: bool) -> PreparedQuery {
        let (catalog, _) = plansample_catalog::tpch::catalog();
        let query = plansample_query::tpch::q5(&catalog);
        let config = if sql_cross {
            OptimizerConfig::with_cross_products()
        } else {
            OptimizerConfig::default()
        };
        PreparedQuery::prepare(&catalog, &query, &config).expect("q5 optimizes")
    }

    #[test]
    fn encode_decode_round_trips_bit_identically() {
        let original = prepared(false);
        let bytes = encode(&original);
        let loaded = decode(&bytes).expect("decodes");
        assert_eq!(loaded.total(), original.total());
        assert_eq!(loaded.best().1.to_bits(), original.best().1.to_bits());
        assert_eq!(
            format!("{:?}", loaded.best().0),
            format!("{:?}", original.best().0)
        );
        let rank = plansample_bignum::Nat::from(12345u64);
        assert_eq!(
            format!("{:?}", loaded.unrank(&rank).unwrap()),
            format!("{:?}", original.unrank(&rank).unwrap()),
        );
        // Re-encoding the loaded artifact reproduces the byte image.
        assert_eq!(encode(&loaded), bytes, "encode is deterministic");
    }

    /// The config section's second byte once named the explorer; the
    /// optimizer has one now. The byte stays (the format keeps it):
    /// it is written as 0, and anything else is a typed refusal.
    #[test]
    fn config_keeps_the_explorer_byte_and_refuses_any_but_zero() {
        for config in [
            OptimizerConfig::default(),
            OptimizerConfig::with_cross_products(),
        ] {
            let mut w = Writer::new();
            encode_config(&mut w, &config);
            let mut bytes = w.into_inner();
            assert_eq!(bytes[1], 0, "the explorer byte");
            let back = decode_config(&bytes).expect("decodes");
            assert_eq!(format!("{back:?}"), format!("{config:?}"));
            for tag in [1, 2, u8::MAX] {
                bytes[1] = tag;
                match decode_config(&bytes) {
                    Err(ArtifactError::Malformed { reason }) => {
                        assert!(reason.contains(&format!("explorer tag {tag}")), "{reason}")
                    }
                    other => panic!("tag {tag}: expected Malformed, got {other:?}"),
                }
            }
        }
    }

    /// A load scans the memo against the stored query, and the scan
    /// reads the query's relations as one `RelSet`'s bits (an aggregate
    /// group's scope is all of them): Q5's space written under a query
    /// of 65 relations is refused as the query is decoded, where the
    /// scan would panic.
    #[test]
    fn a_query_wider_than_a_rel_set_is_malformed() {
        let q5 = prepared(false);
        let mut query = q5.query().clone();
        query
            .relations
            .resize(RelSet::MAX_RELS + 1, query.relations[0].clone());
        let (space, (best, cost)) = (q5.space(), q5.best());
        let memo = Arc::new(q5.memo().clone());
        let (links, counts) = (space.links().clone(), space.counts().clone());
        let space = PlanSpace::from_parts(memo, Arc::new(query), links, counts).unwrap();
        let wide = PreparedQuery::from_parts(space, best.clone(), cost, q5.config().clone());
        match decode(&encode(&wide.unwrap())) {
            Err(ArtifactError::Malformed { reason }) => {
                assert!(reason.contains("65 relations"), "{reason}")
            }
            other => panic!("expected Malformed, got {:?}", other.map(|_| ())),
        }
    }

    /// Q5's artifact with its memo section written from `root` and
    /// `groups` — parts, so `Memo::from_parts`, which the load runs, may
    /// refuse them — the sections after it moved to stay aligned, and
    /// every sum resealed: only the memo's shape is left to refuse it.
    /// What the load says, as text.
    fn load_with_memo(root: GroupId, groups: &[Group]) -> String {
        let image = encode(&prepared(false));
        let info = inspect(&image).expect("inspects");
        let table_end = HEADER_LEN + info.sections.len() * ENTRY_LEN;
        let mut w = Writer::new();
        w.zeros(table_end);
        let rows: Vec<_> = (info.sections.iter())
            .map(|s| {
                section(&mut w, 0, |w| match s.name {
                    "memo" => encode_memo(w, root, groups.iter()),
                    _ => {
                        let at = s.offset as usize;
                        image[at..at + s.len as usize].iter().for_each(|&b| w.u8(b));
                    }
                })
            })
            .collect();
        let mut bytes = w.into_inner();
        bytes[..table_end].copy_from_slice(&image[..table_end]);
        for (i, (_, offset, len)) in rows.into_iter().enumerate() {
            let e = HEADER_LEN + i * ENTRY_LEN;
            let sum = lane_sum(&bytes[offset..offset + len]);
            bytes[e + 8..e + 16].copy_from_slice(&(offset as u64).to_le_bytes());
            bytes[e + 16..e + 24].copy_from_slice(&(len as u64).to_le_bytes());
            bytes[e + 24..e + 32].copy_from_slice(&sum.to_le_bytes());
        }
        let file_sum = lane_sum(&bytes[HEADER_LEN..]);
        bytes[16..24].copy_from_slice(&file_sum.to_le_bytes());
        match decode(&bytes) {
            Err(ArtifactError::Malformed { reason }) => reason,
            other => panic!("expected Malformed, got {:?}", other.map(|_| ())),
        }
    }

    /// [`load_with_memo`] of Q5's memo with every operator `rewrite`n.
    fn load_rewritten(rewrite: impl Fn(GroupId, &mut PhysicalOp)) -> String {
        let q5 = prepared(false);
        let memo = q5.memo();
        let groups: Vec<Group> = (memo.groups().cloned())
            .map(|mut g| {
                g.physical.iter_mut().for_each(|e| rewrite(g.id, &mut e.op));
                g
            })
            .collect();
        load_with_memo(memo.root(), &groups)
    }

    /// A stored memo whose plan graph is cyclic — the root's hash
    /// aggregate reading its own group — behind right sums: refused by
    /// `Memo::from_parts` as an aggregate over no relation group, before
    /// any scan could meet the cycle.
    #[test]
    fn a_stored_memo_with_a_cycle_is_malformed() {
        let root = prepared(false).memo().root();
        let reason = load_rewritten(|group, op| {
            if let PhysicalOp::HashAgg { input } = op {
                if group == root {
                    *input = root;
                }
            }
        });
        assert!(
            reason.contains("an aggregate outside the aggregate group or not over relations"),
            "{reason}"
        );
    }

    /// A stored memo whose joins read one group in both slots — each hash
    /// join's right input made its left — behind right sums: no optimizer
    /// makes one, and a chain of them would describe a plan of 2¹⁰⁰
    /// operators over 100 groups. Refused by `Memo::from_parts`.
    #[test]
    fn a_stored_join_reading_one_group_twice_is_malformed() {
        let reason = load_rewritten(|_, op| {
            if let PhysicalOp::HashJoin { left, right } = op {
                *right = *left;
            }
        });
        assert!(
            reason.contains("a join whose inputs do not split its relation set in two"),
            "{reason}"
        );
    }

    /// A chain of 1 000 groups, each one's join reading a one-scan group
    /// and the group below, stored as a plan space's memo: the tree API
    /// recurses once a level, and a chain like it 10⁵ deep overflowed a
    /// thread's stack. No chain over 64 relations is that deep with every
    /// join splitting its group's relation set, so the load refuses it
    /// at its first join.
    #[test]
    fn a_stored_chain_deeper_than_its_relations_is_malformed() {
        const DEPTH: u64 = 1_000;
        let expr = |op| PhysicalExpr::new(op, 1.0, 1.0);
        let scan = |rel| vec![expr(PhysicalOp::TableScan { rel: RelId(rel) })];
        let group = |mask: u64, physical| Group {
            id: GroupId(mask as u32 - 1),
            key: GroupKey::Rels(relset_from_mask(mask)),
            logical: vec![],
            physical,
        };
        let mut groups = vec![group(1, scan(0))];
        groups.extend((2..DEPTH + 2).map(|mask| {
            let join = PhysicalOp::HashJoin {
                left: GroupId(mask as u32),
                right: GroupId(0),
            };
            group(mask, vec![expr(join)])
        }));
        groups.last_mut().expect("a chain").physical = scan(1);
        let reason = load_with_memo(GroupId(1), &groups);
        assert!(
            reason.contains("group 1 holds a join whose inputs do not split"),
            "{reason}"
        );
    }

    #[test]
    fn header_fields_are_where_the_spec_says() {
        let bytes = encode(&prepared(false));
        assert_eq!(&bytes[0..8], &MAGIC);
        assert_eq!(
            u32::from_le_bytes(bytes[8..12].try_into().unwrap()),
            FORMAT_VERSION
        );
        let count = u32::from_le_bytes(bytes[24..28].try_into().unwrap());
        assert_eq!(count, 5, "five sections");
        // Every section offset is 32-aligned: one block of the sums.
        for i in 0..count as usize {
            let e = HEADER_LEN + i * ENTRY_LEN;
            let offset = u64::from_le_bytes(bytes[e + 8..e + 16].try_into().unwrap());
            assert_eq!(
                offset % BLOCK as u64,
                0,
                "section {i} misaligned at {offset}"
            );
        }
    }

    #[test]
    fn inspect_reports_the_section_breakdown() {
        let bytes = encode(&prepared(false));
        let info = inspect(&bytes).expect("inspects");
        assert_eq!(info.version, FORMAT_VERSION);
        assert_eq!(info.total_bytes, bytes.len() as u64);
        let names: Vec<&str> = info.sections.iter().map(|s| s.name).collect();
        assert_eq!(names, ["meta", "query", "config", "memo", "best"]);
        let sum: u64 = info.sections.iter().map(|s| s.len).sum();
        assert!(sum <= info.total_bytes);
        assert!(!info.fingerprint.is_empty());
    }

    #[test]
    fn unknown_trailing_section_is_tolerated() {
        // Forward compatibility: a reader may skip section kinds it does
        // not know. Append a fake section and fix up the sums.
        let mut bytes = encode(&prepared(false));
        let count = u32::from_le_bytes(bytes[24..28].try_into().unwrap()) as usize;
        // Move payloads is complex; instead append the new section's
        // payload at EOF and splice a fresh table entry before the first
        // payload... simpler: rebuild with an extra zero-length section
        // whose offset points at EOF.
        let table_end = HEADER_LEN + count * ENTRY_LEN;
        let mut entry = Vec::new();
        entry.extend_from_slice(&999u32.to_le_bytes());
        entry.extend_from_slice(&0u32.to_le_bytes());
        entry.extend_from_slice(&((bytes.len() + ENTRY_LEN) as u64).to_le_bytes());
        entry.extend_from_slice(&0u64.to_le_bytes());
        entry.extend_from_slice(&lane_sum(&[]).to_le_bytes());
        let mut rebuilt = Vec::new();
        rebuilt.extend_from_slice(&bytes[..table_end]);
        rebuilt.extend_from_slice(&entry);
        rebuilt.extend_from_slice(&bytes[table_end..]);
        rebuilt[24..28].copy_from_slice(&((count + 1) as u32).to_le_bytes());
        // Old offsets all moved by ENTRY_LEN; fix the original entries.
        for i in 0..count {
            let e = HEADER_LEN + i * ENTRY_LEN;
            let off = u64::from_le_bytes(rebuilt[e + 8..e + 16].try_into().unwrap());
            rebuilt[e + 8..e + 16].copy_from_slice(&(off + ENTRY_LEN as u64).to_le_bytes());
        }
        let file_sum = lane_sum(&rebuilt[HEADER_LEN..]);
        rebuilt[16..24].copy_from_slice(&file_sum.to_le_bytes());
        bytes = rebuilt;
        let loaded = decode(&bytes).expect("unknown section tolerated");
        assert_eq!(loaded.total(), prepared(false).total());
    }
}
