//! Versioned on-disk checkpoints for long reconstructions.
//!
//! A checkpoint persists the per-node parent-search results completed so
//! far, so an interrupted `Tends` run can resume without redoing them —
//! and, since v2, the *sufficient statistics* an appended batch of
//! cascades needs to re-estimate incrementally. The file is a JSONL delta
//! log in the deterministic JSON dialect of `diffnet-observe`:
//!
//! ```text
//! {"format":"diffnet-checkpoint","version":3,"fingerprint":"9f86…","revision":1,"stats":{…}}
//! {"node":0,"parents":[3],"score_bits":"c011…","candidates":[3,7],"evaluations":4,…}
//! {"node":2,…}
//! ```
//!
//! Line 1 is the **header**: format tag, schema version, run fingerprint,
//! the sufficient-statistics revision, and (optionally) the pairwise
//! sufficient statistics themselves ([`PairStats`]: `β`, per-column ones
//! counts, upper-triangle `n11` counts — serialized as space-separated
//! decimal strings — plus their FNV-1a `digest`, re-verified on every
//! load so edited statistics surface as a typed
//! [`CheckpointError::Mismatch`] instead of silently shifting the MI
//! pipeline an append folds into). Every further line is one completed
//! node.
//!
//! The log shape is what makes checkpointing cheap: the header is written
//! once, atomically (temp sibling + rename), and each flush *appends* the
//! newly finished nodes instead of rewriting the world. A crash can only
//! tear the final appended line, so [`Checkpoint::load`] tolerates a parse
//! failure on the last non-empty line (the torn tail is dropped); a torn
//! *header* still fails with a typed [`CheckpointError::Parse`]. Duplicate
//! node lines are legal and resolve last-wins, so a delta log compacts to
//! the same checkpoint [`Checkpoint::save`] would write fresh.
//!
//! Three properties make resume *bit-identical* to an uninterrupted run:
//!
//! * each node's search result is a pure function of its id (given the
//!   status columns, τ and candidate sets), so skipping completed nodes
//!   cannot change the remaining ones;
//! * scores are stored as the hex of their IEEE-754 bits (`score_bits`),
//!   not as decimal text, so restoring cannot round;
//! * the per-node effort counters (evaluations, cache hits, workspace
//!   refinements, …) are stored alongside the parents, so summed
//!   run-report counters include the work the *original* run did.
//!
//! Each entry also carries the node's ranked candidate list, which the
//! search driver compares against the freshly computed one before it
//! restores the entry. An append needs no per-node state: it folds the
//! appended columns into the header's statistics and searches every node
//! over the combined columns, which is a fresh combined run by
//! construction. Entry lines written by older builds may still carry a
//! `"table"` field; it is ignored on load.
//!
//! The `fingerprint` hashes everything the stored results depend on —
//! matrix dimensions, τ, the search configuration, the statistics
//! revision, and every candidate list. Resuming against different inputs,
//! config, or a stale pre-append revision is a typed
//! [`CheckpointError::Mismatch`], not silent corruption. `version` gates
//! the schema itself; unknown versions are refused.

use crate::imi::PairStats;
use crate::score::ScoreCacheStats;
use crate::search::{NodeSearchResult, SearchStats};
use diffnet_graph::NodeId;
use diffnet_observe::{Json, ParseError};
use diffnet_simulate::WorkspaceStats;
use std::collections::BTreeMap;
use std::fmt;
use std::io;
use std::path::Path;

/// Schema identifier in the `format` field.
pub const FORMAT: &str = "diffnet-checkpoint";
/// Current schema version.
pub const VERSION: u64 = 3;

/// Errors from checkpoint load/save.
#[derive(Debug)]
pub enum CheckpointError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The file is not valid JSON; carries the byte offset of the damage.
    Parse(ParseError),
    /// Valid JSON that is not a checkpoint we can use (wrong format tag,
    /// unknown version, missing or ill-typed field).
    Format(String),
    /// The checkpoint was written for different inputs or configuration.
    Mismatch {
        /// Fingerprint of the current run.
        expected: String,
        /// Fingerprint stored in the file.
        found: String,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CheckpointError::Parse(e) => write!(f, "corrupt checkpoint: {e}"),
            CheckpointError::Format(msg) => write!(f, "invalid checkpoint: {msg}"),
            CheckpointError::Mismatch { expected, found } => write!(
                f,
                "checkpoint fingerprint {found} does not match this run ({expected}): \
                 it was written for different inputs or configuration, or its \
                 contents were edited since"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

impl From<ParseError> for CheckpointError {
    fn from(e: ParseError) -> Self {
        CheckpointError::Parse(e)
    }
}

/// One completed node's search outcome, as persisted.
#[derive(Clone, Debug, PartialEq)]
pub struct CheckpointEntry {
    /// The selected parent set, sorted.
    pub parents: Vec<NodeId>,
    /// Local score of the selection (restored bit-exactly).
    pub score: f64,
    /// The ranked candidate list the search ran over. A resumed run
    /// restores this entry only if its freshly computed list is identical.
    pub candidates: Vec<NodeId>,
    /// Search-effort counters of the original search.
    pub stats: SearchStats,
    /// Score-cache counters of the original search.
    pub cache_stats: ScoreCacheStats,
    /// Counting-workspace activity the original search performed.
    pub ws: WorkspaceStats,
}

impl CheckpointEntry {
    /// Builds an entry from a finished node search and the workspace
    /// activity it performed.
    pub fn from_result(res: &NodeSearchResult, ws: WorkspaceStats) -> CheckpointEntry {
        CheckpointEntry {
            parents: res.parents.clone(),
            score: res.score,
            candidates: res.candidates.clone(),
            stats: res.stats,
            cache_stats: res.cache_stats,
            ws,
        }
    }

    /// Reconstitutes the [`NodeSearchResult`] this entry was taken from.
    pub fn into_result(self) -> NodeSearchResult {
        NodeSearchResult {
            parents: self.parents,
            score: self.score,
            candidates: self.candidates,
            stats: self.stats,
            cache_stats: self.cache_stats,
        }
    }
}

/// An in-memory checkpoint: the completed nodes plus the fingerprint and
/// sufficient statistics of the run they belong to.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Checkpoint {
    /// Fingerprint of the producing run (see [`fingerprint`]).
    pub fingerprint: u64,
    /// Sufficient-statistics revision: how many append batches have been
    /// folded into `stats` (0 for a never-appended run). Serve bumps a
    /// job's revision per applied batch and the fingerprint covers it, so
    /// a resume against a stale pre-append checkpoint is a typed mismatch.
    pub revision: u64,
    /// Pairwise sufficient statistics of the producing matrix, when the
    /// run captured them (dense instrumented runs do; streamed runs
    /// don't).
    pub stats: Option<PairStats>,
    /// Completed nodes, keyed by id.
    pub entries: BTreeMap<NodeId, CheckpointEntry>,
}

impl Checkpoint {
    /// An empty checkpoint for the given run fingerprint and revision.
    pub fn new(fingerprint: u64, revision: u64) -> Checkpoint {
        Checkpoint {
            fingerprint,
            revision,
            stats: None,
            entries: BTreeMap::new(),
        }
    }

    /// The header line: format, version, fingerprint, revision, and the
    /// sufficient statistics. Always a single line of JSON.
    ///
    /// Emitted by hand, byte-for-byte what the generic
    /// [`Json::to_compact`] tree would produce (a test pins this): the
    /// statistics strings run to megabytes at `n(n−1)/2` scale and the
    /// tree construction dominated save time.
    pub fn header_line(&self) -> String {
        let mut out = String::with_capacity(
            64 + self
                .stats
                .as_ref()
                .map_or(0, |s| 8 * (s.ones().len() + s.n11().len())),
        );
        out.push_str("{\"format\":\"");
        out.push_str(FORMAT);
        out.push_str("\",\"version\":");
        push_u64(&mut out, VERSION);
        out.push_str(",\"fingerprint\":\"");
        push_hex16(&mut out, self.fingerprint);
        out.push_str("\",\"revision\":");
        push_u64(&mut out, self.revision);
        if let Some(stats) = &self.stats {
            out.push_str(",\"stats\":{\"beta\":");
            push_u64(&mut out, stats.num_processes());
            out.push_str(",\"ones\":\"");
            push_u64s(&mut out, stats.ones());
            out.push_str("\",\"n11\":\"");
            push_u64s(&mut out, stats.n11());
            out.push_str("\",\"digest\":\"");
            push_hex16(&mut out, stats.digest());
            out.push_str("\"}");
        }
        out.push('}');
        out
    }

    /// One node's entry line (scores as IEEE-754 bit strings). Always a
    /// single line of JSON — the unit the async delta writer appends.
    /// Hand-emitted like [`header_line`](Self::header_line), and pinned
    /// byte-for-byte to the generic JSON form by a test.
    pub fn entry_line(id: NodeId, e: &CheckpointEntry) -> String {
        let mut out = String::with_capacity(256);
        out.push_str("{\"node\":");
        push_u64(&mut out, u64::from(id));
        out.push_str(",\"parents\":[");
        push_ids(&mut out, &e.parents);
        out.push_str("],\"score_bits\":\"");
        push_hex16(&mut out, e.score.to_bits());
        out.push_str("\",\"candidates\":[");
        push_ids(&mut out, &e.candidates);
        out.push_str("],\"evaluations\":");
        push_u64(&mut out, e.stats.evaluations as u64);
        out.push_str(",\"bound_rejections\":");
        push_u64(&mut out, e.stats.bound_rejections as u64);
        out.push_str(",\"greedy_rounds\":");
        push_u64(&mut out, e.stats.greedy_rounds as u64);
        out.push_str(",\"cache_hits\":");
        push_u64(&mut out, e.cache_stats.hits);
        out.push_str(",\"cache_misses\":");
        push_u64(&mut out, e.cache_stats.misses);
        out.push_str(",\"ws_refinements\":");
        push_u64(&mut out, e.ws.refinements);
        out.push_str(",\"ws_rebases\":");
        push_u64(&mut out, e.ws.rebases);
        out.push('}');
        out
    }

    /// The full compacted serialization: header line followed by every
    /// entry in ascending node order.
    pub fn to_text(&self) -> String {
        let mut out = self.header_line();
        out.push('\n');
        for (&id, e) in &self.entries {
            out.push_str(&Self::entry_line(id, e));
            out.push('\n');
        }
        out
    }

    /// Parses the serialized form back (exposed for tests and tools; the
    /// production path is [`load`](Self::load)). `tolerate_torn_tail`
    /// drops a final line that fails to parse — the signature of a crash
    /// mid-append — instead of failing the load.
    pub fn from_text(text: &str, tolerate_torn_tail: bool) -> Result<Checkpoint, CheckpointError> {
        let mut lines = text
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty())
            .peekable();
        let header_line = lines
            .next()
            .ok_or_else(|| CheckpointError::Format("empty checkpoint file".into()))?;
        // A torn header is unrecoverable: it is written atomically, so
        // damage here means real corruption, not a crashed append.
        let header = diffnet_observe::parse_json(header_line)?;
        let mut ck = parse_header(&header)?;
        while let Some(line) = lines.next() {
            let is_last = lines.peek().is_none();
            let value = match diffnet_observe::parse_json(line) {
                Ok(v) => v,
                Err(_) if is_last && tolerate_torn_tail => break,
                Err(e) => return Err(e.into()),
            };
            let (id, entry) = parse_entry(&value)?;
            // Last-wins: a delta log may re-record a node; the newest
            // append is authoritative.
            ck.entries.insert(id, entry);
        }
        Ok(ck)
    }

    /// Writes the compacted checkpoint atomically (temp sibling + rename),
    /// so a crash mid-write leaves the previous checkpoint intact.
    pub fn save<P: AsRef<Path>>(&self, path: P) -> Result<(), CheckpointError> {
        let text = self.to_text();
        diffnet_graph::io::save_atomic(path, |w| w.write_all(text.as_bytes()))?;
        Ok(())
    }

    /// Loads and validates a checkpoint file, compacting any delta log:
    /// duplicate node records resolve last-wins and a torn final line
    /// (crash mid-append) is dropped.
    pub fn load<P: AsRef<Path>>(path: P) -> Result<Checkpoint, CheckpointError> {
        let text = std::fs::read_to_string(path)?;
        Checkpoint::from_text(&text, true)
    }
}

/// Appends `v` in decimal — digits straight into the buffer; a
/// per-value `to_string` allocation at bulk scale dominates saves.
/// Checkpoint numbers are overwhelmingly process counts (≤ β) and node
/// ids, so one- and two-digit values get a branch-only fast path.
fn push_u64(out: &mut String, v: u64) {
    if v < 10 {
        out.push((b'0' + v as u8) as char);
        return;
    }
    if v < 100 {
        let pair = [b'0' + (v / 10) as u8, b'0' + (v % 10) as u8];
        out.push_str(std::str::from_utf8(&pair).expect("ascii"));
        return;
    }
    if v < 1000 {
        let trio = [
            b'0' + (v / 100) as u8,
            b'0' + (v / 10 % 10) as u8,
            b'0' + (v % 10) as u8,
        ];
        out.push_str(std::str::from_utf8(&trio).expect("ascii"));
        return;
    }
    let mut digits = [0u8; 20];
    let mut pos = digits.len();
    let mut v = v;
    loop {
        pos -= 1;
        digits[pos] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    // Only ASCII digits.
    out.push_str(std::str::from_utf8(&digits[pos..]).expect("ascii"));
}

/// Appends `v` as 16 zero-padded lowercase hex digits.
fn push_hex16(out: &mut String, v: u64) {
    let mut digits = [0u8; 16];
    for (i, d) in digits.iter_mut().enumerate() {
        let nibble = ((v >> (60 - 4 * i)) & 0xf) as u8;
        *d = if nibble < 10 {
            b'0' + nibble
        } else {
            b'a' + nibble - 10
        };
    }
    out.push_str(std::str::from_utf8(&digits).expect("ascii"));
}

/// Appends node ids as comma-separated decimals (JSON array body).
fn push_ids(out: &mut String, ids: &[NodeId]) {
    for (i, &id) in ids.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_u64(out, u64::from(id));
    }
}

/// Appends bulk `u64` counts as a space-separated decimal run — an order
/// of magnitude denser to parse than a JSON array at `n(n−1)/2` scale.
/// Digits go through a manual cursor over one preallocated byte buffer:
/// at half a million counts the per-value capacity checks and `push_str`
/// calls of the scalar path dominate the serialization cost.
fn push_u64s(out: &mut String, values: &[u64]) {
    // Worst case 20 digits + separator per value.
    let mut buf = vec![0u8; values.len() * 21];
    let mut pos = 0usize;
    for (i, &v) in values.iter().enumerate() {
        if i > 0 {
            buf[pos] = b' ';
            pos += 1;
        }
        if v < 10 {
            buf[pos] = b'0' + v as u8;
            pos += 1;
        } else if v < 100 {
            buf[pos] = b'0' + (v / 10) as u8;
            buf[pos + 1] = b'0' + (v % 10) as u8;
            pos += 2;
        } else if v < 1000 {
            buf[pos] = b'0' + (v / 100) as u8;
            buf[pos + 1] = b'0' + (v / 10 % 10) as u8;
            buf[pos + 2] = b'0' + (v % 10) as u8;
            pos += 3;
        } else {
            let mut digits = [0u8; 20];
            let mut end = digits.len();
            let mut v = v;
            loop {
                end -= 1;
                digits[end] = b'0' + (v % 10) as u8;
                v /= 10;
                if v == 0 {
                    break;
                }
            }
            let len = digits.len() - end;
            buf[pos..pos + len].copy_from_slice(&digits[end..]);
            pos += len;
        }
    }
    // Only ASCII digits and spaces.
    out.push_str(std::str::from_utf8(&buf[..pos]).expect("ascii"));
}

/// Inverse of [`push_u64s`]: a single pass over the raw bytes, since
/// `str::parse` per token is measurable at half a million counts.
fn parse_u64s(text: &str, what: &str) -> Result<Vec<u64>, CheckpointError> {
    let mut out = Vec::with_capacity(text.len() / 2 + 1);
    let mut cur: u64 = 0;
    let mut in_token = false;
    for (i, &b) in text.as_bytes().iter().enumerate() {
        match b {
            b'0'..=b'9' => {
                cur = cur
                    .checked_mul(10)
                    .and_then(|c| c.checked_add(u64::from(b - b'0')))
                    .ok_or_else(|| {
                        CheckpointError::Format(format!("{what} count overflows at byte {i}"))
                    })?;
                in_token = true;
            }
            b' ' | b'\t' | b'\n' | b'\r' => {
                if in_token {
                    out.push(cur);
                    cur = 0;
                    in_token = false;
                }
            }
            _ => {
                return Err(CheckpointError::Format(format!(
                    "bad {what} count: unexpected byte {:?}",
                    char::from(b)
                )));
            }
        }
    }
    if in_token {
        out.push(cur);
    }
    Ok(out)
}

fn parse_header(root: &Json) -> Result<Checkpoint, CheckpointError> {
    let format = root
        .get("format")
        .and_then(Json::as_str)
        .ok_or_else(|| CheckpointError::Format("missing \"format\" tag".into()))?;
    if format != FORMAT {
        return Err(CheckpointError::Format(format!(
            "format {format:?}, expected {FORMAT:?}"
        )));
    }
    let version = root
        .get("version")
        .and_then(Json::as_f64)
        .ok_or_else(|| CheckpointError::Format("missing \"version\"".into()))?;
    if version != VERSION as f64 {
        return Err(CheckpointError::Format(format!(
            "unknown version {version}, this build reads version {VERSION}"
        )));
    }
    let fingerprint = root
        .get("fingerprint")
        .and_then(Json::as_str)
        .and_then(|s| u64::from_str_radix(s, 16).ok())
        .ok_or_else(|| CheckpointError::Format("missing or bad \"fingerprint\"".into()))?;
    let revision = root
        .get("revision")
        .and_then(Json::as_f64)
        .filter(|v| *v >= 0.0 && v.fract() == 0.0)
        .map(|v| v as u64)
        .ok_or_else(|| CheckpointError::Format("missing or bad \"revision\"".into()))?;
    let stats = match root.get("stats") {
        None => None,
        Some(s) => {
            let beta = s
                .get("beta")
                .and_then(Json::as_f64)
                .filter(|v| *v >= 0.0 && v.fract() == 0.0)
                .map(|v| v as u64)
                .ok_or_else(|| CheckpointError::Format("stats: missing or bad \"beta\"".into()))?;
            let ones = s
                .get("ones")
                .and_then(Json::as_str)
                .ok_or_else(|| CheckpointError::Format("stats: missing \"ones\"".into()))?;
            let n11 = s
                .get("n11")
                .and_then(Json::as_str)
                .ok_or_else(|| CheckpointError::Format("stats: missing \"n11\"".into()))?;
            let digest = s
                .get("digest")
                .and_then(Json::as_str)
                .and_then(|d| u64::from_str_radix(d, 16).ok())
                .ok_or_else(|| {
                    CheckpointError::Format("stats: missing or bad \"digest\"".into())
                })?;
            let stats =
                PairStats::from_parts(beta, parse_u64s(ones, "ones")?, parse_u64s(n11, "n11")?)
                    .map_err(CheckpointError::Format)?;
            // Consistent-but-different counts would silently shift the MI
            // pipeline an append folds into, so the digest written by
            // the producing run is re-verified on every load.
            if stats.digest() != digest {
                return Err(CheckpointError::Mismatch {
                    expected: format!("{:016x}", stats.digest()),
                    found: format!("{digest:016x}"),
                });
            }
            Some(stats)
        }
    };
    Ok(Checkpoint {
        fingerprint,
        revision,
        stats,
        entries: BTreeMap::new(),
    })
}

fn entry_u64(value: &Json, field: &str) -> Result<u64, CheckpointError> {
    value
        .get(field)
        .and_then(Json::as_f64)
        .filter(|v| *v >= 0.0 && v.fract() == 0.0)
        .map(|v| v as u64)
        .ok_or_else(|| CheckpointError::Format(format!("entry: missing or bad field {field:?}")))
}

fn parse_id_list(value: &Json, field: &str) -> Result<Vec<NodeId>, CheckpointError> {
    value
        .get(field)
        .and_then(Json::as_arr)
        .ok_or_else(|| CheckpointError::Format(format!("entry: missing {field:?}")))?
        .iter()
        .map(|p| {
            p.as_f64()
                .filter(|v| *v >= 0.0 && v.fract() == 0.0)
                .map(|v| v as NodeId)
                .ok_or_else(|| CheckpointError::Format(format!("entry: bad id in {field:?}")))
        })
        .collect()
}

fn parse_entry(value: &Json) -> Result<(NodeId, CheckpointEntry), CheckpointError> {
    let id = entry_u64(value, "node")? as NodeId;
    let parents = parse_id_list(value, "parents")?;
    let candidates = parse_id_list(value, "candidates")?;
    let score = value
        .get("score_bits")
        .and_then(Json::as_str)
        .and_then(|s| u64::from_str_radix(s, 16).ok())
        .map(f64::from_bits)
        .ok_or_else(|| {
            CheckpointError::Format(format!("node {id}: missing or bad \"score_bits\""))
        })?;
    Ok((
        id,
        CheckpointEntry {
            parents,
            score,
            candidates,
            stats: SearchStats {
                evaluations: entry_u64(value, "evaluations")? as usize,
                bound_rejections: entry_u64(value, "bound_rejections")? as usize,
                greedy_rounds: entry_u64(value, "greedy_rounds")? as usize,
            },
            cache_stats: ScoreCacheStats {
                hits: entry_u64(value, "cache_hits")?,
                misses: entry_u64(value, "cache_misses")?,
            },
            ws: WorkspaceStats {
                refinements: entry_u64(value, "ws_refinements")?,
                rebases: entry_u64(value, "ws_rebases")?,
            },
        },
    ))
}

/// FNV-1a hash of everything the stored per-node results depend on: the
/// status-matrix dimensions, the applied τ (bit-exact), a signature of the
/// search-relevant configuration, the sufficient-statistics revision, and
/// every candidate list. Two runs share a fingerprint iff their per-node
/// searches are interchangeable — in particular, a pre-append checkpoint
/// (older revision) never matches the post-append run even when τ and the
/// candidate sets happen to survive the append unchanged.
pub fn fingerprint(
    num_processes: usize,
    num_nodes: usize,
    tau: f64,
    config_signature: &str,
    revision: u64,
    candidates: &[Vec<NodeId>],
) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(PRIME);
        }
    };
    eat(&VERSION.to_le_bytes());
    eat(&(num_processes as u64).to_le_bytes());
    eat(&(num_nodes as u64).to_le_bytes());
    eat(&tau.to_bits().to_le_bytes());
    eat(config_signature.as_bytes());
    eat(&revision.to_le_bytes());
    for cands in candidates {
        eat(&(cands.len() as u64).to_le_bytes());
        for &c in cands {
            eat(&u64::from(c).to_le_bytes());
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Checkpoint {
        let mut ck = Checkpoint::new(0xdead_beef_0042_cafe, 3);
        ck.stats = Some(PairStats::from_parts(10, vec![4, 0, 10], vec![0, 4, 0]).unwrap());
        ck.entries.insert(
            0,
            CheckpointEntry {
                parents: vec![2, 5],
                score: -12.625,
                candidates: vec![5, 2],
                stats: SearchStats {
                    evaluations: 10,
                    bound_rejections: 3,
                    greedy_rounds: 2,
                },
                cache_stats: ScoreCacheStats { hits: 4, misses: 6 },
                ws: WorkspaceStats {
                    refinements: 6,
                    rebases: 1,
                },
            },
        );
        ck.entries.insert(
            7,
            CheckpointEntry {
                parents: vec![],
                // A score whose decimal rendering would round.
                score: f64::from_bits(0xbfe5_5555_5555_5555),
                candidates: vec![],
                stats: SearchStats::default(),
                cache_stats: ScoreCacheStats::default(),
                ws: WorkspaceStats::default(),
            },
        );
        ck
    }

    #[test]
    fn text_round_trip_is_bit_exact() {
        let ck = sample();
        let back = Checkpoint::from_text(&ck.to_text(), false).expect("parse back");
        assert_eq!(back, ck);
        let b0 = back.entries[&7].score.to_bits();
        assert_eq!(b0, 0xbfe5_5555_5555_5555, "score must restore bit-exactly");
        assert_eq!(back.revision, 3);
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("diffnet_checkpoint_test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("ck.json");
        let ck = sample();
        ck.save(&path).expect("save");
        assert_eq!(Checkpoint::load(&path).expect("load"), ck);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_header_is_a_parse_error_with_offset() {
        let text = sample().to_text();
        let cut = &text[..sample().header_line().len() / 2];
        let err = Checkpoint::from_text(cut, true).expect_err("must not parse");
        assert!(matches!(err, CheckpointError::Parse(_)), "{err:?}");
        assert!(
            err.to_string().contains("byte"),
            "offset missing from {err}"
        );
    }

    #[test]
    fn torn_tail_is_dropped_and_delta_entries_dedup_last_wins() {
        let ck = sample();
        let mut text = ck.to_text();
        // A delta append re-records node 0 with a different parent set…
        let mut newer = ck.entries[&0].clone();
        newer.parents = vec![5];
        text.push_str(&Checkpoint::entry_line(0, &newer));
        text.push('\n');
        // …then the process dies mid-way through the next record.
        let torn = Checkpoint::entry_line(7, &ck.entries[&7]);
        text.push_str(&torn[..torn.len() / 2]);

        let back = Checkpoint::from_text(&text, true).expect("torn tail is tolerated");
        assert_eq!(back.entries[&0].parents, vec![5], "last record wins");
        assert_eq!(back.entries.len(), 2);
        // Without tolerance the same text is a parse error.
        assert!(matches!(
            Checkpoint::from_text(&text, false),
            Err(CheckpointError::Parse(_))
        ));
        // A torn line in the *middle* is never tolerated.
        let mid_torn = format!(
            "{}\n{}\n{}\n",
            ck.header_line(),
            &torn[..torn.len() / 2],
            Checkpoint::entry_line(0, &ck.entries[&0]),
        );
        assert!(matches!(
            Checkpoint::from_text(&mid_torn, true),
            Err(CheckpointError::Parse(_))
        ));
    }

    #[test]
    fn wrong_format_and_version_are_rejected() {
        let text = sample()
            .to_text()
            .replace("diffnet-checkpoint", "something-else");
        assert!(matches!(
            Checkpoint::from_text(&text, false),
            Err(CheckpointError::Format(_))
        ));

        let text = sample()
            .to_text()
            .replace("\"version\":3", "\"version\":999");
        let err = Checkpoint::from_text(&text, false).expect_err("unknown version");
        assert!(err.to_string().contains("version"));
    }

    #[test]
    fn missing_fields_are_typed_errors() {
        let text = sample().to_text().replace("score_bits", "sb");
        let err = Checkpoint::from_text(&text, false).expect_err("missing score");
        assert!(err.to_string().contains("score_bits"), "{err}");

        let text = sample().to_text().replace("\"revision\":3,", "");
        let err = Checkpoint::from_text(&text, false).expect_err("missing revision");
        assert!(err.to_string().contains("revision"), "{err}");
    }

    #[test]
    fn stats_survive_the_header_round_trip() {
        let ck = sample();
        let back = Checkpoint::from_text(&ck.to_text(), false).unwrap();
        let stats = back.stats.expect("stats restored");
        assert_eq!(stats.num_processes(), 10);
        assert_eq!(stats.ones(), &[4, 0, 10]);
        assert_eq!(stats.n11(), &[0, 4, 0]);
        // A header without stats is still a valid checkpoint.
        let mut bare = sample();
        bare.stats = None;
        let back = Checkpoint::from_text(&bare.to_text(), false).unwrap();
        assert!(back.stats.is_none());
    }

    #[test]
    fn hand_emitted_lines_match_the_generic_json_form() {
        // The hand-rolled writers exist purely for speed; the bytes must
        // stay exactly what building a Json tree and compacting it gives.
        let ck = sample();
        let stats = ck.stats.as_ref().unwrap();
        let mut root = Json::object();
        root.push("format", FORMAT);
        root.push("version", VERSION);
        root.push("fingerprint", format!("{:016x}", ck.fingerprint));
        root.push("revision", ck.revision);
        let mut s = Json::object();
        s.push("beta", stats.num_processes());
        s.push("ones", "4 0 10");
        s.push("n11", "0 4 0");
        s.push("digest", format!("{:016x}", stats.digest()));
        root.push("stats", s);
        assert_eq!(ck.header_line(), root.to_compact());

        for (&id, e) in &ck.entries {
            let mut entry = Json::object();
            entry.push("node", u64::from(id));
            entry.push(
                "parents",
                Json::Arr(
                    e.parents
                        .iter()
                        .map(|&p| Json::from(u64::from(p)))
                        .collect(),
                ),
            );
            entry.push("score_bits", format!("{:016x}", e.score.to_bits()));
            entry.push(
                "candidates",
                Json::Arr(
                    e.candidates
                        .iter()
                        .map(|&c| Json::from(u64::from(c)))
                        .collect(),
                ),
            );
            entry.push("evaluations", e.stats.evaluations);
            entry.push("bound_rejections", e.stats.bound_rejections);
            entry.push("greedy_rounds", e.stats.greedy_rounds);
            entry.push("cache_hits", e.cache_stats.hits);
            entry.push("cache_misses", e.cache_stats.misses);
            entry.push("ws_refinements", e.ws.refinements);
            entry.push("ws_rebases", e.ws.rebases);
            assert_eq!(Checkpoint::entry_line(id, e), entry.to_compact());
        }
    }

    #[test]
    fn edited_stats_fail_the_digest_check_on_load() {
        // A consistent-but-different statistic (β bumped by one keeps all
        // derived pair counts non-negative here) must not parse silently.
        let pristine = sample().to_text();
        let tampered = pristine.replacen("\"beta\":10", "\"beta\":11", 1);
        assert_ne!(tampered, pristine, "edit must hit the statistics");
        let err = Checkpoint::from_text(&tampered, false).expect_err("tampered stats");
        assert!(matches!(err, CheckpointError::Mismatch { .. }), "{err}");

        // So must a header whose digest field itself was stripped.
        let ck = sample();
        let digest = format!(
            ",\"digest\":\"{:016x}\"",
            ck.stats.as_ref().unwrap().digest()
        );
        let stripped = pristine.replacen(&digest, "", 1);
        assert_ne!(stripped, pristine, "edit must hit the digest");
        let err = Checkpoint::from_text(&stripped, false).expect_err("missing digest");
        assert!(err.to_string().contains("digest"), "{err}");
    }

    #[test]
    fn fingerprint_tracks_inputs_including_revision() {
        let cands = vec![vec![1, 2], vec![0]];
        let base = fingerprint(100, 10, 0.25, "cfg", 0, &cands);
        assert_eq!(base, fingerprint(100, 10, 0.25, "cfg", 0, &cands));
        assert_ne!(base, fingerprint(101, 10, 0.25, "cfg", 0, &cands));
        assert_ne!(base, fingerprint(100, 10, 0.26, "cfg", 0, &cands));
        assert_ne!(base, fingerprint(100, 10, 0.25, "cfg2", 0, &cands));
        assert_ne!(
            base,
            fingerprint(100, 10, 0.25, "cfg", 0, &[vec![1], vec![0]])
        );
        // The stale pre-append guard: a bumped revision alone changes it.
        assert_ne!(base, fingerprint(100, 10, 0.25, "cfg", 1, &cands));
    }
}
