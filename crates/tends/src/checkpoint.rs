//! Versioned on-disk checkpoints for long reconstructions.
//!
//! A checkpoint persists the per-node parent-search results completed so
//! far, so an interrupted `Tends` run can resume without redoing them —
//! and, since v2, the *sufficient statistics* an appended batch of
//! cascades needs to re-estimate incrementally. The file is a delta log:
//! a header line in the deterministic JSON dialect of `diffnet-observe`,
//! a binary statistics section, then one JSON line per completed node:
//!
//! ```text
//! {"format":"diffnet-checkpoint","version":4,"fingerprint":"9f86…","revision":1,"stats":{"beta":150,"nodes":1000,"width":1,"bytes":500500,"digest":"…"}}
//! <500500 bytes: ones, then upper-triangle n11, one byte per count>
//! {"node":0,"parents":[3],"score_bits":"c011…","candidates":[3,7],"evaluations":4,…}
//! {"node":2,…}
//! ```
//!
//! The **header** holds the format tag, schema version, run fingerprint,
//! the sufficient-statistics revision, and — when the run captured the
//! pairwise sufficient statistics ([`PairStats`]) — the shape of the
//! section that stores them: `β`, the node count `n`, the count width `w`
//! (the smallest of 1, 2, 4 or 8 bytes that holds `β`), the section length
//! `L = w·(n + n(n−1)/2)`, and a `digest`. The **section** follows the
//! header's newline: the per-node ones counts, then the upper-triangle
//! `n11` counts, each a `w`-byte little-endian integer, then a newline.
//! The digest is FNV-1a over `β`, `n` and `w` (each a `u64`, little-endian)
//! and then the section bytes as stored. A run without statistics (a
//! streamed one) writes no section. The file keeps its `checkpoint.json`
//! name although it is no longer pure JSON.
//!
//! Loading splits the file at the byte level. It checks `w` and `L`
//! (checked arithmetic, against the bytes actually present) before it
//! allocates anything sized from them, decodes the section straight into
//! the counts, validates their consistency, and then re-verifies the
//! digest, so edited statistics surface as a typed
//! [`CheckpointError::Format`] or [`CheckpointError::Mismatch`] instead
//! of silently shifting the MI pipeline an append folds into.
//!
//! The log shape is what makes checkpointing cheap: the header and section
//! are written once, atomically (temp sibling + rename), and each flush
//! *appends* the newly finished nodes instead of rewriting the world. A
//! crash can only tear the final appended line, so [`Checkpoint::load`]
//! drops a last line that is not valid JSON (or not UTF-8). Damage
//! anywhere else is corruption and fails typed: a header that is not JSON
//! is a [`CheckpointError::Parse`] carrying the byte offset; a header that
//! is not UTF-8 or not a checkpoint, a section that disagrees with its
//! header, or a damaged entry before the last line is a
//! [`CheckpointError::Format`] or `Parse`. Duplicate node lines are legal
//! and resolve last-wins, so a delta log compacts to the same checkpoint
//! [`Checkpoint::save`] would write fresh. [`Checkpoint::load_header`]
//! stops after the section: an append needs the statistics, not the old
//! revision's entries.
//!
//! Version 3 stored the statistics inside the header as space-separated
//! decimal strings, with a digest over every count as a `u64`. Such files
//! still load, read-only: every save writes version 4.
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
//! appended columns into the stored statistics and searches every node
//! over the combined columns, which is a fresh combined run by
//! construction. Entry lines written by older builds may still carry a
//! `"table"` field; it is ignored on load.
//!
//! The `fingerprint` hashes everything the stored results depend on —
//! the entry schema, matrix dimensions, τ, the search configuration, the
//! statistics revision, and every candidate list. Resuming against
//! different inputs, config, or a stale pre-append revision is a typed
//! [`CheckpointError::Mismatch`], not silent corruption. The entry schema
//! is the same in versions 3 and 4, so v3 checkpoints keep their
//! fingerprints and still resume. `version` gates the file layout;
//! unknown versions are refused.

use crate::imi::PairStats;
use crate::score::ScoreCacheStats;
use crate::search::{NodeSearchResult, SearchStats};
use diffnet_graph::NodeId;
use diffnet_observe::{Json, ParseError};
use diffnet_simulate::WorkspaceStats;
use std::collections::BTreeMap;
use std::fmt;
use std::io::{self, BufRead, Read};
use std::path::Path;

/// Schema identifier in the `format` field.
pub const FORMAT: &str = "diffnet-checkpoint";
/// Schema version every save writes.
pub const VERSION: u64 = 4;
/// The previous version, still readable: statistics as decimal text in
/// the header.
const V3: u64 = 3;
/// Version of the entry-line schema, which the fingerprint hashes. Only
/// the header changed in version 4, so it stays at 3.
const ENTRY_SCHEMA: u64 = 3;

/// Errors from checkpoint load/save — and the fatal errors of a robust
/// reconstruction, which are checkpoint problems plus one input check.
#[derive(Debug)]
pub enum CheckpointError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// A header or entry line is not valid JSON; carries the byte offset
    /// of the damage within the line.
    Parse(ParseError),
    /// Not a checkpoint we can use: wrong format tag, unknown version,
    /// missing or ill-typed field, bytes that are not UTF-8, or a
    /// statistics section that disagrees with its header.
    Format(String),
    /// The checkpoint was written for different inputs or configuration.
    Mismatch {
        /// Fingerprint of the current run.
        expected: String,
        /// Fingerprint stored in the file.
        found: String,
    },
    /// The input has more nodes than the dense pipeline takes
    /// ([`crate::MAX_DENSE_NODES`]); found before any pair state is
    /// allocated. The streamed pipeline (a memory budget) has no such
    /// limit.
    DenseLimit {
        /// Nodes in the input.
        nodes: usize,
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
            CheckpointError::DenseLimit { nodes } => write!(
                f,
                "{nodes} nodes exceed the dense pipeline's limit of {} (its pair \
                 triangle is addressed with 32-bit positions); set a memory budget \
                 (--memory-budget) to run the streamed pipeline",
                crate::MAX_DENSE_NODES
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

    /// The header line (without its newline) and the statistics section
    /// it describes, empty when there are no statistics.
    pub fn header(&self) -> (String, Vec<u8>) {
        let mut root = Json::object();
        root.push("format", FORMAT);
        root.push("version", VERSION);
        root.push("fingerprint", format!("{:016x}", self.fingerprint));
        root.push("revision", self.revision);
        let mut section = Vec::new();
        if let Some(stats) = &self.stats {
            let (beta, nodes) = (stats.num_processes(), stats.num_nodes());
            let width = section_width(beta);
            section = encode_section(stats, width);
            let digest = section_digest(beta, nodes, width, &section);
            let mut s = Json::object();
            s.push("beta", beta);
            s.push("nodes", nodes);
            s.push("width", width);
            s.push("bytes", section.len());
            s.push("digest", format!("{digest:016x}"));
            root.push("stats", s);
        }
        (root.to_compact(), section)
    }

    /// One node's entry line (scores as IEEE-754 bit strings). Always a
    /// single line of JSON — the unit the async delta writer appends.
    /// Emitted by hand for speed (a run writes one per node), and pinned
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

    /// The full compacted serialization: header line, statistics section,
    /// then every entry in ascending node order.
    pub fn to_bytes(&self) -> Vec<u8> {
        let (header, section) = self.header();
        let mut out = Vec::with_capacity(header.len() + section.len() + 2);
        out.extend_from_slice(header.as_bytes());
        out.push(b'\n');
        if self.stats.is_some() {
            out.extend_from_slice(&section);
            out.push(b'\n');
        }
        for (&id, e) in &self.entries {
            out.extend_from_slice(Self::entry_line(id, e).as_bytes());
            out.push(b'\n');
        }
        out
    }

    /// Parses the serialized form back (exposed for tests and tools; the
    /// production path is [`load`](Self::load)). `tolerate_torn_tail`
    /// drops a final line that is not valid JSON or not UTF-8 — the
    /// signature of a crash mid-append — instead of failing the load.
    pub fn from_bytes(
        bytes: &[u8],
        tolerate_torn_tail: bool,
    ) -> Result<Checkpoint, CheckpointError> {
        let (line, rest) = match bytes.iter().position(|&b| b == b'\n') {
            Some(at) => (&bytes[..at], &bytes[at + 1..]),
            None => (bytes, &[][..]),
        };
        let (mut ck, section) = parse_header(line)?;
        let rest = match section {
            Some(section) => {
                let (stats, rest) = section.read(rest)?;
                ck.stats = Some(stats);
                rest
            }
            None => rest,
        };
        let mut lines = rest
            .split(|&b| b == b'\n')
            .map(<[u8]>::trim_ascii)
            .filter(|l| !l.is_empty())
            .peekable();
        while let Some(line) = lines.next() {
            let is_last = lines.peek().is_none();
            let value = match std::str::from_utf8(line) {
                Ok(text) => diffnet_observe::parse_json(text).map_err(CheckpointError::Parse),
                Err(e) => Err(CheckpointError::Format(format!(
                    "entry line is not UTF-8 (byte {} of the line)",
                    e.valid_up_to()
                ))),
            };
            let value = match value {
                Ok(v) => v,
                Err(_) if is_last && tolerate_torn_tail => break,
                Err(e) => return Err(e),
            };
            let (id, entry) = parse_entry(&value)?;
            // Last-wins: a delta log may re-record a node; the newest
            // append is authoritative.
            ck.entries.insert(id, entry);
        }
        Ok(ck)
    }

    /// Writes the compacted checkpoint atomically (temp sibling + rename),
    /// so a crash mid-write leaves the previous checkpoint intact. Returns
    /// the number of bytes written.
    pub fn save<P: AsRef<Path>>(&self, path: P) -> Result<usize, CheckpointError> {
        let bytes = self.to_bytes();
        diffnet_graph::io::save_atomic(path, |w| w.write_all(&bytes))?;
        Ok(bytes.len())
    }

    /// Loads and validates a checkpoint file, compacting any delta log:
    /// duplicate node records resolve last-wins and a torn final line
    /// (crash mid-append) is dropped.
    pub fn load<P: AsRef<Path>>(path: P) -> Result<Checkpoint, CheckpointError> {
        Checkpoint::from_bytes(&std::fs::read(path)?, true)
    }

    /// Loads and validates only the header and the statistics section:
    /// the returned checkpoint has no entries, and the file's entry lines
    /// are never read.
    pub fn load_header<P: AsRef<Path>>(path: P) -> Result<Checkpoint, CheckpointError> {
        let file = std::fs::File::open(path)?;
        let len = file.metadata()?.len();
        let mut reader = io::BufReader::new(file);
        let mut line = Vec::new();
        reader.read_until(b'\n', &mut line)?;
        let (mut ck, section) = parse_header(&line)?;
        if let Some(section) = section {
            // At most the section and its newline, and never more than
            // the file holds: the header's length is not trusted here.
            let want = (section.bytes as u64).saturating_add(1);
            let mut raw = Vec::with_capacity(want.min(len) as usize);
            reader.take(want).read_to_end(&mut raw)?;
            ck.stats = Some(section.read(&raw)?.0);
        }
        Ok(ck)
    }
}

/// The smallest count width, in bytes, that holds every count of a run
/// over `beta` processes (no count exceeds `β`).
fn section_width(beta: u64) -> usize {
    match beta {
        0..=0xff => 1,
        0x100..=0xffff => 2,
        0x1_0000..=0xffff_ffff => 4,
        _ => 8,
    }
}

/// The statistics section: ones, then `n11`, each count as `width`
/// little-endian bytes.
fn encode_section(stats: &PairStats, width: usize) -> Vec<u8> {
    fn encode<const W: usize>(counts: &[u64], out: &mut [u8]) {
        for (chunk, &v) in out.chunks_exact_mut(W).zip(counts) {
            chunk.copy_from_slice(&v.to_le_bytes()[..W]);
        }
    }
    let (ones, n11) = (stats.ones(), stats.n11());
    let mut out = vec![0u8; width * (ones.len() + n11.len())];
    let (ones_out, n11_out) = out.split_at_mut(width * ones.len());
    for (counts, dst) in [(ones, ones_out), (n11, n11_out)] {
        match width {
            1 => encode::<1>(counts, dst),
            2 => encode::<2>(counts, dst),
            4 => encode::<4>(counts, dst),
            _ => encode::<8>(counts, dst),
        }
    }
    out
}

/// Inverse of [`encode_section`] for one run of counts.
fn decode_counts(raw: &[u8], width: usize) -> Vec<u64> {
    fn decode<const W: usize>(raw: &[u8]) -> Vec<u64> {
        raw.chunks_exact(W)
            .map(|c| {
                let mut le = [0u8; 8];
                le[..W].copy_from_slice(c);
                u64::from_le_bytes(le)
            })
            .collect()
    }
    match width {
        1 => decode::<1>(raw),
        2 => decode::<2>(raw),
        4 => decode::<4>(raw),
        _ => decode::<8>(raw),
    }
}

/// The version-4 statistics digest: FNV-1a over `β`, `n` and `width`
/// (each a little-endian `u64`), then the section bytes as stored.
fn section_digest(beta: u64, nodes: usize, width: usize, section: &[u8]) -> u64 {
    let mut h = Fnv::new();
    h.eat(&beta.to_le_bytes());
    h.eat(&(nodes as u64).to_le_bytes());
    h.eat(&(width as u64).to_le_bytes());
    h.eat(section);
    h.0
}

/// The version-3 statistics digest: FNV-1a over `β`, `n`, and every count
/// (ones, then `n11`) as a little-endian `u64`.
fn v3_digest(stats: &PairStats) -> u64 {
    let mut h = Fnv::new();
    h.eat(&stats.num_processes().to_le_bytes());
    h.eat(&(stats.num_nodes() as u64).to_le_bytes());
    for &v in stats.ones().iter().chain(stats.n11()) {
        h.eat(&v.to_le_bytes());
    }
    h.0
}

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Appends `v` in decimal — digits straight into the buffer; a
/// per-value `to_string` allocation dominates saves at a thousand
/// entries. Checkpoint numbers are overwhelmingly process counts (≤ β)
/// and node ids, so one- and two-digit values get a branch-only fast path.
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

/// Inverse of [`push_hex16`]. Exactly 16 lowercase hex digits, so every
/// edit to a stored hash changes the value it parses to.
fn parse_hex16(s: &str) -> Option<u64> {
    let canonical = s.len() == 16 && s.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f'));
    if canonical {
        u64::from_str_radix(s, 16).ok()
    } else {
        None
    }
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

/// Parses a version-3 statistics string: space-separated decimal counts,
/// in a single pass over the raw bytes.
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

/// A non-negative integer field of a JSON object.
fn json_u64(value: &Json, field: &str) -> Option<u64> {
    value
        .get(field)
        .and_then(Json::as_f64)
        .filter(|v| *v >= 0.0 && v.fract() == 0.0)
        .map(|v| v as u64)
}

/// The shape of a version-4 statistics section, as its header declares it.
struct Section {
    beta: u64,
    nodes: usize,
    width: usize,
    bytes: usize,
    digest: u64,
}

impl Section {
    /// Reads the header's `stats` object. `width` must be 1, 2, 4 or 8 and
    /// `bytes` must be exactly `width·(n + n(n−1)/2)`, computed without
    /// overflow, so nothing sized from the header is allocated unchecked.
    fn from_json(s: &Json) -> Result<Section, CheckpointError> {
        let field = |name: &str| {
            json_u64(s, name)
                .ok_or_else(|| CheckpointError::Format(format!("stats: missing or bad {name:?}")))
        };
        let beta = field("beta")?;
        let nodes = field("nodes")?;
        let width = field("width")?;
        let bytes = field("bytes")?;
        let digest = s
            .get("digest")
            .and_then(Json::as_str)
            .and_then(parse_hex16)
            .ok_or_else(|| CheckpointError::Format("stats: missing or bad \"digest\"".into()))?;
        if !matches!(width, 1 | 2 | 4 | 8) {
            return Err(CheckpointError::Format(format!(
                "stats: count width {width} is not 1, 2, 4 or 8"
            )));
        }
        let expected = nodes
            .checked_mul(nodes.saturating_sub(1))
            .map(|p| p / 2)
            .and_then(|pairs| pairs.checked_add(nodes))
            .and_then(|counts| counts.checked_mul(width))
            .filter(|&e| e == bytes)
            .and_then(|e| usize::try_from(e).ok());
        let Some(bytes) = expected else {
            return Err(CheckpointError::Format(format!(
                "stats: {bytes} bytes cannot hold {nodes} nodes' counts at width {width}"
            )));
        };
        Ok(Section {
            beta,
            nodes: nodes as usize,
            width: width as usize,
            bytes,
            digest,
        })
    }

    /// Decodes the section at the front of `rest` and returns the
    /// statistics and what follows the section's newline. The counts'
    /// consistency is checked before the digest, so impossible counts are
    /// a `Format` error and plausible edits a `Mismatch`.
    fn read<'a>(&self, rest: &'a [u8]) -> Result<(PairStats, &'a [u8]), CheckpointError> {
        if rest.len() <= self.bytes || rest[self.bytes] != b'\n' {
            return Err(CheckpointError::Format(format!(
                "statistics section truncated: the header declares {} bytes and a newline, \
                 {} remain",
                self.bytes,
                rest.len()
            )));
        }
        let raw = &rest[..self.bytes];
        let (ones, n11) = raw.split_at(self.width * self.nodes);
        let stats = PairStats::from_parts(
            self.beta,
            decode_counts(ones, self.width),
            decode_counts(n11, self.width),
        )
        .map_err(CheckpointError::Format)?;
        let digest = section_digest(self.beta, self.nodes, self.width, raw);
        if digest != self.digest {
            return Err(CheckpointError::Mismatch {
                expected: format!("{digest:016x}"),
                found: format!("{:016x}", self.digest),
            });
        }
        Ok((stats, &rest[self.bytes + 1..]))
    }
}

/// Parses the header line: the checkpoint without entries, plus the
/// statistics section a version-4 header announces (a version-3 header
/// carries its statistics inline, already verified).
fn parse_header(line: &[u8]) -> Result<(Checkpoint, Option<Section>), CheckpointError> {
    // The header is written atomically, so damage here means real
    // corruption, not a crashed append.
    let text = std::str::from_utf8(line.trim_ascii()).map_err(|e| {
        CheckpointError::Format(format!("header is not UTF-8 (byte {})", e.valid_up_to()))
    })?;
    if text.is_empty() {
        return Err(CheckpointError::Format("empty checkpoint file".into()));
    }
    let root = diffnet_observe::parse_json(text)?;
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
    if version != VERSION as f64 && version != V3 as f64 {
        return Err(CheckpointError::Format(format!(
            "unknown version {version}, this build reads versions {V3} and {VERSION}"
        )));
    }
    let fingerprint = root
        .get("fingerprint")
        .and_then(Json::as_str)
        .and_then(parse_hex16)
        .ok_or_else(|| CheckpointError::Format("missing or bad \"fingerprint\"".into()))?;
    let revision = json_u64(&root, "revision")
        .ok_or_else(|| CheckpointError::Format("missing or bad \"revision\"".into()))?;
    let mut ck = Checkpoint::new(fingerprint, revision);
    let section = match root.get("stats") {
        None => None,
        Some(s) if version == VERSION as f64 => Some(Section::from_json(s)?),
        Some(s) => {
            ck.stats = Some(parse_v3_stats(s)?);
            None
        }
    };
    Ok((ck, section))
}

/// The statistics of a version-3 header: decimal strings plus a digest
/// over the decoded counts.
fn parse_v3_stats(s: &Json) -> Result<PairStats, CheckpointError> {
    let beta = json_u64(s, "beta")
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
        .and_then(parse_hex16)
        .ok_or_else(|| CheckpointError::Format("stats: missing or bad \"digest\"".into()))?;
    let stats = PairStats::from_parts(beta, parse_u64s(ones, "ones")?, parse_u64s(n11, "n11")?)
        .map_err(CheckpointError::Format)?;
    if v3_digest(&stats) != digest {
        return Err(CheckpointError::Mismatch {
            expected: format!("{:016x}", v3_digest(&stats)),
            found: format!("{digest:016x}"),
        });
    }
    Ok(stats)
}

fn entry_u64(value: &Json, field: &str) -> Result<u64, CheckpointError> {
    json_u64(value, field)
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
/// entry schema, the status-matrix dimensions, the applied τ (bit-exact),
/// a signature of the search-relevant configuration, the
/// sufficient-statistics revision, and every candidate list. Two runs
/// share a fingerprint iff their per-node searches are interchangeable —
/// in particular, a pre-append checkpoint (older revision) never matches
/// the post-append run even when τ and the candidate sets happen to
/// survive the append unchanged.
pub fn fingerprint(
    num_processes: usize,
    num_nodes: usize,
    tau: f64,
    config_signature: &str,
    revision: u64,
    candidates: &[Vec<NodeId>],
) -> u64 {
    let mut h = Fnv::new();
    h.eat(&ENTRY_SCHEMA.to_le_bytes());
    h.eat(&(num_processes as u64).to_le_bytes());
    h.eat(&(num_nodes as u64).to_le_bytes());
    h.eat(&tau.to_bits().to_le_bytes());
    h.eat(config_signature.as_bytes());
    h.eat(&revision.to_le_bytes());
    for cands in candidates {
        h.eat(&(cands.len() as u64).to_le_bytes());
        for &c in cands {
            h.eat(&u64::from(c).to_le_bytes());
        }
    }
    h.0
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    fn sample() -> Checkpoint {
        let mut ck = Checkpoint::new(0xdead_beef_0042_cafe, 3);
        // ones[2] = 10 puts a newline byte inside the section.
        ck.stats = Some(PairStats::from_parts(10, vec![4, 1, 10], vec![1, 4, 1]).unwrap());
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

    /// The version-3 serialization of `ck`, as builds before version 4
    /// wrote it: the statistics as decimal strings inside the header.
    pub(crate) fn v3_bytes(ck: &Checkpoint) -> Vec<u8> {
        let mut root = Json::object();
        root.push("format", FORMAT);
        root.push("version", V3);
        root.push("fingerprint", format!("{:016x}", ck.fingerprint));
        root.push("revision", ck.revision);
        if let Some(stats) = &ck.stats {
            let decimals = |v: &[u64]| v.iter().map(u64::to_string).collect::<Vec<_>>().join(" ");
            let mut s = Json::object();
            s.push("beta", stats.num_processes());
            s.push("ones", decimals(stats.ones()));
            s.push("n11", decimals(stats.n11()));
            s.push("digest", format!("{:016x}", v3_digest(stats)));
            root.push("stats", s);
        }
        let mut out = root.to_compact();
        out.push('\n');
        for (&id, e) in &ck.entries {
            out.push_str(&Checkpoint::entry_line(id, e));
            out.push('\n');
        }
        out.into_bytes()
    }

    /// Byte offset of the first entry line in `ck`'s serialization.
    fn entries_start(ck: &Checkpoint) -> usize {
        let (header, section) = ck.header();
        header.len() + 1 + ck.stats.as_ref().map_or(0, |_| section.len() + 1)
    }

    /// `bytes` with the first occurrence of `from` replaced by `to`.
    pub(crate) fn replace_once(bytes: &[u8], from: &str, to: &str) -> Vec<u8> {
        let at = bytes
            .windows(from.len())
            .position(|w| w == from.as_bytes())
            .unwrap_or_else(|| panic!("{from:?} not found"));
        [&bytes[..at], to.as_bytes(), &bytes[at + from.len()..]].concat()
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("diffnet_checkpoint_test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir.join(name)
    }

    #[test]
    fn text_round_trip_is_bit_exact() {
        let ck = sample();
        let back = Checkpoint::from_bytes(&ck.to_bytes(), false).expect("parse back");
        assert_eq!(back, ck);
        let b0 = back.entries[&7].score.to_bits();
        assert_eq!(b0, 0xbfe5_5555_5555_5555, "score must restore bit-exactly");
        assert_eq!(back.revision, 3);
    }

    #[test]
    fn file_round_trip() {
        let path = temp_path("ck.json");
        let ck = sample();
        let written = ck.save(&path).expect("save");
        assert_eq!(written as u64, std::fs::metadata(&path).unwrap().len());
        assert_eq!(Checkpoint::load(&path).expect("load"), ck);
        // The header-only load stops after the statistics.
        let head = Checkpoint::load_header(&path).expect("load header");
        assert_eq!(
            head,
            Checkpoint {
                entries: BTreeMap::new(),
                ..ck
            }
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_header_is_a_parse_error_with_offset() {
        let bytes = sample().to_bytes();
        let cut = &bytes[..sample().header().0.len() / 2];
        let err = Checkpoint::from_bytes(cut, true).expect_err("must not parse");
        assert!(matches!(err, CheckpointError::Parse(_)), "{err:?}");
        assert!(
            err.to_string().contains("byte"),
            "offset missing from {err}"
        );
    }

    #[test]
    fn torn_tail_is_dropped_and_delta_entries_dedup_last_wins() {
        let ck = sample();
        let mut bytes = ck.to_bytes();
        // A delta append re-records node 0 with a different parent set…
        let mut newer = ck.entries[&0].clone();
        newer.parents = vec![5];
        bytes.extend_from_slice(Checkpoint::entry_line(0, &newer).as_bytes());
        bytes.push(b'\n');
        // …then the process dies mid-way through the next record.
        let torn = Checkpoint::entry_line(7, &ck.entries[&7]);
        bytes.extend_from_slice(&torn.as_bytes()[..torn.len() / 2]);

        let back = Checkpoint::from_bytes(&bytes, true).expect("torn tail is tolerated");
        assert_eq!(back.entries[&0].parents, vec![5], "last record wins");
        assert_eq!(back.entries.len(), 2);
        // Without tolerance the same bytes are a parse error.
        assert!(matches!(
            Checkpoint::from_bytes(&bytes, false),
            Err(CheckpointError::Parse(_))
        ));
        // A torn line in the *middle* is never tolerated.
        let mid_torn = [
            &ck.to_bytes()[..entries_start(&ck)],
            &torn.as_bytes()[..torn.len() / 2],
            b"\n",
            Checkpoint::entry_line(0, &ck.entries[&0]).as_bytes(),
            b"\n",
        ]
        .concat();
        assert!(matches!(
            Checkpoint::from_bytes(&mid_torn, true),
            Err(CheckpointError::Parse(_))
        ));
    }

    #[test]
    fn invalid_utf8_is_a_torn_tail_or_a_typed_error() {
        let ck = sample();
        let pristine = ck.to_bytes();
        let start = entries_start(&ck);
        let last_line = pristine[..pristine.len() - 1]
            .iter()
            .rposition(|&b| b == b'\n')
            .expect("two entry lines")
            + 1;
        let path = temp_path("invalid_utf8.json");
        let load_with_ff_at = |at: usize| {
            let mut bytes = pristine.clone();
            bytes[at] = 0xff;
            std::fs::write(&path, &bytes).expect("write");
            Checkpoint::load(&path)
        };

        // In the last line: the torn tail of a crashed append, dropped.
        let back = load_with_ff_at(last_line + 5).expect("torn tail is tolerated");
        assert_eq!(back.entries.len(), 1);
        assert_eq!(back.entries[&0], ck.entries[&0]);
        assert_eq!(back.stats, ck.stats);

        // In a middle entry: corruption, not a crash signature.
        let err = load_with_ff_at(start + 5).expect_err("middle entry");
        assert!(
            matches!(err, CheckpointError::Format(_) | CheckpointError::Parse(_)),
            "{err:?}"
        );

        // In the header: corruption of an atomic write.
        let err = load_with_ff_at(5).expect_err("header");
        assert!(matches!(err, CheckpointError::Format(_)), "{err:?}");
        assert!(err.to_string().contains("UTF-8"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn wrong_format_and_version_are_rejected() {
        let bytes = replace_once(&sample().to_bytes(), "diffnet-checkpoint", "something-else");
        assert!(matches!(
            Checkpoint::from_bytes(&bytes, false),
            Err(CheckpointError::Format(_))
        ));

        for version in ["999", "5"] {
            let bytes = replace_once(
                &sample().to_bytes(),
                "\"version\":4",
                &format!("\"version\":{version}"),
            );
            let err = Checkpoint::from_bytes(&bytes, false).expect_err("unknown version");
            assert!(matches!(err, CheckpointError::Format(_)), "{err:?}");
            assert!(
                err.to_string().contains(&format!("version {version}")),
                "{err}"
            );
        }
    }

    #[test]
    fn missing_fields_are_typed_errors() {
        let bytes = replace_once(&sample().to_bytes(), "score_bits", "sb");
        let err = Checkpoint::from_bytes(&bytes, false).expect_err("missing score");
        assert!(err.to_string().contains("score_bits"), "{err}");

        let bytes = replace_once(&sample().to_bytes(), "\"revision\":3,", "");
        let err = Checkpoint::from_bytes(&bytes, false).expect_err("missing revision");
        assert!(err.to_string().contains("revision"), "{err}");
    }

    #[test]
    fn stats_survive_the_header_round_trip() {
        let ck = sample();
        let back = Checkpoint::from_bytes(&ck.to_bytes(), false).unwrap();
        let stats = back.stats.expect("stats restored");
        assert_eq!(stats.num_processes(), 10);
        assert_eq!(stats.ones(), &[4, 1, 10]);
        assert_eq!(stats.n11(), &[1, 4, 1]);
        // A checkpoint without stats is still valid, and has no section.
        let mut bare = sample();
        bare.stats = None;
        assert!(bare.header().1.is_empty());
        let back = Checkpoint::from_bytes(&bare.to_bytes(), false).unwrap();
        assert_eq!(back, bare);
    }

    #[test]
    fn sections_use_the_narrowest_width_that_holds_beta() {
        for (beta, width) in [
            (0u64, 1usize),
            (255, 1),
            (256, 2),
            (65_535, 2),
            (65_536, 4),
            (u64::from(u32::MAX), 4),
            (1 << 32, 8),
        ] {
            let mut ck = Checkpoint::new(1, 0);
            ck.stats = Some(PairStats::from_parts(beta, vec![beta, 0], vec![0]).unwrap());
            let (header, section) = ck.header();
            assert_eq!(section.len(), 3 * width, "β = {beta}");
            assert!(header.contains(&format!("\"width\":{width},")), "{header}");
            let back = Checkpoint::from_bytes(&ck.to_bytes(), false).expect("round trip");
            assert_eq!(back, ck, "β = {beta}");
        }
    }

    #[test]
    fn hand_emitted_lines_match_the_generic_json_form() {
        // The header layout is pinned byte for byte. The hand-rolled entry
        // writer exists purely for speed; its bytes must stay exactly what
        // building a Json tree and compacting it gives.
        let ck = sample();
        let (header, section) = ck.header();
        assert_eq!(section, [4, 1, 10, 1, 4, 1]);
        let digest = section_digest(10, 3, 1, &section);
        assert_eq!(
            header,
            format!(
                "{{\"format\":\"diffnet-checkpoint\",\"version\":4,\
                 \"fingerprint\":\"deadbeef0042cafe\",\"revision\":3,\
                 \"stats\":{{\"beta\":10,\"nodes\":3,\"width\":1,\"bytes\":6,\
                 \"digest\":\"{digest:016x}\"}}}}"
            )
        );

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
        let ck = sample();
        let pristine = ck.to_bytes();
        let section_at = ck.header().0.len() + 1;
        // A consistent-but-different count: n11 of pair (0, 1) lowered
        // from 1 to 0 keeps every derived cell non-negative.
        let mut tampered = pristine.clone();
        tampered[section_at + 3] = 0;
        let err = Checkpoint::from_bytes(&tampered, false).expect_err("tampered stats");
        assert!(matches!(err, CheckpointError::Mismatch { .. }), "{err}");

        // The digest covers β as well (bumped by one, still consistent).
        let tampered = replace_once(&pristine, "\"beta\":10", "\"beta\":11");
        let err = Checkpoint::from_bytes(&tampered, false).expect_err("tampered beta");
        assert!(matches!(err, CheckpointError::Mismatch { .. }), "{err}");

        // Impossible counts (ones[1] = β) fail the consistency check first.
        let mut tampered = pristine.clone();
        tampered[section_at + 1] = 10;
        let err = Checkpoint::from_bytes(&tampered, false).expect_err("impossible stats");
        assert!(
            matches!(&err, CheckpointError::Format(m) if m.contains("inconsistent")),
            "{err}"
        );

        // So must a header whose digest field itself was stripped.
        let digest = format!(
            ",\"digest\":\"{}",
            &ck.header().0.split("\"digest\":\"").nth(1).unwrap()[..16]
        );
        let stripped = replace_once(&pristine, &digest, "");
        let stripped = replace_once(&stripped, "\"}}", "}}");
        let err = Checkpoint::from_bytes(&stripped, false).expect_err("missing digest");
        assert!(err.to_string().contains("digest"), "{err}");
    }

    #[test]
    fn oversized_declarations_are_format_errors() {
        let ck = sample();
        let pristine = ck.to_bytes();
        let path = temp_path("oversized.json");
        for (what, from, to) in [
            // n(n−1)/2 overflows: rejected before any arithmetic is used.
            (
                "2^40 nodes",
                "\"nodes\":3,\"width\":1,\"bytes\":6",
                "\"nodes\":1099511627776,\"width\":1,\"bytes\":6",
            ),
            // A consistent declaration far past the end of the file.
            (
                "2^32 nodes",
                "\"nodes\":3,\"width\":1,\"bytes\":6",
                "\"nodes\":4294967296,\"width\":1,\"bytes\":9223372041149743104",
            ),
            (
                "bytes past the end",
                "\"nodes\":3,\"width\":1,\"bytes\":6",
                "\"nodes\":300,\"width\":1,\"bytes\":45150",
            ),
            ("width 3", "\"width\":1", "\"width\":3"),
        ] {
            let bytes = replace_once(&pristine, from, to);
            std::fs::write(&path, &bytes).expect("write");
            for err in [
                Checkpoint::load(&path).expect_err(what),
                Checkpoint::load_header(&path).expect_err(what),
            ] {
                assert!(matches!(err, CheckpointError::Format(_)), "{what}: {err:?}");
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn version_3_files_load_read_only() {
        let ck = sample();
        let v3 = v3_bytes(&ck);
        assert!(v3.starts_with(b"{\"format\":\"diffnet-checkpoint\",\"version\":3,"));
        assert_eq!(Checkpoint::from_bytes(&v3, false).expect("v3 loads"), ck);
        let path = temp_path("v3.json");
        std::fs::write(&path, &v3).expect("write v3");
        let head = Checkpoint::load_header(&path).expect("v3 header loads");
        assert_eq!(head.stats, ck.stats);
        // Saving what was loaded writes version 4.
        Checkpoint::load(&path).unwrap().save(&path).expect("save");
        assert_eq!(std::fs::read(&path).unwrap(), ck.to_bytes());
        std::fs::remove_file(&path).ok();

        // The v3 digest is still enforced.
        let tampered = replace_once(&v3, "\"n11\":\"1 ", "\"n11\":\"0 ");
        let err = Checkpoint::from_bytes(&tampered, false).expect_err("tampered v3 stats");
        assert!(matches!(err, CheckpointError::Mismatch { .. }), "{err}");
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
