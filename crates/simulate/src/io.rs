//! On-disk formats for observations.
//!
//! * **Status matrix** — one line per diffusion process, `n` space-
//!   separated `0`/`1` digits; `#` lines are comments. This is the
//!   interchange format for status-only pipelines (all TENDS needs).
//! * **Observation set** — the status format plus, per process, a
//!   `sources:` line and a `times:` line (with `-` for never-infected), so
//!   cascade-based baselines can be replayed from disk too.

use crate::status::RowsToColumns;
use crate::{DiffusionRecord, NodeColumns, ObservationSet, StatusMatrix, UNINFECTED};
use diffnet_graph::NodeId;
use std::fmt;
use std::fs;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::path::Path;

/// Errors from observation parsing.
#[derive(Debug)]
pub enum ObservationIoError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Malformed content.
    Parse {
        /// 1-based line number.
        line: usize,
        /// What was wrong.
        message: String,
    },
    /// The file declared more records than it contained — the tail was
    /// cut off, e.g. by a crash during a non-atomic write.
    Truncated {
        /// Record count declared in the header comment.
        expected: usize,
        /// Records actually present.
        found: usize,
        /// Byte offset where input ended.
        offset: usize,
    },
}

impl fmt::Display for ObservationIoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ObservationIoError::Io(e) => write!(f, "observation I/O error: {e}"),
            ObservationIoError::Parse { line, message } => {
                write!(f, "observation parse error at line {line}: {message}")
            }
            ObservationIoError::Truncated {
                expected,
                found,
                offset,
            } => write!(
                f,
                "observation file truncated at byte {offset}: header declares {expected} records, found {found}"
            ),
        }
    }
}

impl std::error::Error for ObservationIoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ObservationIoError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ObservationIoError {
    fn from(e: io::Error) -> Self {
        ObservationIoError::Io(e)
    }
}

fn parse_err(line: usize, message: impl Into<String>) -> ObservationIoError {
    ObservationIoError::Parse {
        line,
        message: message.into(),
    }
}

/// Extracts `(processes, nodes)` from a header comment of the form
/// `# diffnet <kind>: {β} processes x {n} nodes`. Returns `None` for
/// ordinary comments so headerless legacy files keep loading.
fn parse_header_counts(comment: &str, kind: &str) -> Option<(usize, usize)> {
    let rest = comment
        .trim_start_matches('#')
        .trim_start()
        .strip_prefix(kind)?
        .trim_start()
        .strip_prefix(':')?;
    let mut words = rest.split_whitespace();
    let beta: usize = words.next()?.parse().ok()?;
    if words.next()? != "processes" || words.next()? != "x" {
        return None;
    }
    let n: usize = words.next()?.parse().ok()?;
    if words.next()? != "nodes" {
        return None;
    }
    Some((beta, n))
}

/// Header comment kind of the status-matrix format.
const STATUS_KIND: &str = "diffnet status matrix";

/// Writes the `# diffnet status matrix: {β} processes x {n} nodes` header
/// line that declares a status file's shape.
pub fn write_status_header<W: Write>(mut w: W, processes: usize, nodes: usize) -> io::Result<()> {
    writeln!(w, "# {STATUS_KIND}: {processes} processes x {nodes} nodes")
}

/// The `(processes, nodes)` a status file declares on its first line, or
/// `None` when that line is not a header (or is longer than 4 KiB, which
/// no header this workspace writes is). Reads only that line.
///
/// A header on the first line is the one that counts, so a file that
/// parses never holds fewer rows than this declares.
pub fn read_status_header<P: AsRef<Path>>(path: P) -> io::Result<Option<(usize, usize)>> {
    const MAX_LINE: u64 = 4096;
    let mut line = Vec::new();
    let read = BufReader::new(fs::File::open(path)?)
        .take(MAX_LINE)
        .read_until(b'\n', &mut line)?;
    if read as u64 == MAX_LINE && line.last() != Some(&b'\n') {
        return Ok(None);
    }
    Ok(std::str::from_utf8(&line)
        .ok()
        .map(str::trim)
        .filter(|t| t.starts_with('#'))
        .and_then(|t| parse_header_counts(t, STATUS_KIND)))
}

/// Writes a status matrix: one `0`/`1` row per process.
pub fn write_status_matrix<W: Write>(m: &StatusMatrix, mut w: W) -> io::Result<()> {
    write_status_header(&mut w, m.num_processes(), m.num_nodes())?;
    let mut line = String::with_capacity(2 * m.num_nodes());
    for l in 0..m.num_processes() {
        line.clear();
        for i in 0..m.num_nodes() as NodeId {
            if i > 0 {
                line.push(' ');
            }
            line.push(if m.get(l, i) { '1' } else { '0' });
        }
        writeln!(w, "{line}")?;
    }
    Ok(())
}

/// Reads a status matrix written by [`write_status_matrix`].
///
/// This is the straightforward row-major reader, kept as the reference
/// that [`read_status_columns`] must agree with on every input.
pub fn read_status_matrix<R: Read>(r: R) -> Result<StatusMatrix, ObservationIoError> {
    let mut rows: Vec<Vec<bool>> = Vec::new();
    let mut declared: Option<(usize, usize)> = None;
    let mut buf = BufReader::new(r);
    let mut raw = Vec::new();
    let mut offset = 0usize;
    let mut lineno = 0usize;
    loop {
        raw.clear();
        let read = buf.read_until(b'\n', &mut raw)?;
        if read == 0 {
            break;
        }
        offset += read;
        lineno += 1;
        let t = std::str::from_utf8(&raw)
            .map_err(|_| parse_err(lineno, "invalid UTF-8 in status matrix"))?
            .trim();
        if t.is_empty() || t.starts_with('#') {
            if declared.is_none() {
                declared = parse_header_counts(t, STATUS_KIND);
            }
            continue;
        }
        let row: Result<Vec<bool>, _> = t
            .split_whitespace()
            .map(|tok| match tok {
                "0" => Ok(false),
                "1" => Ok(true),
                other => Err(bad_token(lineno, other)),
            })
            .collect();
        let row = row?;
        // Every row must match the declared width and the first row's.
        for width in declared
            .map(|(_, n)| n)
            .into_iter()
            .chain(rows.first().map(Vec::len))
        {
            if width != row.len() {
                return Err(bad_width(lineno, row.len(), width));
            }
        }
        rows.push(row);
    }
    if let Some((beta, _)) = declared {
        if rows.len() < beta {
            return Err(ObservationIoError::Truncated {
                expected: beta,
                found: rows.len(),
                offset,
            });
        }
    }
    Ok(StatusMatrix::from_rows(&rows))
}

fn bad_token(line: usize, token: &str) -> ObservationIoError {
    parse_err(line, format!("expected 0/1, got {token:?}"))
}

fn bad_width(line: usize, found: usize, expected: usize) -> ObservationIoError {
    parse_err(
        line,
        format!("row has {found} entries, expected {expected}"),
    )
}

/// Saves a status matrix to a file via an atomic temp-then-rename write.
pub fn save_status_matrix<P: AsRef<Path>>(m: &StatusMatrix, path: P) -> io::Result<()> {
    diffnet_graph::io::save_atomic(path, |w| write_status_matrix(m, w))
}

/// Loads a status matrix from a file.
pub fn load_status_matrix<P: AsRef<Path>>(path: P) -> Result<StatusMatrix, ObservationIoError> {
    read_status_matrix(fs::File::open(path)?)
}

/// Copies the process rows of the status file `src` to `w` byte for byte,
/// dropping blank and `#` comment lines (the old header among them) and
/// terminating an unterminated last row. Rows keep whatever separators
/// and line endings they came with, so the copy parses to the same rows.
/// `src` streams through a fixed-size buffer: memory is bounded by the
/// longest line, not the file.
///
/// With [`write_status_header`] in front, this splices status files
/// without parsing them: a fresh header declaring the combined shape wins
/// over any header comment that survives in a row-looking line, because
/// the first header in a file is the one that counts.
pub fn copy_status_rows<R: Read, W: Write>(src: R, mut w: W) -> io::Result<()> {
    let mut src = BufReader::with_capacity(64 * 1024, src);
    let mut line = Vec::new();
    loop {
        line.clear();
        if src.read_until(b'\n', &mut line)? == 0 {
            return Ok(());
        }
        match line.iter().find(|&&b| !is_status_space(b)) {
            None | Some(b'#') => continue,
            Some(_) => {}
        }
        w.write_all(&line)?;
        if line.last() != Some(&b'\n') {
            w.write_all(b"\n")?;
        }
    }
}

/// Iterates `bytes` line by line, calling `f(lineno, line)` with the
/// 1-based line number and the raw line (newline stripped). Returns the
/// total byte count consumed, for truncation offsets.
fn for_each_line<'a>(
    bytes: &'a [u8],
    mut f: impl FnMut(usize, &'a [u8]) -> Result<(), ObservationIoError>,
) -> Result<usize, ObservationIoError> {
    let mut pos = 0usize;
    let mut lineno = 0usize;
    while pos < bytes.len() {
        let end = bytes[pos..]
            .iter()
            .position(|&b| b == b'\n')
            .map_or(bytes.len(), |k| pos + k + 1);
        lineno += 1;
        let line = bytes[pos..end]
            .strip_suffix(b"\n")
            .unwrap_or(&bytes[pos..end]);
        f(lineno, line)?;
        pos = end;
    }
    Ok(pos)
}

/// The ASCII members of `char::is_whitespace` — the separator set of
/// `str::trim`/`split_whitespace` restricted to one byte. Unlike
/// `u8::is_ascii_whitespace` it includes `\x0B` (vertical tab).
fn is_status_space(b: u8) -> bool {
    matches!(b, b'\t' | b'\n' | b'\x0B' | b'\x0C' | b'\r' | b' ')
}

/// One status-file line as [`read_status_matrix`] sees it.
enum StatusLine<'a> {
    /// Blank or `#` comment, trimmed (a header candidate).
    Comment(&'a str),
    /// A trimmed, all-ASCII row: tokenized byte by byte.
    Ascii(&'a [u8]),
    /// A trimmed row holding non-ASCII text: tokenized by `char`, so
    /// Unicode whitespace (U+00A0, U+2003, …) separates as it does in
    /// the reference reader.
    Text(&'a str),
}

impl<'a> StatusLine<'a> {
    fn classify(lineno: usize, raw: &'a [u8]) -> Result<StatusLine<'a>, ObservationIoError> {
        let t = if raw.is_ascii() {
            let start = raw.iter().position(|&b| !is_status_space(b));
            let Some(start) = start else {
                return Ok(StatusLine::Comment(""));
            };
            let end = raw
                .iter()
                .rposition(|&b| !is_status_space(b))
                .map_or(0, |k| k + 1);
            let t = &raw[start..end];
            if t[0] != b'#' {
                return Ok(StatusLine::Ascii(t));
            }
            std::str::from_utf8(t).expect("ASCII is UTF-8")
        } else {
            std::str::from_utf8(raw)
                .map_err(|_| parse_err(lineno, "invalid UTF-8 in status matrix"))?
                .trim()
        };
        Ok(if t.is_empty() || t.starts_with('#') {
            StatusLine::Comment(t)
        } else {
            StatusLine::Text(t)
        })
    }

    /// Tokenizes a row line, calling `ones(i, bits)` for the infected
    /// cells — bit `j` of `bits` is token `i + j`, at most four tokens per
    /// call, never an all-zero `bits` — and returns the row's width. A
    /// token other than `0`/`1` is a typed error.
    fn row_ones(
        &self,
        lineno: usize,
        mut ones: impl FnMut(usize, u64),
    ) -> Result<usize, ObservationIoError> {
        let mut i = 0usize;
        match *self {
            StatusLine::Comment(_) => {}
            StatusLine::Ascii(t) => {
                let mut k = 0usize;
                while k < t.len() {
                    // Fast path for the written form: eight bytes of
                    // `d d d d ` (d ∈ {0, 1}) are four complete tokens,
                    // whose infected flags are bits 0, 16, 32 and 48.
                    if let Some(chunk) = t.get(k..k + 8) {
                        let w = u64::from_le_bytes(chunk.try_into().expect("eight bytes"));
                        if w & 0xFFFE_FFFE_FFFE_FFFE == 0x2030_2030_2030_2030 {
                            let bits = (w & 1) | (w >> 15 & 2) | (w >> 30 & 4) | (w >> 45 & 8);
                            if bits != 0 {
                                ones(i, bits);
                            }
                            i += 4;
                            k += 8;
                            continue;
                        }
                    }
                    let b = t[k];
                    if is_status_space(b) {
                        k += 1;
                        continue;
                    }
                    // A token starts here; a valid one is one character
                    // followed by a separator (or the end of the row).
                    if (b == b'0' || b == b'1') && t.get(k + 1).is_none_or(|&c| is_status_space(c))
                    {
                        if b == b'1' {
                            ones(i, 1);
                        }
                        i += 1;
                        k += 2;
                        continue;
                    }
                    let end = t[k..]
                        .iter()
                        .position(|&c| is_status_space(c))
                        .map_or(t.len(), |p| k + p);
                    let tok = std::str::from_utf8(&t[k..end]).expect("ASCII is UTF-8");
                    return Err(bad_token(lineno, tok));
                }
            }
            StatusLine::Text(t) => {
                for tok in t.split_whitespace() {
                    match tok {
                        "0" => {}
                        "1" => ones(i, 1),
                        other => return Err(bad_token(lineno, other)),
                    }
                    i += 1;
                }
            }
        }
        Ok(i)
    }
}

/// ORs `bits` (bit `j` = node `i + j`, at most four) into a row bitset.
/// Bits past the row's last word are dropped: such a row is too wide and
/// is rejected once its width is known.
fn set_row_bits(row: &mut [u64], i: usize, bits: u64) {
    let (w, b) = (i / 64, i % 64);
    if let Some(word) = row.get_mut(w) {
        *word |= bits << b;
    }
    if b > 60 {
        if let Some(word) = row.get_mut(w + 1) {
            *word |= bits >> (64 - b);
        }
    }
}

/// Parses a status-matrix file straight into its column-major bitset
/// view, without materializing the row-major [`StatusMatrix`].
///
/// Agrees with [`read_status_matrix`] on every input: the same result
/// (`read_status_matrix(bytes)?.columns()`), or the same typed error at
/// the same line — `Parse` for invalid UTF-8, bad tokens and ragged rows,
/// `Truncated` with the input's byte length when the header declares more
/// rows than the file holds. All-ASCII lines (every file this workspace
/// writes) are tokenized byte by byte; other lines take the `char` path,
/// so Unicode whitespace still separates tokens.
///
/// One pass over the bytes: rows are set 64 at a time into a row-major
/// block that is bit-transposed into the columns, so peak memory is the
/// `n·⌈β/64⌉` words of the result plus one block and the input bytes —
/// which [`load_status_columns`] keeps out of the heap via `mmap(2)`.
pub fn read_status_columns(bytes: &[u8]) -> Result<NodeColumns, ObservationIoError> {
    // One pass, in read_status_matrix's order: the first header comment
    // wins, and a row is checked against the header seen so far and
    // against the first row. The columns are sized for an upper bound on
    // the row count and shrink to the real count at the end.
    let lines = bytes.iter().filter(|&&b| b == b'\n').count() + 1;
    let mut declared: Option<(usize, usize)> = None;
    let mut cols: Option<RowsToColumns> = None;
    let offset = for_each_line(bytes, |lineno, raw| {
        let line = StatusLine::classify(lineno, raw)?;
        if let StatusLine::Comment(t) = line {
            if declared.is_none() {
                declared = parse_header_counts(t, STATUS_KIND);
            }
            return Ok(());
        }
        let cols = match &mut cols {
            Some(cols) => cols,
            None => {
                // The first row fixes the width n. Every row but the last
                // pushed takes at least 2n bytes (n one-byte tokens, n − 1
                // separators, a newline), which bounds the allocation by
                // the input size even when most lines are blank.
                let width = line.row_ones(lineno, |_, _| {})?;
                let max_rows = lines.min(bytes.len() / (2 * width) + 1);
                cols.insert(RowsToColumns::new(max_rows, width))
            }
        };
        let first_width = cols.num_nodes();
        let row = cols.push_row();
        let width = line.row_ones(lineno, |i, bits| set_row_bits(row, i, bits))?;
        for expected in declared.map(|(_, n)| n).into_iter().chain([first_width]) {
            if width != expected {
                return Err(bad_width(lineno, width, expected));
            }
        }
        Ok(())
    })?;
    let cols = cols.map_or_else(|| RowsToColumns::new(0, 0).finish(), RowsToColumns::finish);
    if let Some((beta, _)) = declared {
        if cols.num_processes() < beta {
            return Err(ObservationIoError::Truncated {
                expected: beta,
                found: cols.num_processes(),
                offset,
            });
        }
    }
    Ok(cols)
}

/// Loads a status matrix from a file directly into its column-major
/// bitset view, memory-mapping the file when possible (see
/// [`crate::mmap::open_bytes`]) so peak heap usage is just the column
/// bitsets. Every status file that reaches the reconstruction pipeline
/// (CLI `infer`, daemon jobs, appended batches) is loaded through here.
pub fn load_status_columns<P: AsRef<Path>>(path: P) -> Result<NodeColumns, ObservationIoError> {
    let bytes = crate::mmap::open_bytes(path)?;
    read_status_columns(&bytes)
}

/// Writes a full observation set: per process a `sources:` line and a
/// `times:` line (`-` = never infected).
pub fn write_observations<W: Write>(obs: &ObservationSet, mut w: W) -> io::Result<()> {
    writeln!(
        w,
        "# diffnet observations: {} processes x {} nodes",
        obs.num_processes(),
        obs.num_nodes()
    )?;
    writeln!(w, "nodes: {}", obs.num_nodes())?;
    for rec in &obs.records {
        write!(w, "sources:")?;
        for &s in &rec.sources {
            write!(w, " {s}")?;
        }
        writeln!(w)?;
        write!(w, "times:")?;
        for &t in &rec.times {
            if t == UNINFECTED {
                write!(w, " -")?;
            } else {
                write!(w, " {t}")?;
            }
        }
        writeln!(w)?;
    }
    Ok(())
}

/// Reads an observation set written by [`write_observations`].
pub fn read_observations<R: Read>(r: R) -> Result<ObservationSet, ObservationIoError> {
    let mut n: Option<usize> = None;
    let mut records: Vec<DiffusionRecord> = Vec::new();
    let mut pending_sources: Option<Vec<NodeId>> = None;
    let mut declared: Option<(usize, usize)> = None;
    let mut buf = BufReader::new(r);
    let mut line = String::new();
    let mut offset = 0usize;
    let mut lineno = 0usize;

    loop {
        line.clear();
        let read = buf.read_line(&mut line)?;
        if read == 0 {
            break;
        }
        offset += read;
        lineno += 1;
        let t = line.trim();
        if t.is_empty() || t.starts_with('#') {
            if declared.is_none() {
                declared = parse_header_counts(t, "diffnet observations");
            }
            continue;
        }
        if let Some(rest) = t.strip_prefix("nodes:") {
            n = Some(
                rest.trim()
                    .parse()
                    .map_err(|_| parse_err(lineno, "invalid node count"))?,
            );
        } else if let Some(rest) = t.strip_prefix("sources:") {
            if pending_sources.is_some() {
                return Err(parse_err(lineno, "sources line without matching times"));
            }
            let sources: Result<Vec<NodeId>, _> = rest
                .split_whitespace()
                .map(|tok| {
                    tok.parse::<NodeId>()
                        .map_err(|_| parse_err(lineno, format!("invalid source {tok:?}")))
                })
                .collect();
            pending_sources = Some(sources?);
        } else if let Some(rest) = t.strip_prefix("times:") {
            let sources = pending_sources
                .take()
                .ok_or_else(|| parse_err(lineno, "times line without sources"))?;
            let times: Result<Vec<u32>, _> = rest
                .split_whitespace()
                .map(|tok| {
                    if tok == "-" {
                        Ok(UNINFECTED)
                    } else {
                        tok.parse::<u32>()
                            .map_err(|_| parse_err(lineno, format!("invalid time {tok:?}")))
                    }
                })
                .collect();
            let times = times?;
            let expected = n.ok_or_else(|| parse_err(lineno, "missing nodes: header"))?;
            if times.len() != expected {
                return Err(parse_err(
                    lineno,
                    format!("expected {expected} times, got {}", times.len()),
                ));
            }
            records.push(DiffusionRecord { sources, times });
        } else {
            return Err(parse_err(lineno, format!("unrecognized line {t:?}")));
        }
    }
    if pending_sources.is_some() {
        return Err(ObservationIoError::Truncated {
            expected: declared.map_or(records.len() + 1, |(beta, _)| beta),
            found: records.len(),
            offset,
        });
    }
    if let Some((beta, _)) = declared {
        if records.len() < beta {
            return Err(ObservationIoError::Truncated {
                expected: beta,
                found: records.len(),
                offset,
            });
        }
    }

    let n = n.unwrap_or(0);
    let mut statuses = StatusMatrix::new(records.len(), n);
    for (l, rec) in records.iter().enumerate() {
        for i in 0..n as NodeId {
            if rec.infected(i) {
                statuses.set(l, i);
            }
        }
    }
    Ok(ObservationSet::new(statuses, records))
}

/// Saves a full observation set to a file via an atomic temp-then-rename
/// write.
pub fn save_observations<P: AsRef<Path>>(obs: &ObservationSet, path: P) -> io::Result<()> {
    diffnet_graph::io::save_atomic(path, |w| write_observations(obs, w))
}

/// Loads a full observation set from a file.
pub fn load_observations<P: AsRef<Path>>(path: P) -> Result<ObservationSet, ObservationIoError> {
    read_observations(fs::File::open(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_obs() -> ObservationSet {
        use crate::{EdgeProbs, IcConfig, IndependentCascade};
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let g = diffnet_graph::DiGraph::from_edges(6, &[(0, 1), (1, 2), (3, 4), (4, 5)]);
        let probs = EdgeProbs::constant(&g, 0.6);
        let mut rng = StdRng::seed_from_u64(9);
        IndependentCascade::new(&g, &probs).observe(
            IcConfig {
                initial_ratio: 0.2,
                num_processes: 12,
            },
            &mut rng,
        )
    }

    #[test]
    fn status_matrix_round_trip() {
        let obs = sample_obs();
        let mut buf = Vec::new();
        write_status_matrix(&obs.statuses, &mut buf).expect("write");
        let back = read_status_matrix(buf.as_slice()).expect("read");
        assert_eq!(back, obs.statuses);
    }

    #[test]
    fn observations_round_trip() {
        let obs = sample_obs();
        let mut buf = Vec::new();
        write_observations(&obs, &mut buf).expect("write");
        let back = read_observations(buf.as_slice()).expect("read");
        assert_eq!(back.statuses, obs.statuses);
        assert_eq!(back.records, obs.records);
    }

    #[test]
    fn status_matrix_rejects_bad_token() {
        let err = read_status_matrix("0 1 2\n".as_bytes()).unwrap_err();
        assert!(err.to_string().contains("expected 0/1"));
    }

    #[test]
    fn status_matrix_rejects_ragged_rows() {
        let err = read_status_matrix("0 1\n0 1 1\n".as_bytes()).unwrap_err();
        assert!(err.to_string().contains("expected 2"));
    }

    #[test]
    fn observations_reject_times_without_sources() {
        let text = "nodes: 2\ntimes: 0 -\n";
        let err = read_observations(text.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("without sources"));
    }

    #[test]
    fn observations_reject_wrong_width() {
        let text = "nodes: 3\nsources: 0\ntimes: 0 -\n";
        let err = read_observations(text.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("expected 3 times"));
    }

    #[test]
    fn truncated_status_matrix_reports_byte_offset() {
        let obs = sample_obs();
        let mut buf = Vec::new();
        write_status_matrix(&obs.statuses, &mut buf).expect("write");
        // Drop the last row entirely, as a crash at a line boundary would.
        let text = String::from_utf8(buf).expect("utf8");
        let cut = text.trim_end().rfind('\n').expect("multiple lines") + 1;
        match read_status_matrix(&text.as_bytes()[..cut]) {
            Err(ObservationIoError::Truncated {
                expected,
                found,
                offset,
            }) => {
                assert_eq!(expected, obs.num_processes());
                assert_eq!(found, obs.num_processes() - 1);
                assert_eq!(offset, cut);
            }
            other => panic!("expected truncation error, got {other:?}"),
        }
    }

    #[test]
    fn mid_row_truncation_detected_via_declared_width() {
        // Cut inside the final row: the partial row is narrower than the
        // width declared in the header, so the reader refuses it instead
        // of parsing a smaller matrix.
        let text = "# diffnet status matrix: 2 processes x 4 nodes\n0 1 0 1\n1 0\n";
        let err = read_status_matrix(text.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("expected 4"), "got {err}");
    }

    #[test]
    fn truncated_observations_report_byte_offset() {
        let obs = sample_obs();
        let mut buf = Vec::new();
        write_observations(&obs, &mut buf).expect("write");
        let text = String::from_utf8(buf).expect("utf8");
        // Cut after the last sources: line — a dangling record.
        let cut = text.trim_end().rfind('\n').expect("multiple lines") + 1;
        match read_observations(&text.as_bytes()[..cut]) {
            Err(ObservationIoError::Truncated { found, offset, .. }) => {
                assert_eq!(found, obs.num_processes() - 1);
                assert_eq!(offset, cut);
            }
            other => panic!("expected truncation error, got {other:?}"),
        }
    }

    #[test]
    fn legacy_headerless_status_matrix_still_loads() {
        let m = read_status_matrix("0 1\n1 0\n".as_bytes()).expect("parse");
        assert_eq!(m.num_processes(), 2);
        assert_eq!(m.num_nodes(), 2);
    }

    #[test]
    fn empty_inputs() {
        assert_eq!(
            read_status_matrix("".as_bytes())
                .expect("ok")
                .num_processes(),
            0
        );
        let obs = read_observations("".as_bytes()).expect("ok");
        assert_eq!(obs.num_processes(), 0);
    }

    #[test]
    fn streamed_columns_match_dense_columns() {
        let obs = sample_obs();
        let mut buf = Vec::new();
        write_status_matrix(&obs.statuses, &mut buf).expect("write");
        let streamed = read_status_columns(&buf).expect("streamed parse");
        let dense = read_status_matrix(buf.as_slice()).expect("dense parse");
        assert_eq!(streamed, dense.columns());
    }

    #[test]
    fn streamed_columns_handle_headerless_and_empty() {
        let streamed = read_status_columns(b"0 1\n1 0\n").expect("parse");
        let dense = read_status_matrix("0 1\n1 0\n".as_bytes()).expect("parse");
        assert_eq!(streamed, dense.columns());
        let empty = read_status_columns(b"").expect("parse");
        assert_eq!(empty.num_nodes(), 0);
        assert_eq!(empty.num_processes(), 0);
    }

    #[test]
    fn streamed_columns_report_truncation_with_offset() {
        let text = "# diffnet status matrix: 3 processes x 2 nodes\n0 1\n1 0\n";
        match read_status_columns(text.as_bytes()) {
            Err(ObservationIoError::Truncated {
                expected,
                found,
                offset,
            }) => {
                assert_eq!(expected, 3);
                assert_eq!(found, 2);
                assert_eq!(offset, text.len());
            }
            other => panic!("expected truncation error, got {other:?}"),
        }
    }

    #[test]
    fn streamed_columns_reject_hostile_bytes() {
        // Bad token.
        let err = read_status_columns(b"0 1 2\n").unwrap_err();
        assert!(matches!(err, ObservationIoError::Parse { .. }), "{err}");
        assert!(err.to_string().contains("expected 0/1"));
        // Ragged row against the declared width.
        let text = "# diffnet status matrix: 2 processes x 4 nodes\n0 1 0 1\n1 0\n";
        let err = read_status_columns(text.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("expected 4"), "got {err}");
        // Invalid UTF-8 is a typed parse error, not a panic or io error.
        let err = read_status_columns(&[0x30, 0x20, 0xff, 0xfe, 0x0a]).unwrap_err();
        assert!(err.to_string().contains("invalid UTF-8"), "got {err}");
    }

    #[test]
    fn load_status_columns_reads_mmap_file() {
        let dir = std::env::temp_dir().join("diffnet_sim_io_cols_test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let obs = sample_obs();
        let path = dir.join("statuses.txt");
        save_status_matrix(&obs.statuses, &path).expect("save");
        let cols = load_status_columns(&path).expect("load streamed");
        assert_eq!(cols, obs.statuses.columns());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn status_header_is_read_from_the_first_line_only() {
        let dir = std::env::temp_dir().join("diffnet_sim_io_header_test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("statuses.txt");
        let long_comment = format!("# {}\n", "x".repeat(5000));
        for (text, expect) in [
            (
                "# diffnet status matrix: 3 processes x 2 nodes\n0 1\n",
                Some((3, 2)),
            ),
            (
                "  # diffnet status matrix: 7 processes x 2 nodes\r\n",
                Some((7, 2)),
            ),
            (
                "# diffnet status matrix: 1 processes x 2 nodes",
                Some((1, 2)),
            ),
            (
                "0 1\n# diffnet status matrix: 1 processes x 2 nodes\n",
                None,
            ),
            (
                "# a comment\n# diffnet status matrix: 1 processes x 2 nodes\n",
                None,
            ),
            ("# diffnet status matrix: 3 processes x 2 nodesX\n", None),
            (long_comment.as_str(), None),
            ("", None),
        ] {
            std::fs::write(&path, text).expect("write");
            assert_eq!(read_status_header(&path).expect("read"), expect, "{text:?}");
        }
        std::fs::remove_file(&path).ok();
        assert!(
            read_status_header(&path).is_err(),
            "a missing file is an error"
        );
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("diffnet_sim_io_test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let obs = sample_obs();
        let p1 = dir.join("statuses.txt");
        save_status_matrix(&obs.statuses, &p1).expect("save");
        assert_eq!(load_status_matrix(&p1).expect("load"), obs.statuses);
        let p2 = dir.join("obs.txt");
        save_observations(&obs, &p2).expect("save");
        assert_eq!(load_observations(&p2).expect("load").records, obs.records);
        std::fs::remove_file(&p1).ok();
        std::fs::remove_file(&p2).ok();
    }

    /// What an outcome of a status reader is, for comparing the two
    /// readers: the columns, or the error's variant and payload.
    fn outcome(r: Result<NodeColumns, ObservationIoError>) -> Result<NodeColumns, String> {
        r.map_err(|e| match e {
            ObservationIoError::Io(e) => format!("Io({:?})", e.kind()),
            ObservationIoError::Parse { line, message } => format!("Parse({line}, {message})"),
            ObservationIoError::Truncated {
                expected,
                found,
                offset,
            } => format!("Truncated({expected}, {found}, {offset})"),
        })
    }

    /// The byte-level column reader must agree with the reference reader:
    /// equal columns, or the same error variant on the same line.
    fn readers_agree(bytes: &[u8]) -> Result<(), String> {
        let columns = outcome(read_status_columns(bytes));
        let reference = outcome(read_status_matrix(bytes).map(|m| m.columns()));
        if columns == reference {
            Ok(())
        } else {
            Err(format!(
                "{:?}: columns {columns:?}, reference {reference:?}",
                String::from_utf8_lossy(bytes)
            ))
        }
    }

    #[test]
    fn column_reader_agrees_with_reference_on_irregular_inputs() {
        let cases: &[&[u8]] = &[
            b"# diffnet status matrix: 2 processes x 3 nodes\r\n0 1 0\r\n1 1 0\r\n",
            b"0\t1\t0\n1 \t 0\t\t1\n",
            b"0\x0B1\x0C0\n\x0B1 1 0\x0C\n",
            "0\u{A0}1 0\n1\u{2003}0\u{2003}1\u{A0}\n".as_bytes(),
            "\u{2003}# a comment behind Unicode space\n0 1\n".as_bytes(),
            b"0 1 0\n# comment in the middle\n\n   \n1 0 0\n# another\n0 0 1\n",
            b"0 1 0\n1 0 1",
            b"# diffnet status matrix: 1 processes x 3 nodes\n0 1 0\n1 0 1\n1 1 1\n",
            b"# diffnet status matrix: 5 processes x 3 nodes\n0 1 0\n1 0 1\n",
            b"0 1 0\n1 0\n",
            b"# diffnet status matrix: 2 processes x 4 nodes\n0 1 0 1\n1 0\n",
            b"0 1 0\n1 2 0\n",
            b"0 1 0\n1 01 0\n",
            b"0 1 0\n1 \x01 0\n",
            b"0 1 0\n1 \xff 0\n",
            b"\xff\n0 1\n0 1 1\n",
            b"0 1\n# diffnet status matrix: 1 processes x 3 nodes\n",
            b"0 1\n# diffnet status matrix: 2 processes x 3 nodes\n1 1\n",
            b"# diffnet status matrix: 0 processes x 5 nodes\n",
            b"# diffnet status matrix: 3 processes x 2 nodes\n0 1\n0 2\n",
            b"\r\n\r\n",
            b"",
            b"0\n1\n0\n1\n1",
            b"0 1\n\n\n\n\n\n\n\n\n1 0\n",
            b"0 1 1 0 1\n1\n1\n1\n1\n1\n1\n1\n1\n",
        ];
        for bytes in cases {
            readers_agree(bytes).unwrap_or_else(|e| panic!("{e}"));
        }
        // The irregular-but-valid cases really parse (the test is not
        // vacuously comparing two errors).
        let crlf = read_status_columns(cases[0]).expect("CRLF parses");
        assert_eq!((crlf.num_processes(), crlf.num_nodes()), (2, 3));
        let unicode = read_status_columns(cases[3]).expect("Unicode spaces parse");
        assert_eq!((unicode.num_processes(), unicode.num_nodes()), (2, 3));
        let extra = read_status_columns(cases[7]).expect("extra rows parse");
        assert_eq!(extra.num_processes(), 3);
    }

    #[test]
    fn column_reader_agrees_across_block_shapes() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        // Row counts and widths on both sides of the 64-bit word, so the
        // row blocks, their transposes and the final shrink all vary.
        let mut rng = StdRng::seed_from_u64(17);
        for beta in [1usize, 63, 64, 65, 130, 200] {
            for n in [1usize, 5, 63, 64, 65, 130] {
                let mut m = StatusMatrix::new(beta, n);
                for l in 0..beta {
                    for i in 0..n as NodeId {
                        if rng.gen::<bool>() {
                            m.set(l, i);
                        }
                    }
                }
                let mut bytes = Vec::new();
                write_status_matrix(&m, &mut bytes).expect("write");
                assert_eq!(read_status_columns(&bytes).expect("parse"), m.columns());
                // Tab separators and blank lines take the general path.
                let tabbed: Vec<u8> = bytes
                    .iter()
                    .flat_map(|&b| match b {
                        b' ' => b"\t".to_vec(),
                        b'\n' => b"\n\n".to_vec(),
                        other => vec![other],
                    })
                    .collect();
                assert_eq!(read_status_columns(&tabbed).expect("parse"), m.columns());
                readers_agree(&tabbed).unwrap_or_else(|e| panic!("{e}"));
            }
        }
    }

    /// Fragments a mutation may splice into a valid status file.
    const FRAGMENTS: &[&str] = &[
        " ",
        "\t",
        "\r\n",
        "\n",
        "\x0B",
        "\x0C",
        "\u{A0}",
        "\u{2003}",
        "#",
        "# note\n",
        "0",
        "1",
        "2",
        "\u{1}",
        "# diffnet status matrix: 3 processes x 4 nodes\n",
    ];

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(256))]

        #[test]
        fn column_reader_agrees_with_reference_under_mutation(
            seed in 0u64..10_000,
            edits in proptest::collection::vec((0usize..4096, 0usize..20, 0usize..4), 1..6),
        ) {
            use rand::rngs::StdRng;
            use rand::{Rng, SeedableRng};
            let mut rng = StdRng::seed_from_u64(seed);
            let (beta, n) = (rng.gen_range(1..6usize), rng.gen_range(1..6usize));
            let mut m = StatusMatrix::new(beta, n);
            for l in 0..beta {
                for i in 0..n as NodeId {
                    if rng.gen::<bool>() {
                        m.set(l, i);
                    }
                }
            }
            let mut bytes = Vec::new();
            write_status_matrix(&m, &mut bytes).expect("write");
            for (at, what, how) in edits {
                let at = at % (bytes.len() + 1);
                match how {
                    // Insert a fragment (possibly splitting a multi-byte
                    // character that an earlier edit put there).
                    0 | 1 => {
                        let frag = FRAGMENTS[what % FRAGMENTS.len()].as_bytes();
                        bytes.splice(at..at, frag.iter().copied());
                    }
                    // Delete a byte, or overwrite it with a stray byte
                    // that is never valid UTF-8 on its own.
                    2 => {
                        if at < bytes.len() {
                            bytes.remove(at);
                        }
                    }
                    _ => {
                        if at < bytes.len() {
                            bytes[at] = if what % 2 == 0 { 0xff } else { 0xa0 };
                        }
                    }
                }
            }
            if let Err(disagreement) = readers_agree(&bytes) {
                proptest::prop_assert!(false, "{disagreement}");
            }
        }
    }

    #[test]
    fn copied_rows_splice_into_a_reparsable_file() {
        // Irregular upload: CRLF, tabs, comments, a stale header, no
        // trailing newline — then a second file's rows behind it.
        let upload = b"# diffnet status matrix: 2 processes x 3 nodes\r\n0\t1 0\r\n\
                       # mid-file comment\n  \n1 1 0";
        let batch = b"# diffnet status matrix: 1 processes x 3 nodes\n0 0 1\n";
        let mut spliced = Vec::new();
        write_status_header(&mut spliced, 3, 3).expect("header");
        copy_status_rows(&upload[..], &mut spliced).expect("copy upload");
        copy_status_rows(&batch[..], &mut spliced).expect("copy batch");
        assert_eq!(
            spliced,
            b"# diffnet status matrix: 3 processes x 3 nodes\n0\t1 0\r\n1 1 0\n0 0 1\n"
        );
        let cols = read_status_columns(&spliced).expect("spliced file parses");
        let rows = [
            [false, true, false],
            [true, true, false],
            [false, false, true],
        ];
        let expected = StatusMatrix::from_rows(&rows.map(|r| r.to_vec()));
        assert_eq!(cols, expected.columns());
    }
}
