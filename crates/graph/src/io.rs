//! Plain edge-list I/O.
//!
//! The on-disk format is one directed edge per line, `source target`,
//! separated by whitespace or a comma; `#`-prefixed lines are comments,
//! of which `# nodes: N` and `# edges: M` declare the graph's size.
//! This matches how NetSci, DUNF and most SNAP-style datasets are
//! distributed, so real data can be dropped into the experiment harness.

use crate::{DiGraph, GraphBuilder, NodeId};
use std::fmt;
use std::fs;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::path::Path;

/// Errors from edge-list parsing.
#[derive(Debug)]
pub enum EdgeListError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// A line that is neither a comment nor a valid edge.
    Parse {
        /// 1-based line number.
        line: usize,
        /// The offending content.
        content: String,
    },
    /// An endpoint not in `0..n` for the declared node count.
    OutOfRange {
        /// 1-based line number.
        line: usize,
        /// The offending node id.
        node: u64,
        /// The declared node count.
        n: usize,
    },
    /// The file declared more edges than it contained — the tail was cut
    /// off, e.g. by a crash during a non-atomic write.
    Truncated {
        /// Edge count declared in the `# edges:` header.
        expected: usize,
        /// Edges actually present.
        found: usize,
        /// Byte offset where input ended.
        offset: usize,
    },
}

impl fmt::Display for EdgeListError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EdgeListError::Io(e) => write!(f, "edge list I/O error: {e}"),
            EdgeListError::Parse { line, content } => {
                write!(f, "edge list parse error at line {line}: {content:?}")
            }
            EdgeListError::OutOfRange { line, node, n } => write!(
                f,
                "edge list node {node} at line {line} out of range for n = {n}"
            ),
            EdgeListError::Truncated {
                expected,
                found,
                offset,
            } => write!(
                f,
                "edge list truncated at byte {offset}: header declares {expected} edges, found {found}"
            ),
        }
    }
}

impl std::error::Error for EdgeListError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EdgeListError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for EdgeListError {
    fn from(e: io::Error) -> Self {
        EdgeListError::Io(e)
    }
}

/// Parses a directed edge list from a reader.
///
/// If `n` is `Some`, endpoints must lie in `0..n`. If `None`, a
/// `# nodes: N` header (as [`write_edge_list`] writes) sets the node
/// count, so nodes past the last edge endpoint are kept, and endpoints
/// must lie in `0..N`; without one the node count is `1 + max id` seen.
pub fn read_edge_list<R: Read>(reader: R, n: Option<usize>) -> Result<DiGraph, EdgeListError> {
    let mut buf = BufReader::new(reader);
    // Each edge with the 1-based file line it came from, for errors.
    let mut edges: Vec<(u64, u64, usize)> = Vec::new();
    let mut max_id: u64 = 0;
    let mut declared_edges: Option<usize> = None;
    let mut declared_nodes: Option<usize> = None;
    let mut offset = 0usize;
    let mut lineno = 0usize;
    let mut line = String::new();

    loop {
        line.clear();
        let read = buf.read_line(&mut line)?;
        if read == 0 {
            break;
        }
        offset += read;
        lineno += 1;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            let comment = trimmed.trim_start_matches('#').trim_start();
            if let Some(rest) = comment.strip_prefix("edges:") {
                declared_edges = rest.trim().parse().ok();
            } else if let Some(rest) = comment.strip_prefix("nodes:") {
                declared_nodes = rest.trim().parse().ok();
            }
            continue;
        }
        let mut parts = trimmed
            .split(|c: char| c.is_whitespace() || c == ',')
            .filter(|p| !p.is_empty());
        let parse = |tok: Option<&str>| -> Option<u64> { tok?.parse().ok() };
        match (parse(parts.next()), parse(parts.next())) {
            (Some(u), Some(v)) => {
                max_id = max_id.max(u).max(v);
                edges.push((u, v, lineno));
            }
            _ => {
                return Err(EdgeListError::Parse {
                    line: lineno,
                    content: trimmed.to_owned(),
                })
            }
        }
    }

    if let Some(expected) = declared_edges {
        if edges.len() < expected {
            return Err(EdgeListError::Truncated {
                expected,
                found: edges.len(),
                offset,
            });
        }
    }

    let node_count = match n.or(declared_nodes) {
        Some(n) => n,
        None => {
            if edges.is_empty() {
                0
            } else {
                (max_id + 1) as usize
            }
        }
    };

    let mut b = GraphBuilder::new(node_count);
    for &(u, v, line) in &edges {
        for node in [u, v] {
            if node as usize >= node_count {
                return Err(EdgeListError::OutOfRange {
                    line,
                    node,
                    n: node_count,
                });
            }
        }
        b.add_edge(u as NodeId, v as NodeId);
    }
    Ok(b.build())
}

/// Reads a directed edge list from a file. See [`read_edge_list`].
pub fn load_edge_list<P: AsRef<Path>>(path: P, n: Option<usize>) -> Result<DiGraph, EdgeListError> {
    let file = fs::File::open(path)?;
    read_edge_list(file, n)
}

/// Writes `g` as an edge list (`u v` per line) with a node-count header
/// comment.
pub fn write_edge_list<W: Write>(g: &DiGraph, mut writer: W) -> io::Result<()> {
    writeln!(writer, "# nodes: {}", g.node_count())?;
    writeln!(writer, "# edges: {}", g.edge_count())?;
    for (u, v) in g.edges() {
        writeln!(writer, "{u} {v}")?;
    }
    Ok(())
}

/// Writes a file atomically: content goes to a temporary sibling which is
/// renamed over `path` only after a successful flush + sync, so a crash
/// mid-write can never leave a truncated file at the destination.
pub fn save_atomic<P: AsRef<Path>, F>(path: P, write: F) -> io::Result<()>
where
    F: FnOnce(&mut dyn Write) -> io::Result<()>,
{
    let path = path.as_ref();
    let mut tmp_name = path.as_os_str().to_owned();
    tmp_name.push(format!(".tmp.{}", std::process::id()));
    let tmp = std::path::PathBuf::from(tmp_name);
    let result = (|| {
        let file = fs::File::create(&tmp)?;
        let mut w = io::BufWriter::new(file);
        write(&mut w)?;
        w.flush()?;
        // `sync_data` persists the bytes and the file size — everything the
        // rename-over semantics need — without forcing a metadata journal
        // commit (timestamps, etc.) the way `sync_all` does; on ext4 that
        // halves the sync cost of small atomic saves.
        w.into_inner()
            .map_err(io::IntoInnerError::into_error)?
            .sync_data()?;
        fs::rename(&tmp, path)
    })();
    if result.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    result
}

/// Writes `g` to a file as an edge list via an atomic temp-then-rename
/// save. See [`write_edge_list`] and [`save_atomic`].
pub fn save_edge_list<P: AsRef<Path>>(g: &DiGraph, path: P) -> io::Result<()> {
    save_atomic(path, |w| write_edge_list(g, w))
}

/// Writes `g` in Graphviz DOT format (`digraph`), optionally highlighting
/// a set of edges (e.g. true positives of an inference) in a second color.
///
/// Node ids are used as labels; render with `dot -Tsvg`.
pub fn write_dot<W: Write>(
    g: &DiGraph,
    highlight: Option<&DiGraph>,
    mut writer: W,
) -> io::Result<()> {
    if let Some(h) = highlight {
        assert_eq!(
            h.node_count(),
            g.node_count(),
            "highlight graph must share the node set"
        );
    }
    writeln!(writer, "digraph diffnet {{")?;
    writeln!(writer, "  node [shape=circle, fontsize=10];")?;
    for (u, v) in g.edges() {
        let highlighted = highlight.is_some_and(|h| h.has_edge(u, v));
        if highlighted {
            writeln!(writer, "  {u} -> {v} [color=\"#2c7fb8\", penwidth=2];")?;
        } else {
            writeln!(writer, "  {u} -> {v};")?;
        }
    }
    writeln!(writer, "}}")
}

/// Writes `g` as a DOT file. See [`write_dot`].
pub fn save_dot<P: AsRef<Path>>(
    g: &DiGraph,
    highlight: Option<&DiGraph>,
    path: P,
) -> io::Result<()> {
    save_atomic(path, |w| write_dot(g, highlight, w))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_output_is_well_formed() {
        let g = DiGraph::from_edges(3, &[(0, 1), (1, 2)]);
        let mut buf = Vec::new();
        write_dot(&g, None, &mut buf).expect("write");
        let text = String::from_utf8(buf).expect("utf8");
        assert!(text.starts_with("digraph"));
        assert!(text.contains("0 -> 1;"));
        assert!(text.contains("1 -> 2;"));
        assert!(text.trim_end().ends_with('}'));
    }

    #[test]
    fn dot_highlights_marked_edges() {
        let g = DiGraph::from_edges(3, &[(0, 1), (1, 2)]);
        let mark = DiGraph::from_edges(3, &[(1, 2)]);
        let mut buf = Vec::new();
        write_dot(&g, Some(&mark), &mut buf).expect("write");
        let text = String::from_utf8(buf).expect("utf8");
        assert!(text.contains("0 -> 1;"));
        assert!(text.contains("1 -> 2 [color="));
    }

    #[test]
    fn round_trip() {
        let g = DiGraph::from_edges(4, &[(0, 1), (2, 3), (3, 0)]);
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).expect("in-memory write");
        let parsed = read_edge_list(buf.as_slice(), Some(4)).expect("parse back");
        assert_eq!(parsed, g);
    }

    #[test]
    fn comments_and_blank_lines_skipped() {
        let text = "# a comment\n\n0 1\n# another\n1 2\n";
        let g = read_edge_list(text.as_bytes(), None).expect("parse");
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.node_count(), 3);
    }

    #[test]
    fn commas_and_tabs_accepted() {
        let text = "0,1\n1\t2\n";
        let g = read_edge_list(text.as_bytes(), None).expect("parse");
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn node_count_inferred_from_max_id() {
        let text = "0 7\n";
        let g = read_edge_list(text.as_bytes(), None).expect("parse");
        assert_eq!(g.node_count(), 8);
    }

    #[test]
    fn node_header_sets_the_count_when_none_is_given() {
        // Nodes 3 and 4 have no edge: only the header knows about them.
        let g = DiGraph::from_edges(5, &[(0, 1), (2, 1)]);
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).expect("in-memory write");
        let parsed = read_edge_list(buf.as_slice(), None).expect("parse back");
        assert_eq!(parsed.node_count(), 5);
        assert_eq!(parsed, g);
        // An explicit count still wins over the header.
        let wider = read_edge_list(buf.as_slice(), Some(7)).expect("parse");
        assert_eq!(wider.node_count(), 7);
        // No edges at all: the header alone sizes the graph.
        let empty = read_edge_list("# nodes: 31\n# edges: 0\n".as_bytes(), None).expect("parse");
        assert_eq!((empty.node_count(), empty.edge_count()), (31, 0));
        // An endpoint past the declared count is out of range.
        match read_edge_list("# nodes: 3\n0 1\n1 3\n".as_bytes(), None) {
            Err(EdgeListError::OutOfRange { node, n, .. }) => assert_eq!((node, n), (3, 3)),
            other => panic!("expected out-of-range error, got {other:?}"),
        }
    }

    #[test]
    fn bad_line_reports_position() {
        let text = "0 1\nnot an edge\n";
        match read_edge_list(text.as_bytes(), None) {
            Err(EdgeListError::Parse { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn out_of_range_reports_the_file_line() {
        // Header, comment and blank lines sit between the edges, so the
        // bad edge's ordinal (3) is not its line (6).
        let text = "# nodes: 3\n0 1\n# a comment\n\n1 2\n2 3\n";
        match read_edge_list(text.as_bytes(), None) {
            Err(EdgeListError::OutOfRange { line, node, n }) => {
                assert_eq!((line, node, n), (6, 3, 3));
            }
            other => panic!("expected out-of-range error, got {other:?}"),
        }
        match read_edge_list("# nodes: 3\n0 1\n1 3\n".as_bytes(), None) {
            Err(EdgeListError::OutOfRange { line, .. }) => assert_eq!(line, 3),
            other => panic!("expected out-of-range error, got {other:?}"),
        }
    }

    #[test]
    fn out_of_range_detected() {
        let text = "0 9\n";
        match read_edge_list(text.as_bytes(), Some(5)) {
            Err(EdgeListError::OutOfRange { node, n, .. }) => {
                assert_eq!(node, 9);
                assert_eq!(n, 5);
            }
            other => panic!("expected out-of-range error, got {other:?}"),
        }
    }

    #[test]
    fn empty_input() {
        let g = read_edge_list("".as_bytes(), None).expect("parse");
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn truncated_edge_list_reports_byte_offset() {
        let g = DiGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).expect("write");
        // Cut the file after the second edge line, as a crashed
        // non-atomic writer would.
        let cut = buf.len() - 4;
        match read_edge_list(&buf[..cut], Some(4)) {
            Err(EdgeListError::Truncated {
                expected,
                found,
                offset,
            }) => {
                assert_eq!(expected, 3);
                assert_eq!(found, 2);
                assert_eq!(offset, cut);
            }
            other => panic!("expected truncation error, got {other:?}"),
        }
        let msg = read_edge_list(&buf[..cut], Some(4))
            .unwrap_err()
            .to_string();
        assert!(msg.contains("byte"), "offset missing from {msg:?}");
    }

    #[test]
    fn legacy_headerless_edge_list_still_loads() {
        let g = read_edge_list("0 1\n1 2\n".as_bytes(), None).expect("parse");
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn save_atomic_failure_leaves_no_partial_file() {
        let dir = std::env::temp_dir().join("diffnet_graph_atomic_test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("out.edges");
        std::fs::write(&path, "original").expect("seed file");
        let err = save_atomic(&path, |w| {
            w.write_all(b"partial")?;
            Err(io::Error::other("injected failure"))
        });
        assert!(err.is_err());
        // The destination is untouched and no temp file remains.
        assert_eq!(std::fs::read_to_string(&path).expect("read"), "original");
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .expect("read dir")
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "temp files left: {leftovers:?}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("diffnet_graph_io_test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("g.edges");
        let g = DiGraph::from_edges(3, &[(0, 1), (1, 2)]);
        save_edge_list(&g, &path).expect("save");
        let back = load_edge_list(&path, Some(3)).expect("load");
        assert_eq!(back, g);
        std::fs::remove_file(&path).ok();
    }
}
