//! On-disk partitioned datasets: a directory of chunked row files.
//!
//! The bulk-ingestion input format (datamap-rs direction, see PAPERS.md):
//! a dataset is a directory of fixed-size *chunk files*, each carrying a
//! self-describing header with per-column `[min, max]` ranges. A loader
//! partitions the *file set* — not the rows — by intersecting each
//! chunk's routing-column range with the cluster's shard slabs, so a
//! range-sorted dataset lets every loader thread read only the files
//! that feed its shards.
//!
//! ## Chunk file format (`JRC1`)
//!
//! Little-endian throughout:
//!
//! ```text
//! magic   4 bytes  "JRC1"
//! arity   u32      values per row
//! count   u32      rows in this chunk (> 0)
//! ranges  arity × (min f64, max f64)   per-column value ranges
//! rows    count × (id u64, arity × f64)
//! ```
//!
//! A file is therefore exactly `12 + 16·arity + count·8·(1 + arity)`
//! bytes, and the readers reject any other length as
//! `JanusError::Storage` before allocating for `count` rows.
//!
//! Floats are stored via `to_bits`, so a write→read round trip is
//! bit-exact — the contract the loader's bit-identity tests lean on.
//! Chunk files sort lexicographically (`chunk-00000.jrc`, …), and that
//! order is the dataset's canonical row order.

use janus_common::{JanusError, Result, Row};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rand_distr::{Distribution, LogNormal, Normal};
use std::fs::{self, File};
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};

/// Chunk-file magic: Janus Row Chunk, version 1.
const MAGIC: &[u8; 4] = b"JRC1";

fn io_err(context: &str, e: std::io::Error) -> JanusError {
    JanusError::Storage(format!("{context}: {e}"))
}

/// Per-column value distribution of a generated dataset.
#[derive(Clone, Copy, Debug)]
pub enum ValueDistribution {
    /// Uniform over `[lo, hi)`.
    Uniform {
        /// Inclusive lower bound.
        lo: f64,
        /// Exclusive upper bound.
        hi: f64,
    },
    /// Gaussian.
    Normal {
        /// Mean.
        mean: f64,
        /// Standard deviation.
        std_dev: f64,
    },
    /// Log-normal (heavy right tail — NYC-taxi-like value columns).
    LogNormal {
        /// Mean of the underlying normal.
        mu: f64,
        /// Std-dev of the underlying normal.
        sigma: f64,
    },
}

/// Shape of a generated partitioned dataset.
#[derive(Clone, Debug)]
pub struct PartitionedSpec {
    /// Total rows (ids `0..rows`).
    pub rows: usize,
    /// Rows per chunk file (the last chunk may be smaller).
    pub chunk_rows: usize,
    /// Values per row.
    pub arity: usize,
    /// RNG seed; generation is deterministic in it.
    pub seed: u64,
    /// Distribution every column draws from.
    pub distribution: ValueDistribution,
    /// When set, rows are sorted by this column (ties by id) before
    /// chunking, so each chunk covers a narrow slab of that column —
    /// the layout that makes shard-affine file partitioning effective.
    pub sort_by: Option<usize>,
}

impl PartitionedSpec {
    /// A `rows`-row, 2-column dataset uniform over `[0, 100)`, sorted by
    /// column 0 — the shape the loader tests and bench sweep use.
    pub fn uniform_sorted(rows: usize, chunk_rows: usize, seed: u64) -> Self {
        PartitionedSpec {
            rows,
            chunk_rows,
            arity: 2,
            seed,
            distribution: ValueDistribution::Uniform { lo: 0.0, hi: 100.0 },
            sort_by: Some(0),
        }
    }
}

/// Header of one chunk file: row shape plus per-column value ranges.
#[derive(Clone, Debug, PartialEq)]
pub struct ChunkHeader {
    /// Values per row.
    pub arity: usize,
    /// Rows in the chunk.
    pub rows: usize,
    /// Per-column minimum value.
    pub min: Vec<f64>,
    /// Per-column maximum value.
    pub max: Vec<f64>,
}

/// Generates a partitioned dataset into `dir` (created if missing):
/// deterministic in `spec.seed`, rows with ids `0..spec.rows`, written as
/// chunk files of `spec.chunk_rows`. Returns the chunk paths in canonical
/// (sorted) order.
pub fn generate_partitioned(dir: &Path, spec: &PartitionedSpec) -> Result<Vec<PathBuf>> {
    if spec.arity == 0 || spec.rows == 0 || spec.chunk_rows == 0 {
        return Err(JanusError::InvalidConfig(
            "partitioned dataset needs rows, chunk_rows, and arity all > 0".into(),
        ));
    }
    if let Some(col) = spec.sort_by {
        if col >= spec.arity {
            return Err(JanusError::InvalidConfig(format!(
                "sort_by column {col} out of arity {}",
                spec.arity
            )));
        }
    }
    let mut rng = SmallRng::seed_from_u64(spec.seed ^ 0xc4b1c);
    let normal = Normal::new(0.0, 1.0).unwrap();
    let mut rows = Vec::with_capacity(spec.rows);
    for id in 0..spec.rows as u64 {
        let values = (0..spec.arity)
            .map(|_| match spec.distribution {
                ValueDistribution::Uniform { lo, hi } => rng.gen_range(lo..hi),
                ValueDistribution::Normal { mean, std_dev } => {
                    mean + std_dev * normal.sample(&mut rng)
                }
                ValueDistribution::LogNormal { mu, sigma } => {
                    LogNormal::new(mu, sigma).unwrap().sample(&mut rng)
                }
            })
            .collect();
        rows.push(Row::new(id, values));
    }
    if let Some(col) = spec.sort_by {
        rows.sort_by(|a, b| a.value(col).total_cmp(&b.value(col)).then(a.id.cmp(&b.id)));
    }
    write_rows_chunked(dir, &rows, spec.chunk_rows)
}

/// Writes `rows` into `dir` as chunk files of `chunk_rows` rows each, in
/// the given order (the canonical order [`list_chunks`] reproduces).
/// Returns the chunk paths in that order.
pub fn write_rows_chunked(dir: &Path, rows: &[Row], chunk_rows: usize) -> Result<Vec<PathBuf>> {
    if chunk_rows == 0 {
        return Err(JanusError::InvalidConfig("chunk_rows must be > 0".into()));
    }
    fs::create_dir_all(dir).map_err(|e| io_err("create dataset dir", e))?;
    let mut paths = Vec::new();
    for (i, chunk) in rows.chunks(chunk_rows).enumerate() {
        let path = dir.join(format!("chunk-{i:05}.jrc"));
        write_chunk(&path, chunk)?;
        paths.push(path);
    }
    Ok(paths)
}

/// Writes one chunk file (non-empty `rows`, uniform arity).
pub fn write_chunk(path: &Path, rows: &[Row]) -> Result<()> {
    let Some(first) = rows.first() else {
        return Err(JanusError::InvalidConfig("empty chunk".into()));
    };
    let arity = first.arity();
    if rows.iter().any(|r| r.arity() != arity) {
        return Err(JanusError::InvalidConfig("mixed-arity chunk".into()));
    }
    let mut min = vec![f64::INFINITY; arity];
    let mut max = vec![f64::NEG_INFINITY; arity];
    for row in rows {
        for (c, &v) in row.values.iter().enumerate() {
            min[c] = min[c].min(v);
            max[c] = max[c].max(v);
        }
    }
    let file = File::create(path).map_err(|e| io_err("create chunk", e))?;
    let mut w = BufWriter::new(file);
    let ctx = "write chunk";
    w.write_all(MAGIC).map_err(|e| io_err(ctx, e))?;
    w.write_all(&(arity as u32).to_le_bytes())
        .map_err(|e| io_err(ctx, e))?;
    w.write_all(&(rows.len() as u32).to_le_bytes())
        .map_err(|e| io_err(ctx, e))?;
    for c in 0..arity {
        w.write_all(&min[c].to_bits().to_le_bytes())
            .map_err(|e| io_err(ctx, e))?;
        w.write_all(&max[c].to_bits().to_le_bytes())
            .map_err(|e| io_err(ctx, e))?;
    }
    for row in rows {
        w.write_all(&row.id.to_le_bytes())
            .map_err(|e| io_err(ctx, e))?;
        for &v in &row.values {
            w.write_all(&v.to_bits().to_le_bytes())
                .map_err(|e| io_err(ctx, e))?;
        }
    }
    w.flush().map_err(|e| io_err(ctx, e))
}

/// The chunk files of a dataset directory, in canonical (lexicographic
/// file-name) order — the dataset's row order.
pub fn list_chunks(dir: &Path) -> Result<Vec<PathBuf>> {
    let entries = fs::read_dir(dir).map_err(|e| io_err("read dataset dir", e))?;
    let mut paths: Vec<PathBuf> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "jrc"))
        .collect();
    paths.sort();
    Ok(paths)
}

fn open_chunk(path: &Path) -> Result<(File, u64)> {
    let file = File::open(path).map_err(|e| io_err("open chunk", e))?;
    let len = file.metadata().map_err(|e| io_err("stat chunk", e))?.len();
    Ok((file, len))
}

fn read_exact_buf<const N: usize>(r: &mut impl Read, ctx: &str) -> Result<[u8; N]> {
    let mut buf = [0u8; N];
    r.read_exact(&mut buf).map_err(|e| io_err(ctx, e))?;
    Ok(buf)
}

/// The exact byte length of a chunk file of `rows` rows of `arity`
/// values: 12 fixed bytes (magic, arity, count), the ranges, the rows.
fn chunk_file_len(arity: usize, rows: usize) -> u128 {
    let (arity, rows) = (arity as u128, rows as u128);
    12 + 16 * arity + rows * 8 * (1 + arity)
}

/// Reads a chunk header and checks its row count against the file's
/// length, so a corrupt count is a typed error rather than an allocation
/// sized by it.
fn read_header_from(r: &mut impl Read, path: &Path, file_len: u64) -> Result<ChunkHeader> {
    let ctx = "read chunk header";
    let magic: [u8; 4] = read_exact_buf(r, ctx)?;
    if &magic != MAGIC {
        return Err(JanusError::Storage(format!(
            "{} is not a JRC1 chunk file",
            path.display()
        )));
    }
    let arity = u32::from_le_bytes(read_exact_buf(r, ctx)?) as usize;
    let rows = u32::from_le_bytes(read_exact_buf(r, ctx)?) as usize;
    if arity == 0 || rows == 0 {
        return Err(JanusError::Storage(format!(
            "{} has a degenerate header (arity {arity}, rows {rows})",
            path.display()
        )));
    }
    let expected = chunk_file_len(arity, rows);
    if expected != u128::from(file_len) {
        return Err(JanusError::Storage(format!(
            "{} is {file_len} bytes but its header (arity {arity}, rows {rows}) needs {expected}",
            path.display()
        )));
    }
    let mut min = Vec::with_capacity(arity);
    let mut max = Vec::with_capacity(arity);
    for _ in 0..arity {
        min.push(f64::from_bits(u64::from_le_bytes(read_exact_buf(r, ctx)?)));
        max.push(f64::from_bits(u64::from_le_bytes(read_exact_buf(r, ctx)?)));
    }
    Ok(ChunkHeader {
        arity,
        rows,
        min,
        max,
    })
}

/// Reads only a chunk's header — what the loader's file-partitioning
/// pass does for every chunk before deciding which threads read which
/// files (a few dozen bytes per file, never the rows).
pub fn read_chunk_header(path: &Path) -> Result<ChunkHeader> {
    let (file, len) = open_chunk(path)?;
    read_header_from(&mut BufReader::new(file), path, len)
}

/// Reads a whole chunk file: header plus rows, bit-exact.
pub fn read_chunk(path: &Path) -> Result<(ChunkHeader, Vec<Row>)> {
    let (file, len) = open_chunk(path)?;
    let mut r = BufReader::new(file);
    let header = read_header_from(&mut r, path, len)?;
    let ctx = "read chunk rows";
    let mut rows = Vec::with_capacity(header.rows);
    for _ in 0..header.rows {
        let id = u64::from_le_bytes(read_exact_buf(&mut r, ctx)?);
        let values = (0..header.arity)
            .map(|_| {
                Ok(f64::from_bits(u64::from_le_bytes(read_exact_buf(
                    &mut r, ctx,
                )?)))
            })
            .collect::<Result<Vec<f64>>>()?;
        rows.push(Row::new(id, values));
    }
    Ok((header, rows))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("janus-partitioned-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn generation_is_deterministic_and_round_trips() {
        let spec = PartitionedSpec::uniform_sorted(1_000, 128, 7);
        let dir_a = temp_dir("det-a");
        let dir_b = temp_dir("det-b");
        let paths_a = generate_partitioned(&dir_a, &spec).unwrap();
        let paths_b = generate_partitioned(&dir_b, &spec).unwrap();
        assert_eq!(paths_a.len(), 8, "1000 rows / 128 per chunk");
        let read_all = |paths: &[PathBuf]| -> Vec<Row> {
            paths
                .iter()
                .flat_map(|p| read_chunk(p).unwrap().1)
                .collect()
        };
        let rows_a = read_all(&paths_a);
        let rows_b = read_all(&paths_b);
        assert_eq!(rows_a, rows_b, "same seed, same bits");
        assert_eq!(rows_a.len(), 1_000);
        // Sorted layout: canonical order is ascending in column 0.
        assert!(rows_a.windows(2).all(|w| w[0].value(0) <= w[1].value(0)));
        // All ids present exactly once.
        let mut ids: Vec<u64> = rows_a.iter().map(|r| r.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..1_000).collect::<Vec<_>>());
        let _ = fs::remove_dir_all(&dir_a);
        let _ = fs::remove_dir_all(&dir_b);
    }

    #[test]
    fn headers_carry_tight_ranges_and_listing_is_canonical() {
        let dir = temp_dir("hdr");
        let rows: Vec<Row> = (0..300u64)
            .map(|id| Row::new(id, vec![id as f64, -(id as f64)]))
            .collect();
        let paths = write_rows_chunked(&dir, &rows, 100).unwrap();
        assert_eq!(list_chunks(&dir).unwrap(), paths, "sorted == write order");
        for (i, path) in paths.iter().enumerate() {
            let header = read_chunk_header(path).unwrap();
            assert_eq!(header.rows, 100);
            assert_eq!(header.arity, 2);
            assert_eq!(header.min[0], (i * 100) as f64);
            assert_eq!(header.max[0], (i * 100 + 99) as f64);
            assert_eq!(header.max[1], -(i as f64 * 100.0));
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn malformed_inputs_are_rejected() {
        let dir = temp_dir("bad");
        fs::create_dir_all(&dir).unwrap();
        assert!(write_chunk(&dir.join("x.jrc"), &[]).is_err(), "empty chunk");
        let bogus = dir.join("bogus.jrc");
        fs::write(&bogus, b"not a chunk at all").unwrap();
        assert!(read_chunk_header(&bogus).is_err(), "bad magic");
        // A 52-byte file whose header claims u32::MAX rows: a typed error,
        // not an allocation sized by the count.
        let huge = dir.join("huge.jrc");
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&2u32.to_le_bytes());
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.resize(52, 0);
        fs::write(&huge, &bytes).unwrap();
        assert!(matches!(
            read_chunk_header(&huge),
            Err(JanusError::Storage(_))
        ));
        assert!(matches!(read_chunk(&huge), Err(JanusError::Storage(_))));
        // A valid chunk cut short by a few bytes.
        let cut = dir.join("cut.jrc");
        let rows: Vec<Row> = (0..3u64).map(|id| Row::new(id, vec![id as f64])).collect();
        write_chunk(&cut, &rows).unwrap();
        assert_eq!(read_chunk(&cut).unwrap().1, rows);
        let full = fs::read(&cut).unwrap();
        fs::write(&cut, &full[..full.len() - 5]).unwrap();
        assert!(matches!(
            read_chunk_header(&cut),
            Err(JanusError::Storage(_))
        ));
        assert!(matches!(read_chunk(&cut), Err(JanusError::Storage(_))));
        let spec = PartitionedSpec {
            sort_by: Some(9),
            ..PartitionedSpec::uniform_sorted(10, 5, 1)
        };
        assert!(generate_partitioned(&dir, &spec).is_err(), "bad sort col");
        let _ = fs::remove_dir_all(&dir);
    }
}
