//! Multi-task data alignment strategies (§3.5, Fig 12).
//!
//! Spatially batched tasks must agree on a per-row sequence length. Three
//! strategies are modeled:
//!
//! * **ZeroPadGlobalMax** — pad every sequence of every task to the global
//!   maximum (the SL-PEFT behaviour): massive *inter-task* ineffective
//!   tokens.
//! * **PackOnly** — pack sequences into global-max-length rows: dense, but
//!   wastes attention computation across packed sequences and produces
//!   long rows (coarse pipeline granularity).
//! * **ChunkBased** — MuxTune: per-task packing, then uniform chunk
//!   partitioning with KV-reuse dependencies.

use crate::chunk::{chunk_packs, chunk_size_rule};
use crate::packing::{pack_ffd, PackError};

/// Why a set of task batches could not be aligned.
///
/// Alignment runs on the job-admission path of a multi-tenant service, so
/// bad tenant input (an empty task set, a zero cap, an un-truncated
/// oversize sequence) must surface as a value the caller can attach to the
/// offending job — never as a panic that takes down co-tenants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlignError {
    /// No tasks were supplied.
    NoTasks,
    /// A chunked strategy was asked to use chunk size zero.
    ZeroChunk,
    /// Packing failed (oversize sequence or zero capacity).
    Pack(PackError),
}

impl std::fmt::Display for AlignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AlignError::NoTasks => write!(f, "no tasks to align"),
            AlignError::ZeroChunk => write!(f, "chunk size must be positive"),
            AlignError::Pack(e) => write!(f, "packing failed: {e}"),
        }
    }
}

impl std::error::Error for AlignError {}

impl From<PackError> for AlignError {
    fn from(e: PackError) -> Self {
        AlignError::Pack(e)
    }
}

/// A task's data contribution to one aligned global batch.
#[derive(Debug, Clone)]
pub struct TaskData {
    /// Task id (matches `mux_peft::TaskId`).
    pub task: u32,
    /// Raw sequence lengths in this global batch.
    pub seq_lens: Vec<usize>,
    /// The task's dataset cap (sequences are padded/truncated to it before
    /// inter-task alignment, and padding up to the cap is billed to the
    /// user — only *inter-task* padding is the provider's problem).
    pub cap: usize,
}

/// Alignment strategy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AlignStrategy {
    /// Pad everything to the global maximum cap.
    ZeroPadGlobalMax,
    /// Pack into global-max-length rows (no chunking).
    PackOnly,
    /// MuxTune chunk-based alignment with the given minimum chunk size.
    ChunkBased {
        /// Minimum chunk size (paper default 64).
        min_chunk: usize,
    },
    /// Chunk-based alignment with an explicitly forced chunk size
    /// (bypasses the power-of-two rule — used by the Fig 13 sweep).
    ChunkExact {
        /// The exact chunk size to partition into.
        chunk: usize,
    },
}

/// Per-task accounting after alignment.
#[derive(Debug, Clone)]
pub struct TaskAlignment {
    /// Task id.
    pub task: u32,
    /// Number of aligned rows this task contributes.
    pub rows: usize,
    /// Semantic tokens (pre-padding content).
    pub effective_tokens: u64,
    /// Intra-task padding up to the dataset cap (billable).
    pub intra_task_padding: u64,
    /// Inter-task / alignment padding (not billable — the provider's cost).
    pub inter_task_padding: u64,
    /// Cross-sequence attention-waste score entries (PackOnly pathology).
    pub attention_waste: u64,
    /// KV-cache context tokens re-read by dependent chunks (ChunkBased).
    pub kv_context_tokens: u64,
    /// Token-weighted average attention context length (what each query
    /// token attends over, including cached KV of earlier chunks).
    pub avg_attn_context: f64,
    /// Average number of sequentially dependent attention kernels per
    /// packed row (1.0 when rows fit one chunk) — smaller chunks mean more,
    /// smaller attention launches (the Fig 13 underutilization risk).
    pub attn_splits: f64,
}

/// The aligned global batch: a uniform `(rows, unit_len)` shape.
#[derive(Debug, Clone)]
pub struct AlignedBatch {
    /// Strategy used.
    pub strategy: AlignStrategy,
    /// Per-row sequence length after alignment.
    pub unit_len: usize,
    /// Per-task accounting, in input order.
    pub tasks: Vec<TaskAlignment>,
}

impl AlignedBatch {
    /// Total rows across tasks.
    pub fn total_rows(&self) -> usize {
        self.tasks.iter().map(|t| t.rows).sum()
    }

    /// Total tokens processed (rows × unit_len).
    pub fn total_tokens(&self) -> u64 {
        (self.total_rows() * self.unit_len) as u64
    }

    /// Total effective tokens.
    pub fn effective_tokens(&self) -> u64 {
        self.tasks.iter().map(|t| t.effective_tokens).sum()
    }

    /// Effective fraction: semantic tokens / processed tokens — the ratio
    /// between effective and overall throughput (Fig 20's `-E` series).
    pub fn effective_fraction(&self) -> f64 {
        let total = self.total_tokens();
        if total == 0 {
            0.0
        } else {
            self.effective_tokens() as f64 / total as f64
        }
    }
}

fn align_task_zero_pad(td: &TaskData, unit: usize) -> TaskAlignment {
    let effective: u64 = td.seq_lens.iter().map(|&l| l as u64).sum();
    let intra = (td.seq_lens.len() * td.cap) as u64 - effective;
    let inter = (td.seq_lens.len() * (unit - td.cap)) as u64;
    TaskAlignment {
        task: td.task,
        rows: td.seq_lens.len(),
        effective_tokens: effective,
        intra_task_padding: intra,
        inter_task_padding: inter,
        attention_waste: 0,
        kv_context_tokens: 0,
        // Naive padded attention computes the full unit-length context.
        avg_attn_context: unit as f64,
        attn_splits: 1.0,
    }
}

fn truncated_lens(td: &TaskData) -> Vec<usize> {
    // Sequences longer than the dataset cap are truncated (§5.1). Packing
    // operates on the *raw* lengths: it reclaims the intra-task padding a
    // pad-to-cap deployment would compute.
    td.seq_lens.iter().map(|&l| l.min(td.cap)).collect()
}

fn align_task_pack_only(td: &TaskData, unit: usize) -> Result<TaskAlignment, AlignError> {
    let raw = truncated_lens(td);
    let effective: u64 = raw.iter().map(|&l| l as u64).sum();
    let packs = pack_ffd(&raw, unit)?;
    let slack: u64 = packs.iter().map(|p| p.slack() as u64).sum();
    let waste: u64 = packs.iter().map(|p| p.cross_attention_waste()).sum();
    Ok(TaskAlignment {
        task: td.task,
        rows: packs.len(),
        effective_tokens: effective,
        intra_task_padding: 0,
        inter_task_padding: slack,
        attention_waste: waste,
        kv_context_tokens: 0,
        // Each packed row attends over its full length (the cross-sequence
        // waste [31, 52] observe).
        avg_attn_context: unit as f64,
        attn_splits: 1.0,
    })
}

fn align_task_chunked(td: &TaskData, chunk: usize) -> Result<TaskAlignment, AlignError> {
    if chunk == 0 {
        return Err(AlignError::ZeroChunk);
    }
    let raw = truncated_lens(td);
    let effective: u64 = raw.iter().map(|&l| l as u64).sum();
    // Pack within the task into dense rows sized to the cap rounded up to
    // a whole number of chunks, then partition uniformly. Rows spanning
    // multiple chunks chain through KV-cache reuse.
    let pack_cap = td.cap.div_ceil(chunk) * chunk;
    let packs = pack_ffd(&raw, pack_cap)?;
    let chunks = chunk_packs(&packs, chunk);
    let inter: u64 = chunks.iter().map(|c| c.padding as u64).sum();
    let kv: u64 = chunks.iter().map(|c| c.kv_context as u64).sum();
    // Attention statistics: chunk i of a pack attends over (i+1)*chunk
    // tokens (its own chunk plus cached KV); chunks of one pack execute
    // sequentially (KV dependency), so a pack spanning n chunks issues n
    // smaller attention kernels.
    let total_tokens: f64 = chunks.iter().map(|c| c.len() as f64).sum();
    let weighted_ctx: f64 = chunks
        .iter()
        .map(|c| (c.len() * (c.kv_context + c.len())) as f64)
        .sum();
    let n_packs = packs.len().max(1) as f64;
    let splits = chunks.len() as f64 / n_packs;
    Ok(TaskAlignment {
        task: td.task,
        rows: chunks.len(),
        effective_tokens: effective,
        intra_task_padding: 0,
        inter_task_padding: inter,
        // Chunking confines attention to chunk-local scores plus cached KV
        // of the same pack, mitigating the cross-sequence waste of plain
        // packing (Fig 12c).
        attention_waste: 0,
        kv_context_tokens: kv,
        avg_attn_context: if total_tokens > 0.0 {
            weighted_ctx / total_tokens
        } else {
            chunk as f64
        },
        attn_splits: splits.max(1.0),
    })
}

/// The per-row length a set of tasks with dataset caps `caps` aligns to
/// under `strategy` — the first of alignment's two steps.
///
/// # Errors
/// [`AlignError::NoTasks`] when `caps` is empty.
pub fn unit_len(strategy: AlignStrategy, caps: &[usize]) -> Result<usize, AlignError> {
    let global_max = caps.iter().copied().max().ok_or(AlignError::NoTasks)?;
    Ok(match strategy {
        AlignStrategy::ZeroPadGlobalMax | AlignStrategy::PackOnly => global_max,
        AlignStrategy::ChunkBased { min_chunk } => chunk_size_rule(caps, min_chunk),
        AlignStrategy::ChunkExact { chunk } => chunk,
    })
}

/// One task's alignment at row length `unit`, the [`unit_len`] of a task
/// set containing it — the second step, which depends on no other task, so
/// a caller aligning many overlapping task sets at few distinct units can
/// pack each `(task, unit)` once.
///
/// # Errors
/// [`AlignError::ZeroChunk`] for a chunked strategy at `unit == 0`, and
/// packing failures.
pub fn align_task(
    td: &TaskData,
    strategy: AlignStrategy,
    unit: usize,
) -> Result<TaskAlignment, AlignError> {
    match strategy {
        AlignStrategy::ZeroPadGlobalMax => Ok(align_task_zero_pad(td, unit)),
        AlignStrategy::PackOnly => align_task_pack_only(td, unit),
        AlignStrategy::ChunkBased { .. } | AlignStrategy::ChunkExact { .. } => {
            align_task_chunked(td, unit)
        }
    }
}

/// Aligns the global batches of spatially fused tasks: [`unit_len`] over
/// their caps, then [`align_task`] for each task at that unit.
///
/// # Errors
/// Returns [`AlignError`] on bad tenant input — an empty task set, a zero
/// chunk size, or packing failures — instead of panicking, so callers on
/// the job-admission path can reject only the offending job.
pub fn align(tasks: &[TaskData], strategy: AlignStrategy) -> Result<AlignedBatch, AlignError> {
    let caps: Vec<usize> = tasks.iter().map(|t| t.cap).collect();
    let unit_len = unit_len(strategy, &caps)?;
    Ok(AlignedBatch {
        strategy,
        unit_len,
        tasks: tasks
            .iter()
            .map(|t| align_task(t, strategy, unit_len))
            .collect::<Result<_, _>>()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::{Corpus, DatasetKind};

    fn task_from(kind: DatasetKind, n: usize, seed: u64, id: u32) -> TaskData {
        let c = Corpus::generate(kind, n, seed);
        TaskData {
            task: id,
            seq_lens: c.lengths,
            cap: kind.max_len(),
        }
    }

    #[test]
    fn zero_pad_charges_short_tasks_heavily() {
        // An SST2 task (cap 64) aligned with an RTE task (cap 256) pays
        // 192 inter-task pad tokens per sequence under ZeroPad.
        let tasks = vec![
            task_from(DatasetKind::Sst2, 8, 1, 1),
            task_from(DatasetKind::Rte, 8, 2, 2),
        ];
        let a = align(&tasks, AlignStrategy::ZeroPadGlobalMax).expect("aligns");
        assert_eq!(a.unit_len, 256);
        assert_eq!(a.tasks[0].inter_task_padding, 8 * 192);
        assert_eq!(a.tasks[1].inter_task_padding, 0);
    }

    #[test]
    fn chunking_keeps_inter_task_padding_below_one_chunk_per_pack() {
        // SST2 (64) + QA (128) with chunk 64: only each pack's final chunk
        // may pad, so padding stays far below ZeroPad's (Fig 20a regime).
        let tasks = vec![
            task_from(DatasetKind::Sst2, 16, 3, 1),
            task_from(DatasetKind::OpenBookQa, 16, 4, 2),
        ];
        let a = align(&tasks, AlignStrategy::ChunkBased { min_chunk: 64 }).expect("aligns");
        assert_eq!(a.unit_len, 64);
        let zp = align(&tasks, AlignStrategy::ZeroPadGlobalMax).expect("aligns");
        let pad_cb: u64 = a.tasks.iter().map(|t| t.inter_task_padding).sum();
        let pad_zp: u64 = zp
            .tasks
            .iter()
            .map(|t| t.inter_task_padding + t.intra_task_padding)
            .sum();
        assert!(
            pad_cb * 3 < pad_zp,
            "chunked pad {pad_cb} vs zero-pad {pad_zp}"
        );
    }

    #[test]
    fn chunk_based_beats_zero_pad_on_effective_fraction() {
        let tasks = vec![
            task_from(DatasetKind::Sst2, 16, 5, 1),
            task_from(DatasetKind::Sst2, 16, 6, 2),
            task_from(DatasetKind::Rte, 16, 7, 3),
        ];
        let zp = align(&tasks, AlignStrategy::ZeroPadGlobalMax).expect("aligns");
        let cb = align(&tasks, AlignStrategy::ChunkBased { min_chunk: 64 }).expect("aligns");
        assert!(
            cb.effective_fraction() > zp.effective_fraction() * 1.2,
            "chunked {} vs zero-pad {}",
            cb.effective_fraction(),
            zp.effective_fraction()
        );
    }

    #[test]
    fn pack_only_has_attention_waste_but_chunked_does_not() {
        let tasks = vec![task_from(DatasetKind::Sst2, 32, 8, 1)];
        let po = align(&tasks, AlignStrategy::PackOnly).expect("aligns");
        let cb = align(&tasks, AlignStrategy::ChunkBased { min_chunk: 64 }).expect("aligns");
        assert!(
            po.tasks[0].attention_waste > 0,
            "packing long rows wastes attention"
        );
        assert_eq!(cb.tasks[0].attention_waste, 0);
    }

    #[test]
    fn chunked_rows_are_finer_than_packed_rows() {
        // Finer rows = more, shorter micro-units = finer pipeline (§3.5).
        let tasks = vec![
            task_from(DatasetKind::Sst2, 16, 20, 1),
            task_from(DatasetKind::Rte, 16, 9, 2),
        ];
        let po = align(&tasks, AlignStrategy::PackOnly).expect("aligns");
        let cb = align(&tasks, AlignStrategy::ChunkBased { min_chunk: 64 }).expect("aligns");
        assert!(cb.unit_len < po.unit_len);
        assert!(cb.total_rows() > po.total_rows());
    }

    #[test]
    fn effective_tokens_are_invariant_across_strategies() {
        let tasks = vec![
            task_from(DatasetKind::OpenBookQa, 24, 10, 1),
            task_from(DatasetKind::Rte, 24, 11, 2),
        ];
        let effective = |s: AlignStrategy| align(&tasks, s).expect("aligns").effective_tokens();
        let e1 = effective(AlignStrategy::ZeroPadGlobalMax);
        let e2 = effective(AlignStrategy::PackOnly);
        let e3 = effective(AlignStrategy::ChunkBased { min_chunk: 64 });
        assert_eq!(e1, e2);
        assert_eq!(e2, e3);
    }

    #[test]
    fn uniform_tasks_see_little_zero_pad_penalty() {
        // With identical caps, ZeroPad has no inter-task padding — this is
        // why SL-PEFT looks fine in the Uniform case but degrades in the
        // Non-uniform case (§5.2).
        let tasks = vec![
            task_from(DatasetKind::Sst2, 16, 12, 1),
            task_from(DatasetKind::Sst2, 16, 13, 2),
        ];
        let zp = align(&tasks, AlignStrategy::ZeroPadGlobalMax).expect("aligns");
        assert_eq!(
            zp.tasks.iter().map(|t| t.inter_task_padding).sum::<u64>(),
            0
        );
    }

    #[test]
    fn kv_context_appears_only_when_rows_span_chunks() {
        // Mixed SST2 + RTE forces chunk 64; RTE's 256-token packs then span
        // four chunks and chain through KV reuse.
        let tasks = vec![
            task_from(DatasetKind::Sst2, 8, 21, 1),
            task_from(DatasetKind::Rte, 8, 14, 2),
        ];
        let cb = align(&tasks, AlignStrategy::ChunkBased { min_chunk: 64 }).expect("aligns");
        assert_eq!(cb.unit_len, 64);
        assert!(
            cb.tasks[1].kv_context_tokens > 0,
            "256-cap rows span 64-token chunks"
        );
        let short = vec![task_from(DatasetKind::Sst2, 8, 15, 1)];
        let cb2 = align(&short, AlignStrategy::ChunkBased { min_chunk: 64 }).expect("aligns");
        assert_eq!(
            cb2.tasks[0].kv_context_tokens, 0,
            "64-cap rows fit one chunk"
        );
    }

    #[test]
    fn bad_input_is_an_error_not_a_panic() {
        assert_eq!(
            align(&[], AlignStrategy::ZeroPadGlobalMax).expect_err("empty"),
            AlignError::NoTasks
        );
        let tasks = vec![task_from(DatasetKind::Sst2, 4, 16, 1)];
        assert_eq!(
            align(&tasks, AlignStrategy::ChunkExact { chunk: 0 }).expect_err("zero chunk"),
            AlignError::ZeroChunk
        );
    }
}
