//! The hybrid-task ("hTask") abstraction (§3.3).
//!
//! An hTask is a set of PEFT tasks fused for *spatial* multiplexing: their
//! micro-batches are batched through shared backbone operators. Different
//! hTasks are multiplexed *temporally* — interleaved so one hTask's stalls
//! hide under another's compute.

use mux_data::align::{align, AlignStrategy, AlignedBatch, TaskAlignment, TaskData};
use mux_model::ops::TokenShape;
use mux_peft::types::{PeftTask, TaskId};

use crate::error::PlanError;

/// A hybrid task: spatially fused PEFT tasks plus their aligned data shape.
#[derive(Debug, Clone, PartialEq)]
pub struct HTask {
    /// Member task ids, in fusion order.
    pub tasks: Vec<TaskId>,
    /// Per-member tokens per micro-batch (`n_i` in Eq. 3), aligned order.
    pub tokens_per_task: Vec<usize>,
    /// Unified per-row length after data alignment.
    pub unit_len: usize,
    /// Unified number of micro-batches `C` (§3.3).
    pub micro_batches: usize,
    /// Effective-token fraction of the aligned batch (1.0 = no padding).
    pub effective_fraction: f64,
    /// Token-weighted average attention context length (chunked rows
    /// attend over cached KV of earlier chunks — §3.5).
    pub attn_context: usize,
    /// Average sequentially-dependent attention kernels per packed row.
    pub attn_splits: f64,
}

impl HTask {
    /// Builds an hTask from member tasks and an alignment strategy.
    ///
    /// Per-task tokens per micro-batch are the aligned row counts scaled to
    /// one micro-batch; alignment decides `unit_len` and the padding bill.
    ///
    /// # Errors
    /// Propagates alignment failures (empty member set, oversize sequences,
    /// degenerate caps) as [`PlanError`] — fusion sits on the job-admission
    /// path and must not panic on tenant input.
    pub fn fuse(
        members: &[&PeftTask],
        corpora: &[Vec<usize>],
        micro_batches: usize,
        strategy: AlignStrategy,
    ) -> Result<Self, PlanError> {
        if members.len() != corpora.len() {
            return Err(PlanError::DegenerateCost {
                detail: format!("{} member(s) but {} corpora", members.len(), corpora.len()),
            });
        }
        let data: Vec<TaskData> = members
            .iter()
            .zip(corpora)
            .map(|(t, lens)| TaskData {
                task: t.id,
                seq_lens: lens.clone(),
                cap: t.seq_len,
            })
            .collect();
        Ok(Self::from_aligned(
            members,
            &align(&data, strategy)?,
            micro_batches,
        ))
    }

    /// Builds an hTask from its members' alignment, `aligned.tasks[i]`
    /// belonging to `members[i]`.
    pub(crate) fn from_aligned(
        members: &[&PeftTask],
        aligned: &AlignedBatch,
        micro_batches: usize,
    ) -> Self {
        let tokens = |t: &TaskAlignment| (t.rows * aligned.unit_len) as f64;
        // A micro-batch carries the task's configured micro-batch of
        // sequences; after alignment each sequence-cap's worth of content
        // occupies `cap/unit_len`-ish rows, but the token count per
        // micro-batch stays `micro_batch * cap` scaled by the alignment's
        // padding behaviour.
        let tokens_per_task = aligned
            .tasks
            .iter()
            .map(|t| (tokens(t) / micro_batches as f64).ceil() as usize)
            .collect();
        // Token-weighted attention statistics across members.
        let total: f64 = aligned.tasks.iter().map(tokens).sum();
        let wctx: f64 = aligned
            .tasks
            .iter()
            .map(|t| t.avg_attn_context * tokens(t))
            .sum();
        let wsplit: f64 = aligned
            .tasks
            .iter()
            .map(|t| t.attn_splits * tokens(t))
            .sum();
        Self {
            tasks: members.iter().map(|t| t.id).collect(),
            tokens_per_task,
            unit_len: aligned.unit_len,
            micro_batches,
            effective_fraction: aligned.effective_fraction(),
            attn_context: if total > 0.0 {
                (wctx / total).round() as usize
            } else {
                aligned.unit_len
            },
            attn_splits: if total > 0.0 {
                (wsplit / total).max(1.0)
            } else {
                1.0
            },
        }
    }

    /// Builds an hTask directly from per-task padded shapes (no corpus):
    /// task `i` contributes `micro_batch * seq_len` tokens per micro-batch
    /// at its own cap. Used when data alignment is disabled (ablations) or
    /// for cost-model-only planning.
    pub fn from_padded(members: &[&PeftTask], micro_batches: usize) -> Self {
        assert!(!members.is_empty(), "empty hTask");
        let unit_len = members.iter().map(|t| t.seq_len).max().expect("non-empty");
        let tokens_per_task = members.iter().map(|t| t.micro_batch * unit_len).collect();
        Self {
            tasks: members.iter().map(|t| t.id).collect(),
            tokens_per_task,
            unit_len,
            micro_batches,
            effective_fraction: members
                .iter()
                .map(|t| (t.micro_batch * t.seq_len) as f64)
                .sum::<f64>()
                / members
                    .iter()
                    .map(|t| (t.micro_batch * unit_len) as f64)
                    .sum::<f64>(),
            attn_context: unit_len,
            attn_splits: 1.0,
        }
    }

    /// Combined tokens per micro-batch (`Σ n_k` in Eq. 3).
    pub fn total_tokens(&self) -> usize {
        self.tokens_per_task.iter().sum()
    }

    /// The unified batched shape one micro-batch presents to backbone ops.
    pub fn shape(&self) -> TokenShape {
        TokenShape::new(
            self.total_tokens().div_ceil(self.unit_len).max(1),
            self.unit_len,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mux_data::corpus::{Corpus, DatasetKind};

    fn lora(id: TaskId, mb: usize, seq: usize) -> PeftTask {
        PeftTask::lora(id, 16, mb, seq)
    }

    #[test]
    fn padded_fusion_sums_tokens() {
        let a = lora(1, 4, 64);
        let b = lora(2, 2, 128);
        let h = HTask::from_padded(&[&a, &b], 4);
        assert_eq!(h.unit_len, 128);
        // Task 1 pads to 128: 4*128; task 2: 2*128.
        assert_eq!(h.tokens_per_task, vec![512, 256]);
        assert_eq!(h.total_tokens(), 768);
        assert!(h.effective_fraction < 1.0, "task 1 pays inter-task padding");
    }

    #[test]
    fn uniform_members_have_full_effective_fraction() {
        let a = lora(1, 4, 64);
        let b = lora(2, 2, 64);
        let h = HTask::from_padded(&[&a, &b], 4);
        assert_eq!(h.effective_fraction, 1.0);
    }

    #[test]
    fn chunked_fusion_beats_padded_on_effective_fraction() {
        let a = lora(1, 4, 64);
        let b = lora(2, 4, 256);
        let ca = Corpus::generate(DatasetKind::Sst2, 32, 1).lengths;
        let cb = Corpus::generate(DatasetKind::Rte, 32, 2).lengths;
        let padded = HTask::from_padded(&[&a, &b], 4);
        let chunked = HTask::fuse(
            &[&a, &b],
            &[ca, cb],
            4,
            AlignStrategy::ChunkBased { min_chunk: 64 },
        )
        .expect("fuses");
        assert!(chunked.effective_fraction > padded.effective_fraction);
        assert_eq!(chunked.unit_len, 64);
    }

    #[test]
    fn shape_reflects_unit_len() {
        let a = lora(1, 4, 64);
        let h = HTask::from_padded(&[&a], 2);
        assert_eq!(h.shape(), TokenShape::new(4, 64));
    }
}
