//! PEFT task descriptions and their analytic adapter costs.
//!
//! This is the *descriptive* half of PEFT modularization (§3.2): what a
//! task's adapters do to the operator graph and to memory, as pure
//! arithmetic. The *executable* half (real tensors) lives in
//! [`crate::modules`] and friends.

use mux_model::config::ModelConfig;
use mux_model::ops::{OpCostSpec, OpKind, OpTemplate};

/// Identifier of a PEFT task within an instance.
pub type TaskId = u32;

/// The three representative PEFT categories the paper implements (§2.1,
/// §5.1): reparameterized (LoRA), additive (Adapter-Tuning), and selective
/// (Diff-Pruning).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PeftType {
    /// LoRA: low-rank `down (h -> r)` / `up (r -> n)` pair per `BaseOp`.
    LoRA {
        /// Low-rank dimension (typically 8–64).
        rank: usize,
    },
    /// Houlsby-style adapter: bottleneck MLP inserted after attention and
    /// MLP blocks.
    AdapterTuning {
        /// Bottleneck width.
        bottleneck: usize,
    },
    /// Diff-Pruning: a sparse trainable delta over backbone weights,
    /// selected by a binary mask.
    DiffPruning {
        /// Fraction of backbone weights with trainable deltas (e.g. 0.005).
        sparsity: f64,
    },
    /// Prefix-Tuning: learnable key/value vectors prepended to every
    /// attention layer (the "learnable vectors" of §2.2).
    PrefixTuning {
        /// Number of virtual prefix tokens.
        prefix_len: usize,
    },
}

/// A submitted PEFT task: adapter configuration plus workload shape.
#[derive(Debug, Clone, PartialEq)]
pub struct PeftTask {
    /// Task id, unique within an instance.
    pub id: TaskId,
    /// Adapter configuration.
    pub peft: PeftType,
    /// Micro-batch size (sequences per micro-batch).
    pub micro_batch: usize,
    /// Padded/truncated sequence length of this task's dataset (§5.1:
    /// SST2 → 64, OpenBookQA → 128, RTE → 256).
    pub seq_len: usize,
    /// Learning rate requested by the user (isolation tests inject
    /// pathological values here to show NaN containment).
    pub lr: f32,
}

impl PeftTask {
    /// Creates a LoRA task — the paper's mainly-used type.
    pub fn lora(id: TaskId, rank: usize, micro_batch: usize, seq_len: usize) -> Self {
        Self {
            id,
            peft: PeftType::LoRA { rank },
            micro_batch,
            seq_len,
            lr: 1e-3,
        }
    }

    /// Tokens per micro-batch.
    pub fn tokens_per_micro_batch(&self) -> usize {
        self.micro_batch * self.seq_len
    }

    /// Trainable adapter parameters on the given backbone.
    pub fn adapter_params(&self, cfg: &ModelConfig) -> u64 {
        let h = cfg.hidden as u64;
        let layers = cfg.num_layers as u64;
        match self.peft {
            PeftType::LoRA { rank } => {
                // One (down, up) pair per BaseOp. Output widths: qkv 3h,
                // out h, mlp_up 4h, mlp_down h — inputs h, h, h, 4h.
                let r = rank as u64;
                let f = cfg.ffn_hidden() as u64;
                let per_layer = (h * r + r * 3 * h)      // qkv
                    + (h * r + r * h)                    // out_proj
                    + (h * r + r * f)                    // mlp_up
                    + (f * r + r * h); // mlp_down
                layers * per_layer
            }
            PeftType::AdapterTuning { bottleneck } => {
                let b = bottleneck as u64;
                // Two adapters per layer (post-attention, post-MLP), each
                // h -> b -> h with biases.
                layers * 2 * (h * b + b + b * h + h)
            }
            PeftType::DiffPruning { sparsity } => {
                let dense = cfg.layer_params() * layers;
                (dense as f64 * sparsity) as u64
            }
            PeftType::PrefixTuning { prefix_len } => {
                // K and V prefix vectors per layer.
                layers * 2 * (prefix_len as u64) * h
            }
        }
    }

    /// The adapter operators attached to one `BaseOp` of kind `kind` with
    /// per-GPU output width `base_out` (already TP-sharded) and input width
    /// `base_in`, as `(op kind, label, cost)` — the one definition of each
    /// PEFT type's adapter shapes. Name-free and allocation-free, so the
    /// cost model can price adapters without formatting op names.
    ///
    /// The ops form a chain (each depends on the previous); the caller
    /// grafts them as a parallel branch beside the `BaseOp` and joins with
    /// an aggregate node (§3.2's Dispatch/Aggregate).
    pub fn adapter_costs(
        &self,
        cfg: &ModelConfig,
        kind: OpKind,
        base_in: usize,
        base_out: usize,
    ) -> impl Iterator<Item = (OpKind, &'static str, OpCostSpec)> {
        let d = cfg.dtype_bytes;
        let gemm = |k, n| OpCostSpec::Gemm { k, n, dtype: d };
        let ops = match self.peft {
            PeftType::LoRA { rank } => [
                Some((OpKind::AdapterGemm, "lora_down", gemm(base_in, rank))),
                Some((OpKind::AdapterGemm, "lora_up", gemm(rank, base_out))),
                None,
            ],
            // Houlsby adapters only follow the block outputs; we attach
            // them to the projection BaseOps closing each block.
            PeftType::AdapterTuning { bottleneck }
                if matches!(kind, OpKind::OutProj | OpKind::MlpDown) =>
            {
                [
                    Some((OpKind::AdapterGemm, "adpt_down", gemm(base_out, bottleneck))),
                    Some((
                        OpKind::AdapterElementwise,
                        "adpt_relu",
                        OpCostSpec::Elementwise {
                            width: bottleneck,
                            accesses: 2,
                            flops_per_elem: 1.0,
                            dtype: d,
                        },
                    )),
                    Some((OpKind::AdapterGemm, "adpt_up", gemm(bottleneck, base_out))),
                ]
            }
            PeftType::DiffPruning { sparsity } => {
                // Applying the masked delta is weight-side work independent
                // of the token count: gather + scatter over the selected
                // entries of this BaseOp's weight.
                let selected = (base_in as f64 * base_out as f64 * sparsity).max(1.0);
                [
                    Some((
                        OpKind::AdapterElementwise,
                        "diff_apply",
                        OpCostSpec::Fixed {
                            flops: 2.0 * selected,
                            bytes: 3.0 * selected * d as f64,
                        },
                    )),
                    None,
                    None,
                ]
            }
            // Prefix K/V attach at the attention input: extra
            // cross-attention of every query token over `prefix_len`
            // virtual tokens, charged at the QKV attach point. FLOPs scale
            // with tokens x prefix_len x width; modelled as a GEMM with
            // inner dim = prefix width, out = prefix_len.
            PeftType::PrefixTuning { prefix_len } if kind == OpKind::QkvProj => [
                Some((
                    OpKind::AdapterGemm,
                    "prefix_attn",
                    gemm(base_in, prefix_len),
                )),
                None,
                None,
            ],
            PeftType::AdapterTuning { .. } | PeftType::PrefixTuning { .. } => [None, None, None],
        };
        ops.into_iter().flatten()
    }

    /// [`adapter_costs`](Self::adapter_costs) as named operator templates
    /// for the engine's operator graph: `task{id}.{label}.{kind:?}`.
    pub fn adapter_ops(
        &self,
        cfg: &ModelConfig,
        kind: OpKind,
        base_in: usize,
        base_out: usize,
    ) -> Vec<OpTemplate> {
        self.adapter_costs(cfg, kind, base_in, base_out)
            .map(|(op, label, cost)| {
                OpTemplate::new(op, format!("task{}.{label}.{kind:?}", self.id), cost)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lora_params_scale_with_rank() {
        let cfg = ModelConfig::llama2_7b();
        let t8 = PeftTask::lora(0, 8, 4, 128).adapter_params(&cfg);
        let t16 = PeftTask::lora(0, 16, 4, 128).adapter_params(&cfg);
        assert_eq!(t16, 2 * t8);
    }

    #[test]
    fn lora_params_are_tiny_vs_backbone() {
        let cfg = ModelConfig::llama2_7b();
        let t = PeftTask::lora(0, 16, 4, 128);
        let frac = t.adapter_params(&cfg) as f64 / cfg.total_params() as f64;
        assert!(frac < 0.01, "LoRA trains {frac} of backbone params");
    }

    #[test]
    fn lora_attaches_down_up_to_every_base_op() {
        let cfg = ModelConfig::llama2_7b();
        let t = PeftTask::lora(3, 16, 4, 128);
        for kind in [
            OpKind::QkvProj,
            OpKind::OutProj,
            OpKind::MlpUp,
            OpKind::MlpDown,
        ] {
            let ops = t.adapter_ops(&cfg, kind, 4096, 4096);
            assert_eq!(ops.len(), 2);
            assert!(ops.iter().all(|o| o.kind == OpKind::AdapterGemm));
            assert!(ops[0].name.contains("task3"));
        }
    }

    #[test]
    fn adapter_op_names_are_pinned_per_peft_type() {
        // Chrome-trace labels are built from these names; they must not
        // drift when adapter shapes are refactored.
        let cfg = ModelConfig::llama2_7b();
        let task = |peft| PeftTask {
            id: 7,
            peft,
            micro_batch: 4,
            seq_len: 128,
            lr: 1e-3,
        };
        let names = |t: &PeftTask, kind| -> Vec<String> {
            t.adapter_ops(&cfg, kind, 4096, 4096)
                .into_iter()
                .map(|o| o.name)
                .collect()
        };
        let lora = task(PeftType::LoRA { rank: 8 });
        assert_eq!(
            names(&lora, OpKind::MlpUp),
            ["task7.lora_down.MlpUp", "task7.lora_up.MlpUp"]
        );
        let adpt = task(PeftType::AdapterTuning { bottleneck: 64 });
        assert_eq!(
            names(&adpt, OpKind::OutProj),
            [
                "task7.adpt_down.OutProj",
                "task7.adpt_relu.OutProj",
                "task7.adpt_up.OutProj"
            ]
        );
        assert!(names(&adpt, OpKind::QkvProj).is_empty());
        let diff = task(PeftType::DiffPruning { sparsity: 0.01 });
        assert_eq!(names(&diff, OpKind::MlpDown), ["task7.diff_apply.MlpDown"]);
        let prefix = task(PeftType::PrefixTuning { prefix_len: 16 });
        assert_eq!(
            names(&prefix, OpKind::QkvProj),
            ["task7.prefix_attn.QkvProj"]
        );
        assert!(names(&prefix, OpKind::OutProj).is_empty());
        // Names sit on top of the name-free costs, op for op.
        for t in [&lora, &adpt, &diff, &prefix] {
            for kind in [
                OpKind::QkvProj,
                OpKind::OutProj,
                OpKind::MlpUp,
                OpKind::MlpDown,
            ] {
                let ops = t.adapter_ops(&cfg, kind, 4096, 11008);
                let costs: Vec<_> = t.adapter_costs(&cfg, kind, 4096, 11008).collect();
                assert_eq!(ops.len(), costs.len());
                for (o, (k, _, c)) in ops.iter().zip(&costs) {
                    assert_eq!((o.kind, &o.cost), (*k, c));
                }
            }
        }
    }

    #[test]
    fn adapter_tuning_only_follows_block_outputs() {
        let cfg = ModelConfig::llama2_7b();
        let t = PeftTask {
            id: 0,
            peft: PeftType::AdapterTuning { bottleneck: 64 },
            micro_batch: 4,
            seq_len: 128,
            lr: 1e-3,
        };
        assert!(t.adapter_ops(&cfg, OpKind::QkvProj, 4096, 12288).is_empty());
        assert_eq!(t.adapter_ops(&cfg, OpKind::OutProj, 4096, 4096).len(), 3);
        assert_eq!(t.adapter_ops(&cfg, OpKind::MlpDown, 16384, 4096).len(), 3);
    }

    #[test]
    fn diff_pruning_cost_is_token_independent() {
        use mux_model::ops::{Pass, TokenShape};
        let cfg = ModelConfig::gpt3_2_7b();
        let t = PeftTask {
            id: 1,
            peft: PeftType::DiffPruning { sparsity: 0.005 },
            micro_batch: 4,
            seq_len: 64,
            lr: 1e-3,
        };
        let ops = t.adapter_ops(&cfg, OpKind::QkvProj, 2560, 7680);
        assert_eq!(ops.len(), 1);
        let small = ops[0].cost.flops(TokenShape::new(1, 8), Pass::Forward);
        let large = ops[0].cost.flops(TokenShape::new(64, 256), Pass::Forward);
        assert_eq!(small, large);
    }

    #[test]
    fn diff_pruning_params_match_sparsity() {
        let cfg = ModelConfig::gpt3_2_7b();
        let t = PeftTask {
            id: 1,
            peft: PeftType::DiffPruning { sparsity: 0.01 },
            micro_batch: 4,
            seq_len: 64,
            lr: 1e-3,
        };
        let dense = cfg.layer_params() * cfg.num_layers as u64;
        let got = t.adapter_params(&cfg);
        assert!((got as f64 / dense as f64 - 0.01).abs() < 1e-6);
    }

    #[test]
    fn tokens_per_micro_batch() {
        assert_eq!(PeftTask::lora(0, 8, 4, 128).tokens_per_micro_batch(), 512);
    }

    #[test]
    fn prefix_tuning_params_and_attachment() {
        let cfg = ModelConfig::llama2_7b();
        let t = PeftTask {
            id: 5,
            peft: PeftType::PrefixTuning { prefix_len: 32 },
            micro_batch: 4,
            seq_len: 128,
            lr: 1e-3,
        };
        // 2 (K,V) x prefix_len x hidden per layer.
        assert_eq!(t.adapter_params(&cfg), 32 * 2 * 32 * 4096);
        assert_eq!(t.adapter_ops(&cfg, OpKind::QkvProj, 4096, 12288).len(), 1);
        assert!(t.adapter_ops(&cfg, OpKind::MlpUp, 4096, 16384).is_empty());
    }
}
