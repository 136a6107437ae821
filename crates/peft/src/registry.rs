//! Dynamic multi-task backbone sharing (§3.2).
//!
//! The [`TaskRegistry`] is the Rust analogue of the paper's
//! `register_tasks()` API: [`TaskRegistry::register_task`] and
//! [`TaskRegistry::deregister_task`] attach one task to and detach it from
//! an in-flight backbone instance without touching the backbone
//! description — no "from-scratch model reinitialization". The service
//! calls them on each admission and completion. Multi-task operator graphs
//! are then *derived* per plan: shared backbone nodes (tag 0) with per-task
//! adapter branches (tagged by task id) joined through aggregate nodes.

use std::collections::BTreeMap;

use mux_model::config::ModelConfig;
use mux_model::graph::OpGraph;
use mux_model::layer::{build_stage_graph, BACKBONE_TAG};
use mux_model::ops::{OpCostSpec, OpKind, OpTemplate};

use crate::types::{PeftTask, TaskId};

/// Errors from registry mutations.
#[derive(Debug, Clone, PartialEq)]
pub enum RegistryError {
    /// A task with this id is already registered.
    DuplicateId(TaskId),
    /// No task with this id is registered.
    UnknownId(TaskId),
    /// The task's configuration failed §3.2 safe-instantiation checks.
    Invalid(crate::validation::ValidationError),
}

impl std::fmt::Display for RegistryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegistryError::DuplicateId(id) => write!(f, "task {id} already registered"),
            RegistryError::UnknownId(id) => write!(f, "task {id} not registered"),
            RegistryError::Invalid(e) => write!(f, "invalid task configuration: {e}"),
        }
    }
}

impl std::error::Error for RegistryError {}

/// An in-flight fine-tuning instance: one shared backbone, many tasks.
///
/// ```
/// use mux_model::config::ModelConfig;
/// use mux_peft::registry::TaskRegistry;
/// use mux_peft::types::PeftTask;
///
/// let mut registry = TaskRegistry::new(ModelConfig::llama2_7b());
/// registry.register_task(PeftTask::lora(1, 16, 4, 128)).unwrap();
/// registry.register_task(PeftTask::lora(2, 32, 2, 64)).unwrap();
/// assert_eq!(registry.len(), 2);
/// // Task completion detaches without touching the backbone.
/// registry.deregister_task(1).unwrap();
/// assert_eq!(registry.len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct TaskRegistry {
    cfg: ModelConfig,
    tasks: BTreeMap<TaskId, PeftTask>,
    generation: u64,
}

impl TaskRegistry {
    /// Creates a registry over a backbone.
    pub fn new(cfg: ModelConfig) -> Self {
        Self {
            cfg,
            tasks: BTreeMap::new(),
            generation: 0,
        }
    }

    /// The backbone configuration (immutable for the instance's lifetime —
    /// non-intrusiveness is the §3.2 cornerstone).
    pub fn backbone(&self) -> &ModelConfig {
        &self.cfg
    }

    /// Registers a task on the fly (a cluster-scheduler arrival event).
    /// The configuration is validated first (§3.2 safe instantiation) so a
    /// malformed adapter never reaches the shared backbone.
    pub fn register_task(&mut self, task: PeftTask) -> Result<(), RegistryError> {
        if self.tasks.contains_key(&task.id) {
            return Err(RegistryError::DuplicateId(task.id));
        }
        crate::validation::validate_task(&task, &self.cfg).map_err(RegistryError::Invalid)?;
        assert_ne!(
            task.id, BACKBONE_TAG,
            "task id 0 is reserved for the backbone"
        );
        self.tasks.insert(task.id, task);
        self.generation += 1;
        Ok(())
    }

    /// Deregisters a completed task.
    pub fn deregister_task(&mut self, id: TaskId) -> Result<PeftTask, RegistryError> {
        let t = self.tasks.remove(&id).ok_or(RegistryError::UnknownId(id))?;
        self.generation += 1;
        Ok(t)
    }

    /// Registered tasks, in id order.
    pub fn tasks(&self) -> impl Iterator<Item = &PeftTask> {
        self.tasks.values()
    }

    /// A task by id.
    pub fn task(&self, id: TaskId) -> Option<&PeftTask> {
        self.tasks.get(&id)
    }

    /// Number of registered tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Whether the instance is idle.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Monotonic change counter (each register/deregister bumps it; plan
    /// caches key off it).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Builds the multi-task operator DAG for a pipeline stage holding
    /// layers `[layer_start, layer_end)` at TP degree `tp`, with the
    /// adapters of `task_ids` grafted beside every `BaseOp`.
    ///
    /// Backbone nodes keep tag 0; adapter nodes carry their task id. Every
    /// `BaseOp` with at least one adapter gains an aggregate node that
    /// downstream backbone ops depend on (Dispatch is folded into the
    /// adapter branch's dependency on the `BaseOp`'s inputs).
    pub fn build_multitask_stage_graph(
        &self,
        layer_start: usize,
        layer_end: usize,
        tp: usize,
        task_ids: &[TaskId],
    ) -> OpGraph {
        for id in task_ids {
            assert!(self.tasks.contains_key(id), "task {id} not registered");
        }
        let base = build_stage_graph(&self.cfg, layer_start, layer_end, tp);
        let mut g = OpGraph::new();
        let mut map = vec![0usize; base.len()];
        for node in base.nodes() {
            let deps: Vec<usize> = node.deps.iter().map(|d| map[*d]).collect();
            let nid = g.add(node.template.clone(), deps.clone(), BACKBONE_TAG);
            map[node.id] = nid;
            if !node.template.kind.is_base_op() {
                continue;
            }
            let (base_in, base_out) = match node.template.cost {
                OpCostSpec::Gemm { k, n, .. } => (k, n),
                _ => continue,
            };
            let mut join = vec![nid];
            for &tid in task_ids {
                let task = &self.tasks[&tid];
                let ops = task.adapter_ops(&self.cfg, node.template.kind, base_in, base_out);
                if ops.is_empty() {
                    continue;
                }
                // The adapter branch reads the BaseOp's input (its deps).
                let mut prev = deps.clone();
                for op in ops {
                    let a = g.add(op, prev, tid);
                    prev = vec![a];
                }
                join.extend(prev);
            }
            if join.len() > 1 {
                let agg = g.add(
                    OpTemplate::new(
                        OpKind::AdapterElementwise,
                        format!("{}.aggregate", node.template.name),
                        OpCostSpec::Elementwise {
                            width: base_out,
                            accesses: 1 + join.len(),
                            flops_per_elem: (join.len() - 1) as f64,
                            dtype: self.cfg.dtype_bytes,
                        },
                    ),
                    join,
                    BACKBONE_TAG,
                );
                map[node.id] = agg;
            }
        }
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mux_model::ops::{Pass, TokenShape};

    fn registry_with(n: usize) -> TaskRegistry {
        let mut r = TaskRegistry::new(ModelConfig::tiny(2, 64, 4, 100));
        for i in 0..n {
            r.register_task(PeftTask::lora(i as TaskId + 1, 8, 4, 64))
                .expect("register");
        }
        r
    }

    #[test]
    fn register_and_deregister_round_trip() {
        let mut r = registry_with(3);
        assert_eq!(r.len(), 3);
        let g0 = r.generation();
        let t = r.deregister_task(2).expect("deregister");
        assert_eq!(t.id, 2);
        assert_eq!(r.len(), 2);
        assert!(r.generation() > g0);
        assert_eq!(r.deregister_task(2), Err(RegistryError::UnknownId(2)));
    }

    #[test]
    fn malformed_tasks_never_reach_the_backbone() {
        let mut r = TaskRegistry::new(ModelConfig::tiny(2, 64, 4, 100));
        let err = r.register_task(PeftTask::lora(1, 9999, 4, 64));
        assert!(matches!(err, Err(RegistryError::Invalid(_))));
        assert!(r.is_empty(), "rejected task must not be registered");
    }

    #[test]
    fn duplicate_registration_rejected() {
        let mut r = registry_with(1);
        let err = r.register_task(PeftTask::lora(1, 16, 2, 32));
        assert_eq!(err, Err(RegistryError::DuplicateId(1)));
    }

    #[test]
    fn registration_does_not_touch_backbone() {
        let mut r = registry_with(0);
        let before = r.backbone().clone();
        r.register_task(PeftTask::lora(9, 8, 4, 64))
            .expect("register");
        assert_eq!(
            r.backbone(),
            &before,
            "backbone must stay non-intrusively shared"
        );
    }

    #[test]
    fn multitask_graph_tags_adapters_by_task() {
        let r = registry_with(2);
        let g = r.build_multitask_stage_graph(0, 2, 1, &[1, 2]);
        let t1 = g.nodes().iter().filter(|n| n.tag == 1).count();
        let t2 = g.nodes().iter().filter(|n| n.tag == 2).count();
        // 4 BaseOps/layer x 2 layers x 2 LoRA ops = 16 adapter nodes each.
        assert_eq!(t1, 16);
        assert_eq!(t2, 16);
    }

    #[test]
    fn aggregate_rewires_downstream_deps() {
        let r = registry_with(1);
        let g = r.build_multitask_stage_graph(0, 1, 1, &[1]);
        // Find the qkv BaseOp and its aggregate; the attention score op
        // must depend on the aggregate, not the bare BaseOp.
        let qkv = g
            .nodes()
            .iter()
            .find(|n| n.template.name.contains("qkv_proj") && n.tag == 0)
            .expect("qkv");
        let agg = g
            .nodes()
            .iter()
            .find(|n| n.template.name.contains("qkv_proj.aggregate"))
            .expect("aggregate");
        let score = g
            .nodes()
            .iter()
            .find(|n| n.template.kind == OpKind::AttnScore)
            .expect("score");
        assert!(score.deps.contains(&agg.id));
        assert!(!score.deps.contains(&qkv.id));
    }

    #[test]
    fn zero_tasks_graph_equals_backbone() {
        let r = registry_with(1);
        let g = r.build_multitask_stage_graph(0, 2, 1, &[]);
        let base = build_stage_graph(r.backbone(), 0, 2, 1);
        assert_eq!(g.len(), base.len());
    }

    #[test]
    fn adapter_flops_are_small_fraction_of_backbone() {
        let mut r = TaskRegistry::new(ModelConfig::llama2_7b());
        r.register_task(PeftTask::lora(1, 16, 8, 128))
            .expect("register");
        let g = r.build_multitask_stage_graph(0, 1, 1, &[1]);
        let sh = TokenShape::new(8, 128);
        let adapter: f64 = g
            .nodes()
            .iter()
            .filter(|n| n.tag == 1)
            .map(|n| n.template.cost.flops(sh, Pass::Forward))
            .sum();
        let backbone: f64 = g
            .nodes()
            .iter()
            .filter(|n| n.tag == 0)
            .map(|n| n.template.cost.flops(sh, Pass::Forward))
            .sum();
        assert!(
            adapter / backbone < 0.05,
            "adapters add {} of backbone flops",
            adapter / backbone
        );
    }

    #[test]
    fn graph_scales_with_task_count_without_duplicating_backbone() {
        let r1 = registry_with(1);
        let r4 = registry_with(4);
        let g1 = r1.build_multitask_stage_graph(0, 2, 1, &[1]);
        let ids: Vec<TaskId> = vec![1, 2, 3, 4];
        let g4 = r4.build_multitask_stage_graph(0, 2, 1, &ids);
        let backbone1 = g1.nodes().iter().filter(|n| n.tag == 0).count();
        let backbone4 = g4.nodes().iter().filter(|n| n.tag == 0).count();
        assert_eq!(
            backbone1, backbone4,
            "backbone nodes are shared, never replicated"
        );
    }
}
