//! # mux-parallel
//!
//! Parallelization strategies on the simulator: Megatron-style tensor-
//! parallel stage execution (sequential or scheduled launch), pipeline
//! schedules (GPipe, 1F1B, ZB-H2-style split backward, DualPipe-like
//! bidirectional) with a generic dependency-resolving pipeline driver, and
//! hybrid-parallelism plans with the §5.1 grid-search space.

pub mod plan;
pub mod pp;
pub mod tp;

pub use plan::{stage_layers, stage_layers_for, HybridParallelism};
pub use pp::{
    dualpipe_like, dualpipe_like_with_w, gpipe, interleaved_1f1b, one_f_one_b, simulate_pipeline,
    zb_h2, Phase, PipeInstr, PipeProgram, PipelineExec,
};
pub use tp::{
    execute_stage_ordered, execute_stage_sequential, work_for, ShapeResolver, UniformShape,
};
