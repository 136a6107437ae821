//! What an operator was: the typed identity a traced [`Timeline`] keeps
//! for each op, and the one rendering of it as trace text.
//!
//! The engine submits its ops with their pipeline cell and, for compute
//! items, the `(hTask, subgraph)` members they run, so stall attribution
//! and the critical path read hTask identity as data. Submitters without
//! that structure (pipeline p2p transfers, tensor-parallel stage graphs,
//! benches, tests) label ops with free text.
//!
//! [`Timeline`]: crate::timeline::Timeline

use std::fmt;
use std::sync::Arc;

/// A pipeline compute phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Forward pass of a micro-batch through one stage.
    Forward,
    /// Backward pass (input gradients; the whole backward in PEFT).
    Backward,
    /// Weight-gradient pass (split-backward schedules; absent in PEFT).
    Weight,
}

/// Identity of one hTask inside a run: its template bucket plus its index
/// within that bucket. The planner's `Grouping::buckets` maps the pair back
/// to the fused hTask and, through it, to tenant task ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct HTaskRef {
    /// Template bucket index.
    pub bucket: usize,
    /// hTask index within the bucket.
    pub htask: usize,
}

impl fmt::Display for HTaskRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b{}h{}", self.bucket, self.htask)
    }
}

/// The pipeline cell an engine op belongs to: one pass of one micro-batch
/// of a bucket through one stage. Indices are 32-bit so that an engine
/// label, and with it every [`OpRecord`](crate::timeline::OpRecord) of a
/// traced run, stays small.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellPos {
    /// Template bucket index.
    pub bucket: u32,
    /// Pipeline stage.
    pub stage: u32,
    /// Micro-batch index in the template.
    pub mb: u32,
    /// Pass.
    pub phase: Phase,
}

impl CellPos {
    /// The cell of micro-batch `mb` of `bucket` at `stage` in `phase`.
    ///
    /// # Panics
    /// If an index exceeds `u32::MAX`, far beyond any run the engine can
    /// simulate.
    pub fn new(bucket: usize, stage: usize, mb: usize, phase: Phase) -> Self {
        let index = |i: usize| u32::try_from(i).expect("cell index fits in u32");
        Self {
            bucket: index(bucket),
            stage: index(stage),
            mb: index(mb),
            phase,
        }
    }
}

impl fmt::Display for CellPos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let Self {
            bucket,
            stage,
            mb,
            phase,
        } = self;
        write!(f, "b{bucket} s{stage} mb{mb} {phase:?}")
    }
}

/// What an operator was. Renders as trace text through [`fmt::Display`].
#[derive(Debug, Clone, PartialEq)]
pub enum OpLabel {
    /// Free text from a submitter without engine structure.
    Text(String),
    /// A compute op of an engine launch item, with the `(hTask index
    /// within the bucket, subgraph id in that hTask's DAG)` members it
    /// runs in launch order, several when adapter branches fused. Every
    /// op of one item shares the item's member list.
    Item(CellPos, Arc<[(usize, usize)]>),
    /// The all-reduce trailing a launch item of a cell.
    AllReduce(CellPos),
    /// The zero-duration join that closes a cell.
    Join(CellPos),
}

impl OpLabel {
    /// The cell of an engine op, mutably (traces of separately run units
    /// are concatenated by renumbering their buckets); `None` otherwise.
    pub fn cell_mut(&mut self) -> Option<&mut CellPos> {
        match self {
            OpLabel::Text(_) => None,
            OpLabel::Item(at, _) | OpLabel::AllReduce(at) | OpLabel::Join(at) => Some(at),
        }
    }

    /// The hTasks a launch item worked for, sorted and deduplicated. Empty
    /// for every other op: collectives, joins and free text carry none.
    pub fn htasks(&self) -> Vec<HTaskRef> {
        let OpLabel::Item(at, members) = self else {
            return Vec::new();
        };
        let bucket = at.bucket as usize;
        let mut refs: Vec<HTaskRef> = members
            .iter()
            .map(|&(htask, _)| HTaskRef { bucket, htask })
            .collect();
        refs.sort_unstable();
        refs.dedup();
        refs
    }
}

impl fmt::Display for OpLabel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OpLabel::Text(text) => f.write_str(text),
            OpLabel::Item(at, members) => {
                write!(f, "{at} ")?;
                for (i, (htask, subgraph)) in members.iter().enumerate() {
                    let sep = if i > 0 { "+" } else { "" };
                    write!(f, "{sep}h{htask}sg{subgraph}")?;
                }
                Ok(())
            }
            OpLabel::AllReduce(at) => write!(f, "{at} ar"),
            OpLabel::Join(at) => write!(f, "cell {at}"),
        }
    }
}

impl From<&str> for OpLabel {
    fn from(text: &str) -> Self {
        OpLabel::Text(text.to_owned())
    }
}

impl From<String> for OpLabel {
    fn from(text: String) -> Self {
        OpLabel::Text(text)
    }
}

impl From<fmt::Arguments<'_>> for OpLabel {
    fn from(text: fmt::Arguments<'_>) -> Self {
        OpLabel::Text(text.to_string())
    }
}

/// A launch item's compute op, borrowing the item's member list so that
/// only a traced timeline takes a reference to it.
impl From<(CellPos, &Arc<[(usize, usize)]>)> for OpLabel {
    fn from((at, members): (CellPos, &Arc<[(usize, usize)]>)) -> Self {
        OpLabel::Item(at, Arc::clone(members))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_labels_render_the_trace_text_and_name_their_htasks() {
        let at = |bucket, phase| CellPos::new(bucket, 1, 2, phase);
        let fused = OpLabel::Item(at(2, Phase::Backward), [(3, 4), (1, 4), (3, 5)].into());
        assert_eq!(fused.to_string(), "b2 s1 mb2 Backward h3sg4+h1sg4+h3sg5");
        let refs = [1, 3].map(|htask| HTaskRef { bucket: 2, htask });
        assert_eq!(fused.htasks(), refs);
        let ar = OpLabel::AllReduce(at(0, Phase::Forward));
        assert_eq!(ar.to_string(), "b0 s1 mb2 Forward ar");
        let mut join = OpLabel::Join(at(1, Phase::Weight));
        join.cell_mut().expect("an engine op").bucket += 3;
        assert_eq!(join.to_string(), "cell b4 s1 mb2 Weight");
        // Only launch items name hTasks; free text never does, whatever
        // it reads like.
        let text = OpLabel::from("b0 s1 mb2 Forward h0sg3");
        assert!(ar.htasks().is_empty() && join.htasks().is_empty() && text.htasks().is_empty());
    }
}
