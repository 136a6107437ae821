//! The discrete-event execution timeline.
//!
//! Executors submit operators in per-device launch order; the timeline
//! resolves each operator's start time as the maximum of its lane's free
//! time and its dependencies' completion times (classic list-scheduling /
//! lazy discrete-event semantics — each submission *is* the event). Every
//! device has two lanes, mirroring CUDA practice: a **compute** stream and a
//! **communication** stream. Overlap between them is where both the benefit
//! (hidden stalls) and the cost (CTA contention, §3.4.3) live.

use std::fmt;
use std::ops::Deref;

use crate::label::OpLabel;
use crate::spec::{CommCtaPolicy, GpuSpec, LinkSpec, Work};

/// A multi-GPU machine (possibly multiple nodes).
#[derive(Debug, Clone)]
pub struct Cluster {
    /// Per-GPU specs. All experiments use homogeneous GPUs, but the
    /// timeline does not require it.
    pub gpus: Vec<GpuSpec>,
    /// Intra-node link.
    pub intra_link: LinkSpec,
    /// Inter-node link, if the cluster spans nodes.
    pub inter_link: Option<LinkSpec>,
    /// GPUs per node (used to decide which link a group crosses).
    pub gpus_per_node: usize,
}

impl Cluster {
    /// A single node of `n` identical GPUs.
    pub fn single_node(gpu: GpuSpec, n: usize, link: LinkSpec) -> Self {
        Self {
            gpus: vec![gpu; n],
            intra_link: link,
            inter_link: None,
            gpus_per_node: n,
        }
    }

    /// A multi-node cluster (`nodes` × `gpus_per_node`).
    pub fn multi_node(
        gpu: GpuSpec,
        nodes: usize,
        gpus_per_node: usize,
        intra: LinkSpec,
        inter: LinkSpec,
    ) -> Self {
        Self {
            gpus: vec![gpu; nodes * gpus_per_node],
            intra_link: intra,
            inter_link: Some(inter),
            gpus_per_node,
        }
    }

    /// Number of GPUs.
    pub fn num_gpus(&self) -> usize {
        self.gpus.len()
    }

    /// The link a device group communicates over: the inter-node link if
    /// the group spans nodes, else the intra-node link.
    pub fn link_for(&self, group: &[usize]) -> &LinkSpec {
        let node = |g: &usize| g / self.gpus_per_node;
        let spans_nodes = group
            .first()
            .is_some_and(|first| group.iter().any(|g| node(g) != node(first)));
        match (&self.inter_link, spans_nodes) {
            (Some(inter), true) => inter,
            _ => &self.intra_link,
        }
    }
}

/// Handle to a submitted operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpHandle(usize);

/// Which lane an operator ran on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaneKind {
    /// Compute stream.
    Compute,
    /// Communication stream.
    Comm,
}

/// What a submitted operator was, for trace export and stall attribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// A compute kernel (or fused subgraph).
    Compute,
    /// A group collective (all-reduce / all-gather).
    Collective,
    /// A point-to-point copy-engine transfer.
    P2p,
    /// A zero-duration synchronization point.
    Join,
}

/// The devices an operator occupied: one for compute, `[src, dst]` for a
/// p2p copy, the group for a collective, none for a join. Up to two are
/// stored inline, so compute and p2p records allocate nothing; a larger
/// collective group lives on the heap. Derefs to the device slice.
#[derive(Clone)]
pub struct Devices(DeviceRepr);

#[derive(Clone)]
enum DeviceRepr {
    Inline { len: u8, ids: [usize; 2] },
    Group(Box<[usize]>),
}

impl Devices {
    fn new(ids: &[usize]) -> Self {
        Self(if ids.len() <= 2 {
            let mut inline = [0; 2];
            inline[..ids.len()].copy_from_slice(ids);
            DeviceRepr::Inline {
                len: ids.len() as u8,
                ids: inline,
            }
        } else {
            DeviceRepr::Group(ids.into())
        })
    }
}

impl Deref for Devices {
    type Target = [usize];

    fn deref(&self) -> &[usize] {
        match &self.0 {
            DeviceRepr::Inline { len, ids } => &ids[..usize::from(*len)],
            DeviceRepr::Group(ids) => ids,
        }
    }
}

impl<'a> IntoIterator for &'a Devices {
    type Item = &'a usize;
    type IntoIter = std::slice::Iter<'a, usize>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl fmt::Debug for Devices {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// A completed operator record, for metrics and timeline export.
#[derive(Debug, Clone)]
pub struct OpRecord {
    /// Start time, seconds.
    pub start: f64,
    /// End time, seconds.
    pub end: f64,
    /// Devices involved (1 for compute, group for collectives).
    pub devices: Devices,
    /// Lane.
    pub lane: LaneKind,
    /// Operator kind.
    pub kind: OpKind,
    /// Indices (into the timeline's op list) of the operators this one
    /// waited on — the dependency edges needed for stall attribution.
    pub deps: Box<[usize]>,
    /// Achieved-utilization proxy in `[0, 1]` (compute ops only).
    pub utilization: f64,
    /// FLOPs performed.
    pub flops: f64,
    /// Communication payload bytes (comm ops only).
    pub comm_bytes: f64,
    /// Compute-rate penalty this op imposes on overlapped compute
    /// (comm ops only).
    pub compute_penalty: f64,
    /// What the operator was, for traces and attribution.
    pub label: OpLabel,
}

/// Out-of-memory error from the device memory ledger.
#[derive(Debug, Clone, PartialEq)]
pub struct OomError {
    /// Device that overflowed.
    pub device: usize,
    /// Bytes requested.
    pub requested: u64,
    /// Bytes already in use.
    pub in_use: u64,
    /// Device capacity.
    pub capacity: u64,
}

impl std::fmt::Display for OomError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "OOM on GPU {}: requested {} B with {} / {} B in use",
            self.device, self.requested, self.in_use, self.capacity
        )
    }
}

impl std::error::Error for OomError {}

#[derive(Debug, Clone, Default)]
struct MemLedger {
    in_use: u64,
    peak: u64,
}

/// One fault window perturbing the timeline: operators *starting* inside
/// `[start, end)` run `factor`× slower (the factor is sampled at op start —
/// an op straddling the boundary keeps its start-time factor, the standard
/// piecewise-constant discrete-event approximation).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultWindow {
    /// Afflicted device, or `None` for a cluster-wide fault (e.g. a shared
    /// link degradation).
    pub device: Option<usize>,
    /// Window start, seconds.
    pub start: f64,
    /// Window end, seconds.
    pub end: f64,
    /// Duration multiplier, `>= 1.0` (1.0 = no effect).
    pub factor: f64,
}

impl FaultWindow {
    fn applies(&self, dev: Option<usize>, t: f64) -> bool {
        let dev_match = match (self.device, dev) {
            (None, _) => true,
            (Some(fd), Some(d)) => fd == d,
            (Some(_), None) => false,
        };
        dev_match && self.start <= t && t < self.end && self.factor > 1.0
    }
}

/// The deterministic fault schedule a [`Timeline`] consults on every
/// submission — the chaos layer's hook into the discrete-event loop.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultWindows {
    /// Compute slowdowns (straggler devices): stretch compute operators.
    pub compute_slow: Vec<FaultWindow>,
    /// Link-bandwidth degradations: stretch collectives and P2P transfers.
    pub link_degrade: Vec<FaultWindow>,
}

impl FaultWindows {
    /// True when no window can perturb anything.
    pub fn is_empty(&self) -> bool {
        self.compute_slow.is_empty() && self.link_degrade.is_empty()
    }

    fn worst(windows: &[FaultWindow], dev: Option<usize>, t: f64) -> f64 {
        windows
            .iter()
            .filter(|w| w.applies(dev, t))
            .map(|w| w.factor)
            .fold(1.0, f64::max)
    }

    /// Compute-duration multiplier for an op starting at `t` on `dev`.
    pub fn compute_factor(&self, dev: usize, t: f64) -> f64 {
        Self::worst(&self.compute_slow, Some(dev), t)
    }

    /// Comm-duration multiplier for a transfer over `devices` starting at
    /// `t` (worst afflicted participant wins).
    pub fn link_factor(&self, devices: &[usize], t: f64) -> f64 {
        devices
            .iter()
            .map(|&d| Self::worst(&self.link_degrade, Some(d), t))
            .fold(Self::worst(&self.link_degrade, None, t), f64::max)
    }

    /// Every window as a `(device, start, end)` span, cluster-wide windows
    /// expanded over `num_devices` — the shape stall attribution consumes.
    pub fn spans(&self, num_devices: usize) -> Vec<(usize, f64, f64)> {
        let mut out = Vec::new();
        for w in self.compute_slow.iter().chain(&self.link_degrade) {
            match w.device {
                Some(d) => out.push((d, w.start, w.end)),
                None => out.extend((0..num_devices).map(|d| (d, w.start, w.end))),
            }
        }
        out
    }
}

/// One device's lane usage, appended as operators land: what
/// [`device_metrics`](crate::metrics::device_metrics) folds, on traced and
/// untraced timelines alike.
#[derive(Debug, Clone, Default)]
pub(crate) struct LaneUsage {
    /// `(duration, duration × utilization)` of each compute op on the
    /// device, in submission order.
    pub(crate) compute: Vec<(f64, f64)>,
    /// Duration of each collective or p2p copy the device took part in.
    pub(crate) comm: Vec<f64>,
    /// Running FLOP sum of the device's compute ops.
    pub(crate) flops: f64,
    /// Running payload-byte sum of the device's comm ops.
    pub(crate) comm_bytes: f64,
}

/// The execution timeline of one simulated run.
///
/// Every timeline keeps each handle's end time, the running makespan and
/// each device's lane usage, which is all that [`Timeline::finish_time`]
/// and [`device_metrics`](crate::metrics::device_metrics) read. One made by
/// [`Timeline::new`] also keeps an [`OpRecord`] per operator, with its
/// label and dependency edges, for trace export and stall attribution; one
/// made by [`Timeline::untraced`] keeps no record and converts no label.
///
/// ```
/// use mux_gpu_sim::spec::{GpuSpec, LinkSpec, Work};
/// use mux_gpu_sim::timeline::{Cluster, Timeline};
///
/// let cluster = Cluster::single_node(GpuSpec::a40(), 2, LinkSpec::nvlink_a40());
/// let mut tl = Timeline::new(&cluster);
/// let a = tl.compute(0, Work::tensor(10e9, 5e6), &[], "gemm");
/// let b = tl.compute(1, Work::tensor(10e9, 5e6), &[a], "dependent");
/// assert!(tl.end_of(b) > tl.end_of(a)); // causality
/// assert!(tl.finish_time() > 0.0);
/// ```
pub struct Timeline<'a> {
    cluster: &'a Cluster,
    compute_free: Vec<f64>,
    comm_free: Vec<f64>,
    /// End time of every handle, indexed by [`OpHandle`].
    ends: Vec<f64>,
    /// Latest end time so far: the makespan.
    makespan: f64,
    /// Per-device lane usage.
    usage: Vec<LaneUsage>,
    /// Every operator's record, indexed by [`OpHandle`] (traced only).
    ops: Vec<OpRecord>,
    mem: Vec<MemLedger>,
    /// Per-device `(start, end, penalty)` comm intervals with nonzero
    /// penalty, sorted by start (the comm lane is FIFO, so intervals on one
    /// device never overlap each other).
    comm_intervals: Vec<Vec<(f64, f64, f64)>>,
    /// Injected fault schedule (empty = perfect hardware).
    faults: FaultWindows,
    /// Total extra seconds faults added across perturbed operators.
    fault_delay: f64,
    /// Operators whose duration a fault window stretched.
    perturbed_ops: usize,
    /// Whether operators keep records.
    traced: bool,
}

/// A traced record's dependency edges.
fn edges(deps: &[OpHandle]) -> Box<[usize]> {
    deps.iter().map(|d| d.0).collect()
}

impl<'a> Timeline<'a> {
    /// Creates an empty timeline over a cluster that keeps a record of
    /// every operator, with its label and dependency edges.
    pub fn new(cluster: &'a Cluster) -> Self {
        let n = cluster.num_gpus();
        Self {
            cluster,
            compute_free: vec![0.0; n],
            comm_free: vec![0.0; n],
            ends: Vec::new(),
            makespan: 0.0,
            usage: vec![LaneUsage::default(); n],
            ops: Vec::new(),
            mem: vec![MemLedger::default(); n],
            comm_intervals: vec![Vec::new(); n],
            faults: FaultWindows::default(),
            fault_delay: 0.0,
            perturbed_ops: 0,
            traced: true,
        }
    }

    /// Creates an empty timeline that keeps no operator records, so
    /// [`Timeline::ops`] stays empty and a
    /// [`compute_group`](Timeline::compute_group) yields one handle.
    /// Times, [`device_metrics`](crate::metrics::device_metrics), memory
    /// and fault accounting are bit-identical to a [`Timeline::new`] run of
    /// the same submissions.
    pub fn untraced(cluster: &'a Cluster) -> Self {
        Self {
            traced: false,
            ..Self::new(cluster)
        }
    }

    /// The cluster this timeline runs on.
    pub fn cluster(&self) -> &Cluster {
        self.cluster
    }

    /// Installs a fault schedule. Call before submitting work — already
    /// submitted operators are not retroactively perturbed.
    pub fn set_faults(&mut self, faults: FaultWindows) {
        self.faults = faults;
    }

    /// The installed fault schedule.
    pub fn faults(&self) -> &FaultWindows {
        &self.faults
    }

    /// Total extra seconds injected faults added to operator durations.
    pub fn fault_delay_seconds(&self) -> f64 {
        self.fault_delay
    }

    /// Number of operators a fault window stretched.
    pub fn perturbed_ops(&self) -> usize {
        self.perturbed_ops
    }

    /// Applies the fault multiplier `f` to a base duration shared by `ops`
    /// operators, recording the perturbation of each. Returns the stretched
    /// duration.
    fn perturb(&mut self, base: f64, f: f64, ops: usize) -> f64 {
        if f > 1.0 && base > 0.0 {
            self.fault_delay += base * (f - 1.0) * ops as f64;
            self.perturbed_ops += ops;
            base * f
        } else {
            base
        }
    }

    fn deps_ready(&self, deps: &[OpHandle]) -> f64 {
        deps.iter().map(|d| self.ends[d.0]).fold(0.0, f64::max)
    }

    /// Lands one operator ending at `end`, keeping `record()` when this
    /// timeline is traced.
    fn land(&mut self, end: f64, record: impl FnOnce() -> OpRecord) -> OpHandle {
        if self.traced {
            self.ops.push(record());
        }
        self.makespan = self.makespan.max(end);
        self.ends.push(end);
        OpHandle(self.ends.len() - 1)
    }

    /// Books a comm op of `dur` seconds carrying `bytes` on `dev`'s usage.
    fn use_comm(&mut self, dev: usize, dur: f64, bytes: f64) {
        let usage = &mut self.usage[dev];
        usage.comm.push(dur);
        usage.comm_bytes += bytes;
    }

    /// Whether devices `a` and `b` have received the same lane submissions
    /// so far, as far as their free times and latest comm interval show.
    fn lockstep(&self, a: usize, b: usize) -> bool {
        self.compute_free[a] == self.compute_free[b]
            && self.comm_free[a] == self.comm_free[b]
            && self.comm_intervals[a].last() == self.comm_intervals[b].last()
    }

    /// Sum of comm time on `dev` overlapping `[start, end)`, weighted by
    /// each comm op's compute penalty. Only already-submitted comm ops are
    /// visible — launch order is submission order, so a collective launched
    /// *after* a compute kernel cannot retroactively slow it (matching how
    /// the real schedulers commit launch order ahead of time).
    fn comm_contention(&self, dev: usize, start: f64, end: f64) -> f64 {
        let mut weighted = 0.0;
        // Intervals are sorted by start and mutually disjoint; walk back
        // from the newest until intervals end before our window starts.
        for &(cs, ce, p) in self.comm_intervals[dev].iter().rev() {
            if ce <= start {
                break;
            }
            let o = (ce.min(end) - cs.max(start)).max(0.0);
            weighted += o * p;
        }
        weighted
    }

    /// Submits a compute operator on `dev`'s compute lane, costed from the
    /// device spec (see [`Timeline::compute_fixed`]).
    pub fn compute(
        &mut self,
        dev: usize,
        work: Work,
        deps: &[OpHandle],
        label: impl Into<OpLabel>,
    ) -> OpHandle {
        assert!(dev < self.cluster.num_gpus(), "device {dev} out of range");
        let spec = &self.cluster.gpus[dev];
        let (seconds, utilization) = (spec.compute_time(work, 1.0), spec.op_utilization(work));
        self.compute_fixed(dev, seconds, utilization, work.flops, deps, label)
    }

    /// Submits pre-costed compute work: an operator (or fused subgraph)
    /// whose duration and achieved utilization were computed by the caller.
    /// Still subject to CTA-contention stretching from overlapping comm.
    /// The one-rank case of [`Timeline::compute_group`].
    pub fn compute_fixed(
        &mut self,
        dev: usize,
        seconds: f64,
        utilization: f64,
        flops: f64,
        deps: &[OpHandle],
        label: impl Into<OpLabel>,
    ) -> OpHandle {
        OpHandle(self.submit_group(&[dev], seconds, utilization, flops, deps, label))
    }

    /// Submits one tensor-parallel kernel on every rank of `ranks`, priced
    /// once, and appends its handles to `handles`: one per rank on a traced
    /// timeline, whose records are field for field those of a
    /// [`compute_fixed`](Timeline::compute_fixed) call per rank, and a
    /// single one on an untraced timeline.
    ///
    /// The ranks must be in lockstep: each has received the same compute
    /// submissions and collectives so far, as a stage's ranks do when every
    /// op is issued to all of them with the same dependencies (checked in
    /// debug builds). A fault window prices the group at its worst rank's
    /// factor and counts one perturbed operator per rank.
    ///
    /// # Panics
    /// If `ranks` is empty, a rank is out of range or `seconds` is
    /// negative.
    #[allow(clippy::too_many_arguments)]
    pub fn compute_group(
        &mut self,
        ranks: &[usize],
        seconds: f64,
        utilization: f64,
        flops: f64,
        deps: &[OpHandle],
        label: impl Into<OpLabel>,
        handles: &mut Vec<OpHandle>,
    ) {
        let first = self.submit_group(ranks, seconds, utilization, flops, deps, label);
        handles.extend((first..self.ends.len()).map(OpHandle));
    }

    /// [`Timeline::compute_group`]'s body; returns the first new handle's
    /// index.
    fn submit_group(
        &mut self,
        ranks: &[usize],
        seconds: f64,
        utilization: f64,
        flops: f64,
        deps: &[OpHandle],
        label: impl Into<OpLabel>,
    ) -> usize {
        let &lead = ranks.first().expect("compute group over no ranks");
        for &dev in ranks {
            assert!(dev < self.cluster.num_gpus(), "device {dev} out of range");
        }
        assert!(seconds >= 0.0, "negative duration");
        debug_assert!(
            ranks.iter().all(|&r| self.lockstep(lead, r)),
            "compute group {ranks:?} is not in lockstep"
        );
        let start = self.compute_free[lead].max(self.deps_ready(deps));
        let slow = ranks
            .iter()
            .map(|&dev| self.faults.compute_factor(dev, start))
            .fold(1.0, f64::max);
        let seconds = self.perturb(seconds, slow, ranks.len());
        // One fixpoint iteration of contention stretching: during overlap
        // with a comm kernel of penalty p, compute progresses at rate
        // (1 - p), so the overlapped work takes o * p / (1 - p) longer.
        let overlap_weighted = self.comm_contention(lead, start, start + seconds);
        let stretch = if overlap_weighted > 0.0 && seconds > 0.0 {
            // Cap the effective penalty at 60% to keep the approximation
            // stable even under pathological full-overlap stacking.
            let p = (overlap_weighted / seconds).min(0.6);
            seconds * p / (1.0 - p)
        } else {
            0.0
        };
        let end = start + seconds + stretch;
        let util = if seconds + stretch > 0.0 {
            utilization * seconds / (seconds + stretch)
        } else {
            utilization
        };
        for &dev in ranks {
            self.compute_free[dev] = end;
            let usage = &mut self.usage[dev];
            usage.compute.push((end - start, (end - start) * util));
            usage.flops += flops;
        }
        let first = self.ends.len();
        let handles = if self.traced {
            let (deps, label) = (edges(deps), label.into());
            self.ops.extend(ranks.iter().map(|&dev| OpRecord {
                start,
                end,
                devices: Devices::new(&[dev]),
                lane: LaneKind::Compute,
                kind: OpKind::Compute,
                deps: deps.clone(),
                utilization: util,
                flops,
                comm_bytes: 0.0,
                compute_penalty: 0.0,
                label: label.clone(),
            }));
            ranks.len()
        } else {
            1
        };
        self.makespan = self.makespan.max(end);
        self.ends.resize(first + handles, end);
        first
    }

    /// Collective kinds.
    fn collective_time(&self, group: &[usize], kind: CollectiveKind, bytes: f64) -> f64 {
        let link = self.cluster.link_for(group);
        match kind {
            CollectiveKind::AllReduce => link.allreduce_time(bytes, group.len()),
            CollectiveKind::AllGather => link.allgather_time(bytes, group.len()),
        }
    }

    /// Submits a collective over `group`'s communication lanes.
    ///
    /// `policy` decides the bandwidth achieved and the CTA penalty imposed
    /// on compute kernels it overlaps. If `blocking` is true the collective
    /// also occupies the participants' *compute* lanes (sequential-launch
    /// frameworks like single-stream NeMo execution).
    #[allow(clippy::too_many_arguments)]
    pub fn collective(
        &mut self,
        group: &[usize],
        kind: CollectiveKind,
        payload_bytes: f64,
        deps: &[OpHandle],
        policy: CommCtaPolicy,
        blocking: bool,
        label: impl Into<OpLabel>,
    ) -> OpHandle {
        assert!(!group.is_empty(), "collective over empty group");
        let mut start = self.deps_ready(deps);
        for &g in group {
            start = start.max(self.comm_free[g]);
            if blocking {
                start = start.max(self.compute_free[g]);
            }
        }
        let base = self.collective_time(group, kind, payload_bytes);
        let dur = if payload_bytes > 0.0 && group.len() > 1 {
            base / policy.bandwidth_frac.max(1e-6)
        } else {
            base
        };
        let degrade = self.faults.link_factor(group, start);
        let dur = self.perturb(dur, degrade, 1);
        let end = start + dur;
        for &g in group {
            self.comm_free[g] = end;
            if blocking {
                self.compute_free[g] = end;
            } else if policy.compute_penalty > 0.0 && end > start {
                self.comm_intervals[g].push((start, end, policy.compute_penalty));
            }
            self.use_comm(g, end - start, payload_bytes);
        }
        self.land(end, || OpRecord {
            start,
            end,
            devices: Devices::new(group),
            lane: LaneKind::Comm,
            kind: OpKind::Collective,
            deps: edges(deps),
            utilization: 0.0,
            flops: 0.0,
            comm_bytes: payload_bytes,
            compute_penalty: if blocking {
                0.0
            } else {
                policy.compute_penalty
            },
            label: label.into(),
        })
    }

    /// Submits a point-to-point transfer from `src` to `dst` (pipeline
    /// activation/gradient sends).
    ///
    /// P2P copies ride dedicated copy engines (DMA), so they serialize with
    /// neither compute kernels nor collectives: the transfer starts as soon
    /// as its dependencies complete. (Lane-FIFO semantics would introduce
    /// artificial head-of-line blocking, since transfers are submitted in
    /// issue order, not time order.)
    pub fn p2p(
        &mut self,
        src: usize,
        dst: usize,
        bytes: f64,
        deps: &[OpHandle],
        label: impl Into<OpLabel>,
    ) -> OpHandle {
        let start = self.deps_ready(deps);
        let healthy = self.cluster.link_for(&[src, dst]).p2p_time(bytes);
        let degrade = self.faults.link_factor(&[src, dst], start);
        let end = start + self.perturb(healthy, degrade, 1);
        for dev in [src, dst] {
            self.use_comm(dev, end - start, bytes);
        }
        self.land(end, || OpRecord {
            start,
            end,
            devices: Devices::new(&[src, dst]),
            lane: LaneKind::Comm,
            kind: OpKind::P2p,
            deps: edges(deps),
            utilization: 0.0,
            flops: 0.0,
            comm_bytes: bytes,
            compute_penalty: 0.0,
            label: label.into(),
        })
    }

    /// A zero-duration synchronization point joining `deps`.
    pub fn join(&mut self, deps: &[OpHandle], label: impl Into<OpLabel>) -> OpHandle {
        let t = self.deps_ready(deps);
        self.land(t, || OpRecord {
            start: t,
            end: t,
            devices: Devices::new(&[]),
            lane: LaneKind::Compute,
            kind: OpKind::Join,
            deps: edges(deps),
            utilization: 0.0,
            flops: 0.0,
            comm_bytes: 0.0,
            compute_penalty: 0.0,
            label: label.into(),
        })
    }

    /// Allocates `bytes` on `dev`, failing with [`OomError`] past capacity.
    pub fn alloc(&mut self, dev: usize, bytes: u64) -> Result<(), OomError> {
        let cap = self.cluster.gpus[dev].mem_capacity;
        let led = &mut self.mem[dev];
        if led.in_use + bytes > cap {
            return Err(OomError {
                device: dev,
                requested: bytes,
                in_use: led.in_use,
                capacity: cap,
            });
        }
        led.in_use += bytes;
        led.peak = led.peak.max(led.in_use);
        Ok(())
    }

    /// Releases `bytes` on `dev` (saturating).
    pub fn free(&mut self, dev: usize, bytes: u64) {
        let led = &mut self.mem[dev];
        led.in_use = led.in_use.saturating_sub(bytes);
    }

    /// Peak memory ever in use on `dev`.
    pub fn peak_mem(&self, dev: usize) -> u64 {
        self.mem[dev].peak
    }

    /// Current memory in use on `dev`.
    pub fn mem_in_use(&self, dev: usize) -> u64 {
        self.mem[dev].in_use
    }

    /// Completion time of an op.
    pub fn end_of(&self, h: OpHandle) -> f64 {
        self.ends[h.0]
    }

    /// Latest completion time across all ops (makespan).
    pub fn finish_time(&self) -> f64 {
        self.makespan
    }

    /// Each device's lane usage, indexed by device.
    pub(crate) fn usage(&self) -> &[LaneUsage] {
        &self.usage
    }

    /// All op records, in submission order. Empty on an
    /// [untraced](Timeline::untraced) timeline.
    pub fn ops(&self) -> &[OpRecord] {
        &self.ops
    }

    /// Consumes the timeline and moves its op records out (empty on an
    /// [untraced](Timeline::untraced) timeline).
    pub fn into_ops(self) -> Vec<OpRecord> {
        self.ops
    }
}

/// Collective operation kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CollectiveKind {
    /// All-reduce (sum).
    AllReduce,
    /// All-gather.
    AllGather,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{GpuSpec, LinkSpec};

    fn cluster(n: usize) -> Cluster {
        Cluster::single_node(GpuSpec::a40(), n, LinkSpec::nvlink_a40())
    }

    #[test]
    fn sequential_ops_on_one_lane_do_not_overlap() {
        let c = cluster(1);
        let mut t = Timeline::new(&c);
        let a = t.compute(0, Work::tensor(1e9, 1e6), &[], "a");
        let b = t.compute(0, Work::tensor(1e9, 1e6), &[], "b");
        assert!(t.ops()[b.0].start >= t.end_of(a));
    }

    #[test]
    fn dependency_delays_start() {
        let c = cluster(2);
        let mut t = Timeline::new(&c);
        let a = t.compute(0, Work::tensor(50e9, 1e6), &[], "big-on-0");
        let b = t.compute(1, Work::tensor(1e6, 1e3), &[a], "dependent-on-1");
        assert!((t.ops()[b.0].start - t.end_of(a)).abs() < 1e-12);
    }

    #[test]
    fn independent_devices_run_in_parallel() {
        let c = cluster(2);
        let mut t = Timeline::new(&c);
        let a = t.compute(0, Work::tensor(50e9, 1e6), &[], "on-0");
        let b = t.compute(1, Work::tensor(50e9, 1e6), &[], "on-1");
        assert_eq!(t.ops()[a.0].start, 0.0);
        assert_eq!(t.ops()[b.0].start, 0.0);
    }

    #[test]
    fn collective_waits_for_all_participants() {
        let c = cluster(2);
        let mut t = Timeline::new(&c);
        let slow = t.compute(0, Work::tensor(100e9, 1e6), &[], "slow");
        let ar = t.collective(
            &[0, 1],
            CollectiveKind::AllReduce,
            8e6,
            &[slow],
            CommCtaPolicy::sequential(),
            false,
            "ar",
        );
        assert!((t.ops()[ar.0].start - t.end_of(slow)).abs() < 1e-12);
    }

    #[test]
    fn non_blocking_collective_overlaps_compute() {
        let c = cluster(2);
        let mut t = Timeline::new(&c);
        let ar = t.collective(
            &[0, 1],
            CollectiveKind::AllReduce,
            50e6,
            &[],
            CommCtaPolicy::for_link(&LinkSpec::nvlink_a40(), false),
            false,
            "ar",
        );
        let comp = t.compute(0, Work::tensor(30e9, 1e6), &[], "overlapped");
        assert_eq!(t.ops()[comp.0].start, 0.0, "compute lane stays free");
        let _ = ar;
    }

    #[test]
    fn blocking_collective_serializes_with_compute() {
        let c = cluster(2);
        let mut t = Timeline::new(&c);
        let ar = t.collective(
            &[0, 1],
            CollectiveKind::AllReduce,
            50e6,
            &[],
            CommCtaPolicy::sequential(),
            true,
            "ar",
        );
        let comp = t.compute(0, Work::tensor(30e9, 1e6), &[], "after");
        assert!(t.ops()[comp.0].start >= t.end_of(ar));
    }

    #[test]
    fn overlapped_compute_is_stretched_by_cta_contention() {
        let c = cluster(2);
        // Same work with and without an overlapping comm kernel.
        let mut free = Timeline::new(&c);
        let comp = free.compute(0, Work::tensor(30e9, 1e6), &[], "free");
        let dur_free = free.end_of(comp) - free.ops()[comp.0].start;

        let mut contended = Timeline::new(&c);
        contended.collective(
            &[0, 1],
            CollectiveKind::AllReduce,
            200e6,
            &[],
            CommCtaPolicy::for_link(&LinkSpec::nvlink_a40(), true),
            false,
            "big-ar",
        );
        let comp2 = contended.compute(0, Work::tensor(30e9, 1e6), &[], "contended");
        let dur_cont = contended.end_of(comp2) - contended.ops()[comp2.0].start;
        assert!(dur_cont > dur_free * 1.05, "{dur_cont} vs {dur_free}");
    }

    #[test]
    fn memory_ledger_tracks_peak_and_oom() {
        let c = cluster(1);
        let mut t = Timeline::new(&c);
        let cap = c.gpus[0].mem_capacity;
        t.alloc(0, cap / 2).expect("first alloc fits");
        t.alloc(0, cap / 4).expect("second alloc fits");
        t.free(0, cap / 4);
        assert_eq!(t.peak_mem(0), cap / 2 + cap / 4);
        assert_eq!(t.mem_in_use(0), cap / 2);
        let err = t.alloc(0, cap).expect_err("over-capacity alloc must fail");
        assert_eq!(err.device, 0);
    }

    #[test]
    fn p2p_rides_copy_engines_not_lanes() {
        let c = cluster(2);
        let mut t = Timeline::new(&c);
        let s = t.p2p(0, 1, 8e6, &[], "send");
        // An independent transfer is not serialized behind the first...
        let r = t.p2p(1, 0, 8e6, &[], "send-back");
        assert_eq!(t.ops()[r.0].start, 0.0);
        // ...but a dependent one waits for its producer.
        let dep = t.p2p(0, 1, 8e6, &[s], "dependent");
        assert!((t.ops()[dep.0].start - t.end_of(s)).abs() < 1e-12);
    }

    #[test]
    fn inter_node_groups_use_the_slow_link() {
        let c = Cluster::multi_node(
            GpuSpec::a40(),
            2,
            2,
            LinkSpec::nvlink_a40(),
            LinkSpec::ib100(),
        );
        assert_eq!(c.link_for(&[0, 1]).name, "NVLink3");
        assert_eq!(c.link_for(&[1, 2]).name, "IB-100G");
    }

    #[test]
    fn join_is_zero_duration() {
        let c = cluster(1);
        let mut t = Timeline::new(&c);
        let a = t.compute(0, Work::tensor(1e9, 1e6), &[], "a");
        let j = t.join(&[a], "sync");
        assert_eq!(t.end_of(j), t.end_of(a));
    }

    #[test]
    fn slowdown_window_stretches_ops_inside_it_only() {
        let c = cluster(1);
        let mut healthy = Timeline::new(&c);
        let h = healthy.compute(0, Work::tensor(10e9, 1e6), &[], "h");
        let base_dur = healthy.end_of(h) - healthy.ops()[h.0].start;

        let mut faulty = Timeline::new(&c);
        faulty.set_faults(FaultWindows {
            compute_slow: vec![FaultWindow {
                device: Some(0),
                start: 0.0,
                end: base_dur * 1.5,
                factor: 2.0,
            }],
            link_degrade: vec![],
        });
        let a = faulty.compute(0, Work::tensor(10e9, 1e6), &[], "slow");
        let dur_a = faulty.end_of(a) - faulty.ops()[a.0].start;
        assert!(
            (dur_a - 2.0 * base_dur).abs() < 1e-9,
            "op starting inside the window is 2x: {dur_a} vs {base_dur}"
        );
        // The next op starts after the window closes and is untouched.
        let b = faulty.compute(0, Work::tensor(10e9, 1e6), &[], "fast");
        let dur_b = faulty.end_of(b) - faulty.ops()[b.0].start;
        assert!((dur_b - base_dur).abs() < 1e-9, "{dur_b} vs {base_dur}");
        assert_eq!(faulty.perturbed_ops(), 1);
        assert!((faulty.fault_delay_seconds() - base_dur).abs() < 1e-9);
    }

    #[test]
    fn cluster_wide_slowdown_applies_to_every_device() {
        let c = cluster(2);
        let mut t = Timeline::new(&c);
        t.set_faults(FaultWindows {
            compute_slow: vec![FaultWindow {
                device: None,
                start: 0.0,
                end: 1e9,
                factor: 3.0,
            }],
            link_degrade: vec![],
        });
        t.compute(0, Work::tensor(10e9, 1e6), &[], "a");
        t.compute(1, Work::tensor(10e9, 1e6), &[], "b");
        assert_eq!(t.perturbed_ops(), 2);
    }

    #[test]
    fn link_degradation_stretches_collectives_and_p2p() {
        let c = cluster(2);
        let mut healthy = Timeline::new(&c);
        let ar = healthy.collective(
            &[0, 1],
            CollectiveKind::AllReduce,
            100e6,
            &[],
            CommCtaPolicy::sequential(),
            false,
            "ar",
        );
        let base_ar = healthy.end_of(ar);
        let p = healthy.p2p(0, 1, 50e6, &[], "p");
        let base_p2p = healthy.end_of(p) - healthy.ops()[p.0].start;

        let mut faulty = Timeline::new(&c);
        faulty.set_faults(FaultWindows {
            compute_slow: vec![],
            link_degrade: vec![FaultWindow {
                device: Some(1),
                start: 0.0,
                end: 1e9,
                factor: 4.0,
            }],
        });
        let ar2 = faulty.collective(
            &[0, 1],
            CollectiveKind::AllReduce,
            100e6,
            &[],
            CommCtaPolicy::sequential(),
            false,
            "ar",
        );
        assert!(
            (faulty.end_of(ar2) - 4.0 * base_ar).abs() < 1e-9,
            "collective touching the degraded device is 4x: {} vs {}",
            faulty.end_of(ar2),
            base_ar
        );
        let p2 = faulty.p2p(0, 1, 50e6, &[], "p");
        let dur_p2 = faulty.end_of(p2) - faulty.ops()[p2.0].start;
        assert!((dur_p2 - 4.0 * base_p2p).abs() < 1e-9);
        // A transfer not touching device 1 is unaffected — but in a 2-GPU
        // cluster every pair touches it, so check the factor floor instead.
        assert!(faulty.fault_delay_seconds() > 0.0);
    }

    #[test]
    fn a_group_yields_a_handle_per_rank_only_when_traced() {
        let c = cluster(4);
        let mut traced = Timeline::new(&c);
        let mut untraced = Timeline::untraced(&c);
        for (tl, count) in [(&mut traced, 4), (&mut untraced, 1)] {
            let mut handles = Vec::new();
            tl.compute_group(&[0, 1, 2, 3], 1e-3, 0.5, 1e9, &[], "g", &mut handles);
            assert_eq!(handles.len(), count);
            assert!(handles.iter().all(|&h| tl.end_of(h) == 1e-3));
        }
        assert_eq!(traced.ops().len(), 4);
        assert!(untraced.ops().is_empty());
    }

    #[test]
    fn a_slowdown_on_one_rank_stretches_its_whole_group() {
        let c = cluster(2);
        let mut t = Timeline::new(&c);
        t.set_faults(FaultWindows {
            compute_slow: vec![FaultWindow {
                device: Some(1),
                start: 0.0,
                end: 1e-3,
                factor: 2.0,
            }],
            link_degrade: vec![],
        });
        let mut first = Vec::new();
        t.compute_group(&[0, 1], 1e-3, 0.5, 1e9, &[], "slow", &mut first);
        for &h in &first {
            let op = &t.ops()[h.0];
            assert_eq!((op.start, op.end), (0.0, 2e-3), "{op:?}");
        }
        assert_eq!(t.perturbed_ops(), 2, "one perturbed op per rank");
        assert_eq!(t.fault_delay_seconds(), 2e-3);
        // The ranks stay in lockstep: the next op starts together, after
        // the window.
        let mut next = Vec::new();
        t.compute_group(&[0, 1], 1e-3, 0.5, 1e9, &first, "fast", &mut next);
        for &h in &next {
            assert_eq!((t.ops()[h.0].start, t.end_of(h)), (2e-3, 3e-3));
        }
    }

    #[test]
    fn empty_fault_windows_leave_the_timeline_bit_identical() {
        let c = cluster(2);
        let mut plain = Timeline::new(&c);
        let mut hooked = Timeline::new(&c);
        hooked.set_faults(FaultWindows::default());
        for t in [&mut plain, &mut hooked] {
            let a = t.compute(0, Work::tensor(5e9, 1e6), &[], "a");
            t.collective(
                &[0, 1],
                CollectiveKind::AllReduce,
                10e6,
                &[a],
                CommCtaPolicy::sequential(),
                false,
                "ar",
            );
        }
        assert_eq!(plain.finish_time(), hooked.finish_time());
        assert_eq!(hooked.perturbed_ops(), 0);
        assert_eq!(hooked.fault_delay_seconds(), 0.0);
    }
}
