//! Hardware specifications: GPUs and interconnects.
//!
//! The latency model is a roofline with a saturating efficiency ramp:
//! an operator with `f` FLOPs and `b` bytes of traffic takes
//!
//! ```text
//! t = launch + max( (f + F_half) / peak_flops,  (b + B_half) / mem_bw )
//! ```
//!
//! which is equivalent to `t = launch + f / (peak · eff(f))` with
//! `eff(f) = f / (f + F_half)`. `F_half` is the work at which the GPU
//! reaches 50 % efficiency — the single knob that reproduces every
//! underutilization effect the paper measures: small PEFT-native operators
//! run far below peak (§2.2, Fig 3b), batching shows diminishing returns
//! past saturation (Fig 9b), and faster GPUs (larger `F_half` in absolute
//! terms) widen the PEFT-vs-pretrain MFU gap (§5.2, Fig 15).

/// Execution-resource class of an operator, selecting which efficiency ramp
/// applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkClass {
    /// Tensor-core GEMM-like work: ramps with `flops_half`.
    TensorCore,
    /// Vector/elementwise work (layernorm, GeLU, softmax): bandwidth-bound,
    /// ramps with `bytes_half`.
    Vector,
}

/// A unit of device work.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Work {
    /// Floating-point operations.
    pub flops: f64,
    /// Memory traffic in bytes.
    pub bytes: f64,
    /// Resource class.
    pub class: WorkClass,
}

impl Work {
    /// Tensor-core work.
    pub fn tensor(flops: f64, bytes: f64) -> Self {
        Self {
            flops,
            bytes,
            class: WorkClass::TensorCore,
        }
    }

    /// Vector work.
    pub fn vector(flops: f64, bytes: f64) -> Self {
        Self {
            flops,
            bytes,
            class: WorkClass::Vector,
        }
    }
}

/// A GPU model.
///
/// ```
/// use mux_gpu_sim::spec::{GpuSpec, Work};
/// let a40 = GpuSpec::a40();
/// // Small PEFT-native ops run far below peak efficiency (§2.2):
/// let lora = Work::tensor(0.5e9, 9e6);
/// let backbone = Work::tensor(34e9, 100e6);
/// assert!(a40.op_utilization(lora) < 0.1);
/// assert!(a40.op_utilization(backbone) > 0.7);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GpuSpec {
    /// Marketing name.
    pub name: String,
    /// Dense fp16/bf16 tensor-core peak, FLOP/s.
    pub peak_flops: f64,
    /// HBM/GDDR bandwidth, bytes/s.
    pub mem_bw: f64,
    /// Device memory, bytes.
    pub mem_capacity: u64,
    /// FLOPs at which tensor-core efficiency reaches 50 %.
    pub flops_half: f64,
    /// Bytes at which bandwidth efficiency reaches 50 %.
    pub bytes_half: f64,
    /// Kernel-launch and scheduling overhead per operator, seconds.
    pub launch_overhead: f64,
    /// Idle board power, watts.
    pub idle_watts: f64,
    /// Board power limit at full load, watts.
    pub peak_watts: f64,
}

impl GpuSpec {
    /// NVIDIA A40 (48 GB, GDDR6): the paper's Testbed-A/B GPU.
    pub fn a40() -> Self {
        Self {
            name: "A40".into(),
            peak_flops: 74.8e12,
            mem_bw: 696e9,
            mem_capacity: 48 * GIB,
            flops_half: 10.0e9,
            bytes_half: 2.0e6,
            launch_overhead: 4.5e-6,
            idle_watts: 60.0,
            peak_watts: 300.0,
        }
    }

    /// NVIDIA H100 SXM (80 GB, HBM3): the paper's Testbed-C GPU.
    pub fn h100() -> Self {
        Self {
            name: "H100".into(),
            peak_flops: 989.0e12,
            mem_bw: 3.35e12,
            mem_capacity: 80 * GIB,
            // The ramp scales super-linearly with peak: more SMs and wider
            // tensor cores need much more parallel work to fill — this is
            // the §2.2 observation that underutilization is *exacerbated*
            // by higher-end hardware.
            flops_half: 180.0e9,
            bytes_half: 8.0e6,
            launch_overhead: 4.0e-6,
            idle_watts: 90.0,
            peak_watts: 700.0,
        }
    }

    /// NVIDIA V100 SXM2 (32 GB).
    pub fn v100() -> Self {
        Self {
            name: "V100".into(),
            peak_flops: 125.0e12,
            mem_bw: 900e9,
            mem_capacity: 32 * GIB,
            flops_half: 14.0e9,
            bytes_half: 2.5e6,
            launch_overhead: 5.0e-6,
            idle_watts: 55.0,
            peak_watts: 300.0,
        }
    }

    /// NVIDIA Quadro RTX 6000 (24 GB).
    pub fn rtx6000() -> Self {
        Self {
            name: "RTX6000".into(),
            peak_flops: 130.5e12,
            mem_bw: 672e9,
            mem_capacity: 24 * GIB,
            flops_half: 16.0e9,
            bytes_half: 2.0e6,
            launch_overhead: 5.0e-6,
            idle_watts: 50.0,
            peak_watts: 260.0,
        }
    }

    /// NVIDIA A100 SXM (80 GB, HBM2e).
    pub fn a100() -> Self {
        Self {
            name: "A100".into(),
            peak_flops: 312.0e12,
            mem_bw: 2.03e12,
            mem_capacity: 80 * GIB,
            flops_half: 50.0e9,
            bytes_half: 5.0e6,
            launch_overhead: 4.5e-6,
            idle_watts: 80.0,
            peak_watts: 400.0,
        }
    }

    /// Energy drawn over a window: idle power for the whole window plus
    /// dynamic power proportional to utilization-weighted busy time (the
    /// §6 energy-efficiency extension — stalls burn idle power for
    /// nothing, so reducing them raises tokens/joule).
    pub fn energy_joules(&self, window: f64, busy_fraction: f64, avg_utilization: f64) -> f64 {
        assert!(window >= 0.0);
        let dynamic = (self.peak_watts - self.idle_watts)
            * window
            * (0.35 * busy_fraction + 0.65 * avg_utilization);
        self.idle_watts * window + dynamic
    }

    /// Tensor-core efficiency at `f` FLOPs of work.
    pub fn flops_eff(&self, f: f64) -> f64 {
        if f <= 0.0 {
            0.0
        } else {
            f / (f + self.flops_half)
        }
    }

    /// Bandwidth efficiency at `b` bytes of traffic.
    pub fn bytes_eff(&self, b: f64) -> f64 {
        if b <= 0.0 {
            0.0
        } else {
            b / (b + self.bytes_half)
        }
    }

    /// Latency of one operator, with an optional compute-rate derating in
    /// `(0, 1]` (CTA contention from an overlapping communication kernel).
    pub fn compute_time(&self, work: Work, rate: f64) -> f64 {
        assert!(
            rate > 0.0 && rate <= 1.0,
            "rate must be in (0,1], got {rate}"
        );
        let t = match work.class {
            WorkClass::TensorCore => {
                let tf = (work.flops + self.flops_half) / self.peak_flops;
                let tb = (work.bytes + self.bytes_half) / self.mem_bw;
                tf.max(tb)
            }
            WorkClass::Vector => {
                // Vector pipes are not tensor cores: model as bandwidth-
                // bound with the byte ramp, floor-ed by vector FLOPs at
                // ~1/16 of tensor peak.
                let tb = (work.bytes + self.bytes_half) / self.mem_bw;
                let tf = work.flops / (self.peak_flops / 16.0);
                tf.max(tb)
            }
        };
        self.launch_overhead + t / rate
    }

    /// The achieved-utilization proxy the paper plots as "GPU utilization":
    /// what fraction of peak the operator sustains while resident.
    pub fn op_utilization(&self, work: Work) -> f64 {
        match work.class {
            WorkClass::TensorCore => self.flops_eff(work.flops),
            WorkClass::Vector => self.bytes_eff(work.bytes),
        }
    }
}

const GIB: u64 = 1 << 30;

/// An interconnect between GPUs.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkSpec {
    /// Name, e.g. `"NVLink3"`.
    pub name: String,
    /// Per-direction bandwidth, bytes/s.
    pub bandwidth: f64,
    /// Per-message base latency, seconds.
    pub latency: f64,
    /// Whether in-switch reduction (NVLink SHARP) is available, allowing
    /// near-peak collectives with a tiny CTA budget (§3.4.3).
    pub sharp: bool,
}

impl LinkSpec {
    /// NVLink on A40-class nodes. A40s pair via NVLink *bridges*
    /// (112.5 GB/s bidirectional = ~56 GB/s per direction), and a 4-GPU
    /// ring must cross between pairs over PCIe: the effective ring
    /// bandwidth is bottlenecked well below the headline figure — this is
    /// why the paper's Testbed-A shows such pronounced communication
    /// stalls (Figs 3d, 18).
    pub fn nvlink_a40() -> Self {
        Self {
            name: "NVLink3".into(),
            bandwidth: 38.0e9,
            latency: 3.0e-6,
            sharp: false,
        }
    }

    /// NVLink4 + NVSwitch on H100 nodes, 450 GB/s per direction, SHARP.
    pub fn nvlink_h100() -> Self {
        Self {
            name: "NVLink4".into(),
            bandwidth: 450.0e9,
            latency: 2.0e-6,
            sharp: true,
        }
    }

    /// 100 Gb/s InfiniBand (ConnectX-5, Testbed-B inter-node).
    pub fn ib100() -> Self {
        Self {
            name: "IB-100G".into(),
            bandwidth: 12.0e9,
            latency: 8.0e-6,
            sharp: false,
        }
    }

    /// Ring all-reduce time for `bytes` across `n` ranks.
    pub fn allreduce_time(&self, bytes: f64, n: usize) -> f64 {
        if n <= 1 || bytes <= 0.0 {
            return 0.0;
        }
        let steps = 2 * (n - 1);
        let volume = 2.0 * (n as f64 - 1.0) / n as f64 * bytes;
        steps as f64 * self.latency + volume / self.bandwidth
    }

    /// Ring all-gather time for `bytes` output across `n` ranks.
    pub fn allgather_time(&self, bytes: f64, n: usize) -> f64 {
        if n <= 1 || bytes <= 0.0 {
            return 0.0;
        }
        let steps = n - 1;
        let volume = (n as f64 - 1.0) / n as f64 * bytes;
        steps as f64 * self.latency + volume / self.bandwidth
    }

    /// Point-to-point transfer time for `bytes`.
    pub fn p2p_time(&self, bytes: f64) -> f64 {
        if bytes <= 0.0 {
            return 0.0;
        }
        self.latency + bytes / self.bandwidth
    }
}

/// Communication-kernel CTA policy (§3.4.3): how many SM resources the
/// collective steals from overlapped compute, and what bandwidth it reaches.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CommCtaPolicy {
    /// Fraction of compute throughput lost while a collective overlaps.
    pub compute_penalty: f64,
    /// Fraction of link bandwidth the collective achieves.
    pub bandwidth_frac: f64,
}

impl CommCtaPolicy {
    /// Policy for a link: with SHARP, reductions ride the switch and 8 CTAs
    /// suffice (tiny compute penalty, near-peak bandwidth). Without SHARP
    /// the kernel must either steal a large CTA share or lose bandwidth;
    /// `generous_ctas` selects which side of the tradeoff.
    pub fn for_link(link: &LinkSpec, generous_ctas: bool) -> Self {
        if link.sharp {
            Self {
                compute_penalty: 0.04,
                bandwidth_frac: 0.97,
            }
        } else if generous_ctas {
            Self {
                compute_penalty: 0.25,
                bandwidth_frac: 0.92,
            }
        } else {
            Self {
                compute_penalty: 0.08,
                bandwidth_frac: 0.55,
            }
        }
    }

    /// Policy when communication does not overlap compute at all
    /// (sequential launch): full bandwidth, no compute penalty.
    pub fn sequential() -> Self {
        Self {
            compute_penalty: 0.0,
            bandwidth_frac: 1.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn efficiency_ramps_to_one() {
        let g = GpuSpec::a40();
        assert!(g.flops_eff(1e6) < 0.01);
        assert!((g.flops_eff(g.flops_half) - 0.5).abs() < 1e-9);
        assert!(g.flops_eff(1e13) > 0.99);
    }

    #[test]
    fn small_lora_op_underutilizes_vs_pretrain_gemm() {
        // Fig 3b: [1024,4096]x[4096,64] LoRA op vs [1024,4096]x[4096,4096].
        let g = GpuSpec::a40();
        let lora = Work::tensor(2.0 * 1024.0 * 4096.0 * 64.0, 10e6);
        let pre = Work::tensor(2.0 * 1024.0 * 4096.0 * 4096.0, 100e6);
        let u_lora = g.op_utilization(lora);
        let u_pre = g.op_utilization(pre);
        assert!(
            u_pre - u_lora > 0.3,
            "utilization gap {u_pre} vs {u_lora} (paper: up to 40.9%)"
        );
        let t_lora = g.compute_time(lora, 1.0);
        let t_pre = g.compute_time(pre, 1.0);
        let ratio = t_lora / t_pre;
        // Paper: 0.46 ms vs 1.80 ms => ratio ~0.26 despite 64x fewer FLOPs.
        assert!(ratio > 0.15 && ratio < 0.45, "latency ratio {ratio}");
    }

    #[test]
    fn batching_has_diminishing_returns_past_saturation() {
        // Fig 9b: 8x tokens should give far less than 8x throughput.
        let g = GpuSpec::a40();
        let one = Work::tensor(34.4e9, 42e6);
        let eight = Work::tensor(8.0 * 34.4e9, 8.0 * 42e6);
        let speedup = 8.0 * g.compute_time(one, 1.0) / g.compute_time(eight, 1.0);
        assert!(speedup < 1.5, "throughput gain {speedup} (paper: ~1.12x)");
        assert!(speedup > 1.0);
    }

    #[test]
    fn h100_widen_underutilization() {
        // §2.2: the PEFT/pretrain efficiency gap grows on faster GPUs.
        let lora_f = 2.0 * 1024.0 * 4096.0 * 64.0;
        let a40 = GpuSpec::a40();
        let h100 = GpuSpec::h100();
        assert!(h100.flops_eff(lora_f) < a40.flops_eff(lora_f));
    }

    #[test]
    fn allreduce_scales_with_ranks_and_bytes() {
        let l = LinkSpec::nvlink_a40();
        let t2 = l.allreduce_time(8.4e6, 2);
        let t4 = l.allreduce_time(8.4e6, 4);
        assert!(t4 > t2, "more ranks move more total volume");
        assert_eq!(l.allreduce_time(0.0, 4), 0.0);
        assert_eq!(l.allreduce_time(1e6, 1), 0.0);
    }

    #[test]
    fn sharp_policy_dominates_non_sharp_overlap() {
        let nv = CommCtaPolicy::for_link(&LinkSpec::nvlink_h100(), false);
        let plain_fast = CommCtaPolicy::for_link(&LinkSpec::nvlink_a40(), true);
        let plain_small = CommCtaPolicy::for_link(&LinkSpec::nvlink_a40(), false);
        // SHARP: both low penalty AND high bandwidth. Non-SHARP must choose.
        assert!(nv.compute_penalty < plain_fast.compute_penalty);
        assert!(nv.bandwidth_frac > plain_small.bandwidth_frac);
        assert!(plain_fast.bandwidth_frac > plain_small.bandwidth_frac);
        assert!(plain_small.compute_penalty < plain_fast.compute_penalty);
    }

    #[test]
    fn vector_ops_are_bandwidth_bound() {
        let g = GpuSpec::a40();
        // A layernorm over 1024 x 4096 fp16: tiny flops, ~16.8 MB traffic.
        let w = Work::vector(8.0 * 1024.0 * 4096.0, 2.0 * 1024.0 * 4096.0 * 2.0);
        let t = g.compute_time(w, 1.0);
        let pure_bw = (w.bytes + g.bytes_half) / g.mem_bw;
        assert!((t - g.launch_overhead - pure_bw).abs() / t < 0.05);
    }

    #[test]
    fn energy_grows_with_utilization_and_window() {
        let g = GpuSpec::a40();
        let idle_hour = g.energy_joules(3600.0, 0.0, 0.0);
        assert!((idle_hour - 60.0 * 3600.0).abs() < 1.0, "pure idle draw");
        let busy_hour = g.energy_joules(3600.0, 1.0, 0.9);
        assert!(busy_hour > idle_hour * 3.0, "load must dominate idle");
        assert!(
            busy_hour <= g.peak_watts * 3600.0 * 1.01,
            "never above the power limit"
        );
        // Same work done faster costs less total energy (the §6 argument).
        let slow = g.energy_joules(10.0, 0.6, 0.4);
        let fast = g.energy_joules(6.0, 1.0, 0.7);
        assert!(fast < slow, "fast {fast} vs slow {slow}");
    }

    #[test]
    fn gpu_lineup_is_ordered_by_peak() {
        let peaks = [
            GpuSpec::a40().peak_flops,
            GpuSpec::v100().peak_flops,
            GpuSpec::rtx6000().peak_flops,
            GpuSpec::a100().peak_flops,
            GpuSpec::h100().peak_flops,
        ];
        assert!(peaks.windows(2).all(|w| w[0] < w[1]));
        assert!(GpuSpec::a100().mem_capacity == GpuSpec::h100().mem_capacity);
    }

    #[test]
    fn contention_rate_stretches_latency() {
        let g = GpuSpec::a40();
        let w = Work::tensor(34e9, 40e6);
        let t_free = g.compute_time(w, 1.0);
        let t_contended = g.compute_time(w, 0.75);
        assert!(t_contended > t_free * 1.25);
    }
}
