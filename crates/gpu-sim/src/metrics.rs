//! Metrics extracted from a finished [`Timeline`] run:
//! device/link utilization, MFU inputs, and sampled utilization traces
//! (the paper's Figs 3d and 18).

use crate::timeline::{LaneKind, Timeline};

/// Aggregate metrics for one device over `[0, window]`.
#[derive(Debug, Clone)]
pub struct DeviceMetrics {
    /// Device index.
    pub device: usize,
    /// Fraction of the window the compute lane was busy.
    pub busy_fraction: f64,
    /// Time-averaged achieved utilization (busy time weighted by per-op
    /// utilization; idle counts as zero) — the "GPU utilization" the paper
    /// plots.
    pub avg_utilization: f64,
    /// Total FLOPs executed.
    pub flops: f64,
    /// Fraction of the window the comm lane was busy ("NVLink utilization").
    pub link_busy_fraction: f64,
    /// Total communication payload bytes this device participated in.
    pub comm_bytes: f64,
}

/// Computes [`DeviceMetrics`] for every device over `[0, window]`
/// (pass `timeline.finish_time()` as the window for end-to-end runs).
///
/// Folds the lane usage each device booked as its operators landed, so a
/// traced and an untraced timeline of the same submissions give the same
/// bits.
pub fn device_metrics(tl: &Timeline<'_>, window: f64) -> Vec<DeviceMetrics> {
    tl.usage()
        .iter()
        .enumerate()
        .map(|(device, usage)| {
            let mut m = DeviceMetrics {
                device,
                busy_fraction: 0.0,
                avg_utilization: 0.0,
                flops: 0.0,
                link_busy_fraction: 0.0,
                comm_bytes: 0.0,
            };
            if window > 0.0 {
                for &(dur, weighted) in &usage.compute {
                    m.busy_fraction += dur / window;
                    m.avg_utilization += weighted / window;
                }
                for &dur in &usage.comm {
                    m.link_busy_fraction += dur / window;
                }
                m.flops = usage.flops;
                m.comm_bytes = usage.comm_bytes;
            }
            m
        })
        .collect()
}

/// A sampled utilization trace for one device: `compute[i]` / `comm[i]` are
/// the utilization-weighted compute coverage and comm-lane coverage of the
/// i-th of `buckets` equal slices of `[0, window]`.
#[derive(Debug, Clone)]
pub struct UtilizationTrace {
    /// Device index.
    pub device: usize,
    /// Bucket width in seconds.
    pub dt: f64,
    /// Compute utilization per bucket, in `[0, 1]`.
    pub compute: Vec<f64>,
    /// Comm-lane occupancy per bucket, in `[0, 1]`.
    pub comm: Vec<f64>,
}

/// Samples a device's utilization over time (Figs 3d / 18 style traces)
/// from a traced timeline's records; an untraced timeline keeps none, so
/// its trace reads all zeros.
pub fn utilization_trace(
    tl: &Timeline<'_>,
    device: usize,
    window: f64,
    buckets: usize,
) -> UtilizationTrace {
    assert!(buckets > 0, "need at least one bucket");
    let dt = window / buckets as f64;
    let mut compute = vec![0.0; buckets];
    let mut comm = vec![0.0; buckets];
    if window <= 0.0 {
        return UtilizationTrace {
            device,
            dt,
            compute,
            comm,
        };
    }
    for op in tl.ops() {
        if !op.devices.contains(&device) {
            continue;
        }
        let lo = ((op.start / dt).floor() as usize).min(buckets.saturating_sub(1));
        let hi = ((op.end / dt).ceil() as usize).min(buckets);
        for b in lo..hi {
            let bs = b as f64 * dt;
            let be = bs + dt;
            let o = (op.end.min(be) - op.start.max(bs)).max(0.0) / dt;
            match op.lane {
                LaneKind::Compute => compute[b] += o * op.utilization,
                LaneKind::Comm => comm[b] += o,
            }
        }
    }
    for v in compute.iter_mut().chain(comm.iter_mut()) {
        *v = v.min(1.0);
    }
    UtilizationTrace {
        device,
        dt,
        compute,
        comm,
    }
}

/// Summary of how injected faults perturbed a timeline run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultImpact {
    /// Number of ops whose duration was stretched by a fault window.
    pub perturbed_ops: usize,
    /// Total extra seconds added across all perturbed ops.
    pub added_seconds: f64,
    /// Fraction of the makespan attributable to fault-induced stretching
    /// (0 when no faults fired or the run is empty).
    pub delay_fraction: f64,
}

/// Extracts the fault-perturbation summary from a finished run.
pub fn fault_impact(tl: &Timeline<'_>) -> FaultImpact {
    let added = tl.fault_delay_seconds();
    let makespan = tl.finish_time();
    FaultImpact {
        perturbed_ops: tl.perturbed_ops(),
        added_seconds: added,
        delay_fraction: if makespan > 0.0 {
            added / makespan
        } else {
            0.0
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{CommCtaPolicy, GpuSpec, LinkSpec, Work};
    use crate::timeline::{Cluster, CollectiveKind, Timeline};

    fn cluster(n: usize) -> Cluster {
        Cluster::single_node(GpuSpec::a40(), n, LinkSpec::nvlink_a40())
    }

    #[test]
    fn busy_fraction_accounts_for_idle() {
        let c = cluster(2);
        let mut t = Timeline::new(&c);
        let a = t.compute(0, Work::tensor(50e9, 10e6), &[], "a");
        // Device 1 waits for device 0 and then does the same work: busy
        // ~50% of the makespan.
        t.compute(1, Work::tensor(50e9, 10e6), &[a], "b");
        let w = t.finish_time();
        let m = device_metrics(&t, w);
        assert!(
            (m[0].busy_fraction - 0.5).abs() < 0.02,
            "{}",
            m[0].busy_fraction
        );
        assert!(
            (m[1].busy_fraction - 0.5).abs() < 0.02,
            "{}",
            m[1].busy_fraction
        );
    }

    #[test]
    fn avg_utilization_below_busy_fraction() {
        let c = cluster(1);
        let mut t = Timeline::new(&c);
        // A small op never reaches peak efficiency.
        t.compute(0, Work::tensor(1e9, 1e6), &[], "small");
        let w = t.finish_time();
        let m = device_metrics(&t, w);
        assert!(m[0].avg_utilization < m[0].busy_fraction);
        assert!(m[0].avg_utilization > 0.0);
    }

    #[test]
    fn link_busy_tracks_collectives() {
        let c = cluster(2);
        let mut t = Timeline::new(&c);
        t.collective(
            &[0, 1],
            CollectiveKind::AllReduce,
            100e6,
            &[],
            CommCtaPolicy::sequential(),
            false,
            "ar",
        );
        let w = t.finish_time();
        let m = device_metrics(&t, w);
        assert!(m[0].link_busy_fraction > 0.9);
        assert!((m[0].comm_bytes - 100e6).abs() < 1.0);
    }

    #[test]
    fn trace_buckets_cover_op_spans() {
        let c = cluster(1);
        let mut t = Timeline::new(&c);
        t.compute(0, Work::tensor(100e9, 10e6), &[], "a");
        let w = t.finish_time() * 2.0; // second half idle
        let tr = utilization_trace(&t, 0, w, 10);
        assert!(tr.compute[0] > 0.5, "busy at the start");
        assert!(tr.compute[9] < 1e-9, "idle at the end");
    }

    #[test]
    fn zero_window_is_safe() {
        let c = cluster(1);
        let t = Timeline::new(&c);
        let m = device_metrics(&t, 0.0);
        assert_eq!(m[0].busy_fraction, 0.0);
        assert_eq!(m[0].avg_utilization, 0.0);
    }
}
