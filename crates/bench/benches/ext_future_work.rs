//! §6 extension experiments (the paper's "Discussion and Future Work"):
//!
//! 1. **Energy efficiency** — MuxTune mitigates wasted device stalls, so
//!    the same content costs fewer joules (tokens/joule up);
//! 2. **Priority-based scheduling** — dedicated instances keep
//!    high-priority task latency at solo levels while low-priority tasks
//!    co-locate for throughput;
//! 3. **SLO-aware admission control** — co-location is admitted only when
//!    every co-resident stays within its SLO.

use mux_baselines::runner::{run_system, SystemKind};
use mux_bench::harness::{a40_cluster, banner, build_workload, row, save_json, x, Combo};
use mux_cluster::policies::{assign_priorities, Priority};
use mux_cluster::sim::{replay, ClusterShape, ThroughputProfile};
use mux_cluster::trace::generate;
use mux_data::corpus::DatasetKind;
use mux_model::config::ModelConfig;

fn energy() -> serde_json::Value {
    banner(
        "Ext 1",
        "energy efficiency (§6): tokens per joule, MuxTune vs baselines",
    );
    let (reg, corpora) = build_workload(
        &ModelConfig::llama2_7b(),
        Combo::Uniform(DatasetKind::OpenBookQa),
        4,
        8,
        3,
    );
    let cluster = a40_cluster(4);
    let mut out = serde_json::Map::new();
    let mut mux_tpj = 0.0;
    for sys in SystemKind::ALL {
        let rep = run_system(sys, &reg, &cluster, &corpora, 4)
            .unwrap_or_else(|_| panic!("{}", sys.name()));
        println!(
            "  {:<8}: {:>8.1} kJ, {:>8.1} effective tokens/joule",
            sys.name(),
            rep.metrics.energy_joules / 1e3,
            rep.metrics.tokens_per_joule
        );
        if sys == SystemKind::MuxTune {
            mux_tpj = rep.metrics.tokens_per_joule;
        } else {
            row(
                &format!("  energy efficiency vs {}", sys.name()),
                "higher (stalls burn idle power)",
                &x(mux_tpj / rep.metrics.tokens_per_joule),
            );
        }
        out.insert(
            sys.name().into(),
            serde_json::json!({
                "joules": rep.metrics.energy_joules,
                "tokens_per_joule": rep.metrics.tokens_per_joule,
            }),
        );
    }
    serde_json::Value::Object(out)
}

fn priority_and_slo() -> serde_json::Value {
    banner(
        "Ext 2+3",
        "priority-based co-location and SLO admission control (§6)",
    );
    let trace = generate(800, 17, None);
    let shape = ClusterShape {
        total_gpus: 128,
        gpus_per_instance: 4,
    };
    let profile = ThroughputProfile::from_rates(vec![1.0, 1.5, 1.8, 2.0]).expect("non-empty");

    // Plain FCFS with co-location everywhere.
    let fcfs = replay(&trace, shape, &profile, None, None, &[]).expect("valid shape");
    // Priority-aware: 15% high-priority tasks get dedicated instances.
    let prios = assign_priorities(&trace, 0.15).expect("fraction in range");
    let pri = replay(&trace, shape, &profile, Some(&prios), None, &[]).expect("valid inputs");
    let solo_high: f64 = {
        let hi: Vec<f64> = trace
            .iter()
            .zip(&prios)
            .filter(|(_, &p)| p == Priority::High)
            .map(|(t, _)| t.duration_min)
            .collect();
        hi.iter().sum::<f64>() / hi.len() as f64
    };
    println!(
        "  FCFS-colocate : throughput {:.1}, mean JCT {:.0} min",
        fcfs.throughput, fcfs.mean_jct_min
    );
    println!(
        "  priority-aware: throughput {:.1}, high JCT {:.0} (service {:.0} = solo {:.0}), low JCT {:.0}, jain(slowdown) {:.3}",
        pri.throughput,
        pri.high.mean_jct_min,
        pri.high.mean_jct_min - pri.high.mean_queue_min,
        solo_high,
        pri.low.mean_jct_min,
        pri.jain_slowdown
    );
    row(
        "  high-priority latency guarantee",
        "dedicated resources, solo-level latency",
        &format!(
            "service/solo = {:.3}",
            (pri.high.mean_jct_min - pri.high.mean_queue_min) / solo_high
        ),
    );

    // SLO-aware admission control over an all-low-priority trace.
    let all_low = vec![Priority::Low; trace.len()];
    let slo =
        replay(&trace, shape, &profile, Some(&all_low), Some(1.8), &[]).expect("valid inputs");
    println!(
        "  SLO admission (1.8x): attainment {:.1}%, throughput {:.1}",
        slo.low.slo_attainment * 100.0,
        slo.throughput
    );
    row(
        "  SLO attainment under admission control",
        "all colocated tasks complete within SLO",
        &format!("{:.1}%", slo.low.slo_attainment * 100.0),
    );
    serde_json::json!({
        "fcfs_throughput": fcfs.throughput,
        "priority_throughput": pri.throughput,
        "high_service_over_solo": (pri.high.mean_jct_min - pri.high.mean_queue_min) / solo_high,
        "slo_attainment": slo.low.slo_attainment,
    })
}

fn main() {
    let e = energy();
    let p = priority_and_slo();
    save_json(
        "ext_future_work",
        &serde_json::json!({ "energy": e, "priority_slo": p }),
    );
}
