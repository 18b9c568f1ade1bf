//! The experiment report generator.
//!
//! Runs every experiment of `EXPERIMENTS.md` (E1–E14, F1) at full scale and
//! prints the result rows as human-readable tables; pass `--json` to emit a
//! machine-readable JSON document instead, and `--quick` to run at the
//! reduced scale used by CI. `--sharded` runs *only* the E12 shard-scaling
//! experiment at its full 1M-Zipf scale (the `BENCH_sharded.json` workload)
//! regardless of `--quick`; `--runtime` does the same for the E13
//! persistent-runtime experiment (the `BENCH_runtime.json` workload), and
//! `--checkpoint` for the E14 incremental-checkpointing experiment (the
//! `BENCH_checkpoint.json` workload).
//!
//! ```text
//! cargo run --release -p tps-bench --bin report -- \
//!     [--quick] [--json] [--sharded] [--runtime] [--checkpoint]
//! ```

use tps_bench::experiments as exp;
use tps_bench::json::{Json, ToJson};

struct Report {
    scale: &'static str,
    e1_lp_space: Vec<exp::LpSpaceRow>,
    e2_fractional_space: Vec<exp::LpSpaceRow>,
    e3_update_time: exp::UpdateTimeRow,
    e4_distribution: exp::DistributionRow,
    e5_mestimators: Vec<exp::SamplerRow>,
    e6_f0: exp::F0Row,
    e7_sliding: Vec<exp::SamplerRow>,
    e8_random_order: Vec<exp::SamplerRow>,
    e9_equality: Vec<exp::EqualityRow>,
    e10_multipass: Vec<exp::MultiPassRow>,
    e11_matrix: Vec<exp::SamplerRow>,
    e12_sharded: exp::ShardedScaling,
    e13_runtime: exp::RuntimeReport,
    e14_checkpoint: exp::CheckpointBench,
    f1_checkpoints: Vec<exp::CheckpointRow>,
}

impl ToJson for Report {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("scale", self.scale.to_json()),
            ("e1_lp_space", self.e1_lp_space.to_json()),
            ("e2_fractional_space", self.e2_fractional_space.to_json()),
            ("e3_update_time", self.e3_update_time.to_json()),
            ("e4_distribution", self.e4_distribution.to_json()),
            ("e5_mestimators", self.e5_mestimators.to_json()),
            ("e6_f0", self.e6_f0.to_json()),
            ("e7_sliding", self.e7_sliding.to_json()),
            ("e8_random_order", self.e8_random_order.to_json()),
            ("e9_equality", self.e9_equality.to_json()),
            ("e10_multipass", self.e10_multipass.to_json()),
            ("e11_matrix", self.e11_matrix.to_json()),
            ("e12_sharded", self.e12_sharded.to_json()),
            ("e13_runtime", self.e13_runtime.to_json()),
            ("e14_checkpoint", self.e14_checkpoint.to_json()),
            ("f1_checkpoints", self.f1_checkpoints.to_json()),
        ])
    }
}

fn build_report(quick: bool) -> Report {
    if quick {
        Report {
            scale: "quick",
            e1_lp_space: exp::e1_lp_space(&[256, 1_024, 4_096], &[1.25, 1.5, 2.0], 0.1),
            e2_fractional_space: exp::e2_fractional_space(
                &[1_000, 4_000, 16_000],
                &[0.5, 0.75],
                0.1,
            ),
            e3_update_time: exp::e3_update_time(20_000, 1_024, &[8, 32, 128], &[100, 10_000]),
            e4_distribution: exp::e4_distribution(10_000, 64, 10, 500, 0.05),
            e5_mestimators: exp::e5_mestimators(4_000, 48, 800),
            e6_f0: exp::e6_f0(&[1_024, 4_096, 16_384], 500),
            e7_sliding: exp::e7_sliding(300, 1_800, 400),
            e8_random_order: exp::e8_random_order(2_000),
            e9_equality: exp::e9_equality(&[0.0, 0.01, 0.05, 0.1], 128, 4_000),
            e10_multipass: exp::e10_multipass(4_096, 3_000, &[0.5, 0.25, 0.125]),
            e11_matrix: exp::e11_matrix(&[4, 16], 400),
            e12_sharded: exp::e12_sharded(200_000, 4_096, &[1, 2, 4]),
            e13_runtime: exp::e13_runtime(200_000, 4_096, &[1, 2, 4]),
            e14_checkpoint: exp::e14_checkpoint(200_000, 4_096, 50),
            f1_checkpoints: exp::f1_checkpoints(&[1_000, 10_000]),
        }
    } else {
        Report {
            scale: "full",
            e1_lp_space: exp::e1_lp_space(
                &[256, 1_024, 4_096, 16_384],
                &[1.0, 1.25, 1.5, 2.0],
                0.05,
            ),
            e2_fractional_space: exp::e2_fractional_space(
                &[1_000, 4_000, 16_000, 64_000],
                &[0.25, 0.5, 0.75],
                0.05,
            ),
            e3_update_time: exp::e3_update_time(
                100_000,
                4_096,
                &[8, 32, 128, 512],
                &[100, 10_000, 1_000_000],
            ),
            e4_distribution: exp::e4_distribution(40_000, 128, 20, 1_500, 0.05),
            e5_mestimators: exp::e5_mestimators(20_000, 64, 2_000),
            e6_f0: exp::e6_f0(&[1_024, 4_096, 16_384, 65_536], 1_500),
            e7_sliding: exp::e7_sliding(400, 2_400, 500),
            e8_random_order: exp::e8_random_order(8_000),
            e9_equality: exp::e9_equality(&[0.0, 0.001, 0.01, 0.05, 0.1], 256, 20_000),
            e10_multipass: exp::e10_multipass(16_384, 8_000, &[0.5, 0.25, 0.125]),
            e11_matrix: exp::e11_matrix(&[4, 16, 64], 800),
            e12_sharded: sharded_scaling_full(),
            e13_runtime: runtime_report_full(),
            e14_checkpoint: checkpoint_bench_full(),
            f1_checkpoints: exp::f1_checkpoints(&[1_000, 10_000, 100_000]),
        }
    }
}

/// The E12 acceptance workload: shard-count scaling of hash-sharded L2
/// ingest on the 1M-update Zipf(1.1) stream (the `BENCH_sharded.json`
/// record).
fn sharded_scaling_full() -> exp::ShardedScaling {
    exp::e12_sharded(1_000_000, 4_096, &[1, 2, 4, 8])
}

/// The E13 acceptance workload: persistent-runtime ingest vs the retired
/// scoped-thread path plus the ingest-during-query leg on the 1M-update
/// Zipf(1.1) stream (the `BENCH_runtime.json` record).
fn runtime_report_full() -> exp::RuntimeReport {
    exp::e13_runtime(1_000_000, 4_096, &[1, 2, 4, 8])
}

/// The E14 acceptance workload: incremental vs full checkpoint sizes and
/// chain-replay recovery on the 1M-update hot-shard Zipf(1.5) stream (the
/// `BENCH_checkpoint.json` record). The acceptance bar asks deltas ≥ 4x
/// smaller than full snapshots with byte-identical recovery.
fn checkpoint_bench_full() -> exp::CheckpointBench {
    exp::e14_checkpoint(1_000_000, 4_096, 100)
}

fn print_sampler_rows(title: &str, rows: &[exp::SamplerRow]) {
    println!("\n== {title} ==");
    println!(
        "{:<28} {:>10} {:>12} {:>10} {:>12}",
        "sampler", "TV", "noise floor", "fail rate", "space (KiB)"
    );
    for r in rows {
        println!(
            "{:<28} {:>10.4} {:>12.4} {:>10.3} {:>12.1}",
            r.measure,
            r.tv_distance,
            r.expected_noise,
            r.fail_rate,
            r.space_bytes as f64 / 1024.0
        );
    }
}

fn print_sharded(scaling: &exp::ShardedScaling) {
    println!(
        "\n== E12: sharded ingest scaling ({} updates, {} core(s) available) ==",
        scaling.stream_length, scaling.cores
    );
    println!(
        "single-instance batched baseline  : {:>8.2} Melem/s",
        scaling.single_melem_per_s
    );
    println!(
        "{:>10} {:>14} {:>12} {:>18} {:>14}",
        "shards", "Melem/s", "speedup", "critical Melem/s", "crit speedup"
    );
    for r in &scaling.rows {
        println!(
            "{:>10} {:>14.2} {:>12.2} {:>18.2} {:>14.2}",
            r.shards,
            r.melem_per_s,
            r.speedup_vs_single,
            r.critical_path_melem_per_s,
            r.critical_path_speedup
        );
    }
}

fn print_runtime(report: &exp::RuntimeReport) {
    println!(
        "\n== E13: persistent runtime vs scoped threads ({} updates in {}-item batches, \
         {} core(s) available) ==",
        report.stream_length, report.batch_len, report.cores
    );
    println!(
        "{:>10} {:>18} {:>18} {:>10}",
        "shards", "runtime Melem/s", "scoped Melem/s", "ratio"
    );
    for r in &report.rows {
        println!(
            "{:>10} {:>18.2} {:>18.2} {:>10.2}",
            r.shards, r.runtime_melem_per_s, r.scoped_melem_per_s, r.runtime_vs_scoped
        );
    }
    println!(
        "ingest w/ query every {} batches : {:.2} Melem/s vs {:.2} quiet ({:.2}x)",
        report.query_every_batches,
        report.querying_melem_per_s,
        report.quiet_melem_per_s,
        report.querying_vs_quiet
    );
    println!(
        "query latency                    : {:.1} us consistent cut vs {:.1} us with no backlog",
        report.snapshot_query_micros, report.clone_merge_query_micros
    );
}

fn print_checkpoint(bench: &exp::CheckpointBench) {
    println!(
        "\n== E14: incremental checkpointing ({} updates, {} checkpoints) ==",
        bench.stream_length, bench.checkpoints
    );
    println!(
        "chain frames                     : {} delta + {} full",
        bench.delta_frames, bench.full_frames
    );
    println!(
        "mean full snapshot               : {:>10.0} bytes",
        bench.full_snapshot_bytes_mean
    );
    println!(
        "mean delta frame                 : {:>10.0} bytes ({:.1}x smaller)",
        bench.delta_frame_bytes_mean, bench.full_over_delta
    );
    println!(
        "chain bytes vs always-full       : {:>10.3}",
        bench.chain_bytes_vs_full
    );
    println!(
        "chain replay + restore           : {:>10.1} us (byte-identical: {})",
        bench.recovery_micros, bench.recovery_byte_identical
    );
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let json = args.iter().any(|a| a == "--json");
    if args.iter().any(|a| a == "--checkpoint") {
        let bench = checkpoint_bench_full();
        if json {
            let doc = Json::Obj(vec![
                ("scale", "checkpoint".to_json()),
                ("e14_checkpoint", bench.to_json()),
            ]);
            println!("{}", doc.pretty());
        } else {
            print_checkpoint(&bench);
        }
        return;
    }
    if args.iter().any(|a| a == "--runtime") {
        let report = runtime_report_full();
        if json {
            let doc = Json::Obj(vec![
                ("scale", "runtime".to_json()),
                ("e13_runtime", report.to_json()),
            ]);
            println!("{}", doc.pretty());
        } else {
            print_runtime(&report);
        }
        return;
    }
    if args.iter().any(|a| a == "--sharded") {
        let scaling = sharded_scaling_full();
        if json {
            let doc = Json::Obj(vec![
                ("scale", "sharded".to_json()),
                ("e12_sharded", scaling.to_json()),
            ]);
            println!("{}", doc.pretty());
        } else {
            print_sharded(&scaling);
        }
        return;
    }
    let report = build_report(quick);

    if json {
        println!("{}", report.to_json().pretty());
        return;
    }

    println!(
        "truly-perfect-samplers experiment report (scale: {})",
        report.scale
    );

    println!("\n== E1: truly perfect Lp space vs universe size (theory: n^(1-1/p)) ==");
    println!(
        "{:<6} {:>40} {:>12} {:>12}",
        "p", "space bytes per n", "fitted exp", "theory exp"
    );
    for r in &report.e1_lp_space {
        let pts: Vec<String> = r.points.iter().map(|(n, b)| format!("{n}:{b}")).collect();
        println!(
            "{:<6} {:>40} {:>12.3} {:>12.3}",
            r.p,
            pts.join(" "),
            r.fitted_exponent,
            r.theory_exponent
        );
    }

    println!("\n== E2: fractional-p instance count vs stream length (theory: m^(1-p)) ==");
    println!(
        "{:<6} {:>40} {:>12} {:>12}",
        "p", "instances per m", "fitted exp", "theory exp"
    );
    for r in &report.e2_fractional_space {
        let pts: Vec<String> = r
            .points
            .iter()
            .zip(&r.instances)
            .map(|((m, _), k)| format!("{m}:{k}"))
            .collect();
        println!(
            "{:<6} {:>40} {:>12.3} {:>12.3}",
            r.p,
            pts.join(" "),
            r.fitted_exponent,
            r.theory_exponent
        );
    }

    println!("\n== E3: update time (ns/update) ==");
    println!(
        "truly perfect L2 sampler      : {:>10.0}",
        report.e3_update_time.truly_perfect_nanos_per_update
    );
    println!(
        "truly perfect L2, batched     : {:>10.0}  (speedup {:.2}x)",
        report.e3_update_time.truly_perfect_batch_nanos_per_update,
        report.e3_update_time.batch_speedup
    );
    println!(
        "strict turnstile F0           : {:>10.0}",
        report.e3_update_time.turnstile_f0_nanos_per_update
    );
    println!(
        "strict turnstile F0, batched  : {:>10.0}  (speedup {:.2}x)",
        report.e3_update_time.turnstile_f0_batch_nanos_per_update,
        report.e3_update_time.turnstile_batch_speedup
    );
    for (dup, nanos) in report
        .e3_update_time
        .baseline_duplications
        .iter()
        .zip(&report.e3_update_time.baseline_nanos_per_update)
    {
        println!("perfect baseline, dup = {dup:<6}: {nanos:>10.0}");
    }
    for ((slots, len), nanos) in report
        .e3_update_time
        .engine_slot_counts
        .iter()
        .zip(&report.e3_update_time.engine_stream_lengths)
        .zip(&report.e3_update_time.engine_nanos_per_update)
    {
        println!("skip-ahead engine, {slots:>9} slots (n = {len:>9}): {nanos:>10.0}");
    }

    println!("\n== E4: exactness and composition drift ==");
    let d = &report.e4_distribution;
    println!(
        "single-run TV (truly perfect)     : {:.4}",
        d.truly_perfect_tv
    );
    println!(
        "multinomial noise floor           : {:.4}",
        d.expected_noise
    );
    println!(
        "drift ratio, truly perfect        : {:.2}",
        d.truly_perfect_drift_ratio
    );
    println!(
        "drift ratio, gamma = {:<12.3}: {:.2}",
        d.gamma, d.biased_drift_ratio
    );

    print_sampler_rows("E5: M-estimator samplers", &report.e5_mestimators);

    println!("\n== E6: F0 sampler ==");
    let f = &report.e6_f0;
    let pts: Vec<String> = f.points.iter().map(|(n, b)| format!("{n}:{b}")).collect();
    println!("space per universe size           : {}", pts.join(" "));
    println!(
        "fitted space exponent (theory 0.5): {:.3}",
        f.fitted_space_exponent
    );
    println!("TV at largest size                : {:.4}", f.tv_distance);
    println!("fail rate at largest size         : {:.4}", f.fail_rate);

    print_sampler_rows("E7: sliding-window samplers", &report.e7_sliding);
    print_sampler_rows("E8: random-order samplers", &report.e8_random_order);

    println!("\n== E9: equality attack vs gamma (Theorem 1.2) ==");
    println!(
        "{:>10} {:>22} {:>22}",
        "gamma", "observed advantage", "lower bound (bits)"
    );
    for r in &report.e9_equality {
        println!(
            "{:>10.4} {:>22.4} {:>22.2}",
            r.gamma, r.observed_advantage, r.lower_bound_bits
        );
    }

    println!("\n== E10: strict-turnstile multi-pass trade-off (Theorem 1.5) ==");
    println!(
        "{:>10} {:>10} {:>16} {:>10}",
        "gamma", "passes", "peak counters", "TV"
    );
    for r in &report.e10_multipass {
        println!(
            "{:>10.3} {:>10} {:>16} {:>10.4}",
            r.gamma, r.passes, r.peak_counters, r.tv_distance
        );
    }

    print_sampler_rows("E11: matrix row sampling", &report.e11_matrix);

    print_sharded(&report.e12_sharded);
    print_runtime(&report.e13_runtime);
    print_checkpoint(&report.e14_checkpoint);

    println!("\n== F1: smooth-histogram checkpoints ==");
    println!(
        "{:>12} {:>14} {:>16}",
        "window", "checkpoints", "sandwich holds"
    );
    for r in &report.f1_checkpoints {
        println!(
            "{:>12} {:>14} {:>16}",
            r.window, r.checkpoints, r.sandwich_holds
        );
    }
}
