//! One benchmark for the ATNN service.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve-small|train --seed N --seconds S --trace 0|1
//! ```
//!
//! Every workload runs the service's whole lifecycle on the paper-scale
//! catalogue (20k items, 4k users, 400k interactions; the catalogue is
//! fixed, and `--seed` seeds the request streams): boot the default
//! serving plane, train one epoch on the
//! warm-item split, evaluate on the new arrivals, publish the trained
//! model, then serve open-loop traffic over two connections and check
//! every reply against an exact oracle. The workloads differ in the
//! traffic (see `workload`). With `--trace 0` the last stdout line holds
//! the end-to-end metrics; with `--trace 1` it holds the per-layer ones,
//! and stderr carries the span self-time table, the reconciliation of the
//! layers against client p50, and the tracing overhead.

mod life;
mod load;
mod probes;
mod serving;
mod trace;
mod util;

use std::process::ExitCode;
use std::sync::atomic::AtomicU64;
use std::sync::Mutex;
use std::time::Instant;

use load::{Mix, Outcome};
use serving::{publish_once, ServeSpec};
use trace::SpanLog;
use util::{median, quantile, result_line, secs_since, Metric};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Evaluations and full publishes per run; their times are reported as
/// medians (each is under half a second, so one sample is mostly noise).
/// Half of each run before the traffic, on the trained model, and half
/// after it, on the served model, so one quiet or busy stretch of the host
/// does not decide the median.
const EVALS: usize = 24;
const FULL_PUBLISHES: u64 = 24;
/// Delta publishes measured with no traffic, when none run beside the
/// reads: in three groups, before the serving phase, after it and after
/// the second half of the evaluations, each spaced `IDLE_GAP` apart, so
/// one quiet or busy stretch of the host does not decide the median.
const IDLE_PUBLISHES: usize = 60;
const IDLE_GAP: std::time::Duration = std::time::Duration::from_millis(10);
/// Recorded cold-start and full-feature AUC after one epoch on the fixed
/// catalogue, and the tolerance a run must land within. Training is
/// deterministic, so the slack only admits changes in floating-point
/// summation order; a change in what is learned shows as a miss.
const AUC_COLD_REF: f64 = 0.8223;
const AUC_FULL_REF: f64 = 0.8443;
const AUC_TOL: f64 = 0.005;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .cloned()
            .ok_or_else(|| format!("missing {flag}"))
    };
    let seconds: f64 = get("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
    if !(1.0..=600.0).contains(&seconds) {
        return Err("--seconds must be in 1..=600".into());
    }
    Ok(Args {
        workload: get("--workload")?,
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace: match get("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other}")),
        },
    })
}

/// The traffic each workload offers after the shared lifecycle. Both send
/// 8-item cold/warm/routed/`TopK` requests.
///
/// - `serve-small`: a strided 1% delta publish every 50 ms beside the
///   reads. The fixed per-request cost (decode, batcher hop, wakeup,
///   encode, flush) dominates; writes beside reads show snapshot/COW
///   trade-offs.
/// - `train`: the lifecycle's train-evaluate-publish is this workload's
///   point. Its traffic adds one catalogue-wide `TopKAll` in ten and drops
///   the publishes: ANN probing sits on the read path, and it is the
///   publish-free control for serve-small.
fn workload(name: &str, num_items: u32, half: u32) -> Option<ServeSpec> {
    let mix = |topk_all| Mix { topk_all, num_items, half };
    Some(match name {
        "serve-small" => ServeSpec { mix: mix(false), ladder_base: 40_000.0, publish_during: true },
        "train" => ServeSpec { mix: mix(true), ladder_base: 4_000.0, publish_during: false },
        _ => return None,
    })
}

fn envelope(args: &Args) {
    let caps = atnn_tensor::cpu_caps();
    let rev = std::fs::read_to_string(".git/HEAD").ok().map_or("unknown".to_string(), |h| {
        let h = h.trim();
        match h.strip_prefix("ref: ") {
            Some(r) => std::fs::read_to_string(format!(".git/{r}"))
                .map_or(h.to_string(), |s| s.trim().to_string()),
            None => h.to_string(),
        }
    });
    let date = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    eprintln!(
        "envelope: rev {rev} | unix time {date} | nproc {} | cpu avx2={} fma={} | backend {} | pool width {} | scale paper (20k items, 4k users, 400k interactions) | workload {} seed {} seconds {} trace {}",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        caps.avx2,
        caps.fma,
        atnn_tensor::current_backend_kind().name(),
        atnn_tensor::pool::configured_threads(),
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload serve-small|train --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    if workload(&args.workload, 2, 1).is_none() {
        eprintln!("error: unknown workload {:?}", args.workload);
        return ExitCode::from(2);
    }
    envelope(&args);
    let mut log = SpanLog::default();
    let mut checks: Vec<String> = Vec::new();

    // Set-up: catalogue + booted plane, several times; keep the last.
    let mut setup_times = Vec::new();
    let mut plane = None;
    for _ in 0..if args.trace { 1 } else { SETUPS } {
        drop(plane.take());
        let t = Instant::now();
        plane = Some(life::boot());
        setup_times.push(secs_since(t));
    }
    let life::Plane { data, train_rows, test_rows, manager, handle, control, half } =
        plane.expect("booted");
    let setup_s = median(&setup_times);
    eprintln!(
        "setup: {setup_times:.3?} s (median {setup_s:.3}); {} train rows, {} new-arrival rows",
        train_rows.len(),
        test_rows.len()
    );
    let spec = workload(&args.workload, data.num_items() as u32, half).expect("known workload");

    // Train, evaluate, publish.
    let gemm0 = atnn_tensor::gemm_dispatch_counts();
    let (model, train_epoch_s, epoch) =
        life::train(&data, &train_rows, args.trace.then_some(&mut log));
    let mut evals: Vec<life::Eval> = (0..if args.trace { 1 } else { EVALS / 2 })
        .map(|_| life::evaluate(&model, &data, &test_rows, args.trace.then_some(&mut log)))
        .collect();
    let eval = evals[0];
    eprintln!(
        "train: epoch {train_epoch_s:.3} s | auc cold {:.4} full {:.4}",
        eval.auc_cold, eval.auc_full
    );
    for (name, got, want) in
        [("cold", eval.auc_cold, AUC_COLD_REF), ("full", eval.auc_full, AUC_FULL_REF)]
    {
        if !(got.is_finite() && (got - want).abs() <= AUC_TOL) {
            checks.push(format!("auc {name} {got:.4} outside {want} ± {AUC_TOL}"));
        }
    }
    let mut full_times = life::publish_full_repeated(
        &manager,
        &data,
        &model,
        1..=if args.trace { 1 } else { FULL_PUBLISHES / 2 },
        args.trace.then_some(&mut log),
    );
    drop(model);
    let gemm1 = atnn_tensor::gemm_dispatch_counts();
    drop(data);
    let oracle = life::Oracle::new(&manager, half);
    eprintln!("oracle: embed {:.1} ms", oracle.embed_ms);

    // Serve.
    let control = Mutex::new(control);
    let addr = handle.local_addr();
    let epoch_ctr = AtomicU64::new(0);
    let changed = serving::delta_ids(oracle.cold.len());
    let idle_publishes = || -> Vec<serving::PubSample> {
        let n = if spec.publish_during { 0 } else { IDLE_PUBLISHES / 3 };
        (0..n)
            .map(|_| {
                std::thread::sleep(IDLE_GAP);
                publish_once(&manager, &control, &changed, &epoch_ctr)
            })
            .collect()
    };
    let mut publishes = idle_publishes();
    let mut serving =
        serving::run(&spec, addr, &manager, &control, &oracle, args.seed, args.seconds, args.trace);
    let reference = &serving.reference;
    let ref_lat = reference.latencies();
    // p99 as the median over short windows: a host stall (this class of
    // two-vCPU virtual machine stalls for milliseconds, at worst a few
    // times a second) spoils the windows it falls in, not the result.
    let window_p99s = reference.window_p99s();
    let (p50_us, p99_us) = (quantile(&ref_lat, 0.5), quantile(&window_p99s, 0.5));
    eprintln!(
        "reference {:.0} req/s for {:.1} s: sent {} ok {} shed {} error {} wrong {} lost {} | p50 {p50_us:.1} us, p99 {p99_us:.1} us (median of window p99s) | n={} | late p99 {:.0} us",
        reference.rate,
        reference.secs,
        reference.samples.len(),
        reference.count(Outcome::Ok),
        reference.count(Outcome::Shed),
        reference.count(Outcome::Error),
        reference.count(Outcome::Wrong),
        reference.count(Outcome::Lost),
        ref_lat.len(),
        quantile(&reference.late(), 0.99),
    );
    eprintln!(
        "reference tail over the whole phase: p90 {:.1} p95 {:.1} p99 {:.1} p99.9 {:.1} us | window p99s ({}) min {:.1} q1 {:.1} q3 {:.1} max {:.1} us | max_rps {:.1}",
        quantile(&ref_lat, 0.9),
        quantile(&ref_lat, 0.95),
        quantile(&ref_lat, 0.99),
        quantile(&ref_lat, 0.999),
        window_p99s.len(),
        window_p99s[0],
        quantile(&window_p99s, 0.25),
        quantile(&window_p99s, 0.75),
        window_p99s[window_p99s.len() - 1],
        serving.max_rps
    );

    publishes.extend(std::mem::take(&mut serving.publishes));
    publishes.extend(idle_publishes());

    // The served catalogue-wide answer, as a client gets it now.
    let mut served_topk = Vec::new();
    {
        let mut c = control.lock().expect("control connection");
        let resp = c.topk_all(load::K).expect("TopKAll");
        let req = atnn_serve::Request::TopKAll { k: load::K };
        let mut served = None;
        if load::check(&req, &resp, &oracle, &mut served) != Outcome::Ok {
            checks.push(format!("TopKAll probe answer wrong: {resp:?}"));
        }
        if let Some(ids) = served {
            served_topk = ids;
        }
    }
    if serving.reference.topk_all_answers.iter().any(|a| *a != served_topk) {
        checks.push("TopKAll answers differ within one model".into());
    }
    let (topk_recall, plain_recall) = oracle.recall(&served_topk, load::K as usize);
    eprintln!("topk: served {served_topk:?} | exact {:?} | recall@10 {plain_recall:.2} | rank-discounted {topk_recall:.4}", &oracle.order[..load::K as usize]);

    if !args.trace {
        let snap = manager.load();
        evals.extend(
            (0..EVALS / 2).map(|_| life::evaluate(&snap.model, &snap.data, &test_rows, None)),
        );
        let next = snap.version + 1;
        full_times.extend(life::publish_full_repeated(
            &manager,
            &snap.data,
            &snap.model,
            next..=next + FULL_PUBLISHES / 2 - 1,
            None,
        ));
        drop(snap);
        publishes.extend(idle_publishes());
    }
    // Publishes: beside the reads (serve-small), else idle around it.
    let in_ref: Vec<&serving::PubSample> = publishes
        .iter()
        .filter(|p| {
            !spec.publish_during || (p.at >= serving.ref_window.0 && p.at < serving.ref_window.1)
        })
        .collect();
    let mut delta_ms: Vec<f64> = in_ref.iter().map(|p| p.total_ms).collect();
    delta_ms.sort_by(f64::total_cmp);
    let publish_delta_ms = quantile(&delta_ms, 0.5);
    eprintln!(
        "publish_delta: {} publishes ({} measured) | median {publish_delta_ms:.3} ms (q1 {:.3}, q3 {:.3}; build {:.3}, visible {:.3})",
        publishes.len(),
        in_ref.len(),
        quantile(&delta_ms, 0.25),
        quantile(&delta_ms, 0.75),
        median(&in_ref.iter().map(|p| p.build_ms).collect::<Vec<_>>()),
        median(&in_ref.iter().map(|p| p.visible_us / 1e3).collect::<Vec<_>>()),
    );

    let publish_full_s = median(&full_times);
    eprintln!("publish: full {:.1} ms (median of {})", publish_full_s * 1e3, full_times.len());
    let eval_s = median(&evals.iter().map(|e| e.secs).collect::<Vec<_>>());
    eprintln!("eval: {eval_s:.3} s (median of {})", evals.len());
    if evals.iter().any(|e| (e.auc_cold, e.auc_full) != (eval.auc_cold, eval.auc_full)) {
        checks.push("the trained and the served model evaluate to different AUCs".into());
    }

    let wrong: usize = std::iter::once(&serving.reference)
        .chain(serving.traced_reference.as_ref())
        .map(|p| p.count(Outcome::Wrong))
        .chain(serving.rungs.iter().map(|r| r.wrong))
        .sum();
    if wrong > 0 {
        checks.push(format!("{wrong} replies disagreed with the oracle"));
    }
    let attempted = reference.samples.len() as u64 + publishes.len() as u64;
    let failed = reference.failed() as u64;

    let peak_rss_mb = atnn_obs::peak_rss_bytes().map_or(f64::NAN, |b| b as f64 / (1024.0 * 1024.0));
    if let Some(traced) = serving.traced_reference.as_mut() {
        log.merge(std::mem::take(&mut traced.log));
    }
    let metrics = if !args.trace {
        vec![
            Metric { name: "setup_s", value: setup_s, unit: "s" },
            Metric { name: "p50_us", value: p50_us, unit: "us" },
            Metric { name: "max_rps", value: serving.max_rps, unit: "1/s" },
            Metric { name: "topk_recall", value: topk_recall, unit: "ratio" },
            Metric { name: "publish_delta_ms", value: publish_delta_ms, unit: "ms" },
            Metric { name: "train_epoch_s", value: train_epoch_s, unit: "s" },
            Metric { name: "eval_s", value: eval_s, unit: "s" },
            Metric { name: "publish_full_ms", value: publish_full_s * 1e3, unit: "ms" },
            Metric { name: "auc_cold", value: eval.auc_cold, unit: "ratio" },
            Metric { name: "peak_rss_mb", value: peak_rss_mb, unit: "MB" },
        ]
    } else {
        per_layer(
            &args, &spec, &manager, &control, &oracle, &serving, &publishes, &epoch, &eval, gemm0,
            gemm1, p50_us, p99_us, &mut log,
        )
    };
    for m in &metrics {
        if !m.value.is_finite() {
            checks.push(format!("metric {} has no value", m.name));
        }
    }
    drop(control);
    drop(handle);
    for c in &checks {
        eprintln!("CHECK FAILED: {c}");
    }
    println!("{}", result_line(checks.is_empty(), attempted, failed, &metrics));
    ExitCode::SUCCESS
}

/// The traced run's per-layer metrics, plus the self-time table, the
/// reconciliation line and the tracing overhead on stderr.
#[allow(clippy::too_many_arguments)]
fn per_layer(
    args: &Args,
    spec: &ServeSpec,
    manager: &atnn_serve::ModelManager,
    control: &Mutex<atnn_serve::ServeClient>,
    oracle: &life::Oracle,
    serving: &serving::Serving,
    publishes: &[serving::PubSample],
    epoch: &life::EpochTrace,
    eval: &life::Eval,
    gemm0: (u64, u64, u64, u64),
    gemm1: (u64, u64, u64, u64),
    p50_us: f64,
    p99_us: f64,
    log: &mut SpanLog,
) -> Vec<Metric> {
    let reqs = probes::sample_requests(&spec.mix, args.seed);
    let snap = manager.load();
    let health_rtt_us = probes::health_rtt_us(&mut control.lock().expect("control"), log);
    let (encode_ns, decode_ns) = probes::protocol_ns(&reqs, oracle, log);
    let split_ns = probes::router_split_ns(&reqs, &spec.mix, log);
    let (cold_ns, warm_ns) = probes::manager_score_ns(&snap, &reqs, oracle, log);
    let (roundtrip_us, hop_us) = probes::batcher_us(manager, &reqs, log);
    let scatter_us = probes::scatter_us(manager, &reqs, log);
    let (topk_all_us, recall_nprobe) = probes::ann_topk(&snap, oracle, log);
    let ann_build_ms = probes::ann_build_ms(oracle, log);

    // Server-side latency of the scoring endpoints after the reference
    // phase, weighted by their request counts.
    let scoring = ["score_new_arrival", "score_warm_item", "score", "topk", "topk_all"];
    let eps: Vec<_> = serving
        .stats_after_ref
        .endpoints
        .iter()
        .filter(|e| scoring.contains(&e.name.as_str()))
        .collect();
    let total: u64 = eps.iter().map(|e| e.requests).sum::<u64>().max(1);
    let wmean = |f: &dyn Fn(&atnn_serve::protocol::EndpointStats) -> u64| {
        eps.iter().map(|e| f(e) as f64 * e.requests as f64).sum::<f64>() / total as f64 / 1e3
    };
    let (ep50, ep99) = (wmean(&|e| e.p50_ns), wmean(&|e| e.p99_ns));

    let best = serving::highest_pass(&serving.rungs);
    let mean_batch_items = best.or(serving.rungs.first()).map_or(f64::NAN, |r| r.mean_batch_items);
    let shed: u64 = serving.rungs.iter().map(|r| r.shed).sum();

    let med = |f: &dyn Fn(&serving::PubSample) -> f64| {
        median(&publishes.iter().map(f).collect::<Vec<_>>())
    };
    // Reference-phase requests whose lifetime overlapped a publish, against
    // the rest.
    let p99_of = |during: bool| {
        let mut v: Vec<f64> = serving
            .reference
            .samples
            .iter()
            .filter(|s| s.during_publish == during && s.latency_us.is_finite())
            .map(|s| s.latency_us)
            .collect();
        v.sort_by(f64::total_cmp);
        (quantile(&v, 0.99), v.len())
    };
    let (p99_during, n_during) = p99_of(true);
    let (p99_steady, n_steady) = p99_of(false);

    // Tracing overhead: the same reference phase with spans on.
    let traced = serving.traced_reference.as_ref().expect("traced run has a traced phase");
    let traced_p50 = quantile(&traced.latencies(), 0.5);
    let overhead_us = traced_p50 - p50_us;

    // Reconciliation: the layers a scoring request crosses, against p50.
    let routed_share = reqs
        .iter()
        .filter(|r| {
            matches!(r, atnn_serve::Request::Score { .. } | atnn_serve::Request::TopK { .. })
        })
        .count() as f64
        / reqs.len() as f64;
    let layers_us = (encode_ns + decode_ns + split_ns * routed_share) / 1e3 + scatter_us;
    let residual_us = p50_us - layers_us;
    eprintln!(
        "reconcile {}: client p50 {p50_us:.1} us = layers {layers_us:.1} us [protocol encode {:.2} + decode {:.2} + router split {:.2} x {routed_share:.2} + shard scatter {scatter_us:.1} (batcher roundtrip {roundtrip_us:.1}, hop {hop_us:.1})] + residual {residual_us:.1} us ({:.0}%; a bare Health round trip is {health_rtt_us:.1} us; server-side endpoint p50 {ep50:.1} us)",
        args.workload,
        encode_ns / 1e3,
        decode_ns / 1e3,
        split_ns / 1e3,
        100.0 * residual_us / p50_us,
    );
    eprintln!(
        "tracing overhead: client p50 traced {traced_p50:.1} us vs untraced {p50_us:.1} us: {overhead_us:+.1} us; p99 traced {:.1} us vs untraced {:.1} us",
        quantile(&traced.window_p99s(), 0.5),
        quantile(&serving.reference.window_p99s(), 0.5),
    );
    eprintln!("publish overlap: p99 during publishes {p99_during:.0} us (n={n_during}) vs steady {p99_steady:.0} us (n={n_steady})");
    let mut steps = log.durations_ns("trainer.step");
    steps.sort_by(f64::total_cmp);
    eprintln!(
        "train steps: {} | step ms p50 {:.3} p90 {:.3} max {:.3} | {} backward passes ({} nodes), {} StepTiming events",
        epoch.steps,
        quantile(&steps, 0.5) / 1e6,
        quantile(&steps, 0.9) / 1e6,
        steps.last().copied().unwrap_or(f64::NAN) / 1e6,
        epoch.backward_passes,
        epoch.backward_nodes,
        epoch.step_timing_events,
    );
    eprintln!("span self time (count, total ms, self ms):");
    for (name, (n, total, own)) in log.self_times() {
        eprintln!("  {name:<24} {n:>8} {:>12.3} {:>12.3}", total / 1e6, own / 1e6);
    }

    let backward_ms = epoch.backward_ms;
    vec![
        Metric { name: "server.health_rtt_us", value: health_rtt_us, unit: "us" },
        Metric { name: "protocol.decode_ns", value: decode_ns, unit: "ns" },
        Metric { name: "protocol.encode_ns", value: encode_ns, unit: "ns" },
        Metric { name: "router.split_ns", value: split_ns, unit: "ns" },
        Metric { name: "batcher.roundtrip_us", value: roundtrip_us, unit: "us" },
        Metric { name: "batcher.hop_us", value: hop_us, unit: "us" },
        Metric { name: "shard.scatter_us", value: scatter_us, unit: "us" },
        Metric { name: "batcher.mean_batch_items", value: mean_batch_items, unit: "items" },
        Metric { name: "batcher.shed", value: shed as f64, unit: "count" },
        Metric { name: "server.endpoint_p50_us", value: ep50, unit: "us" },
        Metric { name: "server.endpoint_p99_us", value: ep99, unit: "us" },
        Metric { name: "server.residual_us", value: p50_us - ep50, unit: "us" },
        Metric { name: "manager.score_cold_ns_per_item", value: cold_ns, unit: "ns" },
        Metric { name: "manager.score_warm_ns_per_item", value: warm_ns, unit: "ns" },
        Metric { name: "ann.topk_all_us", value: topk_all_us, unit: "us" },
        Metric { name: "ann.recall_nprobe", value: recall_nprobe, unit: "ratio" },
        Metric { name: "manager.delta_build_ms", value: med(&|p| p.build_ms), unit: "ms" },
        Metric { name: "manager.publish_swap_us", value: med(&|p| p.swap_us), unit: "us" },
        Metric { name: "manager.visible_us", value: med(&|p| p.visible_us), unit: "us" },
        Metric { name: "ann.moved_lists", value: med(&|p| p.moved as f64), unit: "count" },
        Metric { name: "client.p99_us", value: p99_us, unit: "us" },
        Metric {
            name: "client.p99_during_publish_us",
            value: if n_during > 0 { p99_during } else { 0.0 },
            unit: "us",
        },
        Metric { name: "client.p99_steady_us", value: p99_steady, unit: "us" },
        Metric { name: "data.gather_ms", value: epoch.gather_ms, unit: "ms" },
        Metric { name: "trainer.step_ms", value: epoch.step_ms, unit: "ms" },
        Metric { name: "autograd.backward_ms", value: backward_ms, unit: "ms" },
        Metric {
            name: "autograd.nodes_per_step",
            value: epoch.backward_nodes as f64 / epoch.steps.max(1) as f64,
            unit: "count",
        },
        Metric {
            name: "trainer.fwd_opt_ms_derived",
            value: epoch.step_ms - backward_ms,
            unit: "ms",
        },
        Metric { name: "tensor.gemm_tiled", value: (gemm1.0 - gemm0.0) as f64, unit: "count" },
        Metric { name: "tensor.gemm_small", value: (gemm1.1 - gemm0.1) as f64, unit: "count" },
        Metric { name: "tensor.gemm_parallel", value: (gemm1.3 - gemm0.3) as f64, unit: "count" },
        Metric { name: "eval.forward_ms", value: eval.forward_ms, unit: "ms" },
        Metric { name: "metrics.auc_ms", value: eval.auc_ms, unit: "ms" },
        Metric { name: "manager.embed_ms", value: oracle.embed_ms, unit: "ms" },
        Metric { name: "ann.build_ms", value: ann_build_ms, unit: "ms" },
        Metric {
            name: "popularity.build_ms",
            value: median(&log.durations_ns("popularity.build")) / 1e6,
            unit: "ms",
        },
        Metric {
            name: "manager.swap_us",
            value: median(&log.durations_ns("manager.swap")) / 1e3,
            unit: "us",
        },
        Metric { name: "trace.overhead_us", value: overhead_us, unit: "us" },
        Metric { name: "reconcile.residual_us", value: residual_us, unit: "us" },
    ]
}
