//! The service lifecycle every workload runs: generate the catalogue, boot
//! a serving plane, train one epoch, evaluate, publish the trained model,
//! and derive the exact oracle the served answers are checked against.

use std::sync::Arc;
use std::time::Instant;

use atnn_core::{
    evaluate_auc_full, evaluate_auc_generated, gather_batch, Atnn, AtnnConfig, CtrTrainer,
    PopularityIndex, TrainOptions,
};
use atnn_data::dataset::BatchIter;
use atnn_data::tmall::{TmallConfig, TmallDataset};
use atnn_obs::{CaptureSink, Event};
use atnn_serve::{serve, ModelManager, ModelSnapshot, ServeClient, ServeConfig, ServeHandle};
use atnn_tensor::{Matrix, Rng64};

use crate::trace::{time_in, SpanLog};
use crate::util::secs_since;

/// Forward-pass width the oracle embeds the catalogue at (the snapshot
/// build uses the same; the program claims batch-size invariance, which
/// the bit-equality checks would expose if it broke).
const EMBED_BATCH: usize = 512;

/// A booted serving plane over a freshly generated catalogue.
pub struct Plane {
    pub data: TmallDataset,
    /// Interaction rows of warm (trained) items, and of the held-out 20%
    /// of items, the new arrivals.
    pub train_rows: Vec<u32>,
    pub test_rows: Vec<u32>,
    pub manager: Arc<ModelManager>,
    pub handle: ServeHandle,
    pub control: ServeClient,
    /// Items below this id were warmed through `RecordInteractions`.
    pub half: u32,
}

/// Generates the paper-scale catalogue, boots the default serving
/// configuration on an untrained model, and warms the lower half of the
/// catalogue in the policy router. This is the set-up the benchmark times.
///
/// The catalogue is the paper-scale one at its fixed generator seed, so
/// the model-quality metrics (`auc_cold`, `topk_recall`) are exact
/// functions of the code; `--seed` varies the request streams.
pub fn boot() -> Plane {
    let data = TmallDataset::generate(TmallConfig::paper_scale());
    let n = data.num_items() as u32;
    let first_new = n - n / 5;
    let (mut train_rows, mut test_rows) = (Vec::new(), Vec::new());
    for (row, x) in data.interactions.iter().enumerate() {
        if x.item >= first_new {
            test_rows.push(row as u32);
        } else {
            train_rows.push(row as u32);
        }
    }
    let boot_model = Atnn::new(AtnnConfig::scaled(), &data);
    let users: Vec<u32> = (0..data.num_users() as u32).collect();
    let index = PopularityIndex::build(&boot_model, &data, &users);
    let manager =
        Arc::new(ModelManager::new(ModelSnapshot::new(0, data.clone(), boot_model, index)));
    let cfg = ServeConfig::default();
    let warm_threshold = cfg.warm_threshold;
    let handle = serve(cfg, Arc::clone(&manager)).expect("bind an ephemeral port");
    let mut control = ServeClient::connect(handle.local_addr()).expect("control connection");
    let half = n / 2;
    let warm: Vec<u32> = (0..half).collect();
    for chunk in warm.chunks(1024) {
        for _ in 0..warm_threshold {
            control.record_interactions(chunk).expect("warm the router");
        }
    }
    assert_eq!(control.health().expect("health"), 0, "boot snapshot is version 0");
    Plane { data, train_rows, test_rows, manager, handle, control, half }
}

/// What the traced epoch measured (totals over the epoch, milliseconds).
#[derive(Default)]
pub struct EpochTrace {
    pub gather_ms: f64,
    pub step_ms: f64,
    pub backward_ms: f64,
    pub backward_nodes: u64,
    pub backward_passes: u64,
    pub steps: u64,
    /// `StepTiming` events the program emitted (only `CtrTrainer` emits
    /// them; the traced loop drives `train_step` directly).
    pub step_timing_events: u64,
}

/// Trains one epoch on the warm-item rows. Untraced, through
/// `CtrTrainer`; traced, through the same public steps (`gather_batch`,
/// `Atnn::train_step`) with the same shuffle, so both give the same model.
pub fn train(
    data: &TmallDataset,
    rows: &[u32],
    log: Option<&mut SpanLog>,
) -> (Atnn, f64, EpochTrace) {
    let mut model = Atnn::new(AtnnConfig::scaled(), data);
    let opts = TrainOptions::builder().epochs(1).build().expect("valid options");
    let mut tr = EpochTrace::default();
    let t0 = Instant::now();
    match log {
        None => {
            CtrTrainer::new(opts).train(&mut model, data, Some(rows)).expect("warm split trains");
        }
        Some(log) => {
            let sink = Arc::new(CaptureSink::new());
            let guard = atnn_obs::install_scoped(sink.clone());
            let phase = log.open("phase.train", None);
            let mut iter =
                BatchIter::new(rows.to_vec(), opts.batch_size, Rng64::seed_from_u64(opts.seed));
            while let Some(batch) = iter.next_batch() {
                let (profile, stats, users, labels) =
                    log.time("data.gather", Some(phase), || gather_batch(data, batch));
                log.time("trainer.step", Some(phase), || {
                    model.train_step(&profile, &stats, &users, &labels)
                });
                tr.steps += 1;
            }
            log.close(phase);
            drop(guard);
            for e in sink.take() {
                match e {
                    Event::Backward { ns, nodes } => {
                        tr.backward_ms += ns as f64 / 1e6;
                        tr.backward_nodes += nodes;
                        tr.backward_passes += 1;
                    }
                    Event::StepTiming { .. } => tr.step_timing_events += 1,
                    _ => {}
                }
            }
            tr.gather_ms = log.durations_ns("data.gather").iter().sum::<f64>() / 1e6;
            tr.step_ms = log.durations_ns("trainer.step").iter().sum::<f64>() / 1e6;
        }
    }
    (model, secs_since(t0), tr)
}

/// Cold-start and full-feature AUC on the new-arrival rows.
#[derive(Clone, Copy)]
pub struct Eval {
    pub auc_cold: f64,
    pub auc_full: f64,
    pub secs: f64,
    pub forward_ms: f64,
    pub auc_ms: f64,
}

pub fn evaluate(
    model: &Atnn,
    data: &TmallDataset,
    rows: &[u32],
    log: Option<&mut SpanLog>,
) -> Eval {
    let t0 = Instant::now();
    match log {
        None => {
            let auc_cold = evaluate_auc_generated(model, data, rows).unwrap_or(f64::NAN);
            let auc_full = evaluate_auc_full(model, data, rows).unwrap_or(f64::NAN);
            Eval { auc_cold, auc_full, secs: secs_since(t0), forward_ms: 0.0, auc_ms: 0.0 }
        }
        Some(log) => {
            // Serial probe of the same work: gather, forward, AUC.
            let phase = log.open("phase.eval", None);
            let (mut cold, mut full, mut labels) = (Vec::new(), Vec::new(), Vec::new());
            for chunk in rows.chunks(EMBED_BATCH) {
                let (profile, stats, users, y) =
                    log.time("data.gather", Some(phase), || gather_batch(data, chunk));
                log.time("eval.forward", Some(phase), || {
                    cold.extend(model.predict_ctr_generated(&profile, &users));
                    full.extend(model.predict_ctr_full(&profile, &stats, &users));
                });
                labels.extend(y.as_slice().iter().map(|&v| v > 0.5));
            }
            let (auc_cold, auc_full) = log.time("metrics.auc", Some(phase), || {
                (
                    atnn_metrics::auc(&cold, &labels).unwrap_or(f64::NAN),
                    atnn_metrics::auc(&full, &labels).unwrap_or(f64::NAN),
                )
            });
            log.close(phase);
            let forward_ms = log.durations_ns("eval.forward").iter().sum::<f64>() / 1e6;
            let auc_ms = log.durations_ns("metrics.auc").iter().sum::<f64>() / 1e6;
            Eval { auc_cold, auc_full, secs: secs_since(t0), forward_ms, auc_ms }
        }
    }
}

/// Full publishes of `model` as `versions`, each from its own copy of the
/// weights and the catalogue; returns the wall time of each in seconds.
/// The last one stays served.
pub fn publish_full_repeated(
    manager: &ModelManager,
    data: &TmallDataset,
    model: &Atnn,
    versions: std::ops::RangeInclusive<u64>,
    mut log: Option<&mut SpanLog>,
) -> Vec<f64> {
    let weights = model.save();
    versions
        .map(|version| {
            let mut copy = Atnn::new(AtnnConfig::scaled(), data);
            copy.load(weights.clone()).expect("weights of the same configuration");
            publish_full(manager, data.clone(), copy, version, log.as_deref_mut())
        })
        .collect()
}

/// Full publish of the trained model: mean-user index, snapshot build and
/// the fleet-wide swap. Returns the wall time in seconds.
fn publish_full(
    manager: &ModelManager,
    data: TmallDataset,
    model: Atnn,
    version: u64,
    mut log: Option<&mut SpanLog>,
) -> f64 {
    let t0 = Instant::now();
    let phase = log.as_deref_mut().map(|l| l.open("phase.publish", None));
    let users: Vec<u32> = (0..data.num_users() as u32).collect();
    let index = time_in(&mut log, "popularity.build", phase, || {
        PopularityIndex::build(&model, &data, &users)
    });
    let snapshot = time_in(&mut log, "snapshot.new", phase, || {
        ModelSnapshot::new(version, data, model, index)
    });
    time_in(&mut log, "manager.swap", phase, || manager.publish(snapshot).expect("same catalogue"));
    let secs = secs_since(t0);
    if let (Some(l), Some(p)) = (log, phase) {
        l.close(p);
    }
    secs
}

/// The exact answers, derived from the published model's public forward
/// passes and the mean-user index, never from the serving tables.
pub struct Oracle {
    pub cold: Vec<f32>,
    pub warm: Vec<f32>,
    /// Item ids in exact catalogue-wide order (best first, ties by id).
    pub order: Vec<u32>,
    /// Generator (cold-path) vectors, kept for the ANN build probe.
    pub cold_vecs: Matrix,
    pub half: u32,
    pub embed_ms: f64,
}

impl Oracle {
    pub fn new(manager: &ModelManager, half: u32) -> Self {
        let snap = manager.load();
        let (model, data, index) = (&snap.model, &snap.data, &snap.index);
        let n = data.num_items();
        let dim = model.config().vec_dim;
        let t0 = Instant::now();
        let mut cold_vecs = Matrix::zeros(n, dim);
        let (mut cold, mut warm) = (Vec::with_capacity(n), Vec::with_capacity(n));
        let ids: Vec<u32> = (0..n as u32).collect();
        for (c, chunk) in ids.chunks(EMBED_BATCH).enumerate() {
            let profile = data.encode_item_profiles(chunk);
            let stats = data.encode_item_stats(chunk);
            let g = model.item_vectors_generated(&profile);
            let f = model.item_vectors_full(&profile, &stats);
            for i in 0..chunk.len() {
                cold_vecs.row_mut(c * EMBED_BATCH + i).copy_from_slice(g.row(i));
                cold.push(index.score_vector(g.row(i)));
                warm.push(index.score_vector(f.row(i)));
            }
        }
        let embed_ms = secs_since(t0) * 1e3;
        let mean = index.mean_user_vec();
        let cold_dot: Vec<f32> = (0..n).map(|i| atnn_tensor::dot(cold_vecs.row(i), mean)).collect();
        let mut order: Vec<u32> = ids;
        order.sort_by(|&a, &b| {
            cold_dot[b as usize].total_cmp(&cold_dot[a as usize]).then(a.cmp(&b))
        });
        Oracle { cold, warm, order, cold_vecs, half, embed_ms }
    }

    /// The score the routed endpoints must return for `item`.
    pub fn routed(&self, item: u32) -> (f32, bool) {
        let warm = item < self.half;
        (if warm { self.warm[item as usize] } else { self.cold[item as usize] }, warm)
    }

    /// Rank-discounted recall@k of a served catalogue-wide answer: an item
    /// at exact rank r (1-based) earns min(1, k / r), averaged over the k
    /// slots. It is 1 exactly when the answer holds the exact top k, and
    /// shrinks as served items sit further down the exact ranking. Also
    /// returns plain recall@k (share of the exact top k served).
    pub fn recall(&self, served: &[u32], k: usize) -> (f64, f64) {
        let mut rank = vec![0u32; self.order.len()];
        for (r, &id) in self.order.iter().enumerate() {
            rank[id as usize] = r as u32 + 1;
        }
        let k = k.max(1);
        let discounted: f64 =
            served.iter().map(|&id| (k as f64 / rank[id as usize] as f64).min(1.0)).sum();
        let hits = served.iter().filter(|&&id| (rank[id as usize] as usize) <= k).count();
        (discounted / k as f64, hits as f64 / k as f64)
    }
}
