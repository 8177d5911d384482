//! Per-layer probes for the traced run. Each one times calls into a single
//! layer's public functions, in isolation from the others, so retiring a
//! layer means deleting its probe and nothing else.

use std::sync::{mpsc, Arc};
use std::time::Instant;

use atnn_serve::router::ScorePath;
use atnn_serve::{
    Batcher, ModelManager, ModelSnapshot, PolicyRouter, Request, Response, ScatterOutcome,
    ServeClient, ServeConfig, ShardSet, Telemetry,
};

use crate::life::Oracle;
use crate::load::{Mix, K};
use crate::trace::SpanLog;
use crate::util::{median, Rng};

/// Calls per probe.
const REPS: usize = 400;

/// `(cold?, items)` of the scoring requests in `reqs`.
fn scoring_items(reqs: &[Request]) -> Vec<(bool, Vec<u32>)> {
    reqs.iter()
        .filter_map(|r| match r {
            Request::ScoreNewArrival { items } => Some((true, items.clone())),
            Request::ScoreWarmItem { items } => Some((false, items.clone())),
            _ => None,
        })
        .collect()
}

/// Draws the workload's own request mix for a probe.
pub fn sample_requests(mix: &Mix, seed: u64) -> Vec<Request> {
    let mut rng = Rng::new(seed ^ 0x9B0B);
    (0..REPS).map(|_| mix.request(&mut rng)).collect()
}

/// server: inline `Health` round trip, no scoring behind it.
pub fn health_rtt_us(control: &mut ServeClient, log: &mut SpanLog) -> f64 {
    for _ in 0..REPS {
        log.time("server.health", None, || control.health().expect("health"));
    }
    median(&log.durations_ns("server.health")) / 1e3
}

/// protocol: encode and decode of each request of the mix plus the reply
/// the oracle says it gets (ns per request/reply pair).
pub fn protocol_ns(reqs: &[Request], o: &Oracle, log: &mut SpanLog) -> (f64, f64) {
    let served: Vec<u32> = o.order.iter().take(K as usize).copied().collect();
    for req in reqs {
        let resp = match req {
            Request::ScoreNewArrival { items } => {
                Response::Scores(items.iter().map(|&i| o.cold[i as usize]).collect())
            }
            Request::ScoreWarmItem { items } => {
                Response::Scores(items.iter().map(|&i| o.warm[i as usize]).collect())
            }
            Request::Score { items } => Response::RoutedScores {
                scores: items.iter().map(|&i| o.routed(i).0).collect(),
                warm: items.iter().map(|&i| o.routed(i).1).collect(),
            },
            Request::TopK { items, .. } => {
                Response::TopK(items.iter().take(K as usize).map(|&i| (i, o.routed(i).0)).collect())
            }
            _ => Response::TopK(served.iter().map(|&i| (i, o.cold[i as usize])).collect()),
        };
        let (rq, rs) = log.time("protocol.encode", None, || (req.encode(), resp.encode()));
        let (dq, ds) = log.time("protocol.decode", None, || {
            (
                Request::decode(rq).expect("request decodes"),
                Response::decode(rs).expect("reply decodes"),
            )
        });
        assert!(&dq == req && ds == resp, "protocol round trip changed a message");
    }
    (median(&log.durations_ns("protocol.encode")), median(&log.durations_ns("protocol.decode")))
}

/// router: `PolicyRouter::split` of each routed request, over a router
/// warmed like the server's.
pub fn router_split_ns(reqs: &[Request], mix: &Mix, log: &mut SpanLog) -> f64 {
    let cfg = ServeConfig::default();
    let router = PolicyRouter::new(mix.num_items as usize, cfg.warm_threshold);
    for item in 0..mix.half {
        for _ in 0..cfg.warm_threshold {
            router.record(item);
        }
    }
    for req in reqs {
        if let Request::Score { items } | Request::TopK { items, .. } = req {
            let (cold, warm) = log.time("router.split", None, || router.split(items));
            assert_eq!(cold.len() + warm.len(), items.len());
        }
    }
    median(&log.durations_ns("router.split"))
}

/// manager: direct `score_cold`/`score_warm` on the served snapshot
/// (ns per item), checked against the oracle.
pub fn manager_score_ns(
    snap: &ModelSnapshot,
    reqs: &[Request],
    o: &Oracle,
    log: &mut SpanLog,
) -> (f64, f64) {
    let mut per_item = [Vec::new(), Vec::new()];
    for (cold, items) in scoring_items(reqs) {
        let t = Instant::now();
        let scores = if cold { snap.score_cold(&items) } else { snap.score_warm(&items) };
        let ns = t.elapsed().as_nanos() as f64;
        log.record(
            if cold { "manager.score_cold" } else { "manager.score_warm" },
            t,
            Instant::now(),
            None,
        );
        let table = if cold { &o.cold } else { &o.warm };
        assert!(items
            .iter()
            .zip(&scores)
            .all(|(&i, s)| s.to_bits() == table[i as usize].to_bits()));
        per_item[usize::from(!cold)].push(ns / items.len() as f64);
    }
    (median(&per_item[0]), median(&per_item[1]))
}

/// batcher: `Batcher::submit` → reply on a private batcher over the served
/// snapshot, and that round trip minus direct scoring of the same items
/// (the thread hop). Returns `(roundtrip_us, hop_us)`.
pub fn batcher_us(manager: &ModelManager, reqs: &[Request], log: &mut SpanLog) -> (f64, f64) {
    let cell = manager.register_shard_cell();
    let batcher =
        Batcher::start(ServeConfig::default(), Arc::clone(&cell), Arc::new(Telemetry::new()), 0);
    let (mut rt, mut direct) = (Vec::new(), Vec::new());
    for (cold, items) in scoring_items(reqs) {
        let path = if cold { ScorePath::Cold } else { ScorePath::Warm };
        let t = Instant::now();
        let rx = batcher.submit(path, items.clone()).expect("idle batcher accepts");
        let got = rx.recv().expect("batcher replies").expect("batch scores");
        rt.push(t.elapsed().as_nanos() as f64);
        log.record("batcher.roundtrip", t, Instant::now(), None);
        let snap = cell.load();
        let t = Instant::now();
        let want = if cold { snap.score_cold(&items) } else { snap.score_warm(&items) };
        direct.push(t.elapsed().as_nanos() as f64);
        assert_eq!(got, want, "batcher and direct scoring disagree");
    }
    batcher.shutdown();
    manager.unregister_shard_cells(&[cell]);
    let rt_us = median(&rt) / 1e3;
    (rt_us, rt_us - median(&direct) / 1e3)
}

/// shard: `ShardSet::scatter` round trip of each scoring request on a
/// private one-shard fleet.
pub fn scatter_us(manager: &ModelManager, reqs: &[Request], log: &mut SpanLog) -> f64 {
    let cfg = ServeConfig::default();
    let shards = ShardSet::start(&cfg, manager, &Arc::new(Telemetry::with_shards(cfg.shards)));
    for (cold, items) in scoring_items(reqs) {
        let path = if cold { ScorePath::Cold } else { ScorePath::Warm };
        let n = items.len();
        let slotted = items.into_iter().enumerate().collect();
        let (tx, rx) = mpsc::sync_channel(1);
        let t = Instant::now();
        shards.scatter(vec![(path, slotted)], n, move |out| {
            let _ = tx.send(out);
        });
        let out = rx.recv().expect("scatter completes");
        log.record("shard.scatter", t, Instant::now(), None);
        assert!(matches!(out, ScatterOutcome::Scores(_)), "idle fleet answers");
    }
    shards.shutdown();
    manager.unregister_shard_cells(shards.cells());
    median(&log.durations_ns("shard.scatter")) / 1e3
}

/// ann: catalogue-wide `topk_dots` at the served probe width, and the
/// plain recall@k of its answer.
pub fn ann_topk(snap: &ModelSnapshot, o: &Oracle, log: &mut SpanLog) -> (f64, f64) {
    let nprobe = ServeConfig::default().nprobe;
    let mut winners = Vec::new();
    for _ in 0..REPS / 4 {
        winners = log.time("ann.topk_all", None, || snap.topk_dots(K as usize, nprobe, &|_| true));
    }
    let ids: Vec<u32> = winners.iter().map(|&(i, _)| i).collect();
    (median(&log.durations_ns("ann.topk_all")) / 1e3, o.recall(&ids, K as usize).1)
}

/// ann: the IVF k-means build over the served cold vectors (ms).
pub fn ann_build_ms(o: &Oracle, log: &mut SpanLog) -> f64 {
    let vecs = Arc::new(o.cold_vecs.clone());
    let n = vecs.rows();
    log.time("ann.build", None, || {
        atnn_ann::IvfFlatIndex::build(vecs, atnn_ann::IvfParams::for_items(n))
    });
    median(&log.durations_ns("ann.build")) / 1e6
}
