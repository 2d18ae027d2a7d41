//! `serve_open`: an open-loop `POST /generate` schedule against an
//! in-process `tsgb_serve::Server` holding TimeVAE and RGAN
//! checkpoints trained during set-up (default config, f64).
//!
//! Each rung of a fixed rate ladder gets a seeded Poisson schedule of
//! requests (mostly `n = 1`, a minority of large `n`, model chosen at
//! random). At most `nproc` client threads, each with one keep-alive
//! connection, take the next unsent request when free, sleep until it
//! is due and send it. Latency runs from the due time, so a stall
//! charges every request queued behind it. A client that wakes late for
//! a request it was free to send is the generator falling behind; when
//! that lateness passes [`LATE_LIMIT_MS`] at p99 the run is invalid and
//! reports nothing.

use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use tsgb_data::spec::{DatasetId, DatasetSpec};
use tsgb_linalg::rng::seeded;
use tsgb_methods::common::{GenSpec, MethodId, TrainConfig, TsgMethod};
use tsgb_methods::persist::load_method;
use tsgb_rand::Rng;
use tsgb_serve::{Registry, ServeConfig, Server};
use tsgb_wire::{http_request, Json};

use crate::measure::{median, quantile, shuffle, sorted, tail, Outcome, Tail};
use crate::{trace, Layers, RunCtx};

/// Served models: (registry name, method).
const MODELS: [(&str, MethodId); 2] = [("timevae", MethodId::TimeVae), ("rgan", MethodId::Rgan)];
/// The training set: the Stock dataset capped at (R, l).
const TRAIN_SHAPE: (usize, usize) = (64, 24);
const TRAIN_EPOCHS: usize = 20;
/// Large requests ask for this many windows.
const LARGE_N: usize = 64;
/// One block of the schedule as `(model, n)`: per model, four `n = 1`
/// requests and one large one. Each block is shuffled, so the mix is
/// exact every ten requests, p50 falls inside the `n = 1` band and p90
/// inside the large requests' band rather than on the edge between.
const MIX: [(usize, usize); 10] = [
    (0, 1),
    (0, 1),
    (0, 1),
    (0, 1),
    (0, LARGE_N),
    (1, 1),
    (1, 1),
    (1, 1),
    (1, 1),
    (1, LARGE_N),
];
/// The rate ladder (requests per second) and each rung's share of the
/// run's seconds, from well below the knee (about 450/s on two cores)
/// to above it. `LOW` and `HIGH` are the rungs whose latencies are
/// reported; the last rung is meant to fail the limit.
const RUNGS: [(f64, f64); 4] = [(100.0, 0.2), (200.0, 0.4), (300.0, 0.2), (700.0, 0.15)];
const LOW: usize = 0;
const HIGH: usize = 1;
/// A rung meets the limit when its tail latency stays under this.
const LATENCY_LIMIT_MS: f64 = 100.0;
/// A run whose generator woke later than this at p99 is invalid.
const LATE_LIMIT_MS: f64 = 10.0;
/// Requests per rung whose bodies are re-checked after the ladder.
const CHECKS_PER_RUNG: usize = 3;
const SETUPS: usize = 5;

struct Setup {
    server: Server,
    /// Local copies of the served models, restored from the same
    /// checkpoint bytes, for the solo-generate check.
    local: Vec<Box<dyn TsgMethod>>,
}

fn setup(seed: u64) -> Result<Setup, String> {
    let data = {
        let _s = trace::span("data.materialize", 0);
        DatasetSpec::get(DatasetId::Stock)
            .scaled(TRAIN_SHAPE.0)
            .with_max_len(TRAIN_SHAPE.1)
            .materialize(seed)
    };
    let cfg = TrainConfig {
        epochs: TRAIN_EPOCHS,
        ..TrainConfig::fast()
    };
    let mut registry = Registry::new();
    let mut local = Vec::new();
    for (k, &(name, mid)) in MODELS.iter().enumerate() {
        let mut m = mid.create(data.train.seq_len(), data.train.features());
        {
            let _s = trace::span(format!("methods.fit.{name}"), k as u64);
            m.fit(&data.train, &cfg, &mut seeded(seed ^ (k as u64 + 1)));
        }
        let bytes = m.save().ok_or("fitted model has no checkpoint")?;
        local.push(load_method(&bytes).map_err(|e| format!("checkpoint reload: {e}"))?);
        registry.insert(name, m)?;
    }
    let server = Server::start(
        registry,
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            ..ServeConfig::default()
        },
    )
    .map_err(|e| format!("server start: {e}"))?;
    Ok(Setup { server, local })
}

/// One scheduled request.
#[derive(Debug, Clone, Copy)]
struct Req {
    due: Duration,
    model: usize,
    n: usize,
    seed: u64,
}

impl Req {
    fn body(&self) -> String {
        format!(
            "{{\"model\":\"{}\",\"n\":{},\"seed\":{}}}",
            MODELS[self.model].0, self.n, self.seed
        )
    }
}

/// A rung's seeded Poisson schedule, stretched to span `secs` exactly
/// so the offered rate does not drift with the seed.
fn schedule(seed: u64, rung: usize, rate: f64, secs: f64) -> Vec<Req> {
    let mut rng = seeded(seed ^ 0x5C4E_D01E ^ ((rung as u64 + 1) << 32));
    let count = ((rate * secs).round() as usize).max(1);
    let gaps: Vec<f64> = (0..=count)
        .map(|_| -(1.0 - rng.gen::<f64>()).ln())
        .collect();
    let scale = secs / gaps.iter().sum::<f64>();
    let mut at = 0.0;
    let mut block = Vec::new();
    gaps[..count]
        .iter()
        .map(|g| {
            if block.is_empty() {
                block.extend(MIX);
                shuffle(&mut block, &mut rng);
            }
            let (model, n) = block.pop().expect("block refilled above");
            at += g * scale;
            Req {
                due: Duration::from_secs_f64(at),
                model,
                n,
                // JSON numbers carry integers exactly up to 2^53
                seed: rng.gen::<u64>() >> 11,
            }
        })
        .collect()
}

/// What one request saw.
struct Sent {
    idx: usize,
    /// From due time to the last response byte.
    latency_ms: f64,
    /// From the write to the last response byte.
    service_ms: f64,
    /// How late the client woke for a request it was free to send.
    late_ms: Option<f64>,
    ok: bool,
    bytes: usize,
    body: Option<Vec<u8>>,
    /// Why a failed request failed.
    error: Option<String>,
    done: Duration,
}

struct Rung {
    rate: f64,
    reqs: Vec<Req>,
    sent: Vec<Sent>,
}

impl Rung {
    fn latencies(&self) -> Vec<f64> {
        self.sent.iter().map(|s| s.latency_ms).collect()
    }

    fn failures(&self) -> usize {
        self.sent.iter().filter(|s| !s.ok).count()
    }

    fn first_error(&self) -> Option<&str> {
        self.sent.iter().find_map(|s| s.error.as_deref())
    }

    fn tail(&self) -> Tail {
        tail(&self.latencies())
    }

    /// The queue grew: the last quarter waited much longer than the
    /// first.
    fn backlog(&self) -> bool {
        let q = (self.sent.len() / 4).max(1);
        let first: Vec<f64> = self.sent[..q].iter().map(|s| s.latency_ms).collect();
        let last: Vec<f64> = self.sent[self.sent.len() - q..]
            .iter()
            .map(|s| s.latency_ms)
            .collect();
        median(&last) > 2.0 * median(&first) + 1.0
    }

    fn meets_limit(&self) -> bool {
        self.failures() == 0 && !self.backlog() && self.tail().value <= LATENCY_LIMIT_MS
    }

    /// Requests completed per second of the rung's wall time.
    fn achieved_rps(&self) -> f64 {
        let end = self.sent.iter().map(|s| s.done).max().unwrap_or_default();
        self.sent.len() as f64 / end.as_secs_f64()
    }
}

fn connect(addr: SocketAddr) -> std::io::Result<TcpStream> {
    let c = TcpStream::connect(addr)?;
    c.set_nodelay(true)?;
    c.set_read_timeout(Some(Duration::from_secs(30)))?;
    Ok(c)
}

/// Runs one rung open-loop over `conns` keep-alive connections.
fn run_rung(
    addr: SocketAddr,
    conns: usize,
    rate: f64,
    reqs: Vec<Req>,
    keep: &[usize],
    depth_max: Option<&Mutex<f64>>,
) -> Result<Rung, String> {
    let rung_span = trace::span(format!("loadgen.rung.{rate}"), rate as u64);
    let parent = rung_span.id();
    let streams: Vec<TcpStream> = (0..conns)
        .map(|_| connect(addr))
        .collect::<std::io::Result<_>>()
        .map_err(|e| format!("connect: {e}"))?;
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let mut sent: Vec<Sent> = std::thread::scope(|s| {
        let handles: Vec<_> = streams
            .into_iter()
            .map(|mut conn| {
                let (next, reqs) = (&next, &reqs);
                s.spawn(move || {
                    let mut out = Vec::new();
                    loop {
                        let idx = next.fetch_add(1, Ordering::Relaxed);
                        let Some(req) = reqs.get(idx) else { break };
                        let due = start + req.due;
                        let now = Instant::now();
                        let late_ms = (now < due).then(|| {
                            let _s = trace::span_in(parent, "loadgen.sleep", idx as u64);
                            std::thread::sleep(due - now);
                            Instant::now().duration_since(due).as_secs_f64() * 1e3
                        });
                        let send = Instant::now();
                        let resp = {
                            let _s = trace::span_in(parent, "wire.request", idx as u64);
                            http_request(&mut conn, "POST", "/generate", req.body().as_bytes())
                        };
                        let done = Instant::now();
                        let (ok, bytes, body, error) = match resp {
                            Ok(r) if r.status == 200 => (
                                true,
                                r.body.len(),
                                keep.contains(&idx).then_some(r.body),
                                None,
                            ),
                            Ok(r) => (
                                false,
                                r.body.len(),
                                None,
                                Some(format!("{}: {}", r.status, r.text())),
                            ),
                            Err(e) => {
                                if let Ok(c) = connect(addr) {
                                    conn = c;
                                }
                                (false, 0, None, Some(e.to_string()))
                            }
                        };
                        if let Some(depth_max) = depth_max {
                            let d = crate::gauge(&tsgb_obs::snapshot(), "serve.queue_depth");
                            let mut m = depth_max.lock().expect("depth lock poisoned");
                            *m = m.max(d);
                        }
                        out.push(Sent {
                            idx,
                            latency_ms: done.duration_since(due).as_secs_f64() * 1e3,
                            service_ms: done.duration_since(send).as_secs_f64() * 1e3,
                            late_ms,
                            ok,
                            bytes,
                            body,
                            error,
                            done: done.duration_since(start),
                        });
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("load client panicked"))
            .collect()
    });
    drop(rung_span);
    sent.sort_by_key(|s| s.idx);
    Ok(Rung { rate, reqs, sent })
}

/// Runs the given rungs; each lasts its share of `seconds`. With
/// `depth_max` set, the server's queue-depth gauge is sampled after
/// every response.
fn ladder(
    s: &Setup,
    seed: u64,
    seconds: f64,
    conns: usize,
    rungs: &[usize],
    depth_max: Option<&Mutex<f64>>,
) -> Result<Vec<Rung>, String> {
    let addr = s.server.addr();
    let mut out = Vec::new();
    for &r in rungs {
        let (rate, share) = RUNGS[r];
        let reqs = schedule(seed, r, rate, seconds * share);
        let mut pick = seeded(seed ^ 0xC0FF ^ r as u64);
        let keep: Vec<usize> = (0..CHECKS_PER_RUNG)
            .map(|_| pick.gen_range(0..reqs.len()))
            .collect();
        out.push(run_rung(addr, conns, rate, reqs, &keep, depth_max)?);
    }
    Ok(out)
}

/// Counts every request; a non-200 response fails its op, and so does
/// a kept body that differs from a solo request for the same (model,
/// n, seed) or whose samples differ from a local `generate`.
fn check(s: &Setup, rungs: &[Rung], out: &mut Outcome) -> Result<bool, String> {
    let mut conn = connect(s.server.addr()).map_err(|e| format!("connect: {e}"))?;
    let mut all_ok = true;
    for rung in rungs {
        for sent in &rung.sent {
            let mut ok = sent.ok;
            if let (true, Some(body)) = (ok, &sent.body) {
                let req = rung.reqs[sent.idx];
                let solo = http_request(&mut conn, "POST", "/generate", req.body().as_bytes())
                    .map_err(|e| format!("solo request: {e}"))?;
                ok = solo.status == 200 && &solo.body == body && samples_match(s, &req, body);
                if !ok {
                    eprintln!("serve_open: response for {req:?} differs from a solo generate");
                }
            }
            out.op(ok);
            all_ok &= ok;
        }
    }
    Ok(all_ok)
}

/// The body's samples equal a local `generate` bit for bit.
fn samples_match(s: &Setup, req: &Req, body: &[u8]) -> bool {
    let Ok(json) = Json::parse(&String::from_utf8_lossy(body)) else {
        return false;
    };
    let spec = GenSpec {
        n: req.n,
        seed: req.seed,
    };
    let want = s.local[req.model].generate(spec.n, &mut spec.rng());
    let mut got = Vec::with_capacity(want.as_slice().len());
    let Some(Json::Arr(windows)) = json.get("samples") else {
        return false;
    };
    for w in windows {
        let Json::Arr(steps) = w else { return false };
        for st in steps {
            let Json::Arr(feats) = st else { return false };
            for f in feats {
                match f.as_f64() {
                    Some(v) => got.push(v),
                    None => return false,
                }
            }
        }
    }
    windows.len() == req.n
        && got.len() == want.as_slice().len()
        && got
            .iter()
            .zip(want.as_slice())
            .all(|(a, b)| a.to_bits() == b.to_bits())
}

/// The generator's p99 lateness over the rungs whose numbers are
/// reported: `LOW`, `HIGH` and every rung that meets the limit. A late
/// generator offers less load than scheduled, which can only flatter a
/// rung, so a rung that fails the limit stays a failure either way.
fn late_p99(rungs: &[Rung]) -> f64 {
    let reported = |r: &&Rung| r.rate == RUNGS[LOW].0 || r.rate == RUNGS[HIGH].0 || r.meets_limit();
    let late: Vec<f64> = rungs
        .iter()
        .filter(reported)
        .flat_map(|r| r.sent.iter().filter_map(|s| s.late_ms))
        .collect();
    if late.is_empty() {
        0.0
    } else {
        quantile(&sorted(&late), 0.99)
    }
}

/// Fails the run when the generator fell behind its own schedule.
fn valid(rungs: &[Rung]) -> Result<f64, String> {
    let p99 = late_p99(rungs);
    if p99 > LATE_LIMIT_MS {
        return Err(format!(
            "invalid run: the load generator woke {p99:.2} ms late at p99 (limit {LATE_LIMIT_MS} ms)"
        ));
    }
    Ok(p99)
}

pub fn run(ctx: &RunCtx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let conns = ctx.nproc.clamp(1, 4);
    out.detail("loadgen.connections", conns);
    if !ctx.trace {
        let mut setup_s = Vec::new();
        let mut s: Option<Setup> = None;
        for _ in 0..SETUPS {
            if let Some(prev) = s.take() {
                prev.server.shutdown();
            }
            let t0 = Instant::now();
            s = Some(setup(ctx.seed)?);
            setup_s.push(t0.elapsed().as_secs_f64());
        }
        let s = s.expect("at least one setup");
        let all: Vec<usize> = (0..RUNGS.len()).collect();
        let rungs = ladder(&s, ctx.seed, ctx.seconds, conns, &all, None)?;
        let late_p99 = valid(&rungs)?;
        out.correct = check(&s, &rungs, &mut out)?;
        s.server.shutdown();

        let passing = rungs.iter().rev().find(|r| r.meets_limit());
        let low = &rungs[LOW];
        let high = &rungs[HIGH];
        out.metric("setup_s", median(&setup_s), "s");
        out.metric("peak_rss_mb", crate::measure::peak_rss_mb(), "MB");
        out.metric("op_ms_p50", median(&low.latencies()), "ms");
        out.metric("ops_per_s", passing.map_or(0.0, Rung::achieved_rps), "1/s");
        out.detail("serve.lat_ms_p50.low", median(&low.latencies()));
        out.detail(
            "serve.lat_ms_p90.low",
            quantile(&sorted(&low.latencies()), 0.9),
        );
        out.detail("serve.lat_ms_tail.low", low.tail().describe("requests"));
        out.detail("serve.lat_ms_p50.high", median(&high.latencies()));
        out.detail("serve.lat_ms_tail.high", high.tail().describe("requests"));
        out.detail("serve.max_rate_rps", passing.map_or(0.0, |r| r.rate));
        out.detail(
            "serve.max_rate_achieved_rps",
            passing.map_or(0.0, Rung::achieved_rps),
        );
        out.detail("loadgen.late_ms_p99", late_p99);
        for r in &rungs {
            out.detail(
                format!("rung.{}", r.rate),
                format!(
                    "{} sent, {} failed, p50 {:.3} ms, p90 {:.3} ms, {}, backlog {}, meets limit {}",
                    r.sent.len(),
                    r.failures(),
                    median(&r.latencies()),
                    quantile(&sorted(&r.latencies()), 0.9),
                    r.tail().describe("requests"),
                    r.backlog(),
                    r.meets_limit()
                ),
            );
        }
        if let Some(e) = rungs.iter().find_map(Rung::first_error) {
            out.detail("serve.first_error", e.replace('"', "'"));
        }
        return Ok(out);
    }

    // traced run: the low and high rungs untraced, then the same
    // schedules traced, then direct generate_batch calls
    // (set-up traced too, with the program's metrics on, for its fits)
    tsgb_obs::reset();
    tsgb_obs::set_enabled(true);
    trace::set_enabled(true);
    let setup_root = trace::span("serve_open.setup", 0);
    let setup_id = setup_root.id();
    let s = setup(ctx.seed)?;
    drop(setup_root);
    trace::set_enabled(false);
    tsgb_obs::set_enabled(false);
    let both = [LOW, HIGH];
    let plain = ladder(&s, ctx.seed, ctx.seconds / 2.0, conns, &both, None)?;
    tsgb_obs::set_enabled(true);
    trace::set_enabled(true);
    let root = trace::span("serve_open.traced", 0);
    let root_id = root.id();
    let depth_max = Mutex::new(0.0);
    let traced = ladder(
        &s,
        ctx.seed,
        ctx.seconds / 2.0,
        conns,
        &both,
        Some(&depth_max),
    )?;
    let mut layers = Layers::default();
    {
        let _d = trace::span("serve.direct", 0);
        for (k, &(name, _)) in MODELS.iter().enumerate() {
            for b in [1usize, 8] {
                let specs: Vec<GenSpec> = (0..b as u64)
                    .map(|i| GenSpec { n: 1, seed: i + 1 })
                    .collect();
                let mut ms = Vec::new();
                for rep in 0..20 {
                    let _s = trace::span(format!("methods.generate_batch.b{b}.{name}"), rep);
                    let t = Instant::now();
                    std::hint::black_box(s.local[k].generate_batch(&specs));
                    ms.push(t.elapsed().as_secs_f64() * 1e3);
                }
                layers.set(
                    &format!("methods.generate_batch_ms.b{b}.{name}"),
                    median(&ms),
                );
            }
        }
    }
    drop(root);
    trace::set_enabled(false);
    tsgb_obs::set_enabled(false);
    let snap = tsgb_obs::snapshot();
    let late = valid(&plain)?.max(valid(&traced)?);
    let mut ok = check(&s, &plain, &mut out)?;
    ok &= check(&s, &traced, &mut out)?;
    s.server.shutdown();
    out.correct = ok;

    let spans = trace::spans();
    let bd = trace::breakdown(&spans, root_id)?;
    let setup_bd = trace::breakdown(&spans, setup_id)?;
    ctx.write_trace(&spans, &bd)?;

    let lat_sum = |rs: &[Rung]| {
        rs.iter()
            .flat_map(|r| r.sent.iter().map(|s| s.latency_ms))
            .sum::<f64>()
    };
    let sent: Vec<&Sent> = traced.iter().flat_map(|r| r.sent.iter()).collect();
    let service_mean = sent.iter().map(|s| s.service_ms).sum::<f64>() / sent.len() as f64;
    let bytes_mean = sent.iter().map(|s| s.bytes as f64).sum::<f64>() / sent.len() as f64;
    layers.obs(&snap);
    layers.set("data.materialize_ms", setup_bd.total_ms("data.materialize"));
    let server_mean = crate::hist_mean(&snap, "serve.latency_ms");
    layers.set(
        "serve.batch_size_mean",
        crate::hist_mean(&snap, "serve.batch_size"),
    );
    layers.set(
        "serve.forward_ms_mean",
        crate::hist_mean(&snap, "serve.forward_ms"),
    );
    layers.set("serve.server_latency_ms_mean", server_mean);
    layers.set(
        "serve.queue_depth_max",
        *depth_max.lock().expect("depth lock poisoned"),
    );
    layers.set(
        "serve.rejected",
        crate::counter(&snap, "serve.rejected") as f64,
    );
    layers.set("wire.client_overhead_ms_mean", service_mean - server_mean);
    layers.set("wire.response_bytes_mean", bytes_mean);
    layers.set("loadgen.late_ms_p99", late);
    layers.set(
        "trace.overhead_ratio",
        lat_sum(&traced) / lat_sum(&plain) - 1.0,
    );
    layers.set("trace.unattributed_ms", bd.root_unattributed_ms);
    layers.emit(&mut out);
    Ok(out)
}
