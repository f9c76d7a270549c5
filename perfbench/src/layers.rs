//! Calls into single layers, timed under spans of the traced run.
//!
//! A traced op only decomposes as far as the public API does (explain =
//! `evaluate` + `attribute_batch`). The layers below the session are timed
//! by *shadow* calls after the op, on the op's own lineages and outside its
//! span: the fingerprint pre-key, the canonical key, pool construction, the
//! raw backend, d-tree compilation and counting. Layers an op does not pass
//! through are timed by a *sweep* after the loop over the workload's inputs.

use crate::check::{self, Referee, Values};
use crate::metrics::Report;
use crate::stats::Robust;
use crate::trace::{layer_self_times, Tracer};
use banzhaf::{exaban_all_with_counts, model_counts, Budget, DTree};
use banzhaf_boolean::Dnf;
use banzhaf_db::Update;
use banzhaf_engine::{
    canonical_key_probe, prekey_probe, Attributor, CacheStats, Engine, EngineConfig, LiveSession,
    LiveStats, SessionStats,
};
use banzhaf_query::evaluate;
use banzhaf_serve::{AttributionService, RequestOptions, ServeConfig};
use banzhaf_workloads::LiveWorkload;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Sums the per-layer measurements of one traced run.
#[derive(Default)]
pub struct Layers {
    pub evaluate_ms: Vec<f64>,
    pub answers: u64,
    pub probed: u64,
    pub prekey_ns: u64,
    pub canon_ns: u64,
    pub pool_ns: u64,
    pub pool_calls: u64,
    /// Raw backend on the lineages the paired session calls attributed.
    pub backend_ns: u64,
    pub session_ns: u64,
    pub compile_us: Vec<f64>,
    pub nodes: u64,
    pub count_ns: u64,
    /// Compile + count of the lineages the ops actually compiled.
    pub compiled_core_ns: u64,
    pub session_ops: u64,
    pub session_compile_steps: u64,
    pub session_cache_hits: u64,
    pub submit_us: Vec<f64>,
    pub service_us: Vec<f64>,
    /// Served vs in-process wall on the same lineages.
    pub served_ns: u64,
    pub inprocess_ns: u64,
    /// Bursts of the serve sweep: wall from first submit to last
    /// completion, and requests.
    pub burst_ns: u64,
    pub burst_requests: u64,
    pub apply_us: Vec<f64>,
    pub touched: u64,
    pub live_compile_steps: u64,
    pub live_cache_hits: u64,
    pub lag_ms: Vec<f64>,
    pub traced_op_ns: Vec<f64>,
    pub untraced_op_ns: Vec<f64>,
    /// Wall of the traced ops by a clock read around each op's root span,
    /// apart from the tracer.
    pub clock_op_ns: u64,
}

fn ns(d: Duration) -> u64 {
    d.as_nanos() as u64
}

/// Shadow calls on the lineages of traced op `op`, under a `shadow` root
/// span. `compiled[i]` tells whether the op compiled lineage `i` (rather than
/// serving it from the cache).
pub fn shadow(
    tracer: &mut Tracer,
    op: u64,
    lineages: &[&Dnf],
    compiled: &[bool],
    backend: &dyn Attributor,
    config: &EngineConfig,
    acc: &mut Layers,
) {
    let n = lineages.len() as u32;
    let root = tracer.begin("shadow", op);

    let t = Instant::now();
    let span = tracer.begin("engine.prekey", op);
    for l in lineages {
        black_box(prekey_probe(l));
    }
    tracer.end(span, n);
    acc.prekey_ns += ns(t.elapsed());

    let t = Instant::now();
    let span = tracer.begin("engine.canon", op);
    for l in lineages {
        black_box(canonical_key_probe(l));
    }
    tracer.end(span, n);
    acc.canon_ns += ns(t.elapsed());

    let t = Instant::now();
    let span = tracer.begin("par.pool_new", op);
    black_box(config.pool());
    tracer.end(span, 1);
    acc.pool_ns += ns(t.elapsed());
    acc.pool_calls += 1;

    let unlimited = Budget::unlimited();
    let t = Instant::now();
    let span = tracer.begin("engine.backend", op);
    for l in lineages {
        black_box(backend.attribute(l, &unlimited).expect("unbounded budget"));
    }
    tracer.end(span, n);
    acc.backend_ns += ns(t.elapsed());

    let span = tracer.begin("dtree.compile", op);
    let mut trees = Vec::with_capacity(lineages.len());
    let mut core_ns = Vec::with_capacity(lineages.len());
    for l in lineages {
        let t = Instant::now();
        let tree = DTree::compile_full((*l).clone(), config.heuristic, &unlimited)
            .expect("unbounded budget");
        let d = ns(t.elapsed());
        acc.compile_us.push(d as f64 / 1e3);
        acc.nodes += tree.num_nodes() as u64;
        core_ns.push(d);
        trees.push(tree);
    }
    tracer.end(span, n);

    let span = tracer.begin("core.count", op);
    for (i, tree) in trees.iter().enumerate() {
        let t = Instant::now();
        let counts = model_counts(tree);
        black_box(exaban_all_with_counts(tree, &counts));
        let d = ns(t.elapsed());
        acc.count_ns += d;
        core_ns[i] += d;
    }
    tracer.end(span, n);
    tracer.end(root, 1);

    acc.probed += u64::from(n);
    acc.compiled_core_ns +=
        core_ns.iter().zip(compiled).filter(|(_, &c)| c).map(|(d, _)| d).sum::<u64>();
}

/// A live session of `engine` with `workload`'s queries registered, and the
/// updates to apply to it.
pub struct WritePhase {
    live: LiveSession,
    workload: LiveWorkload,
    updates: Vec<Update>,
    /// Start and latency in ms of each applied update.
    latencies_ms: Vec<(Instant, f64)>,
    errors: u64,
    before: LiveStats,
}

/// Updates one write phase applies: four parts of 1000, each enough for a
/// p99 with ten samples beyond it, so one part hit by a burst of host noise
/// does not move the median part.
pub const WRITE_PHASE_UPDATES: usize = 4000;

impl WritePhase {
    pub fn new(engine: &Engine, workload: LiveWorkload, updates: Vec<Update>) -> Self {
        let mut live = engine.live_session(workload.db.clone());
        for (name, query) in &workload.queries {
            live.register(name.clone(), query.clone());
        }
        let before = *live.stats();
        WritePhase { live, workload, updates, latencies_ms: Vec::new(), errors: 0, before }
    }

    fn apply_next(&mut self, tracer: &mut Tracer, acc: &mut Layers) {
        let i = self.latencies_ms.len();
        let span = tracer.begin("live.apply_update", i as u64);
        let t = Instant::now();
        let outcome = self.live.apply_update(self.updates[i].clone());
        let d = t.elapsed();
        tracer.end(span, 1);
        self.latencies_ms.push((t, d.as_secs_f64() * 1e3));
        acc.apply_us.push(d.as_secs_f64() * 1e6);
        match outcome {
            Ok(report) => acc.touched += report.touched.len() as u64,
            Err(_) => self.errors += 1,
        }
    }

    /// Applies the updates due by now when update `i` of `n` is due at
    /// `start + span · i / n`: spread over the run, a burst of machine noise
    /// reaches few of them.
    pub fn catch_up(
        &mut self,
        start: Instant,
        span: Duration,
        tracer: &mut Tracer,
        acc: &mut Layers,
    ) {
        let n = self.updates.len() as f64;
        while self.latencies_ms.len() < self.updates.len()
            && start + span.mul_f64(self.latencies_ms.len() as f64 / n) <= Instant::now()
        {
            self.apply_next(tracer, acc);
        }
    }

    /// Applies the remaining updates and returns every update's start and
    /// latency in ms, in order; refused updates are failures.
    pub fn finish(
        &mut self,
        tracer: &mut Tracer,
        acc: &mut Layers,
        report: &mut Report,
    ) -> Vec<(Instant, f64)> {
        while self.latencies_ms.len() < self.updates.len() {
            self.apply_next(tracer, acc);
        }
        let after = *self.live.stats();
        acc.live_compile_steps += after.update_compile_steps - self.before.update_compile_steps;
        acc.live_cache_hits += after.update_cache_hits - self.before.update_cache_hits;
        report.attempted += self.updates.len() as u64;
        report.fail(self.errors, "live updates refused");
        self.latencies_ms.clone()
    }

    /// Checks every registered query's maintained attribution against a
    /// cold evaluation of the updated database.
    pub fn check(&self, referee: &mut Referee, report: &mut Report) {
        let mut wrong = 0;
        for (name, query) in &self.workload.queries {
            let got = self.live.attribution(name).map(|a| check::digest_explained(&a));
            let answers = evaluate(query, self.live.db()).into_answers();
            let want =
                referee.reference_answers(answers.iter().map(|a| (a.tuple.as_slice(), &a.lineage)));
            wrong += u64::from(got != Some(want));
        }
        report.fail(wrong, "live queries disagree with a cold evaluation after the writes");
    }
}

/// Evaluates `workload`'s queries until `min_calls` calls have been timed.
pub fn query_sweep(
    tracer: &mut Tracer,
    workload: &LiveWorkload,
    min_calls: usize,
    acc: &mut Layers,
) {
    let root = tracer.begin("sweep", 0);
    for rep in 0.. {
        if acc.evaluate_ms.len() >= min_calls {
            break;
        }
        for (_, query) in &workload.queries {
            let span = tracer.begin("query.evaluate", rep);
            let t = Instant::now();
            let answers = black_box(evaluate(query, &workload.db)).into_answers().len();
            acc.evaluate_ms.push(t.elapsed().as_secs_f64() * 1e3);
            tracer.end(span, 1);
            acc.answers += answers as u64;
        }
    }
    tracer.end(root, 1);
}

/// `nproc - 1` serve workers, at least one.
pub fn serve_workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().saturating_sub(1).max(1))
}

/// Requests one burst of the serve sweep submits back to back: half the
/// service's default queue capacity, so none is refused.
const BURST: usize = 32;

/// Serves `lineages` one at a time on a fresh service and attributes them
/// in-process on a fresh engine of the same configuration: the serving
/// layer's cost over the session on identical cache states. `with_latency`
/// also records the submit and service times (closed loops have no served
/// ops of their own to take them from). Then serves them again in bursts of
/// [`BURST`] submitted back to back, which keeps the queue full. Every served
/// answer must match the in-process one; refused and failed requests fail
/// the run.
/// Returns the in-process session's statistics.
pub fn serve_sweep(
    tracer: &mut Tracer,
    lineages: &[&Dnf],
    with_latency: bool,
    acc: &mut Layers,
    report: &mut Report,
) -> SessionStats {
    let service = AttributionService::start(
        ServeConfig::new(EngineConfig::default()).with_workers(serve_workers()),
    );
    let mut session = Engine::new(EngineConfig::default()).session();
    let mut locals: Vec<Option<Values>> = Vec::with_capacity(lineages.len());
    let (mut wrong, mut refused) = (0, 0);
    for (i, l) in lineages.iter().enumerate() {
        let op = i as u64;
        let root = tracer.begin("sweep", op);
        let start = Instant::now();
        let span = tracer.begin("serve.submit", op);
        let ticket = service.submit((*l).clone(), RequestOptions::default());
        tracer.end(span, 1);
        let submitted = Instant::now();
        let span = tracer.begin("serve.wait", op);
        let served = match ticket {
            Ok(ticket) => {
                let outcome = ticket.wait();
                let done = Instant::now();
                tracer.end(span, 1);
                acc.served_ns += ns(done - start);
                if with_latency {
                    acc.submit_us.push((submitted - start).as_secs_f64() * 1e6);
                    acc.service_us.push((done - start).as_secs_f64() * 1e6);
                }
                outcome.ok()
            }
            Err(_) => {
                tracer.end(span, 1);
                refused += 1;
                None
            }
        };
        let span = tracer.begin("engine.session", op);
        let t = Instant::now();
        let local = session.attribute(l).ok();
        acc.inprocess_ns += ns(t.elapsed());
        tracer.end(span, 1);
        tracer.end(root, 1);
        let (served, local) =
            (served.as_ref().and_then(check::values_of), local.as_ref().and_then(check::values_of));
        wrong += u64::from(served.is_none() || served != local);
        locals.push(local);
    }
    for (burst, locals) in lineages.chunks(BURST).zip(locals.chunks(BURST)) {
        let start = Instant::now();
        let tickets: Vec<_> =
            burst.iter().map(|l| service.submit((*l).clone(), RequestOptions::default())).collect();
        let served: Vec<_> = tickets.into_iter().map(|t| t.map(|t| t.wait().ok())).collect();
        acc.burst_ns += ns(start.elapsed());
        acc.burst_requests += burst.len() as u64;
        for (served, local) in served.into_iter().zip(locals) {
            let Ok(served) = served else {
                refused += 1;
                continue;
            };
            let served = served.as_ref().and_then(check::values_of);
            wrong += u64::from(served.is_none() || served != *local);
        }
    }
    report.attempted += 2 * lineages.len() as u64;
    report.fail(wrong, "served answers differ from in-process answers");
    report.fail(refused, "serve requests refused");
    report.fail(service.stats().failed, "serve requests failed");
    *session.stats()
}

/// Cache counters accumulated between two snapshots.
pub struct CacheDelta {
    pub hits: u64,
    pub lookups: u64,
    pub prekey_skips: u64,
    pub canon_steps: u64,
    pub canon_searches: u64,
    pub entries: usize,
}

impl CacheDelta {
    pub fn between(before: &CacheStats, after: &CacheStats) -> Self {
        CacheDelta {
            hits: after.hits - before.hits,
            lookups: (after.hits + after.misses) - (before.hits + before.misses),
            prekey_skips: after.prekey_skips - before.prekey_skips,
            canon_steps: after.canon_steps - before.canon_steps,
            canon_searches: after.canon_searches - before.canon_searches,
            entries: after.entries,
        }
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn mean(samples: &[f64]) -> f64 {
    ratio(samples.iter().sum(), samples.len() as f64)
}

/// Sets every per-layer metric from a traced run. `ops` counts the ops the
/// cache counters of `cache` span.
pub fn report_layers(
    report: &mut Report,
    tracer: &Tracer,
    acc: &Layers,
    cache: &CacheDelta,
    ops: u64,
) {
    let per_op = |x: u64| ratio(x as f64, ops as f64);
    let probed = acc.probed as f64;
    let evals = acc.evaluate_ms.len();
    report.set("query.evaluate_ms", mean(&acc.evaluate_ms), format!("mean of {evals} calls"));
    report.set("query.answers", ratio(acc.answers as f64, evals as f64), "per evaluate");
    report.set("engine.prekey_us", ratio(acc.prekey_ns as f64 / 1e3, probed), "mean per lineage");
    report.set("engine.canon_us", ratio(acc.canon_ns as f64 / 1e3, probed), "mean per lineage");
    report.set("engine.backend_us", ratio(acc.backend_ns as f64 / 1e3, probed), "raw ExaBan, mean");
    report.set("cache.hit_ratio", ratio(cache.hits as f64, cache.lookups as f64), "");
    report.set(
        "cache.prekey_skip_ratio",
        ratio(cache.prekey_skips as f64, cache.lookups as f64),
        "",
    );
    report.set("cache.canon_steps", per_op(cache.canon_steps), "");
    report.set("cache.canon_searches", per_op(cache.canon_searches), "");
    report.set("cache.entries", cache.entries as f64, "at the end of the loop");
    report.set(
        "session.overhead_ratio",
        ratio(acc.session_ns as f64, acc.backend_ns as f64),
        "session wall / raw backend wall, same lineages",
    );
    let session_ops = acc.session_ops as f64;
    report.set("session.compile_steps", ratio(acc.session_compile_steps as f64, session_ops), "");
    report.set("session.cache_hits", ratio(acc.session_cache_hits as f64, session_ops), "");
    report.set(
        "par.pool_new_us",
        ratio(acc.pool_ns as f64 / 1e3, acc.pool_calls as f64),
        format!("mean of {}", acc.pool_calls),
    );
    let compile = Robust::of(&acc.compile_us);
    report.set("dtree.compile_us_p50", compile.p50, compile.p50_label());
    report.set("dtree.compile_us_p99", compile.tail, compile.tail_label());
    report.set("dtree.nodes", ratio(acc.nodes as f64, compile.n as f64), "mean per tree");
    report.set("core.count_us", ratio(acc.count_ns as f64 / 1e3, probed), "mean per tree");
    let submit = Robust::of(&acc.submit_us);
    let service = Robust::of(&acc.service_us);
    report.set("serve.submit_us", submit.p50, submit.p50_label());
    report.set(
        "serve.service_us",
        service.p50,
        format!("{}, submit call to done", service.p50_label()),
    );
    report.set(
        "serve.overhead_ratio",
        ratio(acc.served_ns as f64, acc.inprocess_ns as f64),
        "served wall / in-process session wall, same lineages",
    );
    report.set(
        "serve.burst_us",
        ratio(acc.burst_ns as f64 / 1e3, acc.burst_requests as f64),
        format!("per request, bursts of {BURST} submitted back to back"),
    );
    let apply = Robust::of(&acc.apply_us);
    let updates = apply.n as f64;
    report.set("live.apply_update_us_p50", apply.p50, apply.p50_label());
    report.set("live.apply_update_us_p99", apply.tail, apply.tail_label());
    report.set("live.touched_answers", ratio(acc.touched as f64, updates), "");
    report.set("live.compile_steps", ratio(acc.live_compile_steps as f64, updates), "");
    report.set("live.cache_hits", ratio(acc.live_cache_hits as f64, updates), "");
    let lag = Robust::of(&acc.lag_ms);
    report.set("harness.generator_lag_p99_ms", lag.tail, lag.tail_label());
    report.set(
        "harness.trace_overhead_ratio",
        ratio(mean(&acc.traced_op_ns), mean(&acc.untraced_op_ns)),
        format!(
            "mean traced / untraced op wall, {} / {} interleaved ops",
            acc.traced_op_ns.len(),
            acc.untraced_op_ns.len()
        ),
    );

    let (layers, wall) = layer_self_times(tracer.spans(), "harness.op");
    let traced = acc.traced_op_ns.len() as f64;
    let per_traced_ms = |x: u64| ratio(x as f64 / 1e6, traced);
    let layer_ms =
        |name: &str| per_traced_ms(layers.iter().find(|(l, _)| *l == name).map_or(0, |(_, t)| *t));
    report.set("op.wall_ms", per_traced_ms(wall), format!("mean of {traced} traced ops"));
    report.set(
        "op.dtree_core_share",
        ratio(acc.compiled_core_ns as f64, wall as f64),
        "shadow compile+count of the lineages the ops compiled / op wall",
    );
    for (metric, layer) in
        [("self.harness_ms", "harness"), ("self.query_ms", "query"), ("self.engine_ms", "engine")]
    {
        report.set(metric, layer_ms(layer), "");
    }
    // The layers' self times against the ops' wall by the outside clock: the
    // remainder is the tracer's own cost at the edges of each op. Self times
    // that overlap or miss part of an op show up as a sum beyond the clock's
    // wall or far below it.
    let accounted: u64 = layers.iter().map(|(_, t)| t).sum();
    let clock = acc.clock_op_ns;
    report.set(
        "self.unaccounted_us",
        ratio(clock.saturating_sub(accounted) as f64 / 1e3, traced),
        "outside-clock op wall minus the layers' self times, per op",
    );
    if accounted > clock || (clock - accounted) * 100 > clock {
        report.problems.push(format!(
            "layer self times add up to {accounted} ns of {clock} ns traced op wall"
        ));
    }
    let mut shares: Vec<String> = layers
        .iter()
        .map(|(l, t)| format!("{l} {:.1}%", 100.0 * ratio(*t as f64, wall as f64)))
        .collect();
    shares.sort();
    report.notes.push(format!("traced op wall by layer self time: {}", shares.join(", ")));
}
