//! The two workloads. Each sets itself up several times (the median is
//! `setup_s`), runs its loop for the requested seconds, and checks every
//! answer after the loop.

use crate::check::{self, Referee, Values};
use crate::inputs;
use crate::layers::{
    query_sweep, report_layers, serve_sweep, shadow, CacheDelta, Layers, WritePhase,
    WRITE_PHASE_UPDATES,
};
use crate::metrics::Report;
use crate::pace::{self, Pace, Scale, REFERENCE_MS};
use crate::rss::PeakRss;
use crate::stats::{median, median_of_parts, parts_of, Robust};
use crate::trace::{traces_op, Tracer};
use banzhaf_boolean::Dnf;
use banzhaf_engine::{BatchOptions, Engine, EngineConfig, Session};
use banzhaf_query::evaluate;
use banzhaf_workloads::LiveWorkload;
use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

pub struct Args {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 15;

/// Times `make` [`SETUPS`] times, each at reference speed: scaled by the
/// reference work's time just before it.
fn timed_setups<S>(mut make: impl FnMut() -> S) -> (S, Vec<f64>) {
    let mut times = Vec::with_capacity(SETUPS);
    let mut state = None;
    for _ in 0..SETUPS {
        drop(state.take());
        let reference = pace::reference_ms();
        let start = Instant::now();
        state = Some(make());
        times.push(start.elapsed().as_secs_f64() * REFERENCE_MS / reference);
    }
    (state.expect("at least one set-up"), times)
}

fn report_setup(report: &mut Report, times: &[f64]) {
    report.set(
        "setup_s",
        median(times),
        format!("median of {} set-ups, at reference speed", times.len()),
    );
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn ns(d: Duration) -> u64 {
    d.as_nanos() as u64
}

/// The loop's machine speed, and how its end-to-end times are scaled.
fn report_scale(report: &mut Report, scale: &Scale) {
    report.notes.push(format!(
        "reference work took {:.4} ms (median), against {REFERENCE_MS} ms at reference speed; \
         end-to-end times are scaled to reference speed second by second",
        scale.reference_ms
    ));
}

/// Reads and writes at reference speed: `reads_ms[i]` started `op_at[i]`
/// seconds into the loop.
fn scaled(
    pace: Pace,
    op_at: Vec<f64>,
    reads_ms: Vec<f64>,
    writes: &[(Instant, f64)],
    report: &mut Report,
) -> (Vec<f64>, Vec<f64>) {
    let writes: Vec<(f64, f64)> = writes.iter().map(|&(t, ms)| (pace.offset(t), ms)).collect();
    let scale = pace.finish();
    report.set("harness.reference_ms", scale.reference_ms, "median over the loop");
    report_scale(report, &scale);
    let reads: Vec<(f64, f64)> = op_at.into_iter().zip(reads_ms).collect();
    (scale.series(&reads), scale.series(&writes))
}

/// Latencies of reads and writes at reference speed, in the order they were
/// issued.
fn report_latencies(report: &mut Report, reads_ms: &[f64], writes_ms: &[f64]) {
    let reads = Robust::of(reads_ms);
    report.set("latency_p50_ms", reads.p50, format!("{} reads", reads.p50_label()));
    report.set("latency_p99_ms", reads.tail, reads.tail_label());
    let writes = Robust::of(writes_ms);
    report.set("update_p50_ms", writes.p50, format!("{} writes", writes.p50_label()));
    report.set("update_p99_ms", writes.tail, writes.tail_label());
}

/// Closed-loop throughput: ops per second of op wall at reference speed,
/// the median over contiguous parts of the run.
fn report_throughput(report: &mut Report, latencies_ms: &[f64], what: &str) {
    let parts = parts_of(latencies_ms.len());
    let rate =
        median_of_parts(latencies_ms, parts, |p| p.len() as f64 / (p.iter().sum::<f64>() / 1e3));
    report.set("ops_per_s", rate, format!("{what} per second of op wall, median of {parts} parts"));
}

/// Peak resident memory: the median over parts of the loop of each part's
/// `VmHWM`. Other processes do not move it, so it is not scaled.
fn report_peak_rss(report: &mut Report, rss: PeakRss) {
    let peaks = rss.finish();
    if peaks.is_empty() {
        report.problems.push("VmHWM is not readable".into());
        return;
    }
    report.set("peak_rss_mb", median(&peaks), format!("VmHWM, median of {} parts", peaks.len()));
}

/// The closed loops' writes: delete/re-insert pairs on the IMDB-like
/// database, spread evenly over the loop between its ops, through a live
/// session of an engine of their own. On the read loop's engine, hard-tail's
/// fresh shapes overflowed the cache and evicted the IMDB shapes at rates
/// that moved update p99 from 4 to 14 ms between seeds.
fn write_phase(imdb: LiveWorkload, seed: u64) -> WritePhase {
    let updates = inputs::update_pairs(&imdb, seed, WRITE_PHASE_UPDATES / 2);
    WritePhase::new(&Engine::new(EngineConfig::default()), imdb, updates)
}

fn cache_delta(engine: &Engine, before: &banzhaf_engine::CacheStats) -> CacheDelta {
    CacheDelta::between(before, &engine.stats().cache)
}

// ---------------------------------------------------------------- explain

struct Explain {
    workloads: Vec<LiveWorkload>,
    /// `(workload, query)` pairs, 16 in all.
    queries: Vec<(usize, usize)>,
    engine: Engine,
    session: Session,
    writes: WritePhase,
}

fn explain_setup(seed: u64) -> Explain {
    let workloads = inputs::corpora();
    let queries: Vec<(usize, usize)> = workloads
        .iter()
        .enumerate()
        .flat_map(|(w, wl)| (0..wl.queries.len()).map(move |q| (w, q)))
        .collect();
    let engine = Engine::new(EngineConfig::default());
    let mut session = engine.session();
    for &(w, q) in &queries {
        black_box(session.explain(&workloads[w].queries[q].1, &workloads[w].db));
    }
    let writes = write_phase(workloads[1].clone(), seed);
    Explain { workloads, queries, engine, session, writes }
}

/// `explain-corpora`: a closed loop of `Session::explain` over the 16 seeded
/// queries, in a fresh seeded order each pass.
pub fn explain_corpora(args: &Args) -> Report {
    let mut report = Report::default();
    let (mut st, setup_times) = timed_setups(|| explain_setup(args.seed));
    report_setup(&mut report, &setup_times);

    let mut tracer = Tracer::new(args.trace);
    let mut acc = Layers::default();
    let backend = st.engine.attributor();
    let config = st.engine.config().clone();
    let cache_before = st.engine.stats().cache;
    let session_before = *st.session.stats();
    let mut latencies = Vec::new();
    let mut digests: Vec<(usize, u64)> = Vec::new();
    let (loop_start, window) = (Instant::now(), Duration::from_secs_f64(args.seconds));
    let deadline = loop_start + window;
    let mut rss = PeakRss::start(window);
    let mut last_end: Option<Instant> = None;
    let mut op = 0u64;
    let mut pace = Pace::start(loop_start);
    let mut op_at = Vec::new();
    'run: for pass in 0.. {
        for qi in inputs::explain_order(args.seed, st.queries.len(), pass) {
            let (w, q) = st.queries[qi];
            let (query, db) = (&st.workloads[w].queries[q].1, &st.workloads[w].db);
            let start = Instant::now();
            if let Some(end) = last_end {
                acc.lag_ms.push(ms(start - end));
            }
            // The traced op is explain's own composition.
            let digest = if args.trace && traces_op(op) {
                let root = tracer.begin("harness.op", op);
                let span = tracer.begin("query.evaluate", op);
                let answers = evaluate(query, db).into_answers();
                acc.evaluate_ms.push(tracer.end(span, 1) as f64 / 1e6);
                let lineages: Vec<&Dnf> = answers.iter().map(|a| &a.lineage).collect();
                let span = tracer.begin("engine.session", op);
                let outcomes = st.session.attribute_batch(&lineages, BatchOptions::default());
                acc.session_ns += tracer.end(span, lineages.len() as u32);
                let wall = tracer.end(root, 1);
                acc.clock_op_ns += ns(start.elapsed());
                latencies.push(wall as f64 / 1e6);
                acc.traced_op_ns.push(wall as f64);
                acc.answers += answers.len() as u64;
                let compiled: Vec<bool> =
                    outcomes.iter().map(|o| o.as_ref().is_ok_and(|a| !a.stats.cache_hit)).collect();
                shadow(&mut tracer, op, &lineages, &compiled, backend.as_ref(), &config, &mut acc);
                check::digest_answers(
                    answers.iter().zip(&outcomes).map(|(a, o)| {
                        (a.tuple.as_slice(), o.as_ref().ok().and_then(check::values_of))
                    }),
                )
            } else {
                let explained = st.session.explain(query, db);
                let wall = start.elapsed();
                latencies.push(ms(wall));
                acc.untraced_op_ns.push(wall.as_nanos() as f64);
                check::digest_explained(&explained)
            };
            digests.push((qi, digest));
            op_at.push(pace.offset(start));
            op += 1;
            st.writes.catch_up(loop_start, window, &mut tracer, &mut acc);
            pace.tick();
            rss.tick();
            last_end = Some(Instant::now());
            if last_end.is_some_and(|t| t >= deadline) {
                break 'run;
            }
        }
    }
    let cache = cache_delta(&st.engine, &cache_before);
    let session_after = *st.session.stats();
    acc.session_ops = op;
    acc.session_compile_steps = session_after.compile_steps - session_before.compile_steps;
    acc.session_cache_hits = session_after.cache_hits - session_before.cache_hits;

    let writes = st.writes.finish(&mut tracer, &mut acc, &mut report);
    let (reads, writes) = scaled(pace, op_at, latencies, &writes, &mut report);
    report_peak_rss(&mut report, rss);
    report_throughput(&mut report, &reads, "explains");
    report_latencies(&mut report, &reads, &writes);

    if args.trace {
        let pass: Vec<Dnf> = st
            .queries
            .iter()
            .flat_map(|&(w, q)| {
                let wl = &st.workloads[w];
                evaluate(&wl.queries[q].1, &wl.db).into_answers().into_iter().map(|a| a.lineage)
            })
            .collect();
        let refs: Vec<&Dnf> = pass.iter().collect();
        serve_sweep(&mut tracer, &refs, true, &mut acc, &mut report);
        report_layers(&mut report, &tracer, &acc, &cache, op);
    }

    // Every op of one query must equal the query's reference.
    let mut referee = Referee::new();
    let reference: Vec<u64> = st
        .queries
        .iter()
        .map(|&(w, q)| {
            let wl = &st.workloads[w];
            let answers = evaluate(&wl.queries[q].1, &wl.db).into_answers();
            referee.reference_answers(answers.iter().map(|a| (a.tuple.as_slice(), &a.lineage)))
        })
        .collect();
    report.attempted += digests.len() as u64;
    let wrong = digests.iter().filter(|(qi, d)| reference[*qi] != *d).count();
    report.fail(wrong as u64, "explain answers differ from the reference");
    st.writes.check(&mut referee, &mut report);
    write_trace(&tracer, "explain-corpora", &mut report);
    report
}

// -------------------------------------------------------------- hard tail

/// Lineages attributed during set-up, before the measured loop.
const HARD_WARMUP: usize = 4;
/// Ops the traced run serves in its serve sweep.
const HARD_SERVE_SWEEP: usize = 32;

struct Hard {
    engine: Engine,
    session: Session,
    imdb: LiveWorkload,
    writes: WritePhase,
}

fn hard_setup(seed: u64) -> Hard {
    let engine = Engine::new(EngineConfig::default());
    let mut session = engine.session();
    for lineage in inputs::hard_warmup(HARD_WARMUP) {
        black_box(session.attribute(&lineage).ok());
    }
    let imdb = inputs::imdb();
    let writes = write_phase(imdb.clone(), seed);
    Hard { engine, session, imdb, writes }
}

/// `hard-tail`: a closed loop of `Session::attribute` on seeded 40–60
/// variable lineages, every fourth an isomorph of an earlier one.
pub fn hard_tail(args: &Args) -> Report {
    let mut report = Report::default();
    let (mut st, setup_times) = timed_setups(|| hard_setup(args.seed));
    report_setup(&mut report, &setup_times);

    let mut tracer = Tracer::new(args.trace);
    let mut acc = Layers::default();
    let backend = st.engine.attributor();
    let config = st.engine.config().clone();
    let cache_before = st.engine.stats().cache;
    let session_before = *st.session.stats();
    let mut latencies = Vec::new();
    let mut answers: Vec<(usize, Option<Values>)> = Vec::new();
    let (loop_start, window) = (Instant::now(), Duration::from_secs_f64(args.seconds));
    let deadline = loop_start + window;
    let mut rss = PeakRss::start(window);
    let mut last_end: Option<Instant> = None;
    let mut pace = Pace::start(loop_start);
    let mut op_at = Vec::new();
    let mut i = 0;
    loop {
        let lineage = inputs::hard_tail_op(args.seed, i).lineage;
        let op = i as u64;
        let start = Instant::now();
        if let Some(end) = last_end {
            acc.lag_ms.push(ms(start - end));
        }
        let outcome = if args.trace && traces_op(op) {
            let root = tracer.begin("harness.op", op);
            let span = tracer.begin("engine.session", op);
            let outcome = st.session.attribute(&lineage);
            acc.session_ns += tracer.end(span, 1);
            let wall = tracer.end(root, 1);
            acc.clock_op_ns += ns(start.elapsed());
            latencies.push(wall as f64 / 1e6);
            acc.traced_op_ns.push(wall as f64);
            let compiled = [outcome.as_ref().is_ok_and(|a| !a.stats.cache_hit)];
            shadow(&mut tracer, op, &[&lineage], &compiled, backend.as_ref(), &config, &mut acc);
            outcome
        } else {
            let outcome = st.session.attribute(&lineage);
            let wall = start.elapsed();
            latencies.push(ms(wall));
            acc.untraced_op_ns.push(wall.as_nanos() as f64);
            outcome
        };
        answers.push((i, outcome.ok().as_ref().and_then(check::values_of)));
        op_at.push(pace.offset(start));
        i += 1;
        st.writes.catch_up(loop_start, window, &mut tracer, &mut acc);
        pace.tick();
        rss.tick();
        last_end = Some(Instant::now());
        if last_end.is_some_and(|t| t >= deadline) {
            break;
        }
    }
    let ops = answers.len() as u64;
    let cache = cache_delta(&st.engine, &cache_before);
    let session_after = *st.session.stats();
    acc.session_ops = ops;
    acc.session_compile_steps = session_after.compile_steps - session_before.compile_steps;
    acc.session_cache_hits = session_after.cache_hits - session_before.cache_hits;

    let writes = st.writes.finish(&mut tracer, &mut acc, &mut report);
    let (reads, writes) = scaled(pace, op_at, latencies, &writes, &mut report);
    report_peak_rss(&mut report, rss);
    report_throughput(&mut report, &reads, "attributions");
    report_latencies(&mut report, &reads, &writes);

    if args.trace {
        query_sweep(&mut tracer, &st.imdb, 120, &mut acc);
        let sample: Vec<Dnf> =
            (0..HARD_SERVE_SWEEP).map(|i| inputs::hard_tail_op(args.seed, i).lineage).collect();
        let refs: Vec<&Dnf> = sample.iter().collect();
        serve_sweep(&mut tracer, &refs, true, &mut acc, &mut report);
        report_layers(&mut report, &tracer, &acc, &cache, ops);
    }

    // Fresh ops against the cache-off reference, isomorphs against their
    // base's reference carried through the renaming.
    let mut referee = Referee::new();
    let mut fresh: HashMap<usize, Option<Values>> = HashMap::new();
    let mut wrong = 0;
    for (i, got) in &answers {
        let op = inputs::hard_tail_op(args.seed, *i);
        let (base, map) = match &op.repeat_of {
            None => (*i, None),
            Some((earlier, map)) => (*earlier, Some(map)),
        };
        let base_values = fresh
            .entry(base)
            .or_insert_with(|| referee.reference(&inputs::hard_tail_op(args.seed, base).lineage))
            .clone();
        let want = match map {
            None => base_values,
            Some(map) => base_values.map(|v| check::transfer(&v, map)),
        };
        wrong += u64::from(got.is_none() || *got != want);
    }
    report.attempted += ops;
    report.fail(wrong, "hard-tail answers differ from the reference");
    st.writes.check(&mut referee, &mut report);
    write_trace(&tracer, "hard-tail", &mut report);
    report
}

/// Writes the traced run's spans to `out/trace-<workload>.jsonl` in the
/// benchmark's directory.
fn write_trace(tracer: &Tracer, workload: &str, report: &mut Report) {
    if !tracer.enabled() {
        return;
    }
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{workload}.jsonl"));
    match tracer.write_jsonl(&path) {
        Ok(()) => report.notes.push(format!(
            "{} spans written to {}",
            tracer.spans().len(),
            path.display()
        )),
        Err(e) => report.notes.push(format!("spans not written to {}: {e}", path.display())),
    }
}
