//! `fleet_steady` and `fleet_loaded`: an [`EngineFleet`] with two
//! tenants — *heavy* is the `mixed_direct` factor (100k rows, ~2 ms
//! solve), *light* a 12k-row deep/narrow factor (~0.13 ms solve).
//!
//! * `fleet_steady` — **open loop**, 50 rps heavy + 250 rps light:
//!   low utilisation, panel fill ≈ 1, so latency is routing + queue
//!   wait + wake-ups + one solve; light is almost pure `serve`/`fleet`
//!   overhead. (Twice these rates were tried first: still far from
//!   saturation, but the tenants then collide on the two cores often
//!   enough that p90 moved ±20 % from run to run.)
//! * `fleet_loaded` — the heavy tenant **saturated** by 8 closed-loop
//!   callers (each submits, waits for its reply, submits again: one
//!   full panel always in flight), beside 300 rps open-loop light
//!   traffic and a `refresh_tenant` per second (writes beside reads).
//!   Panels fill, so coalescing and the panel kernel do the work; the
//!   numbers are capacity (rows per second) and latency at capacity.
//!   An open-loop heavy tenant near its capacity was tried first and
//!   is not gateable here: at 85 % utilisation a 10 % drift of the
//!   host's speed moved its median latency by 50 %.
//!
//! Open-loop arrivals follow a seeded schedule with Poisson spacing
//! statistics (a fixed count of uniformly placed arrival times per
//! tenant, i.e. a Poisson process conditioned on its count, so offered
//! load is the same on every seed). The pacer submits each request at
//! its due time whatever the system's state; latency runs **from the
//! due time** to the moment a collector sees the ticket resolved, so a
//! stall charges every request it delays, and the pacer's own worst
//! lateness is reported. Harness threads: the pacer, one collector per
//! tenant (blocked in `wait`, so resolution is timestamped at the
//! wake-up rather than at a poll), on `fleet_loaded` the callers
//! (blocked in `wait` as well) and a refresher that sleeps between
//! refreshes.

use crate::inputs::{self, sub_seeds, Factor, RhsSet};
use crate::layers::factor_layers;
use crate::timer::Summary;
use crate::trace::{Tracer, NO_PARENT};
use crate::{machine, setup_seconds, Check, Outcome};
use desim::Pcg32;
use sparsemat::FactorFingerprint;
use sptrsv::{
    serve_solver, EngineFleet, EngineResources, FleetConfig, ServiceConfig, ServiceReport,
    SolverEngine,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Latency limit per tenant (heavy, light), milliseconds. A request
/// that fails, is refused, or returns wrong bits misses its limit.
pub const LIMIT_MS: [f64; 2] = [20.0, 10.0];

/// Right-hand sides generated per tenant (requests cycle through them).
const RHS_PER_TENANT: usize = 16;

/// Callers that keep the heavy tenant saturated on `fleet_loaded`:
/// one full panel ([`sptrsv::exec::PANEL_K`] lanes) always in flight.
const HEAVY_CALLERS: usize = 8;

/// Offered load of one fleet workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Load {
    /// Open-loop arrival rate per tenant (heavy, light), requests per
    /// second; 0 schedules nothing for that tenant.
    pub rps: [f64; 2],
    /// Closed-loop callers on the heavy tenant: each submits, waits
    /// for its reply, and submits again, for the whole window.
    pub heavy_callers: usize,
    /// Period of `refresh_tenant(heavy, m2/m)`, if any.
    pub refresh_every: Option<Duration>,
}

impl Load {
    /// The load of workload `name` (`fleet_loaded`, else `fleet_steady`).
    pub fn of(name: &str) -> Load {
        if name == "fleet_loaded" {
            Load {
                rps: [0.0, 300.0],
                heavy_callers: HEAVY_CALLERS,
                refresh_every: Some(Duration::from_secs(1)),
            }
        } else {
            Load { rps: [50.0, 250.0], heavy_callers: 0, refresh_every: None }
        }
    }
}

/// Generated inputs of the fleet workloads.
#[derive(Debug)]
pub struct Inputs {
    factors: [Factor; 2],
    rhs: [RhsSet; 2],
}

/// Generate both tenants' factors, right-hand sides and oracles. The
/// heavy factor is `mixed_direct`'s.
pub fn prepare(seed: u64) -> Inputs {
    let [rhs_seed] = sub_seeds(seed);
    let factors = [Factor::heavy(), Factor::light()];
    let rhs = [0, 1].map(|t| RhsSet::generate(&factors[t], RHS_PER_TENANT, rhs_seed ^ t as u64));
    Inputs { factors, rhs }
}

/// One scheduled request.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Arrival {
    due: Duration,
    tenant: usize,
    rhs: usize,
}

/// One window of load: the scheduled arrivals in due-time order, plus
/// the load's closed-loop callers and refresher for `window`.
#[derive(Debug, Clone, PartialEq)]
struct Plan {
    load: Load,
    window: Duration,
    arrivals: Vec<Arrival>,
}

impl Plan {
    /// `load` over `window`, arrival times drawn from `seed`.
    fn new(seed: u64, load: Load, window: Duration) -> Plan {
        let mut rng = Pcg32::seed_from_u64(seed ^ 0xA221_7A15);
        let mut arrivals = Vec::new();
        for (tenant, rps) in load.rps.iter().enumerate() {
            let count = (rps * window.as_secs_f64()).round() as usize;
            arrivals.extend((0..count).map(|i| Arrival {
                due: window.mul_f64(rng.next_f64()),
                tenant,
                rhs: i % RHS_PER_TENANT,
            }));
        }
        arrivals.sort_by_key(|a| a.due);
        Plan { load, window, arrivals }
    }

    /// The first `share` of the window, with the arrivals due in it.
    fn head(&self, share: f64) -> Plan {
        let window = self.window.mul_f64(share);
        let arrivals = self.arrivals.iter().copied().filter(|a| a.due < window).collect();
        Plan { load: self.load, window, arrivals }
    }
}

/// Sleep to just before `due`, then spin: sleeping alone wakes a timer
/// slack late, spinning alone would take a core from the program.
fn wait_until(due: Instant) {
    const SPIN: Duration = Duration::from_micros(150);
    if let Some(ahead) = due.checked_duration_since(Instant::now()) {
        if ahead > SPIN {
            std::thread::sleep(ahead - SPIN);
        }
    }
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

/// Latencies and verdicts of the requests one harness thread resolved.
#[derive(Debug, Default)]
struct Tally {
    /// Latency per tenant, ms: from the due time (scheduled requests)
    /// or the submit call (closed-loop callers) to resolution.
    latency_ms: [Vec<f64>; 2],
    /// Heavy-tenant latencies split by request parity: odd requests
    /// are the ones a live tracer spans, even ones never are.
    heavy_by_parity: [Vec<f64>; 2],
    /// Matrix rows of requests resolved correctly — a scheduled
    /// (open-loop) request only within its limit: its rate is offered,
    /// not earned, so only the limit tells a backlog from service.
    good_rows: u64,
    /// Requests resolved correctly within their limit.
    within_limit: u64,
    check: Check,
}

impl Tally {
    fn merge(&mut self, other: Tally) {
        for t in 0..2 {
            self.latency_ms[t].extend(&other.latency_ms[t]);
            self.heavy_by_parity[t].extend(&other.heavy_by_parity[t]);
        }
        self.good_rows += other.good_rows;
        self.within_limit += other.within_limit;
        self.check.merge(other.check);
    }
}

/// What one window of load observed.
#[derive(Debug, Default)]
struct Observed {
    tally: Tally,
    /// Requests sent: every scheduled one plus the callers' own.
    sent: u64,
    /// Wall time of each scheduled submit call, µs.
    submit_us: Vec<f64>,
    /// Wall time of each value refresh, ms.
    refresh_ms: Vec<f64>,
    /// Worst lateness of the pacer against the schedule, ms.
    lateness_ms_max: f64,
    /// Seconds from the window's start to the last resolution.
    elapsed_s: f64,
}

/// Span names of one target: (submit call, request due→resolved).
type SpanNames = (&'static str, &'static str);

/// One request's way through a target, shared by the collectors and
/// the closed-loop callers: who judges the result and how it is traced.
struct Resolver<'a> {
    inp: &'a Inputs,
    /// Heavy results may come from either value epoch (a refresher runs).
    either_epoch: bool,
    tracer: &'a Tracer,
    off: Tracer,
    names: SpanNames,
}

impl Resolver<'_> {
    /// A live tracer spans every odd request and no even one, so one
    /// window yields traced and untraced latencies under the same load.
    fn tracer_of(&self, request: u64) -> &Tracer {
        if request % 2 == 1 {
            self.tracer
        } else {
            &self.off
        }
    }

    /// Judge and record the result of request `request` (right-hand
    /// side `k` of `tenant`), whose latency runs from `from` — its due
    /// time if it was `scheduled`, its submit call otherwise — to now.
    fn resolve(
        &self,
        tally: &mut Tally,
        (tenant, k, request): (usize, usize, u64),
        (from, scheduled): (Instant, bool),
        result: Result<Vec<f64>, String>,
    ) {
        let done = Instant::now();
        let ms = done.saturating_duration_since(from).as_secs_f64() * 1e3;
        let rhs = &self.inp.rhs[tenant];
        let good = result.is_ok_and(|x| {
            if tenant == 0 && self.either_epoch {
                rhs.matches_either(k, &x)
            } else {
                rhs.matches(k, 0, &x)
            }
        });
        tally.check.ok(good);
        let within = good && ms <= LIMIT_MS[tenant];
        tally.within_limit += u64::from(within);
        if within || (good && !scheduled) {
            tally.good_rows += self.inp.factors[tenant].m.n() as u64;
        }
        tally.latency_ms[tenant].push(ms);
        if tenant == 0 {
            tally.heavy_by_parity[(request % 2) as usize].push(ms);
        }
        let tracer = self.tracer_of(request);
        let lane = 1 + tenant as u32;
        tracer.record(
            self.names.1,
            NO_PARENT,
            request,
            lane,
            tracer.ns_of(from),
            tracer.ns_of(done),
        );
    }
}

/// Put `load` on a target for `window`. The target is given as
/// closures: `submit(tenant, b)` returns a ticket or a refusal,
/// `wait(ticket)` blocks for the result, `refresh(epoch)` swaps the
/// heavy tenant's values. `T` is the target's ticket type.
///
/// Scheduled `arrivals` are submitted open loop by this thread (the
/// pacer) and resolved by one collector per tenant; `heavy_callers`
/// closed-loop callers run beside them, each on its own thread.
fn drive_load<T: Send>(
    inp: &Inputs,
    plan: &Plan,
    tracer: &Tracer,
    names: SpanNames,
    submit: impl Fn(usize, &[f64]) -> Result<T, String> + Sync,
    wait: impl Fn(T) -> Result<Vec<f64>, String> + Sync,
    refresh: impl Fn(usize) -> Result<(), String> + Sync,
) -> Observed {
    let Plan { load, window, arrivals } = plan;
    let mut obs = Observed { sent: arrivals.len() as u64, ..Observed::default() };
    let resolver = Resolver {
        inp,
        either_epoch: load.refresh_every.is_some(),
        tracer,
        off: Tracer::new(false),
        names,
    };
    let (resolver, submit, wait) = (&resolver, &submit, &wait);
    let stop = AtomicBool::new(false);
    let start = Instant::now() + Duration::from_millis(2);
    let end = start + *window;
    std::thread::scope(|s| {
        // one collector per tenant: within a tenant tickets resolve in
        // submit order, so a blocking FIFO wait timestamps each at its
        // wake-up; across tenants they do not, hence two collectors
        let mut senders = Vec::new();
        let mut collectors = Vec::new();
        for tenant in 0..2 {
            let (tx, rx) = mpsc::channel::<(T, Instant, usize, u64)>();
            senders.push(tx);
            collectors.push(s.spawn(move || {
                let mut tally = Tally::default();
                for (ticket, due, k, request) in rx {
                    resolver.resolve(&mut tally, (tenant, k, request), (due, true), wait(ticket));
                }
                tally
            }));
        }
        let callers: Vec<_> = (0..load.heavy_callers)
            .map(|c| {
                s.spawn(move || {
                    let (mut tally, mut sent) = (Tally::default(), 0u64);
                    while Instant::now() < end {
                        sent += 1;
                        // ids above every scheduled request's, parity alternating
                        let request = (c as u64 + 1) * 1_000_000 + sent;
                        let k = (c + sent as usize) % RHS_PER_TENANT;
                        let from = Instant::now();
                        let result = {
                            let lane = 4 + c as u32;
                            let _s =
                                resolver.tracer_of(request).span(names.0, NO_PARENT, request, lane);
                            submit(0, &inp.rhs[0].bs[k])
                        }
                        .and_then(wait);
                        resolver.resolve(&mut tally, (0, k, request), (from, false), result);
                    }
                    (tally, sent)
                })
            })
            .collect();
        let refresher = load.refresh_every.map(|period| {
            // a window shorter than three periods still sees refreshes
            let period = period.min(*window / 3);
            let (stop, refresh) = (&stop, &refresh);
            s.spawn(move || {
                let (mut laps, mut check, mut epoch) = (Vec::new(), Check::default(), 0usize);
                let mut next = start + period;
                // Relaxed: the flag publishes nothing but itself
                while !stop.load(Ordering::Relaxed) {
                    if Instant::now() < next {
                        std::thread::sleep(Duration::from_millis(5));
                        continue;
                    }
                    epoch += 1;
                    let t0 = Instant::now();
                    let _s = tracer.span("fleet.refresh_tenant", NO_PARENT, epoch as u64, 3);
                    check.ok(refresh(epoch).is_ok());
                    laps.push(t0.elapsed().as_secs_f64() * 1e3);
                    next += period;
                }
                (laps, check)
            })
        });

        // the pacer: this thread
        for (i, a) in arrivals.iter().enumerate() {
            let (due, request) = (start + a.due, i as u64 + 1);
            wait_until(due);
            let t0 = Instant::now();
            let late_ms = t0.saturating_duration_since(due).as_secs_f64() * 1e3;
            obs.lateness_ms_max = obs.lateness_ms_max.max(late_ms);
            let ticket = {
                let _s = resolver.tracer_of(request).span(names.0, NO_PARENT, request, 0);
                submit(a.tenant, &inp.rhs[a.tenant].bs[a.rhs])
            };
            obs.submit_us.push(t0.elapsed().as_secs_f64() * 1e6);
            match ticket {
                Ok(t) => senders[a.tenant].send((t, due, a.rhs, request)).expect("collector alive"),
                Err(_) => obs.tally.check.ok(false), // refused: fails and misses its limit
            }
        }
        drop(senders);
        for c in collectors {
            obs.tally.merge(c.join().expect("collector thread"));
        }
        for c in callers {
            let (tally, sent) = c.join().expect("caller thread");
            obs.tally.merge(tally);
            obs.sent += sent;
        }
        obs.elapsed_s = start.elapsed().as_secs_f64();
        stop.store(true, Ordering::Relaxed);
        if let Some(r) = refresher {
            let (laps, check) = r.join().expect("refresher thread");
            obs.refresh_ms = laps;
            obs.tally.check.merge(check);
        }
    });
    obs
}

/// A fleet with both tenants registered.
struct Fleet {
    fleet: EngineFleet,
    fps: [FactorFingerprint; 2],
}

impl Fleet {
    fn start(inp: &Inputs) -> Fleet {
        let cfg = FleetConfig {
            machine: inputs::machine(),
            solve: inputs::solve_options(inp.factors[0].tri),
            ..FleetConfig::default()
        };
        let fleet = EngineFleet::new(cfg).expect("fleet config");
        let fps = [0, 1].map(|t| fleet.register(Arc::clone(&inp.factors[t].m)));
        Fleet { fleet, fps }
    }

    /// First submit per tenant: admits, builds and serves. Returns the
    /// heavy tenant's cold round trip in ms.
    fn warm(&self, inp: &Inputs, check: &mut Check) -> f64 {
        let mut heavy_ms = 0.0;
        for tenant in 0..2 {
            let t0 = Instant::now();
            let x = self.submit(tenant, &inp.rhs[tenant].bs[0]).and_then(Self::wait);
            if tenant == 0 {
                heavy_ms = t0.elapsed().as_secs_f64() * 1e3;
            }
            check.ok(x.is_ok_and(|x| inp.rhs[tenant].matches(0, 0, &x)));
        }
        heavy_ms
    }

    fn submit(&self, tenant: usize, b: &[f64]) -> Result<sptrsv::FleetTicket, String> {
        self.fleet.submit(self.fps[tenant], b).map_err(|e| e.to_string())
    }

    fn wait(t: sptrsv::FleetTicket) -> Result<Vec<f64>, String> {
        t.wait().map_err(|e| e.to_string())
    }

    fn run(&self, inp: &Inputs, plan: &Plan, tracer: &Tracer) -> Observed {
        drive_load(
            inp,
            plan,
            tracer,
            ("fleet.submit", "fleet.request"),
            |tenant, b| self.submit(tenant, b),
            Self::wait,
            |epoch| {
                self.fleet
                    .refresh_tenant(self.fps[0], Arc::clone(inp.factors[0].epoch(epoch)))
                    .map(|_| ())
                    .map_err(|e| e.to_string())
            },
        )
    }

    /// A fleet past its lazy set-up: both tenants built, then a short
    /// refresh-free stretch of the load off the clock (worker pool,
    /// buffers, the dispatchers' solve-time estimate). Returns the
    /// heavy tenant's cold round trip in ms alongside.
    fn warmed(
        inp: &Inputs,
        load: Load,
        seed: u64,
        seconds: f64,
        check: &mut Check,
    ) -> (Fleet, f64) {
        let f = Fleet::start(inp);
        let cold_ms = f.warm(inp, check);
        let stretch = Duration::from_secs_f64((seconds * 0.05).min(0.5));
        let warm_up = Plan::new(seed ^ 1, Load { refresh_every: None, ..load }, stretch);
        check.merge(f.run(inp, &warm_up, &Tracer::new(false)).tally.check);
        (f, cold_ms)
    }
}

/// Inputs in memory → first result per tenant through a new fleet.
fn setup_s(inp: &Inputs, check: &mut Check) -> f64 {
    setup_seconds(|| {
        let t0 = Instant::now();
        let f = Fleet::start(inp);
        f.warm(inp, check);
        t0.elapsed().as_secs_f64()
    })
}

/// The untraced run: every end-to-end metric.
pub fn end_to_end(inp: &Inputs, load: Load, seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    out.metrics.set("setup_s", setup_s(inp, &mut out.check));
    let (f, _cold_ms) = Fleet::warmed(inp, load, seed, seconds, &mut out.check);
    let plan = Plan::new(seed, load, Duration::from_secs_f64(seconds));
    let Observed { tally, elapsed_s, .. } = f.run(inp, &plan, &Tracer::new(false));
    let Tally { latency_ms, good_rows, check, .. } = tally;
    let [heavy, light] = latency_ms.map(Summary::new);
    out.metrics.set("op_ms_p50", heavy.median());
    out.metrics.set("op_ms_p90", heavy.percentile(90.0));
    out.metrics.set("alt_ms_p50", light.median());
    // rows of bit-correct answers per second, from the window's start
    // to the last resolution; an open-loop request counts only within
    // its latency limit
    out.metrics.set("mrows_per_s", good_rows as f64 / elapsed_s / 1e6);
    out.metrics.keep_summary("heavy request", heavy);
    out.metrics.keep_summary("light request", light);
    out.check.merge(check);
    out
}

/// Put `plan` on one bare `SolverService` per tenant (shared engine
/// resources, as in the fleet): what the fleet adds on top.
fn bare_services(inp: &Inputs, plan: &Plan, tracer: &Tracer) -> (Observed, ServiceReport) {
    let resources = Arc::new(EngineResources::new());
    let engines = [0, 1].map(|t| {
        SolverEngine::build_shared(
            &inp.factors[t].m,
            inputs::machine(),
            &inputs::solve_options(inp.factors[t].tri),
            Arc::clone(&resources),
        )
        .expect("tenant engine builds")
    });
    let cfg = ServiceConfig::default();
    let ((obs, _light_report), heavy_report) = serve_solver(&engines[0], &cfg, |heavy| {
        serve_solver(&engines[1], &cfg, |light| {
            let svc = [heavy, light];
            for (svc, rhs) in svc.iter().zip(&inp.rhs) {
                let warm = svc.submit(&rhs.bs[0]).and_then(|tk| tk.wait());
                assert!(warm.is_ok_and(|x| rhs.matches(0, 0, &x)), "bare warm-up solve");
            }
            drive_load(
                inp,
                plan,
                tracer,
                ("serve.submit", "serve.request"),
                |tenant, b| svc[tenant].submit(b).map_err(|e| e.to_string()),
                |ticket| ticket.wait().map_err(|e| e.to_string()),
                |epoch| {
                    heavy
                        .refresh_solver(inp.factors[0].epoch(epoch))
                        .map(|_| ())
                        .map_err(|e| e.to_string())
                },
            )
        })
        .expect("light service runs")
    })
    .expect("heavy service runs");
    (obs, heavy_report)
}

/// Requests per second `clients` closed-loop callers get from a bare
/// heavy-tenant service.
fn closed_loop_rps(inp: &Inputs, clients: usize, window: Duration, check: &mut Check) -> f64 {
    let engine = SolverEngine::build(
        &inp.factors[0].m,
        inputs::machine(),
        &inputs::solve_options(inp.factors[0].tri),
    )
    .expect("heavy engine builds");
    let rhs = &inp.rhs[0];
    let t0 = Instant::now();
    let (tallies, _report) = serve_solver(&engine, &ServiceConfig::default(), |svc| {
        std::thread::scope(|s| {
            let clients: Vec<_> = (0..clients)
                .map(|c| {
                    s.spawn(move || {
                        let mut tally = Check::default();
                        let mut k = c;
                        while tally.attempted == 0 || t0.elapsed() < window {
                            k = (k + 1) % rhs.bs.len();
                            let x = svc.submit(&rhs.bs[k]).and_then(|t| t.wait());
                            tally.ok(x.is_ok_and(|x| rhs.matches(k, 0, &x)));
                        }
                        tally
                    })
                })
                .collect();
            clients.into_iter().map(|c| c.join().expect("client thread")).collect::<Vec<_>>()
        })
    })
    .expect("service runs");
    let elapsed = t0.elapsed().as_secs_f64();
    let before = check.attempted;
    tallies.into_iter().for_each(|t| check.merge(t));
    (check.attempted - before) as f64 / elapsed
}

/// The traced run: the fleet window with every other request traced,
/// the head of the same schedule on bare services, a closed-loop
/// capacity probe, then the heavy factor's layers.
pub fn per_layer(inp: &Inputs, load: Load, seed: u64, seconds: f64, tracer: &Tracer) -> Outcome {
    let mut out = Outcome::default();
    let plan = Plan::new(seed, load, Duration::from_secs_f64(seconds * 0.35));

    let (f, cold_ms) = Fleet::warmed(inp, load, seed, seconds, &mut out.check);
    let traced = f.run(inp, &plan, tracer);
    let report = f.fleet.report();
    drop(f);
    let Tally { latency_ms, heavy_by_parity, within_limit, check, .. } = traced.tally;
    let [heavy, light] = latency_ms.map(Summary::new);
    let [untraced_heavy, traced_heavy] = heavy_by_parity.map(Summary::new);
    out.set_trace_overhead(untraced_heavy.median(), traced_heavy.median());
    out.check.merge(check);

    let (bare, heavy_report) = bare_services(inp, &plan.head(4.0 / 7.0), tracer);
    let [bare_heavy, bare_light] = bare.tally.latency_ms.map(Summary::new);
    out.check.merge(bare.tally.check);
    let rps = closed_loop_rps(
        inp,
        machine::nproc(),
        Duration::from_secs_f64(seconds * 0.05),
        &mut out.check,
    );

    let m = &mut out.metrics;
    m.set("fleet.heavy_latency_ms_mean", heavy.mean());
    m.set("fleet.heavy_latency_ms_p95", heavy.percentile(95.0));
    m.set("fleet.light_latency_ms_p95", light.percentile(95.0));
    m.set("fleet.heavy_latency_ms_p99", heavy.percentile(99.0));
    m.set("fleet.light_latency_ms_p99", light.percentile(99.0));
    m.set("fleet.submit_call_us", Summary::new(traced.submit_us).median());
    m.set("fleet.cold_first_submit_ms", cold_ms);
    m.set("fleet.refreshes", traced.refresh_ms.len() as f64);
    m.set("fleet.refresh_ms_p50", Summary::new(traced.refresh_ms).median());
    m.set("fleet.within_limit_share", within_limit as f64 / traced.sent as f64);
    m.set("fleet.cache_bytes_high_water", report.cache_bytes_high_water as f64);
    m.set("fleet.submitted", report.submitted as f64);
    m.set("fleet.served", report.served as f64);
    m.set("fleet.failed", report.failed as f64);
    m.set("fleet.gen_lateness_ms_max", traced.lateness_ms_max);
    m.set("fleet.route_overhead_ms", heavy.median() - bare_heavy.median());

    let queue_wait_ms = heavy_report.mean_wait_ns() / 1e6;
    let panel_solve_ms = heavy_report.mean_panel_solve_ns() / 1e6;
    m.set("serve.heavy_latency_ms_p50", bare_heavy.median());
    m.set("serve.light_latency_ms_p50", bare_light.median());
    m.set("serve.queue_wait_ms_mean", queue_wait_ms);
    m.set("serve.panel_solve_ms_mean", panel_solve_ms);
    m.set("serve.mean_fill", heavy_report.mean_fill());
    m.set("serve.panels", heavy_report.panels as f64);
    m.set("serve.flush_full", heavy_report.full_flushes as f64);
    m.set("serve.flush_linger", heavy_report.linger_flushes as f64);
    m.set("serve.closed_loop_rps", rps);
    // closure: what the fleet adds over bare services, plus the bare
    // service's own queue wait and panel solve, against the mean
    // heavy latency through the fleet
    let route_mean_ms = heavy.mean() - bare_heavy.mean();
    m.set(
        "fleet.latency_closure_share",
        (route_mean_ms + queue_wait_ms + panel_solve_ms) / heavy.mean().max(1e-9),
    );
    m.keep_summary("fleet heavy request (traced)", heavy);
    m.keep_summary("fleet light request (traced)", light);
    let bare_heavy_p50 = bare_heavy.median();
    m.keep_summary("bare-service heavy request", bare_heavy);
    m.keep_summary("bare-service light request", bare_light);

    factor_layers(
        &mut out.metrics,
        &mut out.check,
        &inp.factors[0],
        &inp.rhs[0],
        Duration::from_secs_f64(seconds * 0.3),
    );
    let serial_ms = out.metrics.get("kernel.serial_ms").unwrap_or(0.0);
    out.metrics.set("serve.overhead_ms", bare_heavy_p50 - serial_ms);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparsemat::gen::{self, LevelSpec};
    use sparsemat::Triangle;

    fn tiny_inputs() -> Inputs {
        let factors = [
            Factor::with_drift(
                gen::level_structured(&LevelSpec::new(4_000, 16, 16_000, 3)),
                Triangle::Lower,
            ),
            Factor::with_drift(gen::deep_narrow(100, 6, 3.2, 4), Triangle::Lower),
        ];
        let rhs = [0, 1].map(|t| RhsSet::generate(&factors[t], RHS_PER_TENANT, 21 + t as u64));
        Inputs { factors, rhs }
    }

    #[test]
    fn plan_has_fixed_counts_and_is_sorted_and_seeded() {
        let load = Load::of("fleet_steady");
        let p = Plan::new(5, load, Duration::from_secs(2));
        assert_eq!(p.arrivals.iter().filter(|a| a.tenant == 0).count(), 100);
        assert_eq!(p.arrivals.iter().filter(|a| a.tenant == 1).count(), 500);
        assert!(p.arrivals.windows(2).all(|w| w[0].due <= w[1].due));
        assert!(p.arrivals.iter().all(|a| a.due < p.window && a.rhs < RHS_PER_TENANT));
        assert_eq!(p, Plan::new(5, load, Duration::from_secs(2)));
        assert_ne!(p, Plan::new(6, load, Duration::from_secs(2)));
        let head = p.head(0.25);
        assert_eq!(head.window, Duration::from_millis(500));
        assert!(head.arrivals.len() < 200 && head.arrivals.iter().all(|a| a.due < head.window));
        // the loaded workload schedules light requests only: its heavy
        // tenant is driven by closed-loop callers
        let loaded = Plan::new(5, Load::of("fleet_loaded"), Duration::from_secs(1));
        assert!(loaded.arrivals.len() == 300 && loaded.arrivals.iter().all(|a| a.tenant == 1));
        assert_eq!(loaded.load.heavy_callers, HEAVY_CALLERS);
    }

    #[test]
    fn a_fleet_under_open_and_closed_load_resolves_and_checks_every_request() {
        let inp = tiny_inputs();
        let load = Load {
            rps: [200.0, 400.0],
            heavy_callers: 2,
            refresh_every: Some(Duration::from_millis(40)),
        };
        let plan = Plan::new(9, load, Duration::from_millis(200));
        let f = Fleet::start(&inp);
        let mut check = Check::default();
        assert!(f.warm(&inp, &mut check) > 0.0);
        let tracer = Tracer::new(true);
        let obs = f.run(&inp, &plan, &tracer);
        let by_callers = obs.sent - 120;
        assert!(by_callers >= 2, "both callers sent at least one request");
        let [heavy, light] = &obs.tally.latency_ms;
        assert_eq!((heavy.len() as u64, light.len()), (40 + by_callers, 80));
        assert!(!obs.refresh_ms.is_empty(), "the refresher ran");
        assert_eq!(obs.tally.check.attempted, obs.sent + obs.refresh_ms.len() as u64);
        assert_eq!((check.failed, obs.tally.check.failed), (0, 0));
        assert!(obs.tally.within_limit <= obs.sent);
        // a live tracer spans the odd requests only, call and request alike
        let st = tracer.stats();
        assert_eq!(st["fleet.submit"].count, st["fleet.request"].count);
        assert!(st["fleet.request"].count >= 60 && st["fleet.request"].count < obs.sent);
        let [even, odd] = &obs.tally.heavy_by_parity;
        assert_eq!(even.len() + odd.len(), heavy.len());
    }

    #[test]
    fn bare_services_take_the_same_plan() {
        let inp = tiny_inputs();
        let load = Load { rps: [150.0, 150.0], heavy_callers: 0, refresh_every: None };
        let plan = Plan::new(2, load, Duration::from_millis(100));
        let (obs, report) = bare_services(&inp, &plan, &Tracer::new(false));
        assert_eq!((obs.tally.check.attempted, obs.tally.check.failed), (30, 0));
        assert_eq!(report.served, 15 + 1, "heavy service: its arrivals plus the warm-up");
        let mut check = Check::default();
        assert!(closed_loop_rps(&inp, 2, Duration::from_millis(30), &mut check) > 0.0);
        assert!(check.attempted >= 2 && check.failed == 0);
    }

    #[test]
    fn a_refused_request_fails_and_misses_its_limit() {
        let inp = tiny_inputs();
        let load = Load { rps: [50.0, 50.0], heavy_callers: 0, refresh_every: None };
        let obs = drive_load(
            &inp,
            &Plan::new(1, load, Duration::from_millis(100)),
            &Tracer::new(false),
            ("x.submit", "x.request"),
            |_, _| Err::<(), String>("refused".into()),
            |()| unreachable!("nothing was admitted"),
            |_| Ok(()),
        );
        let Tally { check, within_limit, .. } = obs.tally;
        assert_eq!((check.attempted, check.failed, within_limit), (10, 10, 0));
    }
}
