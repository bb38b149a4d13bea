//! The keyed-store service workloads: one driver thread offers requests to
//! a [`Runtime`], every request is a task with effects, and the benchmark
//! owns the task bodies — so due time, body start and body end are all
//! stamped from outside the runtime.
//!
//! Correctness is part of the run. Each body flips a per-key reader/writer
//! flag, so an overlap of two tasks the scheduler should have kept apart is
//! *observed*; each written value names its key and its request, so a read
//! is checked on the spot; and every key counts its writes with a plain
//! load-then-store, which is exact only if writers never overlap, so the
//! final counts must equal the generated ones. (The order of two writes to
//! one key is not checked: a parked task and a newly submitted one race for
//! a region the moment its holder finishes, and either may win.)

use crate::gen::{Kind, Loop, Op, SvcSpec, SvcTrace, IN_FLIGHT_CAP, MAX_WAVE};
use crate::metrics::{Outcome, TraceFile};
use crate::replay::{ReplayOp, REPLAY_OPS, TEXTS};
use crate::stats::quantile;
use std::collections::VecDeque;
use std::hint::black_box;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering::Relaxed, Ordering::SeqCst};
use std::sync::Arc;
use std::time::{Duration, Instant};
use twe_effects::{arena, EffectSet, Rpl};
use twe_runtime::{AdmissionPolicy, DynCell, Runtime, TaskCtx, TaskFuture};

/// One tenant's store. Values and flags are atomics so that a scheduler
/// bug (or the injected fault of the self-test) shows up as a counted
/// violation, never as undefined behaviour.
pub struct Tenant {
    vals: Vec<AtomicU64>,
    /// Writes per key, bumped by load-then-store under the key's write
    /// effect: two overlapping writers lose an update.
    writes: Vec<AtomicU64>,
    flags: Vec<AtomicU32>,
}

impl Tenant {
    /// `(writes, value)` per key.
    fn snapshot(&self) -> Vec<(u64, u64)> {
        self.writes
            .iter()
            .zip(&self.vals)
            .map(|(n, v)| (n.load(Relaxed), v.load(Relaxed)))
            .collect()
    }
}

pub type Cell = Arc<DynCell<Tenant>>;

fn fresh_cell(keys: usize) -> Cell {
    DynCell::new(Tenant {
        vals: (0..keys).map(|_| AtomicU64::new(0)).collect(),
        writes: (0..keys).map(|_| AtomicU64::new(0)).collect(),
        flags: (0..keys).map(|_| AtomicU32::new(0)).collect(),
    })
}

/// A key's flag counts readers in its low half; a writer adds `WRITER`.
const WRITER: u32 = 1 << 16;

/// Enters a key as a reader; true if a writer was inside.
fn enter_read(flag: &AtomicU32) -> bool {
    flag.fetch_add(1, SeqCst) >= WRITER
}

fn exit_read(flag: &AtomicU32) {
    flag.fetch_sub(1, SeqCst);
}

/// Enters a key as its writer; true if anyone was inside.
fn enter_write(flag: &AtomicU32) -> bool {
    flag.fetch_add(WRITER, SeqCst) != 0
}

fn exit_write(flag: &AtomicU32) {
    flag.fetch_sub(WRITER, SeqCst);
}

/// The value request `seq` writes to key id `key`: it names both, so a
/// reader can tell a value that belongs to its key from one that does not.
fn written_value(seq: u64, key: u16) -> u64 {
    ((seq + 1) << 16) | u64::from(key)
}

/// Could a read of `key` return `value`? Only the initial zero or what a
/// writer of that very key stored. Which writer is not the scheduler's
/// promise: the tree scheduler tests a new task against *enabled* tasks
/// only, so a write submitted after a parked read may run before it.
fn plausible(value: u64, key: u16) -> bool {
    value == 0 || value & 0xFFFF == u64::from(key)
}

const NO_SLOT: u32 = u32::MAX;

struct Stamp {
    start: AtomicU64,
    end: AtomicU64,
}

/// What bodies on worker threads share with the driver.
struct Shared {
    epoch: Instant,
    /// Body start and end per recorded request, nanoseconds since `epoch`;
    /// written once by the body, read by the driver after the drain.
    stamps: Vec<Stamp>,
    overlaps: AtomicU64,
    bad_reads: AtomicU64,
}

impl Shared {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

/// A request on its way to a worker: everything its body needs.
struct Request {
    shared: &'static Shared,
    cell: Cell,
    op: Op,
    keys_per_tenant: u16,
    seq: u64,
    slot: u32,
}

impl Request {
    fn run(self) {
        let shared = self.shared;
        let start = shared.now_ns();
        let kpt = self.keys_per_tenant;
        let mut overlap = false;
        match self.op.kind {
            Kind::Read => {
                let tenant = self.cell.read();
                let k = usize::from(self.op.key % kpt);
                overlap |= enter_read(&tenant.flags[k]);
                let value = tenant.vals[k].load(Relaxed);
                exit_read(&tenant.flags[k]);
                if !plausible(value, self.op.key) {
                    shared.bad_reads.fetch_add(1, Relaxed);
                }
            }
            Kind::Write => {
                let tenant = self.cell.read();
                let k = usize::from(self.op.key % kpt);
                overlap |= enter_write(&tenant.flags[k]);
                let writes = tenant.writes[k].load(Relaxed);
                tenant.vals[k].store(written_value(self.seq, self.op.key), Relaxed);
                tenant.writes[k].store(writes + 1, Relaxed);
                exit_write(&tenant.flags[k]);
            }
            Kind::Scan => {
                let tenant = self.cell.read();
                for flag in &tenant.flags {
                    overlap |= enter_read(flag);
                }
                black_box(
                    tenant
                        .vals
                        .iter()
                        .fold(0u64, |acc, v| acc.wrapping_add(v.load(Relaxed))),
                );
                for flag in &tenant.flags {
                    exit_read(flag);
                }
            }
        }
        if overlap {
            shared.overlaps.fetch_add(1, Relaxed);
        }
        if self.slot != NO_SLOT {
            let stamp = &shared.stamps[self.slot as usize];
            stamp.start.store(start, Relaxed);
            stamp.end.store(shared.now_ns(), Relaxed);
        }
    }
}

/// A live tenant as the driver sees it: the cell plus the two RPLs every
/// request on it extends, looked up once per tenant as a service would.
pub struct TenantSlot {
    cell: Cell,
    key_base: Rpl,
    scan: Rpl,
    era: usize,
}

impl TenantSlot {
    fn new(keys: usize, era: usize) -> Self {
        let cell = fresh_cell(keys);
        let key_base = cell.rpl().child_name("Key");
        let scan = cell.rpl().under_star();
        TenantSlot {
            cell,
            key_base,
            scan,
            era,
        }
    }
}

/// The tenants a run starts with, every key's region interned — as after
/// any stretch of service. (A tenant created by a retirement is not: its
/// first requests intern its keys, which is what `svc-churn` is for.)
pub fn fresh_slots(spec: &SvcSpec) -> Vec<TenantSlot> {
    let slots: Vec<TenantSlot> = (0..spec.tenants)
        .map(|t| TenantSlot::new(spec.keys, t))
        .collect();
    for slot in &slots {
        for key in 0..spec.keys {
            black_box(slot.key_base.child_index(key as i64));
        }
    }
    slots
}

/// The region a request names: its key's, or its whole tenant's for a scan.
fn region_of(op: &Op, slots: &[TenantSlot], keys: usize) -> Rpl {
    let (tenant, key) = (usize::from(op.key) / keys, usize::from(op.key) % keys);
    match op.kind {
        Kind::Read | Kind::Write => slots[tenant].key_base.child_index(key as i64),
        Kind::Scan => slots[tenant].scan,
    }
}

/// The effect set a request declares — the `effects.build` span.
pub fn effects_of(op: &Op, slots: &[TenantSlot], keys: usize) -> EffectSet {
    let region = region_of(op, slots, keys);
    match op.kind {
        Kind::Read | Kind::Scan => EffectSet::read(region),
        Kind::Write => EffectSet::write(region),
    }
}

/// The head of the measured trace as the layer replay takes it: live
/// tenants to root the regions (keep them until the replay is over), each
/// operation's effect set with the region of its first effect, and the
/// textual form of the first few sets.
pub fn replay_ops(
    spec: &SvcSpec,
    trace: &SvcTrace,
) -> (Vec<TenantSlot>, Vec<ReplayOp>, Vec<String>) {
    let slots = fresh_slots(spec);
    let ops: Vec<ReplayOp> = trace.ops[trace.warmup..]
        .iter()
        .take(REPLAY_OPS)
        .map(|op| ReplayOp {
            rpl: region_of(op, &slots, spec.keys),
            effects: effects_of(op, &slots, spec.keys),
        })
        .collect();
    let texts = ops
        .iter()
        .take(TEXTS)
        .map(|op| op.effects.to_string())
        .collect();
    (slots, ops, texts)
}

/// One incarnation of a tenant slot, from creation to the drop of its cell.
#[derive(Default)]
struct Era {
    /// The driver's parked handle once the tenant is replaced; dropped —
    /// which retires the region — when the era's last request is reaped.
    parked: Option<Cell>,
    outstanding: u32,
    /// Per-key `(writes, value)` read off the cell just before it was
    /// dropped (or at the end of the run, for tenants still live).
    finals: Vec<(u64, u64)>,
}

/// Driver-side stamps of one traced request, nanoseconds since the epoch.
#[derive(Clone, Copy)]
struct TracedSpan {
    build_start: u64,
    build_end: u64,
    submit_start: u64,
    submit_end: u64,
    wave_len: u32,
}

/// How a run is observed.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Observe {
    /// End-to-end metrics only.
    Plain,
    /// The first quarter of the measured phase runs plain (the reference
    /// for `driver.trace_overhead_frac`), the rest records spans.
    Traced,
}

/// Whether requests declare their effects. `Undeclared` submits every
/// request as `pure` — the fault the self-test injects to see the oracle
/// trip.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Declare {
    Declared,
    #[cfg_attr(not(test), allow(dead_code))]
    Undeclared,
}

/// Waves recorded in a closed-loop run (one sampled request each); their
/// stamps are allocated and touched at set-up, so memory does not grow
/// with throughput.
const CLOSED_SLOTS: usize = 1 << 19;
/// How long the drain may take before the rest counts as failed.
const DRAIN_DEADLINE: Duration = Duration::from_secs(20);
/// Requests whose spans are written to the trace file.
const TRACE_FILE_REQUESTS: usize = 10_000;

struct Driver<'a> {
    spec: &'a SvcSpec,
    trace: &'a SvcTrace,
    rt: &'a Runtime,
    declare: Declare,
    shared: &'static Shared,
    slots: Vec<TenantSlot>,
    eras: Vec<Era>,
    inflight: VecDeque<(TaskFuture<()>, usize)>,
    /// The wave being built, and each member's stamp slot and tenant era.
    wave: Vec<(EffectSet, Request)>,
    wave_meta: Vec<(u32, usize)>,
    /// Requests built so far; also the next request's sequence number.
    issued: u64,
    reaped: u64,
    refused: u64,
    /// When each recorded request was due, nanoseconds since the epoch.
    due: Vec<u64>,
    /// Submit-call start minus due time per recorded request.
    lag: Vec<u32>,
    /// Recorded requests from this stamp slot on also record their spans.
    trace_from: usize,
    traced: Vec<TracedSpan>,
    /// `(start, duration)` of every `DynCell` creation and drop.
    dyn_create: Vec<(u64, u64)>,
    dyn_retire: Vec<(u64, u64)>,
}

impl Driver<'_> {
    fn op(&self, seq: u64) -> Op {
        self.trace.ops[(seq % self.trace.ops.len() as u64) as usize]
    }

    /// Replaces the tenant in `slot`; the old cell is parked until its
    /// requests are done.
    fn retire(&mut self, slot: usize) {
        let start = self.shared.now_ns();
        let fresh = TenantSlot::new(self.spec.keys, self.eras.len());
        self.dyn_create.push((start, self.shared.now_ns() - start));
        let old = std::mem::replace(&mut self.slots[slot], fresh);
        self.eras.push(Era::default());
        self.eras[old.era].parked = Some(old.cell);
        self.release_if_quiet(old.era);
    }

    /// Drops a parked cell whose requests are all done: `dyn.retire`.
    fn release_if_quiet(&mut self, era: usize) {
        let e = &mut self.eras[era];
        if e.outstanding > 0 {
            return;
        }
        if let Some(cell) = e.parked.take() {
            e.finals = cell.read().snapshot();
            let start = self.shared.now_ns();
            drop(cell);
            self.dyn_retire.push((start, self.shared.now_ns() - start));
        }
    }

    /// Looks at up to `budget` requests from the front of the in-flight
    /// queue without ever blocking: finished ones are accounted for,
    /// unfinished ones go to the back, so one parked request never keeps
    /// the finished ones behind it (and their records) alive. Returns how
    /// many had finished.
    fn reap(&mut self, budget: usize) -> usize {
        let mut finished = 0;
        for _ in 0..budget.min(self.inflight.len()) {
            let (future, era) = self.inflight.pop_front().expect("length checked");
            if future.is_done() {
                finished += 1;
                self.eras[era].outstanding -= 1;
                self.release_if_quiet(era);
            } else {
                self.inflight.push_back((future, era));
            }
        }
        self.reaped += finished as u64;
        finished
    }

    /// Adds the next request to the wave being built. `slot` is where its
    /// stamps go (or `NO_SLOT`), `due` when it should have been sent.
    fn build(&mut self, slot: u32, due: u64) {
        let seq = self.issued;
        self.issued += 1;
        if let Some(slot) = self.spec.retires_before(seq) {
            self.retire(slot);
        }
        let op = self.op(seq);
        let traced = slot != NO_SLOT && slot as usize >= self.trace_from;
        let build_start = if traced { self.shared.now_ns() } else { 0 };
        let effects = match self.declare {
            Declare::Declared => effects_of(&op, &self.slots, self.spec.keys),
            Declare::Undeclared => EffectSet::pure(),
        };
        if traced {
            let build_end = self.shared.now_ns();
            self.traced.push(TracedSpan {
                build_start,
                build_end,
                submit_start: 0,
                submit_end: 0,
                wave_len: 0,
            });
        }
        let tenant = &self.slots[usize::from(op.key) / self.spec.keys];
        if slot != NO_SLOT {
            self.due[slot as usize] = due;
        }
        let request = Request {
            shared: self.shared,
            cell: tenant.cell.clone(),
            op,
            keys_per_tenant: self.spec.keys as u16,
            seq,
            slot,
        };
        let era = tenant.era;
        self.eras[era].outstanding += 1;
        self.wave.push((effects, request));
        self.wave_meta.push((slot, era));
    }

    /// Hands the built wave to the runtime: the `runtime.submit` span.
    fn submit(&mut self) {
        let n = self.wave.len();
        if n == 0 {
            return;
        }
        let submit_start = self.shared.now_ns();
        let futures = self.rt.submit_all(
            self.wave
                .drain(..)
                .map(|(effects, request)| ("", effects, move |_: &TaskCtx<'_>| request.run())),
        );
        let submit_end = self.shared.now_ns();
        self.refused += (n - futures.len()) as u64;
        for (future, (slot, era)) in futures.into_iter().zip(self.wave_meta.drain(..)) {
            self.inflight.push_back((future, era));
            if slot == NO_SLOT {
                continue;
            }
            let slot = slot as usize;
            self.lag[slot] = u32::try_from(submit_start - self.due[slot]).unwrap_or(u32::MAX);
            if slot >= self.trace_from {
                let span = &mut self.traced[slot - self.trace_from];
                (span.submit_start, span.submit_end, span.wave_len) =
                    (submit_start, submit_end, n as u32);
            }
        }
    }

    /// Issues the warm-up requests untimed, a wave at a time while fewer
    /// than [`IN_FLIGHT_CAP`] are in flight, and waits for the last one.
    fn warm_up(&mut self) {
        while (self.issued as usize) < self.trace.warmup {
            while self.inflight.len() >= IN_FLIGHT_CAP {
                if self.reap(64) == 0 {
                    std::thread::yield_now();
                }
            }
            let n = (self.trace.warmup - self.issued as usize).min(MAX_WAVE);
            for _ in 0..n {
                self.build(NO_SLOT, 0);
            }
            self.submit();
        }
        self.drain();
    }

    /// Waits, without a blocking call, until every request in flight is
    /// done or the deadline passes.
    fn drain(&mut self) {
        let deadline = Instant::now() + DRAIN_DEADLINE;
        while !self.inflight.is_empty() && Instant::now() < deadline {
            if self.reap(usize::MAX) == 0 {
                std::thread::yield_now();
            }
        }
    }
}

/// Per tenant incarnation, in order of creation: its tenant slot and the
/// writes per key among the first `issued` requests.
fn generated_writes(spec: &SvcSpec, trace: &SvcTrace, issued: u64) -> Vec<(usize, Vec<u64>)> {
    let mut eras: Vec<(usize, Vec<u64>)> =
        (0..spec.tenants).map(|t| (t, vec![0; spec.keys])).collect();
    let mut era_of: Vec<usize> = (0..spec.tenants).collect();
    for seq in 0..issued {
        if let Some(slot) = spec.retires_before(seq) {
            era_of[slot] = eras.len();
            eras.push((slot, vec![0; spec.keys]));
        }
        let op = trace.ops[(seq % trace.ops.len() as u64) as usize];
        if op.kind == Kind::Write {
            eras[era_of[usize::from(op.key) / spec.keys]].1[usize::from(op.key) % spec.keys] += 1;
        }
    }
    eras
}

/// Keys whose final state no execution of the generated writes explains: a
/// write count that differs, or a value that is not one of the key's own.
fn final_state_mismatches(spec: &SvcSpec, expected: &[(usize, Vec<u64>)], eras: &[Era]) -> u64 {
    assert_eq!(
        expected.len(),
        eras.len(),
        "driver and generator disagree on retirements"
    );
    let mut bad = 0;
    for ((tenant, want), era) in expected.iter().zip(eras) {
        if era.finals.len() != want.len() {
            bad += want.len() as u64; // the cell was never released
            continue;
        }
        for (k, (&writes, &(counted, value))) in want.iter().zip(&era.finals).enumerate() {
            let key = (tenant * spec.keys + k) as u16;
            let value_ok = if writes == 0 {
                value == 0
            } else {
                value != 0 && plausible(value, key)
            };
            bad += u64::from(counted != writes || !value_ok);
        }
    }
    bad
}

/// `n` zeros written one by one: unlike `vec![0; n]`, whose pages the
/// kernel maps on first use, this memory is resident from set-up on.
fn touched<T: Default + Clone>(n: usize) -> Vec<T> {
    let mut v = Vec::with_capacity(n);
    v.resize(n, T::default());
    v
}

/// Requests per block of [`typical_p99`].
const P99_BLOCK: usize = 200;

/// The p99 of a typical stretch of the run: the median, over consecutive
/// blocks of [`P99_BLOCK`] requests in due order, of each block's p99.
///
/// The whole run's p99 does not repeat on a shared host — here a spinning
/// thread loses 1 to 7 % of its time to stalls of about 4 ms, so one request
/// in a hundred is late by milliseconds whatever the runtime does. The
/// typical block holds no such stall; what this leaves out (anything that
/// hits fewer than half the blocks) is reported, unbounded, as
/// `driver.latency_p99_run_us` and `driver.latency_p999_us`.
fn typical_p99(samples: &[u64]) -> u64 {
    let mut per_block: Vec<u64> = samples
        .chunks_exact(P99_BLOCK)
        .map(|block| crate::stats::quantile_of(&mut block.to_vec(), 0.99))
        .collect();
    if per_block.is_empty() {
        return crate::stats::quantile_of(&mut samples.to_vec(), 0.99);
    }
    crate::stats::quantile_of(&mut per_block, 0.5)
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// Runs one service workload. `started` is when the process started: the
/// epoch of every stamp and the origin of `setup_s`. With `setup_only` the
/// run ends where the measured phase would begin.
#[allow(clippy::too_many_arguments)]
pub fn run(
    spec: &SvcSpec,
    trace: &SvcTrace,
    seconds: f64,
    workers: usize,
    observe: Observe,
    declare: Declare,
    started: Instant,
    setup_only: bool,
) -> Outcome {
    let policy = match spec.max_queued {
        Some(max_queued) => AdmissionPolicy::BoundedBlock { max_queued },
        None => AdmissionPolicy::Unbounded,
    };
    let rt = Runtime::builder()
        .threads(workers)
        .admission_policy(policy)
        .build();
    let wave_size = match spec.looping {
        Loop::Closed { wave } => wave,
        Loop::Open { .. } => 0,
    };
    let closed = wave_size > 0;
    let n_slots = if closed {
        CLOSED_SLOTS
    } else {
        trace.ops.len() - trace.warmup
    };
    // Leaked, not counted: a body the drain deadline gave up on may still
    // run, and a reference count shared by driver and workers would put a
    // contended cache line on every request's path.
    let shared: &'static Shared = Box::leak(Box::new(Shared {
        epoch: started,
        stamps: (0..n_slots)
            .map(|_| Stamp {
                start: AtomicU64::new(0),
                end: AtomicU64::new(0),
            })
            .collect(),
        overlaps: AtomicU64::new(0),
        bad_reads: AtomicU64::new(0),
    }));
    let mut d = Driver {
        spec,
        trace,
        rt: &rt,
        declare,
        shared,
        slots: fresh_slots(spec),
        eras: (0..spec.tenants).map(|_| Era::default()).collect(),
        inflight: VecDeque::new(),
        wave: Vec::new(),
        wave_meta: Vec::new(),
        issued: 0,
        reaped: 0,
        refused: 0,
        due: touched(n_slots),
        lag: touched(n_slots),
        trace_from: usize::MAX,
        traced: Vec::new(),
        dyn_create: Vec::new(),
        dyn_retire: Vec::new(),
    };
    d.warm_up();
    let warm = d.issued;
    assert_eq!(d.reaped, warm, "warm-up did not drain");
    d.dyn_create.clear();
    d.dyn_retire.clear();

    let setup_s = started.elapsed().as_secs_f64();
    if setup_only {
        return Outcome {
            setup_s,
            ..Outcome::default()
        };
    }

    // ---- measured phase -------------------------------------------------
    let arena_before = arena::len();
    let m0 = shared.now_ns();
    let phase_ns = (seconds * 1e9) as u64;
    // In a traced run spans start after a quarter of the phase.
    let split_at = if observe == Observe::Traced {
        m0 + phase_ns / 4
    } else {
        u64::MAX
    };
    let mut split = None; // (time, requests issued) when tracing began
    let mut begin_tracing = |d: &mut Driver<'_>, now: u64, next_slot: usize| {
        if now >= split_at && split.is_none() {
            d.trace_from = next_slot;
            d.traced.reserve(n_slots.saturating_sub(next_slot));
            split = Some((now, d.issued));
        }
    };
    let mut waves = 0usize;
    // `(time, requests done)` at the end of each twentieth of a closed-loop
    // phase.
    let mut slices = vec![(m0, d.reaped)];
    if closed {
        loop {
            let now = shared.now_ns();
            if now - m0 >= phase_ns {
                break;
            }
            if now - m0 >= slices.len() as u64 * phase_ns / 20 {
                slices.push((now, d.reaped));
            }
            begin_tracing(&mut d, now, waves);
            // One request per wave is recorded, its position rotating so
            // every place in a wave is sampled alike.
            let sampled = if waves < CLOSED_SLOTS {
                waves % wave_size
            } else {
                usize::MAX
            };
            for i in 0..wave_size {
                d.build(if i == sampled { waves as u32 } else { NO_SLOT }, now);
            }
            d.submit();
            d.reap(usize::MAX);
            waves += 1;
        }
    } else {
        let total = trace.ops.len() as u64;
        while d.issued < total {
            let now = shared.now_ns();
            if m0 + d.op(d.issued).due_ns > now || d.inflight.len() >= IN_FLIGHT_CAP {
                if d.reap(16) == 0 {
                    std::hint::spin_loop();
                }
                continue;
            }
            let next_slot = (d.issued - warm) as usize;
            begin_tracing(&mut d, now, next_slot);
            while d.issued < total && d.wave.len() < MAX_WAVE && m0 + d.op(d.issued).due_ns <= now {
                let due = m0 + d.op(d.issued).due_ns;
                d.build((d.issued - warm) as u32, due);
            }
            let n = d.wave.len();
            d.submit();
            d.reap(n + 8);
        }
    }
    let drain_start = shared.now_ns();
    d.drain();
    let end = shared.now_ns();
    let arena_growth = arena::len() - arena_before;
    let measured_s = (end - m0) as f64 / 1e9;

    // ---- correctness ----------------------------------------------------
    let attempted = d.issued - warm;
    let recorded = if closed {
        waves.min(CLOSED_SLOTS)
    } else {
        n_slots
    };
    let unstamped = (0..recorded)
        .filter(|&s| shared.stamps[s].end.load(Relaxed) == 0)
        .count() as u64;
    let not_done = d.inflight.len() as u64;
    // Tenants still live (or parked behind unfinished requests) are read now.
    for slot in &d.slots {
        d.eras[slot.era].finals = slot.cell.read().snapshot();
    }
    let failures = vec![
        ("refused", d.refused),
        // A body that panicked leaves a finished future and no stamp.
        ("incomplete", not_done.max(unstamped)),
        ("isolation_overlaps", shared.overlaps.load(Relaxed)),
        ("implausible_reads", shared.bad_reads.load(Relaxed)),
        (
            "final_state_keys",
            final_state_mismatches(spec, &generated_writes(spec, trace, d.issued), &d.eras),
        ),
    ];

    // ---- end-to-end metrics ---------------------------------------------
    let mut sched_delay = Vec::with_capacity(recorded);
    let mut latency = Vec::with_capacity(recorded);
    for s in 0..recorded {
        let (start, done) = (
            shared.stamps[s].start.load(Relaxed),
            shared.stamps[s].end.load(Relaxed),
        );
        if done != 0 {
            sched_delay.push(start - d.due[s]);
            latency.push(done - d.due[s]);
        }
    }
    let (sched_delay_p99, latency_p99) = (typical_p99(&sched_delay), typical_p99(&latency));
    sched_delay.sort_unstable();
    latency.sort_unstable();
    let mut lag: Vec<u64> = d.lag[..recorded].iter().map(|&l| u64::from(l)).collect();
    lag.sort_unstable();
    let completed = d.reaped - warm;
    let throughput = if closed {
        // The median slice: a stall of the host costs one slice, not a
        // share of the whole run.
        let rates: Vec<f64> = slices
            .windows(2)
            .map(|w| (w[1].1 - w[0].1) as f64 / ((w[1].0 - w[0].0) as f64 / 1e9))
            .collect();
        crate::stats::median(&rates)
    } else {
        completed as f64 / measured_s
    };
    let mut metrics = vec![("throughput_ops_s", throughput)];
    if !latency.is_empty() {
        metrics.extend([
            ("sched_delay_p50_us", us(quantile(&sched_delay, 0.5))),
            ("sched_delay_p99_us", us(sched_delay_p99)),
            ("latency_p50_us", us(quantile(&latency, 0.5))),
            ("latency_p99_us", us(latency_p99)),
            ("driver.latency_p99_run_us", us(quantile(&latency, 0.99))),
            ("driver.latency_p999_us", us(quantile(&latency, 0.999))),
            ("driver.lag_p99_us", us(quantile(&lag, 0.99))),
            (
                "driver.late_frac",
                lag.iter().filter(|&&l| l > 1_000_000).count() as f64 / lag.len() as f64,
            ),
        ]);
    }
    metrics.push(("effects.arena_growth_ids", arena_growth as f64));
    metrics.push(("runtime.drain_ms", (end - drain_start) as f64 / 1e6));
    if spec.retire_every.is_some() {
        metrics.push(("driver.retirements", d.dyn_retire.len() as f64));
        for (spans, p50, p99) in [
            (&d.dyn_create, "dyn.create_p50_ns", "dyn.create_p99_ns"),
            (&d.dyn_retire, "dyn.retire_p50_ns", "dyn.retire_p99_ns"),
        ] {
            let mut ns: Vec<u64> = spans.iter().map(|&(_, dur)| dur).collect();
            if !ns.is_empty() {
                ns.sort_unstable();
                metrics.push((p50, quantile(&ns, 0.5) as f64));
                metrics.push((p99, quantile(&ns, 0.99) as f64));
            }
        }
    }

    // ---- spans ----------------------------------------------------------
    let mut trace_json = None;
    if let Some((split_ns, split_issued)) = split {
        let plain_rate = (split_issued - warm) as f64 / (split_ns - m0) as f64;
        let traced_rate = (d.issued - split_issued) as f64 / (end - split_ns) as f64;
        metrics.push(("driver.trace_overhead_frac", traced_rate / plain_rate - 1.0));

        let (mut build, mut submit, mut wait, mut body, mut total) =
            (vec![], vec![], vec![], vec![], vec![]);
        let mut max_err = 0.0f64;
        let mut file = TraceFile::new(spec.name);
        let mut written = 0;
        for (i, span) in d.traced.iter().enumerate() {
            let slot = d.trace_from + i;
            let (start, done) = (
                shared.stamps[slot].start.load(Relaxed),
                shared.stamps[slot].end.load(Relaxed),
            );
            if done == 0 || span.wave_len == 0 {
                continue;
            }
            let due = d.due[slot];
            // The request's blocking chain, tiled without overlap: a body
            // may start before `submit_all` returns to the driver.
            let c_build = span.build_end - span.build_start;
            let c_lag = span.submit_start - due - c_build;
            let c_submit = span.submit_end.min(start).saturating_sub(span.submit_start);
            let c_wait = start.saturating_sub(span.submit_end);
            let c_body = done - start;
            let whole = done - due;
            let sum = c_lag + c_build + c_submit + c_wait + c_body;
            max_err = max_err.max((sum as f64 - whole as f64).abs() / whole as f64);
            build.push(c_build);
            submit.push((span.submit_end - span.submit_start) / u64::from(span.wave_len));
            wait.push(c_wait);
            body.push(c_body);
            total.push(whole);
            if written < TRACE_FILE_REQUESTS {
                let id = Some(warm + slot as u64);
                let parent = Some("request");
                file.span(id, "request", due, done, None);
                file.span(id, "driver.lag", due, due + c_lag, parent);
                file.span(
                    id,
                    "effects.build",
                    span.build_start,
                    span.build_end,
                    parent,
                );
                file.span(
                    id,
                    "runtime.submit",
                    span.submit_start,
                    span.submit_start + c_submit,
                    parent,
                );
                file.span(
                    id,
                    "runtime.wait_enable",
                    span.submit_start + c_submit,
                    start,
                    parent,
                );
                file.span(id, "apps.body", start, done, parent);
                written += 1;
            }
        }
        for (name, spans) in [("dyn.create", &d.dyn_create), ("dyn.retire", &d.dyn_retire)] {
            for &(from, dur) in spans.iter().take(TRACE_FILE_REQUESTS) {
                file.span(None, name, from, from + dur, None);
            }
        }
        file.span(None, "runtime.drain", drain_start, end, None);
        trace_json = Some(file.finish());

        assert!(
            max_err <= 0.02,
            "a request's spans miss its due-to-done time by {max_err}"
        );
        if !total.is_empty() {
            for v in [&mut build, &mut submit, &mut wait, &mut body, &mut total] {
                v.sort_unstable();
            }
            let p50_body = quantile(&body, 0.5) as f64;
            metrics.extend([
                ("effects.build_ns", quantile(&build, 0.5) as f64),
                ("runtime.submit_ns", quantile(&submit, 0.5) as f64),
                ("runtime.wait_enable_p50_ns", quantile(&wait, 0.5) as f64),
                ("runtime.wait_enable_p99_ns", quantile(&wait, 0.99) as f64),
                ("apps.body_ns", p50_body),
                ("apps.body_share", p50_body / quantile(&total, 0.5) as f64),
                ("driver.span_sum_max_err", max_err),
            ]);
        }
    }

    Outcome {
        setup_s,
        measured_s,
        attempted,
        failures,
        samples: latency.len(),
        metrics,
        trace_json,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate_svc, SVC_CHURN, SVC_CONTENDED};

    #[test]
    fn flags_see_every_forbidden_overlap_and_no_allowed_one() {
        let flag = AtomicU32::new(0);
        assert!(!enter_read(&flag));
        assert!(!enter_read(&flag), "readers share a key");
        assert!(enter_write(&flag), "a writer found readers inside");
        exit_write(&flag);
        exit_read(&flag);
        exit_read(&flag);
        assert!(!enter_write(&flag));
        assert!(enter_read(&flag), "a reader found a writer inside");
        exit_read(&flag);
        assert!(enter_write(&flag), "a second writer found the first");
        exit_write(&flag);
        exit_write(&flag);
        assert_eq!(flag.load(SeqCst), 0);
    }

    #[test]
    fn reads_accept_only_values_written_to_their_own_key() {
        assert!(plausible(0, 7));
        assert!(plausible(written_value(2, 7), 7));
        assert!(!plausible(written_value(2, 8), 7), "another key's value");
    }

    #[test]
    fn final_state_check_fails_on_a_lost_write_and_on_a_foreign_value() {
        let spec = SVC_CHURN;
        let trace = generate_svc(&spec, 9, 0.05);
        let expected = generated_writes(&spec, &trace, trace.ops.len() as u64);
        assert!(expected.len() > spec.tenants, "the trace retires tenants");
        let faithful = || -> Vec<Era> {
            let final_of = |tenant: usize, k: usize, writes: u64| match writes {
                0 => (0, 0),
                n => (n, written_value(1, (tenant * spec.keys + k) as u16)),
            };
            expected
                .iter()
                .map(|(tenant, writes)| Era {
                    finals: writes
                        .iter()
                        .enumerate()
                        .map(|(k, &n)| final_of(*tenant, k, n))
                        .collect(),
                    ..Era::default()
                })
                .collect()
        };
        assert_eq!(final_state_mismatches(&spec, &expected, &faithful()), 0);
        let (era, key) = expected
            .iter()
            .enumerate()
            .find_map(|(e, (_, keys))| keys.iter().position(|&n| n > 0).map(|k| (e, k)))
            .expect("the trace writes something");
        let mut lost = faithful();
        lost[era].finals[key].0 -= 1;
        assert_eq!(final_state_mismatches(&spec, &expected, &lost), 1);
        let mut foreign = faithful();
        foreign[era].finals[key].1 += 1; // tagged with the next key's id
        assert_eq!(final_state_mismatches(&spec, &expected, &foreign), 1);
    }

    #[test]
    fn a_short_run_of_each_shape_is_correct() {
        for spec in [SVC_CONTENDED, SVC_CHURN] {
            let trace = generate_svc(&spec, 21, 0.3);
            let out = run(
                &spec,
                &trace,
                0.3,
                2,
                Observe::Traced,
                Declare::Declared,
                Instant::now(),
                false,
            );
            assert_eq!(out.failed(), 0, "{}: {:?}", spec.name, out.failures);
            assert!(out.attempted > 1_000 && out.samples as u64 == out.attempted);
            let err = out
                .metrics
                .iter()
                .find(|(n, _)| *n == "driver.span_sum_max_err")
                .expect("traced")
                .1;
            assert!(err <= 0.02, "span sum off by {err}");
        }
    }

    /// The injected fault: the same bodies, submitted as `pure`, so the
    /// scheduler serialises nothing. The oracle must notice — through the
    /// isolation flags, an implausible read or the final-state check.
    #[test]
    fn oracle_trips_when_effects_are_not_declared() {
        for round in 0..20 {
            let trace = generate_svc(&SVC_CONTENDED, 100 + round, 0.5);
            let out = run(
                &SVC_CONTENDED,
                &trace,
                0.5,
                4,
                Observe::Plain,
                Declare::Undeclared,
                Instant::now(),
                false,
            );
            if out.failed() > 0 {
                return;
            }
        }
        panic!("20 undeclared runs on 4 workers and the oracle never tripped");
    }
}
