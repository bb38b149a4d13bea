//! An exhaustive, explicit-state model of the idle protocol ("Idle protocol"
//! in the crate docs): breadth-first search over hashed states, through every
//! interleaving of a worker, a helper in [`ThreadPool::help_until`] and an
//! outside submitter, with a store buffer per thread.
//!
//! **What is modelled.** Each thread runs the pool's own control flow, one
//! shared-memory action per step: `run_until` with `find_job`, `run_job`,
//! `wake`, `linger` and `park` for the worker (its `done()` is the shutdown
//! flag) and for the helper (its `done()` is the flag job 0 sets); the
//! submitter runs a script of `submit_all` batches, then optionally
//! `wait_idle` (a third `run_until`, `done()` = `pending == 0`) and the
//! pool's `Drop` (raise shutdown, wake, join the worker). The state holds
//! `queued`, `pending`, `sleepers`, `lingering`, the shutdown flag, job 0's
//! flag, the injector's jobs, who holds `sleep_lock`, the condvar's wait set
//! (the threads at [`Pc::Waiting`]) and each thread's store buffer. Every
//! step ([`Step`]) names the line of `lib.rs` it stands for; a test checks
//! that each named line is still there, in the function it names.
//!
//! **Memory.** A store enters its thread's FIFO buffer and a flush step,
//! which may come at any time, moves the oldest one to memory; a load reads
//! its thread's newest buffered store to the location, else memory. Three
//! strengths ([`Memory`]): no buffers at all; x86-TSO, where a `lock`ed RMW
//! (every `fetch_add`, `swap`, a mutex operation) drains the buffer; and
//! "fences only", where only `fence(SeqCst)` and releasing a lock (the
//! condvar wait and the injector's lock included) drain it, and an RMW's
//! write is buffered like a store, with no other thread's write to its
//! location reaching memory first, so it still follows the value it read.
//! The protocol's
//! argument names its two fences and the lock, nothing else, and the third
//! strength holds it to that: on x86 the `lock`ed RMW just before each fence
//! (`pending.fetch_sub`, `sleepers.fetch_add`) already drains the buffer, so
//! a model that credits it cannot tell a missing fence from a present one.
//!
//! **What is checked**, in every reachable state:
//! * a lost wakeup: no state in which every live thread waits (on the
//!   condvar, or the submitter in `join`) while a job is queued or a
//!   waiter's `done()` holds. The wait is untimed, so such a state is a
//!   hang. Spurious wakeups are transitions from every waiting state, but
//!   the check does not count on one: a state that only a spurious wakeup
//!   could leave is a hang;
//! * at most one thread lingers, and the linger slot is free once every
//!   live thread waits;
//! * `queued` never falls below zero (it counts jobs a thread can find);
//! * when every thread has finished, every submitted job has run: shutdown
//!   joined the worker, and nothing was left behind.
//!
//! **The bound.** One worker, one helper, one submitter; at most two jobs,
//! in one batch or two single submits ([`SCENARIOS`]); a linger loop that may
//! poll any number of times (its states repeat, and the search hashes them).
//! Not checked: progress inside a loop that never stops polling (fairness),
//! jobs that submit jobs (a worker's own deque), more threads.
//!
//! **Mutants.** Each of [`Mutant`]'s protocol breaks must fail with a trace.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::hash::{BuildHasherDefault, Hasher};

/// The pool's source, whose lines the model's steps name.
const SOURCE: &str = include_str!("lib.rs");

const QUEUED: usize = 0;
const PENDING: usize = 1;
const SLEEPERS: usize = 2;
const LINGERING: usize = 3;
const SHUTDOWN: usize = 4;
/// Set by job 0's body: what the helper waits for.
const FLAG: usize = 5;
const VARS: usize = 6;
const VAR_NAMES: [&str; VARS] = [
    "queued",
    "pending",
    "sleepers",
    "lingering",
    "shutdown",
    "flag",
];

const WORKER: usize = 0;
const HELPER: usize = 1;
const SUBMITTER: usize = 2;
const THREADS: usize = 3;
const THREAD_NAMES: [&str; THREADS] = ["worker", "helper", "submitter"];
/// `sleep_lock` is free.
const NOBODY: u8 = THREADS as u8;

/// Longest store buffer any thread reaches (checked: a longer one panics).
const BUFFER: usize = 4;
/// Most jobs in one scenario.
const JOBS: usize = 2;

/// How strongly stores are ordered before later loads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Memory {
    /// Sequential consistency: no store buffers.
    SeqCst,
    /// x86-TSO: `lock`ed RMWs and mutex operations drain the buffer.
    X86,
    /// Only `fence(SeqCst)`, unlocking and the condvar wait drain it.
    FencesOnly,
}

/// One deliberate break of the protocol.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Mutant {
    /// `park` re-checks `queued` and `done()` before registering in
    /// `sleepers` (the order before PR 14).
    RecheckBeforeRegister,
    /// `park` without its fence.
    NoParkFence,
    /// `wake` without its fence.
    NoWakeFence,
    /// `wake` notifies without taking `sleep_lock`.
    NotifyOutsideLock,
    /// `submit_all` raises `queued` after its push.
    QueuedAfterPush,
}

/// What the submitter does, in order.
#[derive(Clone, Copy, Debug)]
enum Op {
    /// `submit_all` of these jobs (job 0 sets the helper's flag).
    Submit(&'static [u8]),
    /// `wait_idle`.
    WaitIdle,
    /// `Drop` up to its join: raise shutdown and wake.
    Drop,
    /// `Drop`'s join of the worker.
    Join,
}

/// The bound the model is explored to: every scenario, against each memory.
/// Job 0 sets the helper's flag; the submitter is an outside thread, so its
/// jobs go to the injector. Without `wait_idle`, `Drop` may leave jobs
/// unrun, as the pool's does; with one job, the helper runs it if the
/// worker has gone.
const SCENARIOS: &[(&str, &[Op])] = &[
    ("one job; the submitter leaves", &[Op::Submit(&[0])]),
    (
        "a batch of two; the submitter leaves",
        &[Op::Submit(&[0, 1])],
    ),
    (
        "two single jobs; the submitter leaves",
        &[Op::Submit(&[1]), Op::Submit(&[0])],
    ),
    ("one job; drop", &[Op::Submit(&[0]), Op::Drop, Op::Join]),
    (
        "one job; wait_idle; drop",
        &[Op::Submit(&[0]), Op::WaitIdle, Op::Drop, Op::Join],
    ),
];

/// Where a thread is: the step it takes next.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
enum Pc {
    Done,
    Probe,
    Take,
    Run,
    Complete,
    WakeFence,
    WakeLoad,
    WakeLock,
    Notify,
    WakeUnlock,
    LingerSwap,
    LingerQueued,
    LingerDone,
    LingerEnd,
    ParkLock,
    Register,
    ParkFence,
    ParkQueued,
    ParkDone,
    Wait,
    /// In the condvar's wait set.
    Waiting,
    /// Woken (or spuriously awake), taking `sleep_lock` back.
    Reacquire,
    Unregister,
    ParkUnlock,
    SubmitPending,
    SubmitQueued,
    SubmitPush,
    Shutdown,
    Join,
    Finished,
}

/// Every [`Pc`], in declaration order: what a packed code stands for.
const PCS: [Pc; 30] = [
    Pc::Done,
    Pc::Probe,
    Pc::Take,
    Pc::Run,
    Pc::Complete,
    Pc::WakeFence,
    Pc::WakeLoad,
    Pc::WakeLock,
    Pc::Notify,
    Pc::WakeUnlock,
    Pc::LingerSwap,
    Pc::LingerQueued,
    Pc::LingerDone,
    Pc::LingerEnd,
    Pc::ParkLock,
    Pc::Register,
    Pc::ParkFence,
    Pc::ParkQueued,
    Pc::ParkDone,
    Pc::Wait,
    Pc::Waiting,
    Pc::Reacquire,
    Pc::Unregister,
    Pc::ParkUnlock,
    Pc::SubmitPending,
    Pc::SubmitQueued,
    Pc::SubmitPush,
    Pc::Shutdown,
    Pc::Join,
    Pc::Finished,
];

#[derive(Clone, Copy)]
struct Thread {
    pc: Pc,
    /// `run_until`'s `was_busy`.
    busy: bool,
    /// What `linger` returns.
    found: bool,
    /// The job this thread took.
    job: u8,
    /// The submitter's place in its script.
    op: u8,
    buf: [Write; BUFFER],
    len: u8,
}

/// A store waiting in a thread's buffer.
#[derive(Clone, Copy)]
struct Write {
    var: u8,
    value: i8,
    /// The write of a read-modify-write: until it reaches memory, no other
    /// thread's write to `var` may.
    rmw: bool,
}

const NO_WRITE: Write = Write {
    var: 0,
    value: 0,
    rmw: false,
};

#[derive(Clone)]
struct State {
    mem: [i8; VARS],
    /// The injector, oldest first.
    queue: [u8; JOBS],
    queued_jobs: u8,
    /// Who holds `sleep_lock`.
    owner: u8,
    /// Jobs that have run (bit per job): the model's bookkeeping, no
    /// thread reads it.
    ran: u8,
    threads: [Thread; THREADS],
}

/// A step of the pool's code, or of the machine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Step {
    Done,
    Probe,
    Take,
    Run,
    Complete,
    WakeFence,
    WakeLoad,
    WakeLock,
    NotifyAll,
    NotifyOne,
    WakeUnlock,
    LingerSwap,
    LingerQueued,
    LingerDone,
    LingerTimeout,
    LingerYield,
    LingerEnd,
    ParkLock,
    Register,
    ParkFence,
    ParkQueued,
    ParkDone,
    Wait,
    Reacquire,
    Unregister,
    ParkUnlock,
    SubmitPending,
    SubmitQueued,
    SubmitPush,
    Shutdown,
    Join,
    /// The oldest buffered store reaches memory.
    Flush,
    /// A waiter leaves the wait set unnotified.
    Spurious,
}

/// Every step of the code: the function it is in and its line there.
#[rustfmt::skip]
const CODE: &[(Step, &str, &str)] = &[
    (Step::Done, "run_until", "while !done() {"),
    (Step::Probe, "find_job", "let job = self.probe_queues()?;"),
    (Step::Take, "find_job", "self.gauges.queued.fetch_sub(1, Ordering::SeqCst);"),
    (Step::Run, "run_job", "job.run();"),
    (Step::Complete, "run_job", "self.gauges.pending.fetch_sub(1, Ordering::Release);"),
    (Step::WakeFence, "wake", "fence(Ordering::SeqCst);"),
    (Step::WakeLoad, "wake", "if self.gauges.sleepers.load(Ordering::SeqCst) == 0 {"),
    (Step::WakeLock, "wake", "let _guard = self.sleep_lock.lock();"),
    (Step::NotifyAll, "wake", "self.wakeup.notify_all();"),
    (Step::NotifyOne, "wake", "self.wakeup.notify_one();"),
    // The guard drops at the end of `wake`.
    (Step::WakeUnlock, "wake", "let _guard = self.sleep_lock.lock();"),
    (Step::LingerSwap, "linger", "if self.lingering.swap(true, Ordering::Acquire) {"),
    (Step::LingerQueued, "linger", "if self.gauges.queued.load(Ordering::Acquire) > 0 || done() {"),
    (Step::LingerDone, "linger", "if self.gauges.queued.load(Ordering::Acquire) > 0 || done() {"),
    (Step::LingerTimeout, "linger", "if start.elapsed() >= LINGER {"),
    (Step::LingerYield, "linger", "std::thread::yield_now();"),
    (Step::LingerEnd, "linger", "self.lingering.store(false, Ordering::Release);"),
    (Step::ParkLock, "park", "let mut guard = self.sleep_lock.lock();"),
    (Step::Register, "park", "self.gauges.sleepers.fetch_add(1, Ordering::SeqCst);"),
    (Step::ParkFence, "park", "fence(Ordering::SeqCst);"),
    (Step::ParkQueued, "park", "if self.gauges.queued.load(Ordering::SeqCst) == 0 && !done() {"),
    (Step::ParkDone, "park", "if self.gauges.queued.load(Ordering::SeqCst) == 0 && !done() {"),
    (Step::Wait, "park", "self.wakeup.wait(&mut guard);"),
    (Step::Reacquire, "park", "self.wakeup.wait(&mut guard);"),
    (Step::Unregister, "park", "self.gauges.sleepers.fetch_sub(1, Ordering::SeqCst);"),
    // The guard drops at the end of `park`.
    (Step::ParkUnlock, "park", "let mut guard = self.sleep_lock.lock();"),
    (Step::SubmitPending, "submit_all", "gauges.pending.fetch_add(n, Ordering::Acquire);"),
    (Step::SubmitQueued, "submit_all", "gauges.queued.fetch_add(n, Ordering::SeqCst);"),
    (Step::SubmitPush, "submit_all", "self.shared.injector.push_all(jobs);"),
    (Step::Shutdown, "drop", "self.shared.shutdown.store(true, Ordering::SeqCst);"),
    (Step::Join, "drop", "let _ = handle.join();"),
];

/// The body of `function` in the non-test part of `lib.rs`, and where it
/// starts.
fn function_body(function: &str) -> Option<(usize, &'static str)> {
    let code = &SOURCE[..SOURCE.find("#[cfg(test)]\nmod ").unwrap_or(SOURCE.len())];
    let header = format!("fn {function}");
    let start = code
        .match_indices(&header)
        .map(|(at, _)| at + header.len())
        .find(|&at| code[at..].starts_with(['(', '<']))?;
    let rest = &code[start..];
    let end = ["\n    fn ", "\n    pub fn ", "\n    #[", "\n    ///", "\n}"]
        .iter()
        .filter_map(|next| rest.find(next))
        .min()
        .unwrap_or(rest.len());
    Some((start, &rest[..end]))
}

/// `lib.rs:line` and the code of a step, if it is a step of the code.
fn code_of(step: Step) -> Option<(usize, &'static str)> {
    let &(_, function, line) = CODE.iter().find(|(s, ..)| *s == step)?;
    let (offset, body) = function_body(function)?;
    let at = offset + body.find(line)?;
    Some((SOURCE[..at].lines().count() + 1, line))
}

#[derive(Clone, Copy)]
struct Label {
    thread: u8,
    step: Step,
    /// What the step read or chose (a value, a flushed location, a waiter).
    arg: i8,
}

/// One scenario against one memory, with or without a mutant.
struct Model {
    memory: Memory,
    mutant: Option<Mutant>,
    script: &'static [Op],
}

/// What a full exploration found.
#[derive(Debug, Default)]
struct Explored {
    states: usize,
    transitions: usize,
    /// States in which every live thread waits with nothing to do, or
    /// every thread has finished.
    ends: usize,
    /// Longest shortest path from the initial state.
    depth: usize,
}

impl Model {
    fn is(&self, mutant: Mutant) -> bool {
        self.mutant == Some(mutant)
    }

    fn initial(&self) -> State {
        let idle = Thread {
            pc: Pc::Done,
            busy: true,
            found: false,
            job: 0,
            op: 0,
            buf: [NO_WRITE; BUFFER],
            len: 0,
        };
        let mut state = State {
            mem: [0; VARS],
            queue: [0; JOBS],
            queued_jobs: 0,
            owner: NOBODY,
            ran: 0,
            threads: [idle; THREADS],
        };
        self.begin_op(&mut state.threads[SUBMITTER]);
        state
    }

    fn submitted(&self) -> u8 {
        self.script.iter().fold(0, |mask, op| match op {
            Op::Submit(jobs) => jobs.iter().fold(mask, |m, j| m | 1 << j),
            _ => mask,
        })
    }

    // ---- memory ----

    fn load(&self, s: &State, t: usize, var: usize) -> i8 {
        let th = &s.threads[t];
        th.buf[..th.len as usize]
            .iter()
            .rev()
            .find(|w| w.var as usize == var)
            .map_or(s.mem[var], |w| w.value)
    }

    fn store(&self, s: &mut State, t: usize, var: usize, value: i8) {
        self.buffer(
            s,
            t,
            Write {
                var: var as u8,
                value,
                rmw: false,
            },
        );
    }

    fn buffer(&self, s: &mut State, t: usize, write: Write) {
        if self.memory == Memory::SeqCst {
            s.mem[write.var as usize] = write.value;
            return;
        }
        let th = &mut s.threads[t];
        assert!(
            (th.len as usize) < BUFFER,
            "a store buffer outgrew the model's bound"
        );
        th.buf[th.len as usize] = write;
        th.len += 1;
    }

    /// Whether a thread other than `t` has a write to `var` in its buffer
    /// (an RMW's write, if `rmw`).
    fn buffered_elsewhere(s: &State, t: usize, var: u8, rmw: bool) -> bool {
        (0..THREADS).filter(|&u| u != t).any(|u| {
            let th = &s.threads[u];
            th.buf[..th.len as usize]
                .iter()
                .any(|w| w.var == var && (w.rmw || !rmw))
        })
    }

    /// Whether every write in `t`'s buffer may reach memory now: none is
    /// held back behind another thread's buffered RMW write.
    fn can_drain(s: &State, t: usize) -> bool {
        let th = &s.threads[t];
        th.buf[..th.len as usize]
            .iter()
            .all(|w| w.rmw || !Self::buffered_elsewhere(s, t, w.var, true))
    }

    fn drain(&self, s: &mut State, t: usize) {
        assert!(
            Self::can_drain(s, t),
            "a drain overtook another thread's RMW"
        );
        let State { mem, threads, .. } = s;
        let th = &mut threads[t];
        for w in &th.buf[..th.len as usize] {
            mem[w.var as usize] = w.value;
        }
        th.buf = [NO_WRITE; BUFFER];
        th.len = 0;
    }

    /// A read-modify-write of `var`: the old value, or `None` while it
    /// must wait for another thread's buffered write to `var`. With fences
    /// only, its write is buffered, and until it reaches memory no other
    /// thread's write to `var` does: the write follows the value it read.
    fn rmw(&self, s: &mut State, t: usize, var: usize, f: impl FnOnce(i8) -> i8) -> Option<i8> {
        match self.memory {
            Memory::SeqCst | Memory::X86 => {
                self.drain(s, t);
                let old = s.mem[var];
                s.mem[var] = f(old);
                Some(old)
            }
            Memory::FencesOnly => {
                if Self::buffered_elsewhere(s, t, var as u8, false) {
                    return None;
                }
                let old = self.load(s, t, var);
                self.buffer(
                    s,
                    t,
                    Write {
                        var: var as u8,
                        value: f(old),
                        rmw: true,
                    },
                );
                Some(old)
            }
        }
    }

    fn lock(&self, s: &mut State, t: usize) -> bool {
        if s.owner != NOBODY {
            return false;
        }
        if self.memory == Memory::X86 {
            self.drain(s, t);
        }
        s.owner = t as u8;
        true
    }

    fn unlock(&self, s: &mut State, t: usize) {
        self.drain(s, t);
        s.owner = NOBODY;
    }

    /// `done()` of thread `t` inside `run_until`.
    fn done(&self, s: &State, t: usize) -> bool {
        match t {
            WORKER => self.load(s, t, SHUTDOWN) != 0,
            HELPER => self.load(s, t, FLAG) != 0,
            _ => self.load(s, t, PENDING) == 0,
        }
    }

    // ---- control flow ----

    fn begin_op(&self, th: &mut Thread) {
        th.pc = match self.script.get(th.op as usize) {
            None => Pc::Finished,
            Some(Op::Submit(_)) => Pc::SubmitPending,
            Some(Op::WaitIdle) => {
                th.busy = true;
                Pc::Done
            }
            Some(Op::Drop) => Pc::Shutdown,
            Some(Op::Join) => Pc::Join,
        };
    }

    fn next_op(&self, th: &mut Thread) {
        th.op += 1;
        self.begin_op(th);
    }

    fn in_run_until(&self, t: usize, th: &Thread) -> bool {
        t != SUBMITTER || matches!(self.script.get(th.op as usize), Some(Op::WaitIdle))
    }

    fn begin_wake(&self, th: &mut Thread) {
        th.pc = if self.is(Mutant::NoWakeFence) {
            Pc::WakeLoad
        } else {
            Pc::WakeFence
        };
    }

    /// Whether the wake in progress notifies every sleeper: it does after a
    /// job and at shutdown, and a submit does for a batch of more than one.
    fn wakes_all(&self, t: usize, th: &Thread) -> bool {
        match self.script.get(th.op as usize) {
            Some(Op::Submit(jobs)) if t == SUBMITTER => jobs.len() > 1,
            _ => true,
        }
    }

    /// After a wake: back to `run_until` after a job, else the script.
    fn end_wake(&self, t: usize, th: &mut Thread) {
        if self.in_run_until(t, th) {
            th.busy = true;
            th.pc = Pc::Done;
        } else {
            self.next_op(th);
        }
    }

    /// Where `park` goes once it has decided not to wait.
    fn skip_wait(&self) -> Pc {
        if self.is(Mutant::RecheckBeforeRegister) {
            Pc::ParkUnlock
        } else {
            Pc::Unregister
        }
    }

    /// Thread `t`'s next step of code: none while it is blocked (on
    /// `sleep_lock`, a join, or an RMW waiting for another buffer), several
    /// where the code may go more than one way.
    fn step(&self, s: &State, t: usize, out: &mut Vec<(State, Label)>) {
        let th = s.threads[t];
        let drains = matches!(
            th.pc,
            Pc::Probe
                | Pc::WakeFence
                | Pc::ParkFence
                | Pc::Wait
                | Pc::WakeUnlock
                | Pc::ParkUnlock
                | Pc::SubmitPush
        );
        if drains && !Self::can_drain(s, t) {
            return;
        }
        let mut n = s.clone();
        let mut arg = 0;
        let step = match th.pc {
            Pc::Done => {
                let done = self.done(s, t);
                arg = done as i8;
                if done {
                    if t == SUBMITTER {
                        self.next_op(&mut n.threads[t]);
                    } else {
                        n.threads[t].pc = Pc::Finished;
                    }
                } else {
                    n.threads[t].pc = Pc::Probe;
                }
                Step::Done
            }
            Pc::Probe => {
                // The injector's lock, around the pop.
                self.drain(&mut n, t);
                let me = &mut n.threads[t];
                if n.queued_jobs > 0 {
                    me.job = n.queue[0];
                    arg = me.job as i8;
                    n.queue = [n.queue[1], 0];
                    n.queued_jobs -= 1;
                    me.pc = Pc::Take;
                } else {
                    arg = -1;
                    me.pc = if me.busy {
                        Pc::LingerSwap
                    } else {
                        Pc::ParkLock
                    };
                }
                Step::Probe
            }
            Pc::Take => {
                let Some(old) = self.rmw(&mut n, t, QUEUED, |q| q - 1) else {
                    return;
                };
                arg = old - 1;
                n.threads[t].pc = Pc::Run;
                Step::Take
            }
            Pc::Run => {
                if th.job == 0 {
                    self.store(&mut n, t, FLAG, 1);
                }
                n.ran |= 1 << th.job;
                arg = th.job as i8;
                n.threads[t].pc = Pc::Complete;
                Step::Run
            }
            Pc::Complete => {
                let Some(old) = self.rmw(&mut n, t, PENDING, |p| p - 1) else {
                    return;
                };
                arg = old - 1;
                self.begin_wake(&mut n.threads[t]);
                Step::Complete
            }
            Pc::WakeFence => {
                self.drain(&mut n, t);
                n.threads[t].pc = Pc::WakeLoad;
                Step::WakeFence
            }
            Pc::WakeLoad => {
                arg = self.load(s, t, SLEEPERS);
                let me = &mut n.threads[t];
                if arg == 0 {
                    self.end_wake(t, me);
                } else if self.is(Mutant::NotifyOutsideLock) {
                    me.pc = Pc::Notify;
                } else {
                    me.pc = Pc::WakeLock;
                }
                Step::WakeLoad
            }
            Pc::WakeLock => {
                if !self.lock(&mut n, t) {
                    return;
                }
                n.threads[t].pc = Pc::Notify;
                Step::WakeLock
            }
            Pc::Notify => {
                let after = |model: &Model, n: &mut State| {
                    if model.is(Mutant::NotifyOutsideLock) {
                        model.end_wake(t, &mut n.threads[t]);
                    } else {
                        n.threads[t].pc = Pc::WakeUnlock;
                    }
                };
                let waiters: Vec<usize> = (0..THREADS)
                    .filter(|&u| s.threads[u].pc == Pc::Waiting)
                    .collect();
                let all = self.wakes_all(t, &th);
                if all || waiters.is_empty() {
                    for &u in &waiters {
                        n.threads[u].pc = Pc::Reacquire;
                    }
                    after(self, &mut n);
                    let step = if all {
                        Step::NotifyAll
                    } else {
                        Step::NotifyOne
                    };
                    out.push((
                        n,
                        Label {
                            thread: t as u8,
                            step,
                            arg: -1,
                        },
                    ));
                } else {
                    // `notify_one` wakes any one waiter.
                    for u in waiters {
                        let mut n = s.clone();
                        n.threads[u].pc = Pc::Reacquire;
                        after(self, &mut n);
                        let label = Label {
                            thread: t as u8,
                            step: Step::NotifyOne,
                            arg: u as i8,
                        };
                        out.push((n, label));
                    }
                }
                return;
            }
            Pc::WakeUnlock => {
                self.unlock(&mut n, t);
                self.end_wake(t, &mut n.threads[t]);
                Step::WakeUnlock
            }
            Pc::LingerSwap => {
                let Some(old) = self.rmw(&mut n, t, LINGERING, |_| 1) else {
                    return;
                };
                arg = old;
                let me = &mut n.threads[t];
                if old != 0 {
                    me.busy = false;
                    me.pc = Pc::ParkLock;
                } else {
                    me.pc = Pc::LingerQueued;
                }
                Step::LingerSwap
            }
            Pc::LingerQueued => {
                arg = self.load(s, t, QUEUED);
                let me = &mut n.threads[t];
                if arg > 0 {
                    me.found = true;
                    me.pc = Pc::LingerEnd;
                } else {
                    me.pc = Pc::LingerDone;
                }
                Step::LingerQueued
            }
            Pc::LingerDone => {
                if self.done(s, t) {
                    n.threads[t].found = true;
                    n.threads[t].pc = Pc::LingerEnd;
                    arg = 1;
                    Step::LingerDone
                } else {
                    // `LINGER` is up, or not yet: poll again.
                    let mut again = n.clone();
                    again.threads[t].pc = Pc::LingerQueued;
                    let label = Label {
                        thread: t as u8,
                        step: Step::LingerYield,
                        arg: 0,
                    };
                    out.push((again, label));
                    n.threads[t].found = false;
                    n.threads[t].pc = Pc::LingerEnd;
                    Step::LingerTimeout
                }
            }
            Pc::LingerEnd => {
                self.store(&mut n, t, LINGERING, 0);
                let me = &mut n.threads[t];
                arg = me.found as i8;
                if me.found {
                    me.pc = Pc::Done;
                } else {
                    me.busy = false;
                    me.pc = Pc::ParkLock;
                }
                Step::LingerEnd
            }
            Pc::ParkLock => {
                if !self.lock(&mut n, t) {
                    return;
                }
                n.threads[t].pc = if self.is(Mutant::RecheckBeforeRegister) {
                    Pc::ParkQueued
                } else {
                    Pc::Register
                };
                Step::ParkLock
            }
            Pc::Register => {
                let Some(old) = self.rmw(&mut n, t, SLEEPERS, |v| v + 1) else {
                    return;
                };
                arg = old + 1;
                let after_fence = if self.is(Mutant::RecheckBeforeRegister) {
                    Pc::Wait
                } else {
                    Pc::ParkQueued
                };
                n.threads[t].pc = if self.is(Mutant::NoParkFence) {
                    after_fence
                } else {
                    Pc::ParkFence
                };
                Step::Register
            }
            Pc::ParkFence => {
                self.drain(&mut n, t);
                n.threads[t].pc = if self.is(Mutant::RecheckBeforeRegister) {
                    Pc::Wait
                } else {
                    Pc::ParkQueued
                };
                Step::ParkFence
            }
            Pc::ParkQueued => {
                arg = self.load(s, t, QUEUED);
                n.threads[t].pc = if arg > 0 {
                    self.skip_wait()
                } else {
                    Pc::ParkDone
                };
                Step::ParkQueued
            }
            Pc::ParkDone => {
                let done = self.done(s, t);
                arg = done as i8;
                n.threads[t].pc = if done {
                    self.skip_wait()
                } else if self.is(Mutant::RecheckBeforeRegister) {
                    Pc::Register
                } else {
                    Pc::Wait
                };
                Step::ParkDone
            }
            Pc::Wait => {
                self.unlock(&mut n, t);
                n.threads[t].pc = Pc::Waiting;
                Step::Wait
            }
            Pc::Waiting | Pc::Finished => return,
            Pc::Reacquire => {
                if !self.lock(&mut n, t) {
                    return;
                }
                n.threads[t].pc = Pc::Unregister;
                Step::Reacquire
            }
            Pc::Unregister => {
                let Some(old) = self.rmw(&mut n, t, SLEEPERS, |v| v - 1) else {
                    return;
                };
                arg = old - 1;
                n.threads[t].pc = Pc::ParkUnlock;
                Step::Unregister
            }
            Pc::ParkUnlock => {
                self.unlock(&mut n, t);
                n.threads[t].busy = false;
                n.threads[t].pc = Pc::Done;
                Step::ParkUnlock
            }
            Pc::SubmitPending => {
                let jobs = self.batch(&th);
                let Some(old) = self.rmw(&mut n, t, PENDING, |p| p + jobs.len() as i8) else {
                    return;
                };
                arg = old + jobs.len() as i8;
                n.threads[t].pc = if self.is(Mutant::QueuedAfterPush) {
                    Pc::SubmitPush
                } else {
                    Pc::SubmitQueued
                };
                Step::SubmitPending
            }
            Pc::SubmitQueued => {
                let jobs = self.batch(&th);
                let Some(old) = self.rmw(&mut n, t, QUEUED, |q| q + jobs.len() as i8) else {
                    return;
                };
                arg = old + jobs.len() as i8;
                if self.is(Mutant::QueuedAfterPush) {
                    self.begin_wake(&mut n.threads[t]);
                } else {
                    n.threads[t].pc = Pc::SubmitPush;
                }
                Step::SubmitQueued
            }
            Pc::SubmitPush => {
                let jobs = self.batch(&th);
                // The injector's lock, around the push.
                self.drain(&mut n, t);
                for &job in jobs {
                    n.queue[n.queued_jobs as usize] = job;
                    n.queued_jobs += 1;
                }
                if self.is(Mutant::QueuedAfterPush) {
                    n.threads[t].pc = Pc::SubmitQueued;
                } else {
                    self.begin_wake(&mut n.threads[t]);
                }
                Step::SubmitPush
            }
            Pc::Shutdown => {
                // A SeqCst store: an `xchg` on x86.
                if self.memory == Memory::X86 {
                    self.drain(&mut n, t);
                    n.mem[SHUTDOWN] = 1;
                } else {
                    self.store(&mut n, t, SHUTDOWN, 1);
                }
                self.begin_wake(&mut n.threads[t]);
                Step::Shutdown
            }
            Pc::Join => {
                if s.threads[WORKER].pc != Pc::Finished {
                    return;
                }
                self.next_op(&mut n.threads[t]);
                Step::Join
            }
        };
        out.push((
            n,
            Label {
                thread: t as u8,
                step,
                arg,
            },
        ));
    }

    fn batch(&self, th: &Thread) -> &'static [u8] {
        match self.script[th.op as usize] {
            Op::Submit(jobs) => jobs,
            _ => unreachable!("a submit step outside a submit"),
        }
    }

    /// Every successor of `s`, and how many of them a step of code (not a
    /// spurious wakeup) reaches.
    fn successors(&self, s: &State, out: &mut Vec<(State, Label)>) -> usize {
        out.clear();
        for t in 0..THREADS {
            let th = &s.threads[t];
            let head = th.buf[0];
            if th.len > 0 && (head.rmw || !Self::buffered_elsewhere(s, t, head.var, true)) {
                let mut n = s.clone();
                n.mem[head.var as usize] = head.value;
                let me = &mut n.threads[t];
                me.buf.copy_within(1.., 0);
                me.buf[BUFFER - 1] = NO_WRITE;
                me.len -= 1;
                out.push((
                    n,
                    Label {
                        thread: t as u8,
                        step: Step::Flush,
                        arg: head.var as i8,
                    },
                ));
            }
            self.step(s, t, out);
        }
        let progress = out.len();
        for t in 0..THREADS {
            if s.threads[t].pc == Pc::Waiting {
                let mut n = s.clone();
                n.threads[t].pc = Pc::Reacquire;
                out.push((
                    n,
                    Label {
                        thread: t as u8,
                        step: Step::Spurious,
                        arg: 0,
                    },
                ));
            }
        }
        progress
    }

    /// What is wrong with `s` itself, whatever comes next.
    fn invariant(&self, s: &State) -> Option<String> {
        let lingering = s
            .threads
            .iter()
            .filter(|th| matches!(th.pc, Pc::LingerQueued | Pc::LingerDone | Pc::LingerEnd))
            .count();
        if lingering > 1 {
            return Some(format!("{lingering} threads linger at once"));
        }
        let buffered = s.threads.iter().flat_map(|th| &th.buf[..th.len as usize]);
        let queued = std::iter::once(s.mem[QUEUED]).chain(
            buffered
                .filter(|w| w.var as usize == QUEUED)
                .map(|w| w.value),
        );
        if queued.clone().any(|q| q < 0) {
            return Some("`queued` fell below zero: a job was taken before it was counted".into());
        }
        None
    }

    /// What is wrong with `s` when no step of code can follow it.
    fn stuck(&self, s: &State) -> Result<(), String> {
        if s.threads.iter().any(|th| th.len > 0) {
            return Err("store buffers that can never drain".into());
        }
        for (t, th) in s.threads.iter().enumerate() {
            let waits = th.pc == Pc::Waiting || th.pc == Pc::Join;
            if !waits && th.pc != Pc::Finished {
                return Err(format!("{} is blocked at {:?}", THREAD_NAMES[t], th.pc));
            }
        }
        if s.queued_jobs > 0 || s.mem[QUEUED] > 0 {
            return Err("every live thread waits while a job is queued".into());
        }
        if s.mem[LINGERING] != 0 {
            return Err("the linger slot stays taken with nobody lingering".into());
        }
        for (t, th) in s.threads.iter().enumerate() {
            if th.pc == Pc::Waiting && self.done(s, t) {
                return Err(format!("{} waits while its done() holds", THREAD_NAMES[t]));
            }
        }
        let finished = s.threads.iter().all(|th| th.pc == Pc::Finished);
        if finished && s.ran != self.submitted() {
            return Err("every thread finished, and a submitted job never ran".into());
        }
        Ok(())
    }

    /// Breadth-first search of every reachable state; the shortest trace to
    /// the first violation on failure. States are numbered in the order
    /// they are found, which is the order they are expanded in.
    fn explore(&self) -> Result<Explored, String> {
        let mut index: HashMap<Packed, u32, BuildHasherDefault<Mix>> = HashMap::default();
        let mut states = vec![pack(&self.initial())];
        let mut parent: Vec<(u32, Option<Label>)> = vec![(0, None)];
        index.insert(states[0], 0);
        let mut explored = Explored::default();
        let (mut at, mut layer_end) = (0, 1);
        let mut next = Vec::new();
        while at < states.len() {
            if at == layer_end {
                explored.depth += 1;
                layer_end = states.len();
            }
            let s = unpack(states[at]);
            let progress = self.successors(&s, &mut next);
            if progress == 0 {
                if let Err(why) = self.stuck(&s) {
                    return Err(self.trace(&states, &parent, at, &why));
                }
                explored.ends += 1;
            }
            explored.transitions += next.len();
            for (n, label) in next.drain(..) {
                if let Entry::Vacant(slot) = index.entry(pack(&n)) {
                    let id = states.len();
                    states.push(*slot.key());
                    slot.insert(id as u32);
                    parent.push((at as u32, Some(label)));
                    if let Some(why) = self.invariant(&n) {
                        return Err(self.trace(&states, &parent, id, &why));
                    }
                }
            }
            at += 1;
        }
        explored.states = states.len();
        if explored.ends == 0 {
            return Err("no run of the scenario ever ends".into());
        }
        Ok(explored)
    }

    /// The path from the initial state to `at`, one step a line.
    fn trace(
        &self,
        states: &[Packed],
        parent: &[(u32, Option<Label>)],
        at: usize,
        why: &str,
    ) -> String {
        let mut path = Vec::new();
        let mut cur = at;
        while let (from, Some(label)) = parent[cur] {
            path.push(label);
            cur = from as usize;
        }
        path.reverse();
        let mut out = format!(
            "{why}\n  memory {:?}, mutant {:?}, script {:?}\n",
            self.memory, self.mutant, self.script
        );
        for (i, label) in path.iter().enumerate() {
            let who = THREAD_NAMES[label.thread as usize];
            let _ = match label.step {
                Step::Flush => writeln!(
                    out,
                    "  {:>3} {who:>9}  store buffer -> memory: {}",
                    i + 1,
                    VAR_NAMES[label.arg as usize]
                ),
                Step::Spurious => writeln!(out, "  {:>3} {who:>9}  spurious wakeup", i + 1),
                step => {
                    let (line, code) = code_of(step).unwrap_or((0, "?"));
                    writeln!(
                        out,
                        "  {:>3} {who:>9}  {step:?}({})  lib.rs:{line}  {code}",
                        i + 1,
                        label.arg
                    )
                }
            };
        }
        let s = unpack(states[at]);
        let _ = writeln!(out, "  memory: {}", describe(&s.mem));
        for (t, th) in s.threads.iter().enumerate() {
            let buffered: Vec<String> = th.buf[..th.len as usize]
                .iter()
                .map(|w| format!("{} = {}", VAR_NAMES[w.var as usize], w.value))
                .collect();
            let _ = writeln!(
                out,
                "  {:>9}: at {:?}, buffer [{}]",
                THREAD_NAMES[t],
                th.pc,
                buffered.join(", ")
            );
        }
        out
    }
}

/// A state in 160 bits, what the search hashes and keeps: `queued` in 3
/// bits (from -1), `pending` and `sleepers` in 2, the flags in 1 each; the
/// injector, `sleep_lock`'s owner and the jobs run in 8; per thread 39 (its
/// [`Pc`] in 5, up to 4 buffered writes of 7 bits); the submitter's script
/// position in 3. `pack` panics on a value that does not fit.
#[derive(Clone, Copy, PartialEq, Eq)]
struct Packed([u64; 3]);

impl std::hash::Hash for Packed {
    fn hash<H: Hasher>(&self, state: &mut H) {
        for word in self.0 {
            state.write_u64(word);
        }
    }
}

fn pack(s: &State) -> Packed {
    let mut bits = Bits::default();
    bits.put((s.mem[QUEUED] + 1) as u8, 3);
    bits.put(s.mem[PENDING] as u8, 2);
    bits.put(s.mem[SLEEPERS] as u8, 2);
    for var in [LINGERING, SHUTDOWN, FLAG] {
        bits.put(s.mem[var] as u8, 1);
    }
    bits.put(s.queued_jobs, 2);
    bits.put(s.queue[0], 1);
    bits.put(s.queue[1], 1);
    bits.put(s.owner, 2);
    bits.put(s.ran, 2);
    for th in &s.threads {
        bits.put(th.pc as u8, 5);
        bits.put(th.busy as u8, 1);
        bits.put(th.found as u8, 1);
        bits.put(th.job, 1);
        bits.put(th.len, 3);
        for w in &th.buf {
            bits.put(w.var, 3);
            bits.put((w.value + 1) as u8, 3);
            bits.put(w.rmw as u8, 1);
        }
    }
    bits.put(s.threads[SUBMITTER].op, 3);
    bits.packed
}

fn unpack(packed: Packed) -> State {
    let mut bits = Bits { packed, at: 0 };
    let mut mem = [0; VARS];
    mem[QUEUED] = bits.get(3) as i8 - 1;
    mem[PENDING] = bits.get(2) as i8;
    mem[SLEEPERS] = bits.get(2) as i8;
    for var in [LINGERING, SHUTDOWN, FLAG] {
        mem[var] = bits.get(1) as i8;
    }
    let queued_jobs = bits.get(2);
    let queue = [bits.get(1), bits.get(1)];
    let (owner, ran) = (bits.get(2), bits.get(2));
    let threads = [(); THREADS].map(|_| {
        let pc = PCS[bits.get(5) as usize];
        let (busy, found, job) = (bits.get(1) == 1, bits.get(1) == 1, bits.get(1));
        let len = bits.get(3);
        let buf = [(); BUFFER].map(|_| Write {
            var: bits.get(3),
            value: bits.get(3) as i8 - 1,
            rmw: bits.get(1) == 1,
        });
        Thread {
            pc,
            busy,
            found,
            job,
            op: 0,
            buf,
            len,
        }
    });
    let mut s = State {
        mem,
        queue,
        queued_jobs,
        owner,
        ran,
        threads,
    };
    s.threads[SUBMITTER].op = bits.get(3);
    s
}

struct Bits {
    packed: Packed,
    at: u32,
}

impl Default for Bits {
    fn default() -> Self {
        Bits {
            packed: Packed([0; 3]),
            at: 0,
        }
    }
}

impl Bits {
    fn put(&mut self, value: u8, width: u32) {
        assert!(
            u32::from(value) < 1 << width,
            "{value} does not fit in {width} bits"
        );
        let (word, shift) = ((self.at / 64) as usize, self.at % 64);
        let value = u64::from(value);
        self.packed.0[word] |= value << shift;
        if shift + width > 64 {
            self.packed.0[word + 1] |= value >> (64 - shift);
        }
        self.at += width;
    }

    fn get(&mut self, width: u32) -> u8 {
        let (word, shift) = ((self.at / 64) as usize, self.at % 64);
        let mut value = self.packed.0[word] >> shift;
        if shift + width > 64 {
            value |= self.packed.0[word + 1] << (64 - shift);
        }
        self.at += width;
        (value & ((1 << width) - 1)) as u8
    }
}

/// A multiply-rotate hash of a packed state: the standard hasher's SipHash
/// costs more than the rest of a step.
#[derive(Default)]
struct Mix(u64);

impl Hasher for Mix {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

fn describe(mem: &[i8; VARS]) -> String {
    let vars: Vec<String> = mem
        .iter()
        .zip(VAR_NAMES)
        .map(|(x, name)| format!("{name} = {x}"))
        .collect();
    vars.join(", ")
}

#[test]
fn every_step_names_a_line_of_the_pool() {
    for &(step, function, line) in CODE {
        let (offset, body) = function_body(function)
            .unwrap_or_else(|| panic!("{step:?}: no `{function}` in lib.rs"));
        assert!(
            body.contains(line),
            "{step:?}: `{line}` is not in `{function}..`"
        );
        let (at, _) = code_of(step).expect("found above");
        assert!(at > SOURCE[..offset].lines().count(), "{step:?}");
    }
}

#[test]
fn a_packed_state_unpacks_to_itself() {
    assert!(PCS
        .iter()
        .enumerate()
        .all(|(code, &pc)| pc as usize == code));
    for &(_, script) in SCENARIOS {
        let model = Model {
            memory: Memory::FencesOnly,
            mutant: None,
            script,
        };
        let mut next = Vec::new();
        model.successors(&model.initial(), &mut next);
        for (state, _) in next {
            assert!(pack(&unpack(pack(&state))) == pack(&state));
        }
    }
}

#[test]
fn the_idle_protocol_loses_no_wakeup() {
    let start = std::time::Instant::now();
    let mut total = 0;
    for memory in [Memory::SeqCst, Memory::X86, Memory::FencesOnly] {
        for &(name, script) in SCENARIOS {
            let model = Model {
                memory,
                mutant: None,
                script,
            };
            let explored = model
                .explore()
                .unwrap_or_else(|trace| panic!("{name}: {trace}"));
            eprintln!(
                "idle protocol model, {memory:?}, {name}: {} states, {} transitions, {} end \
                 states, depth {}",
                explored.states, explored.transitions, explored.ends, explored.depth
            );
            total += explored.states;
        }
    }
    eprintln!(
        "idle protocol model: {total} states in all, {:?}",
        start.elapsed()
    );
}

/// The first scenario in which `mutant` fails under `memory`, with its trace.
fn first_failure(memory: Memory, mutant: Mutant) -> Option<String> {
    SCENARIOS.iter().find_map(|&(name, script)| {
        let model = Model {
            memory,
            mutant: Some(mutant),
            script,
        };
        model
            .explore()
            .err()
            .map(|trace| format!("{mutant:?} fails ({name}): {trace}"))
    })
}

#[test]
fn each_mutant_fails_with_a_trace() {
    for mutant in [
        Mutant::RecheckBeforeRegister,
        Mutant::NoParkFence,
        Mutant::NoWakeFence,
        Mutant::NotifyOutsideLock,
        Mutant::QueuedAfterPush,
    ] {
        let trace = first_failure(Memory::FencesOnly, mutant)
            .unwrap_or_else(|| panic!("{mutant:?} passes the model"));
        eprintln!("{trace}");
    }
}

#[test]
fn a_missing_fence_fails_only_with_store_buffers_that_locked_rmws_do_not_drain() {
    for mutant in [Mutant::NoParkFence, Mutant::NoWakeFence] {
        for memory in [Memory::SeqCst, Memory::X86] {
            if let Some(trace) = first_failure(memory, mutant) {
                panic!("{mutant:?} fails under {memory:?} too: {trace}");
            }
        }
    }
}
