//! The run-time covering effect against the static analysis's compound
//! effect, over seeded random spawn/join sequences.
//!
//! `TaskCtx::covers` is the declared effects minus those of every spawned
//! child not yet joined. The analysis's `CompoundEffect` tracks the same
//! task as a `−E … +E` log (Fig. 4.1), which is conservative: `−E` drops
//! every effect that interferes with `E`, and a later `+E` gives back only
//! what `E` covers. So the run-time check must cover everything the log
//! covers, agree with it exactly until the first join, and may cover more
//! only after one.

use twe::analysis::CompoundEffect;
use twe::effects::{Effect, EffectSet};
use twe::runtime::{Runtime, SchedulerKind, SpawnedTaskFuture};

const SEQUENCES: u64 = 4_000;
const STEPS: usize = 12;
const PROBES: usize = 8;

const REGIONS: [&str; 9] = [
    "A", "A:*", "A:[0]", "A:[1]", "A:[?]", "A:[1]:X", "B", "B:*", "*",
];

/// SplitMix64: one seeded stream per sequence, so a failure names the
/// sequence that replays it.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn effect(&mut self) -> Effect {
        let kind = if self.next() % 2 == 0 {
            "reads"
        } else {
            "writes"
        };
        let region = REGIONS[self.below(REGIONS.len())];
        Effect::parse(&format!("{kind} {region}")).expect("a well-formed effect")
    }

    fn set(&mut self, max: usize) -> EffectSet {
        EffectSet::from_effects((0..1 + self.below(max)).map(|_| self.effect()))
    }
}

#[derive(Default)]
struct Tally {
    probes: u64,
    more_permissive: u64,
}

#[test]
fn run_time_covering_is_the_compound_log_or_more_after_a_join() {
    let rt = Runtime::new(2, SchedulerKind::Tree);
    let mut total = Tally::default();
    for seed in 0..SEQUENCES {
        let mut rng = Rng(seed);
        let declared = rng.set(3);
        let tally = rt.run("sequence", declared.clone(), move |ctx| {
            let mut log = CompoundEffect::declared(declared);
            let mut children: Vec<SpawnedTaskFuture<()>> = Vec::new();
            let mut joined_any = false;
            let mut tally = Tally::default();
            for _ in 0..STEPS {
                if children.is_empty() || rng.next() % 2 == 0 {
                    let effects = rng.set(2);
                    if ctx.covers(&effects) {
                        log = log.sub(effects.clone());
                        children.push(ctx.spawn("child", effects, |_| ()));
                    }
                } else {
                    let child = children.swap_remove(rng.below(children.len()));
                    child.join(ctx);
                    log = log.add(child.transferred_effects().clone());
                    joined_any = true;
                }
                for _ in 0..PROBES {
                    let e = rng.effect();
                    let logged = log.covers(&e);
                    let run_time = ctx.covers(&EffectSet::from_effects([e]));
                    assert!(
                        run_time || !logged,
                        "seed {seed}: `{e}` is covered by the log but not at run time"
                    );
                    assert!(
                        joined_any || run_time == logged,
                        "seed {seed}: `{e}` decided differently before any join"
                    );
                    tally.probes += 1;
                    tally.more_permissive += u64::from(run_time && !logged);
                }
            }
            tally
        });
        total.probes += tally.probes;
        total.more_permissive += tally.more_permissive;
    }
    eprintln!(
        "{SEQUENCES} sequences, {} probes, {} more permissive at run time",
        total.probes, total.more_permissive
    );
    assert!(
        total.more_permissive > 0,
        "no join ever gave back what the log drops"
    );
}
