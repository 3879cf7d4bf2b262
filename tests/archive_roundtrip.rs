//! Archive-layer integration: multi-resolution archival, budget selection,
//! shared (concurrent) pattern base, matching through coarser levels, and
//! the durable tier's crash-injection suite (`DESIGN.md` §10): every
//! insert is recoverable to the longest durable prefix, and checkpoints
//! are atomic.

use proptest::prelude::*;
use sgs_archive::{DurableConfig, DurablePatternBase, FaultFs, FaultMode, FaultPlan};
use streamsum::archive::{choose_level, shared_pattern_base};
use streamsum::matching::MatchConfig;
use streamsum::prelude::*;
use streamsum::summarize::{coarsen, codec, multires, packed};

fn study_summaries(n: usize) -> Vec<Sgs> {
    use streamsum::core::GridGeometry;
    let g = GridGeometry::basic(2, 1.0);
    (0..n)
        .map(|k| {
            let x0 = (k as f64) * 9.0;
            let cores: Vec<Box<[f64]>> = (0..40 + (k % 7) * 10)
                .map(|i| {
                    vec![
                        x0 + 0.05 + (i % 8) as f64 * 0.3,
                        0.05 + (i / 8) as f64 * 0.3,
                    ]
                    .into()
                })
                .collect();
            Sgs::from_members(&MemberSet::new(cores, vec![]), &g)
        })
        .collect()
}

#[test]
fn archiver_levels_respect_budget_end_to_end() {
    let summaries = study_summaries(30);
    let budget = 200usize;
    let mut base = PatternBase::new();
    for s in &summaries {
        let level = choose_level(s, 3, budget, 3);
        let stored = (0..level).fold(s.clone(), |sgs, _| coarsen(&sgs, 3));
        base.insert(stored, WindowId(0));
    }
    assert_eq!(base.len(), 30);
    for p in base.iter() {
        let bytes = packed::archived_bytes(&p.sgs);
        // Either within budget, or already at the coarsest allowed level.
        assert!(
            bytes <= budget || p.sgs.level == 3,
            "pattern {:?}: {bytes} bytes at level {}",
            p.id,
            p.sgs.level
        );
    }
}

#[test]
fn choose_level_is_monotone_in_budget() {
    let s = &study_summaries(1)[0];
    let mut last = u8::MAX;
    for budget in [1usize, 50, 100, 200, 400, 1000, 10_000] {
        let level = choose_level(s, 3, budget, 4);
        assert!(level <= last || last == u8::MAX);
        last = level;
    }
    assert_eq!(choose_level(s, 3, usize::MAX / 2, 4), 0);
}

#[test]
fn coarse_archive_still_matches_translated_twin() {
    // Archive everything at level 1; a translated twin of a summary must
    // still be found by non-position-sensitive matching at that level.
    let summaries = study_summaries(12);
    let mut base = PatternBase::new();
    for s in &summaries {
        base.insert(coarsen(s, 3), WindowId(0));
    }

    let query = coarsen(&summaries[4], 3);
    let outcome = base.match_query(&query, &MatchConfig::equal_weights(false, 0.2));
    assert!(!outcome.matches.is_empty());
    assert!(
        outcome.matches[0].distance < 0.05,
        "d={}",
        outcome.matches[0].distance
    );
}

#[test]
fn shared_base_supports_concurrent_writers_and_readers() {
    let base = shared_pattern_base();
    let summaries = study_summaries(40);
    let writer_base = base.clone();
    let writer = std::thread::spawn(move || {
        for (i, s) in summaries.into_iter().enumerate() {
            writer_base
                .write()
                .try_insert(s, WindowId(i as u64))
                .unwrap();
        }
    });
    let reader = {
        let base = base.clone();
        std::thread::spawn(move || {
            let cfg = MatchConfig::equal_weights(false, 0.3);
            let mut total = 0usize;
            for _ in 0..50 {
                let guard = base.read();
                let first = guard.iter().next().map(|p| p.sgs.clone());
                if let Some(sgs) = first {
                    total += guard.match_query(&sgs, &cfg).matches.len();
                }
            }
            total
        })
    };
    writer.join().unwrap();
    let _ = reader.join().unwrap();
    assert_eq!(base.read().len(), 40);
}

#[test]
fn archived_bytes_at_level_is_exact_after_materialization() {
    for s in study_summaries(6) {
        for theta in [2u32, 3] {
            let mut cur = s.clone();
            for level in 0u8..3 {
                assert_eq!(
                    multires::archived_bytes_at_level(&s, theta, level),
                    packed::archived_bytes(&cur),
                    "theta {theta} level {level}"
                );
                cur = coarsen(&cur, theta);
            }
        }
    }
}

#[test]
fn codec_through_all_levels() {
    for s in study_summaries(4) {
        let mut cur = s;
        for _ in 0..3 {
            let mut bytes = Vec::new();
            codec::encode(&cur, &mut bytes);
            assert_eq!(codec::decode(&mut &bytes[..]).as_ref(), Ok(&cur));
            cur = coarsen(&cur, 3);
        }
    }
}

// ---------------------------------------------------------------------------
// Durable tier: kill-and-recover crash injection (DESIGN.md §10).

fn durable_open(fs: &FaultFs, cfg: &DurableConfig) -> DurablePatternBase {
    DurablePatternBase::open_with(Box::new(fs.clone()), cfg.clone()).expect("open/recover")
}

/// Drive the study workload against a durable base on `fs` until the
/// armed fault (if any) kills it; returns how many inserts committed.
fn run_workload(fs: &FaultFs, cfg: &DurableConfig, summaries: &[Sgs]) -> usize {
    let Ok(mut base) = DurablePatternBase::open_with(Box::new(fs.clone()), cfg.clone()) else {
        return 0;
    };
    let mut committed = 0;
    for (k, s) in summaries.iter().enumerate() {
        match base.try_insert(s.clone(), WindowId(k as u64)) {
            Ok(_) => committed += 1,
            Err(_) => break,
        }
    }
    committed
}

/// Snapshot bytes of each committed prefix of `summaries` — the oracle a
/// recovered base is compared against.
fn prefix_snapshots(cfg: &DurableConfig, summaries: &[Sgs]) -> Vec<Vec<u8>> {
    (0..=summaries.len())
        .map(|k| {
            let mut base = durable_open(&FaultFs::new(), cfg);
            for (i, s) in summaries[..k].iter().enumerate() {
                base.try_insert(s.clone(), WindowId(i as u64)).unwrap();
            }
            base.snapshot_bytes()
        })
        .collect()
}

/// The headline crash sweep: for every enumerated byte offset of the
/// workload's write stream and every fault mode, kill the process there,
/// recover, and require the recovered base to be **byte-identical** to
/// the longest durable prefix — then accept new inserts.
///
/// By default offsets are stride-sampled to keep the tier-1 gate fast;
/// `SGS_FAULT_SWEEP=full` (the CI recovery step) sweeps every byte.
#[test]
fn crash_sweep_recovers_longest_durable_prefix() {
    let summaries = study_summaries(6);
    let cfg = DurableConfig::default();
    let prefixes = prefix_snapshots(&cfg, &summaries);

    // A fault-free dry run sizes the sweep range.
    let dry = FaultFs::new();
    assert_eq!(run_workload(&dry, &cfg, &summaries), summaries.len());
    let total = dry.total_written();

    let full = std::env::var("SGS_FAULT_SWEEP").as_deref() == Ok("full");
    let stride = if full { 1 } else { (total / 32).max(1) };
    let mut offsets: Vec<u64> = (0..total).step_by(stride as usize).collect();
    offsets.push(total - 1);

    for mode in [
        FaultMode::Truncate,
        FaultMode::ShortWrite,
        FaultMode::BitFlip,
    ] {
        for &at in &offsets {
            let fs = FaultFs::new();
            fs.arm(FaultPlan { at, mode });
            let committed = run_workload(&fs, &cfg, &summaries);
            assert!(fs.crashed(), "{mode:?}@{at}: fault must fire");
            fs.disarm();

            let mut recovered = durable_open(&fs, &cfg);
            let snap = recovered.snapshot_bytes();
            // A bit flip landing exactly on a frame boundary corrupts the
            // tail of the *previous*, already-committed frame; one insert
            // is lost but the result is still a committed prefix.
            let boundary_flip =
                mode == FaultMode::BitFlip && committed > 0 && snap == prefixes[committed - 1];
            assert!(
                boundary_flip || snap == prefixes[committed],
                "{mode:?}@{at}: recovered base is not the committed prefix \
                 ({committed} of {} inserts committed)",
                summaries.len()
            );
            // Recovery must leave a live, writable base.
            assert!(
                recovered
                    .try_insert(summaries[0].clone(), WindowId(99))
                    .unwrap()
                    .is_some(),
                "{mode:?}@{at}: post-recovery insert rejected"
            );
        }
    }
}

/// The crash sweep through multi-pattern commits: a checkpointed
/// pre-batch state, then two `try_insert_all` batches of three patterns,
/// each one WAL append and one `fsync`. For a crash at every enumerated
/// byte of the batches' writes, in every fault mode, recovery yields the
/// pre-batch state, every batch that returned `Ok` whole, and a prefix of
/// the batch that failed — then commits a batch that survives reopen.
///
/// Offsets are stride-sampled by default; `SGS_FAULT_SWEEP=full` (the CI
/// recovery step) sweeps every byte.
#[test]
fn crash_sweep_through_a_multi_pattern_commit() {
    const BATCH: usize = 3;
    let summaries = study_summaries(8);
    let (pre, batched) = summaries.split_at(2);
    let cfg = DurableConfig::default();
    let prefixes = prefix_snapshots(&cfg, &summaries);
    let batch = |b: usize| {
        let first = pre.len() + b * BATCH;
        (first..)
            .zip(&batched[b * BATCH..(b + 1) * BATCH])
            .map(|(k, s)| (s.clone(), WindowId(k as u64)))
    };
    // Runs the workload until a write fails; returns the batches that
    // committed and the bytes written when the pre-batch state was
    // checkpointed and after each committed batch.
    let run = |fs: &FaultFs| {
        let mut base = durable_open(fs, &cfg);
        for (k, s) in pre.iter().enumerate() {
            base.try_insert(s.clone(), WindowId(k as u64)).unwrap();
        }
        base.checkpoint().unwrap();
        let mut marks = vec![fs.total_written()];
        for b in 0..batched.len() / BATCH {
            if base.try_insert_all(batch(b)).is_err() {
                break;
            }
            marks.push(fs.total_written());
        }
        marks
    };

    let dry = run(&FaultFs::new());
    assert_eq!(dry.len(), 3, "both batches commit without a fault");
    let full = std::env::var("SGS_FAULT_SWEEP").as_deref() == Ok("full");
    let stride = if full {
        1
    } else {
        ((dry[2] - dry[0]) / 32).max(1)
    };
    let mut offsets: Vec<u64> = (dry[0]..dry[2]).step_by(stride as usize).collect();
    offsets.extend([dry[1], dry[2] - 1]);

    for mode in [
        FaultMode::Truncate,
        FaultMode::ShortWrite,
        FaultMode::BitFlip,
    ] {
        for &at in &offsets {
            let fs = FaultFs::new();
            fs.arm(FaultPlan { at, mode });
            let committed = run(&fs).len() - 1;
            assert!(fs.crashed(), "{mode:?}@{at}: fault must fire");
            fs.disarm();

            let mut recovered = durable_open(&fs, &cfg);
            let snap = recovered.snapshot_bytes();
            let whole = pre.len() + committed * BATCH;
            let prefix = (whole..whole + BATCH).find(|&n| snap == prefixes[n]);
            // A bit flip at the failing batch's first byte lands on the
            // last byte already on disk — the previous batch's tail, which
            // its fsync had made durable. That is damage to stored bytes,
            // not a crash, and it costs exactly that one frame.
            let boundary_flip = mode == FaultMode::BitFlip
                && committed > 0
                && at == dry[committed]
                && snap == prefixes[whole - 1];
            assert!(
                prefix.is_some() || boundary_flip,
                "{mode:?}@{at}: recovered base is not the {committed} committed \
                 batches plus a prefix of the failing one"
            );
            // The recovered base commits a batch that survives reopen.
            assert_eq!(recovered.try_insert_all(batch(0)).unwrap().len(), BATCH);
            assert!(
                durable_open(&fs, &cfg).snapshot_bytes() == recovered.snapshot_bytes(),
                "{mode:?}@{at}: a committed batch was lost on reopen"
            );
        }
    }
}

/// A crash at any byte of a checkpoint — mid store swap or between the
/// swap and the WAL truncate — must leave the recovered state identical
/// to the pre-checkpoint state (atomic replace + `applied_seq` skip).
///
/// By default 16 offsets per fault mode are sampled;
/// `SGS_FAULT_SWEEP=full` (the CI recovery step) crashes at every byte of
/// the checkpoint's write range in every mode.
#[test]
fn checkpoint_crash_sweep_preserves_state() {
    let summaries = study_summaries(5);
    let cfg = DurableConfig::default();
    let want = prefix_snapshots(&cfg, &summaries).pop().unwrap();

    // Dry run brackets the checkpoint's write range [w0, w1).
    let dry = FaultFs::new();
    assert_eq!(run_workload(&dry, &cfg, &summaries), summaries.len());
    let w0 = dry.total_written();
    durable_open(&dry, &cfg).checkpoint().unwrap();
    let w1 = dry.total_written();
    assert!(w1 > w0, "checkpoint must write something");

    let full = std::env::var("SGS_FAULT_SWEEP").as_deref() == Ok("full");
    let stride = if full { 1 } else { ((w1 - w0) / 16).max(1) };
    let mut offsets: Vec<u64> = (w0..w1).step_by(stride as usize).collect();
    offsets.push(w1 - 1);
    for mode in [
        FaultMode::Truncate,
        FaultMode::ShortWrite,
        FaultMode::BitFlip,
    ] {
        for &at in &offsets {
            let fs = FaultFs::new();
            assert_eq!(run_workload(&fs, &cfg, &summaries), summaries.len());
            fs.arm(FaultPlan { at, mode });
            let killed = durable_open(&fs, &cfg).checkpoint();
            assert!(killed.is_err(), "{mode:?}@{at}: fault must fire");
            fs.disarm();
            let mut recovered = durable_open(&fs, &cfg);
            assert!(
                recovered.snapshot_bytes() == want,
                "{mode:?}@{at}: checkpoint crash, recovered state diverged"
            );
            // Recovery must leave a live, writable base.
            assert!(
                recovered
                    .try_insert(summaries[0].clone(), WindowId(99))
                    .unwrap()
                    .is_some(),
                "{mode:?}@{at}: post-recovery insert rejected"
            );
            // ...whose next insert survives another restart.
            assert!(
                durable_open(&fs, &cfg).snapshot_bytes() == recovered.snapshot_bytes(),
                "{mode:?}@{at}: post-recovery insert lost on reopen"
            );
        }
    }
}

proptest! {
    /// Randomized kill-and-recover: any workload shape × any crash
    /// offset × any fault mode recovers to a committed prefix and keeps
    /// accepting inserts afterwards.
    #[test]
    fn random_workload_crash_recovers_to_a_prefix(
        n in 2usize..6,
        sizes in prop::collection::vec(10usize..60, 6),
        frac in 0.0f64..1.0,
        mode_ix in 0usize..3,
    ) {
        let summaries: Vec<Sgs> = {
            use streamsum::core::GridGeometry;
            let g = GridGeometry::basic(2, 1.0);
            (0..n)
                .map(|k| {
                    let x0 = (k as f64) * 11.0;
                    let cores: Vec<Box<[f64]>> = (0..sizes[k])
                        .map(|i| {
                            vec![x0 + 0.1 + (i % 5) as f64 * 0.4, 0.1 + (i / 5) as f64 * 0.4]
                                .into()
                        })
                        .collect();
                    Sgs::from_members(&MemberSet::new(cores, vec![]), &g)
                })
                .collect()
        };
        let cfg = DurableConfig::default();
        let prefixes = prefix_snapshots(&cfg, &summaries);

        let dry = FaultFs::new();
        prop_assert_eq!(run_workload(&dry, &cfg, &summaries), n);
        let total = dry.total_written();
        let at = ((total - 1) as f64 * frac) as u64;
        let mode = [FaultMode::Truncate, FaultMode::ShortWrite, FaultMode::BitFlip][mode_ix];

        let fs = FaultFs::new();
        fs.arm(FaultPlan { at, mode });
        let committed = run_workload(&fs, &cfg, &summaries);
        fs.disarm();

        let mut recovered = durable_open(&fs, &cfg);
        let snap = recovered.snapshot_bytes();
        let boundary_flip =
            mode == FaultMode::BitFlip && committed > 0 && snap == prefixes[committed - 1];
        prop_assert!(
            boundary_flip || snap == prefixes[committed],
            "{:?}@{}: not a committed prefix", mode, at
        );
        prop_assert!(recovered
            .try_insert(summaries[0].clone(), WindowId(99))
            .unwrap()
            .is_some());
    }
}
