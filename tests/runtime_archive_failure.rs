//! A durable history whose WAL write fails inside a runtime: the query
//! fails with the archive's error — not a panic — and the windows of the
//! failing batch are still delivered (`DESIGN.md` §5, §10).

use streamsum::prelude::*;
use streamsum::runtime::DurableArchive;

const DETECT: &str = "DETECT DensityBasedClusters f+s FROM gmti \
                      USING theta_range = 0.6 AND theta_cnt = 8 \
                      IN Windows WITH win = 2000 AND slide = 500";

#[test]
fn a_failed_archive_commit_fails_the_query_and_delivers_its_windows() {
    let dir = std::env::temp_dir().join(format!("sgs-rt-archive-fail-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut rt = Runtime::with_config(RuntimeConfig {
        durable_archive: Some(DurableArchive::at(dir.clone())),
        ..RuntimeConfig::default()
    });
    rt.register_stream("gmti", 2);
    let Submission::Continuous(id) = rt.submit(DETECT).unwrap() else {
        panic!("expected continuous registration");
    };
    // Registration opened the 2-d history, which has logged nothing yet:
    // a directory where its WAL belongs fails the first append.
    std::fs::create_dir_all(dir.join("dim2/base.wal")).unwrap();

    let stream = generate_gmti(&GmtiConfig {
        n_records: 4000,
        n_convoys: 3,
        ..GmtiConfig::default()
    });
    rt.push_batch(&stream).unwrap();
    rt.quiesce().unwrap();

    assert_eq!(rt.state(id).unwrap(), QueryState::Failed);
    let stats = rt.stats(id).unwrap();
    let error = stats.error.clone().unwrap_or_default();
    assert!(error.contains("archive I/O error"), "{error}");
    assert!(!error.contains("panicked"), "{error}");

    // Every window the query completed was delivered, the failing
    // batch's too: it is the one whose clusters the commit was refused.
    let delivered = rt.poll(id).unwrap();
    assert!(stats.windows > 0);
    assert_eq!(delivered.len() as u64, stats.windows);
    assert!(
        delivered.iter().any(|(_, clusters)| !clusters.is_empty()),
        "the failing batch's windows were not delivered"
    );
    // Nothing it tried to archive is in the history.
    assert_eq!(stats.archived, 0);
    assert!(rt.history(2).unwrap().read().is_empty());
    std::fs::remove_dir_all(&dir).ok();
}
