//! Quickstart: run a continuous clustering query over a small synthetic
//! stream, inspect the dual (full + SGS) output, and answer a cluster
//! matching query against the archived history.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use streamsum::prelude::*;

fn main() -> Result<()> {
    // A continuous clustering query (Fig. 2 of the paper):
    //   DETECT DensityBasedClusters(f+s) FROM stream
    //   USING theta_range = 0.5 AND theta_cnt = 3
    //   IN Windows WITH win = 300 AND slide = 100
    let query = ClusterQuery::new(0.5, 3, 2, WindowSpec::count(300, 100)?)?;
    let mut pipeline = StreamPipeline::new(query, ArchivePolicy::All, 42)?;

    // A toy stream: two drifting blobs plus uniform noise.
    let mut printed = 0;
    let mut last_window = Vec::new();
    for i in 0..1500u64 {
        let t = i as f64 / 1500.0;
        let p = match i % 3 {
            0 => Point::new(vec![1.0 + t * 2.0 + jitter(i), 1.0 + jitter(i * 7)], i),
            1 => Point::new(vec![6.0 - t * 1.5 + jitter(i * 3), 4.0 + jitter(i * 11)], i),
            _ => Point::new(vec![(i % 97) as f64 / 10.0, (i % 89) as f64 / 10.0], i),
        };
        for (window, clusters) in pipeline.push(p)? {
            if printed < 4 {
                println!("-- window {window}: {} cluster(s)", clusters.len());
                for (ci, c) in clusters.iter().enumerate() {
                    println!(
                        "   cluster {ci}: {} cores + {} edges; SGS: {} cells \
                         ({} core cells, avg density {:.1}, avg connectivity {:.1})",
                        c.cores.len(),
                        c.edges.len(),
                        c.sgs.volume(),
                        c.sgs.core_count(),
                        c.sgs.avg_density(),
                        c.sgs.avg_connectivity(),
                    );
                }
                printed += 1;
            }
            last_window = clusters;
        }
    }

    println!("\narchived {} cluster summaries", pipeline.base().len());

    // Cluster matching query (Fig. 3): find history clusters similar to the
    // most recent one, ignoring absolute position.
    let recent = &last_window[0].sgs;
    let config = MatchConfig::equal_weights(false, 0.25);
    let outcome = pipeline.base().match_query(recent, &config);
    println!(
        "matching query: {} candidates from the index, {} grid-level matches run, \
         {} similar clusters found",
        outcome.candidates,
        outcome.refined,
        outcome.matches.len()
    );
    for m in outcome.matches.iter().take(3) {
        let archived = pipeline.archived(m.id).unwrap();
        println!(
            "   match {:?} from window {} at distance {:.3}",
            m.id, archived.window, m.distance
        );
    }
    Ok(())
}

/// Deterministic pseudo-jitter in [-0.25, 0.25] (no RNG needed here).
fn jitter(i: u64) -> f64 {
    ((i.wrapping_mul(2654435761) >> 16) % 1000) as f64 / 2000.0 - 0.25
}
