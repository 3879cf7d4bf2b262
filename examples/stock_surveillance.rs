//! Stock surveillance (the paper's second driving application): detect
//! intensive-transaction areas — dense clusters in the 4-d
//! (type, price, volume, time) space of an STT-like trade stream — and
//! search the stream history for similar transaction patterns regardless
//! of where in price/time they occurred (non-position-sensitive matching
//! with analyst-tuned feature weights).
//!
//! ```text
//! cargo run --release --example stock_surveillance
//! ```

use streamsum::prelude::*;

fn main() -> Result<()> {
    // §8.1 case 2: θr = 0.1, θc = 8, win = 10K, slide = 1K (scaled 1/2).
    let query = ClusterQuery::new(0.1, 8, 4, WindowSpec::count(5000, 500)?)?;
    let mut pipeline = StreamPipeline::new(query, ArchivePolicy::All, 11)?;

    let stream = generate_stt(&SttConfig {
        n_records: 60_000,
        ..SttConfig::default()
    });

    let mut windows = 0;
    let mut total_clusters = 0;
    let mut last_window = Vec::new();
    for p in stream {
        for (window, clusters) in pipeline.push(p)? {
            windows += 1;
            total_clusters += clusters.len();
            if windows <= 5 {
                for c in &clusters {
                    let f = c.sgs.features();
                    println!(
                        "window {window}: intensive-transaction area — {} trades, \
                         features [vol {:.0} cells, {:.0} core, density {:.1}, conn {:.1}]",
                        c.population(),
                        f[0],
                        f[1],
                        f[2],
                        f[3],
                    );
                }
            }
            last_window = clusters;
        }
    }
    println!(
        "\n{windows} windows, {total_clusters} intensive-transaction areas detected, \
         {} archived",
        pipeline.base().len()
    );

    let Some(current) = last_window.iter().max_by_key(|c| c.population()) else {
        println!("no pattern in the last window");
        return Ok(());
    };

    // Analyst weights: density distribution and connectivity matter more
    // than absolute size when comparing transaction patterns.
    let config = MatchConfig {
        position_sensitive: false,
        weights: [0.15, 0.15, 0.4, 0.3],
        threshold: 0.3,
    };
    config.validate()?;
    let outcome = pipeline.base().match_query(&current.sgs, &config);
    println!(
        "\nmatching query (weights [0.15, 0.15, 0.40, 0.30]): {} candidates, \
         {} refined, {} similar historical patterns",
        outcome.candidates,
        outcome.refined,
        outcome.matches.len()
    );
    for m in outcome.matches.iter().take(5) {
        let a = pipeline.archived(m.id).unwrap();
        println!("   window {} at distance {:.3}", a.window, m.distance);
    }
    Ok(())
}
