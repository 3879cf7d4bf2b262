//! Traffic monitoring (the paper's §1 motivating scenario): detect
//! congestion areas — density-based clusters of vehicle positions — in a
//! GMTI-like moving-object stream, watch them evolve across windows, and
//! when a new congestion arises, ask whether a *similar* congestion
//! pattern was seen before (position-sensitive matching: same place, same
//! structure).
//!
//! ```text
//! cargo run --release --example traffic_monitoring
//! ```

use streamsum::prelude::*;

fn main() -> Result<()> {
    // 2-d positions; congestion = ≥ 8 vehicles within 0.5 distance units.
    let query = ClusterQuery::new(0.5, 8, 2, WindowSpec::count(4000, 1000)?)?;
    let mut pipeline = StreamPipeline::new(query, ArchivePolicy::MinPopulation(30), 7)?;

    let stream = generate_gmti(&GmtiConfig {
        n_records: 40_000,
        n_convoys: 8,
        ..GmtiConfig::default()
    });

    let mut last_windows = Vec::new();
    for p in stream {
        for (window, clusters) in pipeline.push(p)? {
            let congested: Vec<_> = clusters.iter().filter(|c| c.population() >= 30).collect();
            if last_windows.len() < 8 {
                println!(
                    "window {window}: {} cluster(s), {} congestion-grade \
                     (≥30 vehicles); largest {}",
                    clusters.len(),
                    congested.len(),
                    clusters.iter().map(|c| c.population()).max().unwrap_or(0),
                );
            }
            last_windows.push((window, clusters));
        }
    }
    let (offered, archived) = pipeline.archive_stats();
    println!(
        "\n{} windows processed; archiver kept {archived} of {offered} clusters \
         (feature selection: population ≥ 30)",
        last_windows.len()
    );

    // A new congestion was just detected — has this area been congested
    // with a similar structure before? (position-sensitive: ps = 1)
    let Some(current) = last_windows
        .last()
        .and_then(|(_, clusters)| clusters.iter().max_by_key(|c| c.population()))
    else {
        println!("no clusters in the last window");
        return Ok(());
    };
    println!(
        "\nto-be-matched congestion: {} vehicles across {} grid cells",
        current.population(),
        current.sgs.volume()
    );
    let config = MatchConfig::equal_weights(true, 0.3);
    let outcome = pipeline.base().match_query(&current.sgs, &config);
    println!(
        "position-sensitive matching: {} overlapping candidates, {} refined, \
         {} historical congestion(s) similar",
        outcome.candidates,
        outcome.refined,
        outcome.matches.len()
    );
    for m in outcome.matches.iter().take(5) {
        let a = pipeline.archived(m.id).unwrap();
        println!(
            "   window {}: distance {:.3} — reuse that window's congestion-relief plan",
            a.window, m.distance
        );
    }
    Ok(())
}
