//! Cross-crate equivalence tests: every discovery algorithm must produce the
//! same fact stream as the brute-force reference on realistic generated
//! workloads (NBA, weather, and generic anti-correlated data).
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    reason = "test code: a failed unwrap is a failed test"
)]

use sitfact_core::pair::canonical_sort;
use situational_facts::datagen::generic::{Correlation, GenericConfig, GenericGenerator};
use situational_facts::datagen::nba::{NbaConfig, NbaGenerator};
use situational_facts::datagen::weather::{WeatherConfig, WeatherGenerator};
use situational_facts::datagen::DataGenerator;
use situational_facts::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Streams `n` rows from `generator` through every algorithm and asserts that
/// each produces exactly the brute-force fact set at every arrival.
fn assert_all_algorithms_agree<G: DataGenerator>(
    mut generator: G,
    n: usize,
    config: DiscoveryConfig,
) {
    let schema = generator.schema().clone();
    let mut table = Table::new(schema.clone());

    let mut reference = BruteForce::new(&schema, config);
    // One store directory per file-backed kind and call: the tests of this
    // binary run on parallel threads in one process, and two of them share a
    // schema name, so neither the pid nor the name tells the calls apart.
    static CALLS: AtomicUsize = AtomicUsize::new(0);
    let call = CALLS.fetch_add(1, Ordering::Relaxed);
    let fs_dir = |kind: AlgorithmKind| {
        let dir = std::env::temp_dir().join(format!(
            "sitfact-eq-{kind}-{}-{call}-{}",
            std::process::id(),
            schema.name()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    };
    // Every kind but the reference itself, each named by its kind:
    // `Discovery::name` is the algorithm's, so the file-backed instantiations
    // would report as their in-memory twins.
    let kinds = [
        &AlgorithmKind::IN_MEMORY[1..],
        &[AlgorithmKind::FsBottomUp, AlgorithmKind::FsTopDown],
    ]
    .concat();
    let dirs: Vec<_> = kinds.iter().map(|&kind| fs_dir(kind)).collect();
    let mut algorithms: Vec<Box<dyn Discovery>> = kinds
        .iter()
        .zip(&dirs)
        .map(|(kind, dir)| kind.build(&schema, config, Some(dir)).unwrap())
        .collect();

    let tuples = (table.schema_mut())
        .encode_rows(&generator.take_rows(n))
        .expect("rows encode");
    for (step, tuple) in tuples.into_iter().enumerate() {
        let mut expected = reference.discover(&table, &tuple);
        canonical_sort(&mut expected);
        for (kind, algo) in kinds.iter().zip(algorithms.iter_mut()) {
            let mut actual = algo.discover(&table, &tuple);
            canonical_sort(&mut actual);
            assert_eq!(
                expected,
                actual,
                "{kind} diverged from BruteForce at tuple {step} of {}",
                schema.name()
            );
        }
        table.append(tuple).unwrap();
    }

    drop(algorithms);
    for dir in dirs {
        let _ = std::fs::remove_dir_all(dir);
    }
}

#[test]
fn all_algorithms_agree_on_nba_stream() {
    let generator = NbaGenerator::new(NbaConfig {
        dimensions: 4,
        measures: 3,
        players: 25,
        teams: 6,
        seasons: 2,
        games_per_season: 60,
        seed: 424_242,
    });
    assert_all_algorithms_agree(generator, 90, DiscoveryConfig::unrestricted());
}

#[test]
fn all_algorithms_agree_on_nba_stream_with_caps() {
    let generator = NbaGenerator::new(NbaConfig {
        dimensions: 5,
        measures: 4,
        players: 20,
        teams: 5,
        seasons: 2,
        games_per_season: 40,
        seed: 31_337,
    });
    assert_all_algorithms_agree(generator, 60, DiscoveryConfig::capped(3, 3));
}

#[test]
fn all_algorithms_agree_on_weather_stream() {
    let generator = WeatherGenerator::new(WeatherConfig {
        dimensions: 4,
        measures: 3,
        locations: 15,
        records_per_day: 15,
        seed: 55,
    });
    assert_all_algorithms_agree(generator, 80, DiscoveryConfig::unrestricted());
}

#[test]
fn all_algorithms_agree_on_anticorrelated_workload() {
    // Anti-correlated measures maximise skyline sizes — the stress case for
    // store maintenance (demotions in TopDown, deletions in BottomUp).
    let generator = GenericGenerator::new(GenericConfig {
        dim_cardinalities: vec![3, 3, 2],
        measures: 3,
        correlation: Correlation::AntiCorrelated,
        seed: 77,
    });
    assert_all_algorithms_agree(generator, 80, DiscoveryConfig::unrestricted());
}

#[test]
fn all_algorithms_agree_with_duplicate_heavy_workload() {
    // Many exactly-equal measure vectors exercise the tie-handling paths of
    // the dominance relation (equal tuples never dominate each other).
    let generator = GenericGenerator::new(GenericConfig {
        dim_cardinalities: vec![2, 2],
        measures: 2,
        correlation: Correlation::Correlated,
        seed: 88,
    });
    // Quantise measures to a handful of values by regenerating rows.
    struct Quantised<G>(G);
    impl<G: DataGenerator> DataGenerator for Quantised<G> {
        fn schema(&self) -> &Schema {
            self.0.schema()
        }
        fn next_row(&mut self) -> RawRow {
            let mut row = self.0.next_row();
            for m in &mut row.measures {
                *m = (*m / 250.0).round();
            }
            row
        }
    }
    assert_all_algorithms_agree(Quantised(generator), 100, DiscoveryConfig::unrestricted());
}

#[test]
fn all_algorithms_agree_with_two_words_of_subspaces() {
    // Six measures at unrestricted `m̂`: a family of 63 subspaces, so the
    // in-memory store keeps two words of subspace bits per stored tuple.
    let generator = GenericGenerator::new(GenericConfig {
        dim_cardinalities: vec![3, 2, 2],
        measures: 6,
        correlation: Correlation::AntiCorrelated,
        seed: 606,
    });
    assert_all_algorithms_agree(generator, 50, DiscoveryConfig::unrestricted());
}
