//! Synthetic NBA box-score generator.
//!
//! Reproduces the shape of the paper's NBA dataset (317,371 box scores,
//! 1991–2004): the same dimension spaces (Table V) and measure spaces
//! (Table VI), realistic attribute cardinalities (~1,500 players, 29 teams,
//! 13 seasons, 8 months of play), star-player skew, and per-player skill
//! levels that correlate the counting stats. Fouls and turnovers are
//! lower-is-better, exercising mixed preference directions.

use crate::rand_util::{clamp_round, normal, poisson, ZipfSampler};
use crate::DataGenerator;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sitfact_core::{Direction, RawRow, Schema, SchemaBuilder};

/// The dimension attributes used for each value of `d` in the paper's
/// experiments (Table V), plus the full 8-attribute space.
pub fn nba_dimension_names(d: usize) -> Vec<&'static str> {
    match d {
        4 => vec!["player", "season", "team", "opp_team"],
        5 => vec!["player", "season", "month", "team", "opp_team"],
        6 => vec!["position", "college", "state", "season", "team", "opp_team"],
        7 => vec![
            "position", "college", "state", "season", "month", "team", "opp_team",
        ],
        8 => vec![
            "player", "position", "college", "state", "season", "month", "team", "opp_team",
        ],
        #[expect(
            clippy::panic,
            reason = "documented precondition of the synthetic dataset catalog"
        )]
        _ => panic!("the NBA dataset defines dimension spaces for d in 4..=8, got {d}"),
    }
}

/// The measure attributes used for each value of `m` (Table VI): the first
/// `m` of points, rebounds, assists, blocks, steals, fouls, turnovers.
/// Fouls and turnovers are lower-is-better.
pub fn nba_measure_names(m: usize) -> Vec<(&'static str, Direction)> {
    let all = [
        ("points", Direction::HigherIsBetter),
        ("rebounds", Direction::HigherIsBetter),
        ("assists", Direction::HigherIsBetter),
        ("blocks", Direction::HigherIsBetter),
        ("steals", Direction::HigherIsBetter),
        ("fouls", Direction::LowerIsBetter),
        ("turnovers", Direction::LowerIsBetter),
    ];
    assert!((1..=all.len()).contains(&m), "m must be in 1..=7, got {m}");
    all[..m].to_vec()
}

/// Builds the NBA schema for the given dimension / measure space sizes.
pub fn nba_schema(d: usize, m: usize) -> Schema {
    let mut builder = SchemaBuilder::new("nba_gamelog").dimensions(nba_dimension_names(d));
    for (name, dir) in nba_measure_names(m) {
        builder = builder.measure(name, dir);
    }
    #[expect(
        clippy::expect_used,
        reason = "fixed name catalog, duplicates impossible"
    )]
    let schema = builder.build().expect("NBA schema is valid");
    schema
}

/// Configuration of the [`NbaGenerator`].
#[derive(Debug, Clone, PartialEq)]
pub struct NbaConfig {
    /// Number of dimension attributes (4–8, see [`nba_dimension_names`]).
    pub dimensions: usize,
    /// Number of measure attributes (1–7, see [`nba_measure_names`]).
    pub measures: usize,
    /// Number of distinct players across the whole stream.
    pub players: usize,
    /// Number of teams.
    pub teams: usize,
    /// Number of seasons the stream spans.
    pub seasons: usize,
    /// Box scores generated per season (controls how fast the `season`
    /// dimension advances and therefore how often new contexts appear).
    pub games_per_season: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for NbaConfig {
    fn default() -> Self {
        NbaConfig {
            dimensions: 5,
            measures: 7,
            players: 1_500,
            teams: 29,
            seasons: 13,
            games_per_season: 25_000,
            seed: 1991,
        }
    }
}

#[derive(Debug, Clone)]
struct PlayerProfile {
    name: String,
    position: usize,
    college: usize,
    state: usize,
    team: usize,
    /// Scoring skill in [0.3, 2.5]; multiplies the baseline stat rates.
    skill: f64,
    /// First season in which the player appears (new players join over time,
    /// which is what keeps new contexts forming — Fig. 14's observation).
    debut_season: usize,
}

/// Streaming generator of synthetic box scores.
#[derive(Debug)]
pub struct NbaGenerator {
    schema: Schema,
    config: NbaConfig,
    rng: StdRng,
    players: Vec<PlayerProfile>,
    star_sampler: ZipfSampler,
    generated: usize,
}

const POSITIONS: [&str; 5] = ["PG", "SG", "SF", "PF", "C"];
const MONTHS: [&str; 8] = ["Nov", "Dec", "Jan", "Feb", "Mar", "Apr", "May", "Jun"];
const NUM_COLLEGES: usize = 280;
const NUM_STATES: usize = 50;

impl NbaGenerator {
    /// Creates a generator from a configuration.
    pub fn new(config: NbaConfig) -> Self {
        let schema = nba_schema(config.dimensions, config.measures);
        let mut rng = StdRng::seed_from_u64(config.seed);
        let players = (0..config.players)
            .map(|i| PlayerProfile {
                name: format!("Player{i:04}"),
                position: rng.gen_range(0..POSITIONS.len()),
                college: rng.gen_range(0..NUM_COLLEGES),
                state: rng.gen_range(0..NUM_STATES),
                team: rng.gen_range(0..config.teams),
                skill: (0.3 + rng.gen_range(0.0..1.0f64).powf(2.0) * 2.2),
                debut_season: rng.gen_range(0..config.seasons.max(1)),
            })
            .collect();
        let star_sampler = ZipfSampler::new(config.players, 0.6);
        NbaGenerator {
            schema,
            config,
            rng,
            players,
            star_sampler,
            generated: 0,
        }
    }

    /// Convenience constructor matching the paper's default configuration
    /// (`d = 5`, `m = 7`).
    pub fn with_defaults(seed: u64) -> Self {
        Self::new(NbaConfig {
            seed,
            ..NbaConfig::default()
        })
    }

    fn current_season(&self) -> usize {
        (self.generated / self.config.games_per_season.max(1)).min(self.config.seasons - 1)
    }

    fn season_label(season: usize) -> String {
        let start = 1991 + season;
        format!("{start}-{:02}", (start + 1) % 100)
    }

    fn stat_line(&mut self, skill: f64, position: usize) -> Vec<f64> {
        // Baselines loosely modelled on box-score averages; skill scales the
        // ball-dominant stats, position shifts rebounds/assists/blocks.
        let rng = &mut self.rng;
        let minutes_factor: f64 = rng.gen_range(0.4..1.0);
        let points = clamp_round(normal(rng, 11.0 * skill * minutes_factor, 6.0), 81.0);
        let rebounds = clamp_round(
            normal(
                rng,
                (2.5 + position as f64 * 1.4) * minutes_factor * skill.sqrt(),
                2.5,
            ),
            35.0,
        );
        let assists = clamp_round(
            normal(
                rng,
                (5.5 - position as f64 * 1.0).max(0.8) * minutes_factor * skill.sqrt(),
                2.0,
            ),
            25.0,
        );
        let blocks = poisson(rng, 0.4 + position as f64 * 0.25) as f64;
        let steals = poisson(rng, 1.0 * minutes_factor + 0.2) as f64;
        let fouls = (poisson(rng, 2.2) as f64).min(6.0);
        let turnovers = poisson(rng, 1.2 + skill * 0.6) as f64;
        let all = [points, rebounds, assists, blocks, steals, fouls, turnovers];
        all[..self.config.measures].to_vec()
    }
}

impl DataGenerator for NbaGenerator {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next_row(&mut self) -> RawRow {
        let season = self.current_season();
        // Prefer players who have already debuted; stars appear more often.
        let player_idx = loop {
            let idx = self.star_sampler.sample(&mut self.rng);
            if self.players[idx].debut_season <= season || self.rng.gen_bool(0.02) {
                break idx;
            }
        };
        let player = self.players[player_idx].clone();
        let month = MONTHS[self.rng.gen_range(0..MONTHS.len())];
        let opp_team = {
            let mut opp = self.rng.gen_range(0..self.config.teams);
            if opp == player.team {
                opp = (opp + 1) % self.config.teams;
            }
            opp
        };
        let measures = self.stat_line(player.skill, player.position);
        let season_label = Self::season_label(season);
        let mut dims = Vec::with_capacity(self.config.dimensions);
        for name in nba_dimension_names(self.config.dimensions) {
            let value = match name {
                "player" => player.name.clone(),
                "position" => POSITIONS[player.position].to_string(),
                "college" => format!("College{:03}", player.college),
                "state" => format!("State{:02}", player.state),
                "season" => season_label.clone(),
                "month" => month.to_string(),
                "team" => format!("Team{:02}", player.team),
                "opp_team" => format!("Team{:02}", opp_team),
                other => unreachable!("unknown NBA dimension {other}"),
            };
            dims.push(value);
        }
        self.generated += 1;
        RawRow { dims, measures }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schema_matches_table_v_and_vi() {
        for d in 4..=8 {
            for m in 1..=7 {
                let schema = nba_schema(d, m);
                assert_eq!(schema.num_dimensions(), d);
                assert_eq!(schema.num_measures(), m);
            }
        }
        let s = nba_schema(5, 7);
        assert_eq!(
            s.dimension_names(),
            &["player", "season", "month", "team", "opp_team"]
        );
        assert_eq!(s.directions()[5], Direction::LowerIsBetter); // fouls
        assert_eq!(s.directions()[6], Direction::LowerIsBetter); // turnovers
        assert_eq!(s.directions()[0], Direction::HigherIsBetter); // points
    }

    #[test]
    #[should_panic(expected = "dimension spaces")]
    fn invalid_dimension_count_panics() {
        let _ = nba_dimension_names(3);
    }

    #[test]
    fn generates_valid_rows_with_plausible_cardinalities() {
        let mut gen = NbaGenerator::new(NbaConfig {
            players: 200,
            teams: 29,
            seasons: 3,
            games_per_season: 1_000,
            seed: 5,
            ..NbaConfig::default()
        });
        let table = gen.table_of(3_000).unwrap();
        assert_eq!(table.len(), 3_000);
        let schema = table.schema();
        // player, season, month, team, opp_team cardinalities.
        assert!(schema.dictionary(0).len() <= 200);
        assert!(
            schema.dictionary(0).len() > 50,
            "expected many distinct players"
        );
        assert_eq!(schema.dictionary(1).len(), 3); // seasons span the stream
        assert!(schema.dictionary(2).len() <= 8);
        assert!(schema.dictionary(3).len() <= 29);
        // All measures are finite and non-negative; fouls capped at 6.
        for (_, t) in table.iter() {
            for (i, &v) in t.measures().iter().enumerate() {
                assert!(v.is_finite() && v >= 0.0, "measure {i} = {v}");
            }
            assert!(t.measure(5) <= 6.0);
        }
    }

    #[test]
    fn seasons_advance_over_the_stream() {
        let mut gen = NbaGenerator::new(NbaConfig {
            players: 50,
            seasons: 4,
            games_per_season: 100,
            seed: 6,
            ..NbaConfig::default()
        });
        let rows = gen.take_rows(400);
        let first_season = rows[0].dims[1].clone();
        let last_season = rows[399].dims[1].clone();
        assert_ne!(first_season, last_season);
        assert_eq!(first_season, "1991-92");
    }

    #[test]
    fn determinism_per_seed() {
        let cfg = NbaConfig {
            players: 30,
            seed: 77,
            ..NbaConfig::default()
        };
        let mut a = NbaGenerator::new(cfg.clone());
        let mut b = NbaGenerator::new(cfg);
        assert_eq!(a.take_rows(50), b.take_rows(50));
        let mut c = NbaGenerator::with_defaults(78);
        let mut d = NbaGenerator::with_defaults(79);
        assert_ne!(c.take_rows(50), d.take_rows(50));
    }

    #[test]
    fn star_players_appear_more_often() {
        let mut gen = NbaGenerator::new(NbaConfig {
            players: 300,
            seasons: 1,
            games_per_season: 10_000,
            seed: 8,
            ..NbaConfig::default()
        });
        let rows = gen.take_rows(5_000);
        let mut counts = std::collections::HashMap::new();
        for row in &rows {
            *counts.entry(row.dims[0].clone()).or_insert(0u32) += 1;
        }
        let max = counts.values().max().copied().unwrap_or(0);
        let mean = rows.len() as f64 / counts.len() as f64;
        assert!(max as f64 > mean * 3.0, "max {max} mean {mean}");
    }
}
