//! Synthetic daily weather-forecast generator.
//!
//! Mirrors the paper's UK Met Office dataset: 7 dimension attributes
//! (location, country, month, time step, day/night wind direction, visibility
//! range) and 7 measure attributes (day/night wind speed, day/night
//! temperature, day/night humidity, wind gust), with thousands of locations in
//! six countries and a stream that advances through the months of a year. As
//! in the paper, all measures are treated as higher-is-better.

use crate::rand_util::normal;
use crate::{DataGenerator, Row};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sitfact_core::{Direction, Schema, SchemaBuilder};

/// The dimension attributes used for each value of `d` (the paper evaluates
/// the weather dataset at `d = 5`; smaller/larger spaces are nested subsets).
pub fn weather_dimension_names(d: usize) -> Vec<&'static str> {
    match d {
        4 => vec!["location", "country", "month", "visibility"],
        5 => vec!["location", "country", "month", "wind_dir_day", "visibility"],
        6 => vec![
            "location",
            "country",
            "month",
            "time_step",
            "wind_dir_day",
            "visibility",
        ],
        7 => vec![
            "location",
            "country",
            "month",
            "time_step",
            "wind_dir_day",
            "wind_dir_night",
            "visibility",
        ],
        #[expect(
            clippy::panic,
            reason = "documented precondition of the synthetic dataset catalog"
        )]
        _ => panic!("the weather dataset defines dimension spaces for d in 4..=7, got {d}"),
    }
}

/// The first `m` of the weather measure attributes.
pub fn weather_measure_names(m: usize) -> Vec<(&'static str, Direction)> {
    let all = [
        "wind_speed_day",
        "wind_speed_night",
        "temperature_day",
        "temperature_night",
        "humidity_day",
        "humidity_night",
        "wind_gust",
    ];
    assert!((1..=all.len()).contains(&m), "m must be in 1..=7, got {m}");
    all[..m]
        .iter()
        .map(|&n| (n, Direction::HigherIsBetter))
        .collect()
}

/// Builds the weather schema for the given dimension / measure space sizes.
pub fn weather_schema(d: usize, m: usize) -> Schema {
    let mut builder = SchemaBuilder::new("uk_weather").dimensions(weather_dimension_names(d));
    for (name, dir) in weather_measure_names(m) {
        builder = builder.measure(name, dir);
    }
    #[expect(
        clippy::expect_used,
        reason = "fixed name catalog, duplicates impossible"
    )]
    let schema = builder.build().expect("weather schema is valid");
    schema
}

/// Configuration of the [`WeatherGenerator`].
#[derive(Debug, Clone, PartialEq)]
pub struct WeatherConfig {
    /// Number of dimension attributes (4–7).
    pub dimensions: usize,
    /// Number of measure attributes (1–7).
    pub measures: usize,
    /// Number of forecast locations (the paper's dataset has 5,365).
    pub locations: usize,
    /// Forecast records per simulated day (controls how fast the `month`
    /// dimension advances).
    pub records_per_day: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for WeatherConfig {
    fn default() -> Self {
        WeatherConfig {
            dimensions: 5,
            measures: 7,
            locations: 5_365,
            records_per_day: 5_365,
            seed: 2011,
        }
    }
}

const COUNTRIES: [&str; 6] = [
    "England",
    "Scotland",
    "Wales",
    "NorthernIreland",
    "IsleOfMan",
    "ChannelIslands",
];
const MONTHS: [&str; 12] = [
    "Dec", "Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov",
];
const WIND_DIRS: [&str; 8] = ["N", "NE", "E", "SE", "S", "SW", "W", "NW"];
const VISIBILITY: [&str; 5] = ["VeryPoor", "Poor", "Moderate", "Good", "VeryGood"];
const TIME_STEPS: [&str; 2] = ["Day", "Night"];

#[derive(Debug, Clone)]
struct LocationProfile {
    name: String,
    country: usize,
    /// Base temperature offset (coastal vs inland, north vs south).
    temp_offset: f64,
    /// Base windiness.
    wind_factor: f64,
}

/// Streaming generator of synthetic forecast records.
#[derive(Debug)]
pub struct WeatherGenerator {
    schema: Schema,
    config: WeatherConfig,
    rng: StdRng,
    locations: Vec<LocationProfile>,
    generated: usize,
}

impl WeatherGenerator {
    /// Creates a generator from a configuration.
    pub fn new(config: WeatherConfig) -> Self {
        let schema = weather_schema(config.dimensions, config.measures);
        let mut rng = StdRng::seed_from_u64(config.seed);
        let locations = (0..config.locations)
            .map(|i| LocationProfile {
                name: format!("Loc{i:04}"),
                country: rng.gen_range(0..COUNTRIES.len()),
                temp_offset: normal(&mut rng, 0.0, 2.0),
                wind_factor: rng.gen_range(0.6..1.6),
            })
            .collect();
        WeatherGenerator {
            schema,
            config,
            rng,
            locations,
            generated: 0,
        }
    }

    /// Convenience constructor matching the paper's configuration (`d = 5`,
    /// `m = 7`).
    pub fn with_defaults(seed: u64) -> Self {
        Self::new(WeatherConfig {
            seed,
            ..WeatherConfig::default()
        })
    }

    fn month_index(&self) -> usize {
        let day = self.generated / self.config.records_per_day.max(1);
        (day / 30) % MONTHS.len()
    }
}

impl DataGenerator for WeatherGenerator {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next_row(&mut self) -> Row {
        let month = self.month_index();
        let loc_idx = self.rng.gen_range(0..self.locations.len());
        let loc = self.locations[loc_idx].clone();
        // Seasonal cycle: warm summers, windy winters.
        let season_phase = (month as f64 / 12.0) * std::f64::consts::TAU;
        let seasonal_temp = 9.0 - 7.0 * season_phase.cos();
        let seasonal_wind = 14.0 + 6.0 * season_phase.cos();

        let wind_day = normal(&mut self.rng, seasonal_wind * loc.wind_factor, 4.0).max(0.0);
        let wind_night = (wind_day * self.rng.gen_range(0.6..1.1)).max(0.0);
        let temp_day = normal(&mut self.rng, seasonal_temp + loc.temp_offset, 3.0);
        let temp_night = temp_day - self.rng.gen_range(2.0..8.0);
        let humidity_day = normal(&mut self.rng, 75.0, 10.0).clamp(20.0, 100.0);
        let humidity_night = (humidity_day + self.rng.gen_range(0.0..15.0)).min(100.0);
        let gust = wind_day * self.rng.gen_range(1.3..2.2);
        let all = [
            wind_day.round(),
            wind_night.round(),
            temp_day.round(),
            temp_night.round(),
            humidity_day.round(),
            humidity_night.round(),
            gust.round(),
        ];
        let measures = all[..self.config.measures].to_vec();

        let visibility = VISIBILITY[self
            .rng
            .gen_range(0..VISIBILITY.len())
            .min(VISIBILITY.len() - 1)];
        let mut dims = Vec::with_capacity(self.config.dimensions);
        for name in weather_dimension_names(self.config.dimensions) {
            let value = match name {
                "location" => loc.name.clone(),
                "country" => COUNTRIES[loc.country].to_string(),
                "month" => MONTHS[month].to_string(),
                "time_step" => TIME_STEPS[self.rng.gen_range(0..TIME_STEPS.len())].to_string(),
                "wind_dir_day" => WIND_DIRS[self.rng.gen_range(0..WIND_DIRS.len())].to_string(),
                "wind_dir_night" => WIND_DIRS[self.rng.gen_range(0..WIND_DIRS.len())].to_string(),
                "visibility" => visibility.to_string(),
                other => unreachable!("unknown weather dimension {other}"),
            };
            dims.push(value);
        }
        self.generated += 1;
        Row { dims, measures }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schema_shapes() {
        for d in 4..=7 {
            for m in 1..=7 {
                let schema = weather_schema(d, m);
                assert_eq!(schema.num_dimensions(), d);
                assert_eq!(schema.num_measures(), m);
            }
        }
    }

    #[test]
    #[should_panic(expected = "dimension spaces")]
    fn invalid_dimension_count_panics() {
        let _ = weather_dimension_names(9);
    }

    #[test]
    fn generates_valid_rows() {
        let mut gen = WeatherGenerator::new(WeatherConfig {
            locations: 100,
            records_per_day: 100,
            seed: 3,
            ..WeatherConfig::default()
        });
        let table = gen.table_of(2_000).unwrap();
        assert_eq!(table.len(), 2_000);
        let schema = table.schema();
        assert!(schema.dictionary(0).len() <= 100); // locations
        assert!(schema.dictionary(1).len() <= 6); // countries
        for (_, t) in table.iter() {
            for &v in t.measures() {
                assert!(v.is_finite());
            }
            assert!(t.measure(4) >= 20.0 && t.measure(4) <= 100.0); // humidity bounds
        }
    }

    #[test]
    fn months_advance_over_long_streams() {
        let mut gen = WeatherGenerator::new(WeatherConfig {
            locations: 10,
            records_per_day: 10,
            seed: 4,
            ..WeatherConfig::default()
        });
        // 10 records/day * 30 days = 300 records per month bucket.
        let rows = gen.take_rows(700);
        assert_eq!(rows[0].dims[2], "Dec");
        assert_ne!(rows[0].dims[2], rows[650].dims[2]);
    }

    #[test]
    fn determinism_per_seed() {
        let cfg = WeatherConfig {
            locations: 20,
            seed: 10,
            ..WeatherConfig::default()
        };
        let mut a = WeatherGenerator::new(cfg.clone());
        let mut b = WeatherGenerator::new(cfg);
        assert_eq!(a.take_rows(30), b.take_rows(30));
        let _ = WeatherGenerator::with_defaults(1).next_row();
    }
}
