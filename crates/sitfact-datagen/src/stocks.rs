//! A small synthetic stock-tick generator, used by the `stock_alerts`
//! example (the paper's introduction motivates situational facts on stock
//! data: "Stock A becomes the first stock in history with price over $300 and
//! market cap over $400 billion").

use crate::rand_util::normal;
use crate::DataGenerator;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sitfact_core::{Direction, RawRow, Schema, SchemaBuilder};

/// Configuration of the [`StockGenerator`].
#[derive(Debug, Clone, PartialEq)]
pub struct StockConfig {
    /// Number of distinct tickers.
    pub tickers: usize,
    /// Ticks generated per simulated trading day.
    pub ticks_per_day: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for StockConfig {
    fn default() -> Self {
        StockConfig {
            tickers: 120,
            ticks_per_day: 120,
            seed: 2008,
        }
    }
}

const SECTORS: [&str; 8] = [
    "Tech",
    "Finance",
    "Energy",
    "Health",
    "Retail",
    "Industrial",
    "Utilities",
    "Media",
];
const EXCHANGES: [&str; 3] = ["NYSE", "NASDAQ", "LSE"];
const QUARTERS: [&str; 4] = ["Q1", "Q2", "Q3", "Q4"];

#[derive(Debug, Clone)]
struct TickerProfile {
    symbol: String,
    sector: usize,
    exchange: usize,
    price: f64,
    shares_billions: f64,
}

/// Generates a daily close stream: dimensions (ticker, sector, exchange,
/// quarter), measures (price, volume in millions, market cap in billions,
/// daily percent change; drawdown is lower-is-better).
#[derive(Debug)]
pub struct StockGenerator {
    schema: Schema,
    config: StockConfig,
    rng: StdRng,
    tickers: Vec<TickerProfile>,
    generated: usize,
}

impl StockGenerator {
    /// Creates a generator from a configuration.
    pub fn new(config: StockConfig) -> Self {
        #[expect(
            clippy::expect_used,
            reason = "fixed name catalog, duplicates impossible"
        )]
        let schema = SchemaBuilder::new("stock_ticks")
            .dimension("ticker")
            .dimension("sector")
            .dimension("exchange")
            .dimension("quarter")
            .measure("price", Direction::HigherIsBetter)
            .measure("volume_m", Direction::HigherIsBetter)
            .measure("market_cap_b", Direction::HigherIsBetter)
            .measure("drawdown_pct", Direction::LowerIsBetter)
            .build()
            .expect("stock schema is valid");
        let mut rng = StdRng::seed_from_u64(config.seed);
        let tickers = (0..config.tickers)
            .map(|i| TickerProfile {
                symbol: format!("TCK{i:03}"),
                sector: rng.gen_range(0..SECTORS.len()),
                exchange: rng.gen_range(0..EXCHANGES.len()),
                price: rng.gen_range(5.0..400.0),
                shares_billions: rng.gen_range(0.05..6.0),
            })
            .collect();
        StockGenerator {
            schema,
            config,
            rng,
            tickers,
            generated: 0,
        }
    }
}

impl DataGenerator for StockGenerator {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next_row(&mut self) -> RawRow {
        let idx = self.rng.gen_range(0..self.tickers.len());
        // Random walk with slight upward drift.
        let drift = normal(&mut self.rng, 0.0005, 0.02);
        let (symbol, sector, exchange, price, cap) = {
            let ticker = &mut self.tickers[idx];
            ticker.price = (ticker.price * (1.0 + drift)).max(0.5);
            (
                ticker.symbol.clone(),
                ticker.sector,
                ticker.exchange,
                ticker.price,
                ticker.price * ticker.shares_billions,
            )
        };
        let day = self.generated / self.config.ticks_per_day.max(1);
        let quarter = QUARTERS[(day / 63) % QUARTERS.len()];
        let volume = normal(&mut self.rng, 30.0, 12.0).max(0.1);
        let drawdown = (-drift.min(0.0)) * 100.0;
        self.generated += 1;
        RawRow {
            dims: vec![
                symbol,
                SECTORS[sector].to_string(),
                EXCHANGES[exchange].to_string(),
                quarter.to_string(),
            ],
            measures: vec![
                (price * 100.0).round() / 100.0,
                volume.round(),
                (cap * 10.0).round() / 10.0,
                (drawdown * 100.0).round() / 100.0,
            ],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_valid_rows() {
        let mut gen = StockGenerator::new(StockConfig {
            tickers: 20,
            ticks_per_day: 20,
            seed: 1,
        });
        assert_eq!(gen.schema().num_dimensions(), 4);
        assert_eq!(gen.schema().num_measures(), 4);
        let table = gen.table_of(500).unwrap();
        assert_eq!(table.len(), 500);
        assert!(table.schema().dictionary(0).len() <= 20);
        for (_, t) in table.iter() {
            assert!(t.measure(0) > 0.0);
            assert!(t.measure(3) >= 0.0);
        }
    }

    #[test]
    fn prices_follow_a_random_walk_per_ticker() {
        let mut gen = StockGenerator::new(StockConfig {
            tickers: 1,
            ticks_per_day: 1,
            seed: 2,
        });
        let rows = gen.take_rows(100);
        let first = rows[0].measures[0];
        let last = rows[99].measures[0];
        assert_ne!(first, last);
        // Prices never collapse to zero.
        assert!(rows.iter().all(|r| r.measures[0] >= 0.5));
    }

    #[test]
    fn determinism_per_seed() {
        let cfg = StockConfig {
            tickers: 5,
            ticks_per_day: 5,
            seed: 3,
        };
        let mut a = StockGenerator::new(cfg.clone());
        let mut b = StockGenerator::new(cfg);
        assert_eq!(a.take_rows(25), b.take_rows(25));
    }
}
