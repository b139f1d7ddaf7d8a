//! Minimal CSV import/export so the library can be run over user-provided
//! datasets (e.g. real box scores) without further dependencies.
//!
//! Format: a header row with the attribute names, then one row per tuple.
//! Dimension columns are arbitrary strings (commas are not supported inside
//! values); measure columns must parse as floating-point numbers. Column
//! order must match the schema (dimensions first, then measures).

use sitfact_core::{RawRow, Result, Schema, SitFactError};
use sitfact_storage::Table;
use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::Path;

/// Writes a table to a CSV file (header + one line per tuple, dimension
/// values resolved through the dictionaries).
pub fn write_csv(table: &Table, path: impl AsRef<Path>) -> Result<()> {
    let schema = table.schema();
    let file = File::create(path)?;
    let mut out = BufWriter::new(file);
    let mut header: Vec<String> = schema.dimension_names().to_vec();
    header.extend(schema.measures().iter().map(|m| m.name.clone()));
    writeln!(out, "{}", header.join(","))?;
    for (_, tuple) in table.iter() {
        let mut fields: Vec<String> = Vec::with_capacity(header.len());
        for (i, &id) in tuple.dims().iter().enumerate() {
            fields.push(schema.resolve_dim(i, id).unwrap_or("?").to_string());
        }
        for &m in tuple.measures() {
            fields.push(format_measure(m));
        }
        writeln!(out, "{}", fields.join(","))?;
    }
    out.flush()?;
    Ok(())
}

fn format_measure(m: f64) -> String {
    if m.fract().abs() < 1e-9 {
        format!("{}", m as i64)
    } else {
        format!("{m}")
    }
}

/// Parses a CSV file into [`RawRow`]s under the given schema. The header must
/// contain exactly the schema's attribute names in order.
pub fn read_csv_rows(schema: &Schema, path: impl AsRef<Path>) -> Result<Vec<RawRow>> {
    let file = File::open(&path)?;
    let reader = BufReader::new(file);
    let mut lines = reader.lines();
    let header = lines
        .next()
        .ok_or_else(|| SitFactError::Parse("empty CSV file".into()))??;
    let mut expected: Vec<String> = schema.dimension_names().to_vec();
    expected.extend(schema.measures().iter().map(|m| m.name.clone()));
    let found: Vec<&str> = header.trim().split(',').collect();
    if found != expected.iter().map(String::as_str).collect::<Vec<_>>() {
        return Err(SitFactError::Parse(format!(
            "CSV header {found:?} does not match schema attributes {expected:?}"
        )));
    }
    let n_dims = schema.num_dimensions();
    let n_measures = schema.num_measures();
    let mut rows = Vec::new();
    for (line_no, line) in lines.enumerate() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let fields: Vec<&str> = line.split(',').collect();
        if fields.len() != n_dims + n_measures {
            return Err(SitFactError::Parse(format!(
                "line {}: expected {} fields, found {}",
                line_no + 2,
                n_dims + n_measures,
                fields.len()
            )));
        }
        let dims = fields[..n_dims]
            .iter()
            .map(|s| s.trim().to_string())
            .collect();
        let measures = fields[n_dims..]
            .iter()
            .map(|s| {
                s.trim().parse::<f64>().map_err(|_| {
                    SitFactError::Parse(format!(
                        "line {}: `{}` is not a number",
                        line_no + 2,
                        s.trim()
                    ))
                })
            })
            .collect::<Result<Vec<f64>>>()?;
        rows.push(RawRow { dims, measures });
    }
    Ok(rows)
}

/// Loads a CSV file directly into a fresh [`Table`] under `schema`.
pub fn read_csv(schema: &Schema, path: impl AsRef<Path>) -> Result<Table> {
    let rows = read_csv_rows(schema, path)?;
    let mut table = Table::with_capacity(schema.clone(), rows.len());
    let tuples = table.schema_mut().encode_rows(&rows)?;
    table.append_batch_slice(&tuples)?;
    Ok(table)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sitfact_core::{Direction, SchemaBuilder};
    use std::path::PathBuf;

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("sitfact-csv-{tag}-{}.csv", std::process::id()))
    }

    fn schema() -> Schema {
        SchemaBuilder::new("gamelog")
            .dimension("player")
            .dimension("team")
            .measure("points", Direction::HigherIsBetter)
            .measure("assists", Direction::HigherIsBetter)
            .build()
            .unwrap()
    }

    #[test]
    fn round_trip() {
        let path = temp_path("roundtrip");
        let mut table = Table::new(schema());
        table
            .append_raw(&["Wesley", "Celtics"], vec![12.0, 13.5])
            .unwrap();
        table
            .append_raw(&["Bogues", "Hornets"], vec![4.0, 12.0])
            .unwrap();
        write_csv(&table, &path).unwrap();

        let loaded = read_csv(&schema(), &path).unwrap();
        assert_eq!(loaded.len(), 2);
        assert_eq!(loaded.tuple(0).measures(), &[12.0, 13.5]);
        assert_eq!(
            loaded.schema().resolve_dim(0, loaded.tuple(1).dim(0)),
            Some("Bogues")
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn rejects_wrong_header_and_bad_numbers() {
        let path = temp_path("badheader");
        std::fs::write(&path, "a,b,c,d\nx,y,1,2\n").unwrap();
        assert!(read_csv(&schema(), &path).is_err());

        std::fs::write(&path, "player,team,points,assists\nx,y,notanumber,2\n").unwrap();
        let err = read_csv(&schema(), &path).unwrap_err();
        assert!(matches!(err, SitFactError::Parse(_)));

        std::fs::write(&path, "player,team,points,assists\nx,y,1\n").unwrap();
        assert!(read_csv(&schema(), &path).is_err());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn skips_blank_lines_and_handles_empty_file() {
        let path = temp_path("blank");
        std::fs::write(&path, "player,team,points,assists\n\nx,y,1,2\n\n").unwrap();
        let rows = read_csv_rows(&schema(), &path).unwrap();
        assert_eq!(rows.len(), 1);

        std::fs::write(&path, "").unwrap();
        assert!(read_csv_rows(&schema(), &path).is_err());
        let _ = std::fs::remove_file(&path);
    }
}
