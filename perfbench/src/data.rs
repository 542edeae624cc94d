//! The generated tables, read back from storage so expected answers are
//! computed from the generator's rows rather than from any query.

use std::collections::{HashMap, HashSet};
use uniq_catalog::{Database, Row};
use uniq_types::{Result, Value};

/// `SUPPLIER`, `PARTS` and `AGENTS` as generated.
///
/// Columns: `SUPPLIER(SNO, SNAME, SCITY, BUDGET, STATUS)`,
/// `PARTS(SNO, PNO, PNAME, OEM-PNO, COLOR)`, `AGENTS(SNO, ANO, ANAME,
/// ACITY)`.
pub struct Tables {
    /// Supplier rows.
    pub suppliers: Vec<Row>,
    /// Part rows.
    pub parts: Vec<Row>,
    /// Agent rows.
    pub agents: Vec<Row>,
}

impl Tables {
    /// Copy the three tables out of `db`'s storage.
    pub fn read(db: &Database) -> Result<Tables> {
        Ok(Tables {
            suppliers: db.rows(&"SUPPLIER".into())?.to_vec(),
            parts: db.rows(&"PARTS".into())?.to_vec(),
            agents: db.rows(&"AGENTS".into())?.to_vec(),
        })
    }

    /// Supplier rows by key.
    pub fn suppliers_by_key(&self) -> HashMap<i64, &Row> {
        self.suppliers.iter().map(|r| (int(&r[0]), r)).collect()
    }
}

/// Project `row` onto `cols`.
pub fn project(row: &Row, cols: &[usize]) -> Row {
    cols.iter().map(|&c| row[c].clone()).collect()
}

/// Drop repeated rows, keeping first occurrences (set semantics).
pub fn distinct(rows: impl IntoIterator<Item = Row>) -> Vec<Row> {
    let mut seen = HashSet::new();
    rows.into_iter()
        .filter(|r| seen.insert(r.clone()))
        .collect()
}

/// Supplier cities the generator draws from.
pub const CITIES: [&str; 3] = ["Chicago", "New York", "Toronto"];
/// Part colors the generator draws from.
pub const COLORS: [&str; 2] = ["RED", "GREEN"];
/// Agent cities the generator draws from.
pub const AGENT_CITIES: [&str; 2] = ["Ottawa", "Hull"];

/// The integer in `v` (generated key and budget columns are never NULL).
pub fn int(v: &Value) -> i64 {
    match v {
        Value::Int(i) => *i,
        other => panic!("generated column holds {other:?}, not an integer"),
    }
}
