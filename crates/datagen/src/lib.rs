//! Deterministic synthetic TPC-H-like data at micro scale.
//!
//! The paper runs its differential tests against a real TPC-H database;
//! we substitute a seeded generator that produces foreign-key-consistent
//! tables with the same schema and key structure (see
//! `docs/ARCHITECTURE.md`; the role this data plays in the validation
//! strategy is `docs/DESIGN.md` §8). The
//! generated *data volumes* are intentionally tiny — differential
//! testing executes hundreds of sampled plans per query, including
//! nested-loops-heavy ones, so rows must stay in the hundreds. The
//! optimizer keeps using the SF-1 *statistics*; the executed data only
//! needs to exercise the same operator code paths and produce non-empty,
//! comparable results.
//!
//! Divergences from the statistics are deliberate and documented: filter
//! constants that select ~1/150 of rows at SF-1 (e.g. Q8's `p_type`)
//! are boosted in the micro data so filtered differential results are
//! non-empty.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod joingraph;

use plansample_catalog::tpch::TpchTables;
use plansample_catalog::{Catalog, Datum, TableId};
use plansample_exec::{Database, Table};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Row counts for the micro database.
#[derive(Debug, Clone)]
pub struct MicroScale {
    /// Supplier rows.
    pub suppliers: usize,
    /// Customer rows.
    pub customers: usize,
    /// Part rows.
    pub parts: usize,
    /// Partsupp rows per part.
    pub partsupp_per_part: usize,
    /// Order rows.
    pub orders: usize,
    /// Maximum lineitem rows per order (uniform 1..=max).
    pub max_lines_per_order: usize,
}

impl Default for MicroScale {
    fn default() -> Self {
        MicroScale {
            suppliers: 30,
            customers: 50,
            parts: 40,
            partsupp_per_part: 2,
            orders: 120,
            max_lines_per_order: 4,
        }
    }
}

impl MicroScale {
    /// A smaller preset for tests that execute very many plans.
    pub fn tiny() -> Self {
        MicroScale {
            suppliers: 10,
            customers: 15,
            parts: 12,
            partsupp_per_part: 2,
            orders: 40,
            max_lines_per_order: 3,
        }
    }
}

/// The 5 TPC-H regions.
pub const REGIONS: [&str; 5] = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"];

/// The 25 TPC-H nations with their region keys.
pub const NATIONS: [(&str, i64); 25] = [
    ("ALGERIA", 0),
    ("ARGENTINA", 1),
    ("BRAZIL", 1),
    ("CANADA", 1),
    ("EGYPT", 4),
    ("ETHIOPIA", 0),
    ("FRANCE", 3),
    ("GERMANY", 3),
    ("INDIA", 2),
    ("INDONESIA", 2),
    ("IRAN", 4),
    ("IRAQ", 4),
    ("JAPAN", 2),
    ("JORDAN", 4),
    ("KENYA", 0),
    ("MOROCCO", 0),
    ("MOZAMBIQUE", 0),
    ("PERU", 1),
    ("CHINA", 2),
    ("ROMANIA", 3),
    ("RUSSIA", 3),
    ("SAUDI ARABIA", 4),
    ("VIETNAM", 2),
    ("UNITED KINGDOM", 3),
    ("UNITED STATES", 1),
];

/// Market segments.
const SEGMENTS: [&str; 5] = [
    "AUTOMOBILE",
    "BUILDING",
    "FURNITURE",
    "HOUSEHOLD",
    "MACHINERY",
];

fn int(v: i64) -> Datum {
    Datum::Int(v)
}

fn s(v: &str) -> Datum {
    Datum::Str(v.to_string())
}

/// Generates the micro TPC-H database. Deterministic in `seed`.
pub fn generate(catalog: &Catalog, tables: &TpchTables, scale: &MicroScale, seed: u64) -> Database {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut db = Database::new();

    // region [r_regionkey, r_name]
    let mut region = new_table(catalog, tables.region);
    for (i, name) in REGIONS.iter().enumerate() {
        region.push(vec![int(i as i64), s(name)]);
    }
    db.insert(tables.region, region);

    // nation [n_nationkey, n_name, n_regionkey]
    let mut nation = new_table(catalog, tables.nation);
    for (i, (name, region_key)) in NATIONS.iter().enumerate() {
        nation.push(vec![int(i as i64), s(name), int(*region_key)]);
    }
    db.insert(tables.nation, nation);

    // supplier [s_suppkey, s_name, s_nationkey, s_acctbal]
    // nationkey = i % 25 guarantees every nation has suppliers.
    let mut supplier = new_table(catalog, tables.supplier);
    for i in 0..scale.suppliers {
        supplier.push(vec![
            int(i as i64 + 1),
            s(&format!("Supplier#{i:05}")),
            int((i % 25) as i64),
            int(rng.gen_range(-99_999..=999_999)),
        ]);
    }
    db.insert(tables.supplier, supplier);

    // customer [c_custkey, c_name, c_nationkey, c_mktsegment, c_acctbal]
    let mut customer = new_table(catalog, tables.customer);
    for i in 0..scale.customers {
        customer.push(vec![
            int(i as i64 + 1),
            s(&format!("Customer#{i:05}")),
            int((i % 25) as i64),
            s(SEGMENTS[rng.gen_range(0..SEGMENTS.len())]),
            int(rng.gen_range(-99_999..=999_999)),
        ]);
    }
    db.insert(tables.customer, customer);

    // part [p_partkey, p_name, p_type, p_size, p_brand, p_retailprice]
    // "green" names and the Q8 p_type value are boosted so micro-scale
    // filtered results are non-empty (see module docs).
    let mut part = new_table(catalog, tables.part);
    for i in 0..scale.parts {
        let name = if rng.gen_bool(0.15) {
            "green".to_string()
        } else {
            format!("part#{i:05}")
        };
        let p_type = if rng.gen_bool(1.0 / 15.0) {
            "ECONOMY ANODIZED STEEL".to_string()
        } else {
            format!("TYPE#{}", rng.gen_range(0..150))
        };
        part.push(vec![
            int(i as i64 + 1),
            s(&name),
            s(&p_type),
            int(rng.gen_range(1..=50)),
            s(&format!("Brand#{}", rng.gen_range(1..=25))),
            int(rng.gen_range(90_000..=2_000_000)),
        ]);
    }
    db.insert(tables.part, part);

    // partsupp [ps_partkey, ps_suppkey, ps_availqty, ps_supplycost]
    let mut partsupp = new_table(catalog, tables.partsupp);
    for p in 0..scale.parts {
        for k in 0..scale.partsupp_per_part {
            // distinct suppliers per part by striding
            let supp =
                (p + k * (scale.suppliers / scale.partsupp_per_part).max(1)) % scale.suppliers;
            partsupp.push(vec![
                int(p as i64 + 1),
                int(supp as i64 + 1),
                int(rng.gen_range(1..=9_999)),
                int(rng.gen_range(100..=100_000)),
            ]);
        }
    }
    db.insert(tables.partsupp, partsupp);

    // orders [o_orderkey, o_custkey, o_orderdate, o_totalprice, o_orderstatus]
    let mut orders = new_table(catalog, tables.orders);
    let mut order_dates = Vec::with_capacity(scale.orders);
    for i in 0..scale.orders {
        let date = rng.gen_range(0..2_406);
        order_dates.push(date);
        orders.push(vec![
            int(i as i64 + 1),
            int(rng.gen_range(0..scale.customers as i64) + 1),
            int(date),
            int(rng.gen_range(90_000..=50_000_000)),
            s(["F", "O", "P"][rng.gen_range(0..3)]),
        ]);
    }
    db.insert(tables.orders, orders);

    // lineitem [l_orderkey, l_partkey, l_suppkey, l_quantity,
    //           l_extendedprice, l_discount, l_shipdate]
    let mut lineitem = new_table(catalog, tables.lineitem);
    for (i, &date) in order_dates.iter().enumerate() {
        let lines = rng.gen_range(1..=scale.max_lines_per_order);
        for _ in 0..lines {
            lineitem.push(vec![
                int(i as i64 + 1),
                int(rng.gen_range(0..scale.parts as i64) + 1),
                int(rng.gen_range(0..scale.suppliers as i64) + 1),
                int(rng.gen_range(1..=50)),
                int(rng.gen_range(10_000..=1_000_000)),
                int(rng.gen_range(0..=10)),
                int((date + rng.gen_range(1..=120)).min(2_525)),
            ]);
        }
    }
    db.insert(tables.lineitem, lineitem);

    db
}

fn new_table(catalog: &Catalog, id: TableId) -> Table {
    Table::new(catalog.table(id).columns.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use plansample_catalog::tpch;

    fn build() -> (Catalog, TpchTables, Database) {
        let (cat, t) = tpch::catalog();
        let db = generate(&cat, &t, &MicroScale::default(), 42);
        (cat, t, db)
    }

    #[test]
    fn widths_match_catalog() {
        let (cat, t, db) = build();
        for id in [
            t.region, t.nation, t.supplier, t.customer, t.part, t.partsupp, t.orders, t.lineitem,
        ] {
            assert_eq!(
                db.table(id).unwrap().width(),
                cat.table(id).columns.len(),
                "width of {}",
                cat.table(id).name
            );
        }
    }

    #[test]
    fn fixed_dimensions() {
        let (_, t, db) = build();
        assert_eq!(db.table(t.region).unwrap().len(), 5);
        assert_eq!(db.table(t.nation).unwrap().len(), 25);
        // ASIA and FRANCE/GERMANY exist (used by Q5/Q7 filters).
        let names: Vec<String> = db
            .table(t.nation)
            .unwrap()
            .rows()
            .iter()
            .map(|r| r[1].as_str().unwrap().to_string())
            .collect();
        assert!(names.contains(&"FRANCE".to_string()));
        assert!(names.contains(&"GERMANY".to_string()));
    }

    #[test]
    fn foreign_keys_are_consistent() {
        let (_, t, db) = build();
        let customers = db.table(t.customer).unwrap().len() as i64;
        for row in db.table(t.orders).unwrap().rows() {
            let ck = row[1].as_int().unwrap();
            assert!(ck >= 1 && ck <= customers, "o_custkey {ck}");
        }
        let orders = db.table(t.orders).unwrap().len() as i64;
        let parts = db.table(t.part).unwrap().len() as i64;
        let suppliers = db.table(t.supplier).unwrap().len() as i64;
        for row in db.table(t.lineitem).unwrap().rows() {
            assert!(row[0].as_int().unwrap() <= orders);
            assert!(row[1].as_int().unwrap() <= parts);
            assert!(row[2].as_int().unwrap() <= suppliers);
        }
        for row in db.table(t.partsupp).unwrap().rows() {
            assert!(row[0].as_int().unwrap() <= parts);
            assert!(row[1].as_int().unwrap() <= suppliers);
        }
    }

    #[test]
    fn nation_coverage_for_suppliers_and_customers() {
        let (_, t, db) = build();
        let mut supp_nations = std::collections::HashSet::new();
        for row in db.table(t.supplier).unwrap().rows() {
            supp_nations.insert(row[2].as_int().unwrap());
        }
        // 30 suppliers across 25 nations: all nations covered.
        assert_eq!(supp_nations.len(), 25);
    }

    #[test]
    fn deterministic_in_seed() {
        let (cat, t) = tpch::catalog();
        let a = generate(&cat, &t, &MicroScale::tiny(), 7);
        let b = generate(&cat, &t, &MicroScale::tiny(), 7);
        let c = generate(&cat, &t, &MicroScale::tiny(), 8);
        assert_eq!(
            a.table(t.lineitem).unwrap().rows(),
            b.table(t.lineitem).unwrap().rows()
        );
        assert_ne!(
            a.table(t.lineitem).unwrap().rows(),
            c.table(t.lineitem).unwrap().rows()
        );
    }

    #[test]
    fn money_columns_are_integer_cents() {
        let (_, t, db) = build();
        for row in db.table(t.lineitem).unwrap().rows() {
            assert!(
                matches!(row[4], Datum::Int(_)),
                "l_extendedprice must be Int"
            );
        }
    }

    #[test]
    fn tiny_scale_is_smaller() {
        let (cat, t) = tpch::catalog();
        let tiny = generate(&cat, &t, &MicroScale::tiny(), 1);
        let full = generate(&cat, &t, &MicroScale::default(), 1);
        assert!(tiny.table(t.lineitem).unwrap().len() < full.table(t.lineitem).unwrap().len());
    }
}
