//! The paper's §4 workflow end-to-end: SQL with `OPTION (USEPLAN n)`.
//!
//! Parses SQL statements against the TPC-H catalog, executes them on a
//! synthetic micro database — once with the optimizer's plan, then with
//! explicitly numbered plans — and verifies all results agree. This is
//! the scripting loop the paper describes: "any given query can be
//! extended easily with the OPTION clause and a loop construct that
//! iterates over a deterministically or randomly selected set of
//! possible plans".
//!
//! ```text
//! cargo run --example useplan_sql
//! ```

use plansample::PreparedQuery;
use plansample_bignum::Nat;
use plansample_datagen::MicroScale;
use plansample_exec::render_table;
use plansample_optimizer::OptimizerConfig;

fn main() {
    let (catalog, tables) = plansample_catalog::tpch::catalog();
    let db = plansample_datagen::generate(&catalog, &tables, &MicroScale::default(), 7);

    let sql = "SELECT n_name, SUM(l_extendedprice) \
               FROM lineitem l, supplier s, nation n, region r \
               WHERE l.l_suppkey = s.s_suppkey \
                 AND s.s_nationkey = n.n_nationkey \
                 AND n.n_regionkey = r.r_regionkey \
                 AND r.r_name = 'ASIA' \
               GROUP BY n.n_name";

    // Prepare once: the optimizer runs a single time and the memo is
    // reused by every USEPLAN execution in the loop below.
    let parsed = plansample_sql::parse(&catalog, sql).expect("valid SQL");
    let prepared = PreparedQuery::prepare(&catalog, &parsed.spec, &OptimizerConfig::default())
        .expect("query prepares");
    let best = prepared.best().0;
    let reference = prepared.execute(&catalog, &db, best).expect("query runs");
    println!("query:\n  {sql}\n");
    println!(
        "optimizer's plan (cost {:.0}, space of {} plans):",
        best.total_cost(prepared.memo()),
        prepared.total()
    );
    println!("{}", best.render(prepared.memo()));
    println!("result:\n{}", render_table(&reference, 10));

    // Now the USEPLAN loop: pick plan numbers across the space and
    // check every one produces the same result.
    let total = prepared.total();
    let step = {
        let (q, _) = total.div_rem(&Nat::from(5u64));
        if q.is_zero() {
            Nat::one()
        } else {
            q
        }
    };
    let mut n = Nat::zero();
    while n < *total {
        let useplan_sql = format!("{sql} OPTION (USEPLAN {n})");
        let parsed = plansample_sql::parse(&catalog, &useplan_sql).expect("valid SQL");
        let rank = parsed.useplan.expect("USEPLAN parsed");
        let plan = prepared.unrank(&rank).expect("rank in range");
        let table = prepared.execute(&catalog, &db, &plan).expect("plan runs");
        let agrees = table.multiset_eq(&reference);
        println!(
            "USEPLAN {n:>14}: scaled cost {:>10.2}  rows {:>3}  {}",
            prepared.scaled_cost(&plan),
            table.len(),
            if agrees {
                "agrees with optimizer's plan"
            } else {
                "MISMATCH!"
            }
        );
        assert!(agrees, "differential testing failure");
        n += &step;
    }

    println!("\nall checked plans produced identical results — §4's oracle holds.");
}
