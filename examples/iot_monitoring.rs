//! Internet-of-things monitoring (§1): several query templates over one
//! sensor stream, served by one engine over §5.5's multiple templates —
//! one pooled sample shared by several partition trees, each with its own
//! triggers and catch-up — plus MIN/MAX alerting from the bounded heaps.
//!
//! Run with: `cargo run --release --example iot_monitoring`

use janus::prelude::*;

fn main() {
    let dataset = intel_wireless(120_000, 3);
    let time = dataset.col("time");
    let light = dataset.col("light");
    let temperature = dataset.col("temperature");
    let voltage = dataset.col("voltage");

    // Two dashboards, one synopsis each, sharing the pooled sample:
    //   A: SUM/AVG(light)       over time windows
    //   B: AVG(temperature)     over voltage bands (battery health)
    let mk = |agg_col: usize, pred: Vec<usize>, seed: u64| {
        let mut c = SynopsisConfig::paper_default(
            QueryTemplate::new(AggregateFunction::Sum, agg_col, pred),
            seed,
        );
        c.leaf_count = 64;
        c.sample_rate = 0.02;
        c.catchup_ratio = 0.2;
        c
    };
    let split = dataset.len() / 2;
    let (initial, arriving) = dataset.rows.split_at(split);
    let mut engine = JanusEngine::bootstrap_templates(
        vec![mk(light, vec![time], 1), mk(temperature, vec![voltage], 2)],
        initial.to_vec(),
    )
    .expect("bootstrap");
    engine.run_catchup_to_goal();
    println!(
        "{} templates over {} rows",
        engine.template_count(),
        engine.population()
    );

    // Stream the second half.
    for row in arriving {
        engine.insert(row.clone()).expect("insert");
    }

    let day = 86_400.0;
    let queries = [
        (
            "SUM(light), day 2",
            Query::new(
                AggregateFunction::Sum,
                light,
                vec![time],
                RangePredicate::new(vec![day], vec![2.0 * day]).unwrap(),
            )
            .unwrap(),
        ),
        (
            "AVG(light), day 2 PM",
            Query::new(
                AggregateFunction::Avg,
                light,
                vec![time],
                RangePredicate::new(vec![1.5 * day], vec![1.8 * day]).unwrap(),
            )
            .unwrap(),
        ),
        (
            "MAX(light), day 2",
            Query::new(
                AggregateFunction::Max,
                light,
                vec![time],
                RangePredicate::new(vec![day], vec![2.0 * day]).unwrap(),
            )
            .unwrap(),
        ),
        (
            "AVG(temp), low batt",
            Query::new(
                AggregateFunction::Avg,
                temperature,
                vec![voltage],
                RangePredicate::new(vec![2.3], vec![2.5]).unwrap(),
            )
            .unwrap(),
        ),
        (
            "COUNT, mid batt",
            Query::new(
                AggregateFunction::Count,
                temperature,
                vec![voltage],
                RangePredicate::new(vec![2.5], vec![2.6]).unwrap(),
            )
            .unwrap(),
        ),
    ];

    println!(
        "\n{:<22} {:>14} {:>14} {:>10}",
        "query", "estimate", "truth", "rel.err"
    );
    for (name, q) in queries {
        match engine.query(&q).expect("query") {
            Some(est) => {
                let truth = engine.evaluate_exact(&q).unwrap_or(f64::NAN);
                println!(
                    "{name:<22} {:>14.2} {truth:>14.2} {:>9.2}%",
                    est.value,
                    est.relative_error(truth) * 100.0
                );
            }
            None => println!("{name:<22} (no matching readings)"),
        }
    }

    // A template registered at runtime (§5.5): humidity analytics appear.
    let humidity = dataset.col("humidity");
    engine
        .add_template(mk(humidity, vec![time], 3))
        .expect("new template");
    let q = Query::new(
        AggregateFunction::Avg,
        humidity,
        vec![time],
        RangePredicate::new(vec![0.0], vec![day]).unwrap(),
    )
    .unwrap();
    let est = engine.query(&q).expect("query").expect("non-empty");
    let truth = engine.evaluate_exact(&q).unwrap();
    println!(
        "\nruntime-added template: AVG(humidity) day 1 = {:.2} (truth {:.2}, {:.2}% err)",
        est.value,
        truth,
        est.relative_error(truth) * 100.0
    );
}
