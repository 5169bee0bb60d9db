//! The full §3.2 pipeline: requests (inserts / deletes / queries) flow
//! through the Kafka-like request log in arrival order and the engine
//! consumes them exactly once; Appendix A samplers feed initialization.

use janus::prelude::*;
use janus::storage::{
    PollCostModel, Request, RequestLog, SequentialSampler, SingletonSampler, TopicLog,
};

fn dataset() -> Dataset {
    intel_wireless(20_000, 50)
}

fn config(d: &Dataset, seed: u64) -> SynopsisConfig {
    let template = QueryTemplate::new(AggregateFunction::Sum, d.col("light"), vec![d.col("time")]);
    let mut c = SynopsisConfig::paper_default(template, seed);
    c.leaf_count = 32;
    c.sample_rate = 0.03;
    c.catchup_ratio = 0.3;
    c
}

#[test]
fn request_stream_is_processed_in_arrival_order() {
    let d = dataset();
    let log = RequestLog::new();
    // Producer: initial data, then interleaved updates and queries.
    let half = d.len() / 2;
    for row in &d.rows[..half] {
        log.publish_insert(row.clone());
    }
    let template = QueryTemplate::new(AggregateFunction::Sum, d.col("light"), vec![d.col("time")]);
    let workload = QueryWorkload::generate_over_rows(
        &d.rows[..half],
        &WorkloadSpec {
            template,
            count: 20,
            min_width_fraction: 0.05,
            seed: 50,
            domain_quantile: 1.0,
        },
    );
    for (i, row) in d.rows[half..].iter().enumerate() {
        log.publish_insert(row.clone());
        if i % 500 == 250 {
            log.publish_delete((i / 2) as u64);
        }
        if i % 997 == 0 {
            log.publish_query(workload.queries[i % workload.queries.len()].clone());
        }
    }

    // Consumer: bootstrap on the first `half` inserts, then replay.
    let mut offset = 0u64;
    let boot: Vec<Row> = log
        .requests
        .poll(0, half)
        .into_iter()
        .map(|r| match r {
            Request::Insert(row) => row,
            other => panic!("expected insert, got {other:?}"),
        })
        .collect();
    offset += boot.len() as u64;
    let mut engine = JanusEngine::bootstrap(config(&d, 50), boot).unwrap();

    let mut answered = 0;
    loop {
        let batch = log.requests.poll(offset, 1024);
        if batch.is_empty() {
            break;
        }
        offset += batch.len() as u64;
        for req in batch {
            match req {
                Request::Insert(row) => engine.insert(row).unwrap(),
                Request::Delete(id) => {
                    engine.delete(id).unwrap();
                }
                Request::Execute { query: q, .. } => {
                    // Ground truth "as of arrival": by replay construction
                    // the engine state *is* the arrival-time state.
                    let truth = engine.evaluate_exact(&q).unwrap();
                    if truth.abs() > 1e-9 {
                        let est = engine.query(&q).unwrap().unwrap();
                        // Per-query (not aggregate) accuracy bound, so it
                        // is loose: single random rectangles land on
                        // whatever the reservoir drew there, and the
                        // vendored `rand` shim draws a different (still
                        // uniform) stream than upstream rand.
                        assert!(
                            est.relative_error(truth) < 0.5,
                            "query at offset {offset}: rel {}",
                            est.relative_error(truth)
                        );
                        answered += 1;
                    }
                }
            }
        }
    }
    assert!(answered >= 5, "only {answered} queries exercised");
    assert_eq!(log.end_offset(), offset);
}

#[test]
fn samplers_feed_initialization_from_the_insert_topic() {
    let d = dataset();
    let inserts = TopicLog::new();
    inserts.append_batch(d.rows.iter().cloned());
    // Appendix A: singleton sampler for the (small) initialization sample.
    let mut singleton = SingletonSampler::new(PollCostModel::KAFKA_LIKE, 51);
    let init_run = singleton.sample(&inserts, 600);
    assert_eq!(init_run.sample.len(), 600);

    // Deduplicate (singleton draws with replacement) and bootstrap.
    let mut seen = std::collections::HashSet::new();
    let init: Vec<Row> = init_run
        .sample
        .into_iter()
        .filter(|r| seen.insert(r.id))
        .collect();
    let engine = JanusEngine::bootstrap(config(&d, 51), init).unwrap();
    assert!(engine.population() > 500);

    // Sequential sampler for the (large) catch-up sample: cheaper per record
    // under the simulated cost model.
    let mut sequential = SequentialSampler::new(PollCostModel::KAFKA_LIKE, 10_000, 51);
    let catchup_run = sequential.sample(&inserts, d.len() / 10);
    assert!(catchup_run.sample.len() > d.len() / 20);
    let per_record_seq = catchup_run.simulated_cost_nanos / catchup_run.sample.len() as f64;
    let per_record_single = init_run.simulated_cost_nanos / 600.0;
    assert!(per_record_seq < per_record_single);
}

#[test]
fn concurrent_producers_and_a_consumer() {
    use std::sync::Arc;
    let log = Arc::new(RequestLog::new());
    let mut handles = Vec::new();
    for t in 0..4u64 {
        let log = Arc::clone(&log);
        handles.push(std::thread::spawn(move || {
            for i in 0..2_500u64 {
                let id = t * 2_500 + i;
                log.publish_insert(Row::new(id, vec![id as f64, 1.0]));
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    // Consumer sees every insert exactly once.
    let mut ids = std::collections::HashSet::new();
    let mut offset = 0u64;
    loop {
        let batch = log.requests.poll(offset, 999);
        if batch.is_empty() {
            break;
        }
        offset += batch.len() as u64;
        for req in batch {
            if let Request::Insert(row) = req {
                assert!(ids.insert(row.id), "duplicate delivery of {}", row.id);
            }
        }
    }
    assert_eq!(ids.len(), 10_000);
}
