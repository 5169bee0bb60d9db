//! Regenerates every table and figure of the paper in sequence.
//! Scale with `JANUS_SCALE` (default 0.02).
type Runner = fn(f64) -> janus_bench::ExpReport;

fn main() {
    let scale = janus_bench::scale();
    eprintln!("[exp_all] JANUS_SCALE = {scale}");
    let t0 = std::time::Instant::now();
    let runs: Vec<(&str, Runner)> = vec![
        ("table2", janus_bench::experiments::table2::run),
        ("table3", janus_bench::experiments::table3::run),
        ("table4", janus_bench::experiments::table4::run),
        ("fig5", janus_bench::experiments::fig5::run),
        ("fig6", janus_bench::experiments::fig6::run),
        ("fig7", janus_bench::experiments::fig7::run),
        ("fig8", janus_bench::experiments::fig8::run),
        ("fig9", janus_bench::experiments::fig9::run),
        ("fig10", janus_bench::experiments::fig10::run),
    ];
    for (name, run) in runs {
        let t = std::time::Instant::now();
        run(scale).finish();
        eprintln!("[exp_all] {name} done in {:?}", t.elapsed());
    }
    eprintln!("[exp_all] total {:?}", t0.elapsed());
}
