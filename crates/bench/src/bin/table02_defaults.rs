//! Table II: the default parameter settings every experiment starts from.

#![forbid(unsafe_code)]
use sc_sim::SweepValues;
fn main() {
    let scale = sc_bench::scale_from_env();
    let d = scale.defaults();
    let paper = SweepValues::paper_defaults();
    println!("== Table II: parameter settings ==");
    println!("{:<32} {:>10} {:>12}", "Parameter", "paper", "this run");
    println!("{}", "-".repeat(58));
    println!(
        "{:<32} {:>10} {:>12}",
        "Number of tasks |S|", paper.n_tasks, d.n_tasks
    );
    println!(
        "{:<32} {:>10} {:>12}",
        "Number of workers |W|", paper.n_workers, d.n_workers
    );
    println!(
        "{:<32} {:>9}h {:>11}h",
        "Valid time of tasks phi", paper.options.valid_hours, d.options.valid_hours
    );
    println!(
        "{:<32} {:>8}km {:>10}km",
        "Workers' reachable radius r", paper.options.radius_km, d.options.radius_km
    );
    println!(
        "{:<32} {:>10} {:>12}",
        "Topics |Top|",
        50,
        sc_bench::config_for(scale).n_topics
    );
    println!(
        "{:<32} {:>10} {:>12}",
        "RPO epsilon",
        0.1,
        sc_bench::config_for(scale).rpo.epsilon
    );
    println!(
        "{:<32} {:>10} {:>12}",
        "RPO o",
        1,
        sc_bench::config_for(scale).rpo.o
    );
}
