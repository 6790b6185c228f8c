//! `eda-e2e-bench --workload <name> --seed <n> --seconds <s> --trace <0|1>`

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(eda_e2e_bench::runner::main(&args));
}
