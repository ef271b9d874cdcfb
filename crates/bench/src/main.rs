//! `figures <figure> [flags]` — regenerate one table or figure of the paper
//! as CSV on stdout; with no figure, list them. See the `fl_bench` docs.

fn main() {
    let args = fl_bench::BenchArgs::from_args(std::env::args().skip(1));
    fl_bench::figures::run(&args);
}
