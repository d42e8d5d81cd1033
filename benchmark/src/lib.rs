//! # siren-benchmark — one seeded, oracle-checked benchmark
//!
//! `cargo run --release --manifest-path benchmark/Cargo.toml -- --workload
//! <name> --seed <u64> --seconds <n> --trace <0|1>` generates its inputs
//! from the seed, drives real in-process daemons over real loopback
//! sockets with the configuration that ships, checks every answer
//! against an oracle, and prints every metric by name with its unit.
//! See `README.md` beside this package for what each number is for.

pub mod analyst;
pub mod export;
pub mod fleet;
pub mod gen;
pub mod ingest;
pub mod json;
pub mod lifecycle;
pub mod probes;
pub mod recovery;
pub mod run;
pub mod spans;
pub mod spec;
pub mod stats;
pub mod world;
