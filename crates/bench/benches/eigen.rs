//! Microbenchmarks of the host-side set-up of every SOPHIE job: the
//! symmetric eigendecomposition and the eigenvalue-dropout transform.
//! Suites live in [`sophie_bench::micro`] so `repro bench-summary` can run
//! the same code in-process.

use criterion::{criterion_group, criterion_main};
use sophie_bench::micro;

criterion_group!(benches, micro::eigen, micro::dropout_transform);
criterion_main!(benches);
