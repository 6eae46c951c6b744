//! The four workloads. Each module generates its inputs from the
//! run's seed (`prepare`), produces every end-to-end metric from an
//! untraced run (`end_to_end`), and every per-layer metric from a
//! traced one (`per_layer`).

pub mod direct;
pub mod fleet;
pub mod pcg;
