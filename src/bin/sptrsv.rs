//! `sptrsv` — command-line front end for the solver library.
//!
//! ```text
//! USAGE:
//!   sptrsv [INPUT] [OPTIONS]
//!
//! INPUT (one of):
//!   --mtx <file>         read a Matrix Market file, take tril(A)
//!   --corpus <name>      a Table-I analog (see --list)
//!   --grid <NX>x<NY>     ILU(0) L-factor of an NX*NY 5-point grid
//!   --chain <N>          the fully sequential worst case
//!   (default: --corpus powersim)
//!
//! OPTIONS:
//!   --solver <kind>      serial|csrsv2|syncfree|unified|unified-tasks|
//!                        shmem|shmem-gup|zerocopy       [zerocopy]
//!   --machine <m>        dgx1|dgx2                      [dgx1]
//!   --gpus <n>           GPUs to use                    \[4\]
//!   --tasks <n>          tasks per GPU (task-pool kinds) \[8\]
//!   --upper              solve Ux = b instead of Lx = b
//!   --scale <rows>       corpus row cap                 [12000]
//!   --list               print corpus names and exit
//! ```

use mgpu_sptrsv::prelude::*;
use std::process::ExitCode;

fn fail(msg: &str) -> ExitCode {
    eprintln!("error: {msg}\nrun with --help for usage");
    ExitCode::FAILURE
}

struct Args(Vec<String>);

impl Args {
    fn flag(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }
    fn value(&self, name: &str) -> Option<&str> {
        self.0.iter().position(|a| a == name).and_then(|i| self.0.get(i + 1)).map(String::as_str)
    }
}

fn main() -> ExitCode {
    let args = Args(std::env::args().skip(1).collect());
    if args.flag("--help") || args.flag("-h") {
        // the module doc is the help text
        print!("{}", HELP);
        return ExitCode::SUCCESS;
    }
    if args.flag("--list") {
        for name in sparsemat::corpus::all_names() {
            println!("{name}");
        }
        return ExitCode::SUCCESS;
    }

    let triangle = if args.flag("--upper") { Triangle::Upper } else { Triangle::Lower };
    let scale: usize = match args.value("--scale").map(str::parse).transpose() {
        Ok(v) => v.unwrap_or(12_000),
        Err(_) => return fail("--scale expects an integer"),
    };

    // --- input matrix ---------------------------------------------------
    let (label, mut matrix) = if let Some(path) = args.value("--mtx") {
        match sparsemat::io::read_matrix_market_file(std::path::Path::new(path)) {
            Ok(a) => (path.to_string(), a.triangular_part(triangle, 1.0)),
            Err(e) => return fail(&format!("reading {path}: {e}")),
        }
    } else if let Some(spec) = args.value("--grid") {
        let Some((nx, ny)) = spec.split_once('x') else {
            return fail("--grid expects NXxNY");
        };
        let (Ok(nx), Ok(ny)) = (nx.parse::<usize>(), ny.parse::<usize>()) else {
            return fail("--grid expects integers");
        };
        let a = sparsemat::gen::grid_laplacian(nx, ny);
        match sparsemat::factor::ilu0(&a, 1e-8) {
            Ok(f) => (
                format!("grid {nx}x{ny} ILU(0)"),
                if triangle == Triangle::Lower { f.l } else { f.u },
            ),
            Err(e) => return fail(&format!("factorization: {e}")),
        }
    } else if let Some(n) = args.value("--chain") {
        let Ok(n) = n.parse::<usize>() else {
            return fail("--chain expects an integer");
        };
        ("chain".to_string(), sparsemat::gen::chain(n))
    } else {
        let name = args.value("--corpus").unwrap_or("powersim");
        match sparsemat::corpus::by_name_scaled(name, scale, scale * 20) {
            Some(nm) => (name.to_string(), nm.matrix),
            None => return fail(&format!("unknown corpus matrix {name}; try --list")),
        }
    };
    if triangle == Triangle::Upper && matrix.is_lower_triangular() && !matrix.is_upper_triangular()
    {
        matrix = matrix.transpose();
    }

    let stats = sparsemat::levels::TriStats::compute(&matrix, triangle);
    println!(
        "{label}: n = {}, nnz = {}, levels = {}, parallelism = {:.1}, dependency = {:.2}",
        stats.rows, stats.nnz, stats.levels, stats.parallelism, stats.dependency
    );

    let (_, b) = sptrsv::verify::rhs_for(&matrix, 0xC11);

    // --- simulated GPU solvers ---------------------------------------------
    let solver = args.value("--solver").unwrap_or("zerocopy");
    let gpus: usize = args.value("--gpus").and_then(|v| v.parse().ok()).unwrap_or(4);
    let tasks: u32 = args.value("--tasks").and_then(|v| v.parse().ok()).unwrap_or(8);
    let cfg = match args.value("--machine").unwrap_or("dgx1") {
        "dgx1" => MachineConfig::dgx1(gpus),
        "dgx2" => MachineConfig::dgx2(gpus),
        other => return fail(&format!("unknown machine {other}")),
    };
    let kind = match solver {
        "serial" => SolverKind::Serial,
        "csrsv2" | "levelset" => SolverKind::LevelSet,
        "syncfree" => SolverKind::SyncFree,
        "unified" => SolverKind::Unified,
        "unified-tasks" => SolverKind::UnifiedTasks { per_gpu: tasks },
        "shmem" => SolverKind::ShmemBlocked,
        "shmem-gup" => SolverKind::ShmemNaive,
        "zerocopy" => SolverKind::ZeroCopy { per_gpu: tasks },
        other => return fail(&format!("unknown solver {other}")),
    };

    match sptrsv::solve(&matrix, &b, cfg, &SolveOptions { kind, triangle, ..Default::default() }) {
        Ok(r) => {
            println!("{}", r.summary());
            println!(
                "verified rel err {:.2e} | cross edges {} | kernels {} | fits in memory: {}",
                r.verified_rel_err.unwrap_or(f64::NAN),
                r.cross_edges,
                r.kernels,
                r.fits_in_memory,
            );
            ExitCode::SUCCESS
        }
        Err(e) => fail(&e.to_string()),
    }
}

const HELP: &str = "sptrsv - multi-GPU sparse triangular solver (simulated DGX machines)

USAGE:
  sptrsv [INPUT] [OPTIONS]

INPUT (one of):
  --mtx <file>         read a Matrix Market file, take tril(A)
  --corpus <name>      a Table-I analog (see --list)
  --grid <NX>x<NY>     ILU(0) L-factor of an NX*NY 5-point grid
  --chain <N>          the fully sequential worst case
  (default: --corpus powersim)

OPTIONS:
  --solver <kind>      serial|csrsv2|syncfree|unified|unified-tasks|
                       shmem|shmem-gup|zerocopy       [zerocopy]
  --machine <m>        dgx1|dgx2                      [dgx1]
  --gpus <n>           GPUs to use                    [4]
  --tasks <n>          tasks per GPU (task-pool kinds) [8]
  --upper              solve Ux = b instead of Lx = b
  --scale <rows>       corpus row cap                 [12000]
  --list               print corpus names and exit
";
