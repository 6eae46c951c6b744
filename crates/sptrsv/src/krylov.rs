//! Preconditioned Krylov subsystem: the workload SpTRSV exists for.
//!
//! The paper's motivation (§I) is not the isolated triangular solve —
//! it is the *preconditioned iterative solver*: Krylov methods (CG,
//! BiCGSTAB, GMRES) whose every iteration applies `M⁻¹ = (LU)⁻¹` via
//! one forward and one backward substitution against the **same**
//! ILU/IC factors. That is why the §II-B analysis/solve split matters:
//! the analysis phase is paid once per factorization, while the solve
//! phase runs hundreds of times per linear system. The related SpTRSV
//! literature (Li's CUDA triangular-solve study, the fine-grained
//! domain-decomposition work) evaluates in exactly this setting —
//! SpTRSV inside a preconditioner loop, not standalone.
//!
//! This module closes that loop for the repository:
//!
//! * [`PreconditionerEngine`] — the first **multi-engine composition**
//!   in the codebase: two [`SolverEngine`]s (unit-lower `L` forward
//!   solve, upper `U` backward solve) built over **one shared**
//!   [`EngineResources`] (worker pool + workspace free-list, see
//!   [`SolverEngine::build_shared`]), with a zero-allocation warm
//!   [`PreconditionerEngine::apply_into`] path and a fused-panel
//!   [`PreconditionerEngine::apply_batch_into`] for multi-RHS
//!   preconditioning (block Krylov / multiple probing vectors).
//! * [`pcg`] / [`bicgstab`] — Krylov drivers that use the engine pair
//!   as `M⁻¹`, with per-iteration residual histories in the returned
//!   [`KrylovReport`].
//! * [`SpMv`] — the sparse matrix-vector product the Krylov
//!   recurrences need, implemented allocation-free for both
//!   [`CscMatrix`] and [`CsrMatrix`].
//!
//! ## Bitwise reproducibility of the Krylov trajectory
//!
//! Preconditioner applications sweep each engine's own
//! [`crate::exec::NumericFactor`] with the serial tier — the shared
//! [`crate::exec::Layout`] the engine's warm tiers use (level-major or
//! natural, as the factor's structure picks; an ILU(0) factor of a
//! grid is level-major whatever the kind) and its current values. No
//! application reads a calibration, so a pair that only preconditions
//! never simulates.
//! Every row of that factor holds its entries in natural source order,
//! so it sums exactly Algorithm 1's `left_sum` sequence whatever the
//! row order: [`PreconditionerEngine::apply_into`] is **bit-identical**
//! to [`crate::reference::solve_lower`] followed by
//! [`crate::reference::solve_upper`], and the whole Krylov iteration
//! history is reproducible to the last bit across runs and solver
//! kinds. The batched path runs the same kernel in its lane form
//! ([`crate::exec::NumericFactor::solve_panel_into`], lanes never
//! mix), so every batched application is bit-identical to the scalar
//! one.
//!
//! ## Amortization, demonstrated end-to-end
//!
//! `BENCH_engine.json` (section `pcg_ilu0`, emitted by
//! `cargo bench -p sptrsv-bench --bench engine`) runs PCG+ILU(0) twice
//! — once rebuilding the analysis every application (the cold
//! baseline) and once on a warm [`PreconditionerEngine`] — and records
//! the speedup of amortizing the analysis across the iteration loop.

use crate::engine::{
    check_refresh, EngineResources, Epoch, RecyclePool, RefreshReport, SolverEngine,
};
use crate::exec::ReplayWorkspace;
use crate::fault::{self, FaultSite};
use crate::solver::{SolveError, SolveOptions};
use mgpu_sim::MachineConfig;
use sparsemat::factor::LuFactors;
use sparsemat::{CscMatrix, CsrMatrix, Triangle};
use std::sync::Arc;

/// Reusable scratch for the preconditioner's warm apply paths. Buffers
/// grow on first use and are retained, so a workspace reused across
/// applications of one [`PreconditionerEngine`] allocates nothing
/// after warm-up (proven by the allocation-counter test).
#[derive(Debug, Default)]
pub struct ApplyWorkspace {
    /// The intermediate `y = L⁻¹ r` between the two solves.
    mid: Vec<f64>,
    /// Per-RHS intermediates for the batched apply.
    mids: Vec<Vec<f64>>,
    /// Position-space scratch for both sweeps: one vector for the
    /// scalar apply, an interleaved panel for the fused batched apply
    /// (a natural-order factor's scalar sweep needs none).
    panel: ReplayWorkspace,
}

impl ApplyWorkspace {
    /// An empty workspace; buffers grow on first use.
    pub fn new() -> ApplyWorkspace {
        ApplyWorkspace::default()
    }
}

/// A sparse linear operator `y = A x` for the Krylov recurrences.
///
/// Implemented allocation-free for [`CscMatrix`] (column scatter) and
/// [`CsrMatrix`] (row gather); the drivers are generic over it so a
/// caller can hand whichever orientation it already holds — or any
/// matrix-free operator.
pub trait SpMv {
    /// Operator dimension (square).
    fn dim(&self) -> usize;
    /// Compute `y = A x` into the caller's buffer without allocating.
    fn spmv_into(&self, x: &[f64], y: &mut [f64]);
}

impl SpMv for CscMatrix {
    fn dim(&self) -> usize {
        self.n()
    }

    fn spmv_into(&self, x: &[f64], y: &mut [f64]) {
        self.matvec_into(x, y);
    }
}

impl SpMv for CsrMatrix {
    fn dim(&self) -> usize {
        self.n()
    }

    fn spmv_into(&self, x: &[f64], y: &mut [f64]) {
        self.matvec_into(x, y);
    }
}

/// An ILU/IC-style preconditioner `M⁻¹ = (L U)⁻¹` as a pair of warm
/// [`SolverEngine`]s over one shared [`EngineResources`].
///
/// Build once per factorization ([`PreconditionerEngine::build`] /
/// [`PreconditionerEngine::from_ilu0`]); apply arbitrarily many times.
/// Warm applications perform zero heap allocation
/// ([`PreconditionerEngine::apply_into`] with a reusable
/// [`ApplyWorkspace`], proven by the allocation-counter test) and are
/// bit-identical to the serial reference solve pair (see the module
/// docs on ordering).
#[derive(Debug)]
pub struct PreconditionerEngine<'m> {
    fwd: SolverEngine<'m>,
    bwd: SolverEngine<'m>,
    /// Recycled apply workspaces for the allocating convenience paths
    /// and the Krylov drivers; the same poison-recovering free-list as
    /// the engines' workspace pool — one panicked apply must not brick
    /// the preconditioner.
    apply_pool: RecyclePool<ApplyWorkspace>,
}

impl<'m> PreconditionerEngine<'m> {
    /// Build the engine pair for a unit-lower `l` and upper `u` factor.
    ///
    /// Both engines are built from `opts` with the triangle overridden
    /// per side (`Lower` for `l`, `Upper` for `u`) and share one
    /// [`EngineResources`] — one worker pool, one workspace free-list —
    /// so the interleaved forward/backward applications of a Krylov
    /// loop never spawn duplicate threads or scratch.
    ///
    /// # Errors
    /// Factor validation failures surface as the engines' build errors;
    /// factors of different dimensions are a
    /// [`SolveError::ShapeMismatch`].
    pub fn build(
        l: &'m CscMatrix,
        u: &'m CscMatrix,
        machine_cfg: MachineConfig,
        opts: &SolveOptions,
    ) -> Result<PreconditionerEngine<'m>, SolveError> {
        if l.n() != u.n() {
            return Err(SolveError::ShapeMismatch { what: "upper factor", n: l.n(), got: u.n() });
        }
        let resources = Arc::new(EngineResources::new());
        let fwd_opts = SolveOptions { triangle: Triangle::Lower, ..opts.clone() };
        let bwd_opts = SolveOptions { triangle: Triangle::Upper, ..opts.clone() };
        let fwd =
            SolverEngine::build_shared(l, machine_cfg.clone(), &fwd_opts, Arc::clone(&resources))?;
        let bwd = SolverEngine::build_shared(u, machine_cfg, &bwd_opts, resources)?;
        Ok(PreconditionerEngine { fwd, bwd, apply_pool: RecyclePool::default() })
    }

    /// [`PreconditionerEngine::build`] directly from an
    /// [`sparsemat::factor::ilu0`] result.
    pub fn from_ilu0(
        f: &'m LuFactors,
        machine_cfg: MachineConfig,
        opts: &SolveOptions,
    ) -> Result<PreconditionerEngine<'m>, SolveError> {
        PreconditionerEngine::build(&f.l, &f.u, machine_cfg, opts)
    }

    /// System dimension.
    #[inline]
    pub fn n(&self) -> usize {
        self.fwd.matrix().n()
    }

    /// The forward (lower-`L`) engine — e.g. for its calibration report.
    #[inline]
    pub fn forward(&self) -> &SolverEngine<'m> {
        &self.fwd
    }

    /// The backward (upper-`U`) engine.
    #[inline]
    pub fn backward(&self) -> &SolverEngine<'m> {
        &self.bwd
    }

    /// In-place value refresh of **both** factors from a new
    /// [`LuFactors`] over the same sparsity pattern — zero symbolic
    /// work, see [`SolverEngine::refresh_values`]. The workload this
    /// exists for: a time-stepper or quasi-Newton loop refactors the
    /// same pattern every few steps, and the Krylov iterations in
    /// between must not re-pay two analysis phases.
    ///
    /// The refresh is **pair-atomic**. Both sides are validated before
    /// either is gathered (a failed side is a typed error with both
    /// engines untouched — strong exception guarantee); both new
    /// epochs are gathered outside the snapshot locks, then published
    /// under both of them — the two locks every application pins its
    /// pair under — so no application, scalar or batched, in flight or
    /// arriving, can ever observe a new-`L`/old-`U` mix. An in-flight
    /// application finishes on the pair it pinned; the refresh never
    /// waits for it.
    pub fn refresh(&self, f: &LuFactors) -> Result<(RefreshReport, RefreshReport), SolveError> {
        let l_audit = check_refresh(self.fwd.matrix(), &f.l)?;
        let u_audit = check_refresh(self.bwd.matrix(), &f.u)?;
        // one probe for the whole pair, after validation and before
        // any gather: an injected mid-refresh crash leaves both sides
        // serving the old epoch
        fault::fire_panic(FaultSite::ValueRefresh);
        let l = self.fwd.stage_refresh(&f.l, l_audit);
        let u = self.bwd.stage_refresh(&f.u, u_audit);
        // forward then backward, the order `epochs` pins them in
        let (mut lc, mut uc) = (self.fwd.current(), self.bwd.current());
        Ok((self.fwd.publish(l, &mut lc), self.bwd.publish(u, &mut uc)))
    }

    /// Both sides' published epochs, pinned under both snapshot locks
    /// (forward, then backward): one consistent `L`/`U` pair, with no
    /// lock held across the sweeps.
    fn epochs(&self) -> (Arc<Epoch>, Arc<Epoch>) {
        let l = self.fwd.current();
        (Arc::clone(&l), Arc::clone(&self.bwd.current()))
    }

    /// Apply `z = M⁻¹ r` (forward solve on `L`, then backward solve on
    /// `U`), allocating the result — convenience for callers outside a
    /// hot loop. Scratch comes from the engine's recycled workspace
    /// pool, so repeated calls stop allocating scratch after warm-up.
    pub fn apply(&self, r: &[f64]) -> Result<Vec<f64>, SolveError> {
        let mut z = vec![0.0; self.n()];
        let mut ws = self.take_apply_workspace();
        let out = self.apply_into(r, &mut z, &mut ws);
        self.put_apply_workspace(ws);
        out.map(|()| z)
    }

    /// Zero-allocation warm application `z = M⁻¹ r`: sweep the two
    /// engines' factors into the caller's buffers with the serial
    /// tier. After `ws` has grown to the system dimension this
    /// performs **zero** heap allocation, and the result is
    /// bit-identical to [`crate::reference::solve_lower`] followed by
    /// [`crate::reference::solve_upper`] on the same factors.
    pub fn apply_into(
        &self,
        r: &[f64],
        z: &mut [f64],
        ws: &mut ApplyWorkspace,
    ) -> Result<(), SolveError> {
        let n = self.n();
        if r.len() != n {
            return Err(SolveError::DimensionMismatch {
                n,
                rhs: r.len(),
                index: None,
                buffer: "r",
            });
        }
        if z.len() != n {
            return Err(SolveError::OutputLength { n, out: z.len(), buffer: "z" });
        }
        ws.mid.resize(n, 0.0);
        let (l, u) = self.epochs();
        l.factor.solve_into(r, &mut ws.panel, &mut ws.mid);
        u.factor.solve_into(&ws.mid, &mut ws.panel, z);
        Ok(())
    }

    /// Batched warm application `Z = M⁻¹ R` over the **fused panel
    /// kernels**: both factors are streamed once per
    /// [`crate::exec::PANEL_K`]-wide block of residuals instead of once
    /// per vector — the multi-RHS preconditioning path for block
    /// Krylov methods and batched serving. Per vector the result is
    /// bit-identical to [`PreconditionerEngine::apply_into`] (panel
    /// lanes never mix), and steady-state calls allocate nothing once
    /// `ws` has grown to the batch shape.
    ///
    /// # Errors
    /// Every residual is length-checked up front (a bad vector names
    /// its batch index); `zs` must hold exactly one vector per
    /// residual.
    pub fn apply_batch_into(
        &self,
        rs: &[Vec<f64>],
        zs: &mut [Vec<f64>],
        ws: &mut ApplyWorkspace,
    ) -> Result<(), SolveError> {
        let n = self.n();
        if let Some((k, r)) = rs.iter().enumerate().find(|(_, r)| r.len() != n) {
            return Err(SolveError::DimensionMismatch {
                n,
                rhs: r.len(),
                index: Some(k),
                buffer: "r",
            });
        }
        if zs.len() != rs.len() {
            return Err(SolveError::OutputLength { n: rs.len(), out: zs.len(), buffer: "zs" });
        }
        self.apply_batch_prevalidated(rs, zs, ws)
    }

    /// The batched-apply body with per-residual validation already done
    /// — the entry point for the [`crate::serve`] dispatcher, which
    /// length-checks every request once at admission and must not
    /// re-pay a validation sweep per coalesced lane. Dimension
    /// discipline is the caller's obligation (`debug_assert`ed);
    /// results are exactly [`PreconditionerEngine::apply_batch_into`]'s.
    pub(crate) fn apply_batch_prevalidated(
        &self,
        rs: &[Vec<f64>],
        zs: &mut [Vec<f64>],
        ws: &mut ApplyWorkspace,
    ) -> Result<(), SolveError> {
        let n = self.n();
        debug_assert!(rs.iter().all(|r| r.len() == n), "prevalidated residual length");
        debug_assert_eq!(rs.len(), zs.len(), "prevalidated output count");
        if rs.is_empty() {
            return Ok(());
        }
        while ws.mids.len() < rs.len() {
            ws.mids.push(Vec::new());
        }
        let ApplyWorkspace { mids, panel, .. } = ws;
        let mids = &mut mids[..rs.len()];
        let (l, u) = self.epochs();
        l.factor.solve_panel_into(rs, panel, mids);
        u.factor.solve_panel_into(mids, panel, zs);
        Ok(())
    }

    /// Self-contained application `z = M⁻¹ r` with engine-pooled
    /// scratch — the [`Precondition`] entry point the Krylov drivers
    /// call. Identical numerics to
    /// [`PreconditionerEngine::apply_into`]; steady-state calls stop
    /// allocating once the recycled workspace pool has warmed up.
    pub fn apply_assign(&self, r: &[f64], z: &mut [f64]) -> Result<(), SolveError> {
        let mut ws = self.take_apply_workspace();
        let out = self.apply_into(r, z, &mut ws);
        self.put_apply_workspace(ws);
        out
    }

    /// Pop a recycled apply workspace (or a fresh one on first use).
    /// Pair with [`PreconditionerEngine::put_apply_workspace`] to keep
    /// steady-state callers allocation-free without threading a
    /// workspace through every call site.
    pub fn take_apply_workspace(&self) -> ApplyWorkspace {
        self.apply_pool.take()
    }

    /// Return a workspace to the recycle pool.
    pub fn put_apply_workspace(&self, ws: ApplyWorkspace) {
        self.apply_pool.put(ws);
    }
}

/// A preconditioner application `z = M⁻¹ r` as the Krylov drivers see
/// it — the seam that lets one PCG/BiCGSTAB loop run over either a
/// locally held [`PreconditionerEngine`] or a shared
/// [`crate::serve::ServedPreconditioner`] (whose applications are
/// coalesced with foreground traffic into fused panels by a
/// [`crate::serve::SolverService`]). Both implementations sweep the
/// same factors with the same per-row operation sequence, so the
/// Krylov trajectory is bit-identical whichever one a caller hands in.
pub trait Precondition {
    /// System dimension (square).
    fn dim(&self) -> usize;
    /// Apply `z = M⁻¹ r` into the caller's buffer (`z.len() == dim()`).
    fn precondition_into(&self, r: &[f64], z: &mut [f64]) -> Result<(), SolveError>;
}

impl Precondition for PreconditionerEngine<'_> {
    fn dim(&self) -> usize {
        self.n()
    }

    fn precondition_into(&self, r: &[f64], z: &mut [f64]) -> Result<(), SolveError> {
        self.apply_assign(r, z)
    }
}

/// Options for the Krylov drivers.
#[derive(Debug, Clone)]
pub struct KrylovOptions {
    /// Iteration cap; hitting it returns a report with
    /// `converged == false` (not an error).
    pub max_iterations: usize,
    /// Convergence threshold on the relative residual `‖r‖₂ / ‖b‖₂`.
    pub rel_tol: f64,
}

impl Default for KrylovOptions {
    fn default() -> Self {
        KrylovOptions { max_iterations: 500, rel_tol: 1e-8 }
    }
}

/// Result of a Krylov solve: the iterate plus the convergence record.
#[derive(Debug, Clone)]
pub struct KrylovReport {
    /// The final iterate.
    pub x: Vec<f64>,
    /// Whether the relative residual reached `rel_tol`.
    pub converged: bool,
    /// Iterations performed.
    pub iterations: usize,
    /// Relative residual `‖r‖₂ / ‖b‖₂` per iteration;
    /// `residual_history[0]` is the initial residual (1.0 for a zero
    /// initial guess), one entry appended per iteration.
    pub residual_history: Vec<f64>,
    /// Which driver produced this report (`"pcg"` / `"bicgstab"`).
    pub method: &'static str,
}

impl KrylovReport {
    /// The last recorded relative residual.
    pub fn final_rel_residual(&self) -> f64 {
        *self.residual_history.last().unwrap_or(&0.0)
    }
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

fn norm(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

fn check_dims(
    a: &(impl SpMv + ?Sized),
    b: &[f64],
    m: &(impl Precondition + ?Sized),
) -> Result<usize, SolveError> {
    let n = m.dim();
    if a.dim() != n {
        return Err(SolveError::ShapeMismatch { what: "operator", n, got: a.dim() });
    }
    if b.len() != n {
        return Err(SolveError::DimensionMismatch { n, rhs: b.len(), index: None, buffer: "b" });
    }
    Ok(n)
}

/// Preconditioned conjugate gradients: solve `A x = b` for symmetric
/// positive-definite `A` with `m` as `M⁻¹`, from a zero initial guess.
///
/// Every iteration performs one [`SpMv::spmv_into`] and one warm
/// [`PreconditionerEngine::apply_into`] (two triangular solves on the
/// shared engine pair) — the paper's §I workload, end to end. The
/// trajectory is deterministic to the bit for fixed inputs.
///
/// # Errors
/// Dimension mismatches are typed errors up front; a collapsed
/// recurrence denominator (`pᵀAp` or `rᵀz` zero/non-finite — typically
/// an operator or preconditioner that is not positive definite) is
/// [`SolveError::Breakdown`]. Running out of iterations is **not** an
/// error: the report says `converged == false`.
pub fn pcg<A: SpMv + ?Sized, M: Precondition + ?Sized>(
    a: &A,
    b: &[f64],
    m: &M,
    opts: &KrylovOptions,
) -> Result<KrylovReport, SolveError> {
    check_dims(a, b, m)?;
    pcg_inner(a, b, m, opts)
}

fn pcg_inner<A: SpMv + ?Sized, M: Precondition + ?Sized>(
    a: &A,
    b: &[f64],
    m: &M,
    opts: &KrylovOptions,
) -> Result<KrylovReport, SolveError> {
    let n = m.dim();
    let mut x = vec![0.0f64; n];
    let b_norm = norm(b);
    let mut history = Vec::with_capacity(opts.max_iterations + 1);
    if b_norm == 0.0 {
        history.push(0.0);
        return Ok(KrylovReport {
            x,
            converged: true,
            iterations: 0,
            residual_history: history,
            method: "pcg",
        });
    }
    history.push(1.0);
    let mut r = b.to_vec();
    let mut z = vec![0.0f64; n];
    let mut ap = vec![0.0f64; n];
    m.precondition_into(&r, &mut z)?;
    let mut p = z.clone();
    let mut rz = dot(&r, &z);
    let mut converged = false;
    let mut iterations = 0usize;
    for k in 0..opts.max_iterations {
        a.spmv_into(&p, &mut ap);
        let pap = dot(&p, &ap);
        if pap == 0.0 || !pap.is_finite() {
            return Err(SolveError::Breakdown { method: "pcg", iteration: k });
        }
        let alpha = rz / pap;
        for i in 0..n {
            x[i] += alpha * p[i];
            r[i] -= alpha * ap[i];
        }
        let rel = norm(&r) / b_norm;
        history.push(rel);
        iterations = k + 1;
        if rel <= opts.rel_tol {
            converged = true;
            break;
        }
        if k + 1 == opts.max_iterations {
            break; // budget exhausted: the next direction would be discarded
        }
        m.precondition_into(&r, &mut z)?;
        let rz_next = dot(&r, &z);
        // rz guards the division below; rz_next would stall the next
        // search direction — both are breakdowns *now*, not next round
        if rz == 0.0 || rz_next == 0.0 || !rz_next.is_finite() {
            return Err(SolveError::Breakdown { method: "pcg", iteration: k });
        }
        let beta = rz_next / rz;
        rz = rz_next;
        for i in 0..n {
            p[i] = z[i] + beta * p[i];
        }
    }
    Ok(KrylovReport { x, converged, iterations, residual_history: history, method: "pcg" })
}

/// Preconditioned BiCGSTAB: solve `A x = b` for general (possibly
/// nonsymmetric) `A` with `m` as `M⁻¹`, from a zero initial guess.
///
/// Two [`SpMv::spmv_into`]s and two warm preconditioner applications
/// per iteration (van der Vorst's stabilized bi-conjugate gradients).
/// The half-step check means convergence can land mid-iteration; the
/// residual history records whichever residual ended the iteration.
///
/// # Errors
/// Same contract as [`pcg`]: typed dimension errors up front,
/// [`SolveError::Breakdown`] on a collapsed denominator (`ρ`, `r̂ᵀv`,
/// `tᵀt` or `ω` zero/non-finite), and an exhausted iteration budget is
/// reported, not raised.
pub fn bicgstab<A: SpMv + ?Sized, M: Precondition + ?Sized>(
    a: &A,
    b: &[f64],
    m: &M,
    opts: &KrylovOptions,
) -> Result<KrylovReport, SolveError> {
    check_dims(a, b, m)?;
    bicgstab_inner(a, b, m, opts)
}

fn bicgstab_inner<A: SpMv + ?Sized, M: Precondition + ?Sized>(
    a: &A,
    b: &[f64],
    m: &M,
    opts: &KrylovOptions,
) -> Result<KrylovReport, SolveError> {
    let n = m.dim();
    let mut x = vec![0.0f64; n];
    let b_norm = norm(b);
    let mut history = Vec::with_capacity(opts.max_iterations + 1);
    if b_norm == 0.0 {
        history.push(0.0);
        return Ok(KrylovReport {
            x,
            converged: true,
            iterations: 0,
            residual_history: history,
            method: "bicgstab",
        });
    }
    history.push(1.0);
    let mut r = b.to_vec();
    let r_hat = b.to_vec();
    let (mut rho, mut alpha, mut omega) = (1.0f64, 1.0f64, 1.0f64);
    let mut p = vec![0.0f64; n];
    let mut v = vec![0.0f64; n];
    let mut p_hat = vec![0.0f64; n];
    let mut s = vec![0.0f64; n];
    let mut s_hat = vec![0.0f64; n];
    let mut t = vec![0.0f64; n];
    let mut converged = false;
    let mut iterations = 0usize;
    for k in 0..opts.max_iterations {
        let rho_next = dot(&r_hat, &r);
        if rho_next == 0.0 || !rho_next.is_finite() {
            return Err(SolveError::Breakdown { method: "bicgstab", iteration: k });
        }
        let beta = (rho_next / rho) * (alpha / omega);
        rho = rho_next;
        for i in 0..n {
            p[i] = r[i] + beta * (p[i] - omega * v[i]);
        }
        m.precondition_into(&p, &mut p_hat)?;
        a.spmv_into(&p_hat, &mut v);
        let rv = dot(&r_hat, &v);
        if rv == 0.0 || !rv.is_finite() {
            return Err(SolveError::Breakdown { method: "bicgstab", iteration: k });
        }
        alpha = rho / rv;
        for i in 0..n {
            s[i] = r[i] - alpha * v[i];
        }
        iterations = k + 1;
        // half-step convergence: x + α p̂ may already be good enough
        let s_rel = norm(&s) / b_norm;
        if s_rel <= opts.rel_tol {
            for i in 0..n {
                x[i] += alpha * p_hat[i];
            }
            history.push(s_rel);
            converged = true;
            break;
        }
        m.precondition_into(&s, &mut s_hat)?;
        a.spmv_into(&s_hat, &mut t);
        let tt = dot(&t, &t);
        if tt == 0.0 || !tt.is_finite() {
            return Err(SolveError::Breakdown { method: "bicgstab", iteration: k });
        }
        omega = dot(&t, &s) / tt;
        if omega == 0.0 || !omega.is_finite() {
            return Err(SolveError::Breakdown { method: "bicgstab", iteration: k });
        }
        for i in 0..n {
            x[i] += alpha * p_hat[i] + omega * s_hat[i];
            r[i] = s[i] - omega * t[i];
        }
        let rel = norm(&r) / b_norm;
        history.push(rel);
        if rel <= opts.rel_tol {
            converged = true;
            break;
        }
    }
    Ok(KrylovReport { x, converged, iterations, residual_history: history, method: "bicgstab" })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use crate::solver::SolverKind;
    use sparsemat::factor::ilu0;
    use sparsemat::gen;
    use std::time::Duration;

    fn opts(kind: SolverKind) -> SolveOptions {
        SolveOptions { kind, verify: false, ..SolveOptions::default() }
    }

    #[test]
    fn apply_matches_reference_pair() {
        let a = gen::grid_laplacian(12, 9);
        let f = ilu0(&a, 1e-8).unwrap();
        let pre = PreconditionerEngine::from_ilu0(
            &f,
            MachineConfig::dgx1(4),
            &opts(SolverKind::ZeroCopy { per_gpu: 8 }),
        )
        .unwrap();
        let r: Vec<f64> = (0..a.n()).map(|i| ((i % 13) as f64) - 6.0).collect();
        let z = pre.apply(&r).unwrap();
        let y = reference::solve_lower(&f.l, &r).unwrap();
        let expect = reference::solve_upper(&f.u, &y).unwrap();
        assert_eq!(z, expect, "apply must be bit-identical to the reference pair");
    }

    /// The pair never waits either: with both sides pinned the way an
    /// in-flight application pins them, a pair refresh from another
    /// thread commits, the pinned pair still applies the old bits, and
    /// a new application the new ones.
    #[test]
    fn pair_refresh_never_waits_for_a_pinned_pair() {
        let a = gen::grid_laplacian(12, 9);
        let f = ilu0(&a, 1e-8).unwrap();
        let mut f2 = f.clone();
        for v in f2.l.values_mut().iter_mut().chain(f2.u.values_mut()) {
            *v *= 1.03;
        }
        let o = opts(SolverKind::LevelSet);
        let pre = PreconditionerEngine::from_ilu0(&f, MachineConfig::dgx1(2), &o).unwrap();
        let fresh = PreconditionerEngine::from_ilu0(&f2, MachineConfig::dgx1(2), &o).unwrap();
        let r: Vec<f64> = (0..a.n()).map(|i| ((i % 13) as f64) - 6.0).collect();
        let (old, new) = (pre.apply(&r).unwrap(), fresh.apply(&r).unwrap());
        std::thread::scope(|s| {
            // pinned inside the scope, so a failing assert unpins the
            // pair before the scope joins the refresher
            let (l, u) = pre.epochs();
            let (tx, rx) = std::sync::mpsc::channel();
            let (p, f2) = (&pre, &f2);
            s.spawn(move || {
                tx.send(p.refresh(f2).map(|(lr, ur)| (lr.value_epoch, ur.value_epoch)))
            });
            let committed = rx.recv_timeout(Duration::from_secs(60)).expect("the refresh waited");
            assert_eq!(committed.unwrap(), (1, 1));
            let (mut y, mut z, mut ws) =
                (vec![0.0; a.n()], vec![0.0; a.n()], ReplayWorkspace::new());
            l.factor.solve_into(&r, &mut ws, &mut y);
            u.factor.solve_into(&y, &mut ws, &mut z);
            assert_eq!(z, old, "the pinned pair keeps its values");
            assert_eq!(pre.apply(&r).unwrap(), new, "a new application sees the refresh");
        });
    }

    #[test]
    fn mismatched_factor_dims_are_rejected() {
        let l = gen::banded_lower(16, 4, 3.0, 1);
        let u = gen::banded_lower(20, 4, 3.0, 2).transpose();
        let err =
            PreconditionerEngine::build(&l, &u, MachineConfig::dgx1(2), &opts(SolverKind::Serial))
                .unwrap_err();
        assert!(matches!(err, SolveError::ShapeMismatch { what: "upper factor", n: 16, got: 20 }));
        assert!(err.to_string().contains("upper factor"), "{err}");
    }

    #[test]
    fn batch_apply_names_offending_index() {
        let a = gen::grid_laplacian(6, 6);
        let f = ilu0(&a, 1e-8).unwrap();
        let pre =
            PreconditionerEngine::from_ilu0(&f, MachineConfig::dgx1(2), &opts(SolverKind::Serial))
                .unwrap();
        let rs = vec![vec![1.0; 36], vec![1.0; 7], vec![1.0; 36]];
        let mut zs = vec![Vec::new(); 3];
        let mut ws = pre.take_apply_workspace();
        let err = pre.apply_batch_into(&rs, &mut zs, &mut ws).unwrap_err();
        assert!(
            matches!(err, SolveError::DimensionMismatch { n: 36, rhs: 7, index: Some(1), .. }),
            "{err:?}"
        );
    }

    #[test]
    fn pcg_handles_zero_rhs() {
        let a = gen::grid_laplacian(5, 5);
        let f = ilu0(&a, 1e-8).unwrap();
        let pre =
            PreconditionerEngine::from_ilu0(&f, MachineConfig::dgx1(2), &opts(SolverKind::Serial))
                .unwrap();
        let rep = pcg(&a, &vec![0.0; a.n()], &pre, &KrylovOptions::default()).unwrap();
        assert!(rep.converged);
        assert_eq!(rep.iterations, 0);
        assert!(rep.x.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn unconverged_is_reported_not_raised() {
        let a = gen::grid_laplacian(16, 16);
        let f = ilu0(&a, 1e-8).unwrap();
        let pre =
            PreconditionerEngine::from_ilu0(&f, MachineConfig::dgx1(2), &opts(SolverKind::Serial))
                .unwrap();
        let b = vec![1.0; a.n()];
        let tight = KrylovOptions { max_iterations: 2, rel_tol: 1e-14 };
        let rep = pcg(&a, &b, &pre, &tight).unwrap();
        assert!(!rep.converged);
        assert_eq!(rep.iterations, 2);
        assert_eq!(rep.residual_history.len(), 3);
    }
}
