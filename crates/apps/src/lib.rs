//! # redcr-apps — NPB-style distributed kernels over `redcr-mpi`
//!
//! The paper's experiments run a modified NPB **CG** (conjugate gradient)
//! benchmark — "typical of unstructured grid computations … irregular long
//! distance communication, unstructured matrix vector multiplication" —
//! under the RedMPI replication layer with BLCR checkpointing. This crate
//! provides that workload and two companions with different
//! communication/computation ratios `α`:
//!
//! * [`cg`] — a distributed conjugate-gradient solver on a random sparse
//!   symmetric positive-definite matrix (row-block partition, per-iteration
//!   allgather + allreduces). The paper measures `α ≈ 0.2` for CG; the
//!   [`compute::ComputeModel`] plus the runtime's
//!   [`CostModel`](redcr_mpi::CostModel) let benches calibrate the same
//!   ratio.
//! * [`jacobi`] — a 1-D Jacobi/Laplace sweep with halo exchange (neighbour
//!   communication, lower `α`).
//! * [`ep`] — an embarrassingly parallel kernel (`α ≈ 0`).
//! * [`workload`] — helpers to measure the realized `α` of any kernel.
//!
//! All kernels are generic over [`Communicator`](redcr_mpi::Communicator),
//! so they run identically on the plain runtime and under the replication
//! layer. Each state type states its checkpoint layout in one
//! `redcr_ckpt::codec_struct!` line under its definition.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cg;
pub mod compute;
pub mod ep;
pub mod jacobi;
pub mod sparse;
pub mod workload;

pub use cg::{CgConfig, CgSolver, CgState};
pub use compute::ComputeModel;
pub use sparse::CsrMatrix;
