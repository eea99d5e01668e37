//! A GraphBLAS-style linear-algebra graph framework on the virtual GPU,
//! modeled on GraphBLAST (the implementation the paper uses).
//!
//! The paper's Algorithms 2–4 are written against five GraphBLAS
//! operations plus one extension; this crate provides all of them with
//! the same semantics:
//!
//! | paper call          | here                       |
//! |---------------------|----------------------------|
//! | `GrB_assign`        | [`ops::assign_scalar`]     |
//! | `GrB_apply`         | [`ops::apply`] / [`ops::apply_indexed`] |
//! | `GrB_vxm`           | [`ops::vxm`]               |
//! | `GrB_eWiseAdd`      | [`ops::ewise_add`]         |
//! | `GrB_eWiseMult`     | [`ops::ewise_mult`]        |
//! | `GrB_reduce`        | [`ops::reduce`]            |
//! | `GrB_Vector_setElement` | [`Vector::set_element`] (bills a host→device copy, reproducing the paper's JPL profiling note) |
//! | `GxB_scatter` (extension) | [`ops::scatter`]     |
//!
//! Masking follows the paper's §III.A description: a mask element
//! "C-style castable to 0" leaves the output unchanged, anything else
//! lets the computation through; [`Descriptor`] adds the structural
//! complement and replace flags. Matrices are pattern-only CSR (graphs),
//! so semiring "multiply" maps the vector operand only — `×` against an
//! implicit 1 — matching how the coloring algorithms use `MaxTimes` and
//! the Boolean semiring.
//!
//! ```
//! use gc_graphblas::{ops, Descriptor, Vector};
//! use gc_vgpu::Device;
//!
//! let dev = Device::k40c();
//! let w = Vector::<i64>::new(5);
//! ops::assign_scalar(&dev, &w, None, 1i64, Descriptor::default());
//! let total = ops::reduce(&dev, 0i64, |a, b| a + b, &w);
//! assert_eq!(total, 5);
//! ```

pub mod desc;
pub mod matrix;
pub mod ops;
pub mod semiring;
pub mod vector;

pub use desc::Descriptor;
pub use matrix::Matrix;
pub use semiring::{BooleanOrAnd, MaxTimes, MinTimes, PlusTimes, SemiringOps};
pub use vector::Vector;

#[cfg(test)]
mod proptests;
