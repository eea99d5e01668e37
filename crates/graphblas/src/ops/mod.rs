//! The GraphBLAS operations used by the paper's coloring algorithms.

mod active;
mod apply;
mod assign;
mod ewise;
mod extract;
mod reduce;
mod scatter;
mod vxm;

pub use active::{
    apply_list, apply_where_compact, assign_adj, assign_scalar_list, assign_scalar_where,
    assign_where_compact, ewise_add_list, reduce_list, scatter_adj, vxm_apply_list, vxm_list,
};
pub use apply::{apply, apply_indexed};
pub use assign::assign_scalar;
pub use ewise::{ewise_add, ewise_mult};
pub use extract::{extract, select};
pub use reduce::reduce;
pub use scatter::scatter;
pub use vxm::{mxv, vxm, vxm_direction_opt, vxm_push, PUSH_THRESHOLD};
