//! Static conflict-miss analysis of cache set-index functions.
//!
//! The simulator measures conflict misses; this crate *derives* them.
//! Every index function in `primecache_core` falls into one of three
//! algebraic families — GF(2)-linear (traditional, XOR, folded XOR, skew
//! banks), residue (prime modulo), affine mod `2^k` (prime displacement) —
//! and each family admits an exact symbolic model ([`IndexModel`]).
//!
//! From the model we compute, without running a single simulated access:
//!
//! * **rank / kernel** of the map (GF(2) Gaussian elimination),
//! * **conflict-stride generators** — the null-space values whose
//!   carry-free multiples collapse onto a single set,
//! * per-indexer **certificates** ([`Certificate`]): the permutation
//!   property, the Eq. 1 balance bound, sequence invariance, and the
//!   Theorem 1 strided-conflict-freedom verdict,
//! * **config lints** ([`lint_kind`] & friends) rejecting degenerate
//!   setups: composite moduli, even displacement factors, rank-deficient
//!   or duplicated skew banks.
//!
//! [`self_check`] cross-validates every static prediction against the
//! concrete indexers and brute-force conflict counting — exhaustively on
//! small geometries, by sampling on the paper's 512 KB L2.

pub mod canonical;
pub mod certificate;
pub mod gf2;
pub mod lint;
pub mod lower;
pub mod model;
pub mod report;
pub mod verify;

pub use canonical::{canonicalize, models_equivalent, CanonicalModel};
pub use certificate::{
    certify_all, certify_expr, certify_kind, certify_skew_disp_bank, certify_skew_xor_bank,
    certify_xor_folded, Certificate, Invariance, Theorem1,
};
pub use gf2::{input_mask, Gf2Matrix};
pub use lint::{
    has_errors, lint_displacement, lint_expr, lint_kind, lint_modulus, lint_skew_disp,
    lint_skew_xor, lint_sweep_shape, Lint, LintLevel,
};
pub use lower::lower_expr;
pub use model::{model_of, skew_disp_model, skew_xor_model, xor_folded_model, IndexModel};
pub use report::{canonical_json, report_json, REPORT_SCHEMA, REPORT_VERSION};
pub use verify::{self_check, CheckResult, SelfCheck};
