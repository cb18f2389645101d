//! Black-box recovery of cache set-index functions, and the price of
//! attacking them.
//!
//! The static analyzer (`primecache-analyze`) *derives* each scheme's
//! conflict structure from its definition. This crate plays the opposing
//! role: it is handed an opaque cache it may only probe with crafted
//! address traces — observing nothing but miss counts, the position the
//! Sandy Bridge hash reverse-engineering work starts from — and tries to
//! reconstruct the index function's structure:
//!
//! * **residue-class inference** (ascending stride scan + gcd-free
//!   verification) recovers `a mod m` schemes such as pMod,
//! * a **GF(2) class-labeling solve** over same-set probe pairs recovers
//!   any bit-linear scheme (Base, XOR, folded XOR) up to the invariant a
//!   conflict observer can see — the row space,
//! * **bitwise factor probing** recovers the affine prime-displacement
//!   family `(p·T + x) mod 2^k`,
//! * anything that survives all three verified hypotheses is declared
//!   **Opaque** — an honest "no exact model fits", which is itself the
//!   correct answer for skewed multi-bank organizations.
//!
//! The recovered model and the static model meet in the **differential
//! oracle**: `canonicalize(recovered) == canonicalize(static)`
//! (`primecache_analyze::canonical`), so each side checks the other.
//! [`evict`] measures the complementary hardness metric — what an
//! eviction set costs to build per scheme, for a naive strided attacker,
//! a random-pool attacker, and an informed attacker armed with the
//! recovered model.

pub mod evict;
pub mod recover;
pub mod report;

pub use evict::{eviction_cost, EvictionCost, TierCost};
pub use recover::{recover, Recovery, Verdict};
pub use report::{attack_report_json, AttackEntry, ATTACK_REPORT_SCHEMA, ATTACK_REPORT_VERSION};
