//! The verified concurrent protocols, written once against the
//! [`crate::api`] facade.
//!
//! Production instantiates these with [`crate::sync::StdBackend`] (the
//! sweep scheduler's workers run [`sweep::claim_loop`]); the model
//! tests instantiate the *same functions* with
//! [`crate::model::ModelBackend`] and explore every interleaving. A bug fixed here is fixed in both
//! worlds, and a property verified here is verified for the code that
//! actually ships.

pub mod sweep;
