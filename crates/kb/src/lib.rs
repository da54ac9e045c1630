//! Knowledge base substrate for the Surveyor reproduction.
//!
//! The paper runs against "an extension of Freebase": a store of entities,
//! each with a *most notable type*, surface-form aliases used by the entity
//! tagger, and objective attributes (population, GDP per capita, lake area,
//! relative mountain height) that the empirical studies correlate against.
//!
//! This crate provides:
//! - [`ids`]: compact, type-safe identifiers for entities and types.
//! - [`property`]: subjective properties (adjective + optional adverbs).
//! - [`intern`]: the process-global `Property` ↔ `PropertyId` interner
//!   that lets hot structures key on `(EntityId, PropertyId)` `u32` pairs —
//!   one locked global table plus the worker-local [`InternCache`] that
//!   makes the steady-state extraction path lock-free.
//! - [`entity`]: the entity record.
//! - [`kb`]: the [`KnowledgeBase`] store with alias and type indexes.
//! - [`builder`]: a fluent builder for assembling knowledge bases.
//! - [`seed`]: the concrete datasets used by every experiment — Californian
//!   cities (Fig. 3), the five evaluation domains of Table 2, the Appendix A
//!   domains (countries / Swiss lakes / British mountains), and random
//!   long-tail domains for the Appendix D study.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod entity;
pub mod ids;
pub mod intern;
pub mod kb;
pub mod property;
pub mod seed;

pub use builder::KnowledgeBaseBuilder;
pub use entity::Entity;
pub use ids::{EntityId, TypeId};
pub use intern::{CacheStats, InternCache, PropertyId};
pub use kb::{EntityType, KnowledgeBase};
pub use property::Property;
