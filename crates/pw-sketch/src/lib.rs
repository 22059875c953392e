//! Deterministic, mergeable per-host sketches for the bounded-memory
//! ("sketched") profile tier.
//!
//! Every structure here is a *pure function of the multiset of inserted
//! items*: insertion order, merge order, and merge grouping never change
//! the resulting state bit-for-bit. That is the property the detection
//! pipeline's determinism contract rests on — host-sharded extraction may
//! absorb flows on any thread and concatenate shards in any grouping, and
//! the profile bytes must come out identical.
//!
//! Three structures cover the unbounded per-host state of the exact tier:
//!
//! - [`DistinctSketch`] — distinct-destination counting. Exact (a sorted
//!   key set) up to a small cap, then a fixed-seed HyperLogLog. Stands in
//!   for the exact tier's destination counts, which the extractor takes
//!   from its per-worker last-contact map: `distinct_destinations` and
//!   the θ_churn numerator/denominator.
//! - [`GapSketch`] — interstitial-gap distributions. Exact samples up to a
//!   cap, then a fixed log-spaced histogram that lowers directly into
//!   [`pw_analysis::CdfRepr`] so the alloc-free EMD kernel runs on
//!   sketched hosts unchanged.
//! - [`LastSeen`] — a fixed-capacity last-contact-time cache standing in
//!   for the exact tier's per-worker last-contact map.
//!
//! Why not GK or t-digest for the quantile side? Both are *stream-order
//! dependent*: merging shard A into B and B into A can produce different
//! centroids/tuples, which breaks the bit-identical merge law above. The
//! exact-then-fixed-bins design trades a little resolution on huge hosts
//! for merges that commute exactly (see DESIGN.md, "Sketched profile
//! tier").
//!
//! The whole per-host footprint is bounded at compile time: see
//! [`SKETCHED_BYTES_PER_HOST_CAP`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod distinct;
mod gap;
mod hash;
mod last_seen;

pub use distinct::DistinctSketch;
pub use gap::GapSketch;
pub use hash::splitmix64;
pub use last_seen::LastSeen;

/// Hard ceiling on the bytes one sketched host may hold across all of its
/// sketches (the two [`DistinctSketch`]es, the [`GapSketch`], and the
/// accumulation-time [`LastSeen`] cache).
///
/// Compile-time asserted against the worst-case size of every component —
/// growing a cap or adding a field without re-budgeting fails the build.
pub const SKETCHED_BYTES_PER_HOST_CAP: usize = 16 * 1024;

const _: () = assert!(
    2 * DistinctSketch::MAX_BYTES + GapSketch::MAX_BYTES + LastSeen::<u64>::MAX_BYTES
        <= SKETCHED_BYTES_PER_HOST_CAP,
    "sketch component worst-case sizes exceed the per-host byte cap"
);
