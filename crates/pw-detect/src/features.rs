//! Per-host behavioural features from flow records.
//!
//! Batch extraction works over the columnar [`FlowTable`]: endpoints are
//! already interned to dense [`HostId`]s, so the table walk consults the
//! `is_internal` oracle once per *host* instead of twice per *flow*. The
//! streaming engine's window close walks its flow records in place
//! instead, without building a table, and consults the oracle per flow.
//! Every extraction mode — the table walk, serial or host-sharded,
//! [`ProfileAccumulator`], and the engine's record walk — funnels into the
//! same per-flow kernel and produces a [`ProfileTable`], the dense
//! per-host table every pipeline stage indexes.
//!
//! The kernel keeps its exact-tier per-destination state flat: one map of
//! last-contact times per worker, keyed by (host slot, destination), and
//! per host a list of first contacts, collected into the profile's
//! `first_contact` map once when the walk finishes.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::net::Ipv4Addr;

use pw_analysis::{CdfRepr, Histogram};
use pw_flow::{FlowRecord, FlowTable, HostId, HostInterner};
use pw_netsim::{SimDuration, SimTime};
use pw_sketch::{DistinctSketch, GapSketch, LastSeen, SKETCHED_BYTES_PER_HOST_CAP};

use crate::stream::MAX_THREADS;

/// Which per-host representation an extraction mode accumulates.
///
/// - [`ProfileTier::Exact`] keeps the full per-destination first-contact
///   map and every interstitial gap sample — unbounded per-host memory,
///   exact detector inputs. The default.
/// - [`ProfileTier::Sketched`] keeps fixed-size sketches instead
///   (see [`pw_sketch`]): memory per host is capped at
///   [`SKETCHED_BYTES_PER_HOST_CAP`] bytes no matter how much the host
///   talks. Hosts whose destination and gap counts stay under the sparse
///   caps are still *exact*, so small populations decide identically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ProfileTier {
    /// Unbounded exact state (the paper's representation).
    #[default]
    Exact,
    /// Bounded sketches with a compile-time byte cap per host.
    Sketched,
}

impl ProfileTier {
    /// Stable lowercase name (used by the CLI flag and checkpoints).
    pub fn name(self) -> &'static str {
        match self {
            ProfileTier::Exact => "exact",
            ProfileTier::Sketched => "sketched",
        }
    }

    /// Parses the stable name back.
    pub fn from_name(s: &str) -> Option<Self> {
        match s {
            "exact" => Some(ProfileTier::Exact),
            "sketched" => Some(ProfileTier::Sketched),
            _ => None,
        }
    }
}

/// The tier-specific payload of a [`HostProfile`]: either the exact
/// per-destination state or its bounded sketch counterpart.
#[derive(Debug, Clone, PartialEq)]
pub enum ProfileRepr {
    /// Full-fidelity state, unbounded in the number of destinations and
    /// gap samples.
    Exact {
        /// First contact time per destination the host initiated flows to.
        first_contact: BTreeMap<Ipv4Addr, SimTime>,
        /// Pooled per-destination interstitial times, in seconds.
        interstitials: Vec<f64>,
    },
    /// Bounded sketches (see [`pw_sketch`] for the determinism contract).
    Sketched {
        /// All destinations the host initiated flows to.
        destinations: DistinctSketch,
        /// Destinations first contacted within one hour of first activity
        /// (the θ_churn "old peer" set: any contact at `t ≤ cutoff` implies
        /// the first contact was, too).
        early_destinations: DistinctSketch,
        /// Interstitial gap distribution.
        gaps: GapSketch,
    },
}

// The sketched payload must respect the advertised per-host byte cap even
// before the accumulation-time `LastSeen` cache is added on top.
const _: () = assert!(
    std::mem::size_of::<HostProfile>()
        + 2 * DistinctSketch::MAX_BYTES
        + GapSketch::MAX_BYTES
        + LastSeen::<SimTime>::MAX_BYTES
        <= SKETCHED_BYTES_PER_HOST_CAP,
    "sketched HostProfile worst case exceeds SKETCHED_BYTES_PER_HOST_CAP"
);

/// Behavioural profile of one internal host over a detection window.
///
/// All quantities follow §IV of the paper:
///
/// - *volume* is the average number of bytes the host uploads per flow,
///   over every flow it participates in (initiated or received);
/// - *churn* is the fraction of destination IPs first contacted after the
///   host's first hour of activity, among all destinations it contacted
///   (initiated flows);
/// - *interstitial times* are the gaps between consecutive flows the host
///   initiates to the same destination IP, pooled over all destinations.
///
/// The scalar counters are tier-independent; the per-destination state
/// lives in [`HostProfile::repr`] and is either exact or sketched (see
/// [`ProfileTier`]). Detector-facing accessors below are tier-agnostic.
#[derive(Debug, Clone, PartialEq)]
pub struct HostProfile {
    /// The host.
    pub ip: Ipv4Addr,
    /// Flows the host participated in (either side).
    pub flows_involving: u64,
    /// Total bytes the host uploaded across those flows.
    pub bytes_uploaded: u64,
    /// Flows the host initiated.
    pub initiated: u64,
    /// Initiated flows that failed.
    pub initiated_failed: u64,
    /// Time of the host's first initiated flow in the window.
    pub first_activity: Option<SimTime>,
    /// Tier-specific destination and gap state.
    pub repr: ProfileRepr,
}

impl HostProfile {
    fn new(ip: Ipv4Addr, tier: ProfileTier) -> Self {
        let repr = match tier {
            ProfileTier::Exact => ProfileRepr::Exact {
                first_contact: BTreeMap::new(),
                interstitials: Vec::new(),
            },
            ProfileTier::Sketched => ProfileRepr::Sketched {
                destinations: DistinctSketch::new(),
                early_destinations: DistinctSketch::new(),
                gaps: GapSketch::new(),
            },
        };
        Self {
            ip,
            flows_involving: 0,
            bytes_uploaded: 0,
            initiated: 0,
            initiated_failed: 0,
            first_activity: None,
            repr,
        }
    }

    /// The representation tier this profile carries.
    pub fn tier(&self) -> ProfileTier {
        match self.repr {
            ProfileRepr::Exact { .. } => ProfileTier::Exact,
            ProfileRepr::Sketched { .. } => ProfileTier::Sketched,
        }
    }

    /// Average bytes uploaded per flow (`None` if the host had no flows).
    pub fn avg_upload_per_flow(&self) -> Option<f64> {
        if self.flows_involving == 0 {
            None
        } else {
            Some(self.bytes_uploaded as f64 / self.flows_involving as f64)
        }
    }

    /// Failed fraction of initiated flows (`None` if none initiated).
    pub fn failed_rate(&self) -> Option<f64> {
        if self.initiated == 0 {
            None
        } else {
            Some(self.initiated_failed as f64 / self.initiated as f64)
        }
    }

    /// Whether the host initiated at least one successful flow (the §V-A
    /// eligibility condition).
    pub fn initiated_successfully(&self) -> bool {
        self.initiated > self.initiated_failed
    }

    /// Fraction of destinations first contacted more than one hour after
    /// the host's first activity — the churn metric of §IV-B. `None` if the
    /// host contacted no destinations.
    ///
    /// Exact while the sketched destination set is under its sparse cap
    /// (the counts are then integer-exact), a ratio of HLL estimates
    /// beyond it.
    pub fn new_ip_fraction(&self) -> Option<f64> {
        let first = self.first_activity?;
        match &self.repr {
            ProfileRepr::Exact { first_contact, .. } => {
                if first_contact.is_empty() {
                    return None;
                }
                let cutoff = first + SimDuration::from_hours(1);
                let new = first_contact.values().filter(|&&t| t > cutoff).count();
                Some(new as f64 / first_contact.len() as f64)
            }
            ProfileRepr::Sketched {
                destinations,
                early_destinations,
                ..
            } => {
                if destinations.is_empty() {
                    return None;
                }
                let all = destinations.count();
                let new = (all - early_destinations.count()).max(0.0);
                Some(new / all)
            }
        }
    }

    /// Number of distinct destinations contacted (estimated beyond the
    /// sketched tier's sparse cap).
    pub fn distinct_destinations(&self) -> usize {
        match &self.repr {
            ProfileRepr::Exact { first_contact, .. } => first_contact.len(),
            ProfileRepr::Sketched { destinations, .. } => destinations.count().round() as usize,
        }
    }

    /// Number of interstitial gap observations.
    pub fn interstitial_count(&self) -> usize {
        match &self.repr {
            ProfileRepr::Exact { interstitials, .. } => interstitials.len(),
            ProfileRepr::Sketched { gaps, .. } => gaps.count() as usize,
        }
    }

    /// Whether any interstitial gap was observed — the θ_hm eligibility
    /// condition, tier-agnostic.
    pub fn has_interstitials(&self) -> bool {
        self.interstitial_count() > 0
    }

    /// The raw interstitial gap samples, when the profile still holds them
    /// exactly: always for the exact tier, and for sketched hosts under
    /// the sparse cap (then sorted). Empty for densified sketches — use
    /// [`HostProfile::gap_point_masses`] there.
    pub fn interstitials(&self) -> &[f64] {
        match &self.repr {
            ProfileRepr::Exact { interstitials, .. } => interstitials,
            ProfileRepr::Sketched { gaps, .. } => gaps.samples().unwrap_or(&[]),
        }
    }

    /// The exact first-contact map, if this is an exact-tier profile.
    pub fn first_contact(&self) -> Option<&BTreeMap<Ipv4Addr, SimTime>> {
        match &self.repr {
            ProfileRepr::Exact { first_contact, .. } => Some(first_contact),
            ProfileRepr::Sketched { .. } => None,
        }
    }

    /// The interstitial distribution digested for the EMD kernel: exact
    /// samples (and sparse sketches, identically) go through the
    /// Freedman–Diaconis histogram — or `bin_width` when given — while
    /// densified sketches lower their fixed bins directly. `None` when no
    /// gaps were observed.
    ///
    /// # Panics
    ///
    /// Panics if `bin_width` is `Some` but not finite and positive
    /// (validated at configuration time by the θ_hm options).
    pub fn gap_cdf(&self, bin_width: Option<f64>) -> Option<CdfRepr> {
        match &self.repr {
            ProfileRepr::Exact { interstitials, .. } => {
                let h = match bin_width {
                    None => Histogram::freedman_diaconis(interstitials)?,
                    Some(w) => Histogram::with_bin_width(interstitials, w)?,
                };
                Some(CdfRepr::from_histogram(&h))
            }
            ProfileRepr::Sketched { gaps, .. } => gaps.to_cdf(bin_width),
        }
    }

    /// The interstitial distribution as normalized point masses, the shape
    /// the θ_hm L1 distance consumes. Same tier semantics as
    /// [`HostProfile::gap_cdf`].
    ///
    /// # Panics
    ///
    /// Panics if `bin_width` is `Some` but not finite and positive.
    pub fn gap_point_masses(&self, bin_width: Option<f64>) -> Option<Vec<(f64, f64)>> {
        match &self.repr {
            ProfileRepr::Exact { interstitials, .. } => {
                let h = match bin_width {
                    None => Histogram::freedman_diaconis(interstitials)?,
                    Some(w) => Histogram::with_bin_width(interstitials, w)?,
                };
                Some(h.point_masses())
            }
            ProfileRepr::Sketched { gaps, .. } => gaps.point_masses(bin_width),
        }
    }

    /// Estimated resident bytes of this profile (struct plus heap state).
    /// Exact-tier estimates grow with the destination and sample counts;
    /// sketched-tier estimates are bounded by
    /// [`SKETCHED_BYTES_PER_HOST_CAP`].
    pub fn estimated_bytes(&self) -> usize {
        let inline = std::mem::size_of::<Self>();
        match &self.repr {
            ProfileRepr::Exact {
                first_contact,
                interstitials,
            } => {
                // BTreeMap nodes cost well over the entry payload; 32
                // bytes/entry is a deliberate round under-estimate.
                inline + first_contact.len() * 32 + interstitials.len() * 8
            }
            ProfileRepr::Sketched {
                destinations,
                early_destinations,
                gaps,
            } => {
                inline
                    + destinations.estimated_bytes()
                    + early_destinations.estimated_bytes()
                    + gaps.estimated_bytes()
            }
        }
    }
}

/// Identifies the monitored endpoint of a border flow.
///
/// Returns `None` for non-border flows (both endpoints internal or both
/// external) — an edge monitor never sees them.
pub fn internal_endpoint<F>(f: &FlowRecord, is_internal: F) -> Option<Ipv4Addr>
where
    F: Fn(Ipv4Addr) -> bool,
{
    let src_internal = is_internal(f.src);
    let dst_internal = is_internal(f.dst);
    if src_internal == dst_internal {
        None
    } else if src_internal {
        Some(f.src)
    } else {
        Some(f.dst)
    }
}

/// Per-table-host internality flags: one `is_internal` call per distinct
/// endpoint, indexed by [`HostId::index`].
pub(crate) fn internal_flags<F>(table: &FlowTable, is_internal: &F) -> Vec<bool>
where
    F: Fn(Ipv4Addr) -> bool,
{
    table
        .hosts()
        .ips()
        .iter()
        .map(|&ip| is_internal(ip))
        .collect()
}

/// The monitored endpoint of table row `row`, given precomputed
/// [`internal_flags`] — the [`internal_endpoint`] of the columnar path.
pub(crate) fn border_host(table: &FlowTable, row: usize, flags: &[bool]) -> Option<HostId> {
    let (src, dst) = (table.src(row), table.dst(row));
    let (si, di) = (flags[src.index()], flags[dst.index()]);
    if si == di {
        None
    } else if si {
        Some(src)
    } else {
        Some(dst)
    }
}

/// Dense per-host profile table: every extraction mode's output and every
/// pipeline stage's input.
///
/// Hosts are interned in ascending-IP order, so `HostId` order *is* IP
/// order — the deterministic iteration order the detectors rely on — and a
/// `Vec` indexed by [`HostId::index`] is a total per-host map.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProfileTable {
    hosts: HostInterner,
    profiles: Vec<HostProfile>,
}

impl ProfileTable {
    /// Builds the table from `(ip, profile)` pairs in any order.
    pub(crate) fn from_pairs(mut pairs: Vec<(Ipv4Addr, HostProfile)>) -> Self {
        pairs.sort_by_key(|&(ip, _)| ip);
        let mut hosts = HostInterner::with_capacity(pairs.len());
        let mut profiles = Vec::with_capacity(pairs.len());
        for (ip, p) in pairs {
            hosts.intern(ip);
            profiles.push(p);
        }
        Self { hosts, profiles }
    }

    /// Builds the table from hand-made profiles keyed by host address; the
    /// key guarantees one profile per host.
    pub fn from_map(map: HashMap<Ipv4Addr, HostProfile>) -> Self {
        Self::from_pairs(map.into_iter().collect())
    }

    /// Number of profiled hosts.
    pub fn len(&self) -> usize {
        self.profiles.len()
    }

    /// Whether no host was profiled.
    pub fn is_empty(&self) -> bool {
        self.profiles.is_empty()
    }

    /// The profiled hosts, interned in ascending-IP order.
    pub fn hosts(&self) -> &HostInterner {
        &self.hosts
    }

    /// The profiles, indexed by [`HostId::index`].
    pub fn profiles(&self) -> &[HostProfile] {
        &self.profiles
    }

    /// The profile of `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by this table's interner.
    pub fn profile(&self, id: HostId) -> &HostProfile {
        &self.profiles[id.index()]
    }

    /// The profile of `ip`, if that host was profiled.
    pub fn get(&self, ip: Ipv4Addr) -> Option<&HostProfile> {
        self.hosts.get(ip).map(|id| &self.profiles[id.index()])
    }

    /// Iterates `(id, profile)` in ascending-IP order.
    pub fn iter(&self) -> impl Iterator<Item = (HostId, &HostProfile)> {
        self.profiles
            .iter()
            .enumerate()
            .map(|(i, p)| (HostId::from_index(i), p))
    }
}

/// Borrowed, id-indexed view of a [`ProfileTable`] — the working set of
/// every pipeline stage. Host ids ascend with IP, so stages iterate
/// deterministically without re-sorting.
///
/// This is the stage-level input: build one view per population
/// and hand it to [`crate::reduction::initial_reduction_view`] and the
/// `theta_*_view` detectors, sharing the interning across stages.
#[derive(Debug)]
pub struct ProfileView<'a> {
    hosts: &'a HostInterner,
    profiles: &'a [HostProfile],
}

impl<'a> ProfileView<'a> {
    /// Borrows a [`ProfileTable`] (no re-interning).
    pub fn from_table(table: &'a ProfileTable) -> Self {
        Self {
            hosts: table.hosts(),
            profiles: table.profiles(),
        }
    }

    /// Number of hosts in the view.
    pub fn len(&self) -> usize {
        self.profiles.len()
    }

    /// Whether the view has no hosts.
    pub fn is_empty(&self) -> bool {
        self.profiles.is_empty()
    }

    /// The profile of `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not within this view's id space.
    pub fn profile(&self, id: HostId) -> &'a HostProfile {
        &self.profiles[id.index()]
    }

    /// The address of `id`.
    pub fn ip(&self, id: HostId) -> Ipv4Addr {
        self.hosts.resolve(id)
    }

    /// The id of `ip`, if that host is in the view.
    pub fn id_of(&self, ip: Ipv4Addr) -> Option<HostId> {
        self.hosts.get(ip)
    }

    /// All ids in ascending order (= ascending IP).
    pub fn ids(&self) -> impl Iterator<Item = HostId> + 'a {
        (0..self.profiles.len()).map(HostId::from_index)
    }
}

/// Dense host set over a [`ProfileView`]'s id space — the stage sets
/// (`after_reduction`, `S_vol`, …) without per-membership-test hashing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostMask {
    bits: Vec<bool>,
    count: usize,
}

impl HostMask {
    /// The empty set over an id space of `len` hosts.
    pub fn empty(len: usize) -> Self {
        Self {
            bits: vec![false; len],
            count: 0,
        }
    }

    /// The full set over an id space of `len` hosts.
    pub fn full(len: usize) -> Self {
        Self {
            bits: vec![true; len],
            count: len,
        }
    }

    /// Adds `id` to the set (idempotent).
    pub fn insert(&mut self, id: HostId) {
        if !self.bits[id.index()] {
            self.bits[id.index()] = true;
            self.count += 1;
        }
    }

    /// Number of member hosts.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Member ids in ascending order (= ascending IP over a view).
    pub fn ids(&self) -> impl Iterator<Item = HostId> + '_ {
        self.bits
            .iter()
            .enumerate()
            .filter(|&(_, &b)| b)
            .map(|(i, _)| HostId::from_index(i))
    }

    /// The union of two masks over the same id space.
    pub fn union(&self, other: &HostMask) -> HostMask {
        debug_assert_eq!(self.bits.len(), other.bits.len());
        let mut out = HostMask::empty(self.bits.len());
        for (i, (&a, &b)) in self.bits.iter().zip(&other.bits).enumerate() {
            if a || b {
                out.insert(HostId::from_index(i));
            }
        }
        out
    }

    /// The members of `ips` that exist in the view's id space.
    pub fn from_ips(view: &ProfileView<'_>, ips: &HashSet<Ipv4Addr>) -> Self {
        let mut mask = HostMask::empty(view.len());
        for &ip in ips {
            if let Some(id) = view.id_of(ip) {
                mask.insert(id);
            }
        }
        mask
    }

    /// Resolves the members to addresses through the view.
    pub fn to_ips(&self, view: &ProfileView<'_>) -> HashSet<Ipv4Addr> {
        self.ids().map(|id| view.ip(id)).collect()
    }
}

/// Per-host accumulation state the finished profile does not keep.
#[derive(Debug, Clone)]
enum Pending {
    /// Exact tier: each destination with the time it was first contacted,
    /// in first-contact order; collected into the profile's
    /// `first_contact` map at finish. Last-contact times live in the
    /// worker's flat [`Kernel::last_contact`] map.
    Exact(Vec<(Ipv4Addr, SimTime)>),
    /// Sketched tier: the bounded per-host last-contact cache.
    Sketched(LastSeen<SimTime>),
}

/// One extraction worker's state, and the one per-flow update every
/// extraction mode and both tiers funnel through: the table walk
/// ([`extract_profiles_table_par_tier`]), [`ProfileAccumulator`] and the
/// streaming engine's record walk, serial or host-sharded.
///
/// Callers give each host a dense slot ([`Kernel::open`]) and decompose
/// their flow representation into the monitored host's view of it —
/// `start`/`dst`/`uploaded`/`initiated`/`failed` — so the accumulation
/// semantics live in exactly one place. Per-host absorb order must be
/// non-decreasing in `start` (every caller walks flows in canonical time
/// order), which is also what makes the sketched tier's
/// `early_destinations` cutoff test exact: by the time any initiated flow
/// is absorbed, `first_activity` is already pinned to the host's earliest
/// one.
#[derive(Debug, Clone, Default)]
struct Kernel {
    tier: ProfileTier,
    /// Per slot: the profile under construction.
    profiles: Vec<HostProfile>,
    /// Per slot: state kept until [`Kernel::finish`].
    pending: Vec<Pending>,
    /// Per slot: start of the host's latest flow.
    last_seen: Vec<SimTime>,
    /// Exact tier: last contact time per (slot, destination), the slot in
    /// the high 32 bits of the key. One flat map per worker rather than
    /// one per host; it is only looked up and inserted into, never
    /// iterated, so its order cannot reach any output. It keeps std's
    /// keyed hasher although a fixed-key one is faster (the `hash` bench):
    /// the monitored hosts choose the destinations, and with a public key
    /// one of them could make its contacts collide.
    last_contact: HashMap<u64, SimTime>,
}

impl Kernel {
    fn new(tier: ProfileTier) -> Self {
        Self {
            tier,
            ..Self::default()
        }
    }

    /// Number of slots opened.
    fn len(&self) -> usize {
        self.profiles.len()
    }

    /// Opens the next slot, for host `ip`.
    fn open(&mut self, ip: Ipv4Addr) -> usize {
        self.profiles.push(HostProfile::new(ip, self.tier));
        self.pending.push(match self.tier {
            ProfileTier::Exact => Pending::Exact(Vec::new()),
            ProfileTier::Sketched => Pending::Sketched(LastSeen::new()),
        });
        self.last_seen.push(SimTime::ZERO);
        self.profiles.len() - 1
    }

    /// Absorbs one flow of the host in `slot`.
    fn absorb(
        &mut self,
        slot: usize,
        start: SimTime,
        dst: Ipv4Addr,
        uploaded: u64,
        initiated: bool,
        failed: bool,
    ) {
        self.last_seen[slot] = start;
        let p = &mut self.profiles[slot];
        p.flows_involving += 1;
        p.bytes_uploaded += uploaded;
        if !initiated {
            return;
        }
        p.initiated += 1;
        if failed {
            p.initiated_failed += 1;
        }
        let first = *p.first_activity.get_or_insert(start);
        match (&mut p.repr, &mut self.pending[slot]) {
            (ProfileRepr::Exact { interstitials, .. }, Pending::Exact(firsts)) => {
                let key = (slot as u64) << 32 | u64::from(u32::from(dst));
                match self.last_contact.insert(key, start) {
                    Some(prev) => interstitials.push((start - prev).as_secs_f64()),
                    None => firsts.push((dst, start)),
                }
            }
            (
                ProfileRepr::Sketched {
                    destinations,
                    early_destinations,
                    gaps,
                },
                Pending::Sketched(last),
            ) => {
                let key = u32::from(dst);
                destinations.insert(key);
                if start <= first + SimDuration::from_hours(1) {
                    early_destinations.insert(key);
                }
                if let Some(prev) = last.insert(key, start) {
                    gaps.record((start - prev).as_secs_f64());
                }
            }
            // `open` builds profile and pending state from the same tier.
            (ProfileRepr::Exact { .. }, Pending::Sketched(_))
            | (ProfileRepr::Sketched { .. }, Pending::Exact(_)) => {
                unreachable!("profile repr and pending state tiers diverged")
            }
        }
    }

    /// Finishes every slot, in slot order: each profile with the start of
    /// its host's latest flow.
    fn finish(self) -> impl Iterator<Item = (HostProfile, SimTime)> {
        self.profiles
            .into_iter()
            .zip(self.pending)
            .zip(self.last_seen)
            .map(|((mut p, pending), seen)| {
                if let (ProfileRepr::Exact { first_contact, .. }, Pending::Exact(firsts)) =
                    (&mut p.repr, pending)
                {
                    *first_contact = firsts.into_iter().collect();
                }
                (p, seen)
            })
    }
}

/// Record-oriented profile accumulation, for callers that hold flow
/// records rather than a [`FlowTable`]. It feeds the same per-flow kernel
/// as columnar extraction ([`extract_profiles_table_par_tier`]), so both
/// produce identical profiles.
///
/// The accumulator is *attribution-agnostic*: callers decide which flows it
/// sees and which endpoint is the monitored host (via
/// [`internal_endpoint`]), so a shard can absorb only the hosts it owns.
/// Flows must be absorbed in non-decreasing start-time order per host for
/// interstitials and first contacts to be correct; the accumulator itself
/// does not enforce global ordering.
#[derive(Debug, Clone, Default)]
pub struct ProfileAccumulator {
    /// Host address → kernel slot.
    hosts: HostInterner,
    kernel: Kernel,
}

impl ProfileAccumulator {
    /// Creates an empty exact-tier accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty accumulator for the given tier.
    pub fn with_tier(tier: ProfileTier) -> Self {
        Self {
            hosts: HostInterner::new(),
            kernel: Kernel::new(tier),
        }
    }

    /// Number of hosts profiled so far.
    pub fn len(&self) -> usize {
        self.kernel.len()
    }

    /// Whether no hosts have been profiled yet.
    pub fn is_empty(&self) -> bool {
        self.kernel.len() == 0
    }

    /// Absorbs one flow attributed to the monitored endpoint `host`
    /// (obtained from [`internal_endpoint`]).
    pub fn absorb(&mut self, f: &FlowRecord, host: Ipv4Addr) {
        let mut slot = self.hosts.intern(host).index();
        if slot == self.kernel.len() {
            slot = self.kernel.open(host);
        }
        self.kernel.absorb(
            slot,
            f.start,
            f.dst,
            f.bytes_uploaded_by(host).unwrap_or(0),
            f.src == host,
            f.is_failed(),
        );
    }

    /// Finishes the window and returns the dense profile table.
    pub fn finish(self) -> ProfileTable {
        ProfileTable::from_pairs(self.kernel.finish().map(|(p, _)| (p.ip, p)).collect())
    }
}

/// Columnar accumulation state: per-table-host slot assignment over dense
/// [`HostId`]s, funneling each row into the same [`Kernel`] the
/// record-oriented accumulator uses.
struct TableProfiler<'t> {
    table: &'t FlowTable,
    /// Table host id → kernel slot (`u32::MAX` = not profiled yet).
    slot: Vec<u32>,
    kernel: Kernel,
}

impl<'t> TableProfiler<'t> {
    fn new(table: &'t FlowTable, tier: ProfileTier) -> Self {
        Self {
            table,
            slot: vec![u32::MAX; table.hosts().len()],
            kernel: Kernel::new(tier),
        }
    }

    fn absorb_row(&mut self, row: usize, host: HostId) {
        let t = self.table;
        let mut s = self.slot[host.index()] as usize;
        if s == u32::MAX as usize {
            s = self.kernel.open(t.hosts().resolve(host));
            self.slot[host.index()] = s as u32;
        }
        let initiated = t.src(row) == host;
        self.kernel.absorb(
            s,
            t.start(row),
            t.hosts().resolve(t.dst(row)),
            if initiated {
                t.src_bytes(row)
            } else {
                t.dst_bytes(row)
            },
            initiated,
            t.is_failed(row),
        );
    }

    fn finish(self) -> Vec<(Ipv4Addr, HostProfile)> {
        self.kernel.finish().map(|(p, _)| (p.ip, p)).collect()
    }
}

/// Deterministic host→shard assignment used by every parallel stage.
pub(crate) fn host_shard(host: Ipv4Addr, shards: usize) -> usize {
    debug_assert!(shards > 0);
    // Multiply-shift mix so adjacent campus addresses spread across shards.
    let h = (u32::from(host) as u64).wrapping_mul(0x9E3779B97F4A7C15);
    ((h >> 32) as usize) % shards
}

/// Walks the table in canonical time order and profiles every border row
/// whose monitored host `owns` accepts.
fn profile_rows(
    table: &FlowTable,
    flags: &[bool],
    tier: ProfileTier,
    owns: impl Fn(HostId) -> bool,
) -> Vec<(Ipv4Addr, HostProfile)> {
    let mut prof = TableProfiler::new(table, tier);
    for row in table.rows_in_order() {
        if let Some(host) = border_host(table, row, flags) {
            if owns(host) {
                prof.absorb_row(row, host);
            }
        }
    }
    prof.finish()
}

/// Profile extraction over a [`FlowTable`] at the given [`ProfileTier`],
/// sharded over hosts across `threads` scoped workers.
///
/// Rows are visited in the table's canonical time order, so the result is
/// independent of the original record order. Each worker scans the table
/// and accumulates only the hosts assigned to its shard, so shards touch
/// disjoint state and need no synchronization. Per-host flow order is
/// preserved, which makes the result identical for any thread count — at
/// *both* tiers: sketch state is a pure function of the per-host flow
/// sequence (see [`pw_sketch`]), so shard concatenation order is
/// invisible. The shard assignment is computed once per distinct host,
/// not re-derived per flow per shard.
///
/// `threads` is clamped to `1..=`[`MAX_THREADS`]; one thread runs on the
/// calling thread.
pub fn extract_profiles_table_par_tier<F>(
    table: &FlowTable,
    is_internal: F,
    tier: ProfileTier,
    threads: usize,
) -> ProfileTable
where
    F: Fn(Ipv4Addr) -> bool + Sync,
{
    let flags = internal_flags(table, &is_internal);
    let threads = threads.clamp(1, MAX_THREADS);
    let shard_of: Vec<usize> = table
        .hosts()
        .ips()
        .iter()
        .map(|&ip| host_shard(ip, threads))
        .collect();
    let shards = on_shards(threads, |tid| {
        profile_rows(table, &flags, tier, |host| shard_of[host.index()] == tid)
    });
    ProfileTable::from_pairs(shards.into_iter().flatten().collect())
}

/// Runs `work` once per shard `0..threads` — on the calling thread when
/// there is one shard, else on scoped threads — and returns the results
/// in shard order.
fn on_shards<T: Send>(threads: usize, work: impl Fn(usize) -> T + Sync) -> Vec<T> {
    if threads == 1 {
        return vec![work(0)];
    }
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|tid| {
                let work = &work;
                scope.spawn(move || work(tid))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("profile shard thread panicked"))
            .collect()
    })
}

/// What [`profile_records`] found in one pass over a window's rows.
#[derive(Debug, Default)]
pub(crate) struct RecordWalk {
    /// Every profiled host with the start of its latest border flow, in
    /// no particular order.
    pub(crate) hosts: Vec<(HostProfile, SimTime)>,
    /// Rows profiled: every row, less the duplicates `dedupe` skipped.
    pub(crate) rows: usize,
    /// Rows equal to the row before them.
    pub(crate) duplicates: usize,
}

/// One worker's pass over `rows`: profiles the border rows whose
/// monitored host `owns` accepts, and counts every row and duplicate.
fn walk_records<'a, F>(
    rows: impl Iterator<Item = &'a FlowRecord>,
    is_internal: &F,
    tier: ProfileTier,
    dedupe: bool,
    owns: impl Fn(Ipv4Addr) -> bool,
) -> RecordWalk
where
    F: Fn(Ipv4Addr) -> bool,
{
    let mut acc = ProfileAccumulator::with_tier(tier);
    let (mut kept, mut duplicates) = (0, 0);
    let mut prev: Option<&FlowRecord> = None;
    for f in rows {
        if prev.replace(f) == Some(f) {
            duplicates += 1;
            if dedupe {
                continue;
            }
        }
        kept += 1;
        if let Some(host) = internal_endpoint(f, is_internal) {
            if owns(host) {
                acc.absorb(f, host);
            }
        }
    }
    RecordWalk {
        hosts: acc.kernel.finish().collect(),
        rows: kept,
        duplicates,
    }
}

/// Profiles records given in canonical time order without building a
/// [`FlowTable`], in one pass per worker, sharded over hosts across
/// `threads` scoped workers (clamped to `1..=`[`MAX_THREADS`]) — the
/// streaming engine's window close.
///
/// Identical records sort adjacently, so a row equal to the one before it
/// is a duplicate: every duplicate is counted, and skipped when `dedupe`
/// is set. Unlike the table walk, this consults `is_internal` for both
/// endpoints of every row. Each worker reads every row and keeps the hosts
/// of its shard, so the result is the same for any thread count.
pub(crate) fn profile_records<'a, I, F>(
    rows: I,
    is_internal: &F,
    tier: ProfileTier,
    threads: usize,
    dedupe: bool,
) -> RecordWalk
where
    I: Iterator<Item = &'a FlowRecord> + Clone + Send + Sync,
    F: Fn(Ipv4Addr) -> bool + Sync,
{
    let threads = threads.clamp(1, MAX_THREADS);
    let shards = on_shards(threads, |tid| {
        // One shard owns every host, without hashing a host per row.
        walk_records(rows.clone(), is_internal, tier, dedupe, |host| {
            threads == 1 || host_shard(host, threads) == tid
        })
    });
    // Every shard reads and counts every row, so the first's counts stand.
    shards
        .into_iter()
        .reduce(|mut walk, shard| {
            walk.hosts.extend(shard.hosts);
            walk
        })
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pw_flow::{FlowState, Payload, Proto};

    /// Serial exact-tier extraction over `flows`.
    fn extract(flows: &[FlowRecord]) -> ProfileTable {
        extract_profiles_table_par_tier(
            &FlowTable::from_records(flows),
            internal,
            ProfileTier::Exact,
            1,
        )
    }

    /// The exact-tier profile of `ip` extracted from `flows`.
    fn profile_of(flows: &[FlowRecord], ip: Ipv4Addr) -> HostProfile {
        extract(flows).get(ip).expect("host profiled").clone()
    }

    const H: Ipv4Addr = Ipv4Addr::new(10, 1, 0, 1);
    const H2: Ipv4Addr = Ipv4Addr::new(10, 1, 0, 2);
    const E1: Ipv4Addr = Ipv4Addr::new(1, 1, 1, 1);
    const E2: Ipv4Addr = Ipv4Addr::new(2, 2, 2, 2);

    fn flow(
        src: Ipv4Addr,
        dst: Ipv4Addr,
        start_s: u64,
        up: u64,
        down: u64,
        failed: bool,
    ) -> FlowRecord {
        FlowRecord {
            start: SimTime::from_secs(start_s),
            end: SimTime::from_secs(start_s + 1),
            src,
            sport: 1000,
            dst,
            dport: 80,
            proto: Proto::Tcp,
            src_pkts: 1,
            src_bytes: up,
            dst_pkts: 1,
            dst_bytes: down,
            state: if failed {
                FlowState::SynNoAnswer
            } else {
                FlowState::Established
            },
            payload: Payload::empty(),
        }
    }

    fn internal(ip: Ipv4Addr) -> bool {
        ip.octets()[0] == 10
    }

    #[test]
    fn volume_counts_both_directions() {
        let flows = vec![
            flow(H, E1, 0, 100, 1000, false), // host uploads 100
            flow(E2, H, 10, 50, 900, false),  // host uploads 900 (responder)
        ];
        let p = profile_of(&flows, H);
        assert_eq!(p.flows_involving, 2);
        assert_eq!(p.bytes_uploaded, 1000);
        assert_eq!(p.avg_upload_per_flow(), Some(500.0));
        // Only one initiated.
        assert_eq!(p.initiated, 1);
    }

    #[test]
    fn failed_rate_over_initiated_only() {
        let flows = vec![
            flow(H, E1, 0, 100, 0, true),
            flow(H, E1, 10, 100, 100, false),
            flow(E2, H, 20, 10, 10, true), // inbound failure: not counted
        ];
        let p = profile_of(&flows, H);
        assert_eq!(p.failed_rate(), Some(0.5));
        assert!(p.initiated_successfully());
    }

    #[test]
    fn churn_counts_new_after_first_hour() {
        let flows = vec![
            flow(H, E1, 0, 1, 1, false),       // first activity at t=0
            flow(H, E2, 30 * 60, 1, 1, false), // within first hour: old
            flow(H, Ipv4Addr::new(3, 3, 3, 3), 2 * 3600, 1, 1, false), // new
            flow(H, Ipv4Addr::new(4, 4, 4, 4), 3 * 3600, 1, 1, false), // new
        ];
        let p = profile_of(&flows, H);
        assert_eq!(p.distinct_destinations(), 4);
        assert_eq!(p.new_ip_fraction(), Some(0.5));
    }

    #[test]
    fn repeat_contact_is_not_new() {
        let flows = vec![
            flow(H, E1, 0, 1, 1, false),
            flow(H, E1, 2 * 3600, 1, 1, false), // repeat, not a new IP
        ];
        let p = profile_of(&flows, H);
        assert_eq!(p.new_ip_fraction(), Some(0.0));
    }

    #[test]
    fn interstitials_are_per_destination() {
        let flows = vec![
            flow(H, E1, 0, 1, 1, false),
            flow(H, E2, 5, 1, 1, false),
            flow(H, E1, 100, 1, 1, false), // gap 100 to E1
            flow(H, E2, 305, 1, 1, false), // gap 300 to E2
            flow(H, E1, 250, 1, 1, false), // gap 150 to E1
        ];
        let p = profile_of(&flows, H);
        let mut ist = p.interstitials().to_vec();
        ist.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(ist, vec![100.0, 150.0, 300.0]);
    }

    #[test]
    fn internal_to_internal_ignored() {
        let flows = vec![flow(H, H2, 0, 1, 1, false)];
        assert!(extract(&flows).is_empty());
    }

    #[test]
    fn inbound_only_host_has_no_churn_or_failed_rate() {
        let flows = vec![flow(E1, H, 0, 10, 20, false)];
        let p = profile_of(&flows, H);
        assert_eq!(p.failed_rate(), None);
        assert_eq!(p.new_ip_fraction(), None);
        assert_eq!(p.avg_upload_per_flow(), Some(20.0));
        assert!(!p.initiated_successfully());
    }

    #[test]
    fn unsorted_input_is_handled() {
        let flows = vec![
            flow(H, E1, 100, 1, 1, false),
            flow(H, E1, 0, 1, 1, false), // earlier, listed later
        ];
        let p = profile_of(&flows, H);
        assert_eq!(p.interstitials(), &[100.0]);
        assert_eq!(p.first_contact().expect("exact tier")[&E1], SimTime::ZERO);
    }

    fn mixed_flows() -> Vec<FlowRecord> {
        let mut flows = vec![
            flow(H, E1, 0, 100, 10, false),
            flow(H, E2, 5, 50, 10, true),
            flow(E1, H, 9, 20, 800, false),
            flow(H, E1, 120, 100, 10, false),
            flow(H2, E2, 200, 10, 10, false),
        ];
        flows.sort_by_key(|f| f.start);
        flows
    }

    #[test]
    fn streaming_builder_matches_batch_extraction() {
        let flows = mixed_flows();
        let mut acc = ProfileAccumulator::new();
        assert!(acc.is_empty());
        for f in &flows {
            if let Some(host) = internal_endpoint(f, internal) {
                acc.absorb(f, host);
            }
        }
        assert_eq!(acc.len(), 2);
        assert_eq!(acc.finish(), extract(&flows));
    }

    #[test]
    fn table_extraction_is_ip_ordered_at_any_thread_count() {
        let flows = mixed_flows();
        let table = FlowTable::from_records(&flows);
        let pt = extract(&flows);
        assert_eq!(pt.len(), 2);
        // Ascending-IP id order.
        let ips: Vec<Ipv4Addr> = pt.iter().map(|(_, p)| p.ip).collect();
        assert_eq!(ips, vec![H, H2]);
        // Sharded table extraction agrees for any thread count.
        for threads in [2usize, 3, 8] {
            let par =
                extract_profiles_table_par_tier(&table, internal, ProfileTier::Exact, threads);
            assert_eq!(par, pt, "threads={threads}");
        }
    }

    #[test]
    fn sketched_tier_matches_exact_metrics_on_small_hosts() {
        let flows = mixed_flows();
        let table = FlowTable::from_records(&flows);
        let exact = extract_profiles_table_par_tier(&table, internal, ProfileTier::Exact, 1);
        let sk = extract_profiles_table_par_tier(&table, internal, ProfileTier::Sketched, 1);
        assert_eq!(exact.len(), sk.len());
        for ((_, e), (_, s)) in exact.iter().zip(sk.iter()) {
            assert_eq!(s.tier(), ProfileTier::Sketched);
            assert_eq!(e.ip, s.ip);
            assert_eq!(e.flows_involving, s.flows_involving);
            assert_eq!(e.bytes_uploaded, s.bytes_uploaded);
            assert_eq!(e.first_activity, s.first_activity);
            // Below the sparse caps the sketched metrics are exact.
            assert_eq!(e.new_ip_fraction(), s.new_ip_fraction());
            assert_eq!(e.distinct_destinations(), s.distinct_destinations());
            assert_eq!(e.interstitial_count(), s.interstitial_count());
            let mut ist = e.interstitials().to_vec();
            ist.sort_by(f64::total_cmp);
            assert_eq!(ist.as_slice(), s.interstitials());
            assert_eq!(e.gap_cdf(None), s.gap_cdf(None));
        }
    }

    #[test]
    fn sketched_sharded_extraction_is_thread_count_invariant() {
        let flows = mixed_flows();
        let table = FlowTable::from_records(&flows);
        let serial = extract_profiles_table_par_tier(&table, internal, ProfileTier::Sketched, 1);
        for threads in [2usize, 4, 8] {
            let par =
                extract_profiles_table_par_tier(&table, internal, ProfileTier::Sketched, threads);
            assert_eq!(par, serial, "threads={threads}");
        }
    }

    #[test]
    fn sketched_tier_bounds_bytes_under_destination_blast() {
        // One chatty host contacting thousands of distinct destinations,
        // with repeat contacts so gaps accumulate too.
        let mut flows = Vec::new();
        for i in 0..4000u32 {
            let dst = Ipv4Addr::from(0x0808_0000 + i);
            flows.push(flow(H, dst, u64::from(i) * 7, 10, 10, false));
            flows.push(flow(H, dst, u64::from(i) * 7 + 40_000, 10, 10, false));
        }
        flows.sort_by_key(|f| f.start);
        let table = FlowTable::from_records(&flows);
        let exact = extract_profiles_table_par_tier(&table, internal, ProfileTier::Exact, 1);
        let sk = extract_profiles_table_par_tier(&table, internal, ProfileTier::Sketched, 1);
        let (e, s) = (
            exact.get(H).expect("profiled"),
            sk.get(H).expect("profiled"),
        );
        assert!(e.estimated_bytes() > SKETCHED_BYTES_PER_HOST_CAP);
        assert!(s.estimated_bytes() <= SKETCHED_BYTES_PER_HOST_CAP);
        // The HLL estimate stays within its error envelope.
        let err = (s.distinct_destinations() as f64 - 4000.0).abs() / 4000.0;
        assert!(err < 0.1, "distinct-destination error {err}");
        assert!(s.has_interstitials());
        assert!(s.gap_cdf(None).is_some());
    }
}
