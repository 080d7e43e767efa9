//! Property tests for the online-mutation subsystem: arbitrary mutation
//! schedules against a digital oracle.
//!
//! The oracle is a `BTreeMap<u64, Vec<u32>>` replaying the same schedule
//! under the documented validity rules. Three contracts:
//!
//! * **Oracle replay** — after any insert/update/delete/compact schedule,
//!   the array's live-id set, per-id stored vectors, and typed error
//!   responses (`DuplicateId`, `UnknownId`, `CapacityExhausted`) match the
//!   oracle exactly — on the Ideal backend, on the corner-Noisy device
//!   model, and on the corner-Noisy model with stuck-at faults plus a
//!   lenient quarantine-and-remap repair policy (remapped and quarantined
//!   rows must not leak into the logical state).
//! * **Search agreement** — on the fault-free legs, the nearest slot of a
//!   live-vector probe maps to a logical id whose exact integer distance
//!   equals the oracle minimum (tie-safe).
//! * **Compaction transparency** — an explicit `compact()` after the
//!   schedule reclaims every tombstone without disturbing any live vector,
//!   and wear accounting never undercounts the successful writes.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

use ferex::analog::lta::LtaParams;
use ferex::core::array::{Backend, CircuitConfig};
use ferex::core::{
    find_minimal_cell, sizing_for, DistanceMatrix, DistanceMetric, FerexArray, FerexError,
    MutationPolicy, RepairPolicy,
};
use ferex::fefet::{FaultPlan, Technology, VariationModel};
use proptest::prelude::*;

const DIM: usize = 4;
const BITS: u32 = 2;
const CAPACITY: usize = 10;
/// Ids live before the schedule starts (drawn from the same 0..ID_SPACE
/// pool the schedule mutates, so collisions and misses both happen).
const INITIAL: u64 = 4;
const ID_SPACE: u64 = 12;

/// Backend legs: Ideal, corner-Noisy, and corner-Noisy with stuck-at
/// faults behind the lenient quarantine-and-remap repair policy.
#[derive(Clone, Copy, PartialEq)]
enum Leg {
    Ideal,
    Noisy,
    NoisyFaulted,
}

const LEGS: [Leg; 3] = [Leg::Ideal, Leg::Noisy, Leg::NoisyFaulted];

/// Decodes one drawn payload into a `DIM`-symbol vector of `BITS`-bit
/// symbols.
fn vector_from(payload: u32) -> Vec<u32> {
    (0..DIM).map(|j| (payload >> (2 * j)) & ((1 << BITS) - 1)).collect()
}

/// A mutation-enabled array on the leg's backend, pre-loaded with the
/// initial ids and programmed (write-verified on the faulted leg, so the
/// initial rows already exercise the remap path).
fn build_array(metric: DistanceMetric, leg: Leg, seed: u64) -> FerexArray {
    let tech = Technology::default();
    let dm = DistanceMatrix::from_metric(metric, BITS);
    let encoding = find_minimal_cell(&dm, &sizing_for(&tech)).expect("sizing succeeds").encoding;
    let backend = match leg {
        Leg::Ideal => Backend::Ideal,
        Leg::Noisy | Leg::NoisyFaulted => {
            let faults = if leg == Leg::NoisyFaulted {
                FaultPlan { sa1_rate: 0.05, ..FaultPlan::none() }
            } else {
                FaultPlan::none()
            };
            Backend::Noisy(Box::new(CircuitConfig {
                variation: VariationModel::none(),
                lta: LtaParams::ideal(),
                faults,
                seed,
                ..Default::default()
            }))
        }
    };
    let mut array = FerexArray::new(tech, encoding, DIM, backend);
    if leg == Leg::NoisyFaulted {
        array
            .set_repair_policy(RepairPolicy { spare_rows: 3, ..Default::default() })
            .expect("valid lenient policy");
    }
    array.enable_mutation(MutationPolicy::with_capacity(CAPACITY)).expect("valid policy");
    for id in 0..INITIAL {
        array.insert(id, vector_from(id as u32 * 37)).expect("initial insert fits");
    }
    if leg == Leg::NoisyFaulted {
        array.program_verified().expect("lenient verify quarantines instead of failing");
    } else {
        array.program();
    }
    array
}

fn initial_mirror() -> BTreeMap<u64, Vec<u32>> {
    (0..INITIAL).map(|id| (id, vector_from(id as u32 * 37))).collect()
}

/// One drawn op: (kind, id, payload). Kind 0 insert, 1 update, 2 delete,
/// 3 maintenance/compact.
fn op_strategy() -> impl Strategy<Value = Vec<(u8, u64, u32)>> {
    prop::collection::vec((0u8..4, 0u64..ID_SPACE, 0u32..256), 1..48)
}

proptest! {
    /// Any mutation schedule, on any metric and any backend leg, leaves
    /// the array logically identical to the digital oracle replay: same
    /// live ids, same stored vectors, same typed errors op for op.
    #[test]
    fn arbitrary_schedules_match_the_digital_oracle(
        ops in op_strategy(),
        metric_i in 0usize..3,
        leg_i in 0usize..3,
        seed in 0u64..16,
    ) {
        let metric = DistanceMetric::ALL[metric_i];
        let leg = LEGS[leg_i];
        let mut array = build_array(metric, leg, seed);
        let mut mirror = initial_mirror();
        let mut applied_writes = INITIAL;

        for &(kind, id, payload) in &ops {
            let v = vector_from(payload);
            match kind {
                0 => {
                    let live = mirror.len();
                    let r = array.insert(id, v.clone());
                    match mirror.entry(id) {
                        Entry::Occupied(_) => prop_assert!(
                            matches!(r, Err(FerexError::DuplicateId { id: e }) if e == id),
                            "insert of live id {id} must fail typed, got {r:?}"
                        ),
                        Entry::Vacant(_) if live >= CAPACITY => prop_assert!(
                            matches!(r, Err(FerexError::CapacityExhausted { capacity: CAPACITY })),
                            "insert into a full table must fail typed, got {r:?}"
                        ),
                        Entry::Vacant(slot) => {
                            prop_assert!(r.is_ok(), "in-bounds insert of {id} failed: {r:?}");
                            slot.insert(v);
                            applied_writes += 1;
                        }
                    }
                }
                1 => {
                    let r = array.update_id(id, v.clone());
                    if let Some(slot) = mirror.get_mut(&id) {
                        prop_assert!(r.is_ok(), "update of live id {id} failed: {r:?}");
                        *slot = v;
                        applied_writes += 1;
                    } else {
                        prop_assert!(
                            matches!(r, Err(FerexError::UnknownId { id: e }) if e == id),
                            "update of unknown id {id} must fail typed, got {r:?}"
                        );
                    }
                }
                2 => {
                    let r = array.delete(id);
                    if mirror.contains_key(&id) {
                        prop_assert!(r.is_ok(), "delete is logical and cannot fail: {r:?}");
                        mirror.remove(&id);
                    } else {
                        prop_assert!(
                            matches!(r, Err(FerexError::UnknownId { id: e }) if e == id),
                            "delete of unknown id {id} must fail typed, got {r:?}"
                        );
                    }
                }
                _ => {
                    // Background passes are logically invisible; they may
                    // spend rotation writes but never change the contents.
                    if payload % 2 == 0 {
                        array.maintenance();
                    } else {
                        array.compact();
                    }
                }
            }
            prop_assert_eq!(array.live_len(), mirror.len());
        }

        // Logical state equivalence, slot layout free.
        let ids: Vec<u64> = mirror.keys().copied().collect();
        prop_assert_eq!(array.live_ids(), ids.clone());
        for id in &ids {
            prop_assert_eq!(array.vector_of(*id).as_ref(), mirror.get(id));
        }
        prop_assert!(array.live_len() + array.tombstones() <= CAPACITY);

        // Wear accounting never undercounts: every applied insert/update
        // spent at least one write; rotations only add.
        prop_assert!(array.wear().total_writes >= applied_writes);

        // Compaction transparency: reclaiming every tombstone disturbs
        // nothing logical.
        array.compact();
        prop_assert_eq!(array.tombstones(), 0);
        prop_assert_eq!(array.live_ids(), ids.clone());
        for id in &ids {
            prop_assert_eq!(array.vector_of(*id).as_ref(), mirror.get(id));
        }

        // Search agreement on the fault-free legs: a live vector's nearest
        // slot resolves to an id at the oracle-minimal distance.
        if leg != Leg::NoisyFaulted && !mirror.is_empty() {
            for (qi, probe) in mirror.values().take(3).enumerate() {
                let out = array
                    .search_batch_at(std::slice::from_ref(probe), &[qi as u64])
                    .expect("live table serves")
                    .remove(0);
                let got_id = array.id_at(out.nearest).expect("nearest slot must be live");
                let got = mirror
                    .get(&got_id)
                    .map(|v| metric.vector_distance(probe, v))
                    .expect("nearest id must be in the oracle");
                let best = mirror
                    .values()
                    .map(|v| metric.vector_distance(probe, v))
                    .min()
                    .expect("mirror is non-empty");
                prop_assert_eq!(got, best, "nearest id is not distance-minimal");
            }
        }
    }

    /// Failed validations are inert: a duplicate insert or an
    /// unknown-id update/delete leaves every live vector untouched,
    /// regardless of the prior schedule.
    #[test]
    fn rejected_ops_leave_no_trace(
        ops in op_strategy(),
        metric_i in 0usize..3,
        seed in 0u64..16,
    ) {
        let metric = DistanceMetric::ALL[metric_i];
        let mut array = build_array(metric, Leg::Noisy, seed);
        let mut mirror = initial_mirror();
        for &(kind, id, payload) in &ops {
            let v = vector_from(payload);
            match kind {
                0 => {
                    if array.insert(id, v.clone()).is_ok() {
                        mirror.insert(id, v);
                    }
                }
                1 => {
                    if array.update_id(id, v.clone()).is_ok() {
                        mirror.insert(id, v);
                    }
                }
                2 => {
                    if array.delete(id).is_ok() {
                        mirror.remove(&id);
                    }
                }
                _ => {
                    array.maintenance();
                }
            }
        }
        let before: Vec<(u64, Vec<u32>)> =
            mirror.iter().map(|(id, v)| (*id, v.clone())).collect();

        // A guaranteed-rejected op of each kind.
        let unknown = ID_SPACE + 1000;
        prop_assert!(matches!(
            array.update_id(unknown, vector_from(9)),
            Err(FerexError::UnknownId { .. })
        ));
        prop_assert!(matches!(array.delete(unknown), Err(FerexError::UnknownId { .. })));
        if let Some(&live) = mirror.keys().next() {
            prop_assert!(matches!(
                array.insert(live, vector_from(9)),
                Err(FerexError::DuplicateId { .. })
            ));
        }

        for (id, v) in &before {
            prop_assert_eq!(array.vector_of(*id).as_ref(), Some(v));
        }
        prop_assert_eq!(array.live_len(), before.len());
    }
}
